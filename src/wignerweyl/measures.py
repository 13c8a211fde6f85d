"""Invariant-measure quadrature grids for CP^(N-1), SU(N), and the HW plane.

The charts are defined here, once, keyed by the manifold name: rows are
(re, im) on the oscillator plane ("HW_PLANE"); on CP^(N-1) ("CP") and SU(N)
("SUN") they hold one (phi, theta) pair per block of ``_colatitude_blocks``,
the only list of the pairs, followed on SU(N) by the Cartan angles Phi_c
(Tilma & Sudarshan, J. Phys. A 35 (2002) 10467), named by
``_angle_columns``.  ``points._POINT_TYPE`` gives each chart's point type.

Grids are tensor products of one-dimensional rules, each exact by
construction; nothing is corrected after the fact:

* angle directions get uniform rules: n nodes on a full period sum
  e^(ikx) to zero unless n divides k, so they are exact on every frequency
  below n, and on any set of frequencies of which n divides no nonzero one.
  Every count comes from the chart's trigonometric degree D (``_degree``),
  4M on CP^(N-1) and 2M on SU(N): J(3) has integer eigenvalues in -M .. M,
  a U(g) entry times a conjugate one carries their differences, up to 2M,
  and a product of two Wigner-kernel entries U Pi U^dagger, each already a
  difference, twice that.  On SU(N >= 3) phi_j takes D + 1 nodes on
  [0, 2 pi), and Phi_c takes (c + 1) M + 1 on [0, pi sqrt(2c(c + 1))),
  where J((c + 1)^2 - 1) has integer eigenvalues in -cM .. M.  Where the
  chart's range is shorter (the pi-range phi axes of SU(4), the Cartan
  angles Phi_c), the range is extended to one of these multiples: each
  added copy is a right translation by a diagonal SU(N) element, so the
  extended chart covers the group uniformly and normalization removes the
  multiplicity;
* on SU(2) and CP^(N-1) every angle takes the least odd count above D/2
  (SU(2): M + 1 for even M, M + 2 for odd; CP^(N-1): 2M + 1), because a
  frequency the grid keeps is even or at most D/2, and the least even
  multiple of an odd n > D/2 is 2n > D.  On SU(2), J(3) has eigenvalues
  M, M - 2, .., -M, so every frequency of phi1 and Phi1 is even.  On
  CP^(N-1) the parity is a function of n_N, so a kernel entry is a
  polynomial in the chart's point z = U e_N (nested spherical coordinates,
  see ``transforms._compose_cp_point``) and conj(z), and a product of two
  is a sum of monomials z^a conj(z)^b with |a| = |b| <= 2M.  z_1 and z_2
  carry the phases phi_1 + s and -phi_1 + s, s = phi_2 + .. + phi_(N-1),
  and z_(j+1), j >= 2, the phase phi_(j+1) + .. + phi_(N-1), so with
  e = a - b (sum 0, positive part at most 2M) the monomial has frequency
  e_1 - e_2 in phi_1 and e_1 + .. + e_j, of size at most 2M, in phi_j,
  j >= 2.  2M + 1 nodes on every phi_j, j >= 2, keep only the monomials
  with all those partial sums 0: e_1 + e_2 = 0 and e_3 = .. = e_N = 0,
  whose phi_1 frequency 2 e_1 is even and at most 4M in size.  So every
  monomial with e != 0, whose integral is 0, sums to 0; those with e = 0
  are polynomials in the sin^2 theta_j, which the colatitude rules below
  integrate.  The phase argument reads no colatitude rule, so it holds on
  ``_shift_rule``'s moved colatitudes too: kernels at x + shift and at x
  multiply to monomials of the same kind;
* colatitudes get Gauss-Jacobi rules.  With s = sin^2 theta the measure
  factor c cos^(2a+1) theta sin^(2b+1) theta dtheta is (c/2) (1 - s)^a s^b ds,
  and the invariant measures push forward to the uniform measure on the
  simplex of the |z_i|^2 (Duistermaat & Heckman, Invent. Math. 69 (1982)
  259).  Once the uniform angles have averaged out the phases, an integrand
  of degree D is a polynomial of degree <= D/2 in s, so floor(D/4) + 1 nodes
  per colatitude, M + 1 on CP and floor(M/2) + 1 on SU(N), are exact
  (Stroud's conical product rule).  ``_shift_rule`` takes the colatitudes a
  shift moves, on which kernels at two points are no such polynomial.

The level is recorded as ``QuadratureGrid.exactness`` (the factors' levels
joined by commas on products): SU(N), the Weyl side, is built at "pairs",
since a Weyl symbol Tr[A U(g)] is linear in the entries of U(g) and every
group integral the package takes pairs one entry with one conjugate entry;
CP^(N-1), the Wigner side, at "quads", products of two kernel entries.

Compact-manifold grids are volume-normalized so that the weights sum to the
representation dimension.  The oscillator plane has two grids for the
measure d^2alpha / pi: ``plane_grid``, the default, exact by construction
("pairs"; its measure is the whole plane, so ``raw_volume`` is infinite), and
``hw_grid``, a Gauss-Legendre square of given radius and resolution
("window"), exact only up to the tails the window cuts off.  One routine,
``_golub_welsch``, builds every 1-D Gauss rule (Legendre, Jacobi, Laguerre)
from its family's three-term recurrence, in extended precision where the
platform has it; each table is built once per process and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .algebra import HW, SUN, Composite, SystemDescriptor, dimension
from .points import _POINT_TYPE, CompositePoint, PhasePoint

MAX_NODES = 20_000_000

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "gauss"

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False


@dataclass(eq=False)
class QuadratureGrid:
    """Tensor-product quadrature over a phase-space manifold.

    ``normalization`` multiplies the product of per-axis weights to give the
    final node weight; ``raw_volume`` is the unnormalized measure total.
    Instances hash by identity; treat them as immutable.
    """

    system: SystemDescriptor
    manifold: str  # "CP" | "SUN" | "HW_PLANE" | "PRODUCT"
    axes: tuple[Axis, ...]
    normalization: float
    raw_volume: float
    exactness: str
    factors: tuple["QuadratureGrid", ...] | None = None
    _weights: np.ndarray | None = field(default=None, repr=False)
    _coords: np.ndarray | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax.nodes) for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        n = 1
        for ax in self.axes:
            n *= len(ax.nodes)
        return n

    @property
    def polar(self) -> bool:
        """Whether this is a plane rule, whose axes are (r, psi) and rows (re, im)."""
        return self.manifold == "HW_PLANE" and self.axes[0].kind == "laguerre"

    @property
    def column_names(self) -> tuple[str, ...]:
        if self.factors:
            return _factor_columns(g.column_names for g in self.factors)
        return ("re", "im") if self.polar else tuple(ax.name for ax in self.axes)

    def _check_materializable(self) -> None:
        # grids are cheap descriptions; only the flattened tensor is bounded
        if self.n_nodes > MAX_NODES:
            raise OverflowError(
                f"grid holds {self.n_nodes} nodes (limit {MAX_NODES}); "
                "lower the resolution"
            )

    def weights(self) -> np.ndarray:
        """Flat node weights in C order over the axis tensor product."""
        if self._weights is None:
            self._check_materializable()
            w = np.asarray([self.normalization])
            for ax in self.axes:
                w = np.multiply.outer(w, ax.weights)
            w = w.reshape(-1)
            w.flags.writeable = False
            self._weights = w
        return self._weights

    def coords(self) -> np.ndarray:
        """(n_nodes, n_axes) array of node coordinates, C order.

        A product's rows are its factors' rows, concatenated; a plane rule's
        rows are the Cartesian (re, im) of alpha = r e^{i psi}.
        """
        if self._coords is None:
            self._check_materializable()
            if self.factors:
                rows = [g.coords() for g in self.factors]
                index = np.unravel_index(np.arange(self.n_nodes), [len(r) for r in rows])
                c = np.concatenate([r[i] for r, i in zip(rows, index)], axis=1)
            elif self.polar:
                r, psi = np.meshgrid(self.axes[0].nodes, self.axes[1].nodes, indexing="ij")
                c = np.stack([(r * np.cos(psi)).ravel(), (r * np.sin(psi)).ravel()], axis=1)
            else:
                mesh = np.meshgrid(*(ax.nodes for ax in self.axes), indexing="ij")
                c = np.stack([m.reshape(-1) for m in mesh], axis=1)
            c.flags.writeable = False
            self._coords = c
        return self._coords

    def point(self, i: int) -> PhasePoint:
        """The i-th node as a typed phase-space point (a product's: one per factor)."""
        if self.factors:
            index = np.unravel_index(range(self.n_nodes)[i], [g.n_nodes for g in self.factors])
            return CompositePoint(g.point(j) for g, j in zip(self.factors, index))
        return _POINT_TYPE[self.manifold].from_row(self.coords()[i])


def _factor_columns(parts) -> tuple[str, ...]:
    """Column names of a product: each factor's names, prefixed f1_, f2_, ..."""
    return tuple(f"f{i}_{name}" for i, names in enumerate(parts, start=1) for name in names)


# ---------------------------------------------------------------------------
# one-dimensional rules


def _golub_welsch(diag, off, mass, start=np.ones_like) -> tuple[np.ndarray, np.ndarray]:
    """The len(diag)-point Gauss rule of off[k] p_(k+1) = (x - diag[k]) p_k - off[k-1] p_(k-1).

    p_0 = start(x) / sqrt(mass), for the measure's total mass.  The nodes are
    the Jacobi matrix's eigenvalues (Golub & Welsch, Math. Comp. 23 (1969)
    221) after two Newton steps on p_n; the weights are 1 / sum_(k<n) p_k^2,
    which a start(x) != 1 divides by start(x)^2 and the Newton steps do not
    see.  In extended precision where the platform has it: in doubles the
    recurrence loses about n ulps, 1e-14 at the smallest Laguerre nodes.
    """
    n = len(diag)
    x = np.linalg.eigvalsh(np.diag(np.float64(diag)) + np.diag(np.float64(off[:-1]), -1))
    x = x.astype(np.longdouble)

    def recurrence(x):  # p_n, p_n' and sum_(k<n) p_k^2 at every x
        p0, p, d0, d, total = 0.0, start(x) / np.sqrt(mass), 0.0, 0.0, 0.0
        for j in range(n):
            total, back = total + p * p, (off[j - 1] if j else 0.0)
            p0, p, d0, d = (p, ((x - diag[j]) * p - back * p0) / off[j],
                            d, (p + (x - diag[j]) * d - back * d0) / off[j])
        return p, d, total

    for _ in range(2):
        p, d, _ = recurrence(x)
        x = x - p / d
    return x, 1.0 / recurrence(x)[2]


def _jacobi_rule(n: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss nodes s in [0, 1] and weights for (1 - s)^a s^b ds / 2, from P^(a, b)(2s - 1)."""
    k = np.arange(n + 1, dtype=np.longdouble)
    c = 2.0 * k + a + b  # at a = b = 0, c = 0 at k = 0, where b^2 - a^2 = 0 too
    diag = 0.5 + 0.5 * np.divide(b * b - a * a, c * (c + 2.0), out=np.zeros_like(c), where=c > 0)
    k, c = k[1:], c[1:]
    off = np.sqrt(k * (k + a) * (k + b) * (k + a + b) / (c * c * (c + 1.0) * (c - 1.0)))
    mu = np.longdouble(math.factorial(a) * math.factorial(b)) / (2 * math.factorial(a + b + 1))
    return _golub_welsch(diag[:n], off, mu)


@lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1] from Jacobi(0, 0) (cached, read-only)."""
    s, w = _jacobi_rule(n, 0, 0)
    # x = 2s - 1 and dx = 4 (ds / 2), each averaged with its mirror image
    x, w = (s - s[::-1]).astype(np.float64), (2.0 * (w + w[::-1])).astype(np.float64)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_base(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _uniform_axis(name: str, hi: float, n: int) -> Axis:
    """n uniform nodes on [0, hi): exact on e^(2 pi i k x / hi) for every |k| < n."""
    nodes = hi * np.arange(n) / n
    weights = np.full(n, hi / n)
    return Axis(name, 0.0, hi, nodes, weights, kind="uniform")


@lru_cache(maxsize=None)
def _gauss_jacobi(n: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Jacobi colatitudes t in [0, pi/2] and weights for cos^(2a+1) t sin^(2b+1) t dt.

    With s = sin^2 t that measure is (1 - s)^a s^b ds / 2, so the rule is exact
    on every polynomial in s of degree < 2n.  Returns t = arcsin sqrt(s)
    (cached, read-only).
    """
    s, w = _jacobi_rule(n, a, b)
    t = np.arctan2(np.sqrt(s), np.sqrt(1.0 - s)).astype(np.float64)
    w = w.astype(np.float64)
    t.flags.writeable = w.flags.writeable = False
    return t, w


# ---------------------------------------------------------------------------
# colatitudes


def _theta_measure(p: int, q: int) -> tuple[int, int, float]:
    """(a, b, c) of the measure factor c cos^(2a+1) t sin^(2b+1) t of colatitude block (p, q)."""
    if p == 2:
        return 0, 0, 2.0  # sin 2t
    if p < q:
        return p - 2, 0, 1.0  # cos^(2p-3) t sin t
    return 0, q - 2, 1.0  # cos t sin^(2q-3) t


def _colatitude_blocks(N: int, manifold: str) -> list[tuple[int, int]]:
    """(p, q) of each (phi, theta) pair of the chart, in axis order.

    This is the one list of the pairs: theta_j of CP^(N-1) is block (j + 1, N);
    the Euler pairs of SU(N) run q = N down to 2 with p = 2 .. q inside.  The
    pair carries exp(i J(3) phi) exp(i J((p-1)^2 + 1) theta) (see
    ``kernels._factor_table``).
    """
    if manifold == "CP":
        return [(j + 1, N) for j in range(1, N)]
    return [(p, q) for q in range(N, 1, -1) for p in range(2, q + 1)]


def _angle_columns(N: int, manifold: str) -> tuple[str, ...]:
    """Column names of the CP^(N-1) or SU(N) chart: phi_j, theta_j per pair, then Phi_c on SU(N)."""
    n = len(_colatitude_blocks(N, manifold))
    names = tuple(f"{a}{j}" for j in range(1, n + 1) for a in ("phi", "theta"))
    cartan = tuple(f"Phi{c}" for c in range(1, N)) if manifold == "SUN" else ()
    return names + cartan


def _degree(manifold: str, M: int) -> int:
    """The chart's trigonometric degree D: 4M on CP^(N-1), 2M on SU(N) (see the module docstring)."""
    return (4 if manifold == "CP" else 2) * M


def _jacobi_axis(name: str, p: int, q: int, n: int) -> Axis:
    a, b, c = _theta_measure(p, q)
    t, w = _gauss_jacobi(n, a, b)
    return Axis(name, 0.0, 0.5 * math.pi, t, c * w, kind="jacobi")


def _shift_rule(grid: QuadratureGrid, row) -> QuadratureGrid:
    """``grid`` with each colatitude the shift ``row`` moves on the rule for kernels at two points.

    Kernels at theta + delta and at theta multiply to a trigonometric
    polynomial of frequency at most F = 4M (CP^(N-1)) or 2M (SU(N)), plus
    2(a + b + 1) from the measure factor, but to no polynomial in sin^2 theta.
    Gauss-Legendre nodes with the measure factor in their weights integrate
    e^(iFt) over [0, pi/2] from ceil(F pi / 8 + 5.5 F^(1/3)) + 1 nodes, half
    the phase spanned plus the transition width: no fewer than the least
    count that misses the closed form by under 1e-14 for every half-integer
    F up to 160, and within 4e-14 up to F = 700.  A count fixed in advance
    keeps the rule free of the platform's rounding.  A colatitude the row
    leaves in place keeps its Gauss-Jacobi rule: a shift only multiplies the
    uniform angles' frequencies by constant phases, so their averages still
    leave a polynomial in sin^2 theta.  A row moving no colatitude returns the
    grid itself, whose cached pieces serve.
    """
    if not any(delta for ax, delta in zip(grid.axes, row) if ax.kind == "jacobi"):
        return grid
    blocks = iter(_colatitude_blocks(grid.system.N, grid.manifold))
    degree = _degree(grid.manifold, grid.system.M)
    axes = []
    for ax, delta in zip(grid.axes, row):
        if ax.kind == "jacobi":
            a, b, c = _theta_measure(*next(blocks))
            if delta:
                F = degree + 2 * (a + b + 1)
                n = max(len(ax.nodes), math.ceil(F * math.pi / 8.0 + 5.5 * F ** (1.0 / 3.0)) + 1)
                t, w = _gauss_base(ax.lo, ax.hi, n)
                w = c * w * np.cos(t) ** (2 * a + 1) * np.sin(t) ** (2 * b + 1)
                ax = Axis(ax.name, ax.lo, ax.hi, t, w)
        axes.append(ax)
    return replace(grid, axes=tuple(axes), _weights=None, _coords=None)


# ---------------------------------------------------------------------------
# grid constructors


def cp_grid(desc: SUN, resolution: int | None = None) -> QuadratureGrid:
    """Volume-normalized grid over CP^(N-1), the Wigner-side manifold.

    Built at the "quads" level: exact (to rounding) for products of two
    Wigner-kernel matrix elements, which covers kernel normalization,
    self-conjugacy, and star-product quadrature.  Each phi_j takes 2M + 1
    uniform nodes, the least odd count above half the degree 4M (every
    frequency the grid keeps is even or at most 2M; see the module
    docstring), and each theta_j M + 1 Gauss-Jacobi nodes.  An explicit
    ``resolution`` is the node count of every colatitude; every angle then
    takes the least odd count at or above both its default and
    ``resolution``, since an even count at or below 4M aliases frequency 4M.
    """
    if not isinstance(desc, SUN):
        raise TypeError("cp_grid needs a SUN descriptor")
    return _chart_grid(desc, "CP", resolution)


def sun_grid(desc: SUN, resolution: int | None = None) -> QuadratureGrid:
    """Volume-normalized grid over the full SU(N) group manifold (Weyl side).

    Built at the "pairs" level: exact for the product of one U(g) entry with
    one conjugate entry, which is every integrand a Weyl symbol Tr[A U(g)]
    enters (reconstruction, overlap, the literal star product's inner sums).
    Every phi_t spans [0, 2 pi) and Phi_c spans [0, pi sqrt(2c(c + 1))), c
    times the chart's range, the least multiples on which every frequency is
    periodic (see the module docstring for why the cover is uniform).  On
    SU(2) phi1 and Phi1 take the least odd count above M (every frequency is
    even and at most 2M); on SU(3) and SU(4) every phi_t takes 2M + 1 and
    Phi_c (c + 1) M + 1.  Each theta_t takes floor(M/2) + 1 Gauss-Jacobi
    nodes.  An explicit ``resolution`` is the node count of every
    colatitude; every angle then takes the least odd count at or above both
    its default and ``resolution``, since an even count at or below 2M
    aliases frequency 2M.  N outside {2, 3, 4} is rejected.
    """
    if not isinstance(desc, SUN):
        raise TypeError("sun_grid needs a SUN descriptor")
    if desc.N not in (2, 3, 4):
        raise ValueError(f"sun_grid supports N in {{2, 3, 4}}, got N={desc.N}")
    return _chart_grid(desc, "SUN", resolution)


def _chart_grid(desc: SUN, manifold: str, resolution: int | None) -> QuadratureGrid:
    """The CP^(N-1) or SU(N) grid, every node count read from the degree D.

    On CP^(N-1) and SU(2) every angle takes the least odd count above D/2,
    on SU(N >= 3) phi_j takes D + 1 uniform nodes and Phi_c (c + 1) M + 1;
    theta_j takes floor(D/4) + 1 Gauss-Jacobi nodes (see the module
    docstring).  An explicit ``resolution`` (at least M + 1) is the count of
    every colatitude, and every angle takes the least odd count at or above
    both ``resolution`` and its default.
    """
    M, D = desc.M, _degree(manifold, desc.M)
    if resolution is None:
        n_theta = D // 4 + 1
    elif resolution < M + 1:
        raise ValueError(f"resolution {resolution} below minimum {M + 1} for {desc}")
    else:
        n_theta = resolution

    def count(floor: int) -> int:  # an even count at or below D can alias frequency D
        return floor if resolution is None else max(floor, resolution) | 1

    # the least odd count above D/2 where every frequency is even or at most D/2
    n_phi = (D // 2 + 1) | 1 if manifold == "CP" or desc.N == 2 else D + 1
    names = iter(_angle_columns(desc.N, manifold))
    axes = []
    for p, q in _colatitude_blocks(desc.N, manifold):
        axes.append(_uniform_axis(next(names), _TWO_PI, count(n_phi)))
        axes.append(_jacobi_axis(next(names), p, q, n_theta))
    if manifold == "SUN":
        for c in range(1, desc.N):
            hi = math.pi * math.sqrt(2.0 * c * (c + 1))
            n = n_phi if c == 1 else (c + 1) * M + 1  # Phi1 reads J(3) over [0, 2 pi), as phi_j
            axes.append(_uniform_axis(next(names), hi, count(n)))
    return _finalize(desc, manifold, axes, "quads" if manifold == "CP" else "pairs")


def hw_grid(desc: HW, radius: float, resolution: int) -> QuadratureGrid:
    """Gauss-Legendre grid over the square |Re alpha|, |Im alpha| <= radius.

    Weights integrate d^2alpha / pi, up to the tails outside the window (level
    "window").  Choose radius >= sqrt(n_max) so the truncated space is
    covered; the identity-trace check in the tests is the practical coverage
    metric.  ``plane_grid`` is exact without a window.
    """
    if not isinstance(desc, HW):
        raise TypeError("hw_grid needs an HW descriptor")
    if not math.isfinite(radius) or radius <= 0 or resolution < 2:
        raise ValueError(f"need a finite radius > 0 and resolution >= 2, got {radius}, {resolution}")
    if resolution**2 > MAX_NODES:  # before the rule, whose cost grows as resolution^2
        raise OverflowError(
            f"grid holds {resolution**2} nodes (limit {MAX_NODES}); lower the resolution"
        )
    x, w = _gauss_base(-radius, radius, resolution)  # one rule serves both axes
    axes = [Axis(name, -radius, radius, x, w, kind="gauss") for name in ("re", "im")]
    raw = (2.0 * radius) ** 2
    return QuadratureGrid(desc, "HW_PLANE", tuple(axes), 1.0 / math.pi, raw, "window")


@lru_cache(maxsize=None)
def _plane_radii(d: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes u and plain weights W of the plane rule (cached, read-only).

    n radii give sum W f(u) = int_0^inf f(u) du exactly when f is e^(-u)
    times a polynomial of degree < 2n; the recurrence starts at e^(-u/2), so
    its Laguerre functions stay below 1 and the weights come out plain.  The
    Weyl side takes d radii, exact on products of two kernel elements.
    On the Wigner side a single kernel element averages over the angles to
    e^(-u/2) L_j(u), j < d, whose integral 2 (-1)^j no Laguerre rule gets
    exactly; its miss falls 4 to 9 times per added radius.  The Wigner
    side takes ceil(d + 3.7 d^0.4 + 11.3) radii: for every d up to the
    u < 1400 limit (d = 310), no fewer than the least count whose miss is
    below 1e-14 d / 4 (found once in 40-digit arithmetic up to d = 43, and
    with this rule beyond); a count fixed in advance, unlike a search against
    the tolerance, keeps the grid free of the platform's rounding.
    """
    n = math.ceil(d + 3.7 * d**0.4 + 11.3) if side == "wigner" else d
    k = np.arange(n, dtype=np.longdouble)
    u, W = _golub_welsch(2.0 * k + 1.0, -(k + 1.0), 1.0, lambda u: np.exp(-0.5 * u))
    if not np.all(u < 1400.0):  # about 360 radii; e^(-u/2) leaves the normal doubles at 1417
        raise OverflowError(f"the plane rule for n_max = {d} needs radii beyond u = 1400")
    u, W = u.astype(np.float64), W.astype(np.float64)
    u.flags.writeable = W.flags.writeable = False
    return u, W


def plane_grid(desc: HW, side: str) -> QuadratureGrid:
    """The oscillator plane's exact rule for one side: Gauss-Laguerre radii times uniform angles.

    With alpha = r e^{i psi} every kernel element is a real radial function
    times e^{i (m - n) psi} (Cahill & Glauber, Phys. Rev. 177 (1969) 1857), so
    on 2d - 1 uniform angles a product of two elements is e^{-u} times a
    polynomial of degree <= 2d - 2 in u = scale r^2 (scale 4 on the Wigner
    side, whose kernel lives on 2 alpha, and 1 on the Weyl side), which d
    Gauss-Laguerre radii in u integrate exactly (see ``_plane_radii`` for the
    Wigner side's extra radii).  Node weight W_u / (scale n_psi) integrates
    d^2alpha / pi = du dpsi / (2 pi scale).  Rows are Cartesian (re, im).
    """
    if not isinstance(desc, HW):
        raise TypeError("plane_grid needs an HW descriptor")
    if side not in ("wigner", "weyl"):
        raise ValueError(f"side must be 'wigner' or 'weyl', got {side!r}")
    scale, d = (4.0 if side == "wigner" else 1.0), desc.n_max
    u, W = _plane_radii(d, side)
    axes = (
        Axis("r", 0.0, math.inf, np.sqrt(u / scale), W / scale, kind="laguerre"),
        _uniform_axis("psi", _TWO_PI, 2 * d - 1),
    )
    return QuadratureGrid(desc, "HW_PLANE", axes, 1.0 / _TWO_PI, math.inf, "pairs")


def product_grid(grids) -> QuadratureGrid:
    """Tensor product of factor grids for a composite system."""
    grids = tuple(grids)
    if len(grids) < 2:
        raise ValueError("product_grid needs at least two factors")
    axes = tuple(ax for g in grids for ax in g.axes)
    system = Composite(tuple(g.system for g in grids))
    norm = 1.0
    raw = 1.0
    for g in grids:
        norm *= g.normalization
        raw *= g.raw_volume
    exact = ",".join(g.exactness for g in grids)
    return QuadratureGrid(system, "PRODUCT", axes, norm, raw, exact, factors=grids)


def _finalize(desc: SUN, manifold: str, axes, exactness: str) -> QuadratureGrid:
    raw = 1.0
    for ax in axes:
        raw *= float(np.sum(ax.weights))
    d = dimension(desc)
    return QuadratureGrid(desc, manifold, tuple(axes), d / raw, raw, exactness)
