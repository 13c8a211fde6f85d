"""Wigner and Weyl phase-space kernels.

The Weyl kernel at a point is the displacement-type group element itself
(SU(N) Euler rotation, or the block-restricted HW displacement).  The
Wigner kernel is the rotated parity, U Pi U^dagger, where Pi is the
generalized parity operator: one Stratonovich zonal sum for every SUN(N, M),
and twice the Fock-space parity for HW.

Every single system's kernel at a row of coordinates in the grid column
layout is evaluated by one evaluator, ``_kernels``.  An SU(N) kernel is a
chain of per-axis factors exp(i J(k) x), each evaluated once per distinct
coordinate value and gathered onto the rows; HW kernels, and SU(2)'s on CP^1,
are a real radial matrix (``_polar_radial``), evaluated once per distinct
|alpha| or colatitude, times per-point phases (``_phases``), the builders
``_split``'s ``Polar`` pieces take too.  A composite kernel is the
Kronecker product of its factors' kernels.  The columns are the chart of the
spec's manifold (``_grid_manifold``; see ``measures``): ``_factor_table``
reads its pairs and generators, ``_columns`` its names, and
``_point_row``/``_row_point`` are the only maps between typed points and
rows.  ``kernel_at`` is ``_kernels`` at the one row of a typed point
(``np.kron`` over the factors of a composite one), and
``transforms.symbols_at`` applies ``_row_kernels`` factor by factor to single
rows and to every table that is no tensor mesh, in blocks of bounded size.
Constructions independent of it (matrix exponentials of the factor sequence,
the Laguerre closed form, Kronecker products) live in the tests.

The transforms never hold a grid's (n_nodes, d, d) kernel stack.  A SU(N)
grid is a tensor product over the columns of the factor chain, so ``_split``
splits the chain at one axis boundary into a left and a right stack over the
two sub-grids (K = L R on the Weyl side, K = L (R Pi R^dagger) L^dagger on
the Wigner side of SU(N >= 3)).  An oscillator plane rule is a tensor grid in
(r, psi), and SU(2)'s CP^1 chart one in (phi, theta), psi = -2 phi; the
``Polar`` pieces of both hold K_mn = R_mn(r) e^{i (m-n) psi} as radial
matrices per radius or colatitude and phases per angle.  A square window is
a tensor grid in (x, y), and its ``Window`` pieces hold Hermite functions of
each axis and a transfer table, K_mn = sum_a T_mn^a h_a(s x) h_(m+n-a)(s y),
whose coefficients of order m + n are the SU(2) rotation exp(i pi/4 J(2)) of
SUN(2, m + n), each order's rotation built from the last by one quantum.
``_split`` reads per-axis nodes, so it serves both grids, whose pieces
``kernel_pieces`` caches per (grid, kernel spec), and the tensor meshes that
``symbols_at`` finds in coordinate tables, whose pieces are not cached.
``kernel_stack`` multiplies a grid's pieces out, in the blocks of
``_kernel_blocks`` that the transforms' formed-kernel routes also take.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import HW, SUN, Composite, SystemDescriptor, _gen_eig, basis_labels, dimension
from .measures import QuadratureGrid, _angle_columns, _colatitude_blocks, _factor_columns
from .points import _POINT_TYPE, CompositePoint, PhasePoint

WIGNER = "wigner"
WEYL = "weyl"


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel family to evaluate: side, system, and rotation variant.

    ``rotation="arecchi"`` selects the two-angle coherence-group rotation as
    the Weyl-side kernel (SUN(2, M) only); it deliberately lacks the Cartan
    average and fails completeness, serving as a negative control.
    """

    side: str
    system: SystemDescriptor
    rotation: str = "euler"

    def __post_init__(self):
        if self.side not in (WIGNER, WEYL):
            raise ValueError(f"side must be '{WIGNER}' or '{WEYL}', got {self.side!r}")
        if self.rotation not in ("euler", "arecchi"):
            raise ValueError(f"unknown rotation variant {self.rotation!r}")
        if self.rotation == "arecchi":
            if self.side != WEYL or not (
                isinstance(self.system, SUN) and self.system.N == 2
            ):
                raise ValueError("arecchi rotation is a Weyl-side SUN(2, M) variant")


# ---------------------------------------------------------------------------
# parity operators


@lru_cache(maxsize=None)
def parity(desc: SystemDescriptor) -> np.ndarray:
    """Generalized parity, the Wigner kernel at the phase-space origin (cached, read-only).

    HW: twice the Fock parity, diag(2 (-1)^n).  SUN(N, M): the Stratonovich
    sum Pi = sum_l sqrt(D_l / d) Z_l, l = 0..M (Brif & Mann, PRA 59 (1999) 971),
    over the zonal operators Z_l: the unit functions of n_N (the operators the
    lowest weight's stabilizer leaves invariant) in the Casimir's eigenspaces
    (l, 0, ..., 0, l), of dimension D_l = C(N+l-1, l)^2 - C(N+l-2, l-1)^2,
    positive on the lowest-weight state.  The generators change n_N by at most
    one, so the Casimir is tridiagonal on the functions of n_N and Z_l is the
    degree-l orthonormal polynomial in n_N; Gram-Schmidt builds it with a
    positive leading coefficient, hence positive at n_N = M beyond its roots.
    (That value, which would orient a Casimir eigenvector, falls below
    rounding for large l: under 1e-16 for l >= 71 at M = 80.)
    """
    if isinstance(desc, HW):
        Pi = np.diag(2.0 * (-1.0) ** np.arange(desc.n_max)).astype(np.complex128)
    elif isinstance(desc, SUN):
        N, M = desc.N, desc.M
        n_last = np.array([lab[-1] for lab in basis_labels(N, M)])
        w = np.bincount(n_last)  # basis states at each n_N = 0..M
        d = len(n_last)
        # Z[l, k]: Z_l on the states with n_N = k, times sqrt(w_k)
        Z = np.empty((M + 1, M + 1))
        Z[0] = np.sqrt(w / d)
        n = np.arange(M + 1.0)
        for l in range(1, M + 1):
            v = n * Z[l - 1]
            for _ in range(2):  # the second pass removes what rounding left
                v -= Z[:l].T @ (Z[:l] @ v)
            Z[l] = v / np.linalg.norm(v)
        D = [math.comb(N + l - 1, l) ** 2 - (math.comb(N + l - 2, l - 1) ** 2 if l else 0)
             for l in range(M + 1)]
        diag = np.sqrt([D_l / d for D_l in D]) @ Z / np.sqrt(w)
        Pi = np.diag(diag[n_last]).astype(np.complex128)
    else:
        raise TypeError("parity takes a single HW or SUN factor")
    Pi.flags.writeable = False
    return Pi


# ---------------------------------------------------------------------------
# HW displacement matrix elements
#
# The kernel layer uses the matrix elements of the untruncated displacement
# operator restricted to the n_max-dimensional block,
#   <m|D(alpha)|n> = sqrt(n!/m!) alpha^(m-n) e^{-|alpha|^2/2} L_n^{(m-n)}(|alpha|^2),
# not the exponential of the truncated ladder operators.  The truncated
# exponential is unitary, so beyond |alpha| ~ sqrt(n_max) it reflects
# amplitude off the cutoff instead of letting the elements decay; that
# wrecks every phase-space integral over a finite plane window.  The
# restricted elements decay, and they form an orthonormal function family
# over d^2alpha/pi, so reconstruction on the truncated space is exact up to
# the domain tail.
#
# With alpha = r e^{i psi} every element is a real radial function times a
# phase, <m|D(alpha)|n> = R_mn(r) e^{i (m-n) psi} (Cahill & Glauber, Phys.
# Rev. 177 (1969) 1857), and so is the Wigner kernel
# 2 D(alpha) P D(alpha)^dagger = 2 D(2 alpha) P: R_mn(2r) 2 (-1)^n.

# bytes of kernels, radial factors or formed pieces evaluated at once
BLOCK_BYTES = 16_000_000


def _blocks(n: int, row_bytes: int):
    """(start, stop) of consecutive row blocks of at most ``BLOCK_BYTES``."""
    rows = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, n, rows):
        yield start, min(start + rows, n)


@lru_cache(maxsize=None)
def _diagonals(d: int) -> tuple:
    """Diagonal-major order of the entries of a d x d matrix.

    Returns the row m and column n of each entry, diagonal k = m - n running
    from -(d-1) to d-1 (diagonal k fills the slice ``spans[k + d - 1]``), and
    the permutation that puts diagonal-major entries back in C order.
    """
    ks = np.arange(1 - d, d)
    m = np.concatenate([np.arange(max(k, 0), d + min(k, 0)) for k in ks])
    n = m - np.repeat(ks, d - np.abs(ks))
    to_c = np.argsort(m * d + n)
    for a in (m, n, to_c):
        a.flags.writeable = False
    ends = np.cumsum(d - np.abs(ks)).tolist()
    return m, n, tuple(map(slice, [0, *ends], ends)), to_c


@lru_cache(maxsize=None)
def _radial_constants(d: int, side: str) -> tuple[np.ndarray, ...]:
    """Constants of ``_radial``.

    lo, |m - n|, log sqrt(lo!/hi!) and the sign factor of each diagonal-major
    entry, and the Laguerre recurrence coefficients 2j + 1 + k and j + k for
    j = 0 .. d-1 and every order k.
    """
    m, n, _, _ = _diagonals(d)
    lo, k = np.minimum(m, n), np.abs(m - n)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(d)])
    log_ratio = 0.5 * (log_fact[lo] - log_fact[lo + k])
    sign = np.where(n > m, (-1.0) ** k, 1.0)
    if side == WIGNER:
        sign = sign * 2.0 * (-1.0) ** n
    j, orders = np.arange(d)[:, None], np.arange(d)
    out = (lo, k, log_ratio, sign, 2.0 * j + 1 + orders, 1.0 * j + orders)
    for a in out:
        a.flags.writeable = False
    return out


def _radial(n_max: int, r: np.ndarray, side: str) -> np.ndarray:
    """Real radial factors of the side's kernel at r = |alpha|, diagonal-major: (len(r), n_max^2).

    Weyl side: R_mn(r) = (-1)^max(n-m, 0) sqrt(lo!/hi!) r^|m-n| e^{-r^2/2}
    L_lo^(|m-n|)(r^2), lo/hi = min/max(m, n).  Wigner side: R_mn(2r) times
    the parity 2 (-1)^n.  The Laguerre values come from the three-term
    recurrence in lo, for every order at once, over blocks of at most
    ``BLOCK_BYTES`` of radii; each block's factors are formed in its output
    rows, beside the Laguerre table and one gathered copy of it.
    """
    d = n_max
    lo, k, log_ratio, sign, a, b = _radial_constants(d, side)
    out = np.empty((len(r), d * d))
    for start, stop in _blocks(len(r), 8 * d * d):
        x = r[start:stop, None] * (2.0 if side == WIGNER else 1.0)
        u = x * x
        L = np.empty((d, len(x), d))  # L[j][:, k] = L_j^(k)(u)
        L[0] = 1.0
        if d > 1:
            L[1] = a[0] - u
        for j in range(1, d - 1):
            L[j + 1] = ((a[j] - u) * L[j] - b[j] * L[j - 1]) / (j + 1)
        e = out[start:stop]  # the exponent, then the factor, in place
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(k, np.log(x), out=e)
        e[:, k == 0] = 0.0  # 0 log 0 = 0 at the origin
        e += log_ratio
        e -= 0.5 * u
        np.exp(e, out=e)
        e *= L[lo, :, k].T
        e *= sign
    return out


def _polar_kernels(radial: np.ndarray, rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Kernels R_mn(r) e^{i (m-n) psi}, kernel i from radial row rows[i] and phase row i.

    The phases are gathered into the output and the gathered radial factors
    multiplied in, so no complex kernel-sized temporary is formed.
    """
    d = math.isqrt(radial.shape[1])
    m, n, _, to_c = _diagonals(d)
    K = np.take(phases, (m - n + d - 1)[to_c], axis=1)
    K *= np.take(radial[rows], to_c, axis=1)
    return K.reshape(-1, d, d)


@dataclass(frozen=True)
class Polar:
    """Kernels K_mn = R_mn(r) e^{i (m-n) psi} on a plane rule or a CP^1 chart.

    The plane's axes are (r, psi); CP^1's are (phi, theta), theta the radius
    and psi = -2 phi (see ``_sphere_radial``).
    ``radial`` holds one real matrix per radius in the diagonal-major order
    of ``_diagonals``, parity signs and factors folded in, and ``phases``
    holds e^{i k psi} for k = -(d-1) .. d-1 at every angle.  Node (i, j) of
    radius i and angle j is at index i n_psi + j, or j n_r + i with
    ``angle_first`` (CP^1): the grid's C order.
    """

    radial: np.ndarray  # (n_r, d^2) real
    phases: np.ndarray  # (n_psi, 2d - 1)
    angle_first: bool = False

    @property
    def dim(self) -> int:
        return math.isqrt(self.radial.shape[1])

    @property
    def n_nodes(self) -> int:
        return len(self.radial) * len(self.phases)

    def stack(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Kernels of the nodes start..stop, in node order: (n, d, d)."""
        nodes, n_r, n_psi = np.arange(self.n_nodes)[start:stop], len(self.radial), len(self.phases)
        i, j = (nodes % n_r, nodes // n_r) if self.angle_first else np.divmod(nodes, n_psi)
        return _polar_kernels(self.radial, i, self.phases[j])

    def by_radius(self, values: np.ndarray) -> np.ndarray:
        """Rows of node values, (B, n_nodes), as a (B, n_r, n_psi) view in either node order."""
        if self.angle_first:
            return values.reshape(len(values), len(self.phases), -1).transpose(0, 2, 1)
        return values.reshape(len(values), len(self.radial), -1)


def _phases(psi: np.ndarray, d: int) -> np.ndarray:
    """e^{i k psi}, k = -(d-1) .. d-1, at every angle: (len(psi), 2d - 1)."""
    return np.exp(1j * np.outer(psi, np.arange(1 - d, d)))


# On a square window the same elements are separable instead.  As a function
# of beta = u + i v (beta = alpha on the Weyl side, 2 alpha on the Wigner
# side), <m|D(beta)|n> is a Laguerre-Gauss mode of total order N = m + n,
# and those are the Hermite-Gauss products h_a(u) h_(N-a)(v), a = 0 .. N,
# turned by a spin-N/2 rotation (Schwinger's oscillator form of SU(2);
# Beijersbergen et al., Opt. Commun. 96 (1993) 123).  ``Window`` holds the
# Hermite functions at the scaled axis nodes and a transfer table of those
# coefficients, cached per (d, side) and stored per order N: O(d^3) numbers.


@dataclass(frozen=True)
class HermiteTransfer:
    """Coefficients of the side's kernel elements on Hermite-function products.

    ``table[N, a, i]`` is the coefficient of h_a(u) h_(N-a)(v) in the i-th
    element (m, n) of order N = m + n, elements numbered by increasing n; it
    is zero for a > N and for i past the order's last element.  ``take[N, i]``
    is the flat index n d + m of the operator entry A_nm that element traces
    against in Tr[A K], and ``where`` the position N d + i of element (m, n)
    at C-order index m d + n.  ``anti[N, a]`` = (N - a) mod (2d - 1) is the
    second Hermite index: as (N, a) runs over all pairs, (a, anti[N, a])
    runs over all pairs of indices once, those with a > N landing on
    a + b >= 2d - 1, where no element has a coefficient.
    """

    table: np.ndarray  # (2d - 1, 2d - 1, d) complex
    take: np.ndarray  # (2d - 1, d)
    where: np.ndarray  # (d * d,)
    anti: np.ndarray  # (2d - 1, 2d - 1)


@lru_cache(maxsize=None)
def _hermite_transfer(d: int, side: str) -> HermiteTransfer:
    """The ``HermiteTransfer`` of HW(d) on one side (cached, read-only).

    Element (m, n) of order N has the coefficient sqrt(pi) (-i)^b R_N[b, n] s_n
    on h_(N-b)(u) h_b(v), s_n = (-1)^n on the Weyl side and 2 on the Wigner
    side (2 D(2 alpha) P).  R_N = exp(i pi/4 J(2)) in SUN(2, N), state (N - j, j)
    at index j, sends a1^dagger to c1 = (a1^dagger - a2^dagger) / sqrt(2) and
    a2^dagger to c2 = (a1^dagger + a2^dagger) / sqrt(2), so its column n is
    (sqrt(N-n) c1 R_(N-1)[:, n] + sqrt(n) c2 R_(N-1)[:, n-1]) / N: real, one
    quantum per order and no eigensolver (the two-operator step of Risbo,
    J. Geodesy 70 (1996) 383).  Either term alone, divided by its own square
    root, loses digits as N grows.
    """
    D = 2 * d - 1
    _check_bytes("oscillator transfer table", D * D * d * 16 + D * D * 40)
    sign = np.full(d, 2.0) if side == WIGNER else (-1.0) ** np.arange(d)
    table = np.zeros((D, D, d), dtype=np.complex128)
    take = np.zeros((D, d), dtype=np.intp)
    where = np.empty(d * d, dtype=np.intp)
    R = np.ones((1, 1))
    for N in range(D):
        if N:  # R_N from R_(N-1)
            r = np.sqrt(np.arange(1.0, N + 1))  # sqrt(j), j = 1 .. N
            up1 = np.vstack([r[::-1, None] * R, np.zeros(N)])  # a1^dagger R_(N-1)
            up2 = np.vstack([np.zeros(N), r[:, None] * R])  # a2^dagger R_(N-1)
            R = np.zeros((N + 1, N + 1))
            R[:, :N] = (up1 - up2) * r[::-1]
            R[:, 1:] += (up1 + up2) * r
            R /= N * math.sqrt(2.0)
        n = np.arange(max(0, N - d + 1), min(N, d - 1) + 1)
        i, b = np.arange(len(n)), np.arange(N + 1)
        turn = np.array([1, -1j, -1, 1j])[b % 4, None] * R[:, n]  # (-i)^b R_N[b, n]
        table[N, N - b, :len(n)] = math.sqrt(math.pi) * turn * sign[n]
        take[N, i] = n * d + N - n
        where[(N - n) * d + n] = N * d + i
    a = np.arange(D)
    out = HermiteTransfer(table, take, where, (a[:, None] - a[None, :]) % D)
    for x in vars(out).values():
        x.flags.writeable = False
    return out


def _hermite_functions(D: int, u: np.ndarray) -> np.ndarray:
    """Hermite functions h_a(u), a = 0 .. D-1, one row per point: (len(u), D).

    h_a = (2^a a! sqrt(pi))^(-1/2) H_a(u) e^(-u^2/2), orthonormal on the line,
    by the recurrence h_(a+1) = sqrt(2/(a+1)) u h_a - sqrt(a/(a+1)) h_(a-1).
    """
    h = np.empty((len(u), D))
    h[:, 0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if D > 1:
        h[:, 1] = math.sqrt(2.0) * u * h[:, 0]
    for a in range(1, D - 1):
        h[:, a + 1] = math.sqrt(2.0 / (a + 1)) * u * h[:, a] - math.sqrt(a / (a + 1)) * h[:, a - 1]
    return h


@dataclass(frozen=True)
class Window:
    """Oscillator kernels on a tensor (x, y) grid, K_mn = sum_a T_mn^a h_a(s x) h_(m+n-a)(s y).

    s is 2 on the Wigner side and 1 on the Weyl side; ``hx`` and ``hy`` hold
    h_0 .. h_(2d-2) at the scaled nodes of each axis, and ``transfer`` the
    coefficients T.  Node (i, j) is at index i n_y + j, the grid's C order.
    """

    hx: np.ndarray  # (n_x, 2d - 1) real
    hy: np.ndarray  # (n_y, 2d - 1) real
    transfer: HermiteTransfer

    @property
    def dim(self) -> int:
        return self.transfer.table.shape[2]

    @property
    def n_nodes(self) -> int:
        return len(self.hx) * len(self.hy)

    def stack(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Kernels of the nodes start..stop, in node order: (n, d, d)."""
        t, d = self.transfer, self.dim
        i, j = np.divmod(np.arange(self.n_nodes)[start:stop], len(self.hy))
        W = self.hx[i][:, None, :] * self.hy[j][:, t.anti]  # h_a(x) h_(N-a)(y) at [node, N, a]
        # element i of order N at [N, node, i], one real GEMM per order
        K = np.matmul(W.transpose(1, 0, 2), t.table.view(np.float64)).view(np.complex128)
        return K.transpose(1, 0, 2).reshape(len(i), -1)[:, t.where].reshape(-1, d, d)


def _window(n_max: int, x: np.ndarray, y: np.ndarray, side: str) -> Window:
    """The ``Window`` kernels of one side of HW(n_max) on the grid x (x) y."""
    D, s = 2 * n_max - 1, (2.0 if side == WIGNER else 1.0)
    _check_bytes("oscillator window pieces", (len(x) + len(y)) * D * 8)
    transfer = _hermite_transfer(n_max, side)
    return Window(_hermite_functions(D, s * x), _hermite_functions(D, s * y), transfer)


# ---------------------------------------------------------------------------
# batched kernels over rows of coordinates; split pieces over grids, cached
# per (grid, kernel spec)

_PIECE_CACHE: "weakref.WeakKeyDictionary[QuadratureGrid, dict]" = weakref.WeakKeyDictionary()

MAX_STACK_BYTES = 1_500_000_000


def _axis_factor_stack(N: int, M: int, k: int, nodes: np.ndarray) -> np.ndarray:
    """Stack of exp(i J(k) x) over the axis nodes: (n, d, d)."""
    w, V = _gen_eig(N, M, k)
    phases = np.exp(1j * np.outer(nodes, w))
    return (V[None, :, :] * phases[:, None, :]) @ V.conj().T


@lru_cache(maxsize=None)
def _factor_table(spec: KernelSpec) -> tuple[tuple[int, int], ...]:
    """(generator k, column) of each factor exp(i J(k) x_column), left to right in column order.

    Pair j of the chart's colatitude blocks, block (p, q), is
    exp(i J(3) phi_j) exp(i J((p-1)^2 + 1) theta_j) on columns 2j and 2j + 1;
    on SU(N) the Cartan factors exp(i J((c+1)^2 - 1) Phi_c) follow.
    """
    N, manifold = spec.system.N, _grid_manifold(spec)
    blocks = _colatitude_blocks(N, manifold)
    table = [f for j, (p, _) in enumerate(blocks)
             for f in ((3, 2 * j), ((p - 1) ** 2 + 1, 2 * j + 1))]
    if manifold == "SUN":
        table += [((c + 1) ** 2 - 1, 2 * len(blocks) + c - 1) for c in range(1, N)]
    return tuple(table)


def _factor_specs(spec: KernelSpec) -> list[KernelSpec]:
    """The kernel spec of every tensor factor; a single system's is the spec itself."""
    if isinstance(spec.system, Composite):
        return [KernelSpec(spec.side, f) for f in spec.system.factors]
    return [spec]


@lru_cache(maxsize=None)
def _columns(spec: KernelSpec) -> tuple[str, ...]:
    """Names of the coordinate columns of a kernel family, as its grid's ``column_names``."""
    desc = spec.system
    if isinstance(desc, Composite):
        return _factor_columns(_columns(sub) for sub in _factor_specs(spec))
    if isinstance(desc, HW):
        return ("re", "im")
    return _angle_columns(desc.N, _grid_manifold(spec))


def _width(spec: KernelSpec) -> int:
    """Coordinate columns per row for a kernel family."""
    return len(_columns(spec))


def _check_width(spec: KernelSpec, columns: int) -> None:
    names = _columns(spec)
    if columns != len(names):
        raise ValueError(f"{spec.side} kernels of {spec.system} take {len(names)} coordinate "
                         f"columns ({','.join(names)}), got {columns}")


def _chain(desc: SUN, table, values, index) -> np.ndarray:
    """Product of the table's factors at rows of gathered coordinates: (n, d, d).

    An empty table is the identity, as a stack of one.
    """
    U = None
    for k, col in table:
        F = _axis_factor_stack(desc.N, desc.M, k, values[col])[index[col]]
        U = F if U is None else U @ F
    return np.eye(dimension(desc), dtype=np.complex128)[None] if U is None else U


def _rotated_parity(desc: SUN, U: np.ndarray) -> np.ndarray:
    """U Pi U^dagger for every rotation of a stack (real for a real stack)."""
    par = np.diag(parity(desc)).real
    return (U * par[None, None, :]) @ np.conj(np.swapaxes(U, 1, 2))


def _sphere_radial(spec: KernelSpec, theta: np.ndarray) -> np.ndarray:
    """Real S(theta) of SU(2) on CP^1 per colatitude, diagonal-major: (len(theta), d^2).

    The kernel is e^{i J3 phi} S e^{-i J3 phi}, S = e^{i J2 theta} Pi e^{-i J2 theta}
    on the Wigner side and e^{i J2 theta} for arecchi: real, as J2 is imaginary,
    and J3 = diag(M, M - 2, .., -M), so K_mn = S_mn(theta) e^{-2i (m-n) phi}.
    Formed in blocks of at most ``BLOCK_BYTES`` of complex rotations.
    """
    desc, d = spec.system, dimension(spec.system)
    m, n, _, _ = _diagonals(d)
    out = np.empty((len(theta), d * d))
    for start, stop in _blocks(len(theta), 16 * d * d):
        S = _axis_factor_stack(2, desc.M, 2, theta[start:stop]).real
        out[start:stop] = (_rotated_parity(desc, S) if spec.side == WIGNER else S)[:, m, n]
    return out


def _is_polar(spec: KernelSpec) -> bool:
    """Whether a single system's kernels take the polar form: HW, and SU(2) on CP^1."""
    return isinstance(spec.system, HW) or spec.system.N == 2 and _grid_manifold(spec) == "CP"


def _polar_radial(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """The radial matrices of a polar family at radii r (colatitudes on CP^1): (len(r), d^2)."""
    desc = spec.system
    return _radial(desc.n_max, r, spec.side) if isinstance(desc, HW) else _sphere_radial(spec, r)


def _kernels(spec: KernelSpec, values, index) -> np.ndarray:
    """A single system's kernels at n rows of coordinates in the grid column layout: (n, d, d).

    Column c of row r is ``values[c][index[c][r]]``: every column arrives as
    its distinct values plus a per-row index into them, so each per-axis
    factor is evaluated once per distinct value and gathered.  A tensor
    grid has this form already (axis nodes and the unravelled node index).
    A composite kernel is the Kronecker product of these, which
    ``kernel_at`` forms at a point and the partial traces of
    ``transforms.symbols_at`` take factor by factor.
    """
    desc = spec.system
    _check_width(spec, len(values))
    if _is_polar(spec):  # as ``_split``'s Polar pieces, radius r[ring[i]] and angle psi[i]
        if isinstance(desc, HW):
            alphas = values[0][index[0]] + 1j * values[1][index[1]]
            r, ring = np.unique(np.abs(alphas), return_inverse=True)
            psi = np.angle(alphas)
        else:  # (phi, theta): the colatitude is the radius, psi = -2 phi
            r, ring, psi = values[1], index[1], -2.0 * values[0][index[0]]
        return _polar_kernels(_polar_radial(spec, r), ring, _phases(psi, dimension(desc)))
    U = _chain(desc, _factor_table(spec), values, index)
    return U if spec.side == WEYL else _rotated_parity(desc, U)


def _point_row(spec: KernelSpec, point: PhasePoint) -> tuple[float, ...]:
    """The point's coordinates in the spec's kernel column layout (inverse of ``_row_point``).

    Raises TypeError when the point is not of the family's type (the point
    type of its manifold, ``_grid_manifold(spec)``, or a ``CompositePoint``
    with one point per factor), and ValueError when its angles do not split
    into the columns.
    """
    desc = spec.system
    if isinstance(desc, Composite):
        if not isinstance(point, CompositePoint) or len(point.points) != len(desc.factors):
            raise TypeError(f"{desc} kernels take a CompositePoint of {len(desc.factors)} "
                            f"points, got {point!r}")
        return sum((_point_row(sub, p) for sub, p in zip(_factor_specs(spec), point.points)), ())
    want = _POINT_TYPE[_grid_manifold(spec)]
    if not isinstance(point, want):
        raise TypeError(f"{spec.side} kernels of {desc} take a {want.__name__}, got {point!r}")
    row = point.row()
    if _row_point(spec, row) != point:  # an Euler point whose angles split otherwise
        raise ValueError(f"{point!r} does not split into the coordinate columns "
                         f"({','.join(_columns(spec))}) of {spec.side} kernels of {desc}")
    return row


def _row_point(spec: KernelSpec, row) -> PhasePoint:
    """The typed point at a row of the spec's coordinate columns (inverse of ``_point_row``)."""
    _check_width(spec, len(row))
    if isinstance(spec.system, Composite):
        subs = _factor_specs(spec)
        ends = itertools.accumulate(_width(sub) for sub in subs)
        return CompositePoint(_row_point(sub, row[e - _width(sub):e]) for sub, e in zip(subs, ends))
    return _POINT_TYPE[_grid_manifold(spec)].from_row(row)


def kernel_at(spec: KernelSpec, point: PhasePoint) -> np.ndarray:
    """Kernel of the given spec at one point: ``_kernels`` at the point's row.

    On a composite system it is the Kronecker product of every factor's
    kernel at its part of the row, once the whole point is checked.
    """
    row = iter(_point_row(spec, point))
    factors = []
    for sub in _factor_specs(spec):
        cols = [np.array([x]) for x in itertools.islice(row, _width(sub))]
        factors.append(_kernels(sub, cols, [np.zeros(1, dtype=np.intp)] * len(cols))[0])
    return functools.reduce(np.kron, factors)


def _grid_manifold(spec: KernelSpec) -> str:
    if isinstance(spec.system, Composite):
        return "PRODUCT"
    if isinstance(spec.system, HW):
        return "HW_PLANE"
    return "SUN" if spec.side == WEYL and spec.rotation == "euler" else "CP"


def _check_grid(spec: KernelSpec, grid: QuadratureGrid) -> None:
    if spec.system != grid.system:
        raise ValueError(f"kernel system {spec.system} does not match grid system {grid.system}")
    want = _grid_manifold(spec)
    if grid.manifold != want:
        raise ValueError(
            f"{spec.side} kernels of {spec.system} ({spec.rotation}) live on a "
            f"{want} grid, got a {grid.manifold} grid"
        )


def _check_bytes(what: str, need: int) -> None:
    if need > MAX_STACK_BYTES:
        raise OverflowError(
            f"{what} would need {need / 1e9:.1f} GB; evaluate symbols in "
            "blocks with symbols_at(A, spec, grid.coords()) instead"
        )


def _tensor_index(shape) -> tuple:
    """Per-axis node index of every point of a tensor grid of this shape, C order."""
    return np.unravel_index(np.arange(math.prod(shape)), shape) if shape else ()


def _row_kernels(spec: KernelSpec, rows: np.ndarray) -> np.ndarray:
    """A single system's kernels at rows of coordinates, columns as distinct values: (n, d, d)."""
    columns = [np.unique(col, return_inverse=True) for col in rows.T]
    return _kernels(spec, [v for v, _ in columns], [i for _, i in columns])


@dataclass(frozen=True)
class Pieces:
    """The kernels of a single-system grid, split at one axis boundary.

    Node (l, r) in C order, with l indexing the leading axes and r the rest,
    carries K = left[l] @ right[r]; with ``sandwich``, set on the Wigner side
    (of SU(N >= 3): SU(2)'s CP^1 kernels are ``Polar``), it carries
    left[l] @ right[r] @ left[l]^dagger, where right[r] = R Pi R^dagger.
    """

    left: np.ndarray
    right: np.ndarray
    sandwich: bool

    @property
    def dim(self) -> int:
        return self.left.shape[-1]

    @property
    def n_nodes(self) -> int:
        return len(self.left) * len(self.right)

    def stack(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Kernels of the nodes with left index start..stop, in C order: (n, d, d)."""
        L = self.left[start:stop, None]
        K = L @ self.right[None]
        if self.sandwich:
            K = K @ np.conj(np.swapaxes(L, 2, 3))
        return K.reshape(-1, self.dim, self.dim)


def _split(spec: KernelSpec, nodes, polar: bool = False) -> Pieces | Polar | Window:
    """The pieces of a single system's kernels on the tensor mesh of the per-axis ``nodes``.

    ``polar`` marks an oscillator plane rule, whose axes are (r, psi); other
    oscillator meshes are (x, y) windows.  SU(2) on CP^1, in (phi, theta), is
    ``Polar`` too, with psi = -2 phi; every other SU(N) chart takes ``Pieces``.
    """
    desc, shape = spec.system, tuple(len(x) for x in nodes)
    d = dimension(desc)
    if isinstance(desc, HW) and not polar:
        return _window(d, *nodes, spec.side)
    if _is_polar(spec):
        r, psi = nodes if polar else (nodes[1], -2.0 * nodes[0])
        _check_bytes("kernel pieces", len(r) * d * d * 8 + len(psi) * (2 * d - 1) * 16)
        return Polar(_polar_radial(spec, r), _phases(psi, d), not polar)
    table = _factor_table(spec)  # in column order, so every axis boundary splits the chain
    j = min(range(len(shape) + 1), key=lambda j: math.prod(shape[:j]) + math.prod(shape[j:]))
    _check_bytes("kernel pieces", (math.prod(shape[:j]) + math.prod(shape[j:])) * d * d * 16)
    index = _tensor_index(shape[:j]) + _tensor_index(shape[j:])
    left = _chain(desc, [f for f in table if f[1] < j], nodes, index)
    right = _chain(desc, [f for f in table if f[1] >= j], nodes, index)
    if spec.side == WIGNER:
        right = _rotated_parity(desc, right)
    return Pieces(left, right, spec.side == WIGNER)


def kernel_pieces(spec: KernelSpec, grid: QuadratureGrid) -> tuple[Pieces | Polar | Window, ...]:
    """Read-only split pieces of every factor of a grid, cached per (grid, spec).

    One entry per tensor factor (one for a single system): ``Pieces`` for
    SU(N), holding O((n_left + n_right) d^2) numbers; ``Polar`` for an
    oscillator plane rule and SU(2) on CP^1, holding O(n_r d^2 + n_psi d); and ``Window``
    for a square oscillator window, holding O((n_x + n_y) d) numbers and the
    O(d^3) transfer table it shares with every window of the same (d, side).
    The kernel stack would hold O(n_nodes d^2).  The cache is keyed weakly by
    grid identity; entries are write-once, so concurrent readers are safe.
    """
    _check_grid(spec, grid)
    if isinstance(spec.system, Composite):
        return tuple(p for sub, g in zip(_factor_specs(spec), grid.factors)
                     for p in kernel_pieces(sub, g))
    per_grid = _PIECE_CACHE.setdefault(grid, {})
    if spec not in per_grid:
        pieces = _split(spec, [ax.nodes for ax in grid.axes], grid.polar)
        for a in vars(pieces).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        per_grid[spec] = pieces
    return (per_grid[spec],)


def _kernel_blocks(p: Pieces | Polar | Window):
    """(node slice, kernels) of a factor's nodes, in blocks of at most ``BLOCK_BYTES``."""
    m = len(p.right) if isinstance(p, Pieces) else 1  # nodes per stack() index
    for lo, hi in _blocks(p.n_nodes // m, 16 * p.dim * p.dim * m):
        yield slice(lo * m, hi * m), p.stack(lo, hi)


def _filled(p: Pieces | Polar | Window) -> np.ndarray:
    """A factor's kernel stack, written block by block into a new (n_nodes, d, d) array."""
    out = np.empty((p.n_nodes, p.dim, p.dim), dtype=np.complex128)
    for nodes, K in _kernel_blocks(p):
        out[nodes] = K
    return out


def kernel_stack(spec: KernelSpec, grid: QuadratureGrid) -> np.ndarray:
    """All kernels on a grid as one new (n_nodes, d, d) array: its ``kernel_pieces`` multiplied out.

    A product grid's stack is the ``np.kron`` product of its factors' stacks,
    node (i, j, ...) in C order with the first factor slowest, one factor at
    a time.  The grid keeps no coordinates for it.  The transforms contract
    through the pieces and never build it.
    """
    _check_grid(spec, grid)
    _check_bytes("kernel stack", grid.n_nodes * dimension(spec.system) ** 2 * 16)
    grid._check_materializable()
    return functools.reduce(np.kron, (_filled(p) for p in kernel_pieces(spec, grid)))
