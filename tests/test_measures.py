"""Quadrature grids: normalization, exactness, volumes, desk-scale guards."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerweyl import (
    HW,
    SUN,
    Composite,
    CompositePoint,
    CPPoint,
    EulerPoint,
    HWPoint,
    cp_grid,
    dimension,
    hw_grid,
    product_grid,
    sun_grid,
)
from wignerweyl.kernels import KernelSpec, _point_row, _row_point
from wignerweyl.measures import plane_grid

import oracles

_SU21_CP = cp_grid(SUN(2, 1))
_SU23_CP = cp_grid(SUN(2, 3))


@pytest.mark.parametrize(
    "grid,desc",
    [
        (_SU21_CP, SUN(2, 1)),
        (_SU23_CP, SUN(2, 3)),
        (cp_grid(SUN(3, 1)), SUN(3, 1)),
        (sun_grid(SUN(2, 1)), SUN(2, 1)),
        (sun_grid(SUN(2, 3)), SUN(2, 3)),
        (sun_grid(SUN(3, 1)), SUN(3, 1)),
        (sun_grid(SUN(2, 4)), SUN(2, 4)),
        (sun_grid(SUN(2, 10)), SUN(2, 10)),
    ],
)
def test_compact_grids_normalized_to_dimension(grid, desc):
    assert abs(grid.weights().sum() - dimension(desc)) < 1e-10
    # one level per manifold: the Euler-Weyl grid integrates eigenvalue differences only
    assert grid.exactness == ("quads" if grid.manifold == "CP" else "pairs")
    if grid.manifold == "SUN" and desc.N == 2:
        assert grid.n_nodes == {1: 9, 3: 50, 4: 75, 10: 726}[desc.M]


def test_weights_positive_everywhere():
    for grid in (_SU23_CP, sun_grid(SUN(3, 1)), hw_grid(HW(8), 4.0, 30)):
        assert grid.weights().min() > 0.0


def test_su2_sphere_volume():
    # CP^1 carries d(cos 2theta)/2 x dphi: raw volume 2pi
    assert _SU21_CP.raw_volume == pytest.approx(2.0 * math.pi, rel=1e-12)
    # SU(2) adds the 2pi Cartan circle and the doubled phi period
    assert sun_grid(SUN(2, 1)).raw_volume == pytest.approx(4.0 * math.pi ** 2, rel=1e-12)


# Terms of a spin-3/2 kernel product: products of two spherical harmonics of
# degree <= 3 in (2 theta, phi), so e^(i m phi) sin^|m|(2 theta) cos^j(2 theta)
# with |m| + j <= 6.  (A lone sin(2 nu theta) at m = 0 is no such term.)
@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=6),
    j=st.integers(min_value=0, max_value=6),
    use_sin_phi=st.booleans(),
)
def test_cp_grid_trig_exactness(m, j, use_sin_phi):
    j = min(j, 6 - m)
    grid = _SU23_CP
    coords = grid.coords()
    phi, theta = coords[:, 0], coords[:, 1]
    f_phi = np.sin(m * phi) if use_sin_phi else np.cos(m * phi)
    f_theta = np.sin(2.0 * theta) ** m * np.cos(2.0 * theta) ** j
    got = float(np.dot(grid.weights(), f_phi * f_theta))

    want_phi = 0.0 if use_sin_phi or m != 0 else 2.0 * math.pi
    want_theta, _ = scipy.integrate.quad(
        lambda t: math.sin(2.0 * t) ** (m + 1) * math.cos(2.0 * t) ** j, 0.0, 0.5 * math.pi
    )
    want = grid.normalization * want_phi * want_theta
    assert abs(got - want) < 1e-10


def test_hw_grid_weight_total_and_symmetry():
    grid = hw_grid(HW(10), 4.0, 36)
    # integrates d^2alpha / pi over the square
    assert grid.weights().sum() == pytest.approx(8.0 ** 2 / math.pi, rel=1e-12)
    xs = np.unique(grid.coords()[:, 0])
    assert np.max(np.abs(xs + xs[::-1])) < 1e-12  # nodes symmetric about 0


def test_hw_grid_integrates_coherent_normalization():
    # int (2/pi) exp(-2|alpha|^2) d^2alpha = 1, radius 5 leaves ~1e-22 outside
    grid = hw_grid(HW(10), 5.0, 48)
    coords = grid.coords()
    r2 = coords[:, 0] ** 2 + coords[:, 1] ** 2
    val = float(np.dot(grid.weights(), 2.0 * np.exp(-2.0 * r2)))
    assert abs(val - 1.0) < 1e-12


# The SU(4) grid doubles the pi-range phi1, phi4 and phi6 and the Cartan Phi2
# and triples Phi3, so it covers the Euler chart 2^3 * 2 * 3 times.
_SU4_COVER = 2 ** 3 * 2 * 3


def test_su4_volume_closed_form():
    grid = sun_grid(SUN(4, 1))
    assert grid.raw_volume == pytest.approx(
        _SU4_COVER * math.sqrt(2.0) / 3.0 * math.pi ** 9, rel=1e-10
    )


def test_su4_volume_monte_carlo():
    """MC integration of the documented measure reproduces the grid volume.

    The grid covers this chart ``_SU4_COVER`` times.  Box: phi ranges
    (pi, 2pi, 2pi, pi, 2pi, pi), six colatitudes on [0, pi/2]
    with their p-dependent weights, Cartan ranges pi sqrt(2(c+1)/c).  2e6
    samples put the estimator sigma near 0.2%, so 1% is a 5-sigma gate.
    """
    rng = np.random.default_rng(20260815)
    n = 2_000_000
    t = rng.uniform(0.0, 0.5 * math.pi, size=(n, 6))
    s, c = np.sin(t), np.cos(t)
    w = (
        np.sin(2.0 * t[:, 0])            # (p,q) = (2,4)
        * c[:, 1] ** 3 * s[:, 1]         # (3,4)
        * c[:, 2] * s[:, 2] ** 5         # (4,4)
        * np.sin(2.0 * t[:, 3])          # (2,3)
        * c[:, 4] * s[:, 4] ** 3         # (3,3)
        * np.sin(2.0 * t[:, 5])          # (2,2)
    )
    theta_box = (0.5 * math.pi) ** 6
    phi_box = math.pi ** 3 * (2.0 * math.pi) ** 3
    cartan_box = (
        math.pi * math.sqrt(4.0)
        * math.pi * math.sqrt(3.0)
        * math.pi * math.sqrt(8.0 / 3.0)
    )
    estimate = float(np.mean(w)) * theta_box * phi_box * cartan_box
    target = sun_grid(SUN(4, 1)).raw_volume
    assert abs(_SU4_COVER * estimate - target) / target < 0.01


def test_lazy_grids_and_node_guard():
    with pytest.raises(OverflowError):
        hw_grid(HW(4), 5.0, 4600)  # 21.2M nodes: refused before its rule is built
    grid = product_grid([hw_grid(HW(4), 5.0, 100), sun_grid(SUN(4, 2))])
    assert grid.n_nodes == 100 ** 2 * sun_grid(SUN(4, 2)).n_nodes  # construction itself is cheap
    with pytest.raises(OverflowError):
        grid.weights()
    with pytest.raises(OverflowError):
        grid.coords()


def test_su4_weyl_grid_is_lazy():
    # the full 15-angle SU(4) tensor grid at M = 2 (315M nodes) is far beyond
    # desk scale; the descriptor must still build instantly and refuse to materialize
    grid = sun_grid(SUN(4, 2))
    assert len(grid.axes) == 15
    assert grid.n_nodes > 20_000_000
    with pytest.raises(OverflowError):
        grid.weights()


def test_resolution_floor_enforced():
    with pytest.raises(ValueError):
        cp_grid(SUN(2, 3), resolution=2)
    with pytest.raises(ValueError):
        sun_grid(SUN(5, 1))
    with pytest.raises(ValueError):
        hw_grid(HW(4), -1.0, 20)


@pytest.mark.parametrize("radius", [float("nan"), float("inf")])
def test_hw_grid_rejects_a_non_finite_radius(radius):
    with pytest.raises(ValueError, match="finite radius"):
        hw_grid(HW(4), radius, 8)


def test_typed_points_match_coords():
    g = cp_grid(SUN(2, 1))
    pt = g.point(5)
    assert isinstance(pt, CPPoint)
    row = g.coords()[5]
    assert pt.phi == (row[0],) and pt.theta == (row[1],)

    gs = sun_grid(SUN(2, 1))
    pt = gs.point(3)
    assert isinstance(pt, EulerPoint)
    assert len(pt.phi) == 1 and len(pt.Phi) == 1

    gh = hw_grid(HW(4), 2.0, 8)
    pt = gh.point(5)
    assert isinstance(pt, HWPoint)
    row = gh.coords()[5]
    assert pt.alpha == complex(row[0], row[1])


@pytest.mark.parametrize(
    "grid",
    [
        _SU21_CP,
        cp_grid(SUN(3, 1)),
        sun_grid(SUN(2, 2)),
        sun_grid(SUN(3, 1)),
        hw_grid(HW(4), 2.0, 8),
        product_grid((cp_grid(SUN(2, 1)), hw_grid(HW(3), 2.5, 4))),
        product_grid((sun_grid(SUN(2, 1)), sun_grid(SUN(2, 1)))),
        plane_grid(HW(4), "weyl"),
        product_grid((sun_grid(SUN(2, 1)), plane_grid(HW(3), "weyl"))),
    ],
    ids=["cp21", "cp31", "sun22", "sun31", "hw", "cp21*hw", "sun21*sun21", "plane",
         "sun21*plane"],
)
def test_point_row_inverts_grid_point(grid):
    """A node's point is the kernels' point at the grid's row, and reads back as that row."""
    manifolds = [g.manifold for g in grid.factors or (grid,)]
    spec = KernelSpec("weyl" if "SUN" in manifolds else "wigner", grid.system)
    coords = grid.coords()
    for i in np.random.default_rng(0).integers(0, grid.n_nodes, 25):
        assert grid.point(i) == _row_point(spec, coords[i])
        assert _point_row(spec, grid.point(i)) == tuple(coords[i])


def test_point_row_rejects_wrong_type_or_width():
    cp = KernelSpec("wigner", SUN(2, 1))
    with pytest.raises(TypeError, match="CPPoint"):
        _point_row(cp, EulerPoint((0.1,), (0.2,), (0.3,)))
    with pytest.raises(TypeError, match="CPPoint"):
        _point_row(cp, HWPoint(0.5j))
    with pytest.raises(ValueError, match="columns"):
        _point_row(cp, CPPoint((0.1, 0.2), (0.3, 0.4)))
    with pytest.raises(ValueError, match="columns"):
        _point_row(KernelSpec("weyl", SUN(2, 1)), EulerPoint((0.1,), (0.2,), ()))
    prod = KernelSpec("wigner", Composite((SUN(2, 1), HW(3))))
    with pytest.raises(TypeError, match="CompositePoint of 2 points"):
        _point_row(prod, CompositePoint((CPPoint((0.1,), (0.2,)),)))
    with pytest.raises(TypeError, match="HWPoint"):
        _point_row(prod, CompositePoint((CPPoint((0.1,), (0.2,)), CPPoint((0.1,), (0.2,)))))


_POINT_FIELDS = [(HWPoint, "alpha"), (CPPoint, "phi"), (CPPoint, "theta"),
                 (EulerPoint, "phi"), (EulerPoint, "theta"), (EulerPoint, "Phi")]


@given(
    case=st.sampled_from(_POINT_FIELDS),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    n=st.integers(1, 3),
    at=st.integers(0, 2),
    imag=st.booleans(),
)
def test_points_reject_non_finite_coordinates(case, bad, n, at, imag):
    cls, name = case
    if cls is HWPoint:
        values = {"alpha": complex(0.5, bad) if imag else complex(bad, 0.5)}
    else:
        values = {f: [0.1] * n for f in ("phi", "theta", "Phi")[: 2 if cls is CPPoint else 3]}
        values[name][at % n] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cls(**values)


def test_product_grid_composition():
    g1 = cp_grid(SUN(2, 1))
    g2 = hw_grid(HW(4), 3.0, 12)
    prod = product_grid((g1, g2))
    assert prod.n_nodes == g1.n_nodes * g2.n_nodes
    assert prod.column_names[:2] == ("f1_phi1", "f1_theta1")
    assert prod.weights().sum() == pytest.approx(
        g1.weights().sum() * g2.weights().sum(), rel=1e-12
    )
    pt = prod.point(0)
    assert isinstance(pt.points[0], CPPoint)
    assert isinstance(pt.points[1], HWPoint)


def test_legendre_table_is_cached_read_only():
    from wignerweyl.measures import _legendre

    x, w = _legendre(17)
    assert _legendre(17)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    for n in (1, 2, 3, 17, 96, 300, 1000):  # numpy's leggauss misses by 7e-15 at n = 96
        x, w = _legendre(n)
        moments = w @ np.polynomial.legendre.legvander(x, 2 * n - 1)
        assert np.abs(moments - 2.0 * (np.arange(2 * n) == 0)).max() <= 1e-15, n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n


def test_jacobi_table_is_cached_read_only():
    from wignerweyl.measures import _gauss_jacobi

    t, w = _gauss_jacobi(7, 1, 0)
    assert _gauss_jacobi(7, 1, 0)[0] is t
    assert not t.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("n,a,b", [(1, 0, 0), (4, 0, 0), (11, 0, 0), (21, 0, 0),
                                   (3, 1, 0), (6, 2, 0), (5, 0, 1), (9, 0, 3), (30, 0, 5)])
def test_gauss_jacobi_matches_scipy_and_the_beta_moments(n, a, b):
    """t = arcsin sqrt(s), weights for cos^(2a+1) t sin^(2b+1) t dt = (1 - s)^a s^b ds / 2."""
    from scipy.special import roots_jacobi

    from wignerweyl.measures import _gauss_jacobi

    t, w = _gauss_jacobi(n, a, b)
    x, wx = roots_jacobi(n, a, b)  # weight (1 - x)^a (1 + x)^b on [-1, 1], x = 2s - 1
    assert np.max(np.abs(t - np.arcsin(np.sqrt((1.0 + x) / 2.0)))) < 1e-14
    assert np.max(np.abs(w / (wx / 2.0 ** (a + b + 2)) - 1.0)) < 1e-12
    s = np.sin(t) ** 2
    for k in range(2 * n):  # int (1 - s)^a s^(b + k) ds / 2 = B(a + 1, b + k + 1) / 2
        beta = math.factorial(a) * math.factorial(b + k) / math.factorial(a + b + k + 1)
        assert abs(np.dot(w, s**k) / (0.5 * beta) - 1.0) < 1e-13, k


def test_second_grid_build_reuses_the_jacobi_tables(monkeypatch):
    cp_grid(SUN(3, 1))
    sun_grid(SUN(3, 1))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    cp_grid(SUN(3, 1))
    sun_grid(SUN(3, 1))
    assert calls == []


def _with_colatitude_count(grid, n):
    """``grid`` with every colatitude on the n-point Jacobi rule."""
    from wignerweyl.measures import _colatitude_blocks, _finalize, _jacobi_axis

    blocks = iter(_colatitude_blocks(grid.system.N, grid.manifold))
    axes = [_jacobi_axis(ax.name, *next(blocks), n) if ax.kind == "jacobi" else ax
            for ax in grid.axes]
    return _finalize(grid.system, grid.manifold, axes, grid.exactness)


@pytest.mark.parametrize("side", ["wigner", "weyl"])
@pytest.mark.parametrize("N,M", [(2, 10), (3, 2), (4, 1)])
def test_colatitude_counts_are_tight(side, N, M):
    """M + 1 (CP) or floor(M/2) + 1 (SU) Jacobi nodes pass; one fewer fails at O(1)."""
    from wignerweyl import verify_stratonovich

    desc = SUN(N, M)
    grid = cp_grid(desc) if side == "wigner" else sun_grid(desc)
    n = M + 1 if side == "wigner" else M // 2 + 1
    thetas = [ax for ax in grid.axes if ax.name.startswith("theta")]
    assert thetas and all(ax.kind == "jacobi" and len(ax.nodes) == n for ax in thetas)
    assert verify_stratonovich(desc, side, grid=grid).passed
    if n > 1:
        report = verify_stratonovich(desc, side, grid=_with_colatitude_count(grid, n - 1))
        assert max(c.residual for c in report.conditions) > 1e-2


def _closed_form_moments(lo, hi, pos, weight_fn):
    """Moments of 1, cos(nu x), sin(nu x) against a trig-polynomial weight, in closed form.

    The weight's Fourier coefficients come from a 64-point FFT over [0, 2 pi);
    int_lo^hi e^{i mu x} dx = e^{i mu mid} L sinc(mu L / 2 pi).
    """
    t = 2.0 * math.pi * np.arange(64) / 64
    f = weight_fn(t) if weight_fn is not None else np.ones_like(t)
    c = np.fft.fft(f) / len(t)
    k = np.fft.fftfreq(len(t), 1.0 / len(t))
    L, mid = hi - lo, 0.5 * (lo + hi)

    def integral(nu):  # int f(x) e^{i nu x} dx over [lo, hi]
        mu = k + nu
        return np.sum(c * np.exp(1j * mu * mid) * L * np.sinc(mu * L / (2.0 * math.pi)))

    out = [integral(0.0)]
    for nu in pos:
        plus, minus = integral(nu), integral(-nu)
        out += [0.5 * (plus + minus), (plus - minus) / 2j]
    out = np.asarray(out)
    assert np.max(np.abs(out.imag)) < 1e-13
    return out.real


_ORACLE_SYSTEMS = [(2, 1), (2, 2), (2, 5), (2, 10), (2, 20), (2, 40),
                   (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


@pytest.mark.parametrize(
    "side,N,M",
    [(side, N, M) for side in ("wigner", "weyl") for N, M in _ORACLE_SYSTEMS] + [("wigner", 5, 1)],
)
def test_corrected_axes_match_closed_form_moments(side, N, M, colatitude_measures):
    """Every colatitude, once moment-corrected, now exact from its Jacobi rule.

    An n-node rule integrates cos(2 nu theta), a polynomial of degree nu in
    sin^2 theta, against its measure factor for every nu < 2n; the closed
    form comes from the factor's Fourier series.
    """
    grid = (cp_grid if side == "wigner" else sun_grid)(SUN(N, M))
    thetas = [ax for ax in grid.axes if ax.name.startswith("theta")]
    weights = colatitude_measures(N, grid.manifold)
    assert len(thetas) == len(weights)
    for axis, weight_fn in zip(thetas, weights):
        assert axis.kind == "jacobi" and axis.weights.min() > 0.0
        pos = [2.0 * nu for nu in range(1, 2 * len(axis.nodes))]
        x = axis.nodes
        A = np.asarray([np.ones_like(x)] + [np.cos(nu * x) for nu in pos])
        moments = _closed_form_moments(axis.lo, axis.hi, pos, weight_fn)
        want = np.concatenate([moments[:1], moments[1::2]])  # 1 and the cosines
        miss = np.abs(A @ axis.weights - want) / np.maximum(1.0, np.abs(want))
        assert miss.max() <= 1e-12, (axis.name, miss.max())


@pytest.mark.parametrize("N,M", [(4, 3), (5, 2), (6, 1), (6, 2), (7, 1), (7, 2)])
def test_default_wigner_grid_builds_for_larger_systems(N, M):
    from wignerweyl import verify_stratonovich

    grid = cp_grid(SUN(N, M))
    assert all(ax.weights.min() > 0.0 for ax in grid.axes)
    if M == 2 and N >= 6:  # 759,375 and 11.4M nodes: built lazily, never materialized here
        assert grid.n_nodes == ((2 * M + 1) * (M + 1)) ** (N - 1)
        return
    report = verify_stratonovich(SUN(N, M), "wigner", grid=grid)
    assert report.passed, report.as_dict()
    assert {c.name: c.residual for c in report.conditions}["covariance"] < 1e-10


# the chart systems of the node-count checks: M <= 3 from N = 5 on
_CHART_SYSTEMS = {
    cp_grid: [(N, M) for N in range(2, 8) for M in range(1, 9 if N < 5 else 4)],
    sun_grid: [(N, M) for N in range(2, 5) for M in range(1, 9)],
}


def _resolutions(M):
    return (None, M + 1, M + 4, 2 * M + 3)


@pytest.mark.parametrize("build", [cp_grid, sun_grid])
def test_uniform_counts_match_the_generator_frequencies(build):
    """Every uniform angle holds the oracle's count; an explicit ``resolution`` rounds up to odd.

    phi_j reads J(3) over [0, 2 pi) and Phi_c reads J((c + 1)^2 - 1) over its
    range; the oracle takes their surviving frequencies from the eigenvalues
    and counts the least number of nodes that aliases none of them.  With a
    ``resolution`` every angle takes the least odd count at or above both.
    The Cartan angles Phi_c, c >= 2, of SU(N >= 3) keep (c + 1) M + 1 nodes,
    the largest frequency plus one, which can exceed the oracle's count (su:3:1
    Phi2: 4 nodes, where frequency 3 alone survives and 2 would do).  A second
    build is bit for bit the same.
    """
    for N, M in _CHART_SYSTEMS[build]:
        desc = SUN(N, M)
        for resolution in _resolutions(M):
            grid = build(desc, resolution)
            for ax in grid.axes:
                if ax.kind != "uniform":
                    continue
                k = 3 if ax.name.startswith("phi") else (int(ax.name[3:]) + 1) ** 2 - 1
                want = oracles.uniform_count(desc, grid.manifold, k, ax.hi)
                if resolution is not None:
                    want = max(want, resolution) | 1
                if ax.name[:3] == "Phi" and ax.name != "Phi1":  # (c + 1) M + 1, not cut
                    assert len(ax.nodes) >= want, (desc, resolution, ax.name)
                else:
                    assert len(ax.nodes) == want, (desc, resolution, ax.name)
    first, second = build(SUN(2, 10)), build(SUN(2, 10))
    for a, b in zip(first.axes, second.axes, strict=True):
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)


# the certificate batches d^2 operators over every node: grids with n_nodes d^2
# above this (64 MB per batch, about a second each) are left out of tier 1
_CERTIFIED_SIZE = 4_000_000

# the (builder, N, M, resolution) left out at that size: every resolution from
# the first M listed, and the explicit M + 4 and 2M + 3 (every explicit one on
# SU(N) Weyl) at the M before it
_CERTIFICATE_SKIPS = {
    *((cp_grid, N, M, r) for N, first in [(3, 6), (4, 3), (5, 2), (6, 2), (7, 2)]
      for M in range(first, 9 if N < 5 else 4) for r in _resolutions(M)),
    *((sun_grid, N, M, r) for N, first in [(3, 3), (4, 2)]
      for M in range(first, 9) for r in _resolutions(M)),
    *((cp_grid, N, M, r) for N, M in [(3, 5), (4, 2), (5, 1), (6, 1), (7, 1)]
      for r in _resolutions(M)[2:]),
    *((sun_grid, N, M, r) for N, M in [(3, 2), (4, 1)] for r in _resolutions(M)[1:]),
}


@pytest.mark.parametrize("build", [cp_grid, sun_grid])
def test_chart_grids_pass_the_round_trip_certificate(build):
    """Every grid of the node-count range reconstructs all d^2 matrix units (and sums K to 1).

    That is the proof of exactness for every integral the package takes
    (``oracles.round_trip_certificate``); only the grids listed in
    ``_CERTIFICATE_SKIPS`` are too large to run here.
    """
    side = "wigner" if build is cp_grid else "weyl"
    skipped = set()
    for N, M in _CHART_SYSTEMS[build]:
        desc = SUN(N, M)
        for resolution in _resolutions(M):
            grid = build(desc, resolution)
            if grid.n_nodes * dimension(desc) ** 2 > _CERTIFIED_SIZE:
                skipped.add((build, N, M, resolution))
                continue
            miss = oracles.round_trip_certificate(KernelSpec(side, desc), grid)
            assert miss < 1e-13, (desc, resolution, miss)
    assert skipped == {s for s in _CERTIFICATE_SKIPS if s[0] is build}


@pytest.mark.parametrize("side", ["wigner", "weyl"])
@pytest.mark.parametrize("N,M", [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_every_explicit_resolution_passes_the_certificate(side, N, M):
    """Every resolution from M + 1 to D + 2: an even count at or below D would alias frequency D.

    On su:3:2 Weyl only resolution 3 runs (118,125 nodes); 4 to 6 hold
    280,000 to 3.6M nodes of d = 6.
    """
    desc = SUN(N, M)
    build = cp_grid if side == "wigner" else sun_grid
    top = M + 1 if (side, N, M) == ("weyl", 3, 2) else (4 if side == "wigner" else 2) * M + 2
    for resolution in range(M + 1, top + 1):
        miss = oracles.round_trip_certificate(KernelSpec(side, desc), build(desc, resolution))
        assert miss < 1e-13, (resolution, miss)


def _with_uniform_count(grid, name, n):
    """``grid`` with the uniform angle ``name`` on n nodes."""
    from wignerweyl.measures import _finalize, _uniform_axis

    axes = [_uniform_axis(name, ax.hi, n) if ax.name == name else ax for ax in grid.axes]
    return _finalize(grid.system, grid.manifold, axes, grid.exactness)


@pytest.mark.parametrize("side,N,M,name", [
    ("wigner", 2, 3, "phi1"), ("wigner", 3, 2, "phi1"), ("wigner", 4, 1, "phi3"),
    *((side, N, M, name) for N, M in [(2, 3), (3, 2), (3, 1), (4, 1)]
      for side, name in [("weyl", "phi1"), ("weyl", "Phi1")]),
])
def test_outer_angle_counts_are_tight(side, N, M, name):
    """The angle's count passes and the next odd count down fails at O(1).

    One node fewer would prove nothing: that count is even and aliases the
    top frequency D itself.  CP^(N-1) and SU(2) take the least odd count
    above D/2, SU(N >= 3) D + 1.  su:3:2 Weyl is the exception that count
    leaves: its 5 nodes on phi1 and Phi1 are not the least, since 3 pass the
    round-trip certificate (the SU(N >= 3) Weyl counts are not cut yet).
    """
    from wignerweyl import verify_stratonovich

    desc = SUN(N, M)
    grid = cp_grid(desc) if side == "wigner" else sun_grid(desc)
    (axis,) = [ax for ax in grid.axes if ax.name == name]
    want = {"wigner": 2 * M + 1, "weyl": (M + 1) | 1 if N == 2 else 2 * M + 1}[side]
    assert len(axis.nodes) == want
    assert verify_stratonovich(desc, side, grid=grid).passed
    fewer = _with_uniform_count(grid, name, want - 2)
    if (side, N, M) == ("weyl", 3, 2):
        assert oracles.round_trip_certificate(KernelSpec(side, desc), fewer) < 1e-13
        return
    report = verify_stratonovich(desc, side, grid=fewer)
    assert max(c.residual for c in report.conditions) > 0.5
