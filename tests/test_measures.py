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
from wignerweyl.points import _row

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
        assert grid.n_nodes == {1: 36, 3: 392, 4: 810, 10: 9702}[desc.M]


def test_weights_positive_everywhere():
    for grid in (_SU23_CP, sun_grid(SUN(3, 1)), hw_grid(HW(8), 4.0, 30)):
        assert grid.weights().min() > 0.0


def test_su2_sphere_volume():
    # CP^1 carries d(cos 2theta)/2 x dphi: raw volume 2pi
    assert _SU21_CP.raw_volume == pytest.approx(2.0 * math.pi, rel=1e-12)
    # SU(2) adds the 2pi Cartan circle and the doubled phi period
    assert sun_grid(SUN(2, 1)).raw_volume == pytest.approx(4.0 * math.pi ** 2, rel=1e-12)


# frequency content of spin-3/2 kernel products: phi any integer <= 12,
# theta even frequencies <= 12 against the sin(2 theta) measure
@settings(max_examples=60, deadline=None)
@given(
    nu_phi=st.integers(min_value=0, max_value=12),
    nu_theta=st.integers(min_value=0, max_value=6),
    use_sin_phi=st.booleans(),
    use_sin_theta=st.booleans(),
)
def test_cp_grid_trig_exactness(nu_phi, nu_theta, use_sin_phi, use_sin_theta):
    grid = _SU23_CP
    coords = grid.coords()
    phi, theta = coords[:, 0], coords[:, 1]
    f_phi = np.sin(nu_phi * phi) if use_sin_phi else np.cos(nu_phi * phi)
    f_theta = (
        np.sin(2 * nu_theta * theta) if use_sin_theta else np.cos(2 * nu_theta * theta)
    )
    got = float(np.dot(grid.weights(), f_phi * f_theta))

    if use_sin_phi or nu_phi != 0:
        want_phi = 0.0
    else:
        want_phi = 2.0 * math.pi
    trig = math.sin if use_sin_theta else math.cos
    want_theta, _ = scipy.integrate.quad(
        lambda t: trig(2 * nu_theta * t) * math.sin(2.0 * t), 0.0, 0.5 * math.pi
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


def test_su4_volume_closed_form():
    grid = sun_grid(SUN(4, 1))
    assert grid.raw_volume == pytest.approx(math.sqrt(2.0) / 3.0 * math.pi ** 9, rel=1e-10)


def test_su4_volume_monte_carlo():
    """MC integration of the documented measure reproduces the grid volume.

    Box: phi ranges (pi, 2pi, 2pi, pi, 2pi, pi), six colatitudes on [0, pi/2]
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
    assert abs(estimate - target) / target < 0.01


def test_lazy_grids_and_node_guard():
    with pytest.raises(OverflowError):
        hw_grid(HW(4), 5.0, 4600)  # 21.2M nodes: refused before its rule is built
    grid = product_grid([hw_grid(HW(4), 5.0, 100), sun_grid(SUN(3, 1))])
    assert grid.n_nodes == 100 ** 2 * sun_grid(SUN(3, 1)).n_nodes  # construction itself is cheap
    with pytest.raises(OverflowError):
        grid.weights()
    with pytest.raises(OverflowError):
        grid.coords()


def test_su4_weyl_grid_is_lazy():
    # the full 15-angle SU(4) tensor grid is far beyond desk scale; the
    # descriptor must still build instantly and refuse to materialize
    grid = sun_grid(SUN(4, 1))
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
    pt = g.point(7)
    assert isinstance(pt, CPPoint)
    row = g.coords()[7]
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
    ],
    ids=["cp21", "cp31", "sun22", "sun31", "hw", "cp21*hw", "sun21*sun21"],
)
def test_point_row_inverts_grid_point(grid):
    coords = grid.coords()
    for i in np.random.default_rng(0).integers(0, grid.n_nodes, 25):
        assert _row(grid.point(i), grid) == tuple(coords[i])


def test_point_row_rejects_wrong_type_or_width():
    cp = _SU21_CP
    with pytest.raises(ValueError, match="CPPoint"):
        _row(EulerPoint((0.1,), (0.2,), (0.3,)), cp)
    with pytest.raises(ValueError, match="CPPoint"):
        _row(HWPoint(0.5j), cp)
    with pytest.raises(ValueError, match="columns"):
        _row(CPPoint((0.1, 0.2), (0.3, 0.4)), cp)
    with pytest.raises(ValueError, match="columns"):
        _row(EulerPoint((0.1,), (0.2,), ()), sun_grid(SUN(2, 1)))
    prod = product_grid((cp, hw_grid(HW(3), 2.5, 4)))
    with pytest.raises(ValueError):
        _row(CompositePoint((CPPoint((0.1,), (0.2,)),)), prod)
    with pytest.raises(ValueError, match="HWPoint"):
        _row(CompositePoint((CPPoint((0.1,), (0.2,)), CPPoint((0.1,), (0.2,)))), prod)


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


def test_grid_csv_dump(tmp_path):
    g = hw_grid(HW(4), 2.0, 6)
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im,weight"
    assert len(lines) == 1 + g.n_nodes
