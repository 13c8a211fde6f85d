"""Thermal layer: partition functions, moments, correlation functions."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wignerweyl import (
    HW,
    SUN,
    Coherent,
    Composite,
    CPPoint,
    EulerPoint,
    HWPoint,
    KernelSpec,
    RandomDensity,
    ThermalSpec,
    autocorrelation,
    build_generators,
    build_state,
    cp_grid,
    default_grid,
    dimension,
    free_energy,
    generator,
    gibbs_operator,
    hw_grid,
    partition_function,
    partition_oracle,
    phase_cross_correlation,
    phase_function,
    product_grid,
    reconstruct,
    sun_grid,
    symbol_at,
    symbols_at,
    thermal_mean,
    weyl_axes,
    weyl_moments,
)
import wignerweyl.kernels as kernels_module
import wignerweyl.measures as measures_module
from wignerweyl.commands import _ordered_moment_oracle
from wignerweyl.kernels import _columns, _row_point
from wignerweyl.measures import _shift_rule
from wignerweyl.statmech import _shifted_grid

import oracles

SX, SY, SZ = (np.asarray(g) for g in build_generators(2, 1))


def test_thermal_spec_validation():
    from wignerweyl import states, statmech

    assert statmech.ThermalSpec is states.ThermalSpec  # one (H, beta) type
    with pytest.raises(ValueError):
        ThermalSpec(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        ThermalSpec(np.eye(2), -1.0)
    with pytest.raises(ValueError):
        ThermalSpec(np.zeros(3), 1.0)
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            ThermalSpec(np.eye(2), beta)


def test_gibbs_and_oracle():
    H = np.diag([0.0, 1.0, 3.0])
    t = ThermalSpec(H, 0.5)
    want = np.diag(np.exp(-0.5 * np.diag(H).real))
    assert np.max(np.abs(gibbs_operator(t) - want)) < 1e-14
    assert partition_oracle(t) == pytest.approx(float(np.trace(want).real), abs=1e-14)


@pytest.mark.parametrize("beta", [0.1, 0.9, 2.0])
def test_gibbs_and_oracle_match_the_unshifted_eigen_sum(beta):
    """The ground-shifted forms equal exp(-beta H) and sum e^(-beta E) to rounding."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = (g + g.conj().T) / 2.0 - 3.0 * np.eye(5)  # E0 far from 0, so the shift matters
    w, V = np.linalg.eigh(H)
    want = (V * np.exp(-beta * w)) @ V.conj().T
    t = ThermalSpec(H, beta)
    assert np.max(np.abs(gibbs_operator(t) - want)) < 1e-14 * np.max(np.abs(want))
    assert partition_oracle(t) == pytest.approx(float(np.sum(np.exp(-beta * w))), rel=1e-14)


def test_gibbs_and_oracle_raise_past_the_doubles():
    """At beta = 1000 Z = e^1000 is no double: an OverflowError, and no overflow warning."""
    t = ThermalSpec(-generator(2, 1, 1), 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (gibbs_operator, partition_oracle):
            with pytest.raises(OverflowError, match=r"beta = 1000\.0"):
                fn(t)


def test_partition_function_pauli_closed_form():
    # unit field strength: at beta=10 a larger |h| pushes Z past the range
    # where 1e-10 absolute is representable
    h = np.array([0.3, -0.4, 1.2])
    h /= np.linalg.norm(h)
    H = h[0] * SX + h[1] * SY + h[2] * SZ
    grid = cp_grid(SUN(2, 1))
    for beta in (0.1, 1.0, 10.0):
        Z = partition_function(ThermalSpec(H, beta), grid)
        assert abs(Z - 2.0 * math.cosh(beta)) < 1e-10


@pytest.mark.parametrize("desc", [SUN(2, 1), SUN(2, 3), SUN(3, 1), HW(8)])
def test_partition_matches_eigen_oracle(desc):
    rng = np.random.default_rng(31)
    d = dimension(desc)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (g + g.conj().T) / 2.0
    grid = default_grid(desc, "wigner")
    for beta in (0.0, 0.7):
        t = ThermalSpec(H, beta)
        assert partition_function(t, grid) == pytest.approx(
            partition_oracle(t), abs=1e-8
        )
    assert partition_function(ThermalSpec(H, 0.0), grid) == pytest.approx(d, abs=1e-8)


def test_thermal_mean_self_energy_vs_log_derivative():
    H = 0.9 * SX - 0.2 * SZ
    grid = cp_grid(SUN(2, 1))
    beta, h = 0.8, 1e-5
    mean = thermal_mean(H, ThermalSpec(H, beta), grid)
    lnZ = lambda b: math.log(partition_oracle(ThermalSpec(H, b)))
    oracle = -(lnZ(beta + h) - lnZ(beta - h)) / (2.0 * h)
    assert mean == pytest.approx(oracle, abs=1e-8)


def test_thermal_mean_rejects_a_non_hermitian_observable():
    # <iI> = i has no real mean; it must not come back as 0
    t = ThermalSpec(SZ, 0.7)
    with pytest.raises(ValueError, match="Hermitian"):
        thermal_mean(1j * np.eye(2), t, cp_grid(SUN(2, 1)))


def test_thermal_magnetization_direction():
    h = np.array([0.0, 0.0, 0.7])
    e = np.array([0.5, 0.0, 0.5])  # 45 degrees off the field, length != 1
    H = h[2] * SZ
    A = e[0] * SX + e[2] * SZ
    beta = 1.3
    got = thermal_mean(A, ThermalSpec(H, beta), cp_grid(SUN(2, 1)))
    cos_t = np.dot(e, h) / (np.linalg.norm(e) * np.linalg.norm(h))
    want = -np.linalg.norm(e) * cos_t * math.tanh(beta * np.linalg.norm(h))
    assert got == pytest.approx(want, abs=1e-10)


def test_free_energy():
    H = np.diag([0.0, 2.0])
    grid = cp_grid(SUN(2, 1))
    t = ThermalSpec(H, 1.5)
    assert free_energy(t, grid) == pytest.approx(
        -math.log(partition_oracle(t)) / 1.5, abs=1e-10
    )
    with pytest.raises(ValueError):
        free_energy(ThermalSpec(H, 0.0), grid)


@pytest.mark.parametrize("desc", [SUN(2, 1), SUN(3, 1)])
def test_thermal_values_at_large_beta_are_the_ground_state(desc):
    """At beta = 1000 the mean is the ground-state value and F the ground energy."""
    rng = np.random.default_rng(17)
    d = dimension(desc)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H, A = (g + g.conj().T) / 2.0, generator(desc.N, desc.M, 3)
    w, V = np.linalg.eigh(H)
    grid = default_grid(desc, "wigner")
    t = ThermalSpec(H, 1000.0)
    ground = float(np.real(V[:, 0].conj() @ A @ V[:, 0]))
    assert abs(thermal_mean(A, t, grid) - ground) < 1e-12
    assert abs(free_energy(t, grid) - w[0]) < 1e-12


@pytest.mark.parametrize("beta", [0.1, 0.9, 2.0])
def test_thermal_values_match_the_unshifted_integrals(beta):
    """For moderate beta the ground-energy shift changes nothing beyond rounding."""
    desc = SUN(3, 1)
    rng = np.random.default_rng(23)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H, A = (g + g.conj().T) / 2.0, generator(3, 1, 8)
    grid, spec = default_grid(desc, "wigner"), KernelSpec("wigner", desc)
    t = ThermalSpec(H, beta)
    G = phase_function(gibbs_operator(t), spec, grid)
    Z = G.integral().real
    mean = np.sum(grid.weights() * phase_function(A, spec, grid).values * G.values).real / Z
    assert partition_function(t, grid) == pytest.approx(Z, rel=1e-13)
    assert thermal_mean(A, t, grid) == pytest.approx(mean, rel=1e-13)
    assert free_energy(t, grid) == pytest.approx(-math.log(Z) / beta, rel=1e-13)


def test_partition_function_out_of_range_raises():
    """Z past the largest double, or below the smallest, raises; F stays the ground energy."""
    grid = cp_grid(SUN(2, 1))
    for H in (SZ, -SZ - 2.0 * np.eye(2), SZ + 2.0 * np.eye(2)):
        t = ThermalSpec(H, 2000.0)
        with pytest.raises(OverflowError, match=r"beta = 2000\.0"):
            partition_function(t, grid)
        assert free_energy(t, grid) == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-12)


def test_weyl_axes_layout():
    assert weyl_axes(SUN(2, 1)) == ("phi1", "theta1", "Phi1")
    assert weyl_axes(SUN(3, 1)) == (
        "phi1", "theta1", "phi2", "theta2", "phi3", "theta3", "Phi1", "Phi2",
    )
    assert weyl_axes(HW(8)) == ("alpha", "alpha_star")


def test_weyl_moments_validation():
    rho = np.eye(2) / 2.0
    with pytest.raises(ValueError):
        weyl_moments(rho, SUN(2, 1), (1, 0))  # wrong arity
    with pytest.raises(ValueError):
        weyl_moments(rho, SUN(2, 1), (2, 2, 1))  # total order 5
    with pytest.raises(TypeError):
        weyl_moments(np.eye(4) / 4, None, (1, 1))


def test_cartan_moments_match_trace_oracle():
    for M in (1, 2):
        desc = SUN(2, M)
        rho = build_state(RandomDensity(5), desc)
        J3 = np.asarray(generator(2, M, 3))
        for m in range(1, 5):
            want = np.trace(rho @ np.linalg.matrix_power(J3, m))
            assert abs(weyl_moments(rho, desc, (0, 0, m)) - want) < 1e-12, (M, m)


@pytest.mark.parametrize("desc", [SUN(2, 2), SUN(3, 1)], ids=str)
def test_mixed_moments_match_the_ordered_product(desc):
    rho = build_state(RandomDensity(11), desc)
    n = len(weyl_axes(desc))
    rng = np.random.default_rng(4)
    for total in (1, 2, 3, 4):
        for _ in range(6):
            orders = tuple(int(m) for m in np.bincount(rng.integers(0, n, total), minlength=n))
            want = _ordered_moment_oracle(desc, rho, orders)
            assert abs(weyl_moments(rho, desc, orders) - want) < 1e-12, orders


def test_hw_moments_of_coherent_state():
    # symmetric ordering: <S(a^p a^dag^q)> =
    # sum_k C(p,k) C(q,k) k! 2^-k beta^(p-k) conj(beta)^(q-k), e.g. |beta|^2 + 1/2 at (1, 1)
    desc = HW(24)
    beta = 0.6 - 0.3j
    rho = build_state(Coherent(beta), desc)
    for p in range(5):
        for q in range(5 - p):
            want = sum(math.comb(p, k) * math.comb(q, k) * math.factorial(k) * 2.0**-k
                       * beta ** (p - k) * np.conj(beta) ** (q - k)
                       for k in range(min(p, q) + 1))
            assert abs(weyl_moments(rho, desc, (p, q)) - want) < 1e-12, (p, q)


def test_moment_stencils_are_fourth_order():
    # an independent oracle: Fornberg's fourth-order row for the third
    # derivative (offsets -3..3) over Weyl-symbol values, times eta = (-1j)^3
    row = (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8)
    desc = SUN(2, 1)
    rho = build_state(RandomDensity(3), desc)
    exact = weyl_moments(rho, desc, (0, 0, 3))
    errs = []
    for h in (0.4, 0.2, 0.1):
        rows = np.zeros((7, 3))
        rows[:, 2] = h * np.arange(-3, 4)
        values = symbols_at(rho, KernelSpec("weyl", desc), rows)
        errs.append(abs(1j * np.dot(row, values) / h**3 - exact))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 3.5 < order1 < 4.5
    assert 3.5 < order2 < 4.5


def test_autocorrelation_spin_closed_form():
    rho = np.diag([0.9, 0.1]).astype(complex)
    thetas = np.linspace(0.0, 1.4, 9)
    vals = autocorrelation(rho, SUN(2, 1), "theta1", thetas)
    assert np.max(np.abs(vals - np.cos(thetas))) < 1e-12


def test_autocorrelation_hw_closed_form():
    """<beta|D(alpha)|beta> = exp(-|alpha|^2/2 + alpha conj(beta) - conj(alpha) beta) on re, im."""
    beta = 0.5 + 0.8j
    desc = HW(25)
    rho = build_state(Coherent(beta), desc)
    x = np.linspace(-2.0, 2.0, 7) / math.sqrt(2.0)
    got_re = autocorrelation(rho, desc, "re", x)
    want_re = np.exp(-(x**2) / 2.0) * np.exp(-2j * x * beta.imag)
    assert np.max(np.abs(got_re - want_re)) < 1e-9
    got_im = autocorrelation(rho, desc, "im", x)
    want_im = np.exp(-(x**2) / 2.0) * np.exp(2j * x * beta.real)
    assert np.max(np.abs(got_im - want_im)) < 1e-9


def test_autocorrelation_takes_the_weyl_columns_of_a_composite():
    """On a product state each factor's column gives that factor's slice times the other's trace."""
    spin, osc = SUN(2, 1), HW(3)
    rho1 = build_state(RandomDensity(2), spin)
    rho2 = build_state(Coherent(0.3 - 0.2j), osc)
    desc = Composite((spin, osc))
    s = np.linspace(-1.0, 1.2, 5)
    for axis, sub, rho in [("f1_theta1", spin, rho1), ("f2_im", osc, rho2)]:
        got = autocorrelation(np.kron(rho1, rho2), desc, axis, s)
        want = autocorrelation(rho, sub, axis[3:], s)
        assert np.max(np.abs(got - want)) < 1e-13, axis


def test_autocorrelation_rejects_unknown_axis():
    with pytest.raises(ValueError):
        autocorrelation(np.eye(2) / 2, SUN(2, 1), "theta9", [0.0])
    for axis in ("x", "q", "alpha"):  # the oscillator's columns are re and im
        with pytest.raises(ValueError, match=r"not in \('re', 'im'\)"):
            autocorrelation(np.eye(4) / 4, HW(4), axis, [0.0])
    with pytest.raises(ValueError, match="f2_re"):
        autocorrelation(np.eye(6) / 6, Composite((SUN(2, 1), HW(3))), "re", [0.0])


def test_cross_correlation_zero_shift_is_purity_over_volume():
    desc = SUN(2, 2)
    rho = build_state(RandomDensity(9), desc)
    purity = float(np.trace(rho @ rho).real)
    for side in ("wigner", "weyl"):
        grid = default_grid(desc, side)
        f = phase_function(rho, KernelSpec(side, desc), grid)
        out = phase_cross_correlation(f, None)
        assert out.volume == pytest.approx(dimension(desc), abs=1e-10)
        assert out.raw_value.real == pytest.approx(purity, abs=1e-10)
        assert out.value == pytest.approx(purity / out.volume, abs=1e-10)


def test_cross_correlation_periodic_shift_wraps():
    desc = SUN(2, 1)
    rho = build_state(RandomDensity(2), desc)
    grid = cp_grid(desc)
    f = phase_function(rho, KernelSpec("wigner", desc), grid)
    base = phase_cross_correlation(f, None)
    # a full phi period is the identity shift on the uniform angle axis
    wrapped = phase_cross_correlation(f, type(grid.point(0))((2.0 * math.pi,), (0.0,)))
    assert wrapped.value == pytest.approx(base.value, abs=1e-10)


def test_cross_correlation_hw_gaussian_overlap():
    # coherent-state Wigner autocovariance: raw = exp(-|b|^2)
    desc = HW(16)
    rho = build_state(Coherent(0.4), desc)
    grid = default_grid(desc, "wigner")
    f = phase_function(rho, KernelSpec("wigner", desc), grid)
    b = 0.3 - 0.2j
    out = phase_cross_correlation(f, HWPoint(b))
    assert out.raw_value.real == pytest.approx(math.exp(-abs(b) ** 2), abs=1e-8)


def test_cross_correlation_zero_shift_on_the_plane_rule_is_purity():
    # the plane's measure is unbounded: no volume, and the raw value is the purity
    desc = HW(8)
    rho = build_state(RandomDensity(9), desc)
    f = phase_function(rho, KernelSpec("wigner", desc), default_grid(desc, "wigner"))
    out = phase_cross_correlation(f, None)
    assert out.volume is None and out.value is None
    assert abs(out.raw_value - np.trace(rho @ rho).real) < 1e-12


# square windows that resolve hw:8 and its shifts up to |b| = 2 to rounding;
# a Weyl kernel decays as e^(-|alpha|^2 / 2), a Wigner kernel four times faster
_WINDOW = {"wigner": (6.0, 120), "weyl": (12.0, 160)}


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("side", ["wigner", "weyl"])
@pytest.mark.parametrize("size", [1.0, 2.0])
def test_cross_correlation_shift_on_the_plane_rule_is_exact(n, side, size):
    # the vacuum gives exp(-|b|^2) (Wigner) and exp(-|b|^2 / 4) (Weyl); a
    # random state is checked against a square window that resolves it
    desc, spec = HW(n), KernelSpec(side, HW(n))
    b = HWPoint(size * complex(math.cos(0.7), math.sin(0.7)))
    vacuum = phase_function(build_state(Coherent(0.0), desc), spec, default_grid(desc, side))
    oracle = math.exp(-size**2 / (1.0 if side == "wigner" else 4.0))
    assert abs(phase_cross_correlation(vacuum, b).raw_value - oracle) < 1e-10
    rho = build_state(RandomDensity(5), desc)
    out = phase_cross_correlation(phase_function(rho, spec, default_grid(desc, side)), b)
    window = phase_cross_correlation(phase_function(rho, spec, hw_grid(desc, *_WINDOW[side])), b)
    assert out.volume is None and out.value is None
    assert abs(out.raw_value - window.raw_value) < 1e-10


@pytest.mark.parametrize("n", [2, 8, 20, 40])
@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_cross_correlation_shift_on_the_plane_rule_is_the_displaced_trace(n, side):
    """Tr[D(b)^dagger rho D(b) rho] (Wigner) and Tr[D(b/2) rho D(b/2) rho^dagger] (Weyl).

    D is the block of the displacement from the Laguerre closed form in the
    test oracles, not the package's kernel.
    """
    desc = HW(n)
    rho = build_state(RandomDensity(7), desc)
    f = phase_function(rho, KernelSpec(side, desc), default_grid(desc, side))
    for b in (0.4 - 0.1j, -1.2 + 0.9j, 3.0 * complex(math.cos(2.1), math.sin(2.1))):
        if side == "wigner":
            D = oracles.hw_kernels(n, b, "weyl")
            want = np.trace(D.conj().T @ rho @ D @ rho)
        else:
            D = oracles.hw_kernels(n, b / 2, "weyl")
            want = np.trace(D @ rho @ D @ rho.conj().T)
        assert abs(phase_cross_correlation(f, HWPoint(b)).raw_value - want) < 1e-12, b


def test_cross_correlation_shift_on_a_plane_rule_builds_no_piece(monkeypatch):
    """A plane rule's shift is a step of the operator: every transform reuses the rule's pieces."""
    desc, spec = HW(12), KernelSpec("wigner", HW(12))
    f = phase_function(build_state(RandomDensity(2), desc), spec, default_grid(desc, "wigner"))
    built = []
    split = kernels_module._split
    monkeypatch.setattr(kernels_module, "_split", lambda *a: built.append(a) or split(*a))
    out = phase_cross_correlation(f, HWPoint(0.8 - 0.3j))
    assert built == [] and out.raw_value != 0.0


_SU21_HW3 = Composite((SUN(2, 1), HW(3)))


@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_cross_correlation_shift_on_a_product_with_a_plane_rule(side):
    grid = default_grid(_SU21_HW3, side)
    spec = KernelSpec(side, _SU21_HW3)
    rho = build_state(RandomDensity(3), _SU21_HW3)
    shift = [0.4, 0.1] + ([0.3] if side == "weyl" else []) + [0.8, -0.6]
    point = _row_point(spec, shift)
    out = phase_cross_correlation(phase_function(rho, spec, grid), point)
    windowed = product_grid((grid.factors[0], hw_grid(HW(3), *_WINDOW[side])))
    window = phase_cross_correlation(phase_function(rho, spec, windowed), point)
    assert abs(out.raw_value - window.raw_value) < 1e-10


@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_cross_correlation_shift_on_a_shared_factor_grid_is_unchanged(side):
    desc = Composite((SUN(2, 1), SUN(2, 1)))
    spec = KernelSpec(side, desc)
    rho = build_state(RandomDensity(5), desc)
    shared = default_grid(desc, side)
    apart = product_grid(default_grid(f, side) for f in desc.factors)
    assert shared.factors[0] is shared.factors[1] and apart.factors[0] is not apart.factors[1]
    extra = [0.3] if side == "weyl" else []
    point = _row_point(spec, [0.4, 0.1, *extra, -0.7, 0.25, *extra])
    out = phase_cross_correlation(phase_function(rho, spec, shared), point)
    ref = phase_cross_correlation(phase_function(rho, spec, apart), point)
    assert out.raw_value == ref.raw_value


_CROSS_CASES = {
    "su21-wigner": ("wigner", lambda: cp_grid(SUN(2, 1)), (0.7, -0.3)),
    "su23-wigner": ("wigner", lambda: cp_grid(SUN(2, 3)), (0.7, -0.3)),
    "su210-wigner-theta": ("wigner", lambda: cp_grid(SUN(2, 10)), (0.0, 0.37)),
    "su31-wigner": ("wigner", lambda: cp_grid(SUN(3, 1)), (0.3, 0.2, -0.4, 0.25)),
    "su31-wigner-inner-theta": ("wigner", lambda: cp_grid(SUN(3, 1)), (0.0, 0.45, 0.0, 0.0)),
    "su22-weyl": ("weyl", lambda: sun_grid(SUN(2, 2)), (5.9, 0.4, -1.1)),
    "su23-weyl-angles": ("weyl", lambda: sun_grid(SUN(2, 3)), (1.1, 0.0, 2.3)),
    "su21*su22-weyl-thetas": (
        "weyl",
        lambda: product_grid((sun_grid(SUN(2, 1)), sun_grid(SUN(2, 2)))),
        (0.0, 0.35, 0.0, 0.0, -0.6, 0.0),
    ),
    "hw4-wigner": ("wigner", lambda: hw_grid(HW(4), 3.5, 16), (0.3, -0.2)),
    "su21*hw3-wigner": (
        "wigner",
        lambda: product_grid((cp_grid(SUN(2, 1)), hw_grid(HW(3), 3.0, 10))),
        (0.4, 0.1, 0.2, 0.3),
    ),
}


def _reference_rule(grid, measures, n=80):
    """``grid`` with every colatitude on an n-point Gauss-Legendre rule times its measure.

    80 nodes resolve every frequency these cases reach (at most 42, for
    su:2:10 with its measure) about twice over; uniform angles and square
    windows, which define the integral they take, are kept.
    """
    if grid.factors:
        return product_grid(_reference_rule(g, measures, n) for g in grid.factors)
    x, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.25 * math.pi * (x + 1.0), 0.25 * math.pi * w
    windowed = grid.manifold == "HW_PLANE"
    axes, factors = [], iter(() if windowed else measures(grid.system.N, grid.manifold))
    for ax in grid.axes:
        if ax.name.startswith("theta"):
            ax = replace(ax, nodes=t, weights=w * next(factors)(t))
        axes.append(ax)
    return replace(grid, axes=tuple(axes), _weights=None, _coords=None)


@pytest.mark.parametrize("case", sorted(_CROSS_CASES))
def test_cross_correlation_shift_matches_per_point_oracle(case, colatitude_measures):
    """sum_i w_i a(node i + shift) a(node i) on a converged rule, a = symbol of reconstruct(f).

    The reference does not use the rule under test: each colatitude is a
    plain Gauss-Legendre rule far past convergence, and both factors come
    from ``symbols_at`` node by node; the Weyl side conjugates the second.
    """
    side, make_grid, shift = _CROSS_CASES[case]
    grid = make_grid()
    spec = KernelSpec(side, grid.system)
    rho = build_state(RandomDensity(3), grid.system)
    f = phase_function(rho, spec, grid)
    out = phase_cross_correlation(f, _row_point(spec, shift))
    A = reconstruct(f)
    ref = _reference_rule(grid, colatitude_measures)
    rows = ref.coords()
    second = symbols_at(A, spec, rows)
    if side == "weyl":
        second = np.conj(second)
    oracle = np.sum(ref.weights() * symbols_at(A, spec, rows + np.asarray(shift)) * second)
    assert abs(out.raw_value - oracle) < 1e-12
    unshifted = f.values if side == "wigner" else np.conj(f.values)
    assert abs(out.raw_value - np.sum(grid.weights() * f.values * unshifted)) > 1e-6


def test_shift_rule_moves_only_the_colatitudes_the_shift_moves():
    grid = cp_grid(SUN(3, 1))
    assert _shift_rule(grid, (0.3, 0.0, -0.2, 0.0)) is grid  # angles only: the grid itself
    rule = _shift_rule(grid, (0.0, 0.45, 0.0, 0.0))
    assert [ax.kind for ax in rule.axes] == ["uniform", "gauss", "uniform", "jacobi"]
    assert rule.axes[3] is grid.axes[3]
    plane = default_grid(HW(4), "wigner")
    assert _shift_rule(plane, (0.3, 0.2)) is plane


def test_cross_correlation_theta_shift_on_su41_weyl(colatitude_measures):
    """A colatitude shift on su:4:1's Weyl grid, whose all-Legendre rule has 2.4e11 nodes.

    The unmoved colatitudes keep their Jacobi rule.  Putting any one of them
    on Gauss-Legendre as well (summed one node of it at a time) gives the
    same value.
    """
    desc = SUN(4, 1)
    spec, grid = KernelSpec("weyl", desc), sun_grid(desc)
    f = phase_function(build_state(RandomDensity(6), desc), spec, grid)
    cols = _columns(spec)
    row = np.zeros(len(cols))
    row[cols.index("theta1")] = 0.37
    out = phase_cross_correlation(f, _row_point(spec, row))
    A = reconstruct(f)
    x, w = np.polynomial.legendre.leggauss(14)  # e^(8it) to 7e-16, the largest frequency
    t, w = 0.25 * math.pi * (x + 1.0), 0.25 * math.pi * w
    thetas = [k for k, name in enumerate(cols) if name.startswith("theta")]
    rule = _shift_rule(grid, row)
    for k, factor in zip(thetas, colatitude_measures(4, "SUN")):
        if row[k]:
            continue
        total = 0.0
        for node, weight in zip(t, w * factor(t)):
            axis = replace(rule.axes[k], nodes=np.array([node]), weights=np.array([weight]))
            sub = replace(rule, axes=rule.axes[:k] + (axis,) + rule.axes[k + 1:], _weights=None)
            moved = phase_function(A, spec, _shifted_grid(sub, row)).values
            total += np.sum(sub.weights() * moved * np.conj(phase_function(A, spec, sub).values))
        assert abs(out.raw_value - total) < 1e-13, cols[k]


def test_cross_correlation_rejects_shift_of_wrong_type_or_width():
    desc = SUN(2, 1)
    f = phase_function(np.eye(2) / 2, KernelSpec("wigner", desc), cp_grid(desc))
    wrong = (EulerPoint((0.1,), (0.2,), (0.3,)), HWPoint(0.3), CPPoint((0.1, 0.2), (0.3, 0.4)))
    for shift in wrong:
        with pytest.raises(ValueError):
            phase_cross_correlation(f, shift)


def test_cross_correlation_shift_rule_guard_fires_before_any_transform(monkeypatch):
    """A shift rule past MAX_NODES raises before any piece is built, naming it and shift=None."""
    desc = SUN(2, 3)
    spec, grid = KernelSpec("weyl", desc), sun_grid(desc)
    f = phase_function(np.eye(4) / 4, spec, grid)
    rule = _shift_rule(grid, (0.1, 0.2, 0.3)).n_nodes
    assert rule > grid.n_nodes
    built = []
    split = kernels_module._split
    monkeypatch.setattr(kernels_module, "_split", lambda *a: built.append(a) or split(*a))
    monkeypatch.setattr(measures_module, "MAX_NODES", grid.n_nodes)
    with pytest.raises(OverflowError, match=f"shift rule of {rule} nodes") as err:
        phase_cross_correlation(f, EulerPoint((0.1,), (0.2,), (0.3,)))
    assert "shift=None" in str(err.value) and "resolution" not in str(err.value)
    assert built == []
    assert phase_cross_correlation(f, None).value is not None  # the zero shift still works


def _with_uncut_angles(grid):
    """``grid`` with every uniform angle on at least D + 1 nodes, D the chart's degree."""
    from wignerweyl.measures import _degree, _finalize, _uniform_axis

    n = _degree(grid.manifold, grid.system.M) + 1
    axes = [_uniform_axis(ax.name, ax.hi, max(n, len(ax.nodes))) if ax.kind == "uniform" else ax
            for ax in grid.axes]
    return _finalize(grid.system, grid.manifold, axes, grid.exactness)


@pytest.mark.parametrize("side,N,M", [
    ("wigner", 2, 3), ("weyl", 2, 4), ("weyl", 2, 5), ("wigner", 3, 1), ("weyl", 3, 1),
    ("wigner", 3, 2), ("wigner", 4, 1),
])
def test_cross_correlation_shifts_on_the_cut_angles_match_the_uncut_grid(side, N, M):
    """Shifts of the uniform angles alone, and with theta, on grids whose angles are cut.

    A product of kernels at x + shift and at x carries the same phase
    frequencies as one at a single point, so the cut counts alias none of
    them, on the Gauss-Jacobi colatitudes and on ``_shift_rule``'s moved ones
    alike.
    """
    desc, spec = SUN(N, M), KernelSpec(side, SUN(N, M))
    grid = default_grid(desc, side)
    uncut = _with_uncut_angles(grid)
    rho = build_state(RandomDensity(4), desc)
    f, g = phase_function(rho, spec, grid), phase_function(rho, spec, uncut)
    rng = np.random.default_rng(N * 10 + M)
    n_pairs = sum(ax.name.startswith("theta") for ax in grid.axes)
    n_cartan = len(grid.axes) - 2 * n_pairs
    for moved_theta in (False, True):
        phi = tuple(rng.uniform(-1.0, 1.0, n_pairs))
        theta = tuple(rng.uniform(-0.4, 0.4, n_pairs) * moved_theta)
        shift = (CPPoint(phi, theta) if side == "wigner"
                 else EulerPoint(phi, theta, tuple(rng.uniform(-1.0, 1.0, n_cartan))))
        cut, full = phase_cross_correlation(f, shift), phase_cross_correlation(g, shift)
        assert abs(cut.raw_value - full.raw_value) < 1e-13, (shift, cut.raw_value, full.raw_value)
