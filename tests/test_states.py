"""State builders: normalization, closed-form expectations, CLI grammar."""

import math

import numpy as np
import pytest

from wignerweyl import (
    GHZ,
    HW,
    SUN,
    Coherent,
    Composite,
    Fock,
    HWCat,
    RandomDensity,
    SpinCat,
    SpinCoherent,
    ThermalSpec,
    build_generators,
    build_state,
    coherent_vector,
    dimension,
    parse_state,
    state_vector,
)


def _is_density(rho, d):
    assert rho.shape == (d, d)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


@pytest.mark.parametrize(
    "spec,desc",
    [
        (Fock(3), HW(8)),
        (Coherent(1.2 - 0.4j), HW(20)),
        (HWCat((2.0, -2.0)), HW(24)),
        (SpinCoherent(0.4, 0.3), SUN(2, 3)),
        (SpinCat(((0.0, 0.2), (2.0, 0.4))), SUN(2, 4)),
        (GHZ(), SUN(2, 5)),
        (GHZ(), Composite(tuple(SUN(2, 1) for _ in range(3)))),
        (ThermalSpec(np.diag([0.0, 1.0, 2.0]), 0.7), SUN(2, 2)),
        (RandomDensity(42), SUN(3, 1)),
        (RandomDensity(42), HW(6)),
    ],
)
def test_build_state_returns_density_matrix(spec, desc):
    _is_density(build_state(spec, desc), dimension(desc))


def test_fock_vector_and_range():
    v = state_vector(Fock(2), HW(5))
    assert np.array_equal(v, [0, 0, 1, 0, 0])
    with pytest.raises(ValueError):
        state_vector(Fock(5), HW(5))
    with pytest.raises(TypeError):
        state_vector(Fock(0), SUN(2, 1))


def test_coherent_vector_recursion_and_norm():
    alpha = 0.9 + 0.2j
    v = coherent_vector(25, alpha)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    # v_{n+1} / v_n = alpha / sqrt(n+1), the defining ladder recursion
    for n in range(6):
        assert v[n + 1] / v[n] == pytest.approx(alpha / math.sqrt(n + 1), abs=1e-12)
    assert np.array_equal(coherent_vector(4, 0.0), [1, 0, 0, 0])


@pytest.mark.parametrize("alpha", [0.3, 1.2 - 0.7j, -3.1j, 5.5])
def test_coherent_vector_matches_the_closed_form(alpha):
    want = np.array([alpha**k / math.sqrt(math.factorial(k)) for k in range(12)])
    want *= math.exp(-abs(alpha) ** 2 / 2)
    assert np.max(np.abs(coherent_vector(12, alpha) - want / np.linalg.norm(want))) < 1e-15


@pytest.mark.parametrize("alpha", [1e3, -700j, 30.0, 1e-200])
def test_coherent_vector_at_extreme_amplitudes_is_a_unit_vector(alpha):
    """No amplitude underflows to 0/0 at large |alpha| (the top level dominates) or at tiny ones."""
    v = coherent_vector(6, alpha)
    assert np.all(np.isfinite(v)) and np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    top = 5 if abs(alpha) > 1 else 0
    assert np.argmax(np.abs(v)) == top
    k = top - 1 if top else 0  # one ladder step next to the dominant level
    assert v[k + 1] / v[k] == pytest.approx(alpha / math.sqrt(k + 1), rel=1e-12)


def test_far_cat_is_a_unit_trace_state():
    cat = build_state(HWCat((30.0, -30.0)), HW(4))
    assert np.all(np.isfinite(cat)) and np.trace(cat).real == pytest.approx(1.0, abs=1e-14)


def test_coherent_mean_occupation():
    alpha = 1.1 - 0.3j
    v = coherent_vector(40, alpha)
    n_mean = float(np.sum(np.arange(40) * np.abs(v) ** 2))
    assert n_mean == pytest.approx(abs(alpha) ** 2, abs=1e-10)


def test_spin_coherent_bloch_vector():
    # theta in [0, pi/2] spans pole to pole: <sigma_z> = -cos(2 theta)
    sz = np.asarray(build_generators(2, 1)[2])
    for theta in (0.0, 0.2, math.pi / 4, 0.6, math.pi / 2):
        rho = build_state(SpinCoherent(0.8, theta), SUN(2, 1))
        assert np.trace(rho @ sz).real == pytest.approx(-math.cos(2 * theta), abs=1e-12)


def test_spin_coherent_pole_is_lowest_weight():
    v = state_vector(SpinCoherent(1.3, 0.0), SUN(2, 4))
    want = np.zeros(5)
    want[-1] = 1.0
    assert np.max(np.abs(v - want)) < 1e-14


def test_spin_cat_normalized_with_overlap():
    # nearby orientations overlap strongly; the cross terms must be kept
    spec = SpinCat(((0.0, 0.1), (0.0, 0.15)))
    v = state_vector(spec, SUN(2, 6))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_ghz_amplitudes():
    v = state_vector(GHZ(), Composite(tuple(SUN(2, 1) for _ in range(5))))
    assert len(v) == 32
    assert v[0] == v[-1] == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.linalg.norm(v[1:-1]) == 0.0
    # Dicke twin on the symmetric space
    w = state_vector(GHZ(), SUN(2, 5))
    assert len(w) == 6
    assert w[0] == w[-1] == pytest.approx(1.0 / math.sqrt(2.0))
    with pytest.raises(TypeError):
        state_vector(GHZ(), SUN(3, 1))
    with pytest.raises(TypeError):
        state_vector(GHZ(), Composite((SUN(2, 1), HW(4))))


def test_hw_cat_interference_normalization():
    # two overlapping components: norm^2 = 2(1 + Re<a|b>) before rescaling
    a, b = 0.4, -0.4
    v = state_vector(HWCat((a, b)), HW(30))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    va, vb = coherent_vector(30, a), coherent_vector(30, b)
    want = (va + vb) / np.linalg.norm(va + vb)
    assert np.max(np.abs(v - want)) < 1e-12


def test_thermal_infinite_temperature_is_maximally_mixed():
    rho = build_state(ThermalSpec(np.diag([0.0, 1.0, 5.0]), 0.0), SUN(2, 2))
    assert np.max(np.abs(rho - np.eye(3) / 3.0)) < 1e-14


def test_thermal_ground_state_limit():
    rho = build_state(ThermalSpec(np.diag([0.0, 1.0]), 200.0), SUN(2, 1))
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_thermal_validation():
    with pytest.raises(ValueError):
        ThermalSpec(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)  # not Hermitian
    with pytest.raises(ValueError):
        ThermalSpec(np.eye(2), -0.5)
    with pytest.raises(ValueError):
        ThermalSpec(np.eye(2), float("nan"))  # would build a NaN density matrix
    with pytest.raises(ValueError):
        build_state(ThermalSpec(np.eye(3), 1.0), SUN(2, 1))  # wrong shape


def test_random_density_reproducible():
    a = build_state(RandomDensity(7), SUN(2, 2))
    b = build_state(RandomDensity(7), SUN(2, 2))
    c = build_state(RandomDensity(8), SUN(2, 2))
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3


def test_state_vector_rejects_density_specs():
    with pytest.raises(TypeError):
        state_vector(RandomDensity(0), SUN(2, 1))
    with pytest.raises(TypeError):
        state_vector(ThermalSpec(np.eye(2), 1.0), SUN(2, 1))


def test_parse_state_grammar():
    assert parse_state("fock:3", HW(8)) == Fock(3)
    assert parse_state("coherent:1+2j", HW(8)) == Coherent(1 + 2j)
    assert parse_state("hwcat:2|-2|0.5j", HW(8)) == HWCat((2, -2, 0.5j))
    assert parse_state("spincoherent:0.3,0.4", SUN(2, 1)) == SpinCoherent(0.3, 0.4)
    assert parse_state("spincat:0,0.2|1,0.3", SUN(2, 1)) == SpinCat(((0, 0.2), (1, 0.3)))
    assert parse_state("ghz", SUN(2, 5)) == GHZ()
    assert parse_state("random:9", SUN(2, 1)) == RandomDensity(9)
    assert parse_state("random", SUN(2, 1)) == RandomDensity(0)


def test_parse_state_rejects_malformed():
    for bad in ["fock:x", "coherent:", "spincoherent:1", "husimi:1", "hwcat:1|"]:
        with pytest.raises(ValueError):
            parse_state(bad, HW(8))
    for bad in ["coherent:nan", "coherent:inf", "coherent:1+nanj", "hwcat:1|-infj",
                "spincoherent:nan,0.1", "spincoherent:0.1,inf", "spincat:0,0.2|nan,0.3"]:
        with pytest.raises(ValueError, match="bad state string .*must be finite"):
            parse_state(bad, HW(8))
