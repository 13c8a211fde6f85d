"""Transforms: invertibility, star products, dynamics, condition reports."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from wignerweyl import (
    HW,
    SUN,
    Composite,
    CPPoint,
    EulerPoint,
    HWPoint,
    KernelSpec,
    cp_grid,
    default_grid,
    dimension,
    euler_rotation,
    evolve,
    generalized_fourier,
    hw_grid,
    kernel_at,
    kernel_stack,
    moyal_bracket,
    overlap,
    parse_system,
    phase_function,
    product_grid,
    reconstruct,
    star_product,
    sun_grid,
    symbol_at,
    symbols_at,
    verify_stratonovich,
)
import wignerweyl.kernels as kernels_module
import wignerweyl.measures as measures_module
import wignerweyl.transforms as transforms_module
from wignerweyl.statmech import _shifted_grid
from wignerweyl.transforms import PhaseFunction

import oracles


def _hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


SYSTEMS = [SUN(2, 1), SUN(2, 3), SUN(3, 1), HW(10)]


@pytest.mark.parametrize("desc", SYSTEMS)
@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_roundtrip_random_hermitian(desc, side):
    spec = KernelSpec(side, desc)
    grid = default_grid(desc, side)
    A = _hermitian(dimension(desc), 11)
    back = reconstruct(phase_function(A, spec, grid))
    assert np.max(np.abs(back - A)) < 1e-8 if isinstance(desc, HW) else 1e-11


@pytest.mark.parametrize(
    "desc",
    [Composite((SUN(2, 1), SUN(2, 1))), Composite((SUN(2, 1), HW(6)))],
)
def test_roundtrip_composite(desc):
    spec = KernelSpec("wigner", desc)
    grid = default_grid(desc, "wigner")
    A = _hermitian(dimension(desc), 12)
    back = reconstruct(phase_function(A, spec, grid))
    tol = 1e-8 if any(isinstance(f, HW) for f in desc.factors) else 1e-10
    assert np.max(np.abs(back - A)) < tol


@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_identical_factors_share_one_grid_and_one_split(side, monkeypatch):
    desc = Composite((SUN(2, 1), HW(3), SUN(2, 1)))
    grid = default_grid(desc, side)
    assert grid.factors[0] is grid.factors[2] and grid.factors[0] is not grid.factors[1]
    built, split = [], kernels_module._split
    monkeypatch.setattr(kernels_module, "_split", lambda *a: built.append(a) or split(*a))
    pieces = kernels_module.kernel_pieces(KernelSpec(side, desc), grid)
    assert len(built) == 2 and pieces[0] is pieces[2]


def test_phase_function_linearity_and_trace():
    desc = SUN(2, 2)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    A, B = _hermitian(3, 1), _hermitian(3, 2)
    fA = phase_function(A, spec, grid)
    fB = phase_function(B, spec, grid)
    fAB = phase_function(2.0 * A - 0.5j * B, spec, grid)
    assert np.max(np.abs(fAB.values - (2.0 * fA.values - 0.5j * fB.values))) < 1e-12
    assert fA.integral() == pytest.approx(np.trace(A), abs=1e-12)


def test_wigner_symbols_of_hermitian_are_real():
    desc = SUN(3, 1)
    f = phase_function(_hermitian(3, 3), KernelSpec("wigner", desc), cp_grid(desc))
    assert np.max(np.abs(f.values.imag)) < 1e-12


def test_symbol_at_matches_grid_values():
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    A = _hermitian(2, 4)
    f = phase_function(A, spec, grid)
    for i in (0, 3, 5):
        assert abs(symbol_at(A, spec, grid.point(i)) - f.values[i]) < 1e-12


@pytest.mark.parametrize("A", [np.eye(3), np.ones(2), np.eye(2)[None]],
                         ids=["3x3", "vector", "stack"])
def test_symbol_at_validates_the_operator_as_every_transform(A):
    desc = SUN(2, 1)
    spec, grid = KernelSpec("weyl", desc), sun_grid(desc)
    for transform in (lambda: symbol_at(A, spec, grid.point(0)),
                      lambda: symbols_at(A, spec, grid.coords()[:1]),
                      lambda: phase_function(A, spec, grid)):
        with pytest.raises(ValueError, match=r"operator must be 2x2 for SUN\(N=2, M=1\)"):
            transform()


@pytest.mark.parametrize(
    "side,make_grid",
    [
        ("weyl", lambda: sun_grid(SUN(2, 2))),
        ("wigner", lambda: cp_grid(SUN(3, 1))),
        ("wigner", lambda: hw_grid(HW(5), 3.0, 20)),
        ("weyl", lambda: product_grid([sun_grid(SUN(2, 1)), hw_grid(HW(3), 2.5, 8)])),
    ],
)
def test_symbols_at_matches_grid_values_in_blocks(side, make_grid, monkeypatch):
    import wignerweyl.kernels as kernels
    import wignerweyl.transforms as transforms

    grid = make_grid()
    spec = KernelSpec(side, grid.system)
    d = dimension(grid.system)
    A = _hermitian(d, 8)
    want = phase_function(A, spec, grid).values
    # a budget of 97 kernels forces several blocks with a partial tail
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 97 * 16 * d * d)
    got = transforms.symbols_at(A, spec, grid.coords())
    assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(ValueError):
        transforms.symbols_at(A, spec, grid.coords()[:, 1:])


def test_overlap_is_trace_pairing():
    desc = SUN(2, 2)
    A, B = _hermitian(3, 5), _hermitian(3, 6)
    wspec, wgrid = KernelSpec("wigner", desc), cp_grid(desc)
    fA, fB = phase_function(A, wspec, wgrid), phase_function(B, wspec, wgrid)
    assert overlap(fA, fB) == pytest.approx(np.trace(A @ B), abs=1e-11)
    # Weyl side pairs against the conjugate
    vspec, vgrid = KernelSpec("weyl", desc), sun_grid(desc)
    gA, gB = phase_function(A, vspec, vgrid), phase_function(B, vspec, vgrid)
    assert overlap(gA, gB) == pytest.approx(np.trace(A @ B.conj().T), abs=1e-11)


def test_overlap_rejects_mismatched_frames():
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    g1, g2 = cp_grid(desc), cp_grid(desc)
    fA = phase_function(_hermitian(2, 7), spec, g1)
    fB = phase_function(_hermitian(2, 8), spec, g2)  # equal but distinct grid
    with pytest.raises(ValueError):
        overlap(fA, fB)


def test_phase_function_shape_validation():
    desc = SUN(2, 1)
    grid = cp_grid(desc)
    with pytest.raises(ValueError):
        PhaseFunction(KernelSpec("wigner", desc), grid, np.zeros(grid.n_nodes + 1))
    with pytest.raises(ValueError):
        phase_function(np.eye(3), KernelSpec("wigner", desc), grid)


def test_phase_function_rejects_a_grid_of_another_kernel_family():
    # a Weyl spec on the CP grid used to make a PhaseFunction whose
    # overlap read 2.0, and only reconstruct raised
    desc = SUN(2, 1)
    grid = cp_grid(desc)
    with pytest.raises(ValueError, match="live on a SUN grid, got a CP grid"):
        PhaseFunction(KernelSpec("weyl", desc), grid, np.ones(grid.n_nodes))
    with pytest.raises(ValueError, match="does not match grid system"):
        PhaseFunction(KernelSpec("wigner", SUN(2, 2)), grid, np.ones(grid.n_nodes))


@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_star_product_reproduces_operator_product(side):
    desc = SUN(2, 1)
    spec = KernelSpec(side, desc)
    grid = default_grid(desc, side)
    A, B = _hermitian(2, 9), _hermitian(2, 10)
    fA, fB = phase_function(A, spec, grid), phase_function(B, spec, grid)
    prod = reconstruct(star_product(fA, fB))
    assert np.max(np.abs(prod - A @ B)) < 1e-11


def _literal_star_residuals(spec, grid):
    """(literal vs fast, reconstruct(literal) vs A @ B) for one random pair."""
    d = dimension(spec.system)
    A, B = _hermitian(d, 13), _hermitian(d, 14)
    fA, fB = phase_function(A, spec, grid), phase_function(B, spec, grid)
    literal = oracles.star_product(fA, fB)
    fast = star_product(fA, fB)
    return (np.max(np.abs(fast.values - literal.values)),
            np.max(np.abs(reconstruct(literal) - A @ B)))


def test_star_product_literal_path_agrees():
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    assert max(_literal_star_residuals(spec, cp_grid(desc))) < 1e-12


@pytest.mark.parametrize("system", ["su:2:4", "su:2:1*su:2:1"])
def test_star_product_literal_path_agrees_on_default_weyl_grids(system):
    """The pairs-level Euler-Weyl grids (243 and 81 nodes)."""
    desc = parse_system(system)
    grid = default_grid(desc, "weyl")
    assert max(_literal_star_residuals(KernelSpec("weyl", desc), grid)) < 1e-12


def test_moyal_bracket_is_commutator_symbol():
    desc = SUN(2, 2)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    A, B = _hermitian(3, 16), _hermitian(3, 17)
    fA, fB = phase_function(A, spec, grid), phase_function(B, spec, grid)
    got = reconstruct(moyal_bracket(fA, fB))
    assert np.max(np.abs(got - (A @ B - B @ A))) < 1e-11


def test_fourier_bridge_matches_direct_transform():
    desc = SUN(2, 1)
    A = _hermitian(2, 18)
    wspec, wgrid = KernelSpec("wigner", desc), cp_grid(desc)
    vspec, vgrid = KernelSpec("weyl", desc), sun_grid(desc)
    f = phase_function(A, wspec, wgrid)
    bridged = generalized_fourier(f, vspec, vgrid)
    direct = phase_function(A, vspec, vgrid)
    assert np.max(np.abs(bridged.values - direct.values)) < 1e-11
    # and back
    back = generalized_fourier(bridged, wspec, wgrid)
    assert np.max(np.abs(back.values - f.values)) < 1e-11


def test_evolve_spin_half_rotation():
    """H = J(3) rotates the Bloch vector; compare to the exact propagator."""
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    from wignerweyl import build_generators

    H = np.asarray(build_generators(2, 1)[2])
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # +x pure state
    t, dt = 0.5, 0.01
    res = evolve(phase_function(rho0, spec, grid), phase_function(H, spec, grid), t, dt, n_frames=5)
    U = np.diag(np.exp(-1j * t * np.diag(H)))
    oracle = phase_function(U @ rho0 @ U.conj().T, spec, grid)
    assert np.max(np.abs(res.final.values - oracle.values)) < 1e-12
    assert res.trace_drift < 1e-12
    assert res.purity_drift < 1e-10
    assert len(res.frames) == len(res.times)
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(t)


def test_evolve_weyl_side_oscillator():
    """The trace guard measures Tr[reconstruct(f)], which the Weyl side conserves."""
    desc = HW(12)
    spec = KernelSpec("weyl", desc)
    grid = default_grid(desc, "weyl")
    a = np.diag(np.sqrt(np.arange(1, 12)), 1)
    H = 0.3 * (a + a.T)
    psi = np.zeros(12)
    psi[:2] = (1.0, 0.5)
    rho = np.outer(psi, psi) / (psi @ psi)
    t = 0.02
    res = evolve(phase_function(rho, spec, grid), phase_function(H, spec, grid), t, 0.01)
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * w * t)) @ V.conj().T
    assert np.max(np.abs(reconstruct(res.final) - U @ rho @ U.conj().T)) < 1e-10
    assert res.trace_drift < 1e-10


def test_evolve_abort_names_the_grid_when_it_is_under_resolved():
    """hw:4 on a 10-node window misses the round trip; the abort names the grid before step 1."""
    desc = HW(4)
    spec = KernelSpec("wigner", desc)
    H = np.diag(np.arange(4.0)) + 0.1 * np.eye(4, k=1) + 0.1 * np.eye(4, k=-1)
    rho = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    coarse = default_grid(desc, "wigner", 10)
    with pytest.raises(RuntimeError, match=r"^the grid misses the state's round trip .*--grid-res"):
        evolve(phase_function(rho, spec, coarse), phase_function(H, spec, coarse), 0.02, 0.01)
    # 20 nodes miss too (by 0.14 on the state), which the per-step trace check
    # let through; 60 nodes reproduce both operators to 2e-7
    mid = default_grid(desc, "wigner", 20)
    with pytest.raises(RuntimeError, match="--grid-res"):
        evolve(phase_function(rho, spec, mid), phase_function(H, spec, mid), 0.02, 0.01)
    fine = default_grid(desc, "wigner", 60)
    res = evolve(phase_function(rho, spec, fine), phase_function(H, spec, fine), 0.02, 0.01)
    assert res.trace_drift < 1e-10


def _expm_frames(rho, H, times, spec, grid):
    """Oracle: the symbols of U rho U^dagger with U = scipy.linalg.expm(-i H t) at each time.

    Returns (frames, trace drift, purity drift), the drifts of the last frame
    against the first measured on the symbols, as evolve measures them.
    """
    w = grid.weights()
    dual_side = spec.side == "wigner"
    tr_K = phase_function(np.eye(len(H)), spec, grid).values
    trace_w = w * (tr_K if dual_side else np.conj(tr_K))

    def purity(v):
        return np.sum(w * v * (v if dual_side else np.conj(v)))

    frames = []
    for t in times:
        U = scipy.linalg.expm(-1j * t * H)
        frames.append(phase_function(U @ rho @ U.conj().T, spec, grid).values)
    v0, v = frames[0], frames[-1]
    return frames, abs(np.dot(trace_w, v - v0)), abs(purity(v) - purity(v0))


def _evolve_against_expm(system, side, t_final, dt, n_frames, times, tol):
    desc = parse_system(system)
    spec, grid = KernelSpec(side, desc), default_grid(desc, side)
    d = dimension(desc)
    rho = _hermitian(d, 21) @ _hermitian(d, 21)
    rho /= np.trace(rho)
    H = _hermitian(d, 22)
    res = evolve(phase_function(rho, spec, grid), phase_function(H, spec, grid), t_final, dt,
                 n_frames=n_frames)
    frames, trace_drift, purity_drift = _expm_frames(rho, H, times, spec, grid)
    np.testing.assert_allclose(res.times, times, rtol=1e-15, atol=0)
    assert len(res.frames) == len(frames)
    for got, want in zip(res.frames, frames):
        assert np.max(np.abs(got - want)) <= tol
    assert np.max(np.abs(res.final.values - frames[-1])) <= tol
    assert abs(res.trace_drift - trace_drift) <= tol
    assert abs(res.purity_drift - purity_drift) <= tol


@pytest.mark.parametrize("system, side", [
    ("su:2:1", "wigner"), ("su:3:1", "weyl"), ("hw:6", "wigner"), ("hw:6", "weyl"),
    ("su:2:1*su:2:1", "weyl"), ("su:2:1*hw:3", "wigner"),
])
def test_evolve_matches_the_expm_oracle(system, side):
    _evolve_against_expm(system, side, 0.05, 0.01, 2, [0.0, 0.03, 0.05], 1e-12)


def test_evolve_matches_the_expm_oracle_at_a_billion_frame_steps():
    """t_final / dt = 1e9: the frames cost what three frames cost, not 1e9 steps."""
    _evolve_against_expm("su:2:1*hw:3", "wigner", 10.0, 1e-8, 3,
                         [0.0, 3.33333334, 6.66666667, 10.0], 1e-11)


def test_evolve_transform_count_does_not_grow_with_the_steps(monkeypatch):
    desc = SUN(2, 2)
    spec, grid = KernelSpec("weyl", desc), default_grid(desc, "weyl")
    f_rho = phase_function(np.diag([1.0, 0.0, 0.0]), spec, grid)
    f_H = phase_function(_hermitian(3, 23), spec, grid)
    calls = []
    for name in ("_forward", "_kernel_sum"):
        real = getattr(transforms_module, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(transforms_module, name, counted)
    counts = []
    for n_steps in (2, 200):
        calls.clear()
        evolve(f_rho, f_H, n_steps * 0.01, 0.01, n_frames=2)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert counts[0].count("_kernel_sum") == 1


@pytest.mark.parametrize("system", ["su:2:1*su:2:1", "su:2:1*hw:3"])
def test_verify_checks_composite_covariance_per_factor(system):
    """(V1 (x) V2)(K1 (x) K2)(V1 (x) V2)^dagger is (V1 K1 V1^dagger) (x) (V2 K2 V2^dagger), so
    a composite's Wigner report lists covariance, from its factors' probes, and passes."""
    report = verify_stratonovich(parse_system(system), "wigner")
    assert report.passed, report.as_dict()
    cov = {c.name: c for c in report.conditions}["covariance"]
    assert cov.residual < 1e-12 and cov.tolerance == 1e-10
    assert set(report.as_dict()) == {"system", "side", "rotation", "passed", "conditions"}


def test_verify_composite_covariance_fails_on_a_broken_factor_kernel(monkeypatch):
    """A non-covariant term added to the su:2:1 factor's kernel fails the composite's check."""
    real = transforms_module.kernel_at

    def broken(spec, point):
        K = real(spec, point)
        return K + 1e-6 * np.diag(np.arange(len(K)) == 0) if spec.system == SUN(2, 1) else K

    monkeypatch.setattr(transforms_module, "kernel_at", broken)
    report = verify_stratonovich(parse_system("su:2:1*hw:3"), "wigner")
    failed = [c.name for c in report.conditions if not c.passed]
    assert failed == ["covariance"] and not report.passed


@pytest.mark.parametrize("system, side", [("su:2:1", "wigner"), ("su:2:2", "weyl"),
                                          ("hw:8", "wigner"), ("su:2:1*hw:3", "wigner")])
def test_verify_reconstructs_once_per_report(system, side, monkeypatch):
    """The probes and the unit symbol share one reconstruction; no per-probe transform is left."""
    calls = []
    for name in ("_reconstructed", "phase_function", "reconstruct"):
        real = getattr(transforms_module, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(transforms_module, name, counted)
    assert verify_stratonovich(parse_system(system), side).passed
    assert calls == ["_reconstructed"]


def test_evolve_validates_steps():
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    f = phase_function(np.eye(2) / 2.0, spec, grid)
    with pytest.raises(ValueError):
        evolve(f, f, 1.0, -0.1)


@pytest.mark.parametrize("t_final, dt, steps", [(0.025, 0.01, 3), (0.02, 0.01, 2),
                                                (0.03, 0.01, 3), (0.004, 0.01, 1)])
def test_evolve_lands_on_t_final_in_steps_no_longer_than_dt(t_final, dt, steps):
    """A t_final that is no multiple of dt takes equal shorter steps; a multiple keeps its count."""
    desc = SUN(2, 1)
    spec, grid = KernelSpec("wigner", desc), cp_grid(desc)
    from wignerweyl import build_generators

    H = np.asarray(build_generators(2, 1)[0])
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    res = evolve(phase_function(rho0, spec, grid), phase_function(H, spec, grid), t_final, dt,
                 n_frames=100)
    assert len(res.times) == steps + 1 and res.times[-1] == t_final
    assert np.max(np.diff(res.times)) <= dt * (1 + 1e-12)
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * w * t_final)) @ V.conj().T
    oracle = phase_function(U @ rho0 @ U.conj().T, spec, grid)
    assert np.max(np.abs(res.final.values - oracle.values)) < 1e-12


@pytest.mark.parametrize("t_final, dt", [(0.02, math.inf), (0.02, math.nan), (math.nan, 0.01),
                                         (math.inf, 0.01), (1e300, 1e-300)])
def test_evolve_rejects_a_non_finite_time_before_any_transform(t_final, dt, monkeypatch):
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    f = phase_function(np.eye(2) / 2.0, spec, cp_grid(desc))
    for name in ("phase_function", "_forward", "_reconstructed"):
        monkeypatch.setattr(transforms_module, name, None)
    with pytest.raises(ValueError, match="finite dt"):
        evolve(f, f, t_final, dt)


def test_evolve_rejects_a_negative_frame_count(monkeypatch):
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    f = phase_function(np.eye(2) / 2.0, spec, grid)
    # fail before any transform
    for name in ("phase_function", "_forward", "_reconstructed"):
        monkeypatch.setattr(transforms_module, name, None)
    with pytest.raises(ValueError, match="frame count"):
        evolve(f, f, 0.1, 0.01, n_frames=-3)


def test_evolve_refuses_frames_past_the_node_limit_before_any_work():
    """--frames 1e9 at t_final / dt = 1e9 is counted, not listed, and refused before any piece."""
    desc = SUN(2, 1)
    spec, grid = KernelSpec("wigner", desc), cp_grid(desc)
    f = PhaseFunction(spec, grid, np.zeros(grid.n_nodes))
    with pytest.raises(OverflowError, match="--frames or raise --dt") as err:
        evolve(f, f, 1e7, 1e-2, n_frames=10**9)
    assert f"{10**9 + 1} frames of {grid.n_nodes} nodes" in str(err.value)
    assert grid not in kernels_module._PIECE_CACHE


def test_evolve_rejects_a_non_hermitian_hamiltonian(monkeypatch):
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    f_rho = phase_function(np.eye(2) / 2.0, spec, grid)
    f_H = phase_function(np.array([[0.0, 1.0], [0.0, 0.0]]), spec, grid)
    # fail before any forward transform
    monkeypatch.setattr(transforms_module, "phase_function", None)
    monkeypatch.setattr(transforms_module, "_forward", None)
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(f_rho, f_H, 0.1, 0.01)


def test_verify_stratonovich_wigner_passes():
    report = verify_stratonovich(SUN(2, 1), "wigner")
    assert report.passed
    names = [c.name for c in report.conditions]
    assert names == [
        "linear_invertibility",
        "reality",
        "kernel_normalization",
        "standardization",
        "traciality",
        "covariance",
    ]
    assert all(c.residual < 1e-10 for c in report.conditions)
    json.dumps(report.as_dict())  # must be plain-JSON serializable


def test_verify_stratonovich_weyl_passes():
    report = verify_stratonovich(SUN(2, 2), "weyl")
    assert report.passed
    assert [c.name for c in report.conditions] == ["completeness", "origin_trace"]


def test_verify_stratonovich_hw_within_truncation_tolerance():
    # the default plane rule is exact, so every condition gates at 1e-10
    report = verify_stratonovich(HW(10), "wigner")
    assert report.passed
    assert [c.tolerance for c in report.conditions] == [1e-10] * 6
    assert report.conditions[-1].name == "covariance"


def test_verify_stratonovich_hw_window_gates_at_truncation_tolerance():
    report = verify_stratonovich(HW(10), "wigner", hw_grid(HW(10), math.sqrt(10) + 3, 136))
    assert report.passed  # the window's tolerance 1e-4 absorbs the domain tail
    # the padded covariance probe has no domain tail
    assert [c.tolerance for c in report.conditions] == [1e-4] * 5 + [1e-10]
    assert report.conditions[-1].name == "covariance"


@pytest.mark.parametrize("n_max", [4, 8])
def test_verify_hw_covariance_holds_below_the_cutoff(n_max):
    report = verify_stratonovich(HW(n_max), "wigner")
    assert report.passed
    cov = {c.name: c.residual for c in report.conditions}["covariance"]
    assert cov < 1e-12


@pytest.mark.parametrize("desc", [SUN(3, 2), SUN(3, 3)])
def test_verify_su3_wigner_checks_every_condition(desc):
    report = verify_stratonovich(desc, "wigner")
    assert report.passed
    assert all(c.tolerance == 1e-10 for c in report.conditions)
    cov = {c.name: c.residual for c in report.conditions}["covariance"]
    assert cov < 1e-13


@pytest.mark.parametrize("system", ["su:2:1", "su:2:5", "su:3:1", "su:3:2", "su:4:1", "su:4:2",
                                    "su:4:3", "su:5:1", "su:6:1", "su:7:1"])
def test_verify_covariance_on_every_sun(system):
    """The CP chart read back from the rotated fundamental column holds for every N."""
    desc = parse_system(system)
    report = verify_stratonovich(desc, "wigner")
    assert report.passed
    cov = {c.name: c.residual for c in report.conditions}["covariance"]
    assert cov < 1e-13


def test_compose_cp_point_inverts_the_chart():
    """The composed point's chart rotation carries e_N to U(v) U(omega) e_N, up to a phase."""
    from wignerweyl.rotations import euler_angle_count

    rng = np.random.default_rng(3)
    for N in range(2, 8):
        fund = SUN(N, 1)
        n_pairs, n_cartan = euler_angle_count(N)
        v = EulerPoint(tuple(rng.uniform(0, 2 * math.pi, n_pairs)),
                       tuple(rng.uniform(0, 0.5 * math.pi, n_pairs)),
                       tuple(rng.uniform(0, 2 * math.pi, n_cartan)))
        omega = CPPoint(tuple(rng.uniform(0, 2 * math.pi, N - 1)),
                        tuple(rng.uniform(0.1, 0.5 * math.pi - 0.1, N - 1)))
        got = transforms_module._compose_cp_point(fund, v, omega)
        assert all(0.0 <= t <= 0.5 * math.pi for t in got.theta)
        psi = euler_rotation(fund, v) @ oracles.cp_rotation(fund, omega.phi, omega.theta)[:, -1]
        chi = oracles.cp_rotation(fund, got.phi, got.theta)[:, -1]
        assert abs(abs(np.vdot(chi, psi)) - 1.0) < 1e-14, N


def test_verify_arecchi_negative_control():
    # the two-angle rotation family is not informationally complete
    report = verify_stratonovich(SUN(2, 1), "weyl", rotation="arecchi")
    assert not report.passed
    completeness = report.conditions[0]
    assert completeness.name == "completeness"
    assert completeness.residual >= 0.1


# Gauss-Laguerre radii of the default plane rule: d on the Weyl side, and on
# the Wigner side as many as the single-kernel moments need
_PLANE_RADII = {4: 22, 8: 28, 12: 34, 16: 39, 20: 44, 30: 56, 40: 68}


def test_default_grid_shapes():
    for n, radii in _PLANE_RADII.items():
        gw, gv = default_grid(HW(n), "wigner"), default_grid(HW(n), "weyl")
        assert gw.shape == (radii, 2 * n - 1) and gv.shape == (n, 2 * n - 1)
        for g in (gw, gv):
            assert g.column_names == ("re", "im") and g.exactness == "pairs"
            assert g.raw_volume == math.inf
    assert default_grid(HW(20), "wigner").n_nodes == 1716
    # the square window is chosen by a resolution alone or with a radius
    assert default_grid(HW(9), "wigner", 40).axes[0].hi == 6.0
    assert default_grid(HW(9), "weyl", 40, 4.0).shape == (40, 40)
    with pytest.raises(ValueError, match="--grid-res"):
        default_grid(HW(9), "wigner", radius=4.0)
    comp = Composite((SUN(2, 1), HW(6)))
    gc = default_grid(comp, "wigner")
    assert gc.manifold == "PRODUCT"
    assert gc.column_names == ("f1_phi1", "f1_theta1", "f2_re", "f2_im")


@pytest.mark.parametrize("n", sorted(_PLANE_RADII))
def test_plane_rule_integrates_single_kernels_exactly(n):
    """sum w K = I and int W = Tr on the Wigner side, to 1e-12 with O(1) probes."""
    desc, spec = HW(n), KernelSpec("wigner", HW(n))
    grid = default_grid(desc, "wigner")
    ksum = reconstruct(PhaseFunction(spec, grid, np.ones(grid.n_nodes)))
    assert np.max(np.abs(ksum - np.eye(n))) < 1e-12
    A = _hermitian(n, 41) / n
    assert abs(phase_function(A, spec, grid).integral() - np.trace(A)) < 1e-12


@pytest.mark.parametrize("n", sorted(_PLANE_RADII))
@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_plane_rule_roundtrip_is_exact(n, side):
    spec, grid = KernelSpec(side, HW(n)), default_grid(HW(n), side)
    A = _hermitian(n, 42) / n
    assert np.max(np.abs(reconstruct(phase_function(A, spec, grid)) - A)) < 1e-12


@pytest.mark.parametrize("n", sorted(set(_PLANE_RADII.values()) | {4, 12}))
def test_gauss_laguerre_rule_matches_scipy(n):
    from scipy.special import roots_laguerre

    from wignerweyl.measures import _plane_radii

    x, W = _plane_radii(n, "weyl")  # the Weyl side takes n radii
    xs, ws = roots_laguerre(n)
    assert np.max(np.abs(x - xs) / xs) < 1e-12
    assert np.max(np.abs(W * np.exp(-x) - ws) / ws) < 1e-12


def test_plane_rule_refuses_radii_past_its_range():
    # 380 Weyl radii reach u = 1480, where e^(-u/2) is no longer a normal double
    with pytest.raises(OverflowError, match="u = 1400"):
        default_grid(HW(380), "weyl")


def test_plane_rule_wigner_radii_hold_the_single_kernel_moments_with_margin():
    """int e^(-u/2) L_j(u) du = 2 (-1)^j, j < d, to half of 1e-14 d on every Wigner rule."""
    from wignerweyl.measures import _plane_radii

    for d in list(range(2, 41)) + [60, 100, 200, 310]:
        u, W = _plane_radii(d, "wigner")
        assert len(u) == math.ceil(d + 3.7 * d**0.4 + 11.3)
        miss = np.abs(oracles.laguerre_functions(d - 1, u) @ W - 2.0 * (-1.0) ** np.arange(d)).max()
        assert miss < 0.5e-14 * d, d
    with pytest.raises(OverflowError, match="u = 1400"):
        _plane_radii(311, "wigner")


def test_plane_rule_is_cached_read_only():
    from wignerweyl.measures import _plane_radii

    u, W = _plane_radii(7, "wigner")
    assert _plane_radii(7, "wigner")[0] is u
    assert not u.flags.writeable and not W.flags.writeable


_DEFAULT_ORACLE_SYSTEMS = ["hw:4", "hw:12", "su:2:1*hw:3", "su:2:1", "su:2:1*su:2:1"]


@pytest.mark.parametrize("system", _DEFAULT_ORACLE_SYSTEMS)
@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_symbols_at_grid_rows_equals_phase_function_on_default_grids(system, side):
    desc = parse_system(system)
    spec, grid = KernelSpec(side, desc), default_grid(desc, side)
    A = _hermitian(dimension(desc), 43)
    got = symbols_at(A, spec, grid.coords())
    assert np.max(np.abs(got - phase_function(A, spec, grid).values)) < 1e-12


@pytest.mark.parametrize("system", _DEFAULT_ORACLE_SYSTEMS)
@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_kernel_stack_equals_kernel_at_on_default_grids(system, side):
    """The stack, the grid's pieces multiplied out, against kernel_at's rows and the oracle."""
    desc = parse_system(system)
    spec, grid = KernelSpec(side, desc), default_grid(desc, side)
    K = kernel_stack(spec, grid)
    for i in range(0, grid.n_nodes, 7):
        assert np.max(np.abs(K[i] - kernel_at(spec, grid.point(i)))) < 1e-13, i
        assert np.max(np.abs(K[i] - oracles.kernel(spec, grid.point(i)))) < 1e-13, i


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_star_product_literal_path_agrees_on_default_plane_grids(n, side):
    spec, grid = KernelSpec(side, HW(n)), default_grid(HW(n), side)
    A, B = _hermitian(n, 44) / n, _hermitian(n, 45) / n
    fA, fB = phase_function(A, spec, grid), phase_function(B, spec, grid)
    literal = oracles.star_product(fA, fB)
    assert np.max(np.abs(literal.values - star_product(fA, fB).values)) < 1e-12
    assert np.max(np.abs(reconstruct(literal) - A @ B)) < 1e-12


def test_kernel_grid_manifold_mismatch_rejected():
    desc = SUN(2, 1)
    with pytest.raises(ValueError):
        phase_function(np.eye(2), KernelSpec("weyl", desc), cp_grid(desc))
    with pytest.raises(ValueError):
        phase_function(np.eye(2), KernelSpec("wigner", desc), sun_grid(desc))


# ---------------------------------------------------------------------------
# split-chain contractions against the kernel-stack oracle


def _truncated(grid, k):
    """The grid on the first k nodes of every axis: a small tensor grid, not an exact rule."""
    if grid.factors:
        return product_grid([_truncated(g, k) for g in grid.factors])
    axes = tuple(replace(ax, nodes=ax.nodes[:k].copy(), weights=ax.weights[:k].copy())
                 for ax in grid.axes)
    return replace(grid, axes=axes, _weights=None, _coords=None)


def _check_against_stack(spec, grid, seed=0):
    """phase_function and reconstruct equal the contractions of the oracle's kernel stack."""
    rng = np.random.default_rng(seed)
    d = dimension(spec.system)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    K = oracles.kernel_stack(spec, grid)
    got = phase_function(A, spec, grid).values
    assert np.max(np.abs(got - np.einsum("nij,ji->n", K, A))) < 1e-12
    vals = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    dual = K if spec.side == "wigner" else np.conj(np.swapaxes(K, 1, 2))
    want = np.einsum("n,nij->ij", grid.weights() * vals, dual)
    assert np.max(np.abs(reconstruct(PhaseFunction(spec, grid, vals)) - want)) < 1e-12


_SU21_HW3 = Composite((SUN(2, 1), HW(3)))
_THREE = Composite((SUN(2, 1), HW(3), SUN(2, 1)))
ORACLE_CASES = {
    "su23-wigner": (KernelSpec("wigner", SUN(2, 3)), lambda: cp_grid(SUN(2, 3))),
    "su23-weyl": (KernelSpec("weyl", SUN(2, 3)), lambda: sun_grid(SUN(2, 3))),
    "su22-arecchi": (KernelSpec("weyl", SUN(2, 2), "arecchi"), lambda: cp_grid(SUN(2, 2))),
    "su31-wigner": (KernelSpec("wigner", SUN(3, 1)), lambda: cp_grid(SUN(3, 1))),
    "su31-weyl": (KernelSpec("weyl", SUN(3, 1)), lambda: sun_grid(SUN(3, 1))),
    "su41-wigner": (KernelSpec("wigner", SUN(4, 1)), lambda: _truncated(cp_grid(SUN(4, 1)), 3)),
    "hw5-wigner": (KernelSpec("wigner", HW(5)), lambda: hw_grid(HW(5), 3.0, 12)),
    "hw5-weyl": (KernelSpec("weyl", HW(5)), lambda: hw_grid(HW(5), 4.0, 12)),
    "su21*su22-wigner": (KernelSpec("wigner", Composite((SUN(2, 1), SUN(2, 2)))),
                         lambda: default_grid(Composite((SUN(2, 1), SUN(2, 2))), "wigner")),
    "su21*su22-weyl": (KernelSpec("weyl", Composite((SUN(2, 1), SUN(2, 2)))),
                       lambda: _truncated(default_grid(Composite((SUN(2, 1), SUN(2, 2))), "weyl"),
                                          4)),
    "su21*hw3-wigner": (KernelSpec("wigner", _SU21_HW3),
                        lambda: product_grid([cp_grid(SUN(2, 1)), hw_grid(HW(3), 2.5, 8)])),
    "su21*hw3-weyl": (KernelSpec("weyl", _SU21_HW3),
                      lambda: product_grid([sun_grid(SUN(2, 1)), hw_grid(HW(3), 3.0, 6)])),
    "su21*hw3*su21-wigner": (KernelSpec("wigner", _THREE), lambda: product_grid(
        [cp_grid(SUN(2, 1)), hw_grid(HW(3), 2.5, 4), cp_grid(SUN(2, 1))])),
    "su21*hw3*su21-weyl": (KernelSpec("weyl", _THREE),
                           lambda: _truncated(default_grid(_THREE, "weyl"), 3)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_split_transforms_match_kernel_stack(case):
    spec, make_grid = ORACLE_CASES[case]
    _check_against_stack(spec, make_grid())


@pytest.mark.parametrize("case", ["su22-arecchi", "su31-weyl", "hw5-wigner", "su21*hw3-weyl"])
def test_split_transforms_match_kernel_stack_on_shifted_grid(case):
    spec, make_grid = ORACLE_CASES[case]
    grid = make_grid()
    shift = np.random.default_rng(3).uniform(0.1, 0.7, len(grid.axes))
    _check_against_stack(spec, _shifted_grid(grid, shift), seed=1)


def test_transforms_never_build_the_kernel_stack(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel_stack called")

    monkeypatch.setattr(kernels_module, "kernel_stack", refuse)
    for desc, side in [(SUN(2, 2), "wigner"), (SUN(2, 1), "weyl"), (_SU21_HW3, "wigner")]:
        spec, grid = KernelSpec(side, desc), default_grid(desc, side)
        d = dimension(desc)
        A, H = _hermitian(d, 1), _hermitian(d, 2)
        fA, fH = phase_function(A, spec, grid), phase_function(H, spec, grid)
        assert np.max(np.abs(reconstruct(star_product(fA, fH)) - A @ H)) < 1e-8
        evolve(fA, fH, t_final=0.02, dt=0.01)
        verify_stratonovich(desc, side, grid)


@pytest.mark.parametrize("system, side", [("su:3:2", "weyl"), ("su:2:1*hw:8", "wigner")])
def test_default_grid_roundtrip_without_kernel_stack(system, side):
    desc = parse_system(system)
    A = _hermitian(dimension(desc), 5)
    back = reconstruct(phase_function(A, KernelSpec(side, desc), default_grid(desc, side)))
    assert np.max(np.abs(back - A)) < (1e-11 if side == "weyl" else 1e-8)


def _check_routes(pieces, K, w, B, rng):
    """_forward on B operators and _kernel_sum on B weighted coefficient rows against a stack."""
    d = K.shape[-1]
    A = rng.standard_normal((B, d, d)) + 1j * rng.standard_normal((B, d, d))
    got = transforms_module._forward(pieces, A)
    assert np.max(np.abs(got - np.einsum("nij,bji->bn", K, A))) < 1e-12
    C = w * (rng.standard_normal((B, len(K))) + 1j * rng.standard_normal((B, len(K))))
    got = transforms_module._kernel_sum(pieces, C)
    assert np.max(np.abs(got - np.einsum("bn,nij->bij", C, K))) < 1e-12


def _check_batch_against_stack(spec, grid, B, seed=0):
    """_forward on B operators and _kernel_sum on B rows equal the oracle stack's contractions."""
    _check_routes(kernels_module.kernel_pieces(spec, grid), oracles.kernel_stack(spec, grid),
                  grid.weights(), B, np.random.default_rng(seed))


@pytest.mark.parametrize("side", ["wigner", "weyl"])
@pytest.mark.parametrize("resolution", [11, 12])
@pytest.mark.parametrize("B", [1, 2, 40])
def test_oscillator_routes_match_kernel_stack(side, resolution, B):
    """The Hermite-Gauss contraction of the window pieces, for one operator and for batches."""
    spec, grid = KernelSpec(side, HW(5)), hw_grid(HW(5), 3.0, resolution)
    _check_batch_against_stack(spec, grid, B)


_WINDOWS = {"hw:2": (2.5, 7), "hw:5": (3.0, 12), "hw:12": (5.0, 21)}


@pytest.mark.parametrize("system", sorted(_WINDOWS))
@pytest.mark.parametrize("side", ["wigner", "weyl"])
@pytest.mark.parametrize("shifted", [False, True], ids=["square", "shifted"])
def test_window_pieces_match_kernel_stack(system, side, shifted):
    """Square windows contract through Hermite-function tables; the oracle's closed form at the
    grid's (re, im) rows is the reference.

    The shifted copy moves the axes by different amounts, so h(s x) and h(s y)
    are tables of different nodes.
    """
    desc = parse_system(system)
    grid = hw_grid(desc, *_WINDOWS[system])
    if shifted:
        grid = _shifted_grid(grid, [0.31, -0.17])
    spec = KernelSpec(side, desc)
    (p,) = kernels_module.kernel_pieces(spec, grid)
    assert isinstance(p, kernels_module.Window)
    assert not np.array_equal(p.hx, p.hy) if shifted else np.array_equal(p.hx, p.hy)
    K, w, rng = oracles.kernel_stack(spec, grid), grid.weights(), np.random.default_rng(2)
    for B in (1, 3, 40):
        _check_routes((p,), K, w, B, rng)
    assert np.max(np.abs(p.stack(5, 23) - K[5:23])) < 1e-12


@pytest.mark.parametrize("spec, make_grid", [
    (KernelSpec("wigner", SUN(3, 1)), lambda: cp_grid(SUN(3, 1))),
    (KernelSpec("weyl", SUN(2, 2)), lambda: sun_grid(SUN(2, 2))),
], ids=["su31-wigner", "su22-weyl"])
@pytest.mark.parametrize("B", [1, 200])
def test_split_piece_routes_match_kernel_stack(spec, make_grid, B):
    grid = make_grid()
    (p,) = kernels_module.kernel_pieces(spec, grid)
    assert transforms_module._pieces_dense(p, B) == (B > len(p.right))
    _check_batch_against_stack(spec, grid, B)


@pytest.mark.parametrize("system, side, split", [
    ("su:3:1", "weyl", (27, 12)), ("su:2:3", "weyl", (5, 10)), ("su:3:1", "wigner", (6, 6)),
])
def test_split_piece_routes_at_evolve_batch_sizes(system, side, split):
    """Splits, uneven ones among them, at evolve's batch sizes and on both sides of the dense
    rule."""
    desc = parse_system(system)
    spec, grid = KernelSpec(side, desc), default_grid(desc, side)
    (p,) = kernels_module.kernel_pieces(spec, grid)
    assert (len(p.left), len(p.right)) == split
    K, w = oracles.kernel_stack(spec, grid), grid.weights()
    rng = np.random.default_rng(1)
    for B in (1, 2, 3, len(p.right), len(p.right) + 1):
        assert transforms_module._pieces_dense(p, B) == (B > len(p.right))
        _check_routes((p,), K, w, B, rng)


# explicit resolutions large enough that node-sized arrays dominate the fixed
# per-piece temporaries: 117,649, 200,000 and 65,536 nodes
_NODE_DOMINATED = {
    ("su:4:1", "wigner"): lambda desc: cp_grid(desc, 7),
    ("su:3:1", "weyl"): lambda desc: sun_grid(desc, 4),
    ("hw:6", "wigner"): lambda desc: hw_grid(desc, 5.5, 256),
}


@pytest.mark.parametrize("system, side", [("su:4:1", "wigner"), ("su:3:1", "weyl"),
                                          ("hw:6", "wigner")])
def test_batched_contractions_hold_no_node_sized_temporaries(system, side, peak):
    """At B = 3 the forward map allocates little beyond its (B, n_nodes) output and the
    kernel sum a fraction of its input: no node-sized transposed copy (tracemalloc sees
    every numpy allocation)."""
    desc = parse_system(system)
    grid = _NODE_DOMINATED[system, side](desc)
    pieces = kernels_module.kernel_pieces(KernelSpec(side, desc), grid)
    B, d, n = 3, dimension(desc), grid.n_nodes
    rng = np.random.default_rng(0)
    A = rng.standard_normal((B, d, d)) + 1j * rng.standard_normal((B, d, d))
    C = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))

    assert peak(lambda: transforms_module._forward(pieces, A)) <= 1.25 * B * n * 16
    assert peak(lambda: transforms_module._kernel_sum(pieces, C)) <= C.nbytes / 4


@pytest.mark.parametrize(
    "system", ["hw:3*su:2:1", "su:2:1*hw:3", "hw:2*su:2:1", "su:2:1*su:2:2", "su:2:2*su:2:1"])
@pytest.mark.parametrize("side", ["wigner", "weyl"])
@pytest.mark.parametrize("B", [1, 3])
def test_composite_oscillator_batches_match_kernel_stack(system, side, B, monkeypatch):
    """Each order of the two-stage contraction, the oscillator first, last or absent.

    Where the rest does not take the batch (all but hw:3*su:2:1 on the Weyl
    side, su:2:1*hw:3 on the Wigner side and su:2:2*su:2:1), the first factor
    is the second stage and its kernels, SU(N) or oscillator, are formed in
    blocks.
    """
    desc = parse_system(system)
    # a budget of 7 kernels of the first factor forces several blocks
    d1 = dimension(desc.factors[0])
    monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 7 * 16 * d1 * d1)
    grid = product_grid([hw_grid(f, 2.5, 9) if isinstance(f, HW) else default_grid(f, side)
                         for f in desc.factors])
    first, second = grid.factors
    e = dimension(second.system)
    rest_first = {"wigner": "su:2:1*hw:3", "weyl": "hw:3*su:2:1"}[side]
    assert transforms_module._rest_takes_the_batch(d1, first.n_nodes, e, second.n_nodes) == (
        system in (rest_first, "su:2:2*su:2:1"))
    _check_batch_against_stack(KernelSpec(side, desc), grid, B)


def test_symbols_at_rejects_non_finite_rows():
    spec = KernelSpec("wigner", HW(4))
    rows = np.array([[0.1, 0.2], [0.3, np.inf], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="row 1 is not finite"):
        transforms_module.symbols_at(np.eye(4), spec, rows)


@pytest.mark.parametrize("call, message", [
    (lambda: transforms_module.symbols_at(np.eye(4), KernelSpec("wigner", HW(4)), [0.1, 0.2]),
     r"coords must be a 2-D table of rows, got shape \(2,\)"),
    (lambda: generalized_fourier(
        phase_function(np.eye(2), KernelSpec("wigner", SUN(2, 1)), cp_grid(SUN(2, 1))),
        KernelSpec("weyl", SUN(2, 2)), sun_grid(SUN(2, 2))),
     "generalized_fourier bridges symbol families of one system"),
], ids=["symbols_at-1d-coords", "generalized_fourier-across-systems"])
def test_transform_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("n_max", [2, 5, 12])
def test_symbols_at_oscillator_rows_match_the_closed_form(n_max, monkeypatch):
    """Oscillator rows off a mesh against the oracle's Laguerre closed form, in several blocks.

    An odd 9 x 9 mesh holds the origin, the axes and the diagonals, whose
    radii repeat up to eight times, and random rows follow; the table is no
    mesh, so it takes the partial-trace route.  A budget of 7 rows per block
    takes the rows at most 7 at a time, every row's phases once, and each
    block's radial factors once per distinct radius in it.
    """
    x = np.linspace(-2.0, 2.0, 9)
    rng = np.random.default_rng(n_max)
    rows = np.concatenate([np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2),
                           rng.uniform(-3.0, 3.0, (40, 2))])
    alphas = rows[:, 0] + 1j * rows[:, 1]
    monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 7 * 16 * (1 + n_max * n_max))
    calls = {"_radial": [], "_phases": []}
    for name, at in (("_radial", 1), ("_phases", 0)):  # the position of the points
        fn, seen = getattr(kernels_module, name), calls[name]
        monkeypatch.setattr(kernels_module, name,
                            lambda *a, fn=fn, seen=seen, at=at: seen.append(a[at]) or fn(*a))
    A = _hermitian(n_max, 7) + 1j * _hermitian(n_max, 8)
    for side in ("wigner", "weyl"):
        for seen in calls.values():
            seen.clear()
        K = oracles.hw_kernels(n_max, alphas, side)
        got = symbols_at(A, KernelSpec(side, HW(n_max)), rows)
        assert all(len(a) <= 7 for a in calls["_phases"])
        assert np.array_equal(np.sort(np.concatenate(calls["_phases"])), np.sort(np.angle(alphas)))
        assert len(calls["_radial"]) > 1
        assert all(len(np.unique(r)) == len(r) for r in calls["_radial"])
        assert np.array_equal(np.unique(np.concatenate(calls["_radial"])),
                              np.unique(np.abs(alphas)))
        assert np.max(np.abs(got - np.einsum("nij,ji->n", K, A))) < 1e-12


def test_oscillator_row_route_memory_grows_by_the_row_not_the_radius(monkeypatch, peak):
    """Past the blocks, each added row costs a few row-sized numbers, not 2d - 1 coefficients.

    The partial traces form a block's radial factors, phases and kernels and
    drop them before the next block's; random rows are all distinct radii.
    """
    monkeypatch.setattr(kernels_module, "BLOCK_BYTES", 1_000_000)
    spec, rng = KernelSpec("wigner", HW(20)), np.random.default_rng(11)
    A = _hermitian(20, 3)
    small, large = (rng.uniform(-3.0, 3.0, (n, 2)) for n in (10_000, 40_000))
    growth = peak(lambda: symbols_at(A, spec, large)) - peak(lambda: symbols_at(A, spec, small))
    assert growth / 30_000 < 128


def test_oscillator_rows_peak_at_a_few_blocks(peak):
    """20,000 random hw:40 rows, all distinct radii, peak under three ``BLOCK_BYTES``.

    A block holds its radial factors, its kernels and one real gathered copy
    of the factors at once, and the kernels of no earlier block.
    """
    spec, rng = KernelSpec("wigner", HW(40)), np.random.default_rng(12)
    rows = rng.uniform(-3.0, 3.0, (20_000, 2))
    A = _hermitian(40, 4)
    assert peak(lambda: symbols_at(A, spec, rows)) <= 3 * kernels_module.BLOCK_BYTES


@pytest.mark.parametrize("n_max", [5, 12])
@pytest.mark.parametrize("side", ["wigner", "weyl"])
def test_plane_rule_routes_match_kernel_stack(n_max, side):
    """The polar contraction of a plane rule's pieces, for one operator and for batches, against
    the oracle's closed form at the grid's (re, im) rows."""
    spec, grid = KernelSpec(side, HW(n_max)), default_grid(HW(n_max), side)
    (p,) = kernels_module.kernel_pieces(spec, grid)
    assert isinstance(p, kernels_module.Polar) and (len(p.radial), len(p.phases)) == grid.shape
    K, rng = oracles.kernel_stack(spec, grid), np.random.default_rng(3)
    for B in (1, 3, 40):
        _check_routes((p,), K, grid.weights(), B, rng)
    assert np.max(np.abs(p.stack(5, 23) - K[5:23])) < 1e-13


@pytest.mark.parametrize("system, side, rotation, forward, total", [
    ("hw:20", "wigner", "euler", 3, 2.5), ("hw:40", "wigner", "euler", 3, 2.5),
    ("hw:40", "weyl", "euler", 3, 2.5),
    ("su:2:40", "wigner", "euler", 2.25, 2.25), ("su:2:100", "wigner", "euler", 2.25, 2.25),
    ("su:2:40", "weyl", "arecchi", 2.25, 2.25), ("su:2:100", "weyl", "arecchi", 2.25, 2.25),
], ids=["hw:20-wigner", "hw:40-wigner", "hw:40-weyl", "su:2:40-wigner", "su:2:100-wigner",
        "su:2:40-arecchi", "su:2:100-arecchi"])
def test_plane_rule_contractions_hold_one_node_sized_intermediate(system, side, rotation,
                                                                  forward, total, peak):
    """A polar forward map allocates its output and one (n_r, 2d - 1, B) coefficient array,
    and its kernel sum the (n_r, 2d - 1, B) angle sums: no node-sized copy through a
    permutation, on a plane rule (r-major) and on CP^1 (phi-major) alike."""
    spec = KernelSpec(side, parse_system(system), rotation)
    grid = transforms_module._family_grid(spec)
    pieces = kernels_module.kernel_pieces(spec, grid)
    d, n = dimension(spec.system), grid.n_nodes
    rng = np.random.default_rng(0)
    for B in (1, 3):
        A = rng.standard_normal((B, d, d)) + 1j * rng.standard_normal((B, d, d))
        C = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
        assert peak(lambda: transforms_module._forward(pieces, A)) <= forward * B * n * 16
        assert peak(lambda: transforms_module._kernel_sum(pieces, C)) <= total * C.nbytes


def test_su2_200_wigner_round_trip_on_its_default_grid(peak):
    """80,601 nodes through the Polar pieces: 65 MB of radial matrices, where the two split
    stacks took 0.39 GB; building them peaks a few blocks above their own size."""
    desc = SUN(2, 200)
    spec, grid = KernelSpec("wigner", desc), default_grid(desc, "wigner")
    A = _hermitian(201, 9)
    back = reconstruct(phase_function(A, spec, grid))
    assert np.max(np.abs(back - A)) <= 1e-12 * np.max(np.abs(A))
    (p,) = kernels_module.kernel_pieces(spec, grid)
    held = p.radial.nbytes + p.phases.nbytes
    assert held < 70_000_000
    nodes = [ax.nodes for ax in grid.axes]
    assert peak(lambda: kernels_module._split(spec, nodes)) <= held + 3 * kernels_module.BLOCK_BYTES


def test_node_guard_fires_before_any_piece_is_built(monkeypatch):
    """phase_function, reconstruct and evolve check the node count before kernel_pieces."""
    desc = SUN(2, 20)
    spec, grid = KernelSpec("wigner", desc), default_grid(desc, "wigner")
    f = PhaseFunction(spec, grid, np.zeros(grid.n_nodes))
    monkeypatch.setattr(measures_module, "MAX_NODES", grid.n_nodes - 1)
    for call in (lambda: phase_function(np.eye(21), spec, grid), lambda: reconstruct(f),
                 lambda: evolve(f, f, 0.02, 0.01)):
        with pytest.raises(OverflowError, match=f"{grid.n_nodes} nodes"):
            call()
    assert grid not in kernels_module._PIECE_CACHE
