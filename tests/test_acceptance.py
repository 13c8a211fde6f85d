"""Acceptance gate: one test per shipped guarantee, each at its stated
tolerance, each emitting a single pass/fail summary line.

Every reference value here is computed independently of the code under
test: closed forms, exact propagators, eigenvalue traces, or hard-coded
matrices.
"""

import json
import math

import numpy as np
import pytest

from wignerweyl import (
    HW,
    SUN,
    Coherent,
    Composite,
    CompositePoint,
    EulerPoint,
    Fock,
    GHZ,
    HWPoint,
    KernelSpec,
    RandomDensity,
    SpinCoherent,
    ThermalSpec,
    arecchi_rotation,
    build_generators,
    build_state,
    cp_grid,
    default_grid,
    dimension,
    euler_rotation,
    generalized_fourier,
    generator,
    hw_grid,
    partition_function,
    phase_function,
    product_grid,
    reconstruct,
    star_product,
    sun_grid,
    symbol_at,
    symbols_at,
    thermal_mean,
    verify_stratonovich,
    weyl_moments,
)
from wignerweyl.cli import main
from wignerweyl.transforms import evolve

import oracles

s2 = 1.0 / math.sqrt(2.0)
s3 = 1.0 / math.sqrt(3.0)

GELL_MANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[s3, 0, 0], [0, s3, 0], [0, 0, -2 * s3]],
    ],
    dtype=complex,
)


def _hermitian(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def test_criterion_01_generator_orthogonality(criterion):
    worst = 0.0
    for N in (2, 3, 4):
        for M in (1, 2, 3):
            gens = [np.asarray(g) for g in build_generators(N, M)]
            n = len(gens)
            c = 2.0 * M / (N + 1) * math.comb(N + M, M)
            gram = np.array(
                [[np.trace(gens[i] @ gens[j]) for j in range(n)] for i in range(n)]
            )
            worst = max(worst, float(np.max(np.abs(gram - c * np.eye(n)))))
    su3 = [np.asarray(g) for g in build_generators(3, 1)]
    exact = all(np.array_equal(su3[k], GELL_MANN[k]) for k in range(8))
    ok = worst < 1e-10 and exact
    criterion(
        1, "generator trace orthogonality", ok,
        f"max Gram residual {worst:.1e} (tol 1e-10); SU(3) M=1 set "
        f"{'equals' if exact else 'DIFFERS from'} Gell-Mann entrywise",
    )


def test_criterion_02_kernel_condition_suite(criterion):
    systems = [SUN(2, 1), SUN(2, 2), SUN(2, 3), SUN(3, 1)]
    worst_w = 0.0
    worst_c = 0.0
    for desc in systems:
        rep = verify_stratonovich(desc, "wigner")
        worst_w = max(worst_w, max(c.residual for c in rep.conditions))
        rho = build_state(RandomDensity(17), desc)
        grid = default_grid(desc, "weyl")
        back = reconstruct(phase_function(rho, KernelSpec("weyl", desc), grid))
        worst_c = max(worst_c, float(np.linalg.norm(back - rho, 2)))
    ok = worst_w < 1e-10 and worst_c < 1e-10
    criterion(
        2, "kernel condition suite", ok,
        f"worst Wigner condition residual {worst_w:.1e}, worst Weyl completeness "
        f"roundtrip {worst_c:.1e} (tol 1e-10)",
    )


def test_criterion_03_two_angle_negative_control(criterion):
    desc = SUN(2, 1)
    A = np.diag([1.0, -1.0]).astype(complex)  # J(3)
    f_a = phase_function(A, KernelSpec("weyl", desc, "arecchi"), cp_grid(desc))
    err_a = float(np.linalg.norm(reconstruct(f_a) - A, 2))
    f_e = phase_function(A, KernelSpec("weyl", desc), sun_grid(desc))
    err_e = float(np.linalg.norm(reconstruct(f_e) - A, 2))
    ok = err_a >= 0.1 and err_e < 1e-10
    criterion(
        3, "two-angle rotations are not informationally complete", ok,
        f"two-angle reconstruction error {err_a:.3f} (must be >= 0.1), "
        f"full-Euler error {err_e:.1e} (tol 1e-10)",
    )


def test_criterion_04_euler_arecchi_identity(criterion):
    rng = np.random.default_rng(11)
    worst = 0.0
    for M in (1, 2, 3):
        desc = SUN(2, M)
        for _ in range(100):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            theta = rng.uniform(0.0, 0.5 * math.pi)
            U1 = euler_rotation(desc, EulerPoint((phi,), (theta,), (-phi,)))
            U2 = arecchi_rotation(desc, phi, theta)
            worst = max(worst, float(np.linalg.norm(U1 - U2, 2)))
    ok = worst < 1e-10
    criterion(
        4, "U(phi,theta,-phi) = exp(xi J+ - xi* J-) for M in 1..3", ok,
        f"max norm gap over 300 draws {worst:.1e} (tol 1e-10)",
    )


def test_criterion_05_pauli_thermodynamics(criterion):
    desc = SUN(2, 1)
    grid = cp_grid(desc)
    P = [np.asarray(generator(2, 1, k)) for k in (1, 2, 3)]
    dirs = [
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
    ]
    worst_z = 0.0
    for h in dirs:
        H = sum(h[i] * P[i] for i in range(3))
        for beta in (0.1, 1.0, 10.0):
            Z = partition_function(ThermalSpec(H, beta), grid)
            worst_z = max(worst_z, abs(Z - 2.0 * math.cosh(beta)))

    worst_m = 0.0
    for hvec, evec, beta in [
        (0.8 * dirs[0], 1.7 * np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0), 1.3),
        (1.1 * dirs[2], 0.6 * np.array([0.0, 1.0, 0.0]), 0.4),
    ]:
        H = sum(hvec[i] * P[i] for i in range(3))
        A = sum(evec[i] * P[i] for i in range(3))
        got = thermal_mean(A, ThermalSpec(H, beta), grid)
        cos_t = np.dot(evec, hvec) / (np.linalg.norm(evec) * np.linalg.norm(hvec))
        want = -np.linalg.norm(evec) * cos_t * math.tanh(beta * np.linalg.norm(hvec))
        worst_m = max(worst_m, abs(got - want))

    rng = np.random.default_rng(3)
    worst_0 = 0.0
    sweep = [SUN(2, 1), SUN(2, 2), SUN(2, 3), SUN(3, 1), SUN(4, 1), HW(12),
             Composite((SUN(2, 1), SUN(2, 1)))]
    for sys_desc in sweep:
        d = dimension(sys_desc)
        g = default_grid(sys_desc, "wigner")
        Z0 = partition_function(ThermalSpec(_hermitian(d, rng), 0.0), g)
        worst_0 = max(worst_0, abs(Z0 - d))
    comp = Composite((SUN(2, 1), HW(6)))
    g = product_grid([cp_grid(SUN(2, 1)), hw_grid(HW(6), 5.5, 96)])
    Z0 = partition_function(ThermalSpec(_hermitian(dimension(comp), rng), 0.0), g)
    worst_0 = max(worst_0, abs(Z0 - dimension(comp)))

    ok = worst_z < 1e-10 and worst_m < 1e-9 and worst_0 < 1e-8
    criterion(
        5, "Pauli thermodynamics", ok,
        f"|Z - 2cosh(beta|h|)| {worst_z:.1e} (tol 1e-10), magnetization residual "
        f"{worst_m:.1e} (tol 1e-9), |Z(0) - dim| {worst_0:.1e} over 8 systems (tol 1e-8)",
    )


def test_criterion_06_star_product_oracle(criterion):
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    rng = np.random.default_rng(7)
    worst_fast = 0.0
    worst_lit = 0.0
    for _ in range(50):
        A, B = _hermitian(2, rng), _hermitian(2, rng)
        fA = phase_function(A, spec, grid)
        fB = phase_function(B, spec, grid)
        fAB = star_product(fA, fB)
        worst_fast = max(worst_fast, float(np.max(np.abs(reconstruct(fAB) - A @ B))))
        f_lit = oracles.star_product(fA, fB)
        worst_lit = max(worst_lit, float(np.max(np.abs(f_lit.values - fAB.values))))
    ok = worst_fast < 1e-8 and worst_lit < 1e-8
    criterion(
        6, "star product reproduces operator multiplication", ok,
        f"50 random pairs: reconstruct(fA*fB) vs AB {worst_fast:.1e}, literal vs "
        f"fast path {worst_lit:.1e} (tol 1e-8)",
    )


def test_criterion_07_dynamics_oracle(criterion):
    desc = SUN(2, 1)
    spec = KernelSpec("wigner", desc)
    grid = cp_grid(desc)
    H = np.diag([1.0, -1.0]).astype(complex)  # J(3)
    rho0 = build_state(SpinCoherent(0.8, 0.6), desc)
    res = evolve(phase_function(rho0, spec, grid), phase_function(H, spec, grid),
                 1.0, 1e-3)
    U = np.diag(np.exp(-1j * np.diag(H) * 1.0))
    exact = phase_function(U @ rho0 @ U.conj().T, spec, grid)
    sup = float(np.max(np.abs(res.final.values - exact.values)))
    ok = sup < 1e-12 and res.trace_drift < 1e-12 and res.purity_drift < 1e-12
    criterion(
        7, "phase-space dynamics vs exact propagator", ok,
        f"sup error at t=1 {sup:.1e}, trace drift {res.trace_drift:.1e}, purity "
        f"drift {res.purity_drift:.1e} (tol 1e-12)",
    )


def test_criterion_08_truncated_oscillator(criterion, tmp_path, capsys):
    desc = HW(30)
    beta = 0.7 - 0.4j
    rho = build_state(Coherent(beta), desc)
    spec_w = KernelSpec("wigner", desc)
    worst_coh = 0.0
    for x in np.linspace(-1.5, 1.5, 11):
        for y in np.linspace(-1.5, 1.5, 11):
            a = complex(x, y)
            if abs(a) > 1.5:
                continue
            v = symbol_at(rho, spec_w, HWPoint(a))
            worst_coh = max(worst_coh, abs(v - 2.0 * math.exp(-2.0 * abs(a - beta) ** 2)))

    # 89 nodes keeps the default per-unit density on the radius-6 window
    grid6 = hw_grid(desc, 6.0, 89)
    spec_v = KernelSpec("weyl", desc)
    worst_rt = 0.0
    for state in (Coherent(0.9 - 0.5j), Fock(3)):
        r = build_state(state, desc)
        back = reconstruct(phase_function(r, spec_v, grid6))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - r))))

    out = tmp_path / "cat.csv"
    code = main(["figure-data", "--preset", "hw-cat", "--system", "hw:30",
                 "--grid-res", "81", "--radius", "6", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out)
    origin_res = report["origin_residual"]
    rows = len(out.read_text().splitlines()) - 1

    ok = worst_coh < 1e-5 and worst_rt < 1e-4 and origin_res < 1e-6 and rows == 81 * 81
    criterion(
        8, "truncated oscillator at n_max=30", ok,
        f"coherent Wigner vs 2exp(-2|a-b|^2) {worst_coh:.1e} (tol 1e-5), radius-6 "
        f"Weyl roundtrip {worst_rt:.1e} (tol 1e-4), cat data {rows} rows with "
        f"origin residual {origin_res:.1e} (tol 1e-6)",
    )


def test_criterion_09_tensor_vs_collective_kernel(criterion):
    d_big = SUN(2, 5)
    d_ten = Composite(tuple(SUN(2, 1) for _ in range(5)))
    r_big = build_state(GHZ(), d_big)
    r_ten = build_state(GHZ(), d_ten)
    s_big = KernelSpec("weyl", d_big)
    s_ten = KernelSpec("weyl", d_ten)
    worst = 0.0
    n = 0
    for phi in np.linspace(0.0, 2.0 * math.pi, 13):
        for theta in np.linspace(0.0, 0.5 * math.pi, 9):
            p = EulerPoint((phi,), (theta,), (-phi,))
            v1 = symbol_at(r_big, s_big, p)
            v2 = symbol_at(r_ten, s_ten, CompositePoint((p,) * 5))
            worst = max(worst, abs(v1 - v2))
            n += 1
    ok = worst < 1e-10
    criterion(
        9, "five-qubit tensor kernel equals collective kernel on GHZ slice", ok,
        f"max row gap over {n} equal-angle points {worst:.1e} (tol 1e-10)",
    )


def test_criterion_10_fourier_bridge(criterion):
    rng = np.random.default_rng(23)

    desc = SUN(2, 1)
    gw, gv = cp_grid(desc), sun_grid(desc)
    f0 = phase_function(_hermitian(2, rng), KernelSpec("wigner", desc), gw)
    f1 = generalized_fourier(f0, KernelSpec("weyl", desc), gv)
    f2 = generalized_fourier(f1, KernelSpec("wigner", desc), gw)
    err_s = float(np.max(np.abs(f2.values - f0.values)))

    desc = HW(20)
    gw = default_grid(desc, "wigner")
    gv = default_grid(desc, "weyl")
    rho = 0.6 * build_state(Coherent(0.8), desc) + 0.4 * build_state(Fock(2), desc)
    f0 = phase_function(rho, KernelSpec("wigner", desc), gw)
    f1 = generalized_fourier(f0, KernelSpec("weyl", desc), gv)
    f2 = generalized_fourier(f1, KernelSpec("wigner", desc), gw)
    err_h = float(np.max(np.abs(f2.values - f0.values)))

    ok = err_s < 1e-8 and err_h < 1e-10
    criterion(
        10, "Wigner-Weyl-Wigner bridge roundtrip", ok,
        f"spin-1/2 {err_s:.1e} (tol 1e-8), oscillator n_max=20 {err_h:.1e} (tol 1e-10)",
    )


def test_criterion_11_moment_generation(criterion):
    # exact moments of orders 1-4 against closed forms
    worst_val = 0.0
    for M in (1, 2):
        desc = SUN(2, M)
        rho = build_state(RandomDensity(29 + M), desc)
        J3 = np.asarray(generator(2, M, 3))
        for m in range(1, 5):
            got = weyl_moments(rho, desc, (0, 0, m))
            worst_val = max(worst_val, abs(got - np.trace(rho @ np.linalg.matrix_power(J3, m))))

    desc = HW(24)
    beta = 0.6 - 0.3j
    rho = build_state(Coherent(beta), desc)
    for p in range(5):
        for q in range(5 - p):
            want = sum(math.comb(p, k) * math.comb(q, k) * math.factorial(k) * 2.0**-k
                       * beta ** (p - k) * np.conj(beta) ** (q - k)
                       for k in range(min(p, q) + 1))
            worst_val = max(worst_val, abs(weyl_moments(rho, desc, (p, q)) - want))

    # Fornberg's fourth-order third-derivative stencil over Weyl-symbol rows
    # (eta = (-1j)^3) converges to the same closed form under step halving
    stencil = (1 / 8, -1.0, 13 / 8, 0.0, -13 / 8, 1.0, -1 / 8)
    orders = []
    for M in (1, 2):
        desc = SUN(2, M)
        rho = build_state(RandomDensity(29 + M), desc)
        exact = np.trace(rho @ np.linalg.matrix_power(np.asarray(generator(2, M, 3)), 3))
        errs = []
        for h in (0.4, 0.2, 0.1):
            rows = np.zeros((7, 3))
            rows[:, 2] = h * np.arange(-3, 4)
            values = symbols_at(rho, KernelSpec("weyl", desc), rows)
            errs.append(abs(1j * np.dot(stencil, values) / h**3 - exact))
        orders += [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]

    ok = worst_val < 1e-12 and all(3.5 < p < 4.5 for p in orders)
    criterion(
        11, "exact Weyl-symbol moments", ok,
        f"max moment residual over orders 1-4 {worst_val:.1e} (tol 1e-12), third-derivative "
        f"stencil convergence orders {', '.join(f'{p:.2f}' for p in orders)} "
        "(must sit in 3.5..4.5)",
    )
