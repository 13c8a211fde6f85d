"""Kernels: parity operators against a Clebsch-Gordan oracle, kernel_at and the batched
evaluator against the independent constructions of ``oracles``."""

import math
import re
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
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
    KernelSpec,
    arecchi_rotation,
    basis_labels,
    build_generators,
    cp_grid,
    default_grid,
    diagonal_generator,
    dimension,
    euler_rotation,
    format_system,
    hw_grid,
    kernel_at,
    kernel_stack,
    parity,
    parse_system,
    product_grid,
    sun_grid,
    symbols_at,
)
import wignerweyl.kernels as kernels_module
import wignerweyl.measures as measures_module
from wignerweyl.kernels import _factor_specs, _kernels, kernel_pieces

import oracles

_R2, _R3, _R6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)


# ---------------------------------------------------------------------------
# Clebsch-Gordan oracle
#
# The closed factorial sum in exact rational arithmetic: evaluated in floats
# its alternating terms cancel, and the SU(2, 80) multipole parity built on
# it misses Tr Pi = 1 by 1.1e-6.


def _as_two(x: float, what: str) -> int:
    two = 2.0 * x
    if abs(two - round(two)) > 1e-9:
        raise ValueError(f"{what} must be integer or half-integer, got {x}")
    return int(round(two))


@lru_cache(maxsize=None)
def _cg_cached(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    # all arguments are doubled to keep them integral
    if tm1 + tm2 != tM:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        return 0.0

    def f(two_x: int) -> int:
        # (two_x / 2)! for an even, non-negative doubled argument
        return math.factorial(two_x // 2)

    pref = Fraction(
        (tJ + 1) * f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ)
        * f(tj1 + tm1) * f(tj1 - tm1) * f(tj2 + tm2) * f(tj2 - tm2) * f(tJ + tM) * f(tJ - tM),
        f(tj1 + tj2 + tJ + 2),
    )
    k_lo = max(0, (tj2 - tJ - tm1) // 2, (tj1 + tm2 - tJ) // 2)
    k_hi = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = sum(
        Fraction((-1) ** k, f(2 * k) * f(tj1 + tj2 - tJ - 2 * k) * f(tj1 - tm1 - 2 * k)
                 * f(tj2 + tm2 - 2 * k) * f(tJ - tj2 + tm1 + 2 * k) * f(tJ - tj1 - tm2 + 2 * k))
        for k in range(k_lo, k_hi + 1)
    )
    return math.copysign(math.sqrt(pref * total * total), total)


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, J: float, M: float) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Selection-rule violations return 0; non-(half)integer arguments raise.
    """
    args = [
        _as_two(j1, "j1"), _as_two(m1, "m1"), _as_two(j2, "j2"),
        _as_two(m2, "m2"), _as_two(J, "J"), _as_two(M, "M"),
    ]
    for tj, tm, name in ((args[0], args[1], "m1"), (args[2], args[3], "m2"), (args[4], args[5], "M")):
        if (tj + tm) % 2:
            raise ValueError(f"{name} must differ from its j by an integer")
    return _cg_cached(*args)


def multipole_parity(M: int) -> np.ndarray:
    """SU(2, M) parity diagonal: sum_l (2l+1)/(M+1) <j,-n; l,0 | j,-n>, j = M/2.

    Entry i belongs to basis state i, of weight n = (m1 - m2) / 2; the
    lowest-weight state (n = -j) comes last.
    """
    j = 0.5 * M
    return np.array([
        sum((2 * l + 1) / (M + 1) * clebsch_gordan(j, -n, l, 0, j, -n) for l in range(M + 1))
        for n in (0.5 * (m1 - m2) for m1, m2 in basis_labels(2, M))
    ])


# hand-checked table values (Condon-Shortley phases)
CG_TABLE = [
    ((0.5, 0.5, 0.5, -0.5, 1.0, 0.0), 1.0 / _R2),
    ((0.5, 0.5, 0.5, -0.5, 0.0, 0.0), 1.0 / _R2),
    ((0.5, -0.5, 0.5, 0.5, 0.0, 0.0), -1.0 / _R2),
    ((0.5, 0.5, 0.5, 0.5, 1.0, 1.0), 1.0),
    ((1.0, 0.0, 1.0, 0.0, 2.0, 0.0), math.sqrt(2.0 / 3.0)),
    ((1.0, 0.0, 1.0, 0.0, 1.0, 0.0), 0.0),
    ((1.0, 1.0, 1.0, -1.0, 0.0, 0.0), 1.0 / _R3),
    ((1.0, 0.0, 0.5, 0.5, 1.5, 0.5), math.sqrt(2.0 / 3.0)),
    ((1.0, 1.0, 0.5, -0.5, 1.5, 0.5), 1.0 / _R3),
    ((1.0, 1.0, 0.5, -0.5, 0.5, 0.5), math.sqrt(2.0 / 3.0)),
    ((1.0, 0.0, 0.5, 0.5, 0.5, 0.5), -1.0 / _R3),
]


@pytest.mark.parametrize("args,want", CG_TABLE)
def test_clebsch_gordan_table(args, want):
    assert clebsch_gordan(*args) == pytest.approx(want, abs=1e-14)


def test_clebsch_gordan_selection_rules():
    assert clebsch_gordan(1.0, 1.0, 1.0, 1.0, 2.0, 0.0) == 0.0  # m1+m2 != M
    assert clebsch_gordan(1.0, 0.0, 1.0, 0.0, 3.0, 0.0) == 0.0  # J out of range
    assert clebsch_gordan(1.0, 2.0, 1.0, -2.0, 2.0, 0.0) == 0.0  # |m| > j


def test_clebsch_gordan_rejects_malformed_arguments():
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0.3, 0.5, 0.5, 1.0, 0.8)  # not half-integral
    with pytest.raises(ValueError):
        clebsch_gordan(0.5, 0.0, 0.5, 0.5, 1.0, 0.5)  # m1 off the j1 ladder


@settings(max_examples=40, deadline=None)
@given(
    tj1=st.integers(min_value=1, max_value=4),
    tj2=st.integers(min_value=1, max_value=4),
)
def test_clebsch_gordan_column_orthonormality(tj1, tj2):
    """sum_{m1,m2} <j1 m1 j2 m2|J M><j1 m1 j2 m2|J' M'> = delta delta."""
    j1, j2 = tj1 / 2.0, tj2 / 2.0
    Js = [J / 2.0 for J in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)]
    pairs = [
        (J, M / 2.0)
        for J in Js
        for M in range(-int(2 * J), int(2 * J) + 1, 2)
    ]
    m1s = [m / 2.0 for m in range(-tj1, tj1 + 1, 2)]
    m2s = [m / 2.0 for m in range(-tj2, tj2 + 1, 2)]
    for Ja, Ma in pairs:
        for Jb, Mb in pairs:
            s = sum(
                clebsch_gordan(j1, m1, j2, m2, Ja, Ma)
                * clebsch_gordan(j1, m1, j2, m2, Jb, Mb)
                for m1 in m1s
                for m2 in m2s
            )
            want = 1.0 if (Ja, Ma) == (Jb, Mb) else 0.0
            assert abs(s - want) < 1e-12


def test_clebsch_gordan_swap_symmetry():
    for (j1, m1, j2, m2, J, M), _ in CG_TABLE:
        lhs = clebsch_gordan(j1, m1, j2, m2, J, M)
        rhs = (-1.0) ** (j1 + j2 - J) * clebsch_gordan(j2, m2, j1, m1, J, M)
        assert lhs == pytest.approx(rhs, abs=1e-14)


# ---------------------------------------------------------------------------
# parity


def test_parity_su21_closed_form():
    # multipole route at N = 2 must land on the N-level closed form
    want = np.diag([(1.0 - _R3) / 2.0, (1.0 + _R3) / 2.0])
    assert np.max(np.abs(parity(SUN(2, 1)) - want)) < 1e-14


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_parity_fundamental_closed_form(N):
    # N-1 equal entries (1 - sqrt(N+1))/N, lowest weight gets the rest
    a = (1.0 - math.sqrt(N + 1.0)) / N
    b = (1.0 + (N - 1.0) * math.sqrt(N + 1.0)) / N
    want = np.diag([a] * (N - 1) + [b])
    assert np.max(np.abs(parity(SUN(N, 1)) - want)) < 1e-13


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6, 20, 40, 80])
def test_parity_matches_multipole_sum(M):
    # a flipped zonal operator keeps both trace conditions but moves entries
    # by O(1), as orienting Casimir eigenvectors at the lowest weight does at M = 80
    assert np.max(np.abs(np.diag(parity(SUN(2, M))).real - multipole_parity(M))) < 1e-13


@pytest.mark.parametrize("desc", [
    SUN(2, 1), SUN(2, 2), SUN(2, 3), SUN(3, 1), SUN(4, 1),
    SUN(2, 20), SUN(2, 40), SUN(2, 80), SUN(2, 120), SUN(3, 2), SUN(3, 3), SUN(4, 2),
])
def test_parity_trace_conditions(desc):
    # Tr[Pi] = 1 (standardization) and Tr[Pi^2] = d (self-duality scale)
    Pi = parity(desc)
    d = dimension(desc)
    assert np.trace(Pi).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(Pi @ Pi).real == pytest.approx(d, abs=1e-11)
    assert np.max(np.abs(Pi - np.diag(np.diag(Pi)))) == 0.0  # diagonal


@pytest.mark.parametrize("desc", [SUN(2, 6), SUN(3, 2), SUN(3, 3), SUN(4, 2), SUN(3, 5)])
def test_parity_zonal_components(desc):
    """Pi = sum_l sqrt(D_l / d) Z_l over the Casimir's eigen-operators.

    Z_l are the unit eigenvectors of C(X) = sum_a [J_a, [J_a, X]] on the
    projectors onto n_N = k, in ascending eigenvalue (l = 0..M), each
    oriented positive on the lowest-weight state; D_l is the dimension of
    the component (l, 0, ..., 0, l).
    """
    N, M = desc.N, desc.M
    d = dimension(desc)
    n_last = np.array([lab[-1] for lab in basis_labels(N, M)])
    P = [np.diag(n_last == k) / math.sqrt(np.sum(n_last == k)) for k in range(M + 1)]
    gens = build_generators(N, M)

    def casimir(X):
        return sum(J @ (J @ X - X @ J) - (J @ X - X @ J) @ J for J in gens)

    C = np.array([[np.trace(a @ casimir(b)).real for b in P] for a in P])
    lam, V = np.linalg.eigh(C)
    assert lam[0] == pytest.approx(0.0, abs=1e-9) and np.all(np.diff(lam) > 1.0)
    V = V * np.sign(V[M])  # row M: the lowest-weight state, P_M = its projector
    assert np.min(np.abs(V[M])) > 1e-6  # so the orientation is well defined
    Pi = parity(desc)
    components = V.T @ [np.trace(p @ Pi).real for p in P]
    D = [math.comb(N + l - 1, l) ** 2 - (math.comb(N + l - 2, l - 1) ** 2 if l else 0)
         for l in range(M + 1)]
    assert np.max(np.abs(components - np.sqrt(np.array(D) / d))) < 1e-13


def test_parity_hw_is_doubled_fock_parity():
    want = np.diag(2.0 * (-1.0) ** np.arange(9))
    assert np.array_equal(parity(HW(9)), want)


def test_parity_unsupported_raises():
    # every SUN(N, M) has a parity, a function of n_N largest on the lowest
    # weight, cached read-only; composites have none
    Pi = parity(SUN(3, 2))
    assert parity(SUN(3, 2)) is Pi and not Pi.flags.writeable
    diag = np.diag(Pi)
    assert np.all(diag.imag == 0.0) and np.argmax(diag.real) == 5
    n3 = np.array([lab[-1] for lab in basis_labels(3, 2)])
    for k in range(3):
        assert np.ptp(diag.real[n3 == k]) < 1e-15
    with pytest.raises(TypeError):
        parity(Composite((SUN(2, 1), SUN(2, 1))))


def test_parity_cartan_weights_reconstruct():
    # for M = 1 the Cartan elements span the whole diagonal, so the
    # projection coefficients rebuild the parity exactly
    for desc in (SUN(2, 1), SUN(3, 1), SUN(4, 1)):
        beta = oracles.parity_cartan_weights(desc)
        assert len(beta) == desc.N
        total = sum(
            beta[l] * diagonal_generator(desc.N, desc.M, l) for l in range(desc.N)
        )
        assert np.max(np.abs(total - parity(desc))) < 1e-12
    assert oracles.parity_cartan_weights(SUN(2, 1)) == pytest.approx([0.5, -_R3 / 2.0])


# ---------------------------------------------------------------------------
# HW displacement elements


def _hw_kernel(side, n_max, alpha):
    return kernel_at(KernelSpec(side, HW(n_max)), HWPoint(alpha))


def test_hw_weyl_kernel_identity_at_origin():
    assert np.max(np.abs(_hw_kernel("weyl", 12, 0.0) - np.eye(12))) < 1e-14


def test_hw_weyl_kernel_vacuum_column():
    # <m|D(alpha)|0> = alpha^m / sqrt(m!) e^{-|alpha|^2/2}
    alpha = 0.8 - 0.5j
    col = _hw_kernel("weyl", 10, alpha)[:, 0]
    m = np.arange(10)
    want = alpha ** m / np.sqrt([math.factorial(int(k)) for k in m])
    want = want * math.exp(-abs(alpha) ** 2 / 2.0)
    assert np.max(np.abs(col - want)) < 1e-14


def _truncated_expm(n_max, alpha):
    """exp(alpha a^dagger - alpha* a) with the truncated ladder operators."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max)), 1)
    return scipy.linalg.expm(alpha * a.T - np.conj(alpha) * a)


def test_hw_weyl_kernel_matches_truncated_exponential_below_cutoff():
    # the expm route is trustworthy where no amplitude reaches the cutoff;
    # there the two constructions must agree
    alpha = 0.5 + 0.3j
    closed = _hw_kernel("weyl", 40, alpha)
    expm_route = _truncated_expm(40, alpha)
    assert np.max(np.abs(closed[:8, :8] - expm_route[:8, :8])) < 1e-10


def test_hw_displacement_element_orthonormality():
    """int d^2alpha/pi D_mn(alpha) conj(D_kl(alpha)) = delta_mk delta_nl."""
    # radius 7: the slowest-decaying element (n = m = 4) still carries a
    # Laguerre-polynomial tail of order 1e-7 at radius 6
    n_max = 5
    grid = hw_grid(HW(n_max), 7.0, 96)
    D = kernel_stack(KernelSpec("weyl", HW(n_max)), grid)  # (nodes, n, n)
    w = grid.weights()
    G = np.einsum("s,sab,scd->abcd", w, D, np.conj(D), optimize=True)
    want = np.einsum("ac,bd->abcd", np.eye(n_max), np.eye(n_max))
    assert np.max(np.abs(G - want)) < 1e-8


def test_hw_wigner_kernel_origin_and_hermiticity():
    assert np.array_equal(_hw_kernel("wigner", 8, 0.0), parity(HW(8)))
    K = _hw_kernel("wigner", 8, 0.7 + 0.2j)
    assert np.max(np.abs(K - K.conj().T)) < 1e-13


def test_hw_wigner_kernel_is_displaced_parity():
    # 2 D(alpha) P D(alpha)^dagger evaluated with the expm route, small alpha
    n_max, alpha = 30, 0.4 - 0.6j
    D = _truncated_expm(n_max, alpha)
    P = np.diag((-1.0) ** np.arange(n_max))
    oracle = 2.0 * D @ P @ D.conj().T
    K = _hw_kernel("wigner", n_max, alpha)
    assert np.max(np.abs(K[:10, :10] - oracle[:10, :10])) < 1e-9


def test_coherent_state_wigner_spot_values():
    n_max, beta = 30, 0.6 + 0.3j
    from wignerweyl import coherent_vector

    v = coherent_vector(n_max, beta)
    rho = np.outer(v, v.conj())
    for alpha in (0.0, 0.5, 0.9 - 0.2j, 1.0j):
        K = _hw_kernel("wigner", n_max, alpha)
        got = np.trace(rho @ K).real
        want = 2.0 * math.exp(-2.0 * abs(alpha - beta) ** 2)
        assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# dispatch, stacks, guards


def test_kernel_point_type_dispatch(monkeypatch):
    """A point of the wrong type, width or factor count raises before any evaluation."""
    monkeypatch.setattr(kernels_module, "_kernels", None)
    p1 = CPPoint((0.0,), (0.0,))
    for spec, point, error in [
        (KernelSpec("wigner", SUN(2, 1)), EulerPoint((0.0,), (0.0,), (0.0,)), TypeError),
        (KernelSpec("weyl", SUN(2, 1)), p1, TypeError),
        (KernelSpec("wigner", HW(4)), p1, TypeError),
        (KernelSpec("weyl", SUN(2, 1), "arecchi"), EulerPoint((0.0,), (0.0,), (0.0,)), TypeError),
        (KernelSpec("wigner", Composite((SUN(2, 1), SUN(2, 1)))), CompositePoint((p1,)), TypeError),
        (KernelSpec("wigner", Composite((SUN(2, 1), HW(3)))), CompositePoint((p1, p1)), TypeError),
        (KernelSpec("wigner", SUN(2, 1)), CompositePoint((p1,)), TypeError),
        (KernelSpec("wigner", SUN(3, 1)), p1, ValueError),
        (KernelSpec("weyl", SUN(2, 1), "arecchi"), CPPoint((0.0, 0.1), (0.0, 0.1)), ValueError),
        (KernelSpec("weyl", SUN(2, 1)), EulerPoint((0.0,), (0.0,), ()), ValueError),
        # eight columns for SU(3), split as two pairs and four Cartan angles
        (KernelSpec("weyl", SUN(3, 1)), EulerPoint((0.0,) * 2, (0.0,) * 2, (0.0,) * 4), ValueError),
    ]:
        with pytest.raises(error):
            kernel_at(spec, point)


def test_weyl_kernel_is_euler_rotation():
    """A definition: euler_rotation is the Weyl kernel.  test_rotations checks it independently
    (the SU(2) closed form, the symmetric power, the Cartan factor against expm)."""
    pt = EulerPoint((0.4,), (0.3,), (1.1,))
    assert np.array_equal(
        kernel_at(KernelSpec("weyl", SUN(2, 2)), pt), euler_rotation(SUN(2, 2), pt)
    )


def test_composite_kernel_is_kron():
    desc = Composite((SUN(2, 1), SUN(2, 1)))
    p1 = CPPoint((0.3,), (0.2,))
    p2 = CPPoint((1.0,), (0.7,))
    K = kernel_at(KernelSpec("wigner", desc), CompositePoint((p1, p2)))
    one = KernelSpec("wigner", SUN(2, 1))
    oracle = np.kron(oracles.kernel(one, p1), oracles.kernel(one, p2))
    assert np.max(np.abs(K - oracle)) < 1e-14
    # Weyl side: Euler rotation (x) block-restricted displacement
    pt, a = EulerPoint((0.3,), (0.4,), (0.5,)), 0.6 - 0.2j
    K = kernel_at(KernelSpec("weyl", Composite((SUN(2, 1), HW(4)))),
                  CompositePoint((pt, HWPoint(a))))
    oracle = np.kron(oracles.kernel(KernelSpec("weyl", SUN(2, 1)), pt),
                     oracles.hw_kernels(4, a, "weyl"))
    assert np.max(np.abs(K - oracle)) < 1e-14


# every kernel family, 3-factor composites and the arecchi rotation included
ORACLE_SPECS = [
    KernelSpec(side, parse_system(system))
    for system in ["su:2:1", "su:2:5", "su:3:1", "su:3:2", "su:4:1", "su:5:1", "hw:4", "hw:12",
                   "hw:40", "su:2:1*hw:6", "su:2:1*su:2:1*su:2:1", "su:3:1*su:2:2"]
    for side in ("wigner", "weyl")
] + [KernelSpec("weyl", SUN(2, M), "arecchi") for M in (1, 3, 8)]


@pytest.mark.parametrize(
    "spec", ORACLE_SPECS, ids=lambda s: f"{s.side}-{format_system(s.system)}-{s.rotation}",
)
def test_kernel_at_matches_the_oracle(spec):
    """Off-grid points, angles past their chart ranges, alpha with parts up to 5 in size."""
    rng = np.random.default_rng(dimension(spec.system))
    kinds = _column_kinds(spec)
    for _ in range(6):
        row = [rng.uniform(-5.0, 5.0) if kind == "alpha" else
               rng.uniform(-0.5, _ANGLE_HI[kind] + 0.5) for kind in kinds]
        point = _row_point(spec, row)
        # the package's chart agrees with the tests' own, both ways
        assert kernels_module._row_point(spec, row) == point
        assert kernels_module._point_row(spec, point) == tuple(row)
        assert np.max(np.abs(kernel_at(spec, point) - oracles.kernel(spec, point))) < 1e-13


@pytest.mark.parametrize("spec, names", [
    (KernelSpec("weyl", SUN(2, 1)), "phi1,theta1,Phi1"),
    (KernelSpec("wigner", SUN(3, 1)), "phi1,theta1,phi2,theta2"),
    (KernelSpec("weyl", SUN(3, 1)), "phi1,theta1,phi2,theta2,phi3,theta3,Phi1,Phi2"),
    (KernelSpec("weyl", SUN(2, 2), "arecchi"), "phi1,theta1"),
    (KernelSpec("wigner", HW(4)), "re,im"),
    (KernelSpec("weyl", Composite((SUN(2, 1), HW(3)))), "f1_phi1,f1_theta1,f1_Phi1,f2_re,f2_im"),
], ids=str)
def test_width_errors_name_the_columns(spec, names):
    """The kernels' columns are their grid's, and a row of another width is told them."""
    desc = spec.system
    grid = cp_grid(desc) if spec.rotation == "arecchi" else default_grid(desc, spec.side)
    assert ",".join(grid.column_names) == names
    with pytest.raises(ValueError, match=re.escape(f"columns ({names}), got 1")):
        symbols_at(np.eye(dimension(spec.system)), spec, np.zeros((1, 1)))
    with pytest.raises(ValueError, match=re.escape(f"({names})")):
        kernels_module._row_point(spec, [0.0])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("husimi", SUN(2, 1))
    with pytest.raises(ValueError):
        KernelSpec("wigner", SUN(2, 1), rotation="arecchi")  # Weyl-side only
    with pytest.raises(ValueError):
        KernelSpec("weyl", SUN(3, 1), rotation="arecchi")  # SU(2) only
    with pytest.raises(ValueError):
        KernelSpec("weyl", SUN(2, 1), rotation="cayley")


@pytest.mark.parametrize("spec, make_grid", [
    (KernelSpec("weyl", HW(6)), lambda: hw_grid(HW(6), 3.0, 20)),
    (KernelSpec("wigner", SUN(2, 2)), lambda: cp_grid(SUN(2, 2))),
    (KernelSpec("weyl", SUN(3, 1)), lambda: sun_grid(SUN(3, 1))),
], ids=["hw6-weyl", "su22-wigner", "su31-weyl"])
def test_kernel_pieces_built_once_per_grid_and_read_only(spec, make_grid, monkeypatch):
    grid = make_grid()
    built = []
    split = kernels_module._split
    monkeypatch.setattr(kernels_module, "_split", lambda *a: built.append(a) or split(*a))
    p1 = kernel_pieces(spec, grid)
    p2 = kernel_pieces(spec, grid)
    assert p1[0] is p2[0] and len(built) == 1
    arrays = [a for a in vars(p1[0]).values() if isinstance(a, np.ndarray)]
    if spec.system == HW(6):  # hx, hy and the shared transfer table's arrays
        arrays += [a for a in vars(p1[0].transfer).values() if isinstance(a, np.ndarray)]
    want = 6 if spec.system == HW(6) else 2  # hx, hy + 4 transfer arrays | 2 pieces
    assert len(arrays) == want and not any(a.flags.writeable for a in arrays)
    kernel_pieces(spec, default_grid(spec.system, spec.side))  # another grid, its own pieces
    assert len(built) == 2


def test_default_oscillator_pieces_hold_no_node_stack():
    grid = default_grid(HW(20), "wigner")
    (p,) = kernel_pieces(KernelSpec("wigner", HW(20)), grid)
    arrays = [a for a in vars(p).values() if isinstance(a, np.ndarray)]
    assert not any(a.shape[:1] == (grid.n_nodes,) and a.ndim == 3 for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 50_000_000
    assert len(p.radial) == grid.shape[0]  # one radial matrix per radius of the rule


@pytest.mark.parametrize("side", ["weyl", "wigner"])
@pytest.mark.parametrize("n_max", [1, 2, 7, 20, 40, 60])
def test_hermite_transfer_matches_pointwise_kernels(n_max, side):
    """Window kernels from the Hermite transfer table against the Laguerre closed form.

    Unequal x and y nodes out to where the elements have decayed; the error is
    relative to the largest kernel element.  The table is stored per order,
    (2d - 1)^2 d complex numbers and a few index arrays: O(d^3), where a dense
    (d^2, (2d - 1)^2) transfer matrix would be O(d^4).
    """
    reach = (math.sqrt(n_max) + 4.0) / (2.0 if side == "wigner" else 1.0)
    x = np.linspace(-reach, 0.9 * reach, 6)
    y = np.linspace(-0.8 * reach, reach, 5) + 0.01
    K = kernels_module._window(n_max, x, y, side).stack()
    want = oracles.hw_kernels(n_max, (x[:, None] + 1j * y[None, :]).ravel(), side)
    assert np.max(np.abs(K - want)) < 1e-13 * np.max(np.abs(want))
    transfer = kernels_module._hermite_transfer(n_max, side)
    arrays = [a for a in vars(transfer).values() if isinstance(a, np.ndarray)]
    assert not any(a.flags.writeable for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 16 * (2 * n_max - 1) ** 2 * (n_max + 4)


def test_transfer_rotations_are_the_arecchi_rotation():
    """The rotations the transfer table recurses through are arecchi_rotation(SUN(2, N), 0, pi/4).

    Weyl-side HW(40) stores R_N[b, n] at table[N, N - b, i] as sqrt(pi) (-i)^b
    (-1)^n, element i of order N being n = max(0, N - 39) + i; orders
    N < 40 keep every column.
    """
    table = kernels_module._hermite_transfer(40, "weyl").table
    assert np.array_equal(table[0, 0, :1], [math.sqrt(math.pi)])
    for N in range(1, 79):
        n = np.arange(max(0, N - 39), min(N, 39) + 1)
        b = np.arange(N + 1)
        R = table[N, N - b, :len(n)] / (math.sqrt(math.pi) * (-1j) ** b[:, None] * (-1.0) ** n)
        want = arecchi_rotation(SUN(2, N), 0.0, math.pi / 4)[:, n]
        assert np.max(np.abs(R - want)) < 2e-14, N


@pytest.mark.parametrize("d", [2, 7, 20, 40, 60])
def test_hermite_transfer_matches_the_integer_construction(d):
    for side in ("weyl", "wigner"):
        table = kernels_module._hermite_transfer(d, side).table
        assert np.max(np.abs(table - oracles.hermite_transfer_table(d, side))) < 2e-14


def test_hermite_transfer_fills_no_generator_cache():
    """The table's rotations are built from their own J(2), not the cached generator sets."""
    from wignerweyl.algebra import _gen_eig

    before = build_generators.cache_info(), _gen_eig.cache_info()
    for side in ("weyl", "wigner"):
        kernels_module._hermite_transfer.__wrapped__(40, side)  # built afresh, uncached
    assert (build_generators.cache_info(), _gen_eig.cache_info()) == before


@pytest.mark.parametrize("side", ["weyl", "wigner"])
def test_oscillator_kernels_match_the_laguerre_closed_form(side):
    """Radial recurrence and phase powers against scipy's Laguerre values, up to n_max = 30."""
    n_max = 30
    rng = np.random.default_rng(4)
    alphas = rng.uniform(-4, 4, 40) + 1j * rng.uniform(-4, 4, 40)
    alphas[:3] = [0.0, 1e-9, -2.5]
    want = oracles.hw_kernels(n_max, alphas, side)
    got = np.stack([_hw_kernel(side, n_max, a) for a in alphas])
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n_max", [1, 2, 12, 40])
def test_radial_factors_at_the_origin(n_max):
    """0 log 0 = 0: R(0) is I on the Weyl side and 2 (-1)^n on the Wigner diagonal."""
    to_c = kernels_module._diagonals(n_max)[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weyl, wigner = [
            kernels_module._radial(n_max, np.zeros(1), side)[0, to_c].reshape(n_max, n_max)
            for side in ("weyl", "wigner")
        ]
    assert np.array_equal(weyl, np.eye(n_max))
    assert np.array_equal(wigner, np.diag(2.0 * (-1.0) ** np.arange(n_max)))


def test_radial_factors_are_built_in_their_output(peak):
    """One block of 625 radii at d = 40 holds its output, the Laguerre table and one gathered
    copy of it: the exponent and the factors are formed in the output rows."""
    r = np.random.default_rng(5).uniform(0.0, 6.0, 625)
    for side in ("weyl", "wigner"):
        assert peak(lambda: kernels_module._radial(40, r, side)) <= 3.2 * r.size * 40 * 40 * 8


def test_radial_log_ratios_match_gammaln():
    from scipy.special import gammaln

    for n_max in range(1, 41):
        lo, k, log_ratio = kernels_module._radial_constants(n_max, "weyl")[:3]
        want = 0.5 * (gammaln(lo + 1.0) - gammaln(lo + k + 1.0))
        assert np.max(np.abs(log_ratio - want)) < 1e-13, n_max


def test_kernel_stack_matches_pointwise():
    grid = hw_grid(HW(6), 3.0, 12)
    spec = KernelSpec("wigner", HW(6))
    stack = kernel_stack(spec, grid)
    for i in (0, 37, 91):
        K = oracles.kernel(spec, grid.point(i))
        assert np.max(np.abs(stack[i] - K)) < 1e-12


def test_kernel_stack_byte_guard():
    grid = hw_grid(HW(64), 8.0, 160)  # 25600 nodes x 64^2 complex > 1.5 GB
    with pytest.raises(OverflowError):
        kernel_stack(KernelSpec("weyl", HW(64)), grid)
    assert grid not in kernels_module._PIECE_CACHE


def test_kernel_stack_node_guard_fires_before_any_piece_is_built(monkeypatch):
    grid = hw_grid(HW(4), 3.0, 12)
    monkeypatch.setattr(measures_module, "MAX_NODES", grid.n_nodes - 1)
    with pytest.raises(OverflowError, match=f"{grid.n_nodes} nodes"):
        kernel_stack(KernelSpec("weyl", HW(4)), grid)
    assert grid not in kernels_module._PIECE_CACHE


@pytest.mark.parametrize("factors", [
    lambda: [cp_grid(SUN(2, 1)), hw_grid(HW(6), 5.5, 48)],
    lambda: [cp_grid(SUN(2, 1)), hw_grid(HW(3), 4.0, 24), cp_grid(SUN(2, 1))],
], ids=["su21*hw6", "su21*hw3*su21"])
def test_kernel_stack_of_a_product_holds_little_beyond_its_output(factors, peak):
    """The Kronecker product of the factor stacks is written straight into the output
    (13,824 and 20,736 nodes, d = 12): no row-wise gathered copy of a factor."""
    grid = product_grid(factors())
    spec = KernelSpec("wigner", grid.system)
    out = grid.n_nodes * dimension(grid.system) ** 2 * 16
    assert peak(lambda: kernel_stack(spec, grid)) <= 1.15 * out


@pytest.mark.parametrize("side, chart", [("wigner", cp_grid), ("weyl", sun_grid)])
def test_kernel_stack_kronecker_order_on_three_factors(side, chart):
    """Node (i, j, k) of su:2:1*hw:3*su:2:1 carries K_1(i) (x) K_2(j) (x) K_3(k), C order with
    the first factor slowest.  The reference is np.kron of the oracle's factor stacks, whose
    leading axis np.kron orders the same way, one node of the first factor at a time."""
    grid = product_grid([chart(SUN(2, 1)), hw_grid(HW(3), 4.0, 24), chart(SUN(2, 1))])
    K = kernel_stack(KernelSpec(side, grid.system), grid)
    F = [oracles.kernel_stack(KernelSpec(side, g.system), g) for g in grid.factors]
    n_rest = grid.n_nodes // len(F[0])
    for i in range(len(F[0])):
        want = np.kron(np.kron(F[0][i:i + 1], F[1]), F[2])
        assert np.max(np.abs(K[i * n_rest:(i + 1) * n_rest] - want)) < 1e-13, i
    for i in range(0, grid.n_nodes, 997):  # the grid's own point map agrees
        assert np.max(np.abs(K[i] - oracles.kernel(KernelSpec(side, grid.system),
                                                   grid.point(i)))) < 1e-13, i


def test_guard_messages_name_existing_apis():
    import wignerweyl
    from wignerweyl import QuadratureGrid, sun_grid

    messages = []
    with pytest.raises(OverflowError) as err:
        kernel_stack(KernelSpec("weyl", HW(64)), hw_grid(HW(64), 8.0, 160))
    messages.append(str(err.value))
    with pytest.raises(OverflowError) as err:
        sun_grid(SUN(4, 2)).weights()  # beyond the node ceiling
    messages.append(str(err.value))
    named = [name for msg in messages for name in re.findall(r"(\w+)\(", msg)]
    assert "symbols_at" in named
    for name in named:
        assert hasattr(wignerweyl, name) or hasattr(QuadratureGrid, name), name
    assert not any("slice evaluation" in msg for msg in messages)


# ---------------------------------------------------------------------------
# the batched evaluator against kernel_at and the oracle

_ANGLE_HI = {"phi": 2.0 * math.pi, "theta": 0.5 * math.pi, "Phi": 2.0 * math.pi}

BATCH_SPECS = [
    KernelSpec("wigner", SUN(2, 3)),
    KernelSpec("weyl", SUN(2, 3)),
    KernelSpec("weyl", SUN(2, 2), "arecchi"),
    KernelSpec("wigner", SUN(3, 1)),
    KernelSpec("weyl", SUN(3, 1)),
    KernelSpec("wigner", SUN(4, 1)),
    KernelSpec("wigner", HW(5)),
    KernelSpec("weyl", HW(5)),
    KernelSpec("wigner", Composite((SUN(2, 1), SUN(2, 2)))),
    KernelSpec("weyl", Composite((SUN(2, 1), SUN(2, 2)))),
    KernelSpec("wigner", Composite((SUN(2, 1), HW(3)))),
    KernelSpec("weyl", Composite((SUN(2, 1), HW(3)))),
]


def _column_kinds(spec):
    """Coordinate kind of each row column: 'alpha', 'phi', 'theta' or 'Phi'."""
    desc = spec.system
    if isinstance(desc, Composite):
        return [k for f in desc.factors for k in _column_kinds(KernelSpec(spec.side, f))]
    if isinstance(desc, HW):
        return ["alpha", "alpha"]
    if spec.side == "wigner" or spec.rotation == "arecchi":
        return ["phi", "theta"] * (1 if spec.rotation == "arecchi" else desc.N - 1)
    n_pairs = desc.N * (desc.N - 1) // 2
    return ["phi", "theta"] * n_pairs + ["Phi"] * (desc.N - 1)


def _row_point(spec, row):
    desc = spec.system
    if isinstance(desc, Composite):
        points, at = [], 0
        for f in desc.factors:
            sub = KernelSpec(spec.side, f)
            n = len(_column_kinds(sub))
            points.append(_row_point(sub, row[at: at + n]))
            at += n
        return CompositePoint(points)
    if isinstance(desc, HW):
        return HWPoint(complex(row[0], row[1]))
    if spec.side == "wigner" or spec.rotation == "arecchi":
        return CPPoint(tuple(row[0::2]), tuple(row[1::2]))
    n = desc.N * (desc.N - 1)
    return EulerPoint(tuple(row[0:n:2]), tuple(row[1:n:2]), tuple(row[n:]))


@pytest.mark.parametrize(
    "spec", BATCH_SPECS,
    ids=lambda s: f"{s.side}-{format_system(s.system)}-{s.rotation}",
)
@settings(max_examples=15, deadline=None)
@given(n_rows=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), repeat=st.floats(0.0, 1.0))
def test_batched_kernels_match_kernel_at(spec, n_rows, seed, repeat):
    """Off-grid rows, with each coordinate repeated from a small pool at rate `repeat`.

    Every row of the batch equals kernel_at at the row's point, its one-row
    evaluation, and the oracle's construction.  A composite family runs each
    factor's columns through the batch, and its kernel_at, the Kronecker
    product of the factors' kernels, meets the oracle at every row.
    """
    rng = np.random.default_rng(seed)
    kinds = _column_kinds(spec)
    rows = np.empty((n_rows, len(kinds)))
    for c, kind in enumerate(kinds):
        lo, hi = (-2.0, 2.0) if kind == "alpha" else (-0.5, _ANGLE_HI[kind] + 0.5)
        pool = rng.uniform(lo, hi, 2)
        fresh = rng.uniform(lo, hi, n_rows)
        rows[:, c] = np.where(rng.random(n_rows) < repeat, rng.choice(pool, n_rows), fresh)
    at = 0
    for sub in _factor_specs(spec):
        cols = rows[:, at:at + len(_column_kinds(sub))]
        at += cols.shape[1]
        columns = [np.unique(col, return_inverse=True) for col in cols.T]
        K = _kernels(sub, [v for v, _ in columns], [i for _, i in columns])
        d = dimension(sub.system)
        assert K.shape == (n_rows, d, d)
        for r in range(n_rows):
            point = _row_point(sub, cols[r])
            assert np.max(np.abs(K[r] - kernel_at(sub, point))) < 1e-12
            assert np.max(np.abs(K[r] - oracles.kernel(sub, point))) < 1e-12
    for r in range(n_rows):
        point = _row_point(spec, rows[r])
        assert np.max(np.abs(kernel_at(spec, point) - oracles.kernel(spec, point))) < 1e-12


def test_batched_kernels_reject_wrong_column_count():
    spec = KernelSpec("weyl", SUN(2, 1))
    with pytest.raises(ValueError):
        _kernels(spec, [np.zeros(1)] * 2, [np.zeros(1, dtype=int)] * 2)


def test_kernel_stack_rejects_mismatched_grid():
    grid = hw_grid(HW(6), 3.0, 12)
    with pytest.raises(ValueError):
        kernel_stack(KernelSpec("weyl", HW(8)), grid)


# ---------------------------------------------------------------------------
# symbols_at routes against the oracle


def _sphere_rows(n_theta):
    """The figure-data sphere mesh: C order over (phi, theta), phi = 0 and 2 pi both present."""
    phi, theta = np.meshgrid(np.linspace(0.0, 2.0 * math.pi, 2 * n_theta - 1),
                             np.linspace(0.0, 0.5 * math.pi, n_theta), indexing="ij")
    return np.stack([phi.ravel(), theta.ravel()], axis=1)


def _random_mesh(spec, counts, seed):
    """A C-order tensor mesh over random axis nodes, unsorted, one axis per column."""
    rng = np.random.default_rng(seed)
    nodes = []
    for kind, n in zip(_column_kinds(spec), counts):
        lo, hi = (-3.0, 3.0) if kind == "alpha" else (-0.5, _ANGLE_HI[kind] + 0.5)
        nodes.append(rng.uniform(lo, hi, n))
    return np.stack([m.ravel() for m in np.meshgrid(*nodes, indexing="ij")], axis=1)


def _hw_mesh(n_x, n_y, radius):
    x, y = np.meshgrid(np.linspace(-radius, radius, n_x), np.linspace(-radius, radius, n_y),
                       indexing="ij")
    return np.stack([x.ravel(), y.ravel()], axis=1)


def _ghz_rows(side, n_theta):
    phi, theta = _sphere_rows(n_theta).T
    return np.stack(([phi, theta] if side == "wigner" else [phi, theta, -phi]) * 5, axis=1)


def _route(monkeypatch, A, spec, rows):
    """symbols_at at the rows, and the route it took: 'mesh' or 'partial traces'."""
    import wignerweyl.transforms as transforms

    taken = []
    with monkeypatch.context() as m:
        for name, route in (("_forward", "mesh"), ("_partial_trace_rows", "partial traces")):
            fn = getattr(transforms, name)
            m.setattr(transforms, name,
                      lambda *a, fn=fn, route=route: taken.append(route) or fn(*a))
        vals = symbols_at(A, spec, rows)
    assert len(set(taken)) == 1, taken
    return vals, taken[0]


def _check_oracle(spec, rows, vals, stride=1):
    """Every stride-th row against the oracle's kernels, relative to max(1, |value|)."""
    A = _symbols_operator(spec)
    for i in range(0, len(rows), stride):
        want = np.trace(A @ oracles.kernel(spec, _row_point(spec, rows[i])))
        assert abs(vals[i] - want) <= 1e-13 * max(1.0, abs(want)), (i, vals[i], want)


def _symbols_operator(spec):
    d = dimension(spec.system)
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / (2.0 * d)


ROUTE_CASES = {
    "cp-su21": (KernelSpec("wigner", SUN(2, 1)), lambda: _sphere_rows(9), "mesh", 1),
    "cp-su220": (KernelSpec("wigner", SUN(2, 20)), lambda: _sphere_rows(21), "mesh", 7),
    "cp-su31": (KernelSpec("wigner", SUN(3, 1)),
                lambda: _random_mesh(KernelSpec("wigner", SUN(3, 1)), (3, 4, 2, 3), 1), "mesh", 1),
    "sun-su23": (KernelSpec("weyl", SUN(2, 3)),
                 lambda: _random_mesh(KernelSpec("weyl", SUN(2, 3)), (5, 4, 3), 2), "mesh", 1),
    "sun-su31": (KernelSpec("weyl", SUN(3, 1)),
                 lambda: _random_mesh(KernelSpec("weyl", SUN(3, 1)), (2, 2, 3, 2, 2, 2, 2, 2),
                                      3), "mesh", 3),
    "arecchi-su25": (KernelSpec("weyl", SUN(2, 5), "arecchi"), lambda: _sphere_rows(11),
                     "mesh", 1),
    "su21*hw3": (KernelSpec("weyl", Composite((SUN(2, 1), HW(3)))),
                 lambda: _random_mesh(KernelSpec("weyl", Composite((SUN(2, 1), HW(3)))),
                                      (3, 2, 2, 4, 5), 4), "mesh", 1),
    "su21*hw3-wigner": (KernelSpec("wigner", Composite((SUN(2, 1), HW(3)))),
                        lambda: np.concatenate([np.repeat(_sphere_rows(3), 400, axis=0),
                                                np.tile(_hw_mesh(20, 20, 3.0), (15, 1))],
                                               axis=1), "mesh", 97),
    "su21*su21": (KernelSpec("wigner", Composite((SUN(2, 1), SUN(2, 1)))),
                  lambda: _random_mesh(KernelSpec("wigner", Composite((SUN(2, 1), SUN(2, 1)))),
                                       (3, 2, 4, 3), 5), "mesh", 1),
    "ghz5-wigner": (KernelSpec("wigner", Composite((SUN(2, 1),) * 5)),
                    lambda: _ghz_rows("wigner", 7), "partial traces", 1),
    "ghz5-weyl": (KernelSpec("weyl", Composite((SUN(2, 1),) * 5)),
                  lambda: _ghz_rows("weyl", 7), "partial traces", 1),
    # 121^10 61^5 distinct-value combinations: past int64
    "ghz5-weyl-61": (KernelSpec("weyl", Composite((SUN(2, 1),) * 5)),
                     lambda: _ghz_rows("weyl", 61), "partial traces", 97),
    # one row is one kernel; two rows are a 2 x 1 mesh, and take the Window
    "hw40-one-row": (KernelSpec("wigner", HW(40)), lambda: np.array([[0.7, -1.3]]),
                     "partial traces", 1),
    "hw40-two-rows": (KernelSpec("weyl", HW(40)), lambda: np.array([[0.7, -1.3], [-2.1, -1.3]]),
                      "mesh", 1),
}
for _d, _square, _unequal in ((4, 21, (25, 17)), (12, 37, (45, 29)), (40, 67, (81, 51))):
    for _side in ("wigner", "weyl"):
        _spec = KernelSpec(_side, HW(_d))
        ROUTE_CASES[f"hw{_d}-{_side}-square"] = (
            _spec, lambda n=_square: _hw_mesh(n, n, 5.0), "mesh", 31)
        ROUTE_CASES[f"hw{_d}-{_side}-unequal"] = (
            _spec, lambda n=_unequal: _hw_mesh(*n, 5.0), "mesh", 31)
        ROUTE_CASES[f"hw{_d}-{_side}-small"] = (
            _spec, lambda: _hw_mesh(9, 7, 5.0), "mesh", 5)


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_symbols_at_routes_match_kernel_at(case, monkeypatch):
    spec, make_rows, want_route, stride = ROUTE_CASES[case]
    rows = make_rows()
    vals, route = _route(monkeypatch, _symbols_operator(spec), spec, rows)
    assert route == want_route
    _check_oracle(spec, rows, vals, stride)


@pytest.mark.parametrize("case", ["cp-su220", "arecchi-su25", "sun-su23", "su21*hw3"])
def test_symbols_at_row_route_matches_kernel_at_off_the_mesh(case, monkeypatch):
    """A shuffled mesh, or one with a row repeated or missing, takes the row route."""
    spec, make_rows, _, stride = ROUTE_CASES[case]
    mesh = make_rows()
    rng = np.random.default_rng(6)
    tables = {
        "shuffled": mesh[rng.permutation(len(mesh))],
        "repeated": np.concatenate([mesh, mesh[-1:]]),
        "missing": mesh[1:],
    }
    for name, rows in tables.items():
        vals, route = _route(monkeypatch, _symbols_operator(spec), spec, rows)
        assert route == "partial traces", name
        _check_oracle(spec, rows, vals, stride)


def test_symbols_at_mesh_detection():
    from wignerweyl.transforms import _mesh

    rows = _sphere_rows(4)
    nodes = _mesh(rows)
    assert [len(x) for x in nodes] == [7, 4]
    assert np.array_equal(nodes[0], rows[::4, 0]) and np.array_equal(nodes[1], rows[:4, 1])
    wrapped = rows[4:].copy()  # without phi = 0, which would wrap onto phi = 2 pi
    wrapped[:, 0] = np.mod(wrapped[:, 0] + 3.0, 2.0 * math.pi)  # unsorted phi nodes
    assert np.array_equal(_mesh(wrapped)[0], wrapped[::4, 0])
    assert _mesh(rows[:, ::-1]) is None  # Fortran order
    assert _mesh(rows[np.r_[1, 0, 2:len(rows)]]) is None  # two rows swapped
    assert [len(x) for x in _mesh(rows[:1])] == [1, 1]
    # a plane rule's (re, im) rows and the covariance probe's points are no mesh
    grid = default_grid(HW(4), "wigner")
    assert _mesh(grid.coords()) is None
    assert _mesh(np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])) is None


@pytest.mark.parametrize("spec", [KernelSpec("wigner", HW(4)), KernelSpec("weyl", SUN(2, 2)),
                                  KernelSpec("weyl", Composite((SUN(2, 1), HW(3))))],
                         ids=["hw4", "su22", "su21*hw3"])
def test_symbols_at_empty_and_single_rows(spec):
    d = dimension(spec.system)
    A = _symbols_operator(spec)
    width = len(_column_kinds(spec))
    out = symbols_at(A, spec, np.empty((0, width)))
    assert out.shape == (0,) and out.dtype == np.complex128
    row = np.random.default_rng(d).uniform(0.1, 1.2, (1, width))
    _check_oracle(spec, row, symbols_at(A, spec, row))


def test_single_oscillator_points_build_no_transfer_table(monkeypatch):
    """verify's origin rows and covariance probe go through the partial traces.

    autocorr's lines are 11 x 1 meshes, which take the Window by design.
    """
    from wignerweyl import autocorrelation, verify_stratonovich
    from wignerweyl.states import build_state, parse_state

    def refuse(*args):
        raise AssertionError("transfer table built")

    with monkeypatch.context() as m:
        m.setattr(kernels_module, "_hermite_transfer", refuse)
        for desc, side, probe in ((HW(4), "weyl", "origin_trace"), (HW(8), "wigner", "covariance")):
            report = verify_stratonovich(desc, side)
            assert report.passed and probe in [c.name for c in report.conditions], desc
    desc = HW(4)
    spec = KernelSpec("weyl", desc)
    rho = build_state(parse_state("coherent:0.3+0.1j", desc), desc)
    samples = np.linspace(-2.0, 2.0, 11)
    for axis, unit in (("re", 1.0), ("im", 1j)):
        vals = autocorrelation(rho, desc, axis, samples)
        want = [np.trace(rho @ oracles.kernel(spec, HWPoint(unit * x))) for x in samples]
        assert np.max(np.abs(vals - want)) < 1e-13, axis


@pytest.mark.parametrize("spec, make_grid", [
    (KernelSpec("wigner", SUN(2, 3)), lambda: cp_grid(SUN(2, 3))),
    (KernelSpec("weyl", SUN(3, 1)), lambda: sun_grid(SUN(3, 1))),
    (KernelSpec("weyl", Composite((SUN(2, 1), SUN(2, 1)))),
     lambda: default_grid(Composite((SUN(2, 1), SUN(2, 1))), "weyl")),
], ids=["cp-su23", "sun-su31", "su21*su21"])
def test_symbols_at_falls_back_to_rows_past_the_piece_limit(spec, make_grid, monkeypatch):
    """Past MAX_STACK_BYTES for a grid's pieces, symbols_at(A, spec, grid.coords()) works."""
    from wignerweyl import phase_function

    grid = make_grid()
    A = _symbols_operator(spec)
    want = phase_function(A, spec, grid).values
    monkeypatch.setattr(kernels_module, "MAX_STACK_BYTES", 100)
    with pytest.raises(OverflowError, match=r"symbols_at\(A, spec, grid\.coords\(\)\)"):
        phase_function(A, spec, make_grid())
    vals, route = _route(monkeypatch, A, spec, grid.coords())
    assert route == "partial traces"
    assert np.max(np.abs(vals - want)) < 1e-13


@pytest.mark.parametrize("spec, rows", [
    (KernelSpec("wigner", SUN(2, 20)), _sphere_rows(61)),
    (KernelSpec("weyl", SUN(2, 20), "arecchi"), _sphere_rows(61)),
    (KernelSpec("wigner", HW(40)), _hw_mesh(81, 81, 6.0)),
], ids=["su220-wigner", "su220-arecchi", "hw40-81"])
def test_symbols_at_on_a_mesh_holds_no_row_stack(spec, rows, peak):
    """The peak stays below a quarter of one (n_rows, d, d) complex stack."""
    A = _symbols_operator(spec)
    stack = len(rows) * dimension(spec.system) ** 2 * 16
    # the first call caches the transfer table and generator tables
    assert peak(lambda: symbols_at(A, spec, rows)) < stack / 4


@pytest.mark.parametrize("side, rotation", [("wigner", "euler"), ("weyl", "arecchi")],
                         ids=["wigner", "arecchi"])
def test_sphere_kernels_are_polar_pieces(side, rotation):
    """SU(2) on CP^1 takes Polar pieces in the chart's (phi, theta) node order, on default,
    --grid-res and shifted grids: K_mn = S_mn(theta) e^{-2i (m-n) phi}."""
    from wignerweyl.statmech import _shifted_grid

    for M in (1, 2, 7, 20):
        desc = SUN(2, M)
        spec = KernelSpec(side, desc, rotation)
        for grid in (cp_grid(desc), cp_grid(desc, M + 4),
                     _shifted_grid(cp_grid(desc), [0.37, 0.21])):
            (p,) = kernel_pieces(spec, grid)
            assert isinstance(p, kernels_module.Polar) and p.angle_first
            assert (len(p.phases), len(p.radial)) == grid.shape
            K = oracles.kernel_stack(spec, grid)
            assert np.max(np.abs(p.stack() - K)) < 1e-13, (M, grid.shape)
            assert np.max(np.abs(p.stack(5, 23) - K[5:23])) < 1e-13, (M, grid.shape)
