"""Rotations: Euler chain and coherence-group identity."""

import math

import numpy as np
import pytest
import scipy.linalg

from wignerweyl import (
    SUN,
    EulerPoint,
    arecchi_rotation,
    build_generators,
    dimension,
    euler_angle_count,
    euler_rotation,
    expi_hermitian,
)


def _su2_closed_form(phi, theta, Phi):
    """e^{i sz phi} e^{i sy theta} e^{i sz Phi} on the Pauli normalization."""
    def ez(t):
        return np.diag([np.exp(1j * t), np.exp(-1j * t)])

    ey = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    return ez(phi) @ ey @ ez(Phi)


def _sym_power(U, M):
    """Spin-M/2 representation of a 2x2 unitary via the bosonic realization."""
    a, b = U[0, 0], U[0, 1]
    c, d = U[1, 0], U[1, 1]
    dim = M + 1
    out = np.zeros((dim, dim), dtype=complex)
    # basis index i <-> occupations (M - i, i), matching the package ordering
    for col in range(dim):
        m1, m2 = M - col, col
        poly = np.zeros(M + 1, dtype=complex)  # coefficients of x^k y^(M-k)
        for k in range(m1 + 1):
            for l in range(m2 + 1):
                coef = (
                    math.comb(m1, k) * a ** k * c ** (m1 - k)
                    * math.comb(m2, l) * b ** l * d ** (m2 - l)
                )
                poly[k + l] += coef
        for row in range(dim):
            k1 = M - row
            norm = math.sqrt(
                math.factorial(k1) * math.factorial(M - k1)
                / (math.factorial(m1) * math.factorial(m2))
            )
            out[row, col] = norm * poly[k1]
    return out


def test_euler_angle_count():
    assert euler_angle_count(2) == (1, 1)
    assert euler_angle_count(3) == (3, 2)
    assert euler_angle_count(4) == (6, 3)


def test_su2_fundamental_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi, theta, Phi = rng.uniform(0, 2 * math.pi, 3)
        U = euler_rotation(SUN(2, 1), EulerPoint((phi,), (theta,), (Phi,)))
        assert np.max(np.abs(U - _su2_closed_form(phi, theta, Phi))) < 1e-13


@pytest.mark.parametrize("M", [2, 3, 4])
def test_su2_representation_is_symmetric_power(M):
    rng = np.random.default_rng(2)
    for _ in range(5):
        phi, theta, Phi = rng.uniform(0, 2 * math.pi, 3)
        pt = EulerPoint((phi,), (theta,), (Phi,))
        U1 = euler_rotation(SUN(2, 1), pt)
        UM = euler_rotation(SUN(2, M), pt)
        assert np.max(np.abs(UM - _sym_power(U1, M))) < 1e-12


@pytest.mark.parametrize("desc", [SUN(2, 3), SUN(3, 1), SUN(3, 2), SUN(4, 1)])
def test_euler_rotation_unitary_unit_determinant(desc):
    rng = np.random.default_rng(3)
    n_pairs, n_cartan = euler_angle_count(desc.N)
    for _ in range(4):
        pt = EulerPoint(
            tuple(rng.uniform(0, 2 * math.pi, n_pairs)),
            tuple(rng.uniform(0, 0.5 * math.pi, n_pairs)),
            tuple(rng.uniform(0, 2 * math.pi, n_cartan)),
        )
        U = euler_rotation(desc, pt)
        d = dimension(desc)
        assert np.max(np.abs(U @ U.conj().T - np.eye(d))) < 1e-12
        assert abs(np.linalg.det(U) - 1.0) < 1e-10


def test_cartan_phase_is_generator_product():
    """With every pair angle at zero the rotation is the Cartan factor alone."""
    desc = SUN(3, 2)
    Phi = (0.7, -1.3)
    gens = build_generators(3, 2)
    oracle = scipy.linalg.expm(1j * Phi[0] * gens[2]) @ scipy.linalg.expm(
        1j * Phi[1] * gens[7]
    )
    U = euler_rotation(desc, EulerPoint((0.0,) * 3, (0.0,) * 3, Phi))
    assert np.max(np.abs(U - oracle)) < 1e-13


def test_expi_hermitian_matches_expm():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = (g + g.conj().T) / 2
    assert np.max(np.abs(expi_hermitian(H, 0.37) - scipy.linalg.expm(0.37j * H))) < 1e-12


@pytest.mark.parametrize("M", [1, 2, 3])
def test_arecchi_identity_and_oracle(M):
    """R(phi,theta) = U(phi,theta,-phi) = expm(xi J+ - xi* J-), xi = theta/2 e^{2i phi}."""
    desc = SUN(2, M)
    j1, j2 = build_generators(2, M)[0:2]
    rng = np.random.default_rng(5)
    for _ in range(10):
        phi = rng.uniform(0, 2 * math.pi)
        theta = rng.uniform(0, 0.5 * math.pi)
        R = arecchi_rotation(desc, phi, theta)
        xi = 0.5 * theta * np.exp(2j * phi)
        jp = j1 + 1j * j2
        oracle = scipy.linalg.expm(xi * jp - np.conj(xi) * jp.conj().T)
        assert np.max(np.abs(R - oracle)) < 1e-12
        U = euler_rotation(desc, EulerPoint((phi,), (theta,), (-phi,)))
        assert np.max(np.abs(R - U)) < 1e-12


def test_arecchi_rejects_non_su2():
    with pytest.raises(TypeError):
        arecchi_rotation(SUN(3, 1), 0.1, 0.2)
