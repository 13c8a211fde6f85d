"""Group rotations: SU(N) Euler factorization and Arecchi rotations.

All matrix exponentials of the fixed generators go through cached
eigendecompositions, so repeated evaluation at many angles costs one
diagonal phase plus two small matmuls per factor.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import SUN, build_generators, dimension, generator
from .points import EulerPoint


def euler_factor_sequence(N: int) -> tuple[tuple[int, int], ...]:
    """Ordered (angle_index, generator_index) pairs for the off-diagonal factors.

    Angle indices are 1-based and run 1 .. N(N-1)/2; each pair stands for the
    two factors exp(i J(3) phi_t) exp(i J((p-1)^2 + 1) theta_t).  Blocks run
    q = N down to 2 with inner p = 2 .. q, which makes the angle index t
    increase monotonically through the sequence.
    """
    seq = []
    t = 0
    for q in range(N, 1, -1):
        for p in range(2, q + 1):
            t += 1
            seq.append((t, (p - 1) ** 2 + 1))
    return tuple(seq)


def euler_angle_count(N: int) -> tuple[int, int]:
    """(number of (phi, theta) pairs, number of Cartan angles)."""
    return N * (N - 1) // 2, N - 1


@lru_cache(maxsize=None)
def _gen_eig(N: int, M: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of generator J(k); J = V diag(w) V^dagger."""
    w, V = np.linalg.eigh(generator(N, M, k))
    w.flags.writeable = False
    V.flags.writeable = False
    return w, V


def _expi_gen(N: int, M: int, k: int, angle: float) -> np.ndarray:
    """exp(i J(k) angle) via the cached eigendecomposition."""
    w, V = _gen_eig(N, M, k)
    return (V * np.exp(1j * angle * w)) @ V.conj().T


def expi_hermitian(H: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i H t) for Hermitian H (uncached; one-off use)."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(1j * t * w)) @ V.conj().T


def cartan_phase(desc: SUN, Phi) -> np.ndarray:
    """The diagonal factor prod_c exp(i J((c+1)^2 - 1) Phi_c)."""
    if not isinstance(desc, SUN):
        raise TypeError("cartan_phase needs a SUN descriptor")
    Phi = tuple(float(x) for x in Phi)
    if len(Phi) != desc.N - 1:
        raise ValueError(f"need {desc.N - 1} Cartan angles, got {len(Phi)}")
    U = np.eye(dimension(desc), dtype=np.complex128)
    for c, ang in enumerate(Phi, start=1):
        U = U @ _expi_gen(desc.N, desc.M, (c + 1) ** 2 - 1, ang)
    return U


def euler_rotation(desc: SUN, point: EulerPoint) -> np.ndarray:
    """Full SU(N) Euler rotation U(phi, theta, Phi) in representation M.

    Determinant is exactly 1 (traceless generators); unitarity holds to
    rounding by construction.
    """
    if not isinstance(desc, SUN):
        raise TypeError("euler_rotation needs a SUN descriptor")
    n_pairs, n_cartan = euler_angle_count(desc.N)
    if len(point.phi) != n_pairs or len(point.Phi) != n_cartan:
        raise ValueError(
            f"SU({desc.N}) needs {n_pairs} (phi,theta) pairs and {n_cartan} "
            f"Cartan angles, got {len(point.phi)} and {len(point.Phi)}"
        )
    N, M = desc.N, desc.M
    U = np.eye(dimension(desc), dtype=np.complex128)
    for t, k_theta in euler_factor_sequence(N):
        U = U @ _expi_gen(N, M, 3, point.phi[t - 1])
        U = U @ _expi_gen(N, M, k_theta, point.theta[t - 1])
    return U @ cartan_phase(desc, point.Phi)


def arecchi_rotation(desc: SUN, phi: float, theta: float) -> np.ndarray:
    """SU(2) coherent-state rotation exp(xi J+ - xi* J-), xi = (theta/2) e^{2i phi}.

    The doubled azimuthal phase inherits from the adopted generator
    normalization (eigenvalue steps of 2) and is pinned by the identity
    with the three-angle factorization: R(phi, theta) = U(phi, theta, -phi)
    for every M.
    """
    if not (isinstance(desc, SUN) and desc.N == 2):
        raise TypeError("arecchi_rotation is defined for SUN(2, M)")
    j1, j2 = build_generators(2, desc.M)[0:2]
    xi = 0.5 * theta * np.exp(2j * phi)
    jp = j1 + 1j * j2
    A = xi * jp - np.conj(xi) * jp.conj().T
    # A is anti-Hermitian; exponentiate through the Hermitian -iA.
    return expi_hermitian(-1j * A, 1.0)
