"""Group rotations: SU(N) Euler factorization and Arecchi rotations.

The Euler chart of SU(N) is defined once, in the kernel layer: the pair
order is ``measures._colatitude_blocks`` and the factor each angle carries
is ``kernels._factor_table``.  ``euler_factor_sequence`` reads the pairs off
that table and ``euler_rotation`` is the Weyl kernel there.
``arecchi_rotation`` is built independently, from the ladder operators.
"""

from __future__ import annotations

import numpy as np

from .algebra import SUN, build_generators
from .kernels import WEYL, KernelSpec, _factor_table, kernel_at
from .points import EulerPoint


def euler_factor_sequence(N: int) -> tuple[tuple[int, int], ...]:
    """Ordered (angle_index, generator_index) pairs for the off-diagonal factors.

    Angle indices are 1-based and run 1 .. N(N-1)/2; each pair stands for the
    two factors exp(i J(3) phi_t) exp(i J((p-1)^2 + 1) theta_t).  Blocks run
    q = N down to 2 with inner p = 2 .. q, which makes the angle index t
    increase monotonically through the sequence.
    """
    thetas = _factor_table(KernelSpec(WEYL, SUN(N, 1)))[1:N * (N - 1):2]
    return tuple((t, k) for t, (k, _) in enumerate(thetas, start=1))


def euler_angle_count(N: int) -> tuple[int, int]:
    """(number of (phi, theta) pairs, number of Cartan angles)."""
    return N * (N - 1) // 2, N - 1


def expi_hermitian(H: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i H t) for Hermitian H (uncached; one-off use)."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(1j * t * w)) @ V.conj().T


def euler_rotation(desc: SUN, point: EulerPoint) -> np.ndarray:
    """Full SU(N) Euler rotation U(phi, theta, Phi) in representation M: the Weyl kernel there.

    Determinant is exactly 1 (traceless generators); unitarity holds to
    rounding by construction.
    """
    if not isinstance(desc, SUN):
        raise TypeError("euler_rotation needs a SUN descriptor")
    return kernel_at(KernelSpec(WEYL, desc), point)


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
