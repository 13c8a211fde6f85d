"""System descriptors and generalized Pauli (Gell-Mann) generator construction.

Supported carrier spaces:

* ``SUN(N, M)`` -- the symmetric irreducible representation of SU(N) carried
  by M indistinguishable excitations over N modes, of dimension
  ``(N + M - 1)! / (M! (N - 1)!)``.
* ``HW(n_max)`` -- a Fock space truncated to ``n_max`` levels.
* ``Composite(factors)`` -- a tensor product of the above.

Generators follow the bosonic (Schwinger-style) construction: for each mode
pair ``a < b`` a symmetric and an antisymmetric ladder combination, plus
``N - 1`` diagonal (Cartan) matrices.  For ``SUN(2, 1)`` and ``SUN(3, 1)``
this reproduces the Pauli and Gell-Mann matrices exactly; for higher M the
normalization is fixed by the same rule (so ``SUN(2, M)`` carries eigenvalue
steps of 2 in the diagonal generator, twice the conventional spin-z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Guard for composite dimensions; beyond this, int64 index math in the array
# layer is no longer trustworthy.
MAX_DIMENSION = 2**62


@dataclass(frozen=True)
class HW:
    """Truncated Heisenberg-Weyl (Fock) space with levels 0 .. n_max - 1."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, int) or self.n_max < 2:
            raise ValueError(f"HW truncation must be an integer >= 2, got {self.n_max!r}")


@dataclass(frozen=True)
class SUN:
    """Symmetric irrep of SU(N) with M excitations."""

    N: int
    M: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"SUN needs integer N >= 2, got {self.N!r}")
        if not isinstance(self.M, int) or self.M < 1:
            raise ValueError(f"SUN needs integer M >= 1, got {self.M!r}")


@dataclass(frozen=True)
class Composite:
    """Ordered tensor product of subsystem descriptors.

    Nested composites are flattened on construction, so the factor list is
    always a flat tuple of HW/SUN descriptors.
    """

    factors: tuple

    def __init__(self, factors):
        flat = []
        for f in factors:
            if isinstance(f, Composite):
                flat.extend(f.factors)
            elif isinstance(f, (HW, SUN)):
                flat.append(f)
            else:
                raise ValueError(f"composite factor must be HW/SUN/Composite, got {f!r}")
        if len(flat) < 2:
            raise ValueError("a composite needs at least two factors")
        object.__setattr__(self, "factors", tuple(flat))


SystemDescriptor = HW | SUN | Composite


def dimension(desc: SystemDescriptor) -> int:
    """Hilbert-space dimension of the described system."""
    if isinstance(desc, HW):
        d = desc.n_max
    elif isinstance(desc, SUN):
        d = math.comb(desc.N + desc.M - 1, desc.M)
    elif isinstance(desc, Composite):
        d = 1
        for f in desc.factors:
            d *= dimension(f)
    else:
        raise TypeError(f"not a system descriptor: {desc!r}")
    if d > MAX_DIMENSION:
        raise OverflowError(f"dimension {d} exceeds supported range")
    return d


@lru_cache(maxsize=None)
def basis_labels(N: int, M: int) -> tuple[tuple[int, ...], ...]:
    """Occupation-number labels (m_1, ..., m_N), sum M, lexicographically decreasing.

    The first label is the highest-weight state (M, 0, ..., 0) and the last
    is the lowest-weight state (0, ..., 0, M).
    """

    def fill(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for m in range(remaining, -1, -1):
            for rest in fill(remaining - m, slots - 1):
                yield (m,) + rest

    return tuple(fill(M, N))


def _ladder(N: int, M: int, dst: int, src: int) -> np.ndarray:
    """Matrix of a_dst^dagger a_src in the occupation basis (1-based modes)."""
    labels = basis_labels(N, M)
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)
    out = np.zeros((d, d), dtype=np.complex128)
    for col, lab in enumerate(labels):
        if lab[src - 1] == 0:
            continue
        target = list(lab)
        target[src - 1] -= 1
        target[dst - 1] += 1
        row = index[tuple(target)]
        out[row, col] = math.sqrt((lab[dst - 1] + 1) * lab[src - 1])
    return out


def _cartan(N: int, M: int, c: int) -> np.ndarray:
    """Diagonal generator sqrt(2/(c(c+1))) (sum_{k<=c} n_k - c n_{c+1})."""
    labels = basis_labels(N, M)
    pref = math.sqrt(2.0) / math.sqrt(c * (c + 1.0))
    diag = [pref * (sum(lab[:c]) - c * lab[c]) for lab in labels]
    return np.diag(np.asarray(diag, dtype=np.complex128))


@lru_cache(maxsize=None)
def build_generators(N: int, M: int) -> tuple[np.ndarray, ...]:
    """All N^2 - 1 generators, 1-based index k following the standard layout.

    For each b = 2..N the off-diagonal pairs (a, b), a < b, occupy indices
    (b-1)^2 .. b^2 - 2 as alternating symmetric/antisymmetric combinations,
    and the diagonal generator sits at b^2 - 1.  Matrices are read-only.
    """
    SUN(N, M)  # validate
    gens: list[np.ndarray] = []
    for b in range(2, N + 1):
        for a in range(1, b):
            up = _ladder(N, M, a, b)   # a_a^dagger a_b
            dn = _ladder(N, M, b, a)
            gens.append(up + dn)
            gens.append(-1j * (up - dn))
        gens.append(_cartan(N, M, b - 1))
    for g in gens:
        g.flags.writeable = False
    return tuple(gens)


def generator(N: int, M: int, k: int) -> np.ndarray:
    """Generator J(k), k = 1 .. N^2 - 1 (read-only view)."""
    gens = build_generators(N, M)
    if not 1 <= k <= len(gens):
        raise ValueError(f"generator index {k} out of range 1..{len(gens)}")
    return gens[k - 1]


@lru_cache(maxsize=None)
def _gen_eig(N: int, M: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of generator J(k); J = V diag(w) V^dagger (cached, read-only)."""
    w, V = np.linalg.eigh(generator(N, M, k))
    w.flags.writeable = False
    V.flags.writeable = False
    return w, V


def diagonal_generator(N: int, M: int, l: int) -> np.ndarray:
    """Cartan element: identity for l = 0, else J((l+1)^2 - 1), 1 <= l <= N-1."""
    if l == 0:
        return np.eye(dimension(SUN(N, M)), dtype=np.complex128)
    if not 1 <= l <= N - 1:
        raise ValueError(f"diagonal index must be 0..{N - 1}, got {l}")
    return generator(N, M, (l + 1) ** 2 - 1)


def trace_norm_constant(N: int, M: int) -> float:
    """Value of Tr[J(i) J(j)] / delta_ij for this representation."""
    return 2.0 * M / (N + 1) * math.comb(N + M, M)


def is_hermitian(A: np.ndarray) -> bool:
    """Whether max |A - A^dagger| is at most 1e-12 times max(1, max |A|)."""
    return bool(np.max(np.abs(A - A.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(A))))


def parse_system(text: str) -> SystemDescriptor:
    """Parse the CLI grammar: ``hw:<n_max>``, ``su:<N>:<M>``, ``*``-joined products.

    Raises ValueError with the character position of the offending token.
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError("empty system string")
    factors = []
    pos = 0
    for part in text.split("*"):
        token = part.strip()
        at = f"position {pos}"
        fields = token.split(":")
        try:
            if fields[0] == "hw" and len(fields) == 2:
                factors.append(HW(int(fields[1])))
            elif fields[0] == "su" and len(fields) == 3:
                factors.append(SUN(int(fields[1]), int(fields[2])))
            else:
                raise ValueError(f"expected hw:<n_max> or su:<N>:<M> at {at}: {token!r}")
        except ValueError as exc:
            raise ValueError(f"bad system token at {at}: {token!r} ({exc})") from None
        pos += len(part) + 1
    if len(factors) == 1:
        return factors[0]
    return Composite(tuple(factors))


def format_system(desc: SystemDescriptor) -> str:
    """Inverse of parse_system."""
    if isinstance(desc, HW):
        return f"hw:{desc.n_max}"
    if isinstance(desc, SUN):
        return f"su:{desc.N}:{desc.M}"
    return "*".join(format_system(f) for f in desc.factors)
