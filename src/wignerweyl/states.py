"""Reference state constructors for the supported systems."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import HW, SUN, Composite, SystemDescriptor, dimension, is_hermitian
from .rotations import arecchi_rotation


def _finite(what: str, values):
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite, got {values}")
    return values


@dataclass(frozen=True)
class Fock:
    n: int


@dataclass(frozen=True)
class Coherent:
    alpha: complex

    def __post_init__(self):
        _finite("a coherent amplitude", self.alpha)


@dataclass(frozen=True)
class HWCat:
    """Equal-weight superposition of coherent components."""

    components: tuple[complex, ...]

    def __init__(self, components):
        components = _finite("cat components", tuple(complex(c) for c in components))
        object.__setattr__(self, "components", components)


@dataclass(frozen=True)
class SpinCoherent:
    phi: float
    theta: float

    def __post_init__(self):
        _finite("spin-coherent angles", (self.phi, self.theta))


@dataclass(frozen=True)
class SpinCat:
    """Equal-weight superposition of spin-coherent components."""

    orientations: tuple[tuple[float, float], ...]

    def __init__(self, orientations):
        angles = tuple((float(p), float(t)) for p, t in orientations)
        object.__setattr__(self, "orientations", _finite("spin-cat angles", angles))


@dataclass(frozen=True)
class GHZ:
    pass


@dataclass(frozen=True)
class ThermalSpec:
    """A Hamiltonian with an inverse temperature: the Gibbs state exp(-beta H) / Z."""

    hamiltonian: np.ndarray
    beta: float

    def __post_init__(self):
        H = np.asarray(self.hamiltonian, dtype=np.complex128)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if not is_hermitian(H):
            raise ValueError("Hamiltonian must be Hermitian")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        H = H.copy()
        H.flags.writeable = False
        object.__setattr__(self, "hamiltonian", H)


def _shifted_gibbs(tspec: ThermalSpec) -> tuple[float, np.ndarray]:
    """The ground energy E0 and exp(-beta (H - E0)), whose eigenvalues lie in (0, 1].

    Both come from one eigendecomposition, so e^(-beta E0) exp(-beta (H - E0))
    is exp(-beta H) with the rounding of E0 cancelled.
    """
    w, V = np.linalg.eigh(tspec.hamiltonian)
    return float(w[0]), (V * np.exp(-tspec.beta * (w - w[0]))[None, :]) @ V.conj().T


@dataclass(frozen=True)
class RandomDensity:
    seed: int


StateSpec = Fock | Coherent | HWCat | SpinCoherent | SpinCat | GHZ | ThermalSpec | RandomDensity


def coherent_vector(n_max: int, alpha: complex) -> np.ndarray:
    """Closed-form truncated coherent amplitudes, renormalized on the cutoff.

    The factor e^(-|alpha|^2 / 2) cancels in the renormalization, so the
    magnitudes |alpha|^n / sqrt(n!) are taken relative to the largest, and
    the largest is 1 at every |alpha| (with the factor, all underflow past
    |alpha| of about 40 and the renormalization divides 0 by 0).
    """
    alpha = complex(alpha)
    if alpha == 0:
        v = np.zeros(n_max, dtype=np.complex128)
        v[0] = 1.0
        return v
    n = np.arange(n_max)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max)))])
    log_amp = n * math.log(abs(alpha)) - 0.5 * log_fact
    v = np.exp(log_amp - log_amp.max()) * np.exp(1j * n * np.angle(alpha))
    return v / np.linalg.norm(v)


def state_vector(spec: StateSpec, desc: SystemDescriptor) -> np.ndarray:
    """Pure-state amplitudes for vector-valued specs."""
    if isinstance(spec, Fock):
        if not isinstance(desc, HW):
            raise TypeError("Fock states need an HW system")
        if not 0 <= spec.n < desc.n_max:
            raise ValueError(f"Fock level {spec.n} outside 0..{desc.n_max - 1}")
        v = np.zeros(desc.n_max, dtype=np.complex128)
        v[spec.n] = 1.0
        return v
    if isinstance(spec, Coherent):
        if not isinstance(desc, HW):
            raise TypeError("coherent states need an HW system")
        return coherent_vector(desc.n_max, spec.alpha)
    if isinstance(spec, HWCat):
        if not isinstance(desc, HW):
            raise TypeError("HW cats need an HW system")
        v = np.zeros(desc.n_max, dtype=np.complex128)
        for c in spec.components:
            v += coherent_vector(desc.n_max, c)
        return v / np.linalg.norm(v)
    if isinstance(spec, SpinCoherent):
        if not (isinstance(desc, SUN) and desc.N == 2):
            raise TypeError("spin-coherent states need a SUN(2, M) system")
        low = np.zeros(dimension(desc), dtype=np.complex128)
        low[-1] = 1.0
        return arecchi_rotation(desc, spec.phi, spec.theta) @ low
    if isinstance(spec, SpinCat):
        if not (isinstance(desc, SUN) and desc.N == 2):
            raise TypeError("spin cats need a SUN(2, M) system")
        low = np.zeros(dimension(desc), dtype=np.complex128)
        low[-1] = 1.0
        v = np.zeros_like(low)
        for p, t in spec.orientations:
            v += arecchi_rotation(desc, p, t) @ low
        return v / np.linalg.norm(v)
    if isinstance(spec, GHZ):
        # (|0...0> + |1...1>) / sqrt(2) on qubits, its Dicke-space twin
        # (|j, j> + |j, -j>) / sqrt(2) on SUN(2, M)
        qubits = isinstance(desc, Composite) and all(f == SUN(2, 1) for f in desc.factors)
        if not (qubits or isinstance(desc, SUN) and desc.N == 2):
            raise TypeError("GHZ states need qubit composites or a SUN(2, M) system")
        v = np.zeros(dimension(desc), dtype=np.complex128)
        v[0] = v[-1] = 1.0 / math.sqrt(2.0)
        return v
    raise TypeError(f"{type(spec).__name__} has no pure-state vector")


def build_state(spec: StateSpec, desc: SystemDescriptor) -> np.ndarray:
    """Density matrix of the specified state on the described system."""
    if isinstance(spec, ThermalSpec):
        d = dimension(desc)
        if spec.hamiltonian.shape != (d, d):
            raise ValueError(f"Hamiltonian must be {d}x{d}")
        rho = _shifted_gibbs(spec)[1]
        return rho / np.trace(rho).real
    if isinstance(spec, RandomDensity):
        d = dimension(desc)
        rng = np.random.default_rng(spec.seed)
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = G @ G.conj().T
        return rho / np.trace(rho).real
    v = state_vector(spec, desc)
    return np.outer(v, v.conj())


def parse_state(text: str, desc: SystemDescriptor) -> StateSpec:
    """Parse the CLI state grammar.

    ``fock:<n>``, ``coherent:<c>``, ``hwcat:<c1>|<c2>|...``,
    ``spincoherent:<phi>,<theta>``, ``spincat:<phi1>,<theta1>|...``,
    ``ghz``, ``random:<seed>``.  Complex numbers use Python literal syntax
    (e.g. ``-3``, ``1+2j``).
    """
    head, _, rest = text.strip().partition(":")
    try:
        if head == "fock":
            return Fock(int(rest))
        if head == "coherent":
            return Coherent(complex(rest))
        if head == "hwcat":
            return HWCat(tuple(complex(c) for c in rest.split("|")))
        if head == "spincoherent":
            p, t = rest.split(",")
            return SpinCoherent(float(p), float(t))
        if head == "spincat":
            pairs = []
            for item in rest.split("|"):
                p, t = item.split(",")
                pairs.append((float(p), float(t)))
            return SpinCat(tuple(pairs))
        if head == "ghz":
            return GHZ()
        if head == "random":
            return RandomDensity(int(rest) if rest else 0)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad state string {text!r}: {exc}") from None
    raise ValueError(f"unknown state kind {head!r}")
