"""Phase-space point types for the supported manifolds."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


def _angles(point, *names: str) -> None:
    """Store each named field as a tuple of floats; raise ValueError on NaN or inf."""
    for name in names:
        values = tuple(float(x) for x in getattr(point, name))
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name} must be finite, got {values}")
        object.__setattr__(point, name, values)


@dataclass(frozen=True)
class HWPoint:
    """A point alpha in the complex plane of a single HW mode."""

    alpha: complex

    def __post_init__(self):
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")


@dataclass(frozen=True)
class CPPoint:
    """A point on CP^(N-1): N-1 azimuthal angles and N-1 colatitude-like angles."""

    phi: tuple[float, ...]
    theta: tuple[float, ...]

    def __post_init__(self):
        _angles(self, "phi", "theta")
        if len(self.phi) != len(self.theta):
            raise ValueError("phi and theta must have equal length")


@dataclass(frozen=True)
class EulerPoint:
    """A full SU(N) Euler point: N(N-1)/2 (phi, theta) pairs plus N-1 Cartan angles."""

    phi: tuple[float, ...]
    theta: tuple[float, ...]
    Phi: tuple[float, ...]

    def __post_init__(self):
        _angles(self, "phi", "theta", "Phi")
        if len(self.phi) != len(self.theta):
            raise ValueError("phi and theta must have equal length")


@dataclass(frozen=True)
class CompositePoint:
    """One phase-space point per tensor factor."""

    points: tuple

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(points))


PhasePoint = HWPoint | CPPoint | EulerPoint | CompositePoint
