"""Phase-space point types for the supported manifolds.

``_POINT_TYPE`` maps a chart's manifold name to its point type, whose
``row`` and ``from_row`` convert between a point and its coordinate row.
"""

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

    def row(self) -> tuple[float, ...]:
        return (self.alpha.real, self.alpha.imag)

    @classmethod
    def from_row(cls, row) -> "HWPoint":
        re, im = row
        return cls(complex(re, im))


@dataclass(frozen=True)
class CPPoint:
    """A point on CP^(N-1): N-1 azimuthal angles and N-1 colatitude-like angles."""

    phi: tuple[float, ...]
    theta: tuple[float, ...]

    def __post_init__(self):
        _angles(self, "phi", "theta")
        if len(self.phi) != len(self.theta):
            raise ValueError("phi and theta must have equal length")

    def row(self) -> tuple[float, ...]:
        return tuple(x for pair in zip(self.phi, self.theta) for x in pair)

    @classmethod
    def from_row(cls, row) -> "CPPoint":
        return cls(tuple(row[0::2]), tuple(row[1::2]))


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

    def row(self) -> tuple[float, ...]:
        return tuple(x for pair in zip(self.phi, self.theta) for x in pair) + self.Phi

    @classmethod
    def from_row(cls, row) -> "EulerPoint":
        """The SU(N) point of a row of N^2 - 1 values: N(N-1) pair values, then N - 1 Cartans."""
        N = math.isqrt(len(row) + 1)
        if N * N != len(row) + 1:
            raise ValueError(f"an SU(N) Euler row has N^2 - 1 values, got {len(row)}")
        n = N * (N - 1)
        return cls(tuple(row[0:n:2]), tuple(row[1:n:2]), tuple(row[n:]))


@dataclass(frozen=True)
class CompositePoint:
    """One phase-space point per tensor factor."""

    points: tuple

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(points))


PhasePoint = HWPoint | CPPoint | EulerPoint | CompositePoint

_POINT_TYPE = {"HW_PLANE": HWPoint, "CP": CPPoint, "SUN": EulerPoint}
