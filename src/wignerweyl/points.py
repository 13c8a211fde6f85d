"""Phase-space point types for the supported manifolds."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HWPoint:
    """A point alpha in the complex plane of a single HW mode."""

    alpha: complex


@dataclass(frozen=True)
class CPPoint:
    """A point on CP^(N-1): N-1 azimuthal angles and N-1 colatitude-like angles."""

    phi: tuple[float, ...]
    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(float(x) for x in self.phi))
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if len(self.phi) != len(self.theta):
            raise ValueError("phi and theta must have equal length")


@dataclass(frozen=True)
class EulerPoint:
    """A full SU(N) Euler point: N(N-1)/2 (phi, theta) pairs plus N-1 Cartan angles."""

    phi: tuple[float, ...]
    theta: tuple[float, ...]
    Phi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(float(x) for x in self.phi))
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        object.__setattr__(self, "Phi", tuple(float(x) for x in self.Phi))
        if len(self.phi) != len(self.theta):
            raise ValueError("phi and theta must have equal length")


@dataclass(frozen=True)
class CompositePoint:
    """One phase-space point per tensor factor."""

    points: tuple

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(points))


PhasePoint = HWPoint | CPPoint | EulerPoint | CompositePoint

_GRID_POINT = {"HW_PLANE": HWPoint, "CP": CPPoint, "SUN": EulerPoint, "PRODUCT": CompositePoint}


def _row(point: PhasePoint, grid) -> tuple[float, ...]:
    """The point's coordinates in the column layout of ``grid`` (inverse of ``grid.point``).

    Raises ValueError when the point is not of the grid manifold's type, or
    its coordinates do not fill the grid's columns.
    """
    want = _GRID_POINT[grid.manifold]
    if not isinstance(point, want):
        raise ValueError(f"a {grid.manifold} grid takes a {want.__name__}, got {point!r}")
    if isinstance(point, HWPoint):
        row = (point.alpha.real, point.alpha.imag)
    elif isinstance(point, CompositePoint):
        row = sum((_row(p, sub) for p, sub in zip(point.points, grid.factors, strict=True)), ())
    else:
        row = tuple(x for pair in zip(point.phi, point.theta) for x in pair)
        row += getattr(point, "Phi", ())
    if len(row) != len(grid.axes):
        raise ValueError(f"{point!r} has {len(row)} coordinates for {len(grid.axes)} grid columns")
    return row
