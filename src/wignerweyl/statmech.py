"""Quantum-statistical layer: partition functions, thermal means, moments,
autocorrelations, and phase-space cross-correlations.

Everything here is computed through phase-space quadrature, except the
moments, which are exact derivatives of the Weyl kernel at the origin;
Hilbert-space eigen-oracles live in the tests and in the CLI residual
printout, not in these code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import measures
from .algebra import HW, SUN, SystemDescriptor, dimension, generator, is_hermitian
from .kernels import WEYL, WIGNER, KernelSpec, _columns, _factor_table, _point_row, kernel_at
from .measures import QuadratureGrid, _angle_columns, _shift_rule, product_grid
from .points import HWPoint, PhasePoint
from .states import ThermalSpec, _shifted_gibbs
from .transforms import (
    PhaseFunction, _operator, _pairing, overlap, phase_function, reconstruct, symbols_at,
)


def _unshifted(tspec: ThermalSpec, E0: float, Zs: float) -> float:
    """e^(-beta E0), the factor from the shifted Z_s to Z = e^(-beta E0) Z_s.

    Raises OverflowError when Z leaves the positive finite doubles.
    """
    with np.errstate(over="ignore", under="ignore"):
        scale = float(np.exp(-tspec.beta * E0))
    if not 0.0 < scale * Zs < math.inf:
        raise OverflowError(f"Z(beta = {tspec.beta}) = {scale * Zs} is out of the float range; "
                            "the free energy and thermal means stay finite")
    return scale


def gibbs_operator(tspec: ThermalSpec) -> np.ndarray:
    """Unnormalized exp(-beta H), as e^(-beta E0) exp(-beta (H - E0)).

    Raises OverflowError when its trace Z leaves the positive finite doubles.
    """
    E0, G = _shifted_gibbs(tspec)
    return _unshifted(tspec, E0, np.trace(G).real) * G


def partition_oracle(tspec: ThermalSpec) -> float:
    """Eigenvalue-sum partition function (Hilbert-space reference), e^(-beta E0) sum e^(-beta (E - E0)).

    Raises OverflowError when Z leaves the positive finite doubles.
    """
    w = np.linalg.eigvalsh(tspec.hamiltonian)
    Zs = float(np.sum(np.exp(-tspec.beta * (w - w[0]))))
    return _unshifted(tspec, w[0], Zs) * Zs


def _shifted_partition(tspec: ThermalSpec, grid: QuadratureGrid) -> tuple[float, float]:
    """E0 and Z_s, the phase-space integral of the Wigner symbol of exp(-beta (H - E0))."""
    E0, G = _shifted_gibbs(tspec)
    f = phase_function(G, KernelSpec(WIGNER, grid.system), grid)
    return E0, float(f.integral().real)


def partition_function(tspec: ThermalSpec, grid: QuadratureGrid) -> float:
    """Z(beta) = e^(-beta E0) Z_s, Z_s the phase-space integral of exp(-beta (H - E0)).

    Raises OverflowError when Z leaves the positive finite doubles.
    """
    E0, Zs = _shifted_partition(tspec, grid)
    return _unshifted(tspec, E0, Zs) * Zs


def thermal_mean(A: np.ndarray, tspec: ThermalSpec, grid: QuadratureGrid) -> float:
    """<A> in the thermal state, via the symbol-overlap (traciality) form.

    A must be Hermitian, so that the mean is real.  The Gibbs operator is
    taken as exp(-beta (H - E0)), E0 the ground energy, whose scale cancels.
    """
    spec = KernelSpec(WIGNER, grid.system)
    A = _operator(A, spec)
    if not is_hermitian(A):
        raise ValueError("thermal_mean needs a Hermitian observable")
    fA = phase_function(A, spec, grid)
    frho = phase_function(_shifted_gibbs(tspec)[1], spec, grid)
    Z = frho.integral().real
    return float(overlap(fA, frho).real / Z)


def free_energy(tspec: ThermalSpec, grid: QuadratureGrid) -> float:
    """F = -ln Z / beta = E0 - ln Z_s / beta (beta > 0; see ``partition_function``)."""
    if tspec.beta <= 0:
        raise ValueError("free energy needs beta > 0")
    E0, Zs = _shifted_partition(tspec, grid)
    return E0 - math.log(Zs) / tspec.beta


# ---------------------------------------------------------------------------
# Weyl-symbol moments: exact derivatives at the origin


def weyl_axes(desc: SystemDescriptor) -> tuple[str, ...]:
    """Differentiation axes of the Weyl symbol, in canonical order."""
    if isinstance(desc, HW):
        return ("alpha", "alpha_star")
    if isinstance(desc, SUN):
        return _angle_columns(desc.N, "SUN")
    raise TypeError("moment axes are defined for single HW or SUN factors")


def weyl_moments(rho: np.ndarray, desc: SystemDescriptor, multi_index: tuple[int, ...]) -> complex:
    """Operator moments from derivatives of the Weyl symbol at the origin.

    ``multi_index`` lists derivative orders per axis (see ``weyl_axes``),
    total order <= 4.  Each derivative carries a conventional factor eta:
    -1j for SU(N) angles, and for HW -1 on the "alpha" axis (the Wirtinger
    derivative with respect to alpha-bar) and +1 on "alpha_star".  The
    derivatives are taken exactly from the kernel's factors.  On SU(N) each
    Euler column x carries one factor exp(i J(k) x), so the moment is
    Tr[rho X] with X the ordered product of J(k)^m; the SU(N) Phi_1
    moment of order m is <J(3)^m>.  On HW the derivatives of D(alpha) at 0
    are symmetric-ordered words in a_dagger and -a (Cahill & Glauber 1969),
    so index (p, q) yields <S(a^p a_dagger^q)>.
    """
    axes = weyl_axes(desc)
    if len(multi_index) != len(axes):
        raise ValueError(f"multi_index must have {len(axes)} entries for {desc}")
    if any(m < 0 for m in multi_index) or sum(multi_index) > 4:
        raise ValueError("derivative orders must be >= 0 with total <= 4")
    rho = np.asarray(rho, dtype=np.complex128)
    if isinstance(desc, SUN):
        X = np.eye(dimension(desc), dtype=np.complex128)
        for k, col in _factor_table(KernelSpec(WEYL, desc)):
            X = X @ np.linalg.matrix_power(generator(desc.N, desc.M, k), multi_index[col])
        return complex(np.trace(rho @ X))
    # every word with p factors of a and q of a_dagger, in a block padded so
    # that the words' restriction to the truncated block is exact
    p, q = multi_index
    n = desc.n_max
    a = np.diag(np.sqrt(np.arange(1.0, n + p + q)), 1)
    W = {(0, 0): np.eye(n + p + q)}
    for i in range(p + 1):
        for j in range(q + 1):
            if i or j:
                W[i, j] = (W[i - 1, j] @ a if i else 0.0) + (W[i, j - 1] @ a.T if j else 0.0)
    X = W[p, q][:n, :n] / math.comb(p + q, p)
    return complex(np.trace(rho @ X))


# ---------------------------------------------------------------------------
# autocorrelations and cross-correlations


def autocorrelation(
    rho: np.ndarray, desc: SystemDescriptor, axis: str, samples
) -> np.ndarray:
    """Weyl symbol of rho along one coordinate column, the others at zero.

    The axes are the columns of the Weyl grid (``kernels._columns``): the
    Euler angles on SU(N) (``phi1``, ``theta1``, ..., ``Phi1``, ...), ``re``
    and ``im`` of alpha on the oscillator, and ``f1_...``, ``f2_...`` on a
    composite, each factor's columns with its prefix.
    """
    spec = KernelSpec(WEYL, desc)
    axes = _columns(spec)
    if axis not in axes:
        raise ValueError(f"axis {axis!r} not in {axes}")
    samples = np.asarray(samples, dtype=np.float64)
    coords = np.zeros((len(samples), len(axes)))
    coords[:, axes.index(axis)] = samples
    return symbols_at(rho, spec, coords)


@dataclass
class CrossCorrelation:
    value: complex | None
    raw_value: complex
    volume: float | None


def _shifted_grid(grid: QuadratureGrid, row) -> QuadratureGrid:
    """Same nodes and weights, coordinates offset by the row (uniform angles wrapped)."""
    if not np.any(row):  # the grid itself, whose cached pieces serve
        return grid
    factors = None
    if grid.factors:
        ends = np.cumsum([len(sub.axes) for sub in grid.factors])
        factors = tuple(_shifted_grid(sub, row[e - len(sub.axes): e])
                        for sub, e in zip(grid.factors, ends))
    axes = []
    for ax, delta in zip(grid.axes, row):
        nodes = ax.nodes + delta
        if ax.kind == "uniform":
            nodes = ax.lo + np.mod(nodes - ax.lo, ax.hi - ax.lo)
        axes.append(replace(ax, nodes=nodes))
    return replace(grid, axes=tuple(axes), factors=factors, _coords=None)


def _shifted_pair(f: PhaseFunction, row: np.ndarray):
    """Weights and the values at x + row and at x of a rule for the shifted integrand.

    Both sets are symbols of the reconstructed operator A, from ``phase_function``.
    A shift b on a plane rule is a step of the operator, exact because A lives in
    the truncated block: K(alpha + b) = D(b) K(alpha) D(b)^dagger (Wigner side) and
    D(alpha + b) = D(b/2) D(alpha) D(b/2) (Weyl side; Cahill & Glauber 1969), with D
    that factor's Weyl kernel.  The other columns shift a copy of the rule
    (``_shifted_grid``) whose moved colatitudes take ``measures._shift_rule``.
    """
    factors = f.grid.factors or (f.grid,)
    ends = np.cumsum([len(g.axes) for g in factors])
    rules = [_shift_rule(g, row[e - len(g.axes): e]) for g, e in zip(factors, ends)]
    grid = product_grid(rules) if f.grid.factors else rules[0]
    if grid.n_nodes > measures.MAX_NODES:
        raise OverflowError(
            "a shifted cross-correlation on this grid integrates on a shift rule of "
            f"{grid.n_nodes} nodes (limit {measures.MAX_NODES}); shift=None, the zero "
            "shift, integrates on the grid itself"
        )
    A, D, row = reconstruct(f), np.eye(1), row.copy()
    for g, e in zip(factors, ends):
        step = np.eye(dimension(g.system))
        if g.polar:
            b = complex(*row[e - 2: e]) * (1.0 if f.spec.side == WIGNER else 0.5)
            step, row[e - 2: e] = kernel_at(KernelSpec(WEYL, g.system), HWPoint(b)), 0.0
        D = np.kron(D, step)
    moved = D.conj().T @ A @ D if f.spec.side == WIGNER else D @ A @ D
    shifted = phase_function(moved, f.spec, _shifted_grid(grid, row))
    return grid.weights(), shifted.values, phase_function(A, f.spec, grid).values


def phase_cross_correlation(f: PhaseFunction, shift: PhasePoint | None) -> CrossCorrelation:
    """(1/V) Int f(Omega + shift) f(Omega) dOmega, V = total normalized measure.

    ``shift`` is a point of the grid's manifold (``CPPoint`` on CP grids,
    ``EulerPoint`` on SU(N) grids, ``HWPoint`` on the oscillator plane,
    ``CompositePoint`` on product grids); its coordinates are added to every
    grid row, so a point of another type or width raises ValueError.  Under
    a shift both factors are evaluated exactly through the reconstructed
    operator (see ``_shifted_pair`` for the rule a shift is integrated on);
    a rule of more than ``measures.MAX_NODES`` nodes raises OverflowError
    before any transform.  The Weyl side conjugates the unshifted factor.
    ``raw_value`` is the unnormalized integral.  On a grid of finite measure,
    ``shift=None`` (zero shift) gives the Wigner value purity / dimension for
    a density operator; on an unbounded measure (the oscillator's plane
    rule) ``value`` and ``volume`` are None and the zero-shift ``raw_value``
    is the purity.
    """
    if shift is None:
        w, first, second = f.grid.weights(), f.values, f.values
    else:
        try:
            row = _point_row(f.spec, shift)
        except TypeError as exc:  # the shift is an argument value here, as its width is
            raise ValueError(str(exc)) from None
        w, first, second = _shifted_pair(f, np.asarray(row))
    raw = _pairing(f.spec.side, w, first, second)
    if not math.isfinite(f.grid.raw_volume):
        return CrossCorrelation(None, raw, None)
    V = float(np.sum(w))
    return CrossCorrelation(raw / V, raw, V)
