"""Invertible phase-space transforms, star products, and dynamics.

The forward map sends an operator to its symbol on a grid (or, through
``symbols_at``, at the rows of any coordinate table); reconstruction
inverts it through the dual kernel (the kernel itself on the Wigner side,
the adjoint displacement on the Weyl side).  On grids whose quadrature is
exact for the relevant representation frequencies, forward-then-back is
exact to rounding.  Both contract through the pieces of
``kernels.kernel_pieces``, factor by factor on product grids, and never
build a grid's kernel stack.  They are batch-first, (B, d, d) <-> (B, n_nodes),
and each GEMM writes or reads node order, in either orientation of the axes.
An SU(N) piece has two routes, picked by a multiply-add count from the shapes:
its factored form for few operators, and its kernels formed in bounded node
blocks, one GEMM per block, for large batches (as is a composite's first
factor when it is the second stage).  A ``Polar`` piece (a plane rule, or
CP^1) contracts through its radial matrices and phases, and a square window
through its Hermite-function tables, Hx P Hy^T, axis by axis.

``symbols_at`` contracts a coordinate table of two or more rows that is a
tensor mesh through the same pieces, built from its per-axis nodes (an
oscillator factor's ``Window`` at any cutoff), and a single row or any other
table through per-row partial traces, factor by factor (an oscillator factor's
kernels take their radial factors once per distinct radius of a block of rows).
``symbol_at`` traces one ``kernel_at`` row.  Every route evaluates kernels
through ``kernels._kernels`` or its pieces; the independent constructions
they are tested against, the literal triple-kernel star product among them,
live in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import measures
from .algebra import (
    HW, SUN, Composite, SystemDescriptor, dimension, format_system, is_hermitian,
)
from .kernels import (
    WEYL, WIGNER, KernelSpec, Pieces, Polar, Window, _blocks, _check_grid, _check_width,
    _diagonals, _factor_specs, _kernel_blocks, _row_kernels, _split, _width, kernel_at,
    kernel_pieces,
)
from .measures import QuadratureGrid, cp_grid, hw_grid, plane_grid, product_grid, sun_grid
from .points import CPPoint, EulerPoint, HWPoint, PhasePoint
from .rotations import euler_angle_count, euler_rotation


@dataclass
class PhaseFunction:
    """Symbol values of an operator on the nodes of a quadrature grid."""

    spec: KernelSpec
    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        _check_grid(self.spec, self.grid)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid with "
                f"{self.grid.n_nodes} nodes"
            )

    def integral(self) -> complex:
        """The measure integral of the symbol (trace of the operator)."""
        return complex(np.dot(self.grid.weights(), self.values))


def _operator(A: np.ndarray, spec: KernelSpec) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    d = dimension(spec.system)
    if A.shape != (d, d):
        raise ValueError(f"operator must be {d}x{d} for {spec.system}, got {A.shape}")
    return A


def _rest_takes_the_batch(d1: int, n1: int, e: int, n_rest: int) -> bool:
    """Which side of K_1 (x) K_rest takes the large batch in a composite contraction.

    Contracting one side first turns B operators into B n_side operators for
    the other.  Counting about n d^2 multiply-adds per operator on a factor
    with n nodes and dimension d, the rest taking B n1 operators costs
    n1 d1^2 e^2 + n1 n_rest e^2 per operator, and factor 1 taking B n_rest
    costs n_rest e^2 d1^2 + n1 n_rest d1^2.
    """
    return n1 * (d1 * d1 + n_rest) * e * e <= n_rest * (e * e + n1) * d1 * d1


def _forward(pieces, A: np.ndarray) -> np.ndarray:
    """Tr[A K(node)] on every node for a stack of operators: (B, d, d) -> (B, n_nodes)."""
    p, rest = pieces[0], pieces[1:]
    B = len(A)
    if not rest:
        return _FORWARD[type(p)](p, A)
    # K = K_1 (x) K_rest, with A as d1 x d1 blocks of e x e operators
    d1, n1 = p.dim, p.n_nodes
    e = A.shape[-1] // d1
    n_rest = math.prod(q.n_nodes for q in rest)
    blocks = A.reshape(B, d1, e, d1, e)
    if _rest_takes_the_batch(d1, n1, e, n_rest):
        # trace the block indices against factor 1, then each node's e x e
        # partial trace against the rest
        Y = _forward(pieces[:1], blocks.transpose(0, 2, 4, 1, 3).reshape(-1, d1, d1))
        Y = Y.reshape(B, e, e, n1).transpose(0, 3, 1, 2).reshape(-1, e, e)
        return _forward(rest, Y).reshape(B, -1)
    # trace the indices within the blocks against the rest, block (a, c) at
    # row c d1 + a, then (n1, d1^2) @ (d1^2, n_rest) against factor 1's kernels
    Y = _forward(rest, blocks.transpose(0, 3, 1, 2, 4).reshape(-1, e, e)).reshape(B, -1, n_rest)
    out = np.empty((B, n1, n_rest), dtype=np.complex128)
    for nodes, K in _kernel_blocks(p):
        np.matmul(K.reshape(-1, d1 * d1), Y, out=out[:, nodes])
    return out.reshape(B, -1)


def _kernel_sum(pieces, C: np.ndarray) -> np.ndarray:
    """sum_n C[b, n] K(node n) for every row b: (B, n_nodes) -> (B, d, d)."""
    p, rest = pieces[0], pieces[1:]
    B = len(C)
    if not rest:
        return _SUM[type(p)](p, C)
    d1, n1 = p.dim, p.n_nodes
    n_rest = C.shape[1] // n1
    e = math.prod(q.dim for q in rest)
    if _rest_takes_the_batch(d1, n1, e, n_rest):
        # sum over the rest for each (b, factor-1 node), then over factor 1
        # with those e x e sums as coefficients
        S = _kernel_sum(rest, C.reshape(B * n1, n_rest)).reshape(B, n1, e * e)
        S = _kernel_sum(pieces[:1], S.transpose(0, 2, 1).reshape(-1, n1))
        return S.reshape(B, e, e, d1, d1).transpose(0, 3, 1, 4, 2).reshape(B, d1 * e, d1 * e)
    # sum factor 1's kernels for each (b, rest node), (d1^2, n1) @ (n1, n_rest),
    # then over the rest with those d1 x d1 sums as coefficients
    C = C.reshape(B, n1, n_rest)
    S = sum(K.reshape(-1, d1 * d1).T @ C[:, nodes] for nodes, K in _kernel_blocks(p))
    S = _kernel_sum(rest, S.reshape(-1, n_rest))
    return S.reshape(B, d1, d1, e, e).transpose(0, 1, 3, 2, 4).reshape(B, d1 * e, d1 * e)


def _pieces_dense(p: Pieces, B: int) -> bool:
    """Whether forming the kernels beats the factored route for B operators.

    The factored route multiplies each operator with every left piece,
    B n_left d^3 (twice on the Wigner sandwich); forming the kernels costs
    n_left n_right d^3 once.  Both then run the same GEMM.
    """
    return B > len(p.right)


def _pieces_forward(p: Pieces, A: np.ndarray) -> np.ndarray:
    L, R = p.left, p.right
    B, d = len(A), p.dim
    if _pieces_dense(p, B):
        At = np.swapaxes(A, 1, 2).reshape(B, d * d)  # Tr[A K] = sum A^T * K
        out = np.empty((B, p.n_nodes), dtype=np.complex128)
        for nodes, K in _kernel_blocks(p):
            out[:, nodes] = At @ K.reshape(-1, d * d).T
        return out
    # Tr[A K] = Tr[X R] with X = A L, or X = L^dagger A L on the sandwich;
    # X^T = L^T A^T (conj L) against R's rows makes one GEMM that writes
    # (B, n_left, n_right), node order
    X = (np.swapaxes(L, 1, 2).reshape(-1, d) @ np.swapaxes(A, 1, 2)).reshape(B, len(L), d, d)
    if p.sandwich:
        X = X @ np.conj(L)
    return (X.reshape(-1, d * d) @ R.reshape(len(R), d * d).T).reshape(B, -1)


def _pieces_sum(p: Pieces, C: np.ndarray) -> np.ndarray:
    L, R = p.left, p.right
    B, d = len(C), p.dim
    if _pieces_dense(p, B):
        S = sum(C[:, nodes] @ K.reshape(-1, d * d) for nodes, K in _kernel_blocks(p))
        return S.reshape(B, d, d)
    # sum_l L_l Q_l with Q_l = sum_r C_lr R_r (times L_l^dagger on the sandwich):
    # GEMMs (B n_left, n_right) @ (n_right, d^2), then (d, n_left d) @ (n_left d, d)
    Q = (C.reshape(-1, len(R)) @ R.reshape(len(R), d * d)).reshape(B, len(L), d, d)
    if p.sandwich:
        Q = Q @ np.conj(np.swapaxes(L, 1, 2))
    return np.swapaxes(L, 0, 1).reshape(d, -1) @ Q.reshape(B, -1, d)


def _polar_forward(p: Polar, A: np.ndarray) -> np.ndarray:
    # c_k(r) = sum_{m - n = k} R_mn(r) A_nm, one real GEMM per diagonal k with the
    # operators as real pairs (last axis 2B); then sum_k c_k(r) e^{i k psi}, one GEMM
    # per operator, c_b @ phases^T, that writes node order (phases @ c_b^T on CP^1)
    B, d = len(A), p.dim
    m, n, spans, _ = _diagonals(d)
    a = np.ascontiguousarray(A[:, n, m].T).view(np.float64)  # A_nm at diagonal-major (m, n)
    c = np.empty((len(p.radial), 2 * d - 1, 2 * B))
    for k, s in enumerate(spans):
        np.matmul(p.radial[:, s], a[s], out=c[:, k])
    del a  # not alive beside the output
    out = np.empty((B, p.n_nodes), dtype=np.complex128)
    np.matmul(c.view(np.complex128).transpose(2, 0, 1), p.phases.T, out=p.by_radius(out))
    return out


def _polar_sum(p: Polar, C: np.ndarray) -> np.ndarray:
    # g_k(r) = sum_psi C e^{i k psi}: one GEMM per operator that reads node order and
    # writes g's (n_r, 2d - 1, B) layout; then S = sum_r R(r) g(r), the adjoint of the
    # forward's real GEMMs per diagonal
    B, d = len(C), p.dim
    _, _, spans, to_c = _diagonals(d)
    g = np.empty((len(p.radial), 2 * d - 1, B), dtype=np.complex128)
    np.matmul(p.by_radius(C), p.phases, out=g.transpose(2, 0, 1))
    S = np.empty((d * d, 2 * B))
    for k, s in enumerate(spans):
        np.matmul(p.radial[:, s].T, g.view(np.float64)[:, k], out=S[s])
    return S.view(np.complex128)[to_c].T.reshape(B, d, d)


def _window_forward(p: Window, A: np.ndarray) -> np.ndarray:
    t, B, d = p.transfer, len(A), p.dim
    D = len(t.anti)
    # P_b[a, N - a] = sum over the elements (m, n) of order N of A_nm T_mn^a,
    # one GEMM per order (every entry of P written once, see HermiteTransfer),
    # then Hx P_b Hy^T, the last product a real GEMM that writes (n_x, n_y)
    # in node order
    P = np.empty((B, D, D), dtype=np.complex128)
    P[:, np.arange(D), t.anti] = np.matmul(
        A.reshape(B, d * d)[:, t.take].transpose(1, 0, 2), t.table.transpose(0, 2, 1)
    ).transpose(1, 0, 2)
    Q = np.matmul(P, p.hy.T)  # (B, D, n_y)
    out = np.empty((B, p.n_nodes), dtype=np.complex128)
    np.matmul(p.hx, Q.view(np.float64), out=out.view(np.float64).reshape(B, len(p.hx), -1))
    return out


def _window_sum(p: Window, C: np.ndarray) -> np.ndarray:
    t, B, d = p.transfer, len(C), p.dim
    # G_b = Hx^T C_b Hy (the first product a real GEMM reading C in node
    # order), then S_mn = sum_a T_mn^a G_b[a, m + n - a], one GEMM per order
    C = np.ascontiguousarray(C, dtype=np.complex128).view(np.float64)
    G = np.matmul(np.matmul(p.hx.T, C.reshape(B, len(p.hx), -1)).view(np.complex128), p.hy)
    S = np.matmul(G[:, np.arange(len(t.anti)), t.anti].transpose(1, 0, 2), t.table)
    return S.transpose(1, 0, 2).reshape(B, -1)[:, t.where].reshape(B, d, d)


_FORWARD = {Pieces: _pieces_forward, Polar: _polar_forward, Window: _window_forward}
_SUM = {Pieces: _pieces_sum, Polar: _polar_sum, Window: _window_sum}


def _grid_pieces(spec: KernelSpec, grid: QuadratureGrid) -> tuple:
    """``kernel_pieces`` of a grid whose node-sized results fit, checked before any piece."""
    grid._check_materializable()
    return kernel_pieces(spec, grid)


def phase_function(A: np.ndarray, spec: KernelSpec, grid: QuadratureGrid) -> PhaseFunction:
    """Forward transform: values Tr[A K(node)] on every grid node."""
    A = _operator(A, spec)
    return PhaseFunction(spec, grid, _forward(_grid_pieces(spec, grid), A[None])[0])


def symbol_at(A: np.ndarray, spec: KernelSpec, point: PhasePoint) -> complex:
    """Forward transform at a single explicit point (no grid)."""
    return complex(np.trace(_operator(A, spec) @ kernel_at(spec, point)))


def _mesh(coords: np.ndarray) -> list[np.ndarray] | None:
    """Per-axis nodes of a coordinate table that is a tensor mesh, else None.

    Column c takes n_c distinct values.  Read in C order over (n_1, n_2, ...),
    the table is a mesh when each column varies along its own axis only; the
    nodes keep the table's order along their axis, sorted or not.
    """
    counts = [1 + int(np.count_nonzero(np.diff(np.sort(col)))) for col in coords.T]
    if math.prod(counts) != len(coords):
        return None
    nodes = []
    for c, col in enumerate(coords.T):
        col = np.moveaxis(col.reshape(counts), c, -1)
        line = col[(0,) * (len(counts) - 1)]
        if not np.array_equal(col, np.broadcast_to(line, col.shape)):
            return None
        nodes.append(line.copy())
    return nodes


def _mesh_pieces(spec: KernelSpec, nodes) -> tuple | None:
    """The pieces of every factor on a mesh of per-axis nodes (not cached).

    An oscillator factor's are a ``Window``.  None, for pieces over
    ``MAX_STACK_BYTES``, sends the table to the partial traces.
    """
    pieces, at = [], 0
    try:
        for sub in _factor_specs(spec):
            pieces.append(_split(sub, nodes[at:at + _width(sub)]))
            at += _width(sub)
    except OverflowError:
        return None
    return tuple(pieces)


def _partial_trace_rows(A: np.ndarray, spec: KernelSpec, coords: np.ndarray) -> np.ndarray:
    """Tr[A K(row)] by partial traces, factor by factor (one factor for a single system).

    Tr[A (K_1 (x) K_rest)] = Tr[Tr_1[A (K_1 (x) 1)] K_rest]: factor 1's
    kernels turn A into one operator on the rest per row, and so on down to
    the last factor, in blocks of rows; no row's full kernel is formed.  A's
    indices are reordered once to (c_1, a_1, c_2, a_2, ...), column before
    row per factor, so every partial trace reads its operators in place.
    """
    subs = _factor_specs(spec)
    dims = [dimension(sub.system) for sub in subs]
    k = len(dims)
    X0 = A.reshape(dims + dims).transpose([i for f in range(k) for i in (k + f, f)])
    X0 = X0.reshape(dims[0] ** 2, -1)
    out = np.empty(len(coords), dtype=np.complex128)
    for start, stop in _blocks(len(coords), 16 * (X0.shape[1] + sum(d * d for d in dims))):
        X, at = None, 0
        for sub, d in zip(subs, dims):
            K = _row_kernels(sub, coords[start:stop, at:at + _width(sub)])
            at += _width(sub)
            # sum over (c, a) of K[c, a] X[(c, a), rest]
            if X is None:
                X = K.reshape(-1, d * d) @ X0
            else:
                X = np.matmul(K.reshape(-1, 1, d * d), X.reshape(len(X), d * d, -1))
            del K  # not alive while the next kernels are formed
        out[start:stop] = X.reshape(-1)
    return out


def symbols_at(A: np.ndarray, spec: KernelSpec, coords) -> np.ndarray:
    """Forward transform Tr[A K(row)] at every row of a coordinate table.

    ``coords`` has one row per point in the column layout of the matching
    grid (``grid.coords()``; composite rows concatenate the factor columns).
    A table of two or more rows that is a tensor mesh in C order (each column
    varying along its own axis, as ``grid.coords()`` and
    ``np.meshgrid(..., indexing="ij")`` lay it out) contracts through the
    kernels' factor pieces, as a grid does: an oscillator factor through its
    ``Window``, whatever the cutoff.  A single row, and every table that is
    no mesh, contracts through per-factor partial traces in blocks of at most
    ``kernels.BLOCK_BYTES``, so memory stays bounded whatever the table size.
    A single row is one kernel per factor there, cheaper than even a warm
    ``Window`` (half its time at hw:40) and building no transfer table.
    """
    A = _operator(A, spec)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError(f"coords must be a 2-D table of rows, got shape {coords.shape}")
    _check_width(spec, coords.shape[1])
    bad = ~np.isfinite(coords).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"coordinate row {i} is not finite: {coords[i].tolist()}")
    nodes = _mesh(coords) if len(coords) > 1 else None
    pieces = _mesh_pieces(spec, nodes) if nodes is not None else None
    if pieces is not None:
        return _forward(pieces, A[None])[0]
    return _partial_trace_rows(A, spec, coords)


def _reconstructed(spec: KernelSpec, grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
    """Operators of the symbols in the rows of ``values``: (B, n_nodes) -> (B, d, d)."""
    pieces = _grid_pieces(spec, grid)
    wv = values * grid.weights()
    if spec.side == WIGNER:
        return _kernel_sum(pieces, wv)
    # Weyl side reconstructs through the adjoint displacement:
    # sum w f K^dagger = (sum conj(w f) K)^dagger
    return np.conj(np.swapaxes(_kernel_sum(pieces, np.conj(wv, out=wv)), 1, 2))


def reconstruct(f: PhaseFunction) -> np.ndarray:
    """Inverse transform: operator from its symbol by dual-kernel quadrature."""
    return _reconstructed(f.spec, f.grid, f.values[None])[0]


def generalized_fourier(
    f: PhaseFunction, target_spec: KernelSpec, target_grid: QuadratureGrid
) -> PhaseFunction:
    """Bridge between symbol families of the same system.

    Target values are sum_s w_s f_s Tr[K_target(t) K_source^dagger(s)];
    evaluated in the factorized form Tr[K_target(t) . reconstruct(f)], which
    is the same double sum reassociated.
    """
    if target_spec.system != f.spec.system:
        raise ValueError("generalized_fourier bridges symbol families of one system")
    A = reconstruct(f)
    return phase_function(A, target_spec, target_grid)


def overlap(fA: PhaseFunction, fB: PhaseFunction) -> complex:
    """Trace pairing from symbols on a shared grid.

    Wigner side: sum w a b = Tr[AB] (self-dual kernel).  Weyl side the dual
    enters through conjugation: sum w a conj(b) = Tr[A B^dagger].
    """
    _require_same_frame(fA, fB)
    return _pairing(fA.spec.side, fA.grid.weights(), fA.values, fB.values)


def _pairing(side: str, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """The side's dual pairing of symbol values: sum w a b (Wigner), sum w a conj(b) (Weyl)."""
    return complex(np.sum(w * a * (b if side == WIGNER else np.conj(b))))


def _require_same_frame(fA: PhaseFunction, fB: PhaseFunction) -> None:
    if fA.grid is not fB.grid or fA.spec != fB.spec:
        raise ValueError("phase functions must share one grid and kernel spec")


def star_product(fA: PhaseFunction, fB: PhaseFunction) -> PhaseFunction:
    """Symbol of the operator product.

    Reconstructs both operators, multiplies, and transforms back; where the
    round trip is exact this is the triple-kernel quadrature
    sum_{s,r} w_s w_r fA(s) fB(r) Tr[K(t) K(s)^dagger K(r)^dagger] to rounding.
    """
    _require_same_frame(fA, fB)
    A = reconstruct(fA)
    B = reconstruct(fB)
    return phase_function(A @ B, fA.spec, fA.grid)


def moyal_bracket(fA: PhaseFunction, fB: PhaseFunction) -> PhaseFunction:
    """Symbol of the commutator, fA * fB - fB * fA, as one transform of [A, B]."""
    _require_same_frame(fA, fB)
    A, B = reconstruct(fA), reconstruct(fB)
    return phase_function(A @ B - B @ A, fA.spec, fA.grid)


@dataclass
class EvolveResult:
    times: np.ndarray
    frames: list[np.ndarray]
    final: PhaseFunction
    trace_drift: float
    purity_drift: float


def _frame_times(t_final: float, dt: float, n_frames: int, n_nodes: int) -> list[float]:
    """Times of the frames ``evolve`` stores after the initial one, checked before any transform.

    The fewest equal steps no longer than dt end on t_final; with k =
    min(n_frames or 1, n_steps), steps ceil(i n_steps / k), i = 1 .. k, are
    stored.  A non-finite dt, t_final or t_final / dt and a negative n_frames
    raise ValueError, and frames of n_nodes over ``measures.MAX_NODES`` values
    OverflowError.
    """
    if not (0 < dt < math.inf and 0 <= t_final < math.inf and t_final / dt < math.inf):
        raise ValueError(
            f"need a finite dt > 0 and t_final >= 0 with a finite t_final / dt, "
            f"got dt={dt}, t_final={t_final}"
        )
    if n_frames < 0:
        raise ValueError(f"the frame count must be >= 0, got {n_frames}")
    n_steps = math.ceil(t_final / dt * (1.0 - 1e-12))  # t_final / dt, to rounding, if whole
    k = min(n_frames or 1, n_steps)
    if (1 + k) * n_nodes > measures.MAX_NODES:  # v0 and the stored frames
        raise OverflowError(f"evolve would hold {1 + k} frames of {n_nodes} nodes (limit "
                            f"{measures.MAX_NODES} values); lower --frames or raise --dt")
    step = t_final / max(n_steps, 1)
    return [t_final if i == k else -(-i * n_steps // k) * step for i in range(1, k + 1)]


def evolve(
    f_rho: PhaseFunction,
    f_H: PhaseFunction,
    t_final: float,
    dt: float,
    n_frames: int = 0,
) -> EvolveResult:
    """Exact solution of d(values)/dt = -i {{W_H, W_rho}} (hbar = 1) at frame times.

    The Moyal equation is the von Neumann equation in another picture, and H
    does not depend on time, so with H = V diag(E) V^dagger the reconstructed
    operator at time t is R(t) = V (V^dagger R V o e^{-i (E_j - E_k) t}) V^dagger:
    one ``eigh`` and no time steps.  Only the stored frames and the final
    state are transformed back, so neither the grid work nor the operator work
    grows with t_final / dt.  ``dt`` is the frame lattice: the fewest equal
    steps no longer than ``dt`` end on ``t_final``, and besides the initial
    frame ``n_frames`` frames are stored, evenly spaced over the steps, the
    last at ``t_final`` (every step if there are fewer; with 0, only the
    final one).  ``trace_drift`` and ``purity_drift`` are measured on the
    symbols.  The guards of ``_frame_times`` and a Hamiltonian whose
    reconstruction is not Hermitian (ValueError) fire before any transform; a
    grid whose round trip misses f_rho or f_H by more than 1e-6, relative to
    max(1, max|f|), raises RuntimeError naming the grid before any frame.
    """
    _require_same_frame(f_rho, f_H)
    spec, grid = f_rho.spec, f_rho.grid
    times = [0.0, *_frame_times(t_final, dt, n_frames, grid.n_nodes)]
    R, H = _reconstructed(spec, grid, np.stack([f_rho.values, f_H.values]))
    if not is_hermitian(H):
        raise ValueError("the Hamiltonian must be Hermitian: reconstruct(f_H) is not")
    pieces = _grid_pieces(spec, grid)
    v0, h, tr_K = _forward(pieces, np.stack([R, H, np.eye(len(H))]))
    for name, f, back in (("state", f_rho.values, v0), ("Hamiltonian", f_H.values, h)):
        miss = float(np.max(np.abs(back - f))) / max(1.0, float(np.max(np.abs(f))))
        if miss > 1e-6:
            raise RuntimeError(
                f"the grid misses the {name}'s round trip by {miss:.1e}, over 1.0e-06; "
                "refine it (--grid-res/--radius)"
            )

    E, V = np.linalg.eigh(H)
    t = np.asarray(times[1:])[:, None, None]
    stored = V @ ((V.conj().T @ R @ V) * np.exp(-1j * t * (E[:, None] - E))) @ V.conj().T
    frames = [v0, *(_forward(pieces, stored) if len(times) > 1 else [])]
    v = frames[-1]

    w = grid.weights()
    # Tr[reconstruct(f)] = sum_s w_s f_s Tr[dual kernel at s]
    trace_w = w * (tr_K if spec.side == WIGNER else np.conj(tr_K))
    purity0 = _pairing(spec.side, w, v0, v0)
    purity1 = _pairing(spec.side, w, v, v)
    return EvolveResult(
        np.asarray(times), frames, PhaseFunction(spec, grid, v),
        abs(complex(np.dot(trace_w, v - v0))), abs(purity1 - purity0),
    )


# ---------------------------------------------------------------------------
# Stratonovich-Weyl verification


@dataclass
class ConditionReport:
    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tolerance)


@dataclass
class VerifyReport:
    system: SystemDescriptor
    side: str
    rotation: str
    conditions: list[ConditionReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def as_dict(self) -> dict:
        return {
            "system": format_system(self.system),
            "side": self.side,
            "rotation": self.rotation,
            "passed": self.passed,
            "conditions": [{**asdict(c), "passed": c.passed} for c in self.conditions],
        }


def default_grid(desc: SystemDescriptor, side: str, resolution: int | None = None,
                 radius: float | None = None) -> QuadratureGrid:
    """The natural grid for a kernel family: SU(N) at pairs, CP at quads, the plane rule for HW.

    The oscillator's default is ``plane_grid``, exact by construction: d
    Gauss-Laguerre radii on the Weyl side (hw:12: 276 nodes) and enough for
    the single-kernel moments on the Wigner side (hw:12: 782, hw:20: 1,716
    nodes), times 2d - 1 angles.  A ``resolution`` selects the square
    ``hw_grid`` window instead, of half-width ``radius`` (default
    sqrt(n_max) + 3 on the Wigner side, 2 sqrt(n_max) + 3 on the Weyl side);
    a radius without a resolution raises ValueError.  An SU(N) factor takes
    ``cp_grid`` (Wigner) or ``sun_grid`` (Weyl), whose CP^(N-1) and SU(2)
    angles hold the least odd count above half the chart's degree, since
    every frequency they keep is even or at most half of it.  There a
    ``resolution`` is the colatitudes' node count, and every angle takes the
    least odd count at or above both it and its default.  Identical factors
    of a composite share one factor grid, and so its cached kernel pieces.
    """
    if isinstance(desc, HW):
        if resolution is None:
            if radius is not None:
                raise ValueError("an oscillator window radius needs a resolution (--grid-res)")
            return plane_grid(desc, side)
        root = math.sqrt(desc.n_max)
        default_radius = root + 3.0 if side == WIGNER else 2.0 * root + 3.0
        return hw_grid(desc, radius if radius is not None else default_radius, resolution)
    if isinstance(desc, SUN):
        if side == WIGNER:
            return cp_grid(desc, resolution)
        return sun_grid(desc, resolution)
    grids = {f: default_grid(f, side, resolution, radius) for f in dict.fromkeys(desc.factors)}
    return product_grid(tuple(grids[f] for f in desc.factors))


def _family_grid(spec: KernelSpec, resolution: int | None = None,
                 radius: float | None = None) -> QuadratureGrid:
    """``default_grid`` of the spec's kernels, or the CP grid for the two-angle arecchi family."""
    if spec.rotation == "arecchi":
        return cp_grid(spec.system, resolution)
    return default_grid(spec.system, spec.side, resolution, radius)


def _random_hermitian(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def _compose_cp_point(desc: SUN, v: EulerPoint, omega: CPPoint) -> CPPoint:
    """CP coordinates of U(v) U(omega) acting on the lowest-weight state.

    Works through the defining representation, where the chart is nested
    spherical coordinates of the rotated last basis column psi = G e_N
    (Tilma & Sudarshan, J. Phys. A 35 (2002) 10467).  The factor pair p
    rotates the running first component w into psi_p as w cos(theta)
    e^{i phi} and -w sin(theta) (times e^{-i phi} at p = 2), so the pairs are
    peeled from the left, p = 2 .. N - 1, and the last pair rotates e_N into
    e_1 with the opposite sign.  The overall phase of psi drops out.
    """
    N = desc.N
    fund = SUN(N, 1)
    # the CP^(N-1) pairs are the leading Euler pairs; the rest of the row is zero
    omega_full = EulerPoint.from_row(omega.row() + (0.0,) * (N - 1) ** 2)
    psi = (euler_rotation(fund, v) @ euler_rotation(fund, omega_full))[:, -1]
    phi, theta = [], []
    w = complex(psi[0])
    for p in range(1, N):
        last = p == N - 1
        out = complex(psi[p] if last else -psi[p])  # what pair p took out of w
        phase = cmath.phase(w) - cmath.phase(out)
        phi.append(0.5 * phase if p == 1 else phase)
        theta.append(math.atan2(abs(w), abs(out)) if last else math.atan2(abs(out), abs(w)))
        w = cmath.rect(math.hypot(abs(w), abs(out)), cmath.phase(w) - phi[-1])
    return CPPoint(tuple(phi), tuple(theta))


def verify_stratonovich(
    desc: SystemDescriptor,
    side: str,
    grid: QuadratureGrid | None = None,
    rotation: str = "euler",
    seed: int = 0,
) -> VerifyReport:
    """Residuals for the Stratonovich-Weyl conditions of a kernel family.

    Wigner side: linear invertibility, reality, kernel normalization,
    standardization, traciality, and covariance (HW and every SUN(N, M), and
    on a composite every factor's).  Weyl side: the completeness
    round trip and the symbol at the origin against the trace.  Two seeded
    Hermitian probes take one forward transform together, and their symbols
    with the unit symbol (which reconstructs to sum w K) one reconstruction;
    every grid condition reads those rows.  The grid conditions gate at
    1e-10, or at 1e-4 on a grid with a square oscillator window (level
    "window"), which carries the window's truncation error; covariance works
    off the grid, the oscillator's in a padded block, and gates at 1e-10.
    """
    spec = KernelSpec(side, desc, rotation)
    if grid is None:
        grid = _family_grid(spec)
    tol = 1e-4 if "window" in grid.exactness.split(",") else 1e-10
    rng = np.random.default_rng(seed)
    d = dimension(desc)
    report = VerifyReport(desc, side, rotation)

    probes = np.stack([_random_hermitian(d, rng) for _ in range(2)])
    traces = np.trace(probes, axis1=1, axis2=2)
    values = _forward(_grid_pieces(spec, grid), probes)
    # the unit symbol reconstructs to sum w K, the Wigner side's kernel normalization
    back = _reconstructed(spec, grid, np.vstack([values, np.ones(grid.n_nodes)]))

    # invertibility / completeness
    err = np.max(np.abs(back[:2] - probes))
    report.conditions.append(
        ConditionReport("completeness" if side == WEYL else "linear_invertibility", err, tol))
    if side == WEYL:
        # standardization at the origin
        origin = np.zeros((1, len(grid.axes)))
        err = max(abs(symbols_at(A, spec, origin)[0] - t) for A, t in zip(probes, traces))
        report.conditions.append(ConditionReport("origin_trace", err, tol))
        return report

    w = grid.weights()
    report.conditions += [
        # reality of Hermitian symbols
        ConditionReport("reality", np.max(np.abs(values.imag)), tol),
        # standardization: kernel normalization and symbol integral
        ConditionReport("kernel_normalization", np.max(np.abs(back[2] - np.eye(d))), tol),
        ConditionReport("standardization", np.max(np.abs(values @ w - traces)), tol),
        ConditionReport("traciality",
                        abs(_pairing(side, w, *values) - np.trace(probes[0] @ probes[1])), tol),
        ConditionReport("covariance", _covariance_residual(spec, rng), 1e-10),
    ]
    return report


def _covariance_residual(spec: KernelSpec, rng) -> float:
    """max |V K(Omega) V^dagger - K(Omega')| over random rotations.

    V1 (x) V2 acts factor by factor, (V1 (x) V2)(K1 (x) K2)(V1 (x) V2)^dagger =
    (V1 K1 V1^dagger) (x) (V2 K2 V2^dagger): a composite's is its factors' largest.
    """
    desc = spec.system
    if isinstance(desc, Composite):
        return max(_covariance_residual(sub, rng) for sub in _factor_specs(spec))
    if isinstance(desc, HW):
        # Kernel-level covariance cannot hold entrywise near the Fock cutoff
        # (the group action leaks out of the truncated block), so the check
        # is made at the symbol level: W_{V rho V^dag}(a) = W_rho(a - b) for
        # probes concentrated well below the cutoff and modest shifts b.
        # V rho V^dag is formed and sampled in a block padded by 24 levels,
        # where the elements below the cutoff are the untruncated ones.
        n = desc.n_max + 24
        padded = KernelSpec(spec.side, HW(n))
        q = max(2, desc.n_max // 4)
        low = np.zeros((n, n), dtype=np.complex128)
        low[:q, :q] = _random_hermitian(q, rng)
        ab = [(complex(*(0.8 * rng.standard_normal(2))), complex(*rng.uniform(0.2, 0.6, 2)))
              for _ in range(3)]
        rhs = symbols_at(low, padded, [(a.real - b.real, a.imag - b.imag) for a, b in ab])
        err = 0.0
        for (a, b), r in zip(ab, rhs):
            V = kernel_at(KernelSpec(WEYL, HW(n)), HWPoint(b))
            lhs = symbols_at(V @ low @ V.conj().T, padded, [(a.real, a.imag)])[0]
            err = max(err, abs(lhs - r))
        return err
    n_pairs, n_cartan = euler_angle_count(desc.N)
    err = 0.0
    for _ in range(3):
        v = EulerPoint(
            tuple(rng.uniform(0, 2 * math.pi, n_pairs)),
            tuple(rng.uniform(0, 0.5 * math.pi, n_pairs)),
            tuple(rng.uniform(0, 2 * math.pi, n_cartan)),
        )
        omega = CPPoint(
            tuple(rng.uniform(0, 2 * math.pi, desc.N - 1)),
            tuple(rng.uniform(0.1, 0.5 * math.pi - 0.1, desc.N - 1)),
        )
        V = euler_rotation(desc, v)
        K1 = V @ kernel_at(spec, omega) @ V.conj().T
        K2 = kernel_at(spec, _compose_cp_point(desc, v, omega))
        err = max(err, float(np.max(np.abs(K1 - K2))))
    return err
