"""Constructions the package is tested against, independent of its kernel evaluator.

``wignerweyl.kernels._kernels`` (with the pieces the transforms contract
through) is the package's only kernel evaluator.  The references here share
none of its code:

- SU(N) kernels are products of ``scipy.linalg.expm`` of the generators in
  the chart's documented factor sequence, with the parity rotated on the
  Wigner side;
- oscillator kernels are the Laguerre closed form, with scipy's Laguerre
  polynomials and log-gamma, and the window's Hermite transfer table is
  summed in integers from the modes' leading homogeneous parts;
- the Laguerre functions e^(-x/2) L_j(x) come from their three-term
  recurrence (``laguerre_functions``);
- composite kernels are ``np.kron`` products of the factor kernels;
- a grid's kernel stack is these kernels node by node, and a product grid's
  the ``np.kron`` product of its factors' stacks (``kernel_stack``);
- the arecchi family is ``rotations.arecchi_rotation``, exp(xi J+ - xi* J-);
- the star product is the literal triple-kernel quadrature over these kernels;
- the parity's Cartan weights are its trace projections on the diagonal
  generators;
- the uniform angle counts of the CP^(N-1) and SU(N) grids are the least
  counts that alias no surviving frequency, from the generators' eigenvalues;
- a grid's exactness certificate reconstructs all d^2 matrix units through
  the package's batched transforms, the one check here that uses them.
"""

import functools
import itertools
import math

import numpy as np
import scipy.linalg
from scipy.special import eval_genlaguerre, gammaln, xlogy

from wignerweyl import (
    HW,
    Composite,
    KernelSpec,
    PhaseFunction,
    arecchi_rotation,
    diagonal_generator,
    dimension,
    generator,
    parity,
)


def _expi(N: int, M: int, k: int, x: float) -> np.ndarray:
    return scipy.linalg.expm(1j * x * generator(N, M, k))


def cp_rotation(desc, phi, theta) -> np.ndarray:
    """prod_j e^{i J3 phi_j} e^{i J(j^2 + 1) theta_j}, j = 1 .. N-1: the CP^(N-1) chart."""
    U = np.eye(dimension(desc), dtype=complex)
    for j, (f, t) in enumerate(zip(phi, theta, strict=True), start=1):
        U = U @ _expi(desc.N, desc.M, 3, f) @ _expi(desc.N, desc.M, j * j + 1, t)
    return U


def euler_rotation(desc, phi, theta, Phi) -> np.ndarray:
    """The SU(N) Euler chain: pairs over blocks q = N .. 2 with inner p = 2 .. q, then Cartan angles.

    Pair t is e^{i J3 phi_t} e^{i J((p-1)^2 + 1) theta_t}; Cartan angle c is
    e^{i J((c+1)^2 - 1) Phi_c}.
    """
    N, M = desc.N, desc.M
    gens = [(p - 1) ** 2 + 1 for q in range(N, 1, -1) for p in range(2, q + 1)]
    U = np.eye(dimension(desc), dtype=complex)
    for k, f, t in zip(gens, phi, theta, strict=True):
        U = U @ _expi(N, M, 3, f) @ _expi(N, M, k, t)
    for c, x in enumerate(Phi, start=1):
        U = U @ _expi(N, M, (c + 1) ** 2 - 1, x)
    return U


def hw_kernels(n_max: int, alphas, side: str) -> np.ndarray:
    """Oscillator kernels at alphas from the closed form: alphas.shape + (n_max, n_max).

    Weyl side, at z = alpha: <m|D(z)|n> = sqrt(n!/m!) z^(m-n) e^{-|z|^2/2}
    L_n^(m-n)(|z|^2) for m >= n, and sqrt(m!/n!) (-conj z)^(n-m) e^{-|z|^2/2}
    L_m^(n-m)(|z|^2) for m < n (Cahill & Glauber 1969).  Wigner side:
    2 D(alpha) P D(alpha)^dagger = 2 D(2 alpha) P, P = diag((-1)^n).
    """
    z = np.asarray(alphas, dtype=complex)[..., None, None] * (2.0 if side == "wigner" else 1.0)
    m, n = np.arange(n_max)[:, None], np.arange(n_max)[None, :]
    lo, k = np.minimum(m, n), np.abs(m - n)
    r = np.abs(z)
    log_radial = xlogy(k, r) + 0.5 * (gammaln(lo + 1.0) - gammaln(lo + k + 1.0)) - 0.5 * r * r
    K = np.exp(log_radial) * eval_genlaguerre(lo, k, r * r) * np.exp(1j * (m - n) * np.angle(z))
    K = K * np.where(n > m, (-1.0) ** k, 1.0)
    if side == "wigner":
        K = K * 2.0 * (-1.0) ** n
    return K


def laguerre_functions(n: int, x: np.ndarray) -> np.ndarray:
    """e^(-x/2) L_j(x) for j = 0 .. n, one row each (bounded by 1 for x >= 0), in x's dtype."""
    out = np.empty((n + 1, len(x)), dtype=x.dtype)
    out[0] = np.exp(-0.5 * x)
    out[1] = (1.0 - x) * out[0]
    for k in range(1, n):
        out[k + 1] = ((2 * k + 1 - x) * out[k] - k * out[k - 1]) / (k + 1)
    return out


def hermite_transfer_table(d: int, side: str) -> np.ndarray:
    """The ``table`` of ``kernels.HermiteTransfer`` from integer Krawtchouk sums.

    Only the leading homogeneous part of a mode fixes its coefficients: that
    of <m|D(beta)|n> e^{|beta|^2/2} is beta^m (-conj beta)^n / sqrt(m! n!)
    (normal order, e^{beta a^dagger} e^{-conj(beta) a}), and that of
    h_a(u) h_b(v) e^{(u^2+v^2)/2} is 2^{N/2} u^a v^b / sqrt(pi a! b!).  The
    coefficient of u^a v^b in (u + i v)^m (u - i v)^n is i^b k_b, with k_b the
    coefficient of t^b in (1 + t)^m (1 - t)^n.  The k_b are summed in
    integers and k_b^2 a! b! / (m! n! 2^N) is divided exactly before its
    square root, so every coefficient is within a few roundings of exact,
    where a float Krawtchouk sum would cancel.  Wigner elements carry
    2 (-1)^n on top: 2 D(2 alpha) P.
    """
    D = 2 * d - 1
    fact = [math.factorial(k) for k in range(D)]
    table = np.zeros((D, D, d), dtype=np.complex128)
    for N in range(D):
        lo, hi = max(0, N - d + 1), min(N, d - 1)
        # k_b of (1 + t)^(N - lo) (1 - t)^lo, then times (1 - t)/(1 + t) per step in n
        k = [sum(math.comb(N - lo, j) * math.comb(lo, b - j) * (-1) ** (b - j)
                 for j in range(max(0, b - lo), min(b, N - lo) + 1)) for b in range(N + 1)]
        for i, n in enumerate(range(lo, hi + 1)):
            if i:
                q = list(itertools.accumulate(k, lambda prev, c: c - prev))
                k = [q[0]] + [q[b] - q[b - 1] for b in range(1, N + 1)]
            sign = 2.0 if side == "wigner" else (-1.0) ** n
            den = fact[N - n] * fact[n] << N
            for b, kb in enumerate(k):
                if kb:
                    v = math.sqrt(kb * kb * fact[N - b] * fact[b] / den) * math.sqrt(math.pi)
                    table[N, N - b, i] = math.copysign(v, kb) * sign * 1j ** (b % 4)
    return table


def kernel(spec: KernelSpec, point) -> np.ndarray:
    """The kernel of a family at one typed point."""
    desc = spec.system
    if isinstance(desc, Composite):
        out = np.ones((1, 1))
        for f, p in zip(desc.factors, point.points, strict=True):
            out = np.kron(out, kernel(KernelSpec(spec.side, f), p))
        return out
    if isinstance(desc, HW):
        return hw_kernels(desc.n_max, point.alpha, spec.side)
    if spec.rotation == "arecchi":
        (phi,), (theta,) = point.phi, point.theta
        return arecchi_rotation(desc, phi, theta)
    if spec.side == "weyl":
        return euler_rotation(desc, point.phi, point.theta, point.Phi)
    U = cp_rotation(desc, point.phi, point.theta)
    return U @ parity(desc) @ U.conj().T


def kernel_stack(spec: KernelSpec, grid) -> np.ndarray:
    """Every kernel of a grid in node order: (n_nodes, d, d).

    An oscillator grid takes the closed form at its (re, im) rows at once;
    every other family takes ``kernel`` node by node.  A product grid's stack
    is the ``np.kron`` product of its factors' stacks, first factor slowest.
    """
    if grid.factors:
        return functools.reduce(np.kron, (
            kernel_stack(KernelSpec(spec.side, f), g)
            for f, g in zip(spec.system.factors, grid.factors, strict=True)))
    if isinstance(spec.system, HW):
        rows = grid.coords()
        return hw_kernels(spec.system.n_max, rows[:, 0] + 1j * rows[:, 1], spec.side)
    return np.stack([kernel(spec, grid.point(i)) for i in range(grid.n_nodes)])


def star_product(fA: PhaseFunction, fB: PhaseFunction) -> PhaseFunction:
    """The literal triple-kernel quadrature of the star product.

    sum_{s,r} w_s w_r fA(s) fB(r) Tr[K(t) K~(s) K~(r)] over the grid nodes,
    K~ the dual kernel (K itself on the Wigner side, K^dagger on the Weyl
    side); where the grid's round trip is exact it is the symbol of A B.
    """
    grid, spec = fA.grid, fA.spec
    K = kernel_stack(spec, grid)
    dual = K if spec.side == "wigner" else np.conj(np.swapaxes(K, 1, 2))
    w = grid.weights()
    a, b = w * fA.values, w * fB.values
    # the pair products a block of s rows at a time, so the pair tensor stays near 64 MB
    n, d = len(K), K.shape[1]
    step = max(1, 2**22 // (n * d * d))
    vals = np.zeros(n, dtype=complex)
    for lo in range(0, n, step):
        pair = np.einsum("sij,rjk->srik", dual[lo:lo + step], dual, optimize=True)
        vals += np.einsum("tij,srji,s,r->t", K, pair, a[lo:lo + step], b, optimize=True)
    return PhaseFunction(spec, grid, vals)


def parity_cartan_weights(desc) -> np.ndarray:
    """Coefficients beta_l of the parity in the Cartan basis (l = 0 .. N-1).

    By projection: beta_0 = Tr[Pi]/d and beta_l = Tr[Pi J] / Tr[J^2] for each
    diagonal generator J.
    """
    Pi = parity(desc)
    out = [np.trace(Pi).real / dimension(desc)]
    for l in range(1, desc.N):
        J = diagonal_generator(desc.N, desc.M, l)
        out.append(float(np.trace(Pi @ J).real / np.trace(J @ J).real))
    return np.asarray(out)


def uniform_count(desc, manifold: str, k: int, span: float) -> int:
    """Least uniform count over ``span`` that aliases no surviving frequency of J(k).

    The frequencies, in cycles per span, are the eigenvalue differences of
    J(k) on SU(N) ("SUN") and the sums and differences of two differences on
    CP^(N-1) ("CP"); each must be an integer.  n uniform nodes take a nonzero
    frequency f for the constant exactly when n divides f.  On CP^(N-1) a
    product of two kernel entries is a polynomial in the chart's point
    z = U e_N and its conjugate, of degree at most 2M in each; once the other
    angles have averaged out their phases, phi_1 is left only in powers of
    z_1 conj(z_2), frequency 2 each, so an odd frequency above 2M does not
    survive.
    """
    w = np.linalg.eigvalsh(generator(desc.N, desc.M, k)) * span / (2.0 * math.pi)
    diffs = np.abs(w[:, None] - w[None, :]).ravel()
    assert np.max(np.abs(diffs - np.rint(diffs))) < 1e-9, (desc, k, span)
    freqs = np.unique(np.rint(diffs).astype(int))
    if manifold == "CP":
        freqs = np.concatenate([np.add.outer(freqs, freqs).ravel(),
                                np.abs(np.subtract.outer(freqs, freqs)).ravel()])
        freqs = freqs[(freqs % 2 == 0) | (freqs <= 2 * desc.M)]
    freqs = freqs[freqs > 0]
    return next(n for n in itertools.count(1) if not np.any(freqs % n == 0))


def round_trip_certificate(spec: KernelSpec, grid) -> float:
    """Worst miss of the grid's exactness identities, factor by factor on a product grid.

    Every grid integral the package takes is linear or bilinear in the kernel,
    so a grid is exact for all of them if and only if A -> reconstruct(
    phase_function(A)) is the identity and, on the Wigner side, sum w K = 1.
    The round trip is linear in A, so one batched forward and reconstruction
    over the d^2 matrix units E_ij proves it for every operator; on a product
    the identities factor, and each factor is checked on its own grid.
    """
    from wignerweyl.transforms import _forward, _grid_pieces, _reconstructed

    if grid.factors:
        return max(round_trip_certificate(KernelSpec(spec.side, g.system, spec.rotation), g)
                   for g in grid.factors)
    d = dimension(spec.system)
    units = np.eye(d * d, dtype=complex).reshape(-1, d, d)
    back = _reconstructed(spec, grid, _forward(_grid_pieces(spec, grid), units))
    miss = float(np.max(np.abs(back - units)))
    if spec.side == "wigner":
        ksum = _reconstructed(spec, grid, np.ones((1, grid.n_nodes)))[0]
        miss = max(miss, float(np.max(np.abs(ksum - np.eye(d)))))
    return miss
