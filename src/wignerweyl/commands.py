"""Handlers behind the command table in ``cli.py``.

Each handler takes the merged ``RunConfig`` and an ``Inputs`` builder and
returns the JSON result; handlers whose ``--out`` is CSV or a frames
directory write it themselves.  This module imports numpy, so ``cli`` loads
it only after the BLAS thread cap is applied.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from . import measures, transforms  # transforms' evolve and reconstruct share names here
from .algebra import (
    HW, SUN, Composite, build_generators, diagonal_generator, dimension, generator, is_hermitian,
    parse_system, trace_norm_constant,
)
from .kernels import KernelSpec, _factor_specs, _point_row, _row_point, kernel_at, parity
from .points import CompositePoint
from .rotations import euler_factor_sequence
from .serialize import load_matrix, matrix_to_json, write_csv
from .states import HWCat, SpinCat, ThermalSpec, _shifted_gibbs, build_state, parse_state
from .statmech import (
    autocorrelation, free_energy, partition_function, partition_oracle,
    phase_cross_correlation, thermal_mean, weyl_axes, weyl_moments,
)
from .transforms import (
    PhaseFunction, phase_function, symbols_at, verify_stratonovich,
)


class Inputs:
    """The system, kernel spec, grid, state and Hamiltonian of one run, built on first use."""

    def __init__(self, cfg, side: str):
        self.cfg = cfg
        self.side = side

    @cached_property
    def desc(self):
        return parse_system(self.cfg.system)

    @cached_property
    def spec(self) -> KernelSpec:
        return KernelSpec(self.side, self.desc, self.cfg.rotation)

    @cached_property
    def grid(self):
        cfg = self.cfg
        factors = self.desc.factors if isinstance(self.desc, Composite) else (self.desc,)
        if cfg.radius is not None and not any(isinstance(f, HW) for f in factors):
            raise ValueError(f"--radius sets the oscillator window; {cfg.system} has no hw factor")
        return transforms._family_grid(self.spec, cfg.grid_res, cfg.radius)

    @cached_property
    def rho(self) -> np.ndarray:
        return build_state(parse_state(self.cfg.state, self.desc), self.desc)

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """--hamiltonian file wins; otherwise --field couples to J(1..3)."""
        if self.cfg.hamiltonian:
            H = _finite_matrix(self.cfg.hamiltonian, f"--hamiltonian {self.cfg.hamiltonian}")
            if H.shape[0] != H.shape[1] or not is_hermitian(H):
                raise ValueError(f"--hamiltonian {self.cfg.hamiltonian} is not a Hermitian matrix")
            return H
        if self.cfg.field:
            return _j_combination(self.desc, self.cfg.field, "--field")
        raise ValueError("provide --field or --hamiltonian")

    @cached_property
    def thermal(self) -> ThermalSpec:
        return ThermalSpec(self.hamiltonian, self.cfg.beta)


def _finite_matrix(path: str, what: str) -> np.ndarray:
    """The matrix in a JSON file; a non-finite entry raises ValueError naming ``what``."""
    A = load_matrix(path)
    if not np.isfinite(A).all():
        raise ValueError(f"{what} has a non-finite entry")
    return A


def _j_combination(desc, text: str, what: str) -> np.ndarray:
    """sum_k e_k J(k) over k = 1..3 for the components 'e1,e2,e3' in text."""
    if not isinstance(desc, SUN):
        raise ValueError(f"{what} needs a single su:N:M system")
    e = [float(v) for v in text.split(",")]
    if len(e) != 3:
        raise ValueError(f"{what} takes three components")
    if not all(map(math.isfinite, e)):
        raise ValueError(f"{what} components must be finite, got {text}")
    return sum(e[i] * generator(desc.N, desc.M, i + 1) for i in range(3))


def _parse_point(spec: KernelSpec, text: str):
    """Coordinate grammar: per-factor comma floats in the kernels' columns, joined by ';'."""
    subs = _factor_specs(spec)
    chunks = text.split(";")
    if len(chunks) != len(subs):
        raise ValueError(f"{spec.system} takes {len(subs)} ';'-separated factor point(s), "
                         f"got {len(chunks)}")
    points = [_row_point(sub, [float(v) for v in chunk.split(",") if v.strip() != ""])
              for sub, chunk in zip(subs, chunks)]
    return CompositePoint(points) if isinstance(spec.system, Composite) else points[0]


def _write_values_csv(path: str, grid, values) -> None:
    rows = np.concatenate(
        [grid.coords(), grid.weights()[:, None], values.real[:, None], values.imag[:, None]],
        axis=1,
    )
    write_csv(path, list(grid.column_names) + ["weight", "value_re", "value_im"], rows)


# ---------------------------------------------------------------------------
# commands


def algebra(cfg, inp: Inputs) -> dict:
    desc = inp.desc
    if not isinstance(desc, SUN):
        raise ValueError("algebra dumps su:N:M generator sets")
    gens = build_generators(desc.N, desc.M)
    c = trace_norm_constant(desc.N, desc.M)
    n = len(gens)
    gram = np.array(
        [[np.trace(gens[i] @ gens[j]).real for j in range(n)] for i in range(n)]
    )
    residual = float(np.max(np.abs(gram - c * np.eye(n))))
    return {
        "system": cfg.system,
        "dimension": dimension(desc),
        "generator_count": n,
        "trace_constant": c,
        "orthogonality_residual": residual,
        "generators": [matrix_to_json(g) for g in gens],
    }


def kernel(cfg, inp: Inputs) -> dict:
    spec = inp.spec
    point = _parse_point(spec, cfg.point)
    K = kernel_at(spec, point)
    hermiticity = float(np.max(np.abs(K - K.conj().T)))
    unitarity = float(np.max(np.abs(K.conj().T @ K - np.eye(K.shape[0]))))
    return {
        "system": cfg.system,
        "side": inp.side,
        "rotation": spec.rotation,
        "point": cfg.point,
        "hermiticity_defect": hermiticity,
        "unitarity_defect": unitarity,
        "matrix": matrix_to_json(K),
    }


def sample(cfg, inp: Inputs) -> dict:
    grid, rho = inp.grid, inp.rho
    f = phase_function(rho, inp.spec, grid)
    trace = complex(rho.trace())
    result = {
        "system": cfg.system,
        "state": cfg.state,
        "side": inp.side,
        "n_nodes": grid.n_nodes,
    }
    if inp.side == "wigner":
        # the symbol integral recovers the trace; on HW windows this residual
        # doubles as the coverage diagnostic
        integral = f.integral()
        result["integral"] = integral
        result["trace_oracle"] = trace
        result["integral_residual"] = abs(integral - trace)
    else:
        origin = complex(symbols_at(rho, inp.spec, np.zeros((1, len(grid.axes))))[0])
        result["origin_value"] = origin
        result["trace_oracle"] = trace
        result["origin_residual"] = abs(origin - trace)
    if cfg.out:
        _write_values_csv(cfg.out, grid, f.values)
        result["out"] = cfg.out
    return result


def reconstruct(cfg, inp: Inputs) -> dict:
    spec, grid = inp.spec, inp.grid
    data = np.loadtxt(cfg.infile, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    n_ax = len(grid.column_names)
    if data.shape != (grid.n_nodes, n_ax + 3):
        raise ValueError(
            f"CSV shape {data.shape} does not match a {grid.n_nodes}-node grid; "
            "pass the same --system/--grid-res/--radius used to sample it"
        )
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"CSV row {i} is not finite: {data[i].tolist()}")
    coord_err = float(np.max(np.abs(data[:, :n_ax] - grid.coords())))
    if not coord_err <= 1e-9:
        raise ValueError(f"CSV nodes deviate from the rebuilt grid by {coord_err:.3e}")
    values = data[:, n_ax + 1] + 1j * data[:, n_ax + 2]
    A = transforms.reconstruct(PhaseFunction(spec, grid, values))
    back = phase_function(A, spec, grid)
    residual = float(np.max(np.abs(back.values - values)))
    return {
        "system": cfg.system,
        "side": inp.side,
        "n_nodes": grid.n_nodes,
        "roundtrip_residual": residual,
        "hermiticity_defect": float(np.max(np.abs(A - A.conj().T))),
        "trace": complex(A.trace()),
        "matrix": matrix_to_json(A),
    }


def verify(cfg, inp: Inputs) -> dict:
    report = verify_stratonovich(inp.desc, inp.side, grid=inp.grid, rotation=cfg.rotation,
                                 seed=cfg.seed)
    return report.as_dict()


def partition(cfg, inp: Inputs) -> dict:
    z = partition_function(inp.thermal, inp.grid)
    z_oracle = partition_oracle(inp.thermal)
    return {
        "system": cfg.system,
        "beta": cfg.beta,
        "partition_function": z,
        "eigenvalue_oracle": z_oracle,
        "residual": abs(z - z_oracle),
    }


def mean(cfg, inp: Inputs) -> dict:
    tspec, grid = inp.thermal, inp.grid
    text = cfg.observable or "j:3"
    if text.startswith("j:"):
        if not isinstance(inp.desc, SUN):
            raise ValueError("j:<k> observables need an su:N:M system")
        A = generator(inp.desc.N, inp.desc.M, int(text[2:]))
    elif text.startswith("vec:"):
        A = _j_combination(inp.desc, text[4:], "vec:")
    elif text.startswith("file:"):
        A = _finite_matrix(text[5:], f"--observable {text}")
    else:
        raise ValueError("observable grammar: j:<k> | vec:ex,ey,ez | file:<path>")
    value = thermal_mean(A, tspec, grid)
    G = _shifted_gibbs(tspec)[1]
    oracle = float((np.trace(A @ G) / np.trace(G)).real)
    return {
        "system": cfg.system,
        "beta": cfg.beta,
        "observable": text,
        "mean": value,
        "trace_oracle": oracle,
        "residual": abs(value - oracle),
    }


def freeenergy(cfg, inp: Inputs) -> dict:
    f = free_energy(inp.thermal, inp.grid)
    E0, G = _shifted_gibbs(inp.thermal)
    oracle = E0 - math.log(np.trace(G).real) / inp.thermal.beta
    return {
        "system": cfg.system,
        "beta": cfg.beta,
        "free_energy": f,
        "eigenvalue_oracle": oracle,
        "residual": abs(f - oracle),
    }


def _ordered_moment_oracle(desc, rho, orders) -> complex:
    """Hilbert-space value of the ordered-product moment that weyl_moments targets."""
    if isinstance(desc, SUN):
        N, M = desc.N, desc.M
        # J(3) and J(k_theta) per Euler pair, then the Cartan generators
        gens = [generator(N, M, k) for _, k_theta in euler_factor_sequence(N) for k in (3, k_theta)]
        gens += [diagonal_generator(N, M, c) for c in range(1, N)]
        P = np.eye(rho.shape[0], dtype=np.complex128)
        for J, m in zip(gens, orders):
            P = P @ np.linalg.matrix_power(J, m)
        return complex(np.trace(rho @ P))
    if isinstance(desc, HW):
        # index (p, q) targets the symmetric ordering S(a^p adag^q): the mean
        # of its C(p+q, p) distinct words, one per choice of the positions of
        # a, formed in a block padded by p+q levels so that their restriction
        # to the truncated block is exact
        p, q = orders
        n = desc.n_max
        a = np.diag(np.sqrt(np.arange(1.0, n + p + q)), 1)
        acc = np.zeros_like(a)
        for at in combinations(range(p + q), p):
            term = np.eye(len(a))
            for i in range(p + q):
                term = term @ (a if i in at else a.T)
            acc += term
        return complex(np.trace(rho @ acc[:n, :n]) / math.comb(p + q, p))
    raise TypeError("moment oracle needs a single HW or SUN factor")


def moments(cfg, inp: Inputs) -> dict:
    desc, rho = inp.desc, inp.rho
    orders = tuple(int(v) for v in cfg.orders.split(","))
    value = weyl_moments(rho, desc, orders)
    oracle = _ordered_moment_oracle(desc, rho, orders)
    return {
        "system": cfg.system,
        "state": cfg.state,
        "axes": list(weyl_axes(desc)),
        "orders": list(orders),
        "moment": value,
        "ordered_product_oracle": oracle,
        "residual": abs(value - oracle),
    }


def _check_rows(n: int, flag: str) -> None:
    """Refuse a table of n rows over ``measures.MAX_NODES`` before it is allocated."""
    if n > measures.MAX_NODES:
        raise OverflowError(f"{flag} asks for {n} rows (limit {measures.MAX_NODES}); lower it")


def autocorr(cfg, inp: Inputs) -> dict:
    desc, rho = inp.desc, inp.rho
    parts = cfg.samples.split(":")
    if len(parts) != 3:
        raise ValueError("--samples grammar is lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    _check_rows(count, "--samples")
    s = np.linspace(lo, hi, count)
    vals = autocorrelation(rho, desc, cfg.axis, s)
    r0 = autocorrelation(rho, desc, cfg.axis, np.array([0.0]))[0]
    result = {
        "system": cfg.system,
        "state": cfg.state,
        "axis": cfg.axis,
        "n_samples": count,
        "r0": complex(r0),
        "r0_trace_residual": abs(r0 - complex(np.trace(rho))),
    }
    if cfg.out:
        rows = np.stack([s, vals.real, vals.imag], axis=1)
        write_csv(cfg.out, [cfg.axis, "value_re", "value_im"], rows)
        result["out"] = cfg.out
    else:
        result["values"] = [complex(v) for v in vals]
    return result


def crosscorr(cfg, inp: Inputs) -> dict:
    spec, grid, rho = inp.spec, inp.grid, inp.rho
    f = phase_function(rho, spec, grid)
    shift = None if cfg.shift is None else _parse_point(spec, cfg.shift)
    cc = phase_cross_correlation(f, shift)
    result = {
        "system": cfg.system,
        "state": cfg.state,
        "side": inp.side,
        "shift": cfg.shift if cfg.shift is not None else "zero",
        "value": cc.value,
        "raw_value": cc.raw_value,
        "volume": cc.volume,
    }
    if inp.side == "wigner" and (shift is None or not any(_point_row(spec, shift))):
        purity = float(np.trace(rho @ rho).real)
        # on the unbounded plane rule the unnormalized integral is the purity
        if cc.volume is None:
            oracle, value = purity, cc.raw_value
        else:
            oracle, value = purity / cc.volume, cc.value
        result["zero_shift_oracle"] = oracle
        result["residual"] = abs(value - oracle)
    return result


def evolve(cfg, inp: Inputs) -> dict:
    transforms._frame_times(cfg.t_final, cfg.dt, cfg.frames, inp.grid.n_nodes)  # refuse first
    spec, grid, rho, H = inp.spec, inp.grid, inp.rho, inp.hamiltonian
    f_rho = phase_function(rho, spec, grid)
    f_H = phase_function(H, spec, grid)
    res = transforms.evolve(f_rho, f_H, cfg.t_final, cfg.dt, n_frames=cfg.frames)

    # exact-propagator reference at t_final
    w, V = np.linalg.eigh(H)
    phases = np.exp(-1j * w * cfg.t_final)
    U = (V * phases[None, :]) @ V.conj().T
    rho_t = U @ rho @ U.conj().T
    exact = phase_function(rho_t, spec, grid)
    sup_err = float(np.max(np.abs(res.final.values - exact.values)))

    result = {
        "system": cfg.system,
        "state": cfg.state,
        "side": inp.side,
        "t_final": cfg.t_final,
        "dt": cfg.dt,
        "trace_drift": res.trace_drift,
        "purity_drift": res.purity_drift,
        "propagator_sup_residual": sup_err,
        "n_frames": len(res.frames),
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        for i, (t, vals) in enumerate(zip(res.times, res.frames)):
            _write_values_csv(os.path.join(cfg.out, f"frame_{i:04d}_t{t:.6f}.csv"), grid, vals)
        result["out"] = cfg.out
    return result


# ---------------------------------------------------------------------------
# figure-data presets


def _sphere_mesh(res: int | None):
    """Full-sphere mesh in rotation-parameter coordinates, C order over (phi, theta).

    theta in [0, pi/2] covers the sphere: the rotation angle doubles onto the
    colatitude (the lowest-weight state sits at the south pole at theta = 0,
    the equator is theta = pi/4).
    """
    n_theta = 61 if res is None else res
    n_phi = 2 * n_theta - 1
    _check_rows(n_theta * n_phi, "figure-data --grid-res")
    theta = np.linspace(0.0, 0.5 * math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    P, T = np.meshgrid(phi, theta, indexing="ij")
    return P.reshape(-1), T.reshape(-1)


def _stereographic(phi, theta):
    """Riemann projection of the lower hemisphere, boundary at the equator.

    In rotation-parameter coordinates the projection radius is tan(theta),
    reaching 1 at the equator theta = pi/4; rows outside the lower
    hemisphere carry NaN.
    """
    r = np.where(theta <= 0.25 * math.pi + 1e-12, np.tan(theta), np.nan)
    return r * np.cos(phi), r * np.sin(phi)


def _sphere_rows(phi, theta, vals):
    x, y = _stereographic(phi, theta)
    return np.stack(
        [phi, theta, x, y, vals.real, vals.imag, np.abs(vals), np.angle(vals)], axis=1
    )


_SPHERE_HEADER = ["phi", "theta", "x", "y", "value_re", "value_im", "magnitude", "phase"]


def _preset_hw_cat(cfg, inp: Inputs) -> dict:
    desc = inp.desc if cfg.system else HW(40)
    if not isinstance(desc, HW):
        raise ValueError("hw-cat preset needs an hw:<n_max> system")
    R = 6.0 if cfg.radius is None else cfg.radius
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"need a finite radius > 0, got {R}")
    side = inp.side
    spec = KernelSpec(side, desc)
    # three coherent components of radius 3, spaced by 2 pi / 3 from alpha = -3
    comps = tuple(-3.0 * np.exp(2j * math.pi * k / 3.0) for k in range(3))
    rho = build_state(HWCat(comps), desc)

    res = 161 if cfg.grid_res is None else cfg.grid_res
    if res % 2 == 0:
        res += 1  # keep the alpha = 0 row on the mesh
    _check_rows(res * res, "figure-data --grid-res")
    line = np.linspace(-R, R, res)
    xs, ys = (m.reshape(-1) for m in np.meshgrid(line, line, indexing="ij"))
    vals = symbols_at(rho, spec, np.stack([xs, ys], axis=1))

    value0 = complex(vals[(len(vals) - 1) // 2])
    par_diag = np.diag(parity(desc)) if side == "wigner" else np.ones(desc.n_max)
    oracle0 = complex(np.sum(np.diag(rho) * par_diag))
    result = {
        "preset": "hw-cat",
        "system": f"hw:{desc.n_max}",
        "side": side,
        "n_rows": len(vals),
        "value_at_origin": value0,
        "direct_trace_oracle": oracle0,
        "origin_residual": abs(value0 - oracle0),
    }
    if cfg.out:
        rows = np.stack(
            [xs, ys, vals.real, vals.imag, np.abs(vals), np.angle(vals)], axis=1
        )
        write_csv(cfg.out, ["re", "im", "value_re", "value_im", "magnitude", "phase"], rows)
        result["out"] = cfg.out
    return result


def _sphere_spec(side: str, desc: SUN) -> KernelSpec:
    """su:2:M kernels on a (phi, theta) mesh; the Weyl slice Phi = -phi is the arecchi family."""
    return KernelSpec(side, desc) if side == "wigner" else KernelSpec("weyl", desc, "arecchi")


def _preset_spin_cat(cfg, inp: Inputs) -> dict:
    desc = inp.desc if cfg.system else SUN(2, 80)
    if not isinstance(desc, SUN) or desc.N != 2:
        raise ValueError("spin-cat preset needs an su:2:M system")
    side = inp.side
    orientations = tuple((k * math.pi / 3.0, math.pi / 10.0) for k in range(3))
    rho = build_state(SpinCat(orientations), desc)

    phi, theta = _sphere_mesh(cfg.grid_res)
    vals = symbols_at(rho, _sphere_spec(side, desc), np.stack([phi, theta], axis=1))

    result = {
        "preset": "spin-cat",
        "system": f"su:2:{desc.M}",
        "side": side,
        "n_rows": len(vals),
        "weyl_slice": "Phi = -phi" if side == "weyl" else None,
    }
    if cfg.out:
        write_csv(cfg.out, _SPHERE_HEADER, _sphere_rows(phi, theta, vals))
        result["out"] = cfg.out
    return result


def _preset_ghz5(cfg, inp: Inputs, flavor: str) -> dict:
    side = inp.side
    phi, theta = _sphere_mesh(cfg.grid_res)
    if flavor == "dicke":
        desc = SUN(2, 5)
        spec, rows = _sphere_spec(side, desc), [phi, theta]
    else:
        desc = Composite(tuple(SUN(2, 1) for _ in range(5)))
        # every factor sits at the same (phi, theta); the Weyl slice is Phi = -phi
        spec = KernelSpec(side, desc)
        rows = ([phi, theta] if side == "wigner" else [phi, theta, -phi]) * 5
    rho = build_state(parse_state("ghz", desc), desc)
    vals = symbols_at(rho, spec, np.stack(rows, axis=1))

    result = {
        "preset": f"ghz5-{flavor}",
        "system": "su:2:5" if flavor == "dicke" else "*".join(["su:2:1"] * 5),
        "side": side,
        "n_rows": len(phi),
        "slice": "equal-angle" + (", Phi = -phi" if side == "weyl" else ""),
    }
    if cfg.out:
        write_csv(cfg.out, _SPHERE_HEADER, _sphere_rows(phi, theta, vals))
        result["out"] = cfg.out
    return result


PRESETS = {
    "hw-cat": _preset_hw_cat,
    "spin-cat": _preset_spin_cat,
    "ghz5-dicke": partial(_preset_ghz5, flavor="dicke"),
    "ghz5-equal-angle": partial(_preset_ghz5, flavor="equal-angle"),
}
# the flags besides --side and --grid-res that each preset reads
PRESET_READS = {"hw-cat": ("system", "radius"), "spin-cat": ("system",)}


def figure_data(cfg, inp: Inputs) -> dict:
    for name in ("system", "radius"):
        if getattr(cfg, name) is not None and name not in PRESET_READS.get(cfg.preset, ()):
            raise ValueError(f"figure-data --preset {cfg.preset} does not read --{name}")
    if cfg.grid_res is not None and cfg.grid_res < 2:
        raise ValueError(f"figure-data --grid-res must be at least 2, got {cfg.grid_res}")
    return PRESETS[cfg.preset](cfg, inp)
