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

from . import kernels, measures, transforms  # transforms' evolve and reconstruct share names here
from .algebra import (
    HW, SUN, Composite, build_generators, diagonal_generator, dimension, format_system, generator,
    is_hermitian, parse_system, trace_norm_constant,
)
from .cli import PRESETS
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
    def rule(self):
        cfg = self.cfg
        factors = self.desc.factors if isinstance(self.desc, Composite) else (self.desc,)
        if cfg.radius is not None and not any(isinstance(f, HW) for f in factors):
            raise ValueError(f"--radius sets the oscillator window; {cfg.system} has no hw factor")
        return transforms._family_grid(self.spec, cfg.grid_res, cfg.radius)

    @cached_property
    def grid(self):
        """``rule`` with its kernel pieces taken: a run too large for them stops here."""
        kernels.kernel_pieces(self.spec, self.rule)
        return self.rule

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


def _grid_columns(grid) -> dict:
    """A grid's CSV columns: its coordinates, then the node weight."""
    return {**dict(zip(grid.column_names, grid.coords().T)), "weight": grid.weights()}


def _write_values_csv(path: str, columns: dict, values: np.ndarray, **after) -> None:
    """CSV of the named columns, then value_re and value_im, then the columns ``after``."""
    columns = {**columns, "value_re": values.real, "value_im": values.imag, **after}
    write_csv(path, list(columns), np.stack(list(columns.values()), axis=1))


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
        _write_values_csv(cfg.out, _grid_columns(grid), f.values)
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
    grid = inp.grid
    z = partition_function(inp.thermal, grid)
    z_oracle = partition_oracle(inp.thermal)
    return {
        "system": cfg.system,
        "beta": cfg.beta,
        "partition_function": z,
        "eigenvalue_oracle": z_oracle,
        "residual": abs(z - z_oracle),
    }


def mean(cfg, inp: Inputs) -> dict:
    grid, tspec = inp.grid, inp.thermal
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
    grid = inp.grid
    f = free_energy(inp.thermal, grid)
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


def autocorr(cfg, inp: Inputs) -> dict:
    desc, rho = inp.desc, inp.rho
    parts = cfg.samples.split(":")
    if len(parts) != 3:
        raise ValueError("--samples grammar is lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    measures._check_nodes(count, "autocorr --samples", "its count")
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
        _write_values_csv(cfg.out, {cfg.axis: s}, vals)
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
    transforms._frame_times(cfg.t_final, cfg.dt, cfg.frames, inp.rule.n_nodes)  # refuse first
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
        columns = _grid_columns(grid)
        for i, (t, vals) in enumerate(zip(res.times, res.frames)):
            _write_values_csv(os.path.join(cfg.out, f"frame_{i:04d}_t{t:.6f}.csv"), columns, vals)
        result["out"] = cfg.out
    return result


# ---------------------------------------------------------------------------
# figure-data presets: each returns its system, its mesh's CSV columns, the
# symbols on the mesh and its extra result keys; figure_data does the rest


def _sphere_mesh(res: int | None) -> dict:
    """Full-sphere mesh in rotation-parameter coordinates, C order over (phi, theta).

    theta in [0, pi/2] covers the sphere: the rotation angle doubles onto the
    colatitude (the lowest-weight state sits at the south pole at theta = 0,
    the equator is theta = pi/4).  The CSV columns are phi, theta and x, y,
    the Riemann projection of the lower hemisphere with its boundary at the
    equator: radius tan(theta), reaching 1 at theta = pi/4, and NaN on rows
    outside the lower hemisphere.
    """
    n_theta = 61 if res is None else res
    n_phi = 2 * n_theta - 1
    measures._check_nodes(n_theta * n_phi, "figure-data --grid-res", "it")
    theta = np.linspace(0.0, 0.5 * math.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    phi, theta = (m.reshape(-1) for m in np.meshgrid(phi, theta, indexing="ij"))
    r = np.where(theta <= 0.25 * math.pi + 1e-12, np.tan(theta), np.nan)
    return {"phi": phi, "theta": theta, "x": r * np.cos(phi), "y": r * np.sin(phi)}


def _sphere_spec(side: str, desc: SUN) -> KernelSpec:
    """su:2:M kernels on a (phi, theta) mesh; the Weyl slice Phi = -phi is the arecchi family."""
    return KernelSpec(side, desc) if side == "wigner" else KernelSpec("weyl", desc, "arecchi")


def _hw_cat(cfg, inp: Inputs):
    desc = inp.desc if cfg.system else HW(40)
    if not isinstance(desc, HW):
        raise ValueError("hw-cat preset needs an hw:<n_max> system")
    R = 6.0 if cfg.radius is None else cfg.radius
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"need a finite radius > 0, got {R}")
    res = 161 if cfg.grid_res is None else cfg.grid_res
    if res % 2 == 0:
        res += 1  # keep the alpha = 0 row on the mesh
    measures._check_nodes(res * res, "figure-data --grid-res", "it")
    line = np.linspace(-R, R, res)
    xs, ys = (m.reshape(-1) for m in np.meshgrid(line, line, indexing="ij"))
    # three coherent components of radius 3, spaced by 2 pi / 3 from alpha = -3
    comps = tuple(-3.0 * np.exp(2j * math.pi * k / 3.0) for k in range(3))
    rho = build_state(HWCat(comps), desc)
    vals = symbols_at(rho, KernelSpec(inp.side, desc), np.stack([xs, ys], axis=1))
    value0 = complex(vals[(len(vals) - 1) // 2])
    par_diag = np.diag(parity(desc)) if inp.side == "wigner" else np.ones(desc.n_max)
    oracle0 = complex(np.sum(np.diag(rho) * par_diag))
    return desc, {"re": xs, "im": ys}, vals, {
        "value_at_origin": value0,
        "direct_trace_oracle": oracle0,
        "origin_residual": abs(value0 - oracle0),
    }


def _spin_cat(cfg, inp: Inputs):
    desc = inp.desc if cfg.system else SUN(2, 80)
    if not isinstance(desc, SUN) or desc.N != 2:
        raise ValueError("spin-cat preset needs an su:2:M system")
    mesh = _sphere_mesh(cfg.grid_res)
    orientations = tuple((k * math.pi / 3.0, math.pi / 10.0) for k in range(3))
    rho = build_state(SpinCat(orientations), desc)
    vals = symbols_at(rho, _sphere_spec(inp.side, desc),
                      np.stack([mesh["phi"], mesh["theta"]], axis=1))
    return desc, mesh, vals, {"weyl_slice": "Phi = -phi" if inp.side == "weyl" else None}


def _ghz5(cfg, inp: Inputs, dicke: bool):
    side = inp.side
    mesh = _sphere_mesh(cfg.grid_res)
    rows = [mesh["phi"], mesh["theta"]]
    if dicke:
        desc = SUN(2, 5)
        spec = _sphere_spec(side, desc)
    else:
        desc = Composite(tuple(SUN(2, 1) for _ in range(5)))
        # every factor sits at the same (phi, theta); the Weyl slice is Phi = -phi
        spec = KernelSpec(side, desc)
        rows = (rows if side == "wigner" else [*rows, -mesh["phi"]]) * 5
    rho = build_state(parse_state("ghz", desc), desc)
    vals = symbols_at(rho, spec, np.stack(rows, axis=1))
    return desc, mesh, vals, {"slice": "equal-angle" + (", Phi = -phi" if side == "weyl" else "")}


# the data function of every preset in cli.PRESETS
_PRESET_DATA = {"hw-cat": _hw_cat, "spin-cat": _spin_cat,
                "ghz5-dicke": partial(_ghz5, dicke=True),
                "ghz5-equal-angle": partial(_ghz5, dicke=False)}


def figure_data(cfg, inp: Inputs) -> dict:
    for name in ("system", "radius"):
        if getattr(cfg, name) is not None and name not in PRESETS[cfg.preset]:
            raise ValueError(f"figure-data --preset {cfg.preset} does not read --{name}")
    if cfg.grid_res is not None and cfg.grid_res < 2:
        raise ValueError(f"figure-data --grid-res must be at least 2, got {cfg.grid_res}")
    desc, columns, vals, extra = _PRESET_DATA[cfg.preset](cfg, inp)
    result = {
        "preset": cfg.preset,
        "system": format_system(desc),
        "side": inp.side,
        "n_rows": len(vals),
        **extra,
    }
    if cfg.out:
        _write_values_csv(cfg.out, columns, vals, magnitude=np.abs(vals), phase=np.angle(vals))
        result["out"] = cfg.out
    return result
