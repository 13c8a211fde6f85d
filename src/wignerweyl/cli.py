"""Command-line surface.

Builds algebras, evaluates kernels, samples/inverts/verifies phase-space
functions, runs dynamics and thermal calculations, and emits plot-ready CSV
data.  Heavy modules are imported lazily so the thread cap can be applied to
the BLAS runtime before numpy loads.

Every command that has a Hilbert-space reference quantity prints the residual
against it.  Errors leave a machine-readable {"error", "context"} JSON object
on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

THREAD_ENV = "WIGNERWEYL_THREADS"
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SIDES = ("wigner", "weyl")
_PRESETS = ("hw-cat", "spin-cat", "ghz5-dicke", "ghz5-equal-angle")


@dataclass
class RunConfig:
    """One CLI invocation; serializable so runs can be replayed from JSON."""

    command: str
    system: str | None = None
    state: str | None = None
    side: str = "wigner"
    grid_res: int | None = None
    radius: float | None = None
    exactness: str | None = None
    rotation: str = "euler"
    beta: float | None = None
    field: str | None = None
    hamiltonian: str | None = None
    observable: str | None = None
    point: str | None = None
    shift: str | None = None
    axis: str | None = None
    samples: str | None = None
    orders: str | None = None
    step: float = 1e-3
    t_final: float | None = None
    dt: float = 1e-3
    frames: int = 10
    method: str = "fast"
    preset: str | None = None
    infile: str | None = None
    out: str | None = None
    seed: int = 0
    threads: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerweyl",
        description="Phase-space representations of finite quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, state=False, side=True, grid=True, thermal=False):
        p.add_argument("--system", help="hw:<n_max> | su:<N>:<M> | factors joined by '*'")
        if state:
            p.add_argument("--state", help="state grammar, e.g. spincoherent:0.3,0.8")
        if side:
            p.add_argument("--side", choices=_SIDES, default=None)
        if grid:
            p.add_argument("--grid-res", type=int, default=None, dest="grid_res")
            p.add_argument("--radius", type=float, default=None)
            p.add_argument("--exactness", choices=("pairs", "quads"), default=None)
        if thermal:
            p.add_argument("--beta", type=float, default=None)
            p.add_argument("--field", help="hx,hy,hz couples to J(1),J(2),J(3)")
            p.add_argument("--hamiltonian", help="path to a matrix JSON file")
        p.add_argument("--out", help="output path (CSV/JSON; evolve: directory)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--config", help="JSON config file; explicit flags override it")

    p = sub.add_parser("algebra", help="dump the generator set of an su:N:M system")
    common(p, side=False, grid=False)

    p = sub.add_parser("kernel", help="evaluate a kernel matrix at one point")
    common(p, grid=False)
    p.add_argument("--point", help="comma-separated coordinates; ';' between factors")
    p.add_argument("--rotation", choices=("euler", "arecchi"), default=None)

    for name in _SIDES:
        p = sub.add_parser(name, help=f"sample the {name} function of a state on a grid")
        common(p, state=True, side=False)

    p = sub.add_parser("reconstruct", help="rebuild the operator from a sampled CSV")
    common(p)
    p.add_argument("--infile", required=True, help="CSV produced by wigner/weyl")

    p = sub.add_parser("verify", help="Stratonovich-Weyl condition report")
    common(p)
    p.add_argument("--rotation", choices=("euler", "arecchi"), default=None)

    p = sub.add_parser("partition", help="partition function Z(beta)")
    common(p, side=False, thermal=True)

    p = sub.add_parser("mean", help="thermal expectation of an observable")
    common(p, side=False, thermal=True)
    p.add_argument("--observable", help="j:<k> | vec:ex,ey,ez | file:<path> (default j:3)")

    p = sub.add_parser("freeenergy", help="free energy -ln Z / beta")
    common(p, side=False, thermal=True)

    p = sub.add_parser("moments", help="operator moments from Weyl-symbol derivatives")
    common(p, state=True, side=False, grid=False)
    p.add_argument("--orders", required=True, help="per-axis derivative orders, e.g. 0,0,2")
    p.add_argument("--step", type=float, default=None, help="finite-difference step")

    p = sub.add_parser("autocorr", help="Weyl symbol along one coordinate axis")
    common(p, state=True, side=False, grid=False)
    p.add_argument("--axis", required=True)
    p.add_argument("--samples", required=True, help="lo:hi:count")

    p = sub.add_parser("crosscorr", help="phase-space cross-correlation at a shift")
    common(p, state=True)
    p.add_argument("--shift", help="same grammar as kernel --point (omit for zero shift)")

    p = sub.add_parser("evolve", help="phase-space von Neumann dynamics")
    common(p, state=True, thermal=True)
    p.add_argument("--t-final", type=float, required=True, dest="t_final")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--frames", type=int, default=None)

    p = sub.add_parser("figure-data", help="plot-ready CSV presets")
    common(p)
    p.add_argument("--preset", required=True, choices=_PRESETS)

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicit CLI flags on top."""
    merged = RunConfig(command=args.command).to_dict()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in base.items():
            if key == "command":
                continue
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                merged[key] = value
    for key, value in vars(args).items():
        if key in ("config", "command") or key not in merged:
            continue
        if value is not None:
            merged[key] = value
    return RunConfig.from_dict(merged)


def _apply_thread_cap(threads: int | None) -> None:
    cap = threads
    if cap is None:
        env = os.environ.get(THREAD_ENV)
        cap = int(env) if env else None
    if cap is not None:
        if cap < 1:
            raise ValueError("thread cap must be >= 1")
        for var in _THREAD_VARS:
            os.environ.setdefault(var, str(cap))


# ---------------------------------------------------------------------------
# shared helpers (imported lazily inside run())


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _emit(result: dict, out: str | None = None) -> None:
    text = json.dumps(result, indent=2, default=_json_default)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, ""):
            raise ValueError(f"--{name.replace('_', '-')} is required for {cfg.command}")


def _parse_point(desc, side: str, text: str, rotation: str = "euler"):
    """Coordinate grammar: per-factor comma floats, factors joined by ';'."""
    from .algebra import HW, SUN, Composite
    from .points import CompositePoint, CPPoint, EulerPoint, HWPoint
    from .rotations import euler_angle_count

    def one(factor, chunk: str):
        vals = [float(v) for v in chunk.split(",") if v.strip() != ""]
        if isinstance(factor, HW):
            if len(vals) != 2:
                raise ValueError(f"HW point needs 're,im', got {chunk!r}")
            return HWPoint(complex(vals[0], vals[1]))
        if isinstance(factor, SUN):
            if rotation == "arecchi" or (side == "wigner" and rotation == "euler"):
                n = factor.N - 1
                if rotation == "arecchi":
                    n = 1
                if len(vals) != 2 * n:
                    raise ValueError(
                        f"{factor.N=} point needs {2 * n} values (phi,theta pairs), got {len(vals)}"
                    )
                return CPPoint(phi=tuple(vals[0::2]), theta=tuple(vals[1::2]))
            n_pairs, n_cartan = euler_angle_count(factor.N)
            if len(vals) != 2 * n_pairs + n_cartan:
                raise ValueError(
                    f"SU({factor.N}) Euler point needs {2 * n_pairs + n_cartan} values, got {len(vals)}"
                )
            pair = vals[: 2 * n_pairs]
            return EulerPoint(tuple(pair[0::2]), tuple(pair[1::2]), tuple(vals[2 * n_pairs:]))
        raise TypeError(f"no point grammar for {factor!r}")

    chunks = text.split(";")
    if isinstance(desc, Composite):
        if len(chunks) != len(desc.factors):
            raise ValueError(f"{len(desc.factors)} factor points needed, got {len(chunks)}")
        return CompositePoint(tuple(one(f, c) for f, c in zip(desc.factors, chunks)))
    if len(chunks) != 1:
        raise ValueError("single-factor system takes a single point chunk")
    return one(desc, chunks[0])


def _thermal_hamiltonian(cfg: RunConfig, desc):
    """--hamiltonian file wins; otherwise --field couples to J(1..3)."""
    import numpy as np

    from .algebra import SUN, generator
    from .serialize import load_matrix

    if cfg.hamiltonian:
        return np.asarray(load_matrix(cfg.hamiltonian))
    if cfg.field:
        if not isinstance(desc, SUN):
            raise ValueError("--field needs a single su:N:M system; use --hamiltonian otherwise")
        h = [float(v) for v in cfg.field.split(",")]
        if len(h) != 3:
            raise ValueError("--field takes three components hx,hy,hz")
        return sum(h[i] * generator(desc.N, desc.M, i + 1) for i in range(3))
    raise ValueError("provide --field or --hamiltonian")


def _state_matrix(cfg: RunConfig, desc):
    from .states import build_state, parse_state

    if not cfg.state:
        raise ValueError("--state is required")
    return build_state(parse_state(cfg.state, desc), desc)


def _grid_for(cfg: RunConfig, desc, side: str):
    from .kernels import WEYL
    from .measures import sun_grid
    from .transforms import default_grid
    from .algebra import SUN

    if cfg.exactness is not None:
        if not isinstance(desc, SUN) or side != WEYL:
            raise ValueError("--exactness applies to the Weyl side of a single su:N:M system")
        return sun_grid(desc, cfg.grid_res, cfg.exactness)
    return default_grid(desc, side, cfg.grid_res, cfg.radius)


def _spec_for(cfg: RunConfig, desc, side: str):
    from .kernels import KernelSpec

    return KernelSpec(side, desc, cfg.rotation or "euler")


def _write_values_csv(path: str, grid, values) -> None:
    import numpy as np

    from .serialize import write_csv

    coords = grid.coords()
    w = grid.weights()
    rows = np.concatenate(
        [coords, w[:, None], values.real[:, None], values.imag[:, None]], axis=1
    )
    write_csv(path, list(grid.column_names) + ["weight", "value_re", "value_im"], rows)


# ---------------------------------------------------------------------------
# commands


def _cmd_algebra(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import SUN, build_generators, dimension, parse_system, trace_norm_constant
    from .serialize import matrix_to_json

    _require(cfg, "system")
    desc = parse_system(cfg.system)
    if not isinstance(desc, SUN):
        raise ValueError("algebra dumps su:N:M generator sets")
    gens = build_generators(desc.N, desc.M)
    c = trace_norm_constant(desc.N, desc.M)
    n = len(gens)
    gram = np.array(
        [[np.trace(gens[i] @ gens[j]).real for j in range(n)] for i in range(n)]
    )
    residual = float(np.max(np.abs(gram - c * np.eye(n))))
    result = {
        "system": cfg.system,
        "dimension": dimension(desc),
        "generator_count": n,
        "trace_constant": c,
        "orthogonality_residual": residual,
        "generators": [matrix_to_json(g) for g in gens],
    }
    return result


def _cmd_kernel(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import parse_system
    from .kernels import kernel_at
    from .serialize import matrix_to_json

    _require(cfg, "system", "point", "side")
    desc = parse_system(cfg.system)
    spec = _spec_for(cfg, desc, cfg.side)
    point = _parse_point(desc, cfg.side, cfg.point, spec.rotation)
    K = kernel_at(spec, point)
    hermiticity = float(np.max(np.abs(K - K.conj().T)))
    unitarity = float(np.max(np.abs(K.conj().T @ K - np.eye(K.shape[0]))))
    result = {
        "system": cfg.system,
        "side": cfg.side,
        "rotation": spec.rotation,
        "point": cfg.point,
        "hermiticity_defect": hermiticity,
        "unitarity_defect": unitarity,
        "matrix": matrix_to_json(K),
    }
    return result


def _cmd_sample(cfg: RunConfig, side: str) -> dict:
    from .transforms import _origin_point, phase_function, symbol_at
    from .algebra import parse_system

    _require(cfg, "system", "state")
    desc = parse_system(cfg.system)
    spec = _spec_for(cfg, desc, side)
    grid = _grid_for(cfg, desc, side)
    rho = _state_matrix(cfg, desc)
    f = phase_function(rho, spec, grid)
    trace = complex(rho.trace())
    result = {
        "system": cfg.system,
        "state": cfg.state,
        "side": side,
        "n_nodes": grid.n_nodes,
    }
    if side == "wigner":
        # the symbol integral recovers the trace; on HW windows this residual
        # doubles as the coverage diagnostic
        integral = f.integral()
        result["integral"] = integral
        result["trace_oracle"] = trace
        result["integral_residual"] = abs(integral - trace)
    else:
        origin = complex(symbol_at(rho, spec, _origin_point(desc)))
        result["origin_value"] = origin
        result["trace_oracle"] = trace
        result["origin_residual"] = abs(origin - trace)
    if cfg.out:
        _write_values_csv(cfg.out, grid, f.values)
        result["out"] = cfg.out
    return result


def _cmd_reconstruct(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import parse_system
    from .serialize import matrix_to_json
    from .transforms import PhaseFunction, phase_function, reconstruct

    _require(cfg, "system", "side", "infile")
    desc = parse_system(cfg.system)
    spec = _spec_for(cfg, desc, cfg.side)
    grid = _grid_for(cfg, desc, cfg.side)
    data = np.loadtxt(cfg.infile, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    n_ax = len(grid.column_names)
    if data.shape != (grid.n_nodes, n_ax + 3):
        raise ValueError(
            f"CSV shape {data.shape} does not match a {grid.n_nodes}-node grid; "
            "pass the same --system/--grid-res/--radius used to sample it"
        )
    coord_err = float(np.max(np.abs(data[:, :n_ax] - grid.coords())))
    if coord_err > 1e-9:
        raise ValueError(f"CSV nodes deviate from the rebuilt grid by {coord_err:.3e}")
    values = data[:, n_ax + 1] + 1j * data[:, n_ax + 2]
    f = PhaseFunction(spec, grid, values)
    A = reconstruct(f)
    back = phase_function(A, spec, grid)
    residual = float(np.max(np.abs(back.values - values)))
    result = {
        "system": cfg.system,
        "side": cfg.side,
        "n_nodes": grid.n_nodes,
        "roundtrip_residual": residual,
        "hermiticity_defect": float(np.max(np.abs(A - A.conj().T))),
        "trace": complex(A.trace()),
        "matrix": matrix_to_json(A),
    }
    return result


def _cmd_verify(cfg: RunConfig) -> dict:
    from .algebra import parse_system
    from .transforms import verify_stratonovich

    _require(cfg, "system", "side")
    desc = parse_system(cfg.system)
    grid = None
    if cfg.grid_res is not None or cfg.radius is not None or cfg.exactness is not None:
        grid = _grid_for(cfg, desc, cfg.side)
    report = verify_stratonovich(
        desc, cfg.side, grid=grid, rotation=cfg.rotation or "euler", seed=cfg.seed
    )
    return report.as_dict()


def _thermal_setup(cfg: RunConfig):
    from .algebra import parse_system
    from .statmech import ThermalSpec

    _require(cfg, "system")
    if cfg.beta is None:
        raise ValueError("--beta is required")
    desc = parse_system(cfg.system)
    H = _thermal_hamiltonian(cfg, desc)
    tspec = ThermalSpec(H, cfg.beta)
    grid = _grid_for(cfg, desc, "wigner")
    return desc, tspec, grid


def _cmd_partition(cfg: RunConfig) -> dict:
    from .statmech import partition_function, partition_oracle

    _, tspec, grid = _thermal_setup(cfg)
    z = partition_function(tspec, grid)
    z_oracle = partition_oracle(tspec)
    return {
        "system": cfg.system,
        "beta": cfg.beta,
        "partition_function": z,
        "eigenvalue_oracle": z_oracle,
        "residual": abs(z - z_oracle),
    }


def _cmd_mean(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import SUN, generator, parse_system
    from .serialize import load_matrix
    from .statmech import gibbs_operator, thermal_mean

    desc, tspec, grid = _thermal_setup(cfg)
    spec_text = cfg.observable or "j:3"
    if spec_text.startswith("j:"):
        if not isinstance(desc, SUN):
            raise ValueError("j:<k> observables need an su:N:M system")
        A = generator(desc.N, desc.M, int(spec_text[2:]))
    elif spec_text.startswith("vec:"):
        if not isinstance(desc, SUN):
            raise ValueError("vec: observables need an su:N:M system")
        e = [float(v) for v in spec_text[4:].split(",")]
        if len(e) != 3:
            raise ValueError("vec: takes three components")
        A = sum(e[i] * generator(desc.N, desc.M, i + 1) for i in range(3))
    elif spec_text.startswith("file:"):
        A = load_matrix(spec_text[5:])
    else:
        raise ValueError("observable grammar: j:<k> | vec:ex,ey,ez | file:<path>")
    value = thermal_mean(A, tspec, grid)
    G = gibbs_operator(tspec)
    oracle = float((np.trace(A @ G) / np.trace(G)).real)
    return {
        "system": cfg.system,
        "beta": cfg.beta,
        "observable": spec_text,
        "mean": value,
        "trace_oracle": oracle,
        "residual": abs(value - oracle),
    }


def _cmd_freeenergy(cfg: RunConfig) -> dict:
    from .statmech import free_energy, partition_oracle

    _, tspec, grid = _thermal_setup(cfg)
    f = free_energy(tspec, grid)
    oracle = -math.log(partition_oracle(tspec)) / tspec.beta
    return {
        "system": cfg.system,
        "beta": cfg.beta,
        "free_energy": f,
        "eigenvalue_oracle": oracle,
        "residual": abs(f - oracle),
    }


def _ordered_moment_oracle(desc, rho, orders) -> complex:
    """Hilbert-space value of the ordered-product moment the stencils target."""
    import numpy as np
    from itertools import permutations

    from .algebra import HW, SUN, generator
    from .rotations import euler_factor_sequence

    if isinstance(desc, SUN):
        d = rho.shape[0]
        P = np.eye(d, dtype=np.complex128)
        idx = 0
        for _, k_theta in euler_factor_sequence(desc.N):
            for k, m in ((3, orders[idx]), (k_theta, orders[idx + 1])):
                P = P @ np.linalg.matrix_power(generator(desc.N, desc.M, k), m)
            idx += 2
        for c in range(1, desc.N):
            k = (c + 1) ** 2 - 1
            P = P @ np.linalg.matrix_power(generator(desc.N, desc.M, k), orders[idx])
            idx += 1
        return complex(np.trace(rho @ P))
    if isinstance(desc, HW):
        p, q = orders
        n = desc.n_max
        a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(np.complex128)
        # index (p, q) targets the symmetric ordering S(a^p adag^q)
        ops = [a] * p + [a.conj().T] * q
        if not ops:
            return complex(np.trace(rho))
        acc = np.zeros((n, n), dtype=np.complex128)
        perms = set(permutations(range(len(ops))))
        for sigma in perms:
            term = np.eye(n, dtype=np.complex128)
            for i in sigma:
                term = term @ ops[i]
            acc += term
        acc /= len(perms)
        return complex(np.trace(rho @ acc))
    raise TypeError("moment oracle needs a single HW or SUN factor")


def _cmd_moments(cfg: RunConfig) -> dict:
    from .algebra import parse_system
    from .statmech import weyl_axes, weyl_moments

    _require(cfg, "system", "state", "orders")
    desc = parse_system(cfg.system)
    rho = _state_matrix(cfg, desc)
    orders = tuple(int(v) for v in cfg.orders.split(","))
    step = cfg.step
    value = weyl_moments(rho, desc, orders, step=step)
    oracle = _ordered_moment_oracle(desc, rho, orders)
    return {
        "system": cfg.system,
        "state": cfg.state,
        "axes": list(weyl_axes(desc)),
        "orders": list(orders),
        "step": step,
        "moment": value,
        "ordered_product_oracle": oracle,
        "residual": abs(value - oracle),
    }


def _cmd_autocorr(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import parse_system
    from .statmech import autocorrelation

    _require(cfg, "system", "state", "axis", "samples")
    desc = parse_system(cfg.system)
    rho = _state_matrix(cfg, desc)
    parts = cfg.samples.split(":")
    if len(parts) != 3:
        raise ValueError("--samples grammar is lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
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
        from .serialize import write_csv

        rows = np.stack([s, vals.real, vals.imag], axis=1)
        write_csv(cfg.out, [cfg.axis, "value_re", "value_im"], rows)
        result["out"] = cfg.out
    else:
        result["values"] = [complex(v) for v in vals]
    return result


def _cmd_crosscorr(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import parse_system
    from .statmech import phase_cross_correlation
    from .transforms import phase_function

    _require(cfg, "system", "state", "side")
    desc = parse_system(cfg.system)
    spec = _spec_for(cfg, desc, cfg.side)
    grid = _grid_for(cfg, desc, cfg.side)
    rho = _state_matrix(cfg, desc)
    f = phase_function(rho, spec, grid)
    shift = None
    if cfg.shift is not None:
        shift = _parse_point(desc, cfg.side, cfg.shift, spec.rotation)
    cc = phase_cross_correlation(f, shift)
    result = {
        "system": cfg.system,
        "state": cfg.state,
        "side": cfg.side,
        "shift": cfg.shift if cfg.shift is not None else "zero",
        "value": cc.value,
        "raw_value": cc.raw_value,
        "volume": cc.volume,
    }
    zero = shift is None or all(
        float(v) == 0.0 for chunk in cfg.shift.split(";") for v in chunk.split(",")
    )
    if cfg.side == "wigner" and zero:
        purity = float(np.trace(rho @ rho).real)
        oracle = purity / cc.volume
        result["zero_shift_oracle"] = oracle
        result["residual"] = abs(cc.value - oracle)
    return result


def _cmd_evolve(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import parse_system
    from .transforms import evolve, phase_function

    _require(cfg, "system", "state")
    if cfg.t_final is None:
        raise ValueError("--t-final is required")
    desc = parse_system(cfg.system)
    side = cfg.side or "wigner"
    spec = _spec_for(cfg, desc, side)
    grid = _grid_for(cfg, desc, side)
    rho = _state_matrix(cfg, desc)
    H = _thermal_hamiltonian(cfg, desc)
    f_rho = phase_function(rho, spec, grid)
    f_H = phase_function(H, spec, grid)
    res = evolve(f_rho, f_H, cfg.t_final, cfg.dt, n_frames=cfg.frames)

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
        "side": side,
        "t_final": cfg.t_final,
        "dt": cfg.dt,
        "trace_drift": res.trace_drift,
        "purity_drift": res.purity_drift,
        "propagator_sup_residual": sup_err,
        "n_frames": len(res.frames),
    }
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        from .serialize import write_csv

        coords = grid.coords()
        wts = grid.weights()
        for i, (t, vals) in enumerate(zip(res.times, res.frames)):
            rows = np.concatenate(
                [coords, wts[:, None], vals.real[:, None], vals.imag[:, None]], axis=1
            )
            path = os.path.join(cfg.out, f"frame_{i:04d}_t{t:.6f}.csv")
            write_csv(path, list(grid.column_names) + ["weight", "value_re", "value_im"], rows)
        result["out"] = cfg.out
    return result


# ---------------------------------------------------------------------------
# figure-data presets


def _sphere_mesh(res: int | None):
    """Full-sphere mesh in rotation-parameter coordinates.

    theta in [0, pi/2] covers the sphere: the rotation angle doubles onto the
    colatitude (the lowest-weight state sits at the south pole at theta = 0,
    the equator is theta = pi/4).
    """
    import numpy as np

    n_theta = res if res else 61
    n_phi = 2 * n_theta - 1
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
    import numpy as np

    r = np.where(theta <= 0.25 * math.pi + 1e-12, np.tan(theta), np.nan)
    return r * np.cos(phi), r * np.sin(phi)


def _sphere_rows(phi, theta, vals):
    import numpy as np

    x, y = _stereographic(phi, theta)
    return np.stack(
        [phi, theta, x, y, vals.real, vals.imag, np.abs(vals), np.angle(vals)], axis=1
    )


_SPHERE_HEADER = ["phi", "theta", "x", "y", "value_re", "value_im", "magnitude", "phase"]


def _preset_hw_cat(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import HW, parse_system
    from .kernels import KernelSpec, parity
    from .serialize import write_csv
    from .states import HWCat, build_state
    from .transforms import symbols_at

    desc = parse_system(cfg.system) if cfg.system else HW(40)
    if not isinstance(desc, HW):
        raise ValueError("hw-cat preset needs an hw:<n_max> system")
    side = cfg.side or "wigner"
    spec = KernelSpec(side, desc)
    # three coherent components of radius 3, spaced by 2 pi / 3 from alpha = -3
    comps = tuple(-3.0 * np.exp(2j * math.pi * k / 3.0) for k in range(3))
    rho = build_state(HWCat(comps), desc)

    res = cfg.grid_res if cfg.grid_res else 161
    if res % 2 == 0:
        res += 1  # keep the alpha = 0 row on the mesh
    R = cfg.radius if cfg.radius else 6.0
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


def _preset_spin_cat(cfg: RunConfig) -> dict:
    import numpy as np

    from .algebra import SUN, parse_system
    from .kernels import KernelSpec
    from .serialize import write_csv
    from .states import SpinCat, build_state
    from .transforms import symbols_at

    desc = parse_system(cfg.system) if cfg.system else SUN(2, 80)
    if not isinstance(desc, SUN) or desc.N != 2:
        raise ValueError("spin-cat preset needs an su:2:M system")
    side = cfg.side or "wigner"
    orientations = tuple((k * math.pi / 3.0, math.pi / 10.0) for k in range(3))
    rho = build_state(SpinCat(orientations), desc)

    phi, theta = _sphere_mesh(cfg.grid_res)
    # the Weyl slice Phi = -phi is exactly the two-angle rotation family
    spec = KernelSpec(side, desc) if side == "wigner" else KernelSpec("weyl", desc, "arecchi")
    vals = symbols_at(rho, spec, np.stack([phi, theta], axis=1))

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


def _preset_ghz5(cfg: RunConfig, flavor: str) -> dict:
    import numpy as np

    from .algebra import SUN, Composite
    from .kernels import KernelSpec
    from .serialize import write_csv
    from .states import build_state, parse_state
    from .transforms import symbols_at

    side = cfg.side or "wigner"
    if flavor == "dicke":
        desc, n_factors = SUN(2, 5), 1
    else:
        desc, n_factors = Composite(tuple(SUN(2, 1) for _ in range(5))), 5
    rho = build_state(parse_state("ghz", desc), desc)
    spec = KernelSpec(side, desc)

    phi, theta = _sphere_mesh(cfg.grid_res)
    # every factor sits at the same (phi, theta); the Weyl slice is Phi = -phi
    row = [phi, theta] if side == "wigner" else [phi, theta, -phi]
    vals = symbols_at(rho, spec, np.stack(row * n_factors, axis=1))

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


def _cmd_figure_data(cfg: RunConfig) -> dict:
    _require(cfg, "preset")
    if cfg.preset == "hw-cat":
        return _preset_hw_cat(cfg)
    if cfg.preset == "spin-cat":
        return _preset_spin_cat(cfg)
    if cfg.preset == "ghz5-dicke":
        return _preset_ghz5(cfg, "dicke")
    if cfg.preset == "ghz5-equal-angle":
        return _preset_ghz5(cfg, "equal-angle")
    raise ValueError(f"unknown preset {cfg.preset!r}")


# ---------------------------------------------------------------------------


def run(cfg: RunConfig) -> int:
    handlers = {
        "algebra": _cmd_algebra,
        "kernel": _cmd_kernel,
        "wigner": lambda c: _cmd_sample(c, "wigner"),
        "weyl": lambda c: _cmd_sample(c, "weyl"),
        "reconstruct": _cmd_reconstruct,
        "verify": _cmd_verify,
        "partition": _cmd_partition,
        "mean": _cmd_mean,
        "freeenergy": _cmd_freeenergy,
        "moments": _cmd_moments,
        "autocorr": _cmd_autocorr,
        "crosscorr": _cmd_crosscorr,
        "evolve": _cmd_evolve,
        "figure-data": _cmd_figure_data,
    }
    handler = handlers.get(cfg.command)
    if handler is None:
        raise ValueError(f"unknown command {cfg.command!r}")
    result = handler(cfg)
    out = cfg.out if cfg.command in ("algebra", "kernel", "verify", "reconstruct") else None
    _emit(result, out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        _apply_thread_cap(cfg.threads)
        return run(cfg)
    except Exception as exc:  # surface every failure as machine-readable JSON
        payload = {
            "error": str(exc),
            "context": {"command": getattr(args, "command", None), "type": type(exc).__name__},
        }
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
