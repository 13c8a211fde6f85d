"""Command-line surface.

Builds algebras, evaluates kernels, samples/inverts/verifies phase-space
functions, runs dynamics and thermal calculations, and emits plot-ready CSV
data.  ``RunConfig`` declares every option once and ``COMMANDS`` gives each
command the options it reads, the ones it requires, its handler in
``wignerweyl.commands`` and what ``--out`` writes; the parser is built from
both.  The handlers import numpy, so they load only after the thread cap has
been applied to the BLAS runtime.

Every command that has a Hilbert-space reference quantity prints the residual
against it.  Errors leave a machine-readable {"error", "context"} JSON object
on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# figure-data presets: name -> the flags each reads besides --side and --grid-res
PRESETS = {"hw-cat": ("system", "radius"), "spin-cat": ("system",),
           "ghz5-dicke": (), "ghz5-equal-angle": ()}


def _option(help: str, default=None, **argparse_kw):
    """A RunConfig field that is also the flag --<name>; argparse_kw goes to add_argument."""
    return dataclasses.field(default=default, metadata={"help": help, **argparse_kw})


@dataclass
class RunConfig:
    """One CLI invocation; serializable so runs can be replayed from JSON."""

    command: str
    system: str | None = _option("hw:<n_max> | su:<N>:<M> | factors joined by '*'")
    state: str | None = _option("state grammar, e.g. spincoherent:0.3,0.8")
    side: str = _option("kernel family", "wigner", choices=("wigner", "weyl"))
    grid_res: int | None = _option(
        "grid resolution; on an su factor the count of every colatitude, each "
        "angle taking the least odd count at or above it and its default; on an "
        "hw factor it selects the square window (default: the system's natural grid)",
        type=int)
    radius: float | None = _option(
        "square oscillator window half-width (with --grid-res, except in figure-data)",
        type=float)
    rotation: str = _option("rotation family", "euler", choices=("euler", "arecchi"))
    beta: float | None = _option("inverse temperature", type=float)
    field: str | None = _option("hx,hy,hz couples to J(1),J(2),J(3)")
    hamiltonian: str | None = _option("path to a matrix JSON file (wins over --field)")
    observable: str | None = _option("j:<k> | vec:ex,ey,ez | file:<path> (default j:3)")
    point: str | None = _option("comma-separated coordinates; ';' between factors")
    shift: str | None = _option("same grammar as kernel --point (omit for zero shift)")
    axis: str | None = _option("Weyl grid column name, e.g. re, im, theta1, Phi1, f1_phi1")
    samples: str | None = _option("lo:hi:count")
    orders: str | None = _option("per-axis derivative orders, e.g. 0,0,2")
    t_final: float | None = _option("final time", type=float)
    dt: float = _option("frame spacing: frames land on multiples of it", 1e-3, type=float)
    frames: int = _option("stored frames after the initial one (0: final one only)", 10, type=int)
    preset: str | None = _option("data set", choices=tuple(PRESETS))
    infile: str | None = _option("CSV produced by wigner/weyl")
    out: str | None = None  # a flag of every command; its help comes from Command.out
    seed: int = _option("seed of the random probe operators", 0, type=int)
    threads: int | None = _option("cap the BLAS thread pool (assigns OMP_NUM_THREADS etc.)",
                                  type=int)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


_FIELDS = {f.name: f for f in fields(RunConfig)}

_OUT_HELP = {
    "json": "also write the JSON result to this file",
    "csv": "write the values as CSV to this file",
    "frames": "directory for one CSV per stored frame",
}


@dataclass(frozen=True)
class Command:
    help: str
    handler: str  # function name in wignerweyl.commands
    options: tuple[str, ...]  # RunConfig fields it reads, besides out and threads
    required: tuple[str, ...] = ("system",)
    out: str = "json"  # a key of _OUT_HELP
    side: str | None = None  # fixed kernel side; None reads --side


_GRID = ("grid_res", "radius")
_H = ("field", "hamiltonian")
_THERMAL = ("system", *_GRID, "beta", *_H)

COMMANDS = {
    "algebra": Command("dump the generator set of an su:N:M system", "algebra", ("system",)),
    "kernel": Command("evaluate a kernel matrix at one point", "kernel",
                      ("system", "side", "point", "rotation"), ("system", "point")),
    "wigner": Command("sample the wigner function of a state on a grid", "sample",
                      ("system", "state", *_GRID), ("system", "state"), "csv", "wigner"),
    "weyl": Command("sample the weyl function of a state on a grid", "sample",
                    ("system", "state", *_GRID), ("system", "state"), "csv", "weyl"),
    "reconstruct": Command("rebuild the operator from a sampled CSV", "reconstruct",
                           ("system", "side", *_GRID, "infile"), ("system", "infile")),
    "verify": Command("Stratonovich-Weyl condition report", "verify",
                      ("system", "side", *_GRID, "rotation", "seed")),
    "partition": Command("partition function Z(beta)", "partition", _THERMAL,
                         ("system", "beta"), side="wigner"),
    "mean": Command("thermal expectation of an observable", "mean", (*_THERMAL, "observable"),
                    ("system", "beta"), side="wigner"),
    "freeenergy": Command("free energy -ln Z / beta", "freeenergy", _THERMAL,
                          ("system", "beta"), side="wigner"),
    "moments": Command("operator moments from Weyl-symbol derivatives", "moments",
                       ("system", "state", "orders"), ("system", "state", "orders")),
    "autocorr": Command("Weyl symbol along one coordinate axis", "autocorr",
                        ("system", "state", "axis", "samples"),
                        ("system", "state", "axis", "samples"), "csv"),
    "crosscorr": Command("phase-space cross-correlation at a shift", "crosscorr",
                         ("system", "state", "side", *_GRID, "shift"), ("system", "state")),
    "evolve": Command("phase-space von Neumann dynamics", "evolve",
                      ("system", "state", "side", *_GRID, *_H, "t_final", "dt", "frames"),
                      ("system", "state", "t_final"), "frames"),
    "figure-data": Command("plot-ready CSV presets", "figure_data",
                           ("preset", "system", "side", "grid_res", "radius"), ("preset",),
                           "csv"),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, or with a ``command`` the parser of that command alone.

    A run parses one command, so ``main`` builds only its subparser.  The
    command list then goes in the usage line as a fixed metavar, so help for
    that command and every error it can raise read as from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="wignerweyl",
        description="Phase-space representations of finite quantum systems.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    flags = {name: dict(f.metadata) for name, f in _FIELDS.items() if f.metadata}
    flags["config"] = {"help": "JSON config file; explicit flags override it"}
    for name, cmd in COMMANDS.items():
        if command is not None and name != command:
            continue
        p = sub.add_parser(name, help=cmd.help)
        flags["out"] = {"help": _OUT_HELP[cmd.out]}
        for opt in (*cmd.options, "out", "threads", "config"):
            # flags left out stay out of the namespace, so config values survive them
            p.add_argument("--" + opt.replace("_", "-"), default=argparse.SUPPRESS, **flags[opt])
    return parser


def _config_value(key: str, value):
    """A config-file value as its flag reads it: through the flag's type, within its choices."""
    meta = _FIELDS[key].metadata
    if "type" in meta:
        try:
            value = meta["type"](str(value))
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid {meta['type'].__name__} value: "
                             f"{value!r}") from None
    if "choices" in meta and value not in meta["choices"]:
        raise ValueError(f"config key {key!r}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, meta['choices']))})")
    return value


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicit CLI flags on top."""
    explicit = vars(args).copy()
    merged = RunConfig(command=explicit.pop("command")).to_dict()
    config = explicit.pop("config", None)
    if config:
        with open(config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in base.items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            if key != "command" and value is not None:
                merged[key] = _config_value(key, value)
    merged.update(explicit)
    return RunConfig.from_dict(merged)


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise ValueError("thread cap must be >= 1")
    if "numpy" in sys.modules:
        raise ValueError(
            "--threads cannot take effect: numpy is already loaded in this process; "
            "set OMP_NUM_THREADS/OPENBLAS_NUM_THREADS before starting Python instead"
        )
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


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


def run(cfg: RunConfig) -> int:
    cmd = COMMANDS.get(cfg.command)
    if cmd is None:
        raise ValueError(f"unknown command {cfg.command!r}")
    for name in cmd.required:
        if getattr(cfg, name) in (None, ""):
            raise ValueError(f"--{name.replace('_', '-')} is required for {cfg.command}")
    from . import commands

    result = getattr(commands, cmd.handler)(cfg, commands.Inputs(cfg, cmd.side or cfg.side))
    _emit(result, cfg.out if cmd.out == "json" else None)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
