"""The three workloads: their cells, seeded inputs, timed calls and oracles.

A workload is a fixed list of units per cycle.  A unit is one or more ops
run back to back (a CLI ``wigner --out`` and the ``reconstruct`` that reads
its CSV form one unit).  Inputs are drawn once per op from the seed, so every
cycle repeats the same work in a freshly shuffled order: throughput, median
and tail do not depend on how many whole cycles fit in a run, and the
largest residual repeats exactly at a fixed seed.

Every op names the oracle it is checked against and the tolerance it must
meet.  The library is called through module attributes so that the span
wrappers of ``spans.py`` see every call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import wignerweyl.algebra as AL
import wignerweyl.kernels as KE
import wignerweyl.measures as ME
import wignerweyl.points as PT
import wignerweyl.states as ST
import wignerweyl.statmech as SM
import wignerweyl.transforms as TR

WIGNER, WEYL = "wigner", "weyl"

# Tolerances.  Transforms on the default grids are exact to rounding; RK4 at
# dt = 0.01 over two steps carries ~1e-11; fourth-order moment stencils at
# the CLI's step 1e-3 carry ~1e-9.
TOL_EXACT = 1e-9
TOL_RK4 = 1e-8
TOL_STENCIL = 1e-7
TOL_CSV = 1e-9

EVOLVE_DT = 0.01
EVOLVE_STEPS = 2
CLI_TIMEOUT_S = 120


class ReportedFailure(Exception):
    """The program itself reported that the op failed (e.g. verify passed=false)."""


@dataclass
class Op:
    kind: str
    system: str
    side: str
    oracle: str
    tolerance: float
    call: Callable[[], object]
    check: Callable[[object], float]  # residual of the call's result
    facts: dict = field(default_factory=dict)  # n_nodes etc., filled by call/check


@dataclass
class Workload:
    name: str
    units: list  # list[list[Op]]
    min_cycles: int  # whole cycles run: at least this many, and until --seconds pass
    bound: str  # what the ops are bound by: "interpreter" or "bandwidth" (see HostProbe)
    grids: dict = field(default_factory=dict)  # warm working set, kept alive

    @property
    def ops_per_cycle(self) -> int:
        return sum(len(u) for u in self.units)


def _desc(system: str):
    return AL.parse_system(system)


def acceptance_grid():
    """The composite grid of the acceptance ledger (su:2:1 * hw:6)."""
    return ME.product_grid([ME.cp_grid(AL.SUN(2, 1)), ME.hw_grid(AL.HW(6), 5.5, 96)])


def _grid(system: str, side: str):
    if system == "su:2:1*hw:6":
        return acceptance_grid()
    return TR.default_grid(_desc(system), side)


def _hermitian(d: int, rng) -> np.ndarray:
    """Random Hermitian matrix scaled to unit spectral norm."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def _maxabs(A, B) -> float:
    return float(np.max(np.abs(np.asarray(A) - np.asarray(B))))


def _state_spec(system: str, rng):
    """A seeded RandomDensity, or a coherent state where the system has one."""
    desc = _desc(system)
    if rng.random() < 0.5:
        if isinstance(desc, AL.HW):
            return ST.Coherent(complex(*rng.uniform(-1.2, 1.2, 2)))
        if isinstance(desc, AL.SUN) and desc.N == 2:
            return ST.SpinCoherent(rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 1.4))
    return ST.RandomDensity(int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# cold-sample: fresh grid, stack cache misses, one CLI wigner/weyl call in-process

COLD_CELLS = {
    # (system, side): ops per cycle.  Small systems repeat with fresh states so
    # that grid construction, which dominates them, sets the median.
    "full": [
        ("su:2:1", WIGNER, 5), ("su:2:1", WEYL, 5), ("su:2:10", WIGNER, 5),
        ("su:2:10", WEYL, 1), ("su:3:1", WIGNER, 5), ("su:3:1", WEYL, 1),
        ("su:4:1", WIGNER, 1), ("hw:12", WIGNER, 1), ("hw:12", WEYL, 1),
        ("hw:20", WIGNER, 1), ("su:2:1*su:2:1", WIGNER, 5),
        ("su:2:1*su:2:1", WEYL, 5), ("su:2:1*hw:6", WIGNER, 1),
    ],
    "tiny": [
        ("su:2:1", WIGNER, 2), ("su:2:1", WEYL, 2), ("su:2:2", WIGNER, 1),
        ("hw:4", WIGNER, 1), ("hw:4", WEYL, 1), ("su:2:1*su:2:1", WIGNER, 1),
    ],
}


def _cold_op(system: str, side: str, rng) -> Op:
    desc = _desc(system)
    spec = KE.KernelSpec(side, desc)
    state = _state_spec(system, rng)
    op = Op("sample_roundtrip", system, side, "input operator", TOL_EXACT, None, None)

    def call():
        grid = _grid(system, side)
        rho = ST.build_state(state, desc)
        back = TR.reconstruct(TR.phase_function(rho, spec, grid))
        op.facts["n_nodes"] = grid.n_nodes
        return rho, back

    op.call = call
    op.check = lambda res: _maxabs(res[1], res[0])
    return op


def cold_sample(seed: int, size: str) -> Workload:
    rng = np.random.default_rng(seed)
    units = [
        [_cold_op(system, side, rng)]
        for system, side, reps in COLD_CELLS[size]
        for _ in range(reps)
    ]
    # grid construction and stack assembly: many small numpy calls from Python
    return Workload("cold-sample", units, min_cycles=3 if size == "full" else 2,
                    bound="interpreter")


# ---------------------------------------------------------------------------
# warm-calculus: grids and stacks built in set-up, timed ops reuse them

ALL_KINDS = ("roundtrip", "star", "bracket", "thermal", "evolve")
WARM_CELLS = {
    "full": [
        ("su:2:1", WIGNER, ALL_KINDS), ("su:3:1", WIGNER, ALL_KINDS),
        ("su:2:10", WIGNER, ALL_KINDS), ("su:2:10", WEYL, ALL_KINDS),
        ("su:3:1", WEYL, ALL_KINDS), ("su:4:1", WIGNER, ALL_KINDS),
        ("hw:12", WIGNER, ALL_KINDS), ("hw:12", WEYL, ALL_KINDS),
        ("su:2:1*su:2:1", WIGNER, ALL_KINDS), ("su:2:1*su:2:1", WEYL, ALL_KINDS),
        ("su:2:1*hw:6", WIGNER, ("roundtrip", "star")),
    ],
    "tiny": [
        ("su:2:1", WIGNER, ALL_KINDS), ("su:2:2", WEYL, ALL_KINDS),
        ("hw:4", WIGNER, ALL_KINDS), ("hw:4", WEYL, ALL_KINDS),
    ],
}


def _warm_op(kind: str, system: str, side: str, grid, rng) -> Op:
    desc = grid.system
    d = AL.dimension(desc)
    spec = KE.KernelSpec(side, desc)
    A, B = _hermitian(d, rng), _hermitian(d, rng)
    facts = {"n_nodes": grid.n_nodes}

    def pf(X):
        return TR.phase_function(X, spec, grid)

    if kind == "roundtrip":
        def call():
            return TR.reconstruct(pf(A))

        return Op(kind, system, side, "input operator", TOL_EXACT, call,
                  lambda back: _maxabs(back, A), facts)

    if kind in ("star", "bracket"):
        product = "star_product" if kind == "star" else "moyal_bracket"
        expect = A @ B if kind == "star" else A @ B - B @ A

        def call():
            return getattr(TR, product)(pf(A), pf(B))

        return Op(kind, system, side, "A @ B" if kind == "star" else "A @ B - B @ A",
                  TOL_EXACT, call, lambda f: _maxabs(TR.reconstruct(f), expect), facts)

    if kind == "thermal":
        H = _hermitian(d, rng)
        beta = float(rng.uniform(0.2, 2.0))
        tspec = SM.ThermalSpec(H, beta)
        z_exact = SM.partition_oracle(tspec)
        w, V = np.linalg.eigh(H)
        rho = (V * np.exp(-beta * (w - w.min()))) @ V.conj().T
        mean_exact = float(np.trace(rho @ A).real / np.trace(rho).real)

        def call():
            return SM.partition_function(tspec, grid), SM.thermal_mean(A, tspec, grid)

        def check(res):
            return max(abs(res[0] - z_exact) / z_exact, abs(res[1] - mean_exact))

        return Op(kind, system, side, "partition_oracle, Tr[rho A]/Z", TOL_EXACT, call,
                  check, facts)

    if kind == "evolve":
        H = _hermitian(d, rng)
        rho = ST.build_state(ST.RandomDensity(int(rng.integers(2**31))), desc)
        t_final = EVOLVE_STEPS * EVOLVE_DT
        w, V = np.linalg.eigh(H)
        U = (V * np.exp(-1j * w * t_final)) @ V.conj().T
        rho_t = U @ rho @ U.conj().T

        def call():
            return TR.evolve(pf(rho), pf(H), t_final, EVOLVE_DT)

        return Op(kind, system, side, "U rho U^dagger", TOL_RK4, call,
                  lambda res: _maxabs(TR.reconstruct(res.final), rho_t), facts)

    raise ValueError(f"unknown warm op kind {kind!r}")


def warm_calculus(seed: int, size: str) -> Workload:
    """Builds the working set's grids and stacks: this is the set-up."""
    rng = np.random.default_rng(seed)
    grids = {}
    units = []
    for system, side, kinds in WARM_CELLS[size]:
        grid = grids.get((system, side))
        if grid is None:
            grid = grids[(system, side)] = _grid(system, side)
            KE.kernel_stack(KE.KernelSpec(side, grid.system), grid)
        for kind in kinds:
            if kind == "thermal" and side != WIGNER:
                continue  # thermal statistics are Wigner-side quadratures
            units.append([_warm_op(kind, system, side, grid, rng)])
    # einsum contractions stream cached stacks of up to 637 MB
    return Workload("warm-calculus", units, min_cycles=3 if size == "full" else 2,
                    bound="bandwidth", grids=grids)


# ---------------------------------------------------------------------------
# cli-mix: one `python -m wignerweyl.cli` child per op


class CliRunner:
    """Launches CLI children, plain or through the tracing launcher."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.traced = False
        self.span_file = None  # set per op while tracing

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def command(self, args: list[str]) -> list[str]:
        if self.traced:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
            return [sys.executable, launcher, self.span_file, *args]
        return [sys.executable, "-m", "wignerweyl.cli", *args]

    def run(self, args: list[str]) -> dict:
        proc = subprocess.run(
            self.command(args), capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout)


def _cli_op(runner, command, system, side, args, oracle, tolerance, check) -> Op:
    op = Op(command, system, side, oracle, tolerance, None, None)

    def call():
        out = runner.run([command, *args])
        n = out.get("n_nodes", out.get("n_rows"))
        if n is not None:
            op.facts["n_nodes"] = n
        return out

    op.call = call
    op.check = check
    return op


def _field(rng) -> str:
    # one token: a leading minus would otherwise read as a flag
    return "--field=" + ",".join(f"{v:.6f}" for v in rng.uniform(-0.6, 0.6, 3))


def _beta(rng) -> str:
    return f"{rng.uniform(0.2, 2.0):.6f}"


def _cstr(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}j"


def _spot_check(csv_path, cols, rows, value_at) -> float:
    """Largest deviation of CSV values from per-point kernel_at on given rows."""
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    re_col, im_col = cols
    err = 0.0
    for i in rows:
        i = int(i) % len(data)
        v = complex(data[i, re_col], data[i, im_col])
        exact = value_at(data[i])
        err = max(err, abs(v - exact) / max(1.0, abs(exact)))
    return err


def _symbol(rho, spec, point) -> complex:
    return complex(np.trace(rho @ KE.kernel_at(spec, point)))


def _sample_pair(runner, system, side, state, tag) -> list[Op]:
    """`<side> --out` on a seeded state, then `reconstruct` of that CSV."""
    desc = _desc(system)
    csv = runner.path(f"{tag}.csv")
    key = "integral_residual" if side == WIGNER else "origin_residual"
    sample = _cli_op(runner, side, system, side,
                     ["--system", system, "--state", state, "--out", csv],
                     "trace" if side == WIGNER else "trace at origin", TOL_EXACT,
                     lambda out: out[key])

    def check(out):
        rho = ST.build_state(ST.parse_state(state, desc), desc)
        back = np.asarray(out["matrix"]["re"]) + 1j * np.asarray(out["matrix"]["im"])
        return max(out["roundtrip_residual"], _maxabs(back, rho))

    rebuild = _cli_op(runner, "reconstruct", system, side,
                      ["--system", system, "--side", side, "--infile", csv],
                      "input state", TOL_EXACT, check)
    return [sample, rebuild]


def _verify(runner, system, side) -> list[Op]:
    """`verify` as users run it, at the library's default probe seed.

    The op is held to the tolerance of its worst condition (largest
    residual-to-tolerance ratio), so it fails exactly when the report's
    ``passed`` flag is false.
    """
    def check(out):
        worst = max(out["conditions"], key=lambda c: c["residual"] / c["tolerance"])
        if (worst["residual"] < worst["tolerance"]) != out["passed"]:
            raise RuntimeError("verify's passed flag disagrees with its residuals")
        op.tolerance = worst["tolerance"]
        op.oracle = f"passed flag ({worst['name']})"
        if not out["passed"]:
            raise ReportedFailure(
                f"verify passed=false: {worst['name']} residual {worst['residual']:.3e}"
                f" >= {worst['tolerance']:.1e}"
            )
        return worst["residual"]

    op = _cli_op(runner, "verify", system, side, ["--system", system, "--side", side],
                 "passed flag", None, check)
    return [op]


def _figure(runner, preset, side, extra, tag, n_check, rng) -> list[Op]:
    csv = runner.path(f"{tag}.csv")
    rows = rng.integers(0, 1 << 30, n_check)
    if preset == "hw-cat":
        desc = AL.HW(40)
        rho = ST.build_state(ST.HWCat(tuple(-3.0 * np.exp(2j * math.pi * k / 3.0)
                                            for k in range(3))), desc)
        spec = KE.KernelSpec(side, desc)
        cols = (2, 3)

        def value_at(row):
            return _symbol(rho, spec, PT.HWPoint(complex(row[0], row[1])))
    elif preset == "spin-cat":
        desc = _desc(extra[extra.index("--system") + 1])
        rho = ST.build_state(ST.SpinCat(tuple((k * math.pi / 3.0, math.pi / 10.0)
                                              for k in range(3))), desc)
        spec = KE.KernelSpec(side, desc)
        cols = (4, 5)

        def value_at(row):
            return _symbol(rho, spec, PT.CPPoint((row[0],), (row[1],)))
    else:  # ghz5-equal-angle
        desc = AL.Composite(tuple(AL.SUN(2, 1) for _ in range(5)))
        rho = ST.build_state(ST.GHZ(), desc)
        spec = KE.KernelSpec(side, desc)
        cols = (4, 5)

        def value_at(row):
            phi, theta = row[0], row[1]
            if side == WIGNER:
                sub = PT.CPPoint((phi,), (theta,))
            else:
                sub = PT.EulerPoint((phi,), (theta,), (-phi,))
            return _symbol(rho, spec, PT.CompositePoint((sub,) * 5))

    def check(out):
        err = _spot_check(csv, cols, rows, value_at)
        return max(err, out.get("origin_residual", 0.0))

    args = ["--preset", preset, "--side", side, *extra, "--out", csv]
    system = AL.format_system(desc)
    return [_cli_op(runner, "figure-data", system, side, args,
                    f"kernel_at on {n_check} seeded rows", TOL_CSV, check)]


def _cli_units(runner, rng, size: str) -> list:
    def coherent():
        return "coherent:" + _cstr(complex(*rng.uniform(-1.0, 1.0, 2)))

    def spin():
        return f"spincoherent:{rng.uniform(0, 2 * math.pi):.6f},{rng.uniform(0.1, 1.4):.6f}"

    def rand():
        return f"random:{int(rng.integers(2**31))}"

    def partition(system):
        args = ["--system", system, _field(rng), "--beta", _beta(rng)]
        return [_cli_op(runner, "partition", system, WIGNER, args,
                        "eigenvalue sum (relative)", TOL_EXACT,
                        lambda out: out["residual"] / out["eigenvalue_oracle"])]

    def mean(system, observable):
        args = ["--system", system, _field(rng), "--beta", _beta(rng),
                "--observable", observable]
        return [_cli_op(runner, "mean", system, WIGNER, args, "Tr[rho A]/Z", TOL_EXACT,
                        lambda out: out["residual"])]

    def moments(system, state, orders):
        return [_cli_op(runner, "moments", system, WEYL,
                        ["--system", system, "--state", state, "--orders", orders],
                        "ordered-product moment", TOL_STENCIL, lambda out: out["residual"])]

    def autocorr(system, state, axis):
        return [_cli_op(runner, "autocorr", system, WEYL,
                        ["--system", system, "--state", state, "--axis", axis,
                         "--samples", "0:3:64"],
                        "trace at zero", TOL_EXACT, lambda out: out["r0_trace_residual"])]

    def crosscorr(system, state):
        return [_cli_op(runner, "crosscorr", system, WIGNER,
                        ["--system", system, "--side", WIGNER, "--state", state],
                        "purity / volume", TOL_EXACT, lambda out: out["residual"])]

    def evolve(system, state, tag):
        args = ["--system", system, "--state", state, _field(rng),
                "--t-final", f"{EVOLVE_STEPS * EVOLVE_DT}", "--dt", f"{EVOLVE_DT}",
                "--frames", "2", "--out", runner.path(tag)]
        return [_cli_op(runner, "evolve", system, WIGNER, args, "U rho U^dagger", TOL_RK4,
                        lambda out: max(out["propagator_sup_residual"], out["trace_drift"]))]

    if size == "tiny":
        return [
            _sample_pair(runner, "su:2:2", WIGNER, rand(), "w_su22"),
            _verify(runner, "su:2:1", WIGNER),
            partition("su:2:2"),
            moments("su:2:2", spin(), "0,0,2"),
            autocorr("su:2:2", spin(), "Phi1"),
            crosscorr("su:2:2", rand()),
            evolve("su:2:2", spin(), "ev_su22"),
            _figure(runner, "spin-cat", WIGNER, ["--system", "su:2:2", "--grid-res", "11"],
                    "spin_cat", 4, rng),
        ]
    return [
        _sample_pair(runner, "su:2:10", WIGNER, rand(), "w_su210"),
        _sample_pair(runner, "hw:12", WIGNER, coherent(), "w_hw12"),
        [_cli_op(runner, WEYL, "su:3:1", WEYL, ["--system", "su:3:1", "--state", rand()],
                 "trace at origin", TOL_EXACT, lambda out: out["origin_residual"])],
        _sample_pair(runner, "su:2:4", WEYL, spin(), "y_su24"),
        _verify(runner, "su:2:1", WIGNER),
        _verify(runner, "su:2:4", WEYL),
        _verify(runner, "hw:8", WIGNER),
        partition("su:2:10"),
        partition("su:3:1"),
        mean("su:2:10", "j:3"),
        mean("su:3:1", "j:1"),
        moments("hw:16", coherent(), "1,1"),
        moments("su:2:3", spin(), "0,0,2"),
        autocorr("su:2:3", spin(), "Phi1"),
        crosscorr("su:2:10", rand()),
        evolve("su:2:4", spin(), "ev_su24"),
        _figure(runner, "ghz5-equal-angle", WIGNER, ["--grid-res", "31"], "ghz5_w", 8, rng),
        _figure(runner, "ghz5-equal-angle", WEYL, ["--grid-res", "31"], "ghz5_y", 8, rng),
        _figure(runner, "spin-cat", WIGNER, ["--system", "su:2:20"], "spin_cat", 8, rng),
        _figure(runner, "hw-cat", WIGNER, ["--grid-res", "81"], "hw_cat", 8, rng),
    ]


def cli_mix(seed: int, size: str, runner: CliRunner) -> Workload:
    rng = np.random.default_rng(seed)
    # interpreter start-up and imports dominate every child
    return Workload("cli-mix", _cli_units(runner, rng, size), min_cycles=2,
                    bound="interpreter")
