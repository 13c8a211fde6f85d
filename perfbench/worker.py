"""Runs one workload in this process and writes its raw result as JSON.

``run.py`` starts this script with the checkout's ``src`` on PYTHONPATH and
BLAS/OpenMP pinned to one thread.  Everything from interpreter start to the
first timed op is set-up: imports, and for warm-calculus the working set's
grids and kernel stacks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import spans as SP
import workloads as W
from metrics import throughput
from wignerweyl import algebra as AL


CLI_COMMANDS = ("wigner", "weyl", "reconstruct", "verify", "partition", "mean",
                "moments", "autocorr", "crosscorr", "evolve", "figure-data")
PROBE_LOOP = 100_000
PROBE_STREAM_BYTES = 64 << 20


class HostProbe:
    """Times a fixed slice of the work a workload is bound by.

    ``interpreter``: a pure-Python integer loop.  ``bandwidth``: summing a
    resident 64 MB array.  Neither touches anything wignerweyl allocates or
    caches, so the time tracks only how fast the machine is at that moment;
    ``metrics.py`` scales op latencies by it.
    """

    def __init__(self, bound: str):
        self._resident = np.ones(PROBE_STREAM_BYTES // 8) if bound == "bandwidth" else None

    def __call__(self) -> float:
        t0 = time.perf_counter_ns()
        if self._resident is not None:
            float(self._resident.sum())
        else:
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i
        return (time.perf_counter_ns() - t0) / 1e6


def _build(name: str, seed: int, size: str, workdir: str):
    if name == "cold-sample":
        return W.cold_sample(seed, size), None
    if name == "warm-calculus":
        return W.warm_calculus(seed, size), None
    if name == "cli-mix":
        runner = W.CliRunner(workdir)
        return W.cli_mix(seed, size, runner), runner
    raise ValueError(f"unknown workload {name!r}")


def run_cycles(wl, probe, seed, seconds, min_cycles, n_cycles=None, tracer=None,
               runner=None, span_dir=None):
    """Closed loop, one client: whole shuffled cycles of the workload's units.

    Runs ``n_cycles`` cycles, or else until ``seconds`` have passed and at
    least ``min_cycles`` cycles are done.  Only ``op.call`` is timed; the oracle
    check runs after the interval closes, with tracing paused, and then the
    host probe.
    """
    records, windows = [], {}
    dims: dict[str, int] = {}
    start = time.monotonic()
    cycle = 0
    while True:
        order = np.random.default_rng([seed, cycle]).permutation(len(wl.units))
        for u in order:
            for op in wl.units[u]:
                op_id = len(records)
                if runner is not None and tracer is not None:
                    runner.span_file = os.path.join(span_dir, f"op{op_id}.json")
                if tracer is not None:
                    tracer.op = op_id
                error = failure = result = None
                t0 = time.monotonic_ns()
                try:
                    result = op.call()
                except Exception as exc:  # a failed op is data, not a crash
                    error, failure = f"{type(exc).__name__}: {exc}", "exception"
                t1 = time.monotonic_ns()
                if tracer is not None:
                    tracer.op = None
                    if runner is not None and os.path.exists(runner.span_file):
                        tracer.spans.extend(
                            SP.load_spans(runner.span_file, op_id, len(tracer.spans))
                        )
                        os.remove(runner.span_file)
                    windows[op_id] = (t0, t1)
                residual = None
                if error is None:
                    try:
                        residual = float(op.check(result))
                    except W.ReportedFailure as exc:
                        error, failure = str(exc), "reported"
                    except Exception as exc:
                        error, failure = f"oracle: {type(exc).__name__}: {exc}", "oracle"
                t2 = time.monotonic_ns()
                ok = (error is None and residual is not None and np.isfinite(residual)
                      and residual <= op.tolerance)
                if error is None and not ok:
                    error = f"residual {residual:.3e} above tolerance {op.tolerance:.1e}"
                    failure = "oracle"
                if op.system not in dims:
                    dims[op.system] = AL.dimension(AL.parse_system(op.system))
                records.append({
                    "op": op_id, "cycle": cycle, "workload": wl.name, "kind": op.kind,
                    "system": op.system, "side": op.side,
                    "n_nodes": op.facts.get("n_nodes"), "d": dims[op.system],
                    "latency_ms": (t1 - t0) / 1e6, "residual": residual,
                    "oracle": op.oracle, "tolerance": op.tolerance, "ok": ok,
                    "error": error, "failure": failure, "oracle_ms": (t2 - t1) / 1e6,
                    "probe_ms": probe(),
                })
        cycle += 1
        if n_cycles is not None:
            if cycle >= n_cycles:
                break
        elif time.monotonic() - start >= seconds and cycle >= min_cycles:
            break
    return records, windows, cycle


def _startup_s(reps: int = 3) -> float:
    """Median wall time of a child that only imports wignerweyl.transforms."""
    times = []
    for _ in range(reps):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "import wignerweyl.transforms"],
                       check=True, timeout=60)
        times.append(time.monotonic() - t0)
    return float(np.median(times))


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _layer_metrics(agg, n_cycles, untraced, traced, wl, startup) -> dict:
    """Per-layer metrics, each a total per cycle of the workload's op mix."""
    calls, self_s, k = agg["calls"], agg["self_s"], agg["counts"]

    def per(x):
        return x / n_cycles

    m = {
        "measures.grid_build.calls": (per(sum(calls.get(n, 0) for n in SP.GRID_BUILDERS)), "count"),
        "measures.grid_build.self_s": (per(sum(self_s.get(n, 0.0) for n in SP.GRID_BUILDERS)), "s"),
        "measures.nodes_built": (per(k["nodes_built"]), "count"),
        "kernels.kernel_stack.calls": (per(calls.get("kernels.kernel_stack", 0)), "count"),
        "kernels.stack_bytes_built": (per(k["stack_bytes_built"]), "B"),
        "kernels.kernel_stack.hit_ratio": (
            k["stack_hits"] / k["stack_calls"] if k["stack_calls"] else 0.0, "1"),
        "transforms.phase_function.calls": (per(calls.get("transforms.phase_function", 0)), "count"),
        "transforms.reconstruct.calls": (per(calls.get("transforms.reconstruct", 0)), "count"),
        "transforms.rk4_steps": (per(k["rk4_steps"]), "count"),
        "transforms.contract_bytes": (per(k["contract_bytes"]), "B"),
        "transforms.contract_flops": (per(k["contract_flops"]), "flop"),
        "transforms.symbol_at.calls": (per(calls.get("transforms.symbol_at", 0)), "count"),
        "kernels.kernel_at.calls": (per(calls.get("kernels.kernel_at", 0)), "count"),
        "rotations.euler_rotation.calls": (per(calls.get("rotations.euler_rotation", 0)), "count"),
        "algebra.build_generators.calls": (per(calls.get("algebra.build_generators", 0)), "count"),
        "serialize.bytes_written": (per(k["bytes_written"]), "B"),
    }
    for name in SP.traced_names():
        m[f"{name}.self_s"] = (per(self_s.get(name, 0.0)), "s")
    m["cli.startup_s"] = (startup, "s")
    for command in CLI_COMMANDS:
        wall = sum(r["latency_ms"] for r in untraced["records"] if r["kind"] == command) / 1e3
        m[f"cli.{command}.wall_s"] = (wall / untraced["cycles"] if wl.name == "cli-mix" else 0.0, "s")
    m["bench.oracle_s"] = (
        sum(r["oracle_ms"] for r in untraced["records"]) / 1e3 / untraced["cycles"], "s")
    m["bench.op_s"] = (per(agg["op_s"]), "s")
    m["bench.unattributed_s"] = (per(agg["unattributed_s"]), "s")
    u, t = throughput(untraced["records"], wl.bound), throughput(traced["records"], wl.bound)
    m["trace.overhead_frac"] = ((u - t) / u, "1")
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--t0-ns", type=int, required=True, dest="t0_ns")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    tracer = None
    if args.trace:
        # installed before set-up so that stacks built there count as returned
        # (later calls for them are hits); set-up spans are then dropped
        tracer = SP.Tracer()
        tracer.install()
        tracer.active = True
        tracer.op = "setup"
    wl, runner = _build(args.workload, args.seed, args.size, args.workdir)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    probe = HostProbe(wl.bound)
    setup_probe_ms = float(np.median([probe() for _ in range(3)]))
    if tracer is not None:
        tracer.op = None
        tracer.active = False
        tracer.clear()
    result = {"setup_s": setup_s, "setup_probe_ms": setup_probe_ms}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    result["run"] = {
        "seed": args.seed, "workload": args.workload, "size": args.size,
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ops_per_cycle": wl.ops_per_cycle, "min_cycles": wl.min_cycles, "bound": wl.bound,
        **_versions(),
    }
    if not args.trace:
        records, _, cycles = run_cycles(wl, probe, args.seed, args.seconds, wl.min_cycles)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
        result.update(records=records, cycles=cycles,
                      peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    else:
        # one cycle to fill the library's own caches, then untraced and traced
        # passes over the same cycles at the same seed
        run_cycles(wl, probe, args.seed, 0.0, 1, n_cycles=1)
        records, _, cycles = run_cycles(wl, probe, args.seed, args.seconds / 2.0, 1)
        untraced = {"records": records, "cycles": cycles}
        tracer.active = True
        span_dir = os.path.join(args.workdir, "spans")
        if runner is not None:
            os.makedirs(span_dir, exist_ok=True)
            runner.traced = True
        records_t, windows, _ = run_cycles(wl, probe, args.seed, 0.0, 1, n_cycles=cycles,
                                           tracer=tracer, runner=runner, span_dir=span_dir)
        tracer.active = False
        traced = {"records": records_t, "cycles": cycles}
        intervals = {op: (b - a) / 1e9 for op, (a, b) in windows.items()}
        agg = SP.aggregate(tracer.spans, intervals)
        problems = SP.check_nesting(tracer.spans, windows)
        gap = agg["self_sum_s"] + agg["unattributed_s"] - agg["op_s"]
        if abs(gap) > 1e-6 * max(1.0, agg["op_s"]):
            problems.append(f"self times + unattributed differ from op time by {gap:.3e} s")
        startup = _startup_s() if args.workload == "cli-mix" else 0.0
        result.update(
            records=records, records_traced=records_t, cycles=cycles,
            layers=_layer_metrics(agg, cycles, untraced, traced, wl, startup),
            trace_problems=problems, spans=[s.as_dict() for s in tracer.spans],
        )
    shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
