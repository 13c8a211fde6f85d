"""Layered, oracle-checked benchmark of wignerweyl.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-sample|warm-calculus|cli-mix \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Each run is a closed loop with a single client in a single process, BLAS and
OpenMP pinned to one thread.  Set-up is repeated in separate processes and
reported as a median.  Every op is checked against a Hilbert-space oracle
outside its timed interval.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass (see NOTES.md).  The
last line of standard output is one JSON object; the full run record, the
per-op records and the per-system table go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END_UNITS, cell, end_to_end

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-sample", "warm-calculus", "cli-mix")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "WIGNERWEYL_THREADS")
SETUP_REPS = 3  # set-up runs per benchmark run, the timed run included
BUDGET_S = 170.0  # the whole run, set-up repetitions included


def _fail(msg: str, code: int) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def _git_commit(root: str):
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _worker(args, root, env, out, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        "--workdir", os.path.join(os.path.dirname(out), f"work-{os.getpid()}"),
        "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic_ns()
    cmd += ["--t0-ns", str(t0)]
    # own process group, so that a timeout also ends the worker's CLI children
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    with open(out) as fh:
        data = json.load(fh)
    os.remove(out)
    return data


def system_table(recs) -> list[dict]:
    """One row per (op kind, system, side): node count and residual beside the time."""
    cells: dict = {}
    for r in recs:
        cells.setdefault(cell(r), []).append(r)
    rows = []
    for (kind, system, side), rs in cells.items():
        done = [r for r in rs if r["ok"]]
        rows.append({
            "kind": kind, "system": system, "side": side,
            "n_nodes": rs[0]["n_nodes"], "d": rs[0]["d"], "ops": len(rs),
            "failed": len(rs) - len(done),
            "median_ms": statistics.median(r["latency_ms"] for r in rs),
            "max_residual": max((r["residual"] for r in done), default=None),
            "tolerance": rs[0]["tolerance"], "oracle": rs[0]["oracle"],
            "first_error": next((r["error"] for r in rs if r["error"]), None),
        })
    return sorted(rows, key=lambda r: -r["median_ms"])


def _print_table(rows) -> None:
    print(f"{'kind':17s} {'system':26s} {'side':6s} {'n_nodes':>8s} {'d':>4s} {'ops':>4s} "
          f"{'fail':>4s} {'median_ms':>10s} {'max_resid':>9s}  oracle")
    for r in rows:
        res = "-" if r["max_residual"] is None else f"{r['max_residual']:.1e}"
        n = "-" if r["n_nodes"] is None else str(r["n_nodes"])
        print(f"{r['kind']:17s} {r['system'][:26]:26s} {r['side']:6s} {n:>8s} {r['d']:>4d} "
              f"{r['ops']:>4d} {r['failed']:>4d} {r['median_ms']:>10.2f} {res:>9s}  {r['oracle']}")
        if r["first_error"]:
            print(f"{'':17s} error: {r['first_error'][:150]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small systems, for the smoke check")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wignerweyl", "__init__.py")):
        return _fail(f"no wignerweyl sources under {src}; run from a checkout's root", 2)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    out = os.path.join(results, f"worker-{os.getpid()}.json")

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPS - 1):
                setups.append(_worker(args, root, env, out, True, deadline))
        res = _worker(args, root, env, out, False, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail(f"{args.workload} run failed: {exc}", 3)
    setups.append(res)
    res["setup_runs_s"] = [s["setup_s"] for s in setups]
    res["setup_probes_ms"] = [s["setup_probe_ms"] for s in setups]
    run = dict(res["run"], commit=_git_commit(root), seconds=args.seconds, trace=args.trace,
               cycles=res["cycles"])

    recs = res["records"]
    failed = sum(not r["ok"] for r in recs)
    wrong = [r for r in recs + (res.get("records_traced") or []) if r["failure"] == "oracle"]
    problems = [f"op {r['op']} {r['kind']} {r['system']} {r['side']}: {r['error']}"
                for r in wrong] + res.get("trace_problems", [])
    table = system_table(recs)

    print("run: " + " ".join(f"{k}={v}" for k, v in run.items() if k != "thread_env"))
    print(f"ops: {len(recs)} in {res['cycles']} cycles, {failed} failed")
    _print_table(table)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        print(f"traced pass: {len(res['spans'])} spans; per-layer values are per cycle")
        for k, m in metrics.items():
            print(f"  {k:42s} {m['value']:.6g} {m['unit']}")
    else:
        values, notes = end_to_end(res)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for k, m in metrics.items():
            extra = f"  ({notes[k]})" if k in notes else ""
            print(f"  {k:16s} {m['value']:.6g} {m['unit']}{extra}")

    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump({"run": run, "metrics": metrics, "problems": problems, "systems": table,
                   "records": recs, "records_traced": res.get("records_traced"),
                   "spans": res.get("spans")}, fh)

    summary = {"correct": not problems, "attempted": len(recs), "failed": failed,
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
