"""Smoke and repeatability check of the benchmark itself, on tiny systems.

Run from the root of a checkout:

    python3 perfbench/check.py

For each workload it makes two untraced and two traced tiny runs at one
seed, and checks that

* the untraced run prints every end-to-end metric of BENCHMARK.json, by
  name and with its unit, and the traced run every per-layer metric;
* both runs report correct results;
* the computed work counts (calls, bytes, flops, nodes, RK4 steps, hit
  ratio) and ``accuracy_digits`` are identical across the two runs.

Exits with status 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
COMPUTED = (
    "measures.grid_build.calls", "measures.nodes_built", "kernels.kernel_stack.calls",
    "kernels.stack_bytes_built", "kernels.kernel_stack.hit_ratio",
    "transforms.phase_function.calls", "transforms.reconstruct.calls", "transforms.rk4_steps",
    "transforms.contract_bytes", "transforms.contract_flops", "transforms.symbol_at.calls",
    "kernels.kernel_at.calls", "rotations.euler_rotation.calls",
    "algebra.build_generators.calls", "serialize.bytes_written",
)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            a, b = _run(wl, trace), _run(wl, trace)
            expect(a["correct"] and b["correct"], f"{wl} trace={trace}: results correct")
            missing = [m["name"] for m in listed
                       if a["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing, f"{wl} trace={trace}: every listed metric printed with its unit"
                   + (f" (missing {missing})" if missing else ""))
            names = COMPUTED if trace else ("accuracy_digits",)
            differ = [n for n in names if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            expect(not differ, f"{wl} trace={trace}: computed values repeat at seed {SEED}"
                   + (f" (differ: {differ})" if differ else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
