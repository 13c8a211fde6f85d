"""End-to-end metrics from a run's op records (standard library only).

Latencies are scaled to a reference machine speed before any statistic is
taken.  After every op the worker times a probe of the resource the
workload is bound by (``worker.HostProbe``: the interpreter for cold-sample
and cli-mix, memory bandwidth for warm-calculus), which uses nothing from
wignerweyl.  An op's latency is multiplied by ``PROBE_REF_MS`` over the
median probe time of the ops around it.  On a shared virtual machine these
speeds drift by tens of percent within a minute; the scaling takes most of
that drift out of the figures and leaves any change in wignerweyl itself in
full.  The raw latencies and probe times stay in the per-op records.
"""

from __future__ import annotations

import math
import statistics

# probe time at the reference speed, per bound; fixed, so runs stay comparable
PROBE_REF_MS = {"interpreter": 6.5, "bandwidth": 8.0}
PROBE_WINDOW = 10  # ops on each side whose probes set an op's speed factor
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
FAILED_LATENCY_MS = 1e12  # a failed op ranks as slower than any completed one
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "ops_ok_frac": "1", "accuracy_digits": "digits",
}


def scaled_latencies(records, bound: str) -> list[float]:
    """Each op's latency (ms) at the reference speed."""
    probes = [r["probe_ms"] for r in records]
    out = []
    for i, r in enumerate(records):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        out.append(r["latency_ms"] * PROBE_REF_MS[bound] / local)
    return out


def throughput(records, bound: str) -> float:
    """Completed ops per second of scaled busy time."""
    return sum(r["ok"] for r in records) / (sum(scaled_latencies(records, bound)) / 1e3)


def nearest_rank(sorted_vals, p: float) -> float:
    """The p-th percentile of sorted values by the nearest-rank rule."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` ops ranked beyond it.

    ``n`` is the workload's guaranteed op count (its minimum cycles times ops
    per cycle), so the percentile is fixed per workload and a faster program
    that fits more cycles into a run is not scored at a higher percentile.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def cell(r) -> tuple:
    """The cell of an op record: ops of one cell repeat the same work."""
    return r["kind"], r["system"], r["side"]


def end_to_end(res: dict) -> tuple[dict, dict]:
    """End-to-end metrics from the records of an untraced run.

    Each op's latency is the median scaled latency of its cell (op kind,
    system, side) over the run; the cell medians stand in for every op of
    the cell, so one slow moment does not move a percentile.
    """
    recs = res["records"]
    bound = res["run"]["bound"]
    ref = PROBE_REF_MS[bound]
    by_cell: dict = {}
    for r, lat in zip(recs, scaled_latencies(recs, bound)):
        by_cell.setdefault(cell(r), []).append(lat)
    typical = {c: statistics.median(v) for c, v in by_cell.items()}
    lat = sorted(typical[cell(r)] if r["ok"] else FAILED_LATENCY_MS for r in recs)
    busy_s = sum(typical[cell(r)] for r in recs) / 1e3
    ok = [r for r in recs if r["ok"]]
    worst = max((r["residual"] for r in ok), default=1.0)
    p = tail_percentile(res["run"]["min_cycles"] * res["run"]["ops_per_cycle"])
    values = {
        "setup_s": statistics.median(
            s * ref / pr for s, pr in zip(res["setup_runs_s"], res["setup_probes_ms"])),
        "ops_per_s": len(ok) / busy_s,
        "op_p50_ms": nearest_rank(lat, 50.0),
        "op_tail_ms": nearest_rank(lat, p),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_frac": len(ok) / len(recs),
        "accuracy_digits": -math.log10(max(worst, 1e-17)),
    }
    notes = {
        "op_tail_ms": f"p{p:g} over {len(lat)} ops",
        "setup_s": "median of raw " + ", ".join(f"{s:.3f}" for s in res["setup_runs_s"]),
        "ops_per_s": f"raw {len(ok) / (sum(r['latency_ms'] for r in recs) / 1e3):.4g}, "
                     f"{bound} probe median {statistics.median(r['probe_ms'] for r in recs):.2f} ms"
                     f" vs reference {ref:g} ms",
        "ops_ok_frac": f"{len(recs) - len(ok)} of {len(recs)} ops failed",
        "accuracy_digits": f"largest residual {worst:.3e} among completed ops",
    }
    return values, notes


