"""Span tracing of wignerweyl from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``wignerweyl`` module that binds it (``transforms.kernel_stack`` and
``kernels.kernel_stack`` alike, ``statmech.phase_function`` as well as
``transforms.phase_function``), and wraps ``QuadratureGrid.weights`` and
``coords`` on the class.  A wrapper records a span only while the tracer is
active and an op is open: name, start, end, parent span, op id, and the
system, side, node count and dimension found among the call's arguments.
Computed work counts (stack bytes built, contraction bytes and flops, RK4
steps, grid nodes, CSV bytes) are attached to the span that did the work.

Spans stay in memory; ``aggregate`` turns them into per-layer totals with
self time = span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import time
import weakref

# module -> public functions traced there; span names are "<module>.<name>"
TRACED = {
    "algebra": ("build_generators",),
    "measures": ("cp_grid", "sun_grid", "hw_grid", "product_grid"),
    "kernels": ("kernel_stack", "kernel_at"),
    "rotations": ("euler_rotation",),
    "transforms": (
        "default_grid", "phase_function", "reconstruct", "star_product",
        "moyal_bracket", "evolve", "symbol_at", "verify_stratonovich",
    ),
    "statmech": (
        "gibbs_operator", "partition_oracle", "partition_function", "thermal_mean",
        "weyl_moments", "autocorrelation", "phase_cross_correlation",
    ),
    "states": ("build_state",),
    "serialize": ("write_csv",),
}
GRID_METHODS = ("weights", "coords")
GRID_BUILDERS = frozenset(
    {"measures.cp_grid", "measures.sun_grid", "measures.hw_grid", "measures.product_grid"}
)
COMPLEX_BYTES = 16
COMPLEX_MAC_FLOPS = 8  # one complex multiply-add
RK4_CONTRACTIONS = 8  # four right-hand sides, each one inverse and one forward contraction

_STEP_RE = re.compile(r"at step (\d+)")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "children_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def as_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "attrs": self.attrs,
            "children_s": self.children_s,
        }

    @classmethod
    def from_dict(cls, data: dict, op) -> "Span":
        s = cls(data["name"], data["start"], data["parent"], op)
        s.end = data["end"]
        s.attrs = data["attrs"]
        s.children_s = data["children_s"]
        return s


class Tracer:
    """In-memory span recorder.

    Records only while ``active`` is true and ``op`` names the open op.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = None
        self._stack: list[int] = []
        self._returned = weakref.WeakKeyDictionary()  # grid -> {spec: id(stack)}
        self._formatted = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib
        import sys

        mods = {short: importlib.import_module(f"wignerweyl.{short}") for short in TRACED}
        wrappers = {}
        for short, names in TRACED.items():
            for fname in names:
                fn = getattr(mods[short], fname)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{fname}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "wignerweyl" and not modname.startswith("wignerweyl."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        grid_cls = mods["measures"].QuadratureGrid
        for meth in GRID_METHODS:
            setattr(grid_cls, meth, self._wrap(getattr(grid_cls, meth), f"measures.{meth}"))
        self._types = (
            mods["kernels"].KernelSpec,
            grid_cls,
            mods["transforms"].PhaseFunction,
            (mods["algebra"].HW, mods["algebra"].SUN, mods["algebra"].Composite),
            mods["algebra"].dimension,
            mods["algebra"].format_system,
        )

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self.op is None:
                return fn(*args, **kwargs)
            return self.call(fn, name, count, args, kwargs)

        return wrapper

    # -- recording ------------------------------------------------------------

    def call(self, fn, name, count, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.monotonic_ns(), parent, self.op)
        self._frame(span.attrs, args, kwargs)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.monotonic_ns()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += span.duration
            if count is not None:
                count(self, span, args, kwargs, result, error)

    def _frame(self, attrs, args, kwargs) -> None:
        Spec, Grid, PF, descs, dimension, fmt = self._types
        spec = grid = system = None
        for a in args if not kwargs else (*args, *kwargs.values()):
            if isinstance(a, PF):
                spec, grid = a.spec, a.grid
            elif isinstance(a, Spec):
                spec = a
            elif isinstance(a, Grid):
                grid = a
            elif isinstance(a, descs) and system is None:
                system = a
        if spec is not None:
            system = spec.system
            attrs["side"] = spec.side
        else:
            side = kwargs.get("side", args[1] if len(args) > 1 else None)
            if isinstance(side, str) and side in ("wigner", "weyl"):
                attrs["side"] = side
        if system is None and grid is not None:
            system = grid.system
        if system is not None:
            text = self._formatted.get(system)
            if text is None:
                text = self._formatted[system] = (fmt(system), dimension(system))
            attrs["system"], attrs["d"] = text
        if grid is not None:
            attrs["n_nodes"] = grid.n_nodes

    def clear(self) -> None:
        self.spans = []

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def load_spans(path, op, offset: int) -> list[Span]:
    """Spans dumped by a traced child, re-indexed to follow ``offset`` spans."""
    with open(path) as fh:
        raw = json.load(fh)
    out = []
    for data in raw:
        s = Span.from_dict(data, op)
        if s.parent is not None:
            s.parent += offset
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# computed work counts, attached to the span that did the work


def _count_stack(tracer, span, args, kwargs, result, error):
    if error is not None:
        return
    spec, grid = args[0], args[1]
    seen = tracer._returned.setdefault(grid, {})
    hit = seen.get(spec) == id(result)
    seen[spec] = id(result)
    span.attrs["hit"] = hit
    if not hit:
        span.attrs["bytes_built"] = int(result.nbytes)


def _count_contraction(tracer, span, args, kwargs, result, error):
    n, d = span.attrs.get("n_nodes"), span.attrs.get("d")
    if n is not None and d is not None:
        span.attrs["contract_bytes"] = n * d * d * COMPLEX_BYTES
        span.attrs["contract_flops"] = n * d * d * COMPLEX_MAC_FLOPS


def _count_evolve(tracer, span, args, kwargs, result, error):
    t_final = kwargs.get("t_final", args[2] if len(args) > 2 else None)
    dt = kwargs.get("dt", args[3] if len(args) > 3 else None)
    if error is not None:
        m = _STEP_RE.search(str(error))
        steps = int(m.group(1)) if m else 0
    else:
        # the step count evolve() takes for (t_final, dt)
        steps = int(round(t_final / dt))
        if abs(steps * dt - t_final) > 1e-12 * max(1.0, t_final):
            steps = int(math.ceil(t_final / dt))
    span.attrs["rk4_steps"] = steps
    n, d = span.attrs.get("n_nodes"), span.attrs.get("d")
    if n is not None and d is not None:
        k = RK4_CONTRACTIONS * steps
        span.attrs["contract_bytes"] = k * n * d * d * COMPLEX_BYTES
        span.attrs["contract_flops"] = k * n * d * d * COMPLEX_MAC_FLOPS


def _count_grid(tracer, span, args, kwargs, result, error):
    if error is None:
        span.attrs["n_nodes"] = result.n_nodes


def _count_csv(tracer, span, args, kwargs, result, error):
    if error is None:
        span.attrs["bytes_written"] = os.path.getsize(args[0])


_COUNTERS = {
    "kernels.kernel_stack": _count_stack,
    "transforms.phase_function": _count_contraction,
    "transforms.reconstruct": _count_contraction,
    "transforms.evolve": _count_evolve,
    "serialize.write_csv": _count_csv,
    **{name: _count_grid for name in GRID_BUILDERS},
}


# ---------------------------------------------------------------------------
# aggregation into per-layer metrics


def traced_names() -> list[str]:
    names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
    names += [f"measures.{m}" for m in GRID_METHODS] + ["cli"]
    return names


def aggregate(spans: list[Span], op_intervals: dict) -> dict:
    """Per-layer totals over ``spans``; ``op_intervals`` maps op id -> seconds.

    Returns self time and call count per span name, the computed counts, and
    the bookkeeping identity: sum of all self times plus the op time no span
    covers equals the total op time.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    covered: dict = {}
    counts = {
        "stack_hits": 0, "stack_calls": 0, "stack_bytes_built": 0, "nodes_built": 0,
        "contract_bytes": 0, "contract_flops": 0, "rk4_steps": 0, "bytes_written": 0,
    }
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        a = s.attrs
        if s.parent is None:
            covered[s.op] = covered.get(s.op, 0.0) + s.duration
        if s.name == "kernels.kernel_stack" and "hit" in a:
            counts["stack_calls"] += 1
            counts["stack_hits"] += int(a["hit"])
            counts["stack_bytes_built"] += a.get("bytes_built", 0)
        if s.name in GRID_BUILDERS:
            counts["nodes_built"] += a.get("n_nodes", 0)
        for key in ("contract_bytes", "contract_flops", "rk4_steps", "bytes_written"):
            counts[key] += a.get(key, 0)
    op_s = sum(op_intervals.values())
    unattributed = sum(t - covered.get(op, 0.0) for op, t in op_intervals.items())
    return {
        "calls": calls,
        "self_s": self_s,
        "counts": counts,
        "op_s": op_s,
        "unattributed_s": unattributed,
        "self_sum_s": sum(self_s.values()),
    }


def check_nesting(spans: list[Span], op_windows: dict) -> list[str]:
    """Every span lies inside its parent and its op; siblings do not overlap."""
    problems = []
    last_end: dict = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} {s.name} leaves its parent {p.name}")
        window = op_windows.get(s.op)
        if window is not None and s.parent is None:
            if s.start < window[0] or s.end > window[1]:
                problems.append(f"span {i} {s.name} leaves op {s.op}")
        key = (s.op, s.parent)
        if last_end.get(key, s.start) > s.start:
            problems.append(f"span {i} {s.name} overlaps a sibling")
        last_end[key] = s.end
    return problems
