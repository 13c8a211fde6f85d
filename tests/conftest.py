"""Shared pytest plumbing.

The acceptance tests register exactly one summary line each; the terminal
hook prints them after the run so the pass/fail ledger is always visible.
"""

import tracemalloc

import numpy as np
import pytest

_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record one acceptance line, then enforce it."""

    def record(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}"
        _LINES.append(line)
        assert ok, line

    return record


@pytest.fixture
def colatitude_measures():
    """Measure factors of the colatitudes of a CP or SU(N) chart, in axis order.

    Written from the chart's documented measure, apart from the package's
    rules, so tests can build references that do not use them.
    """

    def measures(N: int, manifold: str):
        blocks = ([(j + 1, N) for j in range(1, N)] if manifold == "CP"
                  else [(p, q) for q in range(N, 1, -1) for p in range(2, q + 1)])
        out = []
        for p, q in blocks:
            if p == 2:
                out.append(lambda t: np.sin(2.0 * t))
            elif p < q:
                out.append(lambda t, p=p: np.cos(t) ** (2 * p - 3) * np.sin(t))
            else:
                out.append(lambda t, q=q: np.cos(t) * np.sin(t) ** (2 * q - 3))
        return out

    return measures


@pytest.fixture
def peak():
    """Peak bytes numpy allocates in a second call (first-call caches are not part of it)."""

    def measure(call) -> int:
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_LINES):
        terminalreporter.write_line(line)
