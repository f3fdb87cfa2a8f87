"""Shared benchmark harness helpers.

Every benchmark regenerates one of the paper's tables or figures: it
runs the experiment on the emulated stack, prints the same rows/series
the paper reports (paper value alongside measured where applicable),
asserts the qualitative *shape* (who wins, by roughly what factor,
where crossovers fall), and appends the rendered table to
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def render_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def report(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Print a table and persist it under benchmarks/results/."""
    text = render_table(title, headers, rows)
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    slug = "".join(
        ch if ch.isalnum() else "_" for ch in title.lower()
    )[:60].strip("_")
    with open(os.path.join(RESULTS_DIR, f"{slug}.txt"), "w") as handle:
        handle.write(text + "\n")
    return text


@pytest.fixture
def bench_once(benchmark):
    """Adapter: run an experiment exactly once under pytest-benchmark
    (so ``--benchmark-only`` collects it) and return its result.

    Experiment harnesses are deterministic simulations -- statistical
    repetition is unnecessary and often impossible (simulated clocks
    advance monotonically), so one round is the honest measurement.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  iterations=1, rounds=1)

    return runner
