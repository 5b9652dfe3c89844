"""Shared helpers for the benchmark suite.

Most benches regenerate one of the paper's tables or figures at reduced
scale, print the ASCII rendering, and persist it under
``benchmarks/results/`` so the output survives pytest's capture (see
README.md in this directory for the full catalogue).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def persist():
    """Write a rendered table/figure to benchmarks/results/<name>.txt."""

    def _persist(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        # Also echo to stdout (visible with -s / in captured output).
        print(f"\n{text}\n", file=sys.stderr)

    return _persist


def once(benchmark, fn):
    """Run an experiment driver exactly once under the benchmark timer.

    The paper's experiments are minutes-long aggregates; repeating them for
    statistical timing would dominate the suite, so every table/figure bench
    uses a single round (component micro-benches use normal repetition).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
