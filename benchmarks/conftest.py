"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one artefact of the paper (Table
4.1, the Section 1 figure, Examples 3.1-5.3) or one synthetic experiment
(SYN1-SYN7) from EXPERIMENTS.md.  Shape assertions live next to the
timings: a benchmark that stops reproducing the paper's qualitative claim
fails, not just slows down.
"""

from __future__ import annotations

import time

import pytest


@pytest.fixture
def measure():
    """Wall-clock a callable a few times and return the best-of runtime.

    Used for the *baseline* side of A-vs-B comparisons, where the measured
    side goes through the pytest-benchmark fixture.
    """

    def run(fn, repeat: int = 3) -> float:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    return run
