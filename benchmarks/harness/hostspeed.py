"""How fast the host is running, measured beside the load.

The benchmark runs on a few cores of a shared host whose speed changes by a
factor of 1.3-2 for seconds or minutes at a time: the same pure-Python loop
takes 45 ms, then 62 ms, then 45 ms again on an idle machine.  Every timing
of a run moves with it, so two runs of one commit differ by 15-35 % in their
raw timings -- more than the bound a regression is held to.

So the harness times a fixed *kernel* of server-like work (JSON, string,
set and tuple operations, a counting loop; no I/O, no allocation that grows)
between the slices of load, and between the spawns, of each phase of a run.
A phase's **slowdown** is the kernel time of the better half of its probes
(the metrics are taken from the better half of the slices in the same way:
:func:`~.stats.fast_half`) over ``NOMINAL_S``; the phase's timings are
divided by it (its closed-loop throughput multiplied).
Every timing the benchmark reports is therefore *at nominal host speed*: what
the measurement would have read had the kernel taken ``NOMINAL_S``
throughout.  ``harness.host_slowdown`` reports the factor, so
``reported * slowdown`` recovers the raw reading.

What this cannot do: the kernel is CPU work, so a timing dominated by fsync
is over-corrected when only the CPU is slow, and a spawn (``setup_s``,
``recovery_s``) gains less than a slice of load.  Measured on this sandbox,
the spread of ten runs fell from 15-35 % to 3-12 % for the p50 latencies
(README.md, "Noise").
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .stats import fast_half

#: The kernel's time on the sandbox this was built on, in a fast stretch
#: (its fastest are near 7 ms).  Only a scale: a comparison of two commits on
#: one machine does not see it.
NOMINAL_S = 0.0085

_REQUEST = {"v": 1, "id": 7, "op": "commit",
            "params": {"transaction": "insert La(Q0N1), insert Works(Q0N1)",
                       "txn_id": "c0-17"}}


def kernel() -> float:
    """Run the fixed work once; the seconds it took."""
    started = time.perf_counter()
    seen = set()
    for index in range(1500):
        line = json.dumps(_REQUEST)
        request = json.loads(line)
        seen.add((request["op"], index % 97, line[:8]))
        if (request["id"], index) in seen:
            raise AssertionError("unreachable")
    total = 0
    for index in range(40000):
        total += index & 7
    return time.perf_counter() - started


@dataclass
class Slowdown:
    """The kernel timings of one phase of a run."""

    samples: list = field(default_factory=list)

    def probe(self) -> None:
        self.samples.append(kernel())

    @property
    def factor(self) -> float:
        return fast_half(self.samples) / NOMINAL_S


@dataclass
class Pace:
    """The host's slowdown in each phase of a run."""

    starting: Slowdown = field(default_factory=Slowdown)    # the spawns
    loading: Slowdown = field(default_factory=Slowdown)     # the timed slices
    finishing: Slowdown = field(default_factory=Slowdown)   # the recoveries
