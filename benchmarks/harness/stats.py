"""Order statistics, and the verdict two sets of runs get when compared."""

from __future__ import annotations

import statistics


def percentile(samples, q: float) -> float:
    """The *q*-th percentile (0..100), interpolating between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples) -> float:
    return statistics.median(samples)


def fast_half(values, better: str = "lower") -> float:
    """The mean of the better half of *values* (at least two of them).

    The noise of a shared host is one-sided: a neighbour can only slow a
    slice down.  Slow stretches last seconds, so they can cover a third of
    a run's slices; the better half still comes from the undisturbed ones,
    where a median or a mid-mean would sit on the edge of the disturbance.
    """
    ordered = sorted(values, reverse=better == "higher")
    keep = ordered[:max(2, (len(ordered) + 1) // 2)]
    return sum(keep) / len(keep)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base, new, better: str, bound: float) -> str:
    """``better | worse | same | unresolved`` for one metric on one workload.

    *base* and *new* are the metric's values over each side's runs.  A side
    whose own runs spread wider than *bound* cannot resolve a difference of
    that size, so the pair is ``unresolved`` rather than ``same``.  Otherwise
    the medians decide: beyond the bound in the bad direction is ``worse``,
    beyond it in the good direction ``better``.
    """
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_mid, new_mid = median(base), median(new)
    if not base_mid:
        return "same"
    change = (new_mid - base_mid) / abs(base_mid)
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"
