"""Order statistics used by every perfbench report (stdlib only)."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    below = int(rank)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (rank - below)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the benchmark driver
    computes them; a single value is all three."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
