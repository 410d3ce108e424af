"""Order statistics shared by the end-to-end and traced runs."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(n: int, pct: float) -> int:
    return max(1, math.ceil(pct / 100.0 * n))


def nearest_rank(sorted_values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of ascending values and the count of samples above its rank."""
    n = len(sorted_values)
    rank = _rank(n, pct)
    return sorted_values[rank - 1], n - rank


def samples_needed(pct: float) -> int:
    """Fewest samples that leave MIN_BEYOND above the nearest-rank `pct` percentile."""
    n = MIN_BEYOND
    while n - _rank(n, pct) < MIN_BEYOND:
        n += 1
    return n


def tail(values) -> tuple[float, str, int]:
    """Highest ladder percentile with at least MIN_BEYOND samples above it.

    Returns (value, label, samples beyond).  With too few samples for even the
    median to qualify, the maximum is returned and labelled "max"; the label
    travels with the value so a report never presents it as a percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of an empty sample")
    best = None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            best = (value, f"p{pct:g}", beyond)
    if best is None:
        return ordered[-1], "max", 0
    return best
