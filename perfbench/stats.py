"""Statistics helpers shared by run.py and its self-tests."""

import math
import statistics

# Percentiles considered for a latency summary, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of a non-empty sequence."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(values, beyond=10):
    """The highest of PERCENTILES with at least `beyond` samples above it.

    Returns (p, value), or None when even the median has fewer than
    `beyond` samples above it.
    """
    n = len(values)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= beyond:
            return p, percentile(values, p)
    return None
