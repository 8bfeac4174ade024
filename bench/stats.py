"""Order statistics used by the report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def median(values):
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile): the highest percentile of ``values`` that still
    has at least ``beyond`` samples above it, or the maximum (percentile
    100) when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n

