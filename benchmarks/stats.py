"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = 10):
    """Highest percentile of `values` with at least `min_beyond` samples above it.

    Returns (percentile, value, n).  The value is the sample with exactly
    `min_beyond` samples ranked after it, so its percentile is
    100 * (n - min_beyond) / n.  Returns None when there are too few
    samples to leave `min_beyond` beyond any of them.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < min_beyond + 1:
        return None
    return 100.0 * (n - min_beyond) / n, float(ordered[n - min_beyond - 1]), n
