"""Summary statistics used by the benchmark: medians, quartile spread, percentiles."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))
