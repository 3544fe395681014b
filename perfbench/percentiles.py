"""Summary rules for per-input timings."""
from __future__ import annotations

import math
from typing import Sequence

BEYOND = 10  # samples a reported tail percentile must leave above it


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least BEYOND samples above it.

    Returns (value, percentile, n). The value is the (BEYOND+1)-th largest
    sample, whose percentile rank is (n - BEYOND) / n. With BEYOND or fewer
    samples no percentile qualifies; the maximum is returned, labelled 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if n <= BEYOND:
        return ordered[-1], 100.0, n
    pct = math.floor(1000.0 * (n - BEYOND) / n) / 10.0
    return ordered[n - BEYOND - 1], pct, n

