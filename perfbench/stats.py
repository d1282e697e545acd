"""Order statistics used by the benchmark's report."""

from __future__ import annotations

import math
from typing import Sequence

#: a tail percentile must leave at least this many samples above it
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile level {q} outside 0..100")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_level(n: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES of n samples above it.

    Samples above level p number n * (1 - p/100); below 2 * TAIL_SAMPLES
    samples no level above the median qualifies, and the median is returned.
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    return max(50, math.floor(100.0 * (1.0 - TAIL_SAMPLES / n) + 1e-9))
