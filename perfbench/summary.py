"""Latency statistics for the benchmark report.

Percentiles use the nearest-rank rule on the sorted samples.  A failed
operation enters the latency samples as +inf: it missed every limit, so it
ranks above every operation that completed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

# Candidate tail percentiles, highest first.  The report takes the highest
# one that still has MIN_BEYOND samples ranked above it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """0-based nearest-rank index of the p-th percentile of n samples."""
    if n < 1:
        raise ValueError("no samples")
    # Rounding first keeps float noise (99.9% of 10000 = 9990.000000000002)
    # from moving the rank.
    return max(0, math.ceil(round(p * n / 100.0, 6)) - 1)


def percentile(samples: Sequence[float], p: float) -> float:
    return sorted(samples)[rank(len(samples), p)]


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least MIN_BEYOND samples ranked above it, or
    None when there are too few samples for any of them."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_PERCENTILES:
        if n == 0:
            break
        i = rank(n, p)
        beyond = n - 1 - i
        if beyond >= MIN_BEYOND:
            return p, s[i], beyond
    return None


def latencies(durations: Sequence[float], ok: Sequence[bool]) -> List[float]:
    """Operation latencies with every failed operation ranked as +inf."""
    return [d if good else math.inf for d, good in zip(durations, ok)]
