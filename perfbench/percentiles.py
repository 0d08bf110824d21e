"""The tail-percentile rule used for verdict latencies."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, n)`` for the highest of ``TAIL_PERCENTILES`` with
    at least ``MIN_BEYOND`` samples beyond it.

    With too few samples for any candidate the median is returned; the
    caller prints the percentile and ``n`` so the reader sees which it is.
    """
    ordered = sorted(values)
    for percentile in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, percentile)
        if beyond >= MIN_BEYOND:
            return percentile, value, len(ordered)
    return 50, statistics.median(ordered), len(ordered)
