"""Summary statistics shared by every workload.

Timings are reported as a median plus the *highest* percentile that
still has at least ten samples beyond it, together with the sample
count, so a tail figure is never read off two or three outliers.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

# candidate percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # rounded first so that e.g. 99.9 % of 1000 is rank 999, not 1000
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile of an already sorted, non-empty sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct``."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= ``MIN_BEYOND`` samples beyond.

    ``None`` when the sample is too small for any of them (fewer than
    ``2 * MIN_BEYOND`` samples); callers then report the maximum and
    say so.
    """
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(values: Sequence[float]) -> dict[str, float | int | str]:
    """``{"n", "p50", "tail", "tail_label"}`` for a non-empty sample.

    ``tail_label`` names the percentile used (``"p99"``, ``"p95"`` ...)
    or ``"max"`` when no percentile has ten samples beyond it.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    if pct is None:
        tail, label = ordered[-1], "max"
    else:
        tail, label = nearest_rank(ordered, pct), f"p{pct:g}"
    return {
        "n": len(ordered),
        "p50": statistics.median(ordered),
        "tail": tail,
        "tail_label": label,
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a constant sample)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)
