"""Order statistics and fits used by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that has
    at least TAIL_BEYOND samples beyond it.

    The k-th smallest of N samples has N - k samples beyond it, so the answer
    is the (N - 10)-th smallest, at percentile 100 (N - 10) / N.  With ten or
    fewer samples no percentile qualifies; the maximum is returned with
    percentile 100 and the number of samples beyond it, 0.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def loglog_slope(points: Iterable[Tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0.0 with fewer than two
    distinct x or any non-positive coordinate."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def grouped_medians(pairs: Iterable[Tuple[float, float]]) -> Dict[float, float]:
    """Median y for each distinct x."""
    groups: Dict[float, List[float]] = {}
    for x, y in pairs:
        groups.setdefault(x, []).append(y)
    return {x: statistics.median(ys) for x, ys in groups.items()}

