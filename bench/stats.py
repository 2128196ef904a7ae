"""Order statistics used by the benchmark's latency metrics."""

from __future__ import annotations

import statistics

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, count)``: the order statistic of rank k
    (1-based) with k the largest rank that leaves ``TAIL_BEYOND`` samples
    strictly greater, its percentile 100 k / n, and the sample count n.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - TAIL_BEYOND
    while k >= 1 and sum(1 for x in xs if x > xs[k - 1]) < TAIL_BEYOND:
        k -= 1  # ties at the candidate leave too few strictly beyond it
    if k < 1:
        raise ValueError(
            f"{n} samples leave no percentile with {TAIL_BEYOND} samples beyond it"
        )
    return xs[k - 1], 100.0 * k / n, n


def median(samples) -> float:
    return statistics.median(samples)
