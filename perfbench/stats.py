"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> dict:
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    With n sorted samples the value of rank n - beyond has exactly ``beyond``
    samples beyond it, and its percentile is 100 * (n - beyond) / n.  With
    n <= beyond no percentile qualifies; the maximum is reported instead and
    ``beyond`` reads 0, so a short run cannot pass for a measured tail.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    rank = n - beyond
    return {"value": xs[rank - 1], "percentile": 100.0 * rank / n,
            "beyond": beyond, "samples": n}


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2
