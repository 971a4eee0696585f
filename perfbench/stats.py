"""Summary statistics shared by the benchmark and its self-tests."""

from __future__ import annotations

import statistics

import numpy as np

TAIL_MIN_BEYOND = 10


def tail_percentile(values):
    """(p, value): the highest whole percentile p with at least
    TAIL_MIN_BEYOND samples strictly above its value.

    A tail figure from fewer samples than that is noise, so the percentile
    follows the sample count instead of being fixed. Returns None when no
    percentile qualifies (fewer than TAIL_MIN_BEYOND + 1 samples).
    """
    xs = np.asarray(values, dtype=np.float64)
    for p in range(99, -1, -1):
        value = float(np.percentile(xs, p))
        if np.count_nonzero(xs > value) >= TAIL_MIN_BEYOND:
            return p, value
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2
