"""Sample statistics the benchmark reports: medians, guarded percentiles,
quartiles."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that the tail estimate is one or two outliers.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Raises :class:`ValueError` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond it (p90 needs 100 samples, p99 needs 1000).
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    beyond = round(n * (100.0 - q) / 100.0, 9)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond:.1f} samples beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def percentile_or_zero(samples: Sequence[float], q: float) -> float:
    """An unbounded metric's percentile; 0 when the sample is too small to
    support it."""
    try:
        return percentile(samples, q)
    except ValueError:
        return 0.0


def median(samples: Sequence[float]) -> float:
    """Median; ``0.0`` for an empty sample (an unmeasured layer metric)."""
    return statistics.median(samples) if samples else 0.0


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (a single sample is its own quartiles)."""
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3
