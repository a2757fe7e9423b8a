"""Order statistics the benchmark reports: medians and nearest-rank tails."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_TAIL_SAMPLES = 10
"""A percentile is reported only with at least this many samples above it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below.

    ``q`` is in ``(0, 100]``.  Unlike interpolating definitions, the
    result is always one of the measured samples.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100]: {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q`` %."""
    return count - math.ceil(q / 100 * count)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, refusing tails that rest on too few samples."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return percentile(values, q)


KEEP_PERCENT = 50
""":func:`trimmed_mean` keeps the fastest this many percent of samples."""


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of the smallest :data:`KEEP_PERCENT` % of ``values`` (at least
    one): on a shared host the largest samples hold other tenants'
    bursts, which this drops while it still averages over the load the
    run saw."""
    if not values:
        raise ValueError("mean of no samples")
    ordered = sorted(values)
    keep = max(1, len(ordered) * KEEP_PERCENT // 100)
    return statistics.fmean(ordered[:keep])


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)

