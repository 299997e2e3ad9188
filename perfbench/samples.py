"""Order statistics for timing samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["percentile", "median"]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ``ceil(pct/100 * n)``-th smallest."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)
