"""Percentile helpers shared by the perf workloads and the orchestrator."""

from __future__ import annotations

import math
from typing import Iterable


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (an observed sample); 0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """Samples past the nearest-rank ``q``-th percentile of ``n``.

    That percentile is sample ``ceil(q n / 100)``.
    """
    return n - max(1, math.ceil(q * n / 100.0))
