"""The one bisection every threshold in the package is found with.

:func:`monotone_root` (and :func:`monotone_root_array`, elementwise)
bisects ``[lo, hi]``: ``mid = (lo + hi) / 2`` moves ``hi`` where
``pred(mid)`` holds and ``lo`` otherwise; a caller whose predicate
moves ``lo`` passes its negation.  The loop stops at the float fixed
point (``mid == lo or mid == hi``; for arrays, once every element is
there) or after :data:`BISECT_ITERATIONS` passes, and returns
``(lo + hi) / 2`` — the bits a full :data:`BISECT_ITERATIONS`-pass run
returns, for any predicate, monotone or not: past the fixed point a
pass either keeps the bracket or collapses both ends onto ``mid``,
which ``(lo + hi) / 2`` already equals.  A NaN bracket never gets
there and runs every pass.
"""

from __future__ import annotations

from typing import Any, Callable

#: Hard cap on bisection passes.  It binds only for NaN brackets and
#: roots near 0, whose bracket keeps halving through the subnormals.
BISECT_ITERATIONS = 200


def monotone_root(pred: Callable[[float], bool], lo: float, hi: float) -> float:
    """Bisect ``[lo, hi]`` for where ``pred`` turns true (see module doc)."""
    for _ in range(BISECT_ITERATIONS):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def monotone_root_array(pred: Callable[[Any], Any], lo: Any, hi: Any) -> Any:
    """Elementwise :func:`monotone_root` over float64 arrays ``lo``/``hi``;
    ``pred`` maps an array of midpoints to a boolean array."""
    import numpy as np

    for _ in range(BISECT_ITERATIONS):
        mid = (lo + hi) / 2
        if ((mid == lo) | (mid == hi)).all():
            break
        wm = pred(mid)
        hi = np.where(wm, mid, hi)
        lo = np.where(wm, lo, mid)
    return (lo + hi) / 2


__all__ = ["BISECT_ITERATIONS", "monotone_root", "monotone_root_array"]
