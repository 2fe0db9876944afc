"""The shared bisection: early exit at the float fixed point, bit for bit.

The oracle is the full-length loop every threshold used before the
fixed-point exit: :data:`BISECT_ITERATIONS` passes, no early exit,
return ``(lo + hi) / 2``.  The shared root finder must return the same
bits for any predicate, monotone or not.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import thresholds
from repro.core.energy_model import EnergyModel
from repro.core.roots import (
    BISECT_ITERATIONS,
    monotone_root,
    monotone_root_array,
)


def reference_root(pred, lo, hi):
    """Test-only oracle: every pass, no early exit."""
    for _ in range(BISECT_ITERATIONS):
        mid = (lo + hi) / 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def counting(pred):
    """``pred`` plus a call counter in ``.calls``."""

    def wrapped(*args, **kwargs):
        wrapped.calls += 1
        return pred(*args, **kwargs)

    wrapped.calls = 0
    return wrapped


def noise(seed):
    """A deterministic, non-monotone predicate: a coin per argument."""
    return lambda x: random.Random(f"{seed}:{x!r}").random() < 0.5


finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def brackets(draw):
    a, b = draw(finite), draw(finite)
    lo, hi = min(a, b), max(a, b)
    t = draw(st.one_of(finite, st.floats(min_value=lo, max_value=hi)))
    return lo, hi, t


class TestScalar:
    @settings(max_examples=300, deadline=None)
    @given(brackets())
    def test_matches_reference_bits(self, case):
        lo, hi, t = case
        pred = counting(lambda x: x >= t)
        got = monotone_root(pred, lo, hi)
        assert got.hex() == reference_root(lambda x: x >= t, lo, hi).hex()
        assert pred.calls <= BISECT_ITERATIONS

    @settings(max_examples=100, deadline=None)
    @given(brackets(), st.integers(0, 2**32))
    def test_non_monotone_predicate(self, case, seed):
        lo, hi, _ = case
        pred = noise(seed)
        got = monotone_root(pred, lo, hi)
        assert got.hex() == reference_root(pred, lo, hi).hex()

    @settings(max_examples=100, deadline=None)
    @given(brackets())
    def test_reversed_orientation(self, case):
        """A predicate that moves ``lo`` when true is passed negated."""
        lo, hi, t = case

        def moves_lo(x):
            return x < t

        lo_ref, hi_ref = lo, hi
        for _ in range(BISECT_ITERATIONS):
            mid = (lo_ref + hi_ref) / 2
            if moves_lo(mid):
                lo_ref = mid
            else:
                hi_ref = mid
        want = (lo_ref + hi_ref) / 2
        got = monotone_root(lambda x: not moves_lo(x), lo, hi)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("root", [0.0, 5e-324, 1e-300, 1e-200])
    def test_root_next_to_zero_hits_the_cap(self, root):
        """Halving 1e-2 down to the subnormals takes ~1,080 passes, so
        the cap binds before the fixed point does."""
        pred = counting(lambda x: x > root)
        got = monotone_root(pred, 0.0, 1e-2)
        assert pred.calls == BISECT_ITERATIONS
        assert got.hex() == reference_root(lambda x: x > root, 0.0, 1e-2).hex()

    @pytest.mark.parametrize(
        "lo, hi", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)]
    )
    def test_nan_bracket_runs_every_pass(self, lo, hi):
        pred = counting(lambda x: x >= 0.5)
        got = monotone_root(pred, lo, hi)
        assert pred.calls == BISECT_ITERATIONS
        assert math.isnan(got)
        assert math.isnan(reference_root(lambda x: x >= 0.5, lo, hi))

    def test_stops_at_the_fixed_point(self):
        pred = counting(lambda x: x >= math.pi)
        got = monotone_root(pred, 1.0, 1e6)
        assert pred.calls < 80
        assert got == reference_root(lambda x: x >= math.pi, 1.0, 1e6)


class TestArray:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(brackets(), min_size=1, max_size=24))
    def test_elements_match_scalar(self, cases):
        lo = np.array([c[0] for c in cases])
        hi = np.array([c[1] for c in cases])
        t = np.array([c[2] for c in cases])
        got = monotone_root_array(lambda m: m >= t, lo, hi)
        for i, (a, b, ti) in enumerate(cases):
            want = monotone_root(lambda x: x >= ti, a, b)
            assert float(got[i]).hex() == want.hex()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(brackets(), min_size=1, max_size=16), st.integers(0, 2**32))
    def test_non_monotone_matches_reference(self, cases, seed):
        lo = np.array([c[0] for c in cases])
        hi = np.array([c[1] for c in cases])
        coin = noise(seed)

        def pred(m):
            return np.array([coin((i, float(x))) for i, x in enumerate(m)])

        got = monotone_root_array(pred, lo, hi)
        want_lo, want_hi = lo, hi
        for _ in range(BISECT_ITERATIONS):
            mid = (want_lo + want_hi) / 2
            wm = pred(mid)
            want_hi = np.where(wm, mid, want_hi)
            want_lo = np.where(wm, want_lo, mid)
        want = (want_lo + want_hi) / 2
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    def test_nan_element_keeps_others_exact(self):
        lo = np.array([1.0, math.nan, 0.0])
        hi = np.array([1e6, 1.0, 1e-2])
        t = np.array([math.e, 0.5, 0.0])
        got = monotone_root_array(lambda m: m > t, lo, hi)
        assert math.isnan(got[1])
        for i in (0, 2):
            want = reference_root(lambda x: x > t[i], lo[i], hi[i])
            assert float(got[i]).hex() == want.hex()


class TestPassCount:
    @pytest.mark.parametrize(
        "model", [None, EnergyModel()], ids=["literal", "model"]
    )
    def test_factor_threshold_calls(self, model, monkeypatch):
        """Two bracket probes plus the bisection up to its fixed point
        (the 200-pass loop made 202 calls)."""
        calls = counting(thresholds.compression_worthwhile)
        monkeypatch.setattr(thresholds, "compression_worthwhile", calls)
        f = thresholds.factor_threshold(1_000_000, model)
        assert math.isfinite(f) and f > 1.0
        assert calls.calls <= 80
