"""The batch engine's block-power table against its generic pow path.

Dense residual-BER groups (at least ``_POW_TABLE_MIN_CELLS`` cells on
one BER) read ``(1-ber)**(8*block)`` from a per-(ber, retries) table
filled on first use; sparse groups call CPython ``pow`` per distinct
pair.  Both must give the scalar engine's bits, cold or warm.
"""

import math

import pytest

from repro.core import thresholds
from repro.simulator import batch

np = pytest.importorskip("numpy")

BERS = (1e-7, 3e-6)
CELLS_PER_BER = 600


def dense_grid():
    raw = np.tile(np.linspace(2e4, 4e6, CELLS_PER_BER), len(BERS))
    ber = np.repeat(BERS, CELLS_PER_BER)
    return raw, ber


def factor_thresholds(raw, ber):
    model = thresholds.model_at_rate(11.0)
    return batch.batch_factor_threshold(raw, model, corrupt_rate=ber)


def test_table_matches_generic_path_cold_and_warm(monkeypatch):
    assert CELLS_PER_BER >= batch._POW_TABLE_MIN_CELLS
    raw, ber = dense_grid()
    monkeypatch.setattr(batch, "_Q1_TABLES", {})
    cold = factor_thresholds(raw, ber)
    assert {key[0] for key in batch._Q1_TABLES} == set(BERS)
    warm = factor_thresholds(raw, ber)
    monkeypatch.setattr(batch, "_POW_TABLE_MIN_CELLS", math.inf)
    generic = factor_thresholds(raw, ber)
    want = [repr(float(v)) for v in generic]
    assert [repr(float(v)) for v in cold] == want
    assert [repr(float(v)) for v in warm] == want


def test_table_matches_scalar_engine(monkeypatch):
    raw, ber = dense_grid()
    monkeypatch.setattr(batch, "_Q1_TABLES", {})
    got = factor_thresholds(raw, ber)
    model = thresholds.model_at_rate(11.0)
    for i in range(0, len(raw), 97):
        want = thresholds.factor_threshold(
            float(raw[i]), model, corrupt_rate=float(ber[i])
        )
        assert repr(float(got[i])) == repr(want), i
