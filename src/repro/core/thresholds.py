"""Threshold conditions for energy-worthy compression (Equation 6).

The paper derives, by requiring the interleaved-compressed energy
(Equation 5) to undercut the plain-download energy:

    if s >  0.128 MB:  1.13/F < 1 - 0.00157/s
    if s <= 0.128 MB:  1.30/F < 1 - 0.00372/s

and, as F -> infinity, a file-size threshold of 0.00372 MB = 3900 bytes
below which compression never pays off.  This module provides both the
paper's literal conditions and the same thresholds re-derived from any
:class:`~repro.core.energy_model.EnergyModel` parameterization.

The loss-aware extension (``loss_rate > 0``) adds the expected ARQ
retransmission energy to both sides of the comparison.  Loss multiplies
the *transfer* cost of either strategy by the same factor while the
decompression cost is unaffected, so compression starts paying off for
smaller files as the loss rate rises: the break-even size shrinks.

The corruption-aware extension (``corrupt_rate > 0``) pushes the other
way.  A residual bit error that slips past link ARQ poisons a whole
compressed block (the framing and entropy coding amplify one flipped
bit into a failed CRC and a re-fetch), while a raw download absorbs it
as one wrong byte.  Recovery energy is therefore charged to the
*compressed* side only, so as the residual error rate rises compression
stops paying for ever-larger files — until past some rate it never
pays at all.

The rate-adaptation extension re-derives Equation 6 at every rung of
the 802.11b ladder (11/5.5/2/1 Mb/s): a slower link stretches the
airtime per byte, so compression pays for ever-smaller files as the
rate steps down — the size threshold at 1 Mb/s is a fraction of the
11 Mb/s one.  :func:`timeline_decisions` walks a
:class:`~repro.network.timeline.FaultTimeline` and reports the
Equation 6 verdict for each rate segment, which is what the adaptive
encoder consults when a transfer spans a rate step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.core.energy_model import EnergyModel
from repro.core.recovery import RecoveryConfig, recovery_overhead_energy_j
from repro.core.roots import BISECT_ITERATIONS, monotone_root  # noqa: F401 (re-export)
from repro.errors import ModelError
from repro.network.arq import ArqConfig, expected_overhead_energy_j
from repro.network.wlan import LADDER_MBPS, ladder_link

#: Equation 6 literal constants.
PAPER_LARGE_FACTOR_NUMERATOR = 1.13
PAPER_LARGE_SIZE_TERM = 0.00157
PAPER_SMALL_FACTOR_NUMERATOR = 1.30
PAPER_SMALL_SIZE_TERM = 0.00372

# -- numerical contract ----------------------------------------------------
#
# Every number this module emits is pinned byte-for-byte by campaign
# baselines and reproduced bit-exactly by the vectorized batch engine
# (:mod:`repro.simulator.batch`).  That makes the *operation order* of
# the arithmetic below part of the public contract, not an
# implementation detail:
#
# - sums accumulate naively left-to-right (never ``math.fsum``): the
#   ARQ retry-wait loop in :mod:`repro.network.arq` and the recovery
#   wait loop in :mod:`repro.core.recovery` add terms in ascending
#   attempt order, carrying the per-attempt probability as an iterated
#   product (``p *= again``), and the batch engine mirrors that exact
#   sequence of IEEE-754 operations;
# - every bisection goes through :func:`repro.core.roots.monotone_root`
#   (the batch engine through its array twin): ``mid = (lo + hi) / 2``,
#   exit at the float fixed point (``mid == lo or mid == hi``) or after
#   :data:`BISECT_ITERATIONS` passes, return ``(lo + hi) / 2``.  Past
#   the fixed point a pass can only keep the bracket or collapse it onto
#   ``mid``, so the early exit returns exactly what the full pass count
#   would, element by element — the scalar and array paths agree bit
#   for bit whichever pass each cell stops at;
# - ``size_threshold_bytes`` rounds with built-in :func:`round`
#   (banker's rounding, matched by ``np.rint`` in the batch engine).
#
# Changing any of these — reordering a sum, switching to fsum, stopping
# a bisection on a tolerance instead of the fixed point — is a
# baseline-breaking change: it must regenerate ``smoke_baseline.jsonl``
# and the batch engine in the same commit, and the differential-oracle
# suite (tests/simulator/test_batch_oracle.py) will fail until both
# paths agree again.

#: Upper bracket for the compression-factor bisection.
FACTOR_BISECT_HI = 1e6
#: "Arbitrarily high" factor probing whether compression *ever* pays.
SIZE_BISECT_HUGE_FACTOR = 1e9
#: Default upper bracket for the break-even corruption-rate bisection.
BREAK_EVEN_MAX_RATE = 1e-2


def paper_condition(raw_bytes: float, compression_factor: float) -> bool:
    """The paper's literal Equation 6 test (True = compression saves)."""
    if compression_factor <= 0:
        raise ModelError("compression factor must be positive")
    s = units.bytes_to_mb(raw_bytes)
    if s <= 0:
        return False
    if s > units.BLOCK_SIZE_MB:
        return PAPER_LARGE_FACTOR_NUMERATOR / compression_factor < (
            1.0 - PAPER_LARGE_SIZE_TERM / s
        )
    return PAPER_SMALL_FACTOR_NUMERATOR / compression_factor < (
        1.0 - PAPER_SMALL_SIZE_TERM / s
    )


def compression_worthwhile(
    raw_bytes: float,
    compression_factor: float,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    loss_rate: float = 0.0,
    arq: Optional[ArqConfig] = None,
    corrupt_rate: float = 0.0,
    recovery: Optional[RecoveryConfig] = None,
) -> bool:
    """Model-derived Equation 6: does interleaved compression save energy?

    With the default model this agrees with :func:`paper_condition`; with
    a different link or codec parameterization it adapts accordingly.
    ``loss_rate`` is a per-packet loss probability: the expected ARQ
    retransmission energy (under ``arq``, default stop-and-wait with 7
    retries) is charged to each strategy's transfer bytes.
    ``corrupt_rate`` is a residual bit-error rate (past ARQ): the
    expected verify-and-re-fetch energy (under ``recovery``) is charged
    to the compressed side only, since raw bytes carry no framing for a
    flipped bit to poison.
    """
    if loss_rate < 0 or loss_rate >= 1:
        raise ModelError(f"loss rate must be in [0, 1), got {loss_rate}")
    if corrupt_rate < 0 or corrupt_rate >= 1:
        raise ModelError(f"corrupt rate must be in [0, 1), got {corrupt_rate}")
    if loss_rate == 0 and corrupt_rate == 0:
        if model is None:
            return paper_condition(raw_bytes, compression_factor)
    elif model is None:
        # The literal Equation 6 has no loss or corruption term; fall
        # back to the default model the paper's constants were derived
        # from.
        model = EnergyModel()
    if compression_factor <= 0:
        raise ModelError("compression factor must be positive")
    if raw_bytes <= 0:
        return False
    compressed = raw_bytes / compression_factor
    plain_e = model.download_energy_j(raw_bytes)
    comp_e = model.interleaved_energy_j(raw_bytes, compressed, codec)
    if loss_rate > 0:
        plain_e += expected_overhead_energy_j(
            model.params, raw_bytes, loss_rate, arq
        )
        comp_e += expected_overhead_energy_j(
            model.params, compressed, loss_rate, arq
        )
    if corrupt_rate > 0:
        comp_e += recovery_overhead_energy_j(
            model.params, compressed, raw_bytes, corrupt_rate, recovery
        )
    return comp_e < plain_e


def factor_threshold(
    raw_bytes: float,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    loss_rate: float = 0.0,
    arq: Optional[ArqConfig] = None,
    corrupt_rate: float = 0.0,
    recovery: Optional[RecoveryConfig] = None,
) -> float:
    """Minimum compression factor at which compression starts to pay.

    Returns ``inf`` when no factor can make compression worthwhile (files
    below the size threshold, or residual errors too punishing).
    """
    if raw_bytes <= 0:
        return float("inf")

    def worthwhile(f: float) -> bool:
        return compression_worthwhile(
            raw_bytes, f, model, codec, loss_rate, arq, corrupt_rate, recovery
        )

    hi = FACTOR_BISECT_HI
    if not worthwhile(hi):
        return float("inf")
    lo = 1.0
    if worthwhile(lo):
        return lo
    return monotone_root(worthwhile, lo, hi)


def size_threshold_bytes(
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    loss_rate: float = 0.0,
    arq: Optional[ArqConfig] = None,
    corrupt_rate: float = 0.0,
    recovery: Optional[RecoveryConfig] = None,
) -> int:
    """File-size threshold below which no factor makes compression pay.

    The paper's value is 3900 bytes; the model-derived value is the
    smallest size for which an arbitrarily high factor still saves.
    Under loss the threshold shrinks: retransmissions inflate every raw
    byte's cost while the fixed decompression cost stays put.  Under
    residual corruption it grows instead — recovery taxes only the
    compressed side.
    """
    if model is None:
        if loss_rate == 0 and corrupt_rate == 0:
            return units.THRESHOLD_FILE_SIZE_BYTES
        model = EnergyModel()
    huge_factor = SIZE_BISECT_HUGE_FACTOR

    def ever_worthwhile(n_bytes: float) -> bool:
        return compression_worthwhile(
            n_bytes, huge_factor, model, codec, loss_rate, arq,
            corrupt_rate, recovery,
        )

    lo, hi = 1.0, float(units.BYTES_PER_MB)
    if ever_worthwhile(lo):
        return 1
    if not ever_worthwhile(hi):
        raise ModelError("compression never worthwhile under this model")
    return int(round(monotone_root(ever_worthwhile, lo, hi)))


def break_even_corrupt_rate(
    raw_bytes: float,
    compression_factor: float,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    recovery: Optional[RecoveryConfig] = None,
    max_rate: float = BREAK_EVEN_MAX_RATE,
) -> float:
    """Residual bit-error rate at which compression stops paying.

    The headline number of the corruption extension: below the returned
    BER a compressed download of this file still beats the raw one;
    above it, the expected re-fetch energy eats the savings.  Returns
    0.0 when compression never pays even on a clean channel, and
    ``inf`` when it still pays at ``max_rate`` (recovery saturates —
    at high BER every block is corrupt on every attempt, so the
    expected overhead plateaus at the full retry budget).
    """
    if not compression_worthwhile(
        raw_bytes, compression_factor, model, codec, recovery=recovery
    ):
        return 0.0
    if compression_worthwhile(
        raw_bytes, compression_factor, model, codec,
        corrupt_rate=max_rate, recovery=recovery,
    ):
        return float("inf")

    def stops_paying(rate: float) -> bool:
        return not compression_worthwhile(
            raw_bytes, compression_factor, model, codec,
            corrupt_rate=rate, recovery=recovery,
        )

    return monotone_root(stops_paying, 0.0, max_rate)


# -- rate-adaptation: Equation 6 re-derived per ladder rung ----------------

_RATE_MODELS: Dict[Tuple[float, int], EnergyModel] = {}


def model_at_rate(rate_mbps: float, device=None) -> EnergyModel:
    """An :class:`EnergyModel` for one 802.11b ladder rung.

    Raises :class:`~repro.errors.LinkRateError` off-ladder.  Models are
    cached per (rate, device) so repeated per-block re-evaluation is
    cheap.
    """
    key = (float(rate_mbps), id(device))
    model = _RATE_MODELS.get(key)
    if model is None:
        model = EnergyModel(link=ladder_link(rate_mbps), device=device)
        _RATE_MODELS[key] = model
    return model


def worthwhile_at_rate(
    raw_bytes: float,
    compression_factor: float,
    rate_mbps: float,
    codec: str = "gzip",
    device=None,
) -> bool:
    """Equation 6 re-evaluated at one ladder rung's link parameters."""
    return compression_worthwhile(
        raw_bytes, compression_factor, model_at_rate(rate_mbps, device), codec
    )


def ladder_thresholds(codec: str = "gzip", device=None) -> Dict[float, int]:
    """Size threshold (bytes) at every rung of the 802.11b ladder.

    The headline of the rate-adaptation extension: the break-even file
    size shrinks as the link slows, because every raw byte costs more
    airtime while the decompression cost is rate-independent.
    """
    return {
        rate: size_threshold_bytes(model_at_rate(rate, device), codec)
        for rate in LADDER_MBPS
    }


@dataclass(frozen=True)
class RateStepDecision:
    """Equation 6's verdict for one rate segment of a fault timeline."""

    at_s: float
    rate_mbps: float
    worthwhile: bool
    factor_threshold: float


def timeline_decisions(
    raw_bytes: float,
    compression_factor: float,
    faults,
    base_rate_mbps: float = 11.0,
    codec: str = "gzip",
    device=None,
) -> List[RateStepDecision]:
    """Re-evaluate Equation 6 at every rate step of a fault timeline.

    Returns one decision per rate segment (the initial rate first, then
    one per :class:`~repro.network.timeline.RateStep`), each carrying
    the worthwhileness verdict and the break-even factor at that rung.
    A mid-session rate drop can flip the verdict for a file that was
    not worth compressing at 11 Mb/s.
    """
    from repro.network.timeline import RateStep

    steps: List[Tuple[float, float]] = [(0.0, float(base_rate_mbps))]
    if faults is not None:
        for event in faults.events:
            if isinstance(event, RateStep):
                steps.append((event.at_s, event.rate_mbps))
    decisions = []
    for at_s, rate in steps:
        model = model_at_rate(rate, device)
        decisions.append(
            RateStepDecision(
                at_s=at_s,
                rate_mbps=rate,
                worthwhile=compression_worthwhile(
                    raw_bytes, compression_factor, model, codec
                ),
                factor_threshold=factor_threshold(raw_bytes, model, codec),
            )
        )
    return decisions
