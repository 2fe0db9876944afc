"""Vectorized Equation 1-6 batch engine: whole grids in array ops.

The scalar threshold engine (:mod:`repro.core.thresholds`) evaluates
one cell at a time: a bisection over full model evaluations that runs
to its float fixed point (~60-72 passes) costs hundreds of Python-level
arithmetic calls per cell, so dense campaign planes pay seconds per
thousand cells.  This module evaluates *whole parameter grids* — size x
factor x link rate x loss x residual BER — through the same equations
as broadcast numpy expressions, one bisection
(:func:`~repro.core.roots.monotone_root_array`) driving every cell in
lock-step until the last cell reaches its fixed point.

Bit-exactness contract
----------------------

The scalar engine is the oracle: every array this module returns must
match the per-cell engine *bit for bit*, because campaign results are
pinned byte-for-byte by baselines and the content-addressed cache.
Three rules make that possible (see the numerical-contract note in
:mod:`repro.core.thresholds`):

- elementwise ``+ - * /``, ``np.floor_divide``, ``np.trunc``,
  ``np.ceil``, ``np.rint`` and comparisons on float64 are IEEE-754
  operations identical to CPython's — transcribing the scalar
  expressions *with the same association order* reproduces the same
  bits;
- ``x ** y`` is NOT such an operation: numpy's array ``power`` uses
  SIMD polynomials that differ from CPython ``pow`` in the last ulp,
  so every power in this module funnels through :func:`_pow`, which
  evaluates CPython ``pow`` per *distinct* (base, exponent) pair and
  scatters the results (with a lazily grown lookup table for the
  block-corruption powers the bisections re-evaluate thousands of
  times);
- masked terms are applied with ``np.where(mask, x + extra, x)``,
  never ``x + masked_zeros``, mirroring the scalar engine's branchy
  ``if rate > 0`` structure (adding a zero is not always a bitwise
  no-op).

The differential-oracle suite (tests/simulator/test_batch_oracle.py)
holds every public function here equal to its scalar counterpart over
hypothesis-driven grids.

Campaign integration
--------------------

:func:`partition_cells` decides which expanded campaign cells the
batch engine can evaluate (pure-analytic ``threshold`` cells and
clean analytic ``simulate`` sessions with serializable parameters);
:func:`evaluate_cells` turns them into the
exact metrics dicts the scalar executor would emit.  Anything
surprising — a cell the planner mis-judged, a bisection that can only
be reported as a scalar exception — falls back to the supervised
per-cell pool, which remains authoritative.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every import site
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is in the base image
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

from repro import units
from repro.core import thresholds
from repro.core.energy_model import EnergyModel
from repro.core.recovery import RecoveryConfig, RecoveryPolicy
from repro.core.roots import monotone_root_array
from repro.errors import ModelError, ReproError
from repro.network.arq import ArqConfig, DEFAULT_PAYLOAD_BYTES
from repro.network.wlan import LADDER_MBPS

#: Threshold quantities the batch engine understands.
BATCH_QUANTITIES = ("factor", "size_floor", "break_even_ber", "worthwhile")

#: Simulate scenarios the batch engine understands (the clean analytic
#: closed forms; lossy/corrupt/faulty sessions stay scalar).
BATCH_SCENARIOS = ("raw", "sequential", "interleaved", "sleep")

#: Above this many residual (base, exponent) pairs, :func:`_pow`
#: deduplicates via ``np.unique`` before calling CPython ``pow``.
_POW_UNIQUE_CUTOFF = 512

#: Minimum cells sharing one (ber, retries) group before the block
#: power table is worth building.
_POW_TABLE_MIN_CELLS = 512

#: Distinct (ber, retries) groups per call beyond which table lookup
#: is skipped (a scrambled grid would thrash the cache).
_POW_TABLE_MAX_GROUPS = 32

#: Largest verify-block size the power table will materialize
#: (two float64 arrays of this length per (ber, retries) pair).
_POW_TABLE_MAX_BLOCK = 1 << 22

#: (ber, retries) -> (t1, qt) where ``t1[k] = (1-ber)**(8*(k+1))`` and
#: ``qt[k] = (1 - t1[k])**retries``, both CPython ``pow`` exact, NaN
#: where not yet computed.  The corruption bisections re-evaluate the
#: same channel at hundreds of block sizes; the table turns each pass
#: into a fancy-index lookup and computes each entry once, on first use.
_Q1_TABLES: Dict[Tuple[float, float], Tuple[Any, Any]] = {}

_DEFAULT_MODEL: Optional[EnergyModel] = None


def _default_model() -> EnergyModel:
    """The shared default model literal noisy cells fall back to."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = EnergyModel()
    return _DEFAULT_MODEL


# -- CPython-exact powers ---------------------------------------------------


def _pow(base, exp):
    """Elementwise CPython ``**`` over float64 arrays.

    Identities CPython guarantees (``x**0 == 1`` for any x including
    NaN, ``1**y == 1`` for any y, ``x**1 == x``) are applied as masks;
    the remainder is evaluated by the interpreter's ``pow``, once per
    distinct (base, exponent) pair when the batch is large enough to
    amortize the dedup.
    """
    b, e = np.broadcast_arrays(
        np.asarray(base, dtype=np.float64), np.asarray(exp, dtype=np.float64)
    )
    shape = b.shape
    b = b.ravel()
    e = e.ravel()
    out = np.empty(b.shape, dtype=np.float64)
    ones = (e == 0.0) | (b == 1.0)
    ident = ~ones & (e == 1.0)
    rest = ~(ones | ident)
    out[ones] = 1.0
    out[ident] = b[ident]
    n = int(rest.sum())
    if n:
        rb = b[rest]
        re_ = e[rest]
        if n > _POW_UNIQUE_CUTOFF:
            # Pack each pair into one complex128 so np.unique dedups
            # both coordinates at once.  NaNs collapsing into one
            # bucket is fine: every NaN pair left here yields NaN.
            uniq, inverse = np.unique(rb + 1j * re_, return_inverse=True)
            vals = np.fromiter(
                (u.real ** u.imag for u in uniq.tolist()),
                dtype=np.float64,
                count=len(uniq),
            )
            out[rest] = vals[inverse]
        else:
            out[rest] = np.fromiter(
                map(pow, rb.tolist(), re_.tolist()),
                dtype=np.float64,
                count=n,
            )
    return out.reshape(shape)


def _pow_table_lookup(ber: float, retries: float, idx, size: int):
    """``(t1[idx], qt[idx])`` from the block-power table of one
    (ber, retries), grown to at least ``size`` entries, computing only
    the entries no call has needed yet."""
    key = (ber, retries)
    entry = _Q1_TABLES.get(key)
    if entry is None or len(entry[0]) < size:
        grown = (np.full(size, np.nan), np.full(size, np.nan))
        if entry is not None:
            grown[0][:len(entry[0])] = entry[0]
            grown[1][:len(entry[1])] = entry[1]
        entry = _Q1_TABLES[key] = grown
    t1, qt = entry
    missing = np.isnan(t1[idx])
    if bool(missing.any()):
        ks = np.unique(idx[missing])
        one_minus = 1.0 - ber
        new = np.fromiter(
            (one_minus ** (8 * (k + 1)) for k in ks.tolist()),
            dtype=np.float64,
            count=len(ks),
        )
        t1[ks] = new
        qt[ks] = np.fromiter(
            ((1.0 - t) ** retries for t in new.tolist()),
            dtype=np.float64,
            count=len(ks),
        )
    return t1[idx], qt[idx]


def _q1_qt(ber, block, retries: float):
    """``(q1, q1**retries)`` with ``q1 = 1 - (1-ber)**(8*block)``.

    ``block`` holds integer-valued floats >= 1 (the clamped verify
    block).  Dense (ber, retries) groups are served from the cached
    power table — one CPython ``pow`` per *distinct block size* across
    all bisection passes instead of one per cell per pass; sparse
    groups fall through to the generic :func:`_pow` path, which
    computes the same bits.
    """
    shape = block.shape
    ber_f = np.broadcast_to(ber, shape).ravel()
    blk = block.ravel()
    q1 = np.empty(blk.shape, dtype=np.float64)
    qt = np.empty(blk.shape, dtype=np.float64)
    pending = np.ones(blk.shape, dtype=bool)
    if blk.size >= _POW_TABLE_MIN_CELLS:
        uniq_ber = np.unique(ber_f)
        if len(uniq_ber) <= _POW_TABLE_MAX_GROUPS:
            for ber_v in uniq_ber.tolist():
                if not 0.0 < ber_v < 1.0:
                    continue
                mask = ber_f == ber_v
                if int(mask.sum()) < _POW_TABLE_MIN_CELLS:
                    continue
                bmax = int(blk[mask].max())
                if bmax > _POW_TABLE_MAX_BLOCK:
                    continue
                idx = blk[mask].astype(np.int64) - 1
                t1, qt_m = _pow_table_lookup(ber_v, retries, idx, bmax)
                q1[mask] = 1.0 - t1
                qt[mask] = qt_m
                pending[mask] = False
    if bool(pending.any()):
        q1p = 1.0 - _pow(1.0 - ber_f[pending], 8.0 * blk[pending])
        q1[pending] = q1p
        qt[pending] = _pow(q1p, retries)
    return q1.reshape(shape), qt.reshape(shape)


def _tgs(q, qt, terms: float):
    """``_truncated_geometric_sum`` vectorized (``qt = q**terms``)."""
    if terms <= 0:
        return np.zeros(q.shape)
    res = (1.0 - qt) / (1.0 - q)
    res = np.where(q <= 0.0, 1.0, res)
    res = np.where(q >= 1.0, float(terms), res)
    return res


# -- the vector kernels -----------------------------------------------------


def _paper_condition_arr(raw, factor):
    """Equation 6's literal test, elementwise (factor pre-validated)."""
    s = raw / units.BYTES_PER_MB
    big = thresholds.PAPER_LARGE_FACTOR_NUMERATOR / factor < (
        1.0 - thresholds.PAPER_LARGE_SIZE_TERM / s
    )
    small = thresholds.PAPER_SMALL_FACTOR_NUMERATOR / factor < (
        1.0 - thresholds.PAPER_SMALL_SIZE_TERM / s
    )
    return np.where(s > units.BLOCK_SIZE_MB, big, small) & (s > 0.0)


class _Ctx:
    """One group's scalar context: model, codec cost, ARQ and recovery.

    Every derived constant here is computed in *Python* float
    arithmetic, so it carries exactly the bits the scalar engine's
    helper functions produce.
    """

    def __init__(
        self,
        model: EnergyModel,
        codec: str,
        arq: Optional[ArqConfig],
        recovery: Optional[RecoveryConfig],
    ) -> None:
        p = model.params
        self.m = p.m_j_per_mb
        self.cs = p.cs_j
        self.gap = p.gap_power_w
        self.pd = p.decompress_power_w
        self.pd_sleep = p.decompress_sleep_power_w
        self.rate = p.rate_mb_per_s
        self.idlef = p.idle_fraction
        self.block_mb = p.block_mb
        # arq.recv_power_w(params), inlined in Python arithmetic.
        self.recv_power = p.m_j_per_mb / ((1.0 - p.idle_fraction) / p.rate_mb_per_s)
        cost = model.cpu.decompress_cost(codec)
        self.dc_comp = cost.per_compressed_mb
        self.dc_raw = cost.per_raw_mb
        self.dc_const = cost.constant_s
        a = arq or ArqConfig()
        self.arq_attempts = a.max_attempts
        self.arq_waits = [
            a.timeout_for_failure(f) for f in range(1, a.max_attempts)
        ]
        r = recovery or RecoveryConfig()
        self.rec_policy = r.policy
        self.rec_retries = r.max_retries
        self.rec_block = r.block_bytes
        self.rec_verify = r.verify_mb_per_s
        self.rec_deadline = r.deadline_s
        self.rec_waits = [
            r.wait_before_attempt_s(k) for k in range(1, r.max_retries + 1)
        ]


class _Kernel:
    """Vector worthwhileness for one group sharing a context.

    ``loss`` is fixed per cell across a bisection, so the loss-only
    quantities (expected transmissions tau and the per-packet retry
    wait) are computed once here and reused every pass.
    """

    def __init__(self, ctx: _Ctx, literal: bool, loss) -> None:
        self.ctx = ctx
        self.literal = literal
        self.loss = loss
        self.loss_mask = loss > 0.0
        self.loss_any = bool(np.any(self.loss_mask))
        if self.loss_any:
            pa = _pow(loss, float(ctx.arq_attempts))
            self.tau = (1.0 - pa) / (1.0 - loss)
            erw = np.zeros(loss.shape)
            for f, wait in enumerate(ctx.arq_waits, 1):
                erw = erw + _pow(loss, float(f)) * wait
            self.erw = erw

    # -- Equation 1 + ARQ --------------------------------------------------

    def plain_energy(self, raw):
        """download_energy_j (+ loss overhead), elementwise."""
        c = self.ctx
        s = raw / units.BYTES_PER_MB
        ti = c.idlef * s / c.rate
        plain = c.m * s + c.cs + ti * c.gap
        if self.loss_any:
            ov = self._loss_energy(raw)
            plain = np.where(self.loss_mask, plain + ov, plain)
        return plain

    def _loss_energy(self, transfer):
        """expected_overhead_energy_j with precomputed tau and waits."""
        c = self.ctx
        extra = transfer * (self.tau - 1.0)
        wall = extra / units.BYTES_PER_MB / c.rate
        active = wall * (1.0 - c.idlef)
        n_packets = np.maximum(
            1.0, -np.floor_divide(-transfer, float(DEFAULT_PAYLOAD_BYTES))
        )
        retry_wait = n_packets * self.erw
        energy = active * c.recv_power + (wall - active + retry_wait) * c.gap
        zero = (transfer <= 0.0) | ((extra == 0.0) & (retry_wait == 0.0))
        return np.where(zero, 0.0, energy)

    # -- Equations 3-4 + ARQ ----------------------------------------------

    def comp_energy_base(self, raw, compressed):
        """interleaved_energy_j (+ loss overhead), elementwise."""
        c = self.ctx
        s = raw / units.BYTES_PER_MB
        sc = compressed / units.BYTES_PER_MB
        big = s >= c.block_mb
        fb = c.block_mb * sc / s
        ti_d = np.where(big, c.idlef * fb / c.rate, c.idlef * sc / c.rate)
        ti_p = np.where(big, c.idlef * (sc - fb) / c.rate, 0.0)
        zero_s = s <= 0.0
        ti_d = np.where(zero_s, 0.0, ti_d)
        ti_p = np.where(zero_s, 0.0, ti_p)
        td = c.dc_comp * sc + c.dc_raw * s + c.dc_const
        base = c.m * sc + c.cs + td * c.pd
        comp = np.where(
            ti_p > td,
            base + (ti_p - td + ti_d) * c.gap,
            base + ti_d * c.gap,
        )
        if self.loss_any:
            ov = self._loss_energy(compressed)
            comp = np.where(self.loss_mask, comp + ov, comp)
        return comp

    # -- residual-corruption recovery --------------------------------------

    def _expected_wait(self, first, again):
        """_expected_wait_s: the same iterated-product accumulation."""
        total = np.zeros(first.shape)
        p = first
        for wait in self.ctx.rec_waits:
            total = total + p * wait
            p = p * again
        return total

    def recovery_energy(self, compressed, raw, corrupt):
        """recovery_overhead_energy_j for a BitFlip channel, elementwise."""
        c = self.ctx
        transfer = compressed
        block = np.maximum(
            1.0, np.minimum(float(c.rec_block), np.trunc(transfer))
        )
        n_blocks = np.maximum(1.0, np.ceil(transfer / c.rec_block))
        retries_f = float(c.rec_retries)
        q1, qt = _q1_qt(corrupt, block, retries_f)
        if c.rec_policy is RecoveryPolicy.RESTART:
            p1 = 1.0 - _pow(1.0 - q1, n_blocks)
            # pr repeats p1's expression with identical operands
            # (BitFlip's retry rate is its block rate), so reusing the
            # array reproduces the scalar bits without a second pow.
            pr = p1
            restarts = p1 * _tgs(pr, _pow(pr, retries_f), retries_f)
            refetch_bytes = restarts * transfer
            wait = self._expected_wait(p1, pr)
            extra = refetch_bytes
        else:
            per_block = q1 * _tgs(q1, qt, retries_f)
            refetch_blocks = n_blocks * per_block
            mean_block = transfer / n_blocks
            refetch_bytes = refetch_blocks * mean_block
            wait = n_blocks * self._expected_wait(q1, q1)
            extra = refetch_bytes
            if c.rec_policy is RecoveryPolicy.DEGRADE:
                residual = 1.0 - _pow(1.0 - q1 * qt, n_blocks)
                degraded = residual * raw
                extra = refetch_bytes + degraded
        wall = extra / units.BYTES_PER_MB / c.rate
        active = wall * (1.0 - c.idlef)
        gap = wall - active
        verified = transfer + refetch_bytes
        verify_s = verified / units.BYTES_PER_MB / c.rec_verify
        if c.rec_deadline is not None:
            total = active + gap + wait + verify_s
            over = total > c.rec_deadline
            scale = c.rec_deadline / total
            active = np.where(over, active * scale, active)
            gap = np.where(over, gap * scale, gap)
            wait = np.where(over, wait * scale, wait)
            verify_s = np.where(over, verify_s * scale, verify_s)
        energy = (
            active * c.recv_power + (gap + wait) * c.gap + verify_s * c.pd
        )
        # The scalar engine zeroes the whole overhead on a clean block
        # channel (q1 == 0 must not charge verify time).
        return np.where(q1 > 0.0, energy, 0.0)

    # -- Equation 6 --------------------------------------------------------

    def eval(self, raw, factor, corrupt, plain=None, comp_base=None,
             compressed=None):
        """compression_worthwhile, elementwise over the group."""
        if compressed is None:
            compressed = raw / factor
        if plain is None:
            plain = self.plain_energy(raw)
        if comp_base is None:
            comp_base = self.comp_energy_base(raw, compressed)
        corrupt_mask = corrupt > 0.0
        if bool(np.any(corrupt_mask)):
            rec = self.recovery_energy(compressed, raw, corrupt)
            comp = np.where(corrupt_mask, comp_base + rec, comp_base)
        else:
            comp = comp_base
        res = (comp < plain) & (raw > 0.0)
        if self.literal:
            # model=None cells take the paper's literal condition when
            # the channel is clean; noisy literal cells fall back to
            # the default model, which is what `comp`/`plain` carry.
            paper = (self.loss == 0.0) & ~corrupt_mask
            if bool(np.any(paper)):
                res = np.where(paper, _paper_condition_arr(raw, factor), res)
        return res


# -- array API --------------------------------------------------------------


def _as_grid(*values):
    """Broadcast inputs to flat float64 arrays plus the output shape."""
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    arrays = np.broadcast_arrays(*arrays)
    shape = arrays[0].shape
    return [np.ascontiguousarray(a).ravel() for a in arrays], shape


def _check_rates(loss, corrupt):
    if bool(np.any((loss < 0.0) | (loss >= 1.0))):
        raise ModelError("loss rate must be in [0, 1)")
    if bool(np.any((corrupt < 0.0) | (corrupt >= 1.0))):
        raise ModelError("corrupt rate must be in [0, 1)")


def batch_paper_condition(raw_bytes, compression_factor):
    """Array :func:`~repro.core.thresholds.paper_condition`."""
    (raw, factor), shape = _as_grid(raw_bytes, compression_factor)
    if bool(np.any(factor <= 0.0)):
        raise ModelError("compression factor must be positive")
    with np.errstate(all="ignore"):
        return _paper_condition_arr(raw, factor).reshape(shape)


def batch_compression_worthwhile(
    raw_bytes,
    compression_factor,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    loss_rate=0.0,
    arq: Optional[ArqConfig] = None,
    corrupt_rate=0.0,
    recovery: Optional[RecoveryConfig] = None,
):
    """Array :func:`~repro.core.thresholds.compression_worthwhile`.

    Elementwise bool, bit-identical to the scalar verdicts.  Unlike the
    scalar engine, invalid rates or factors raise for the whole call.
    """
    (raw, factor, loss, corrupt), shape = _as_grid(
        raw_bytes, compression_factor, loss_rate, corrupt_rate
    )
    _check_rates(loss, corrupt)
    if bool(np.any(factor <= 0.0)):
        raise ModelError("compression factor must be positive")
    literal = model is None
    with np.errstate(all="ignore"):
        if literal and not bool(np.any((loss > 0.0) | (corrupt > 0.0))):
            return _paper_condition_arr(raw, factor).reshape(shape)
        ctx = _Ctx(model or _default_model(), codec, arq, recovery)
        kernel = _Kernel(ctx, literal, loss)
        return kernel.eval(raw, factor, corrupt).reshape(shape)


def batch_factor_threshold(
    raw_bytes,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    loss_rate=0.0,
    arq: Optional[ArqConfig] = None,
    corrupt_rate=0.0,
    recovery: Optional[RecoveryConfig] = None,
):
    """Array :func:`~repro.core.thresholds.factor_threshold`."""
    (raw, loss, corrupt), shape = _as_grid(raw_bytes, loss_rate, corrupt_rate)
    _check_rates(loss, corrupt)
    literal = model is None
    with np.errstate(all="ignore"):
        if literal and not bool(np.any((loss > 0.0) | (corrupt > 0.0))):
            def w(f):
                return _paper_condition_arr(raw, f)
        else:
            ctx = _Ctx(model or _default_model(), codec, arq, recovery)
            kernel = _Kernel(ctx, literal, loss)
            plain = kernel.plain_energy(raw)

            def w(f):
                return kernel.eval(raw, f, corrupt, plain=plain)

        hi0 = np.full(raw.shape, thresholds.FACTOR_BISECT_HI)
        lo0 = np.full(raw.shape, 1.0)
        w_hi = w(hi0)
        w_lo = w(lo0)
        res = monotone_root_array(w, lo0, hi0)
        # Scalar precedence: raw <= 0 beats "never", beats "already at 1".
        res = np.where(w_lo, 1.0, res)
        res = np.where(~w_hi, np.inf, res)
        res = np.where(raw <= 0.0, np.inf, res)
        return res.reshape(shape)


def _size_floor_arrays(
    model: Optional[EnergyModel],
    codec: str,
    loss,
    corrupt,
    arq: Optional[ArqConfig],
    recovery: Optional[RecoveryConfig],
):
    """(floor_bytes int64, never_mask) over flat loss/corrupt arrays.

    ``never_mask`` marks cells whose scalar twin raises ("compression
    never worthwhile under this model"); their values are meaningless.
    """
    shape = loss.shape
    literal = model is None
    if literal:
        clean = (loss == 0.0) & (corrupt == 0.0)
    else:
        clean = np.zeros(shape, dtype=bool)
    out = np.empty(shape, dtype=np.int64)
    never = np.zeros(shape, dtype=bool)
    out[clean] = units.THRESHOLD_FILE_SIZE_BYTES
    rest = ~clean
    if bool(np.any(rest)):
        loss_r = loss[rest]
        corrupt_r = corrupt[rest]
        # The scalar engine swaps in the default model for literal
        # noisy cells before bisecting, so the kernel is never literal.
        ctx = _Ctx(model or _default_model(), codec, arq, recovery)
        kernel = _Kernel(ctx, False, loss_r)
        huge = np.full(loss_r.shape, thresholds.SIZE_BISECT_HUGE_FACTOR)

        def w(n):
            return kernel.eval(n, huge, corrupt_r)

        lo0 = np.full(loss_r.shape, 1.0)
        hi0 = np.full(loss_r.shape, float(units.BYTES_PER_MB))
        w_lo = w(lo0)
        w_hi = w(hi0)
        # int(round(x)): banker's rounding, matched by np.rint.
        vals = np.rint(monotone_root_array(w, lo0, hi0)).astype(np.int64)
        vals = np.where(w_lo, 1, vals)
        out[rest] = vals
        never[rest] = ~w_hi & ~w_lo
    return out, never


def batch_size_threshold_bytes(
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    loss_rate=0.0,
    arq: Optional[ArqConfig] = None,
    corrupt_rate=0.0,
    recovery: Optional[RecoveryConfig] = None,
):
    """Array :func:`~repro.core.thresholds.size_threshold_bytes`.

    Raises like the scalar engine if *any* cell's model never makes
    compression worthwhile.
    """
    (loss, corrupt), shape = _as_grid(loss_rate, corrupt_rate)
    _check_rates(loss, corrupt)
    with np.errstate(all="ignore"):
        out, never = _size_floor_arrays(
            model, codec, loss, corrupt, arq, recovery
        )
    if bool(np.any(never)):
        raise ModelError("compression never worthwhile under this model")
    return out.reshape(shape)


def batch_break_even_corrupt_rate(
    raw_bytes,
    compression_factor,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
    recovery: Optional[RecoveryConfig] = None,
    max_rate: float = thresholds.BREAK_EVEN_MAX_RATE,
):
    """Array :func:`~repro.core.thresholds.break_even_corrupt_rate`."""
    (raw, factor), shape = _as_grid(raw_bytes, compression_factor)
    if bool(np.any(factor <= 0.0)):
        raise ModelError("compression factor must be positive")
    if not 0.0 <= max_rate < 1.0:
        raise ModelError(f"corrupt rate must be in [0, 1), got {max_rate}")
    literal = model is None
    zeros = np.zeros(raw.shape)
    with np.errstate(all="ignore"):
        ctx = _Ctx(model or _default_model(), codec, None, recovery)
        kernel = _Kernel(ctx, literal, zeros)
        compressed = raw / factor
        plain = kernel.plain_energy(raw)
        base = kernel.comp_energy_base(raw, compressed)

        def w(c):
            return kernel.eval(
                raw, factor, c, plain=plain, comp_base=base,
                compressed=compressed,
            )

        hi = np.full(raw.shape, float(max_rate))
        w0 = w(zeros)
        wmax = w(hi)
        res = monotone_root_array(lambda c: ~w(c), zeros, hi)
        res = np.where(wmax, np.inf, res)
        res = np.where(~w0, 0.0, res)
        return res.reshape(shape)


def batch_ladder_thresholds(codec: str = "gzip", device=None) -> Dict[float, int]:
    """:func:`~repro.core.thresholds.ladder_thresholds` via the batch path."""
    return {
        rate: int(
            batch_size_threshold_bytes(
                thresholds.model_at_rate(rate, device), codec
            )
        )
        for rate in LADDER_MBPS
    }


# -- clean analytic sessions ------------------------------------------------


def _session_arrays(ctx: _Ctx, scenario: str, raw, compressed) -> Dict[str, Any]:
    """One clean analytic session per cell, as arrays.

    Transcribes :class:`~repro.simulator.analytic.AnalyticSession`'s
    fault-free ``raw``/``precompressed`` timelines term by term in the
    scalar engine's association order, so ``time``/``energy`` and the
    per-tag energies carry the exact bits the :class:`PowerTimeline`
    sums would.  ``*_on`` masks mirror the timeline's zero-duration
    segment drop: a tag's key exists in ``energy_by_tag`` only when at
    least one of its segments has nonzero duration, even though adding
    the dropped segment's ``0.0`` joules would not change the value.
    """
    s = raw / units.BYTES_PER_MB
    sc = compressed / units.BYTES_PER_MB
    if scenario == "raw":
        wall = s / ctx.rate
    else:
        wall = sc / ctx.rate
    active = wall * (1.0 - ctx.idlef)
    recv_e = ctx.recv_power * active
    if scenario == "raw":
        idle_d = wall - active
        time = active + idle_d
        energy = ctx.cs + recv_e + ctx.gap * idle_d
        return {
            "time": time,
            "energy": energy,
            "recv_e": recv_e,
            "recv_on": active != 0.0,
            "idle_e": ctx.gap * idle_d,
            "idle_on": idle_d != 0.0,
            "dec_e": np.zeros(s.shape),
            "dec_on": np.zeros(s.shape, dtype=bool),
        }
    td = ctx.dc_comp * sc + ctx.dc_raw * s + ctx.dc_const
    if scenario in ("sequential", "sleep"):
        pd = ctx.pd_sleep if scenario == "sleep" else ctx.pd
        idle_d = wall - active
        time = active + idle_d + td
        energy = ctx.cs + recv_e + ctx.gap * idle_d + pd * td
        return {
            "time": time,
            "energy": energy,
            "recv_e": recv_e,
            "recv_on": active != 0.0,
            "idle_e": ctx.gap * idle_d,
            "idle_on": idle_d != 0.0,
            "dec_e": pd * td,
            "dec_on": td != 0.0,
        }
    if scenario != "interleaved":
        raise ModelError(f"unknown batch scenario {scenario!r}")
    # Equation 4's idle split, then Equation 3's timeline: the idle
    # gaps after the first block host decompression, the remainder
    # spills past the end of the receive phase.
    big = s >= ctx.block_mb
    fb = ctx.block_mb * sc / s
    ti_d = np.where(big, ctx.idlef * fb / ctx.rate, ctx.idlef * sc / ctx.rate)
    ti_p = np.where(big, ctx.idlef * (sc - fb) / ctx.rate, 0.0)
    zero_s = s <= 0.0
    ti_d = np.where(zero_s, 0.0, ti_d)
    ti_p = np.where(zero_s, 0.0, ti_p)
    overlapped = np.minimum(td, ti_p)
    spill = ti_p > td
    head = ti_p - td
    tail = td - ti_p
    time = active + ti_d + overlapped + np.where(spill, head, tail)
    energy = (
        ctx.cs + recv_e + ctx.gap * ti_d + ctx.pd * overlapped
        + np.where(spill, ctx.gap * head, ctx.pd * tail)
    )
    return {
        "time": time,
        "energy": energy,
        "recv_e": recv_e,
        "recv_on": active != 0.0,
        "idle_e": ctx.gap * ti_d + np.where(spill, ctx.gap * head, 0.0),
        "idle_on": (ti_d != 0.0) | spill,
        "dec_e": ctx.pd * overlapped + np.where(spill, 0.0, ctx.pd * tail),
        "dec_on": (overlapped != 0.0) | (~spill & (tail != 0.0)),
    }


def batch_download_energy_j(raw_bytes, model: Optional[EnergyModel] = None):
    """Array :meth:`~repro.core.energy_model.EnergyModel.download_energy_j`.

    Equation 1 on a clean link, elementwise — the plain-download side
    of the fleet advisor's decision form.
    """
    (raw,), shape = _as_grid(raw_bytes)
    ctx = _Ctx(model or _default_model(), "gzip", None, None)
    kernel = _Kernel(ctx, False, np.zeros(raw.shape))
    with np.errstate(all="ignore"):
        return kernel.plain_energy(raw).reshape(shape)


def batch_interleaved_energy_j(
    raw_bytes,
    compressed_bytes,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
):
    """Array :meth:`~repro.core.energy_model.EnergyModel.interleaved_energy_j`.

    Equation 3 on a clean link, elementwise — the compressed side of
    the fleet advisor's decision form.
    """
    (raw, comp), shape = _as_grid(raw_bytes, compressed_bytes)
    ctx = _Ctx(model or _default_model(), codec, None, None)
    kernel = _Kernel(ctx, False, np.zeros(raw.shape))
    with np.errstate(all="ignore"):
        return kernel.comp_energy_base(raw, comp).reshape(shape)


def batch_session_energy_time(
    scenario: str,
    raw_bytes,
    compressed_bytes,
    model: Optional[EnergyModel] = None,
    codec: str = "gzip",
):
    """Array ``(energy_j, time_s)`` of one clean analytic session.

    The vector twin of running
    :meth:`~repro.simulator.analytic.AnalyticSession.raw` or
    :meth:`~repro.simulator.analytic.AnalyticSession.precompressed` on
    the paper's lossless setup — bit-identical totals, elementwise over
    broadcast byte arrays.  ``scenario`` is one of
    :data:`BATCH_SCENARIOS`; ``compressed_bytes`` is ignored for
    ``raw``.  The fleet aggregator evaluates whole cohort populations
    through this path.
    """
    if scenario not in BATCH_SCENARIOS:
        raise ModelError(f"unknown batch scenario {scenario!r}")
    (raw, comp), shape = _as_grid(raw_bytes, compressed_bytes)
    ctx = _Ctx(model or _default_model(), codec, None, None)
    with np.errstate(all="ignore"):
        out = _session_arrays(ctx, scenario, raw, comp)
    return out["energy"].reshape(shape), out["time"].reshape(shape)


# -- campaign cell planner --------------------------------------------------


def _finite_float(value) -> Optional[float]:
    """float(value) when it is a real, finite number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        f = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if f != f or f in (float("inf"), float("-inf")):
        return None
    return f


def _plan(params: Dict[str, Any]) -> Optional[Tuple]:
    """The batch group key for an eligible cell, else None.

    Conservative by design: any parameter shape the vector kernels do
    not model bit-exactly (including ones the scalar executor would
    *reject* — its exception text is part of the record) stays on the
    scalar path.  Keys are kind-prefixed tuples: ``("threshold", ...)``
    or ``("simulate", scenario, codec, link)``.
    """
    if any(isinstance(k, str) and k.startswith("_test_") for k in params):
        return None
    kind = params.get("kind", "simulate")
    if kind == "threshold":
        return _plan_threshold(params)
    if kind == "simulate":
        return _plan_simulate(params)
    return None


def _plan_simulate(params: Dict[str, Any]) -> Optional[Tuple]:
    """The batch group key for an eligible simulate cell, else None.

    Eligible cells are the paper's clean closed forms: analytic engine,
    one of :data:`BATCH_SCENARIOS`, zero loss/corruption, no fault
    timeline, resume config or watchdog.  Everything else (seeded
    randomness, piecewise fault plans, tracebacks the scalar engine
    owns) stays on the per-cell path.
    """
    if params.get("engine", "analytic") != "analytic":
        return None
    scenario = params.get("scenario", "interleaved")
    if scenario not in BATCH_SCENARIOS:
        return None
    if params.get("faults") or params.get("resume") or params.get("watchdog_s"):
        return None
    loss = _finite_float(params.get("loss_rate", 0.0))
    corrupt = _finite_float(params.get("corrupt_rate", 0.0))
    if loss != 0.0 or corrupt != 0.0:
        return None
    size = _finite_float(params.get("size_mb"))
    if size is None or size < 0.0:
        return None
    if _finite_float(params.get("factor", 1.0)) is None:
        return None
    codec = params.get("codec", "gzip")
    if not isinstance(codec, str):
        return None
    if scenario == "raw":
        # The raw scenario never touches the codec; normalizing the key
        # groups raw cells together regardless of the (unused) name.
        codec = "gzip"
    else:
        try:
            _default_model().cpu.decompress_cost(codec)
        except ModelError:
            return None
    link = _finite_float(params.get("link_mbps", 11.0))
    if link is None:
        return None
    try:
        thresholds.model_at_rate(link)
    except (ReproError, TypeError, ValueError):
        return None
    return ("simulate", scenario, codec, link)


def _plan_threshold(params: Dict[str, Any]) -> Optional[Tuple]:
    """The batch group key for an eligible threshold cell, else None."""
    quantity = params.get("quantity", "factor")
    if quantity not in BATCH_QUANTITIES:
        return None
    literal = bool(params.get("literal", False))
    codec = params.get("codec", "gzip")
    if not isinstance(codec, str):
        return None
    loss = _finite_float(params.get("loss_rate", 0.0))
    corrupt = _finite_float(params.get("corrupt_rate", 0.0))
    if loss is None or corrupt is None:
        return None
    if not 0.0 <= loss < 1.0 or not 0.0 <= corrupt < 1.0:
        return None
    arq_key = None
    if loss > 0.0:
        arq_params = params.get("arq") or {}
        if not isinstance(arq_params, dict):
            return None
        for k, v in arq_params.items():
            if not isinstance(k, str):
                return None
            if not isinstance(v, (bool, int, float)):
                return None
        try:
            ArqConfig(**arq_params)
        except (TypeError, ModelError):
            return None
        arq_key = tuple(sorted(arq_params.items()))
    rec_key = None
    policy = params.get("recovery_policy")
    if policy is not None:
        # The scalar executor builds RecoveryConfig(policy=...) for
        # every threshold quantity, so an unknown policy must keep its
        # scalar exception record.
        try:
            rec_key = RecoveryPolicy(policy).value
        except (TypeError, ValueError):
            return None
    link = None
    if not literal:
        link = _finite_float(params.get("link_mbps", 11.0))
        if link is None:
            return None
        try:
            thresholds.model_at_rate(link)
        except (ReproError, TypeError, ValueError):
            return None
    paper_only = (
        literal
        and loss == 0.0
        and corrupt == 0.0
        and quantity in ("factor", "size_floor", "worthwhile")
    )
    if not paper_only:
        try:
            _default_model().cpu.decompress_cost(codec)
        except ModelError:
            return None
    if quantity in ("factor", "break_even_ber", "worthwhile"):
        if _finite_float(params.get("size_mb")) is None:
            return None
    if quantity in ("break_even_ber", "worthwhile"):
        factor = _finite_float(params.get("factor"))
        if factor is None or factor <= 0.0:
            return None
    return ("threshold", quantity, literal, codec, link, arq_key, rec_key)


class _PlannedCells(list):
    """Batch-eligible cells with the plan key :func:`_plan` gave each, as
    :func:`partition_cells` returns them, so :func:`evaluate_cells` need
    not plan them again.  Slices keep their keys (the runner evaluates
    chunk by chunk)."""

    def __init__(self, cells=(), keys=()) -> None:
        super().__init__(cells)
        self.keys = list(keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _PlannedCells(super().__getitem__(index), self.keys[index])
        return super().__getitem__(index)


def partition_cells(cells: Sequence) -> Tuple[List, List]:
    """Split expanded cells into (batch-eligible, scalar-only)."""
    if not HAVE_NUMPY:
        return [], list(cells)
    batchable = _PlannedCells()
    rest: List = []
    for cell in cells:
        key = _plan(cell.params)
        if key is None:
            rest.append(cell)
        else:
            batchable.append(cell)
            batchable.keys.append(key)
    return batchable, rest


def _group_arrays(group_cells) -> Tuple:
    """Per-cell loss/corrupt arrays for one homogeneous group."""
    loss = np.array(
        [float(c.params.get("loss_rate", 0.0)) for c in group_cells],
        dtype=np.float64,
    )
    corrupt = np.array(
        [float(c.params.get("corrupt_rate", 0.0)) for c in group_cells],
        dtype=np.float64,
    )
    return loss, corrupt


def _evaluate_simulate_group(key: Tuple, group_cells) -> Tuple[List, List[int]]:
    """Evaluate one simulate group; returns (metrics, fallback indices).

    Emits exactly the dict ``_execute_simulate`` would for a clean
    analytic session: ``time_s``/``energy_j``/``transfer_bytes`` plus
    ``energy_by_tag.*`` keys gated on the scalar timeline's presence
    rule (zero-duration segments are dropped, the startup energy event
    always survives).
    """
    _, scenario, codec, link = key
    model = thresholds.model_at_rate(link)
    ctx = _Ctx(model, codec, None, None)
    raws: List[int] = []
    comps: List[int] = []
    for cell in group_cells:
        raw_b = int(float(cell.params["size_mb"]) * units.BYTES_PER_MB)
        factor = float(cell.params.get("factor", 1.0))
        comp_b = int(raw_b / factor) if factor > 0 else raw_b
        raws.append(raw_b)
        comps.append(comp_b)
    raw = np.array([float(v) for v in raws], dtype=np.float64)
    comp = np.array([float(v) for v in comps], dtype=np.float64)
    with np.errstate(all="ignore"):
        out = _session_arrays(ctx, scenario, raw, comp)
    transfers = raws if scenario == "raw" else comps
    metrics: List[Dict] = []
    for i in range(len(group_cells)):
        m: Dict[str, Any] = {
            "time_s": float(out["time"][i]),
            "energy_j": float(out["energy"][i]),
            "transfer_bytes": int(transfers[i]),
        }
        if bool(out["dec_on"][i]):
            m["energy_by_tag.decompress"] = float(out["dec_e"][i])
        if bool(out["idle_on"][i]):
            m["energy_by_tag.idle"] = float(out["idle_e"][i])
        if bool(out["recv_on"][i]):
            m["energy_by_tag.recv"] = float(out["recv_e"][i])
        m["energy_by_tag.startup"] = ctx.cs
        metrics.append(m)
    return metrics, []


def _evaluate_group(key: Tuple, group_cells) -> Tuple[List, List[int]]:
    """Evaluate one group; returns (metrics per cell, fallback indices)."""
    if key[0] == "simulate":
        return _evaluate_simulate_group(key, group_cells)
    _, quantity, literal, codec, link, arq_key, rec_key = key
    loss, corrupt = _group_arrays(group_cells)
    model = None if literal else thresholds.model_at_rate(link)
    arq = (
        ArqConfig(**(group_cells[0].params.get("arq") or {}))
        if arq_key is not None
        else None
    )
    recovery = RecoveryConfig(policy=rec_key) if rec_key is not None else None
    if quantity == "size_floor":
        with np.errstate(all="ignore"):
            out, never = _size_floor_arrays(
                model, codec, loss, corrupt, arq, recovery
            )
        metrics = [{"size_floor_bytes": int(v)} for v in out.tolist()]
        # "never worthwhile" is a scalar ModelError with a traceback in
        # the failed record — only the per-cell path can produce it.
        return metrics, [i for i, n in enumerate(never.tolist()) if n]
    raw = np.array(
        [
            float(c.params["size_mb"]) * units.BYTES_PER_MB
            for c in group_cells
        ],
        dtype=np.float64,
    )
    if quantity == "factor":
        vals = batch_factor_threshold(
            raw, model, codec, loss, arq, corrupt, recovery
        )
        return [{"factor_threshold": float(v)} for v in vals.tolist()], []
    factor = np.array(
        [float(c.params["factor"]) for c in group_cells], dtype=np.float64
    )
    if quantity == "break_even_ber":
        vals = batch_break_even_corrupt_rate(
            raw, factor, model, codec, recovery
        )
        return [{"break_even_ber": float(v)} for v in vals.tolist()], []
    vals = batch_compression_worthwhile(
        raw, factor, model, codec, loss, arq, corrupt, recovery
    )
    return [{"worthwhile": bool(v)} for v in vals.tolist()], []


def evaluate_cells(cells: Sequence) -> Tuple[List[Tuple[Any, Dict]], List]:
    """Evaluate batch-eligible cells; returns (results, fallback).

    ``results`` is ``[(cell, metrics), ...]`` in input order, each
    metrics dict made of plain Python scalars byte-identical to the
    scalar executor's output.  ``fallback`` lists cells the engine
    declined at runtime; the caller must run them through the scalar
    path, which stays authoritative for every record it produces.
    """
    if isinstance(cells, _PlannedCells) and len(cells.keys) == len(cells):
        keys = cells.keys
        cells = list(cells)
    else:
        keys = [_plan(cell.params) for cell in cells]
    groups: Dict[Tuple, List[int]] = {}
    for i, (cell, key) in enumerate(zip(cells, keys)):
        if key is None:
            raise ModelError(
                f"cell {getattr(cell, 'cell_id', i)!r} is not batch-eligible"
            )
        groups.setdefault(key, []).append(i)
    metrics_by_index: Dict[int, Dict] = {}
    fallback_set: set = set()
    for key, idxs in groups.items():
        group_cells = [cells[i] for i in idxs]
        try:
            metrics, fell = _evaluate_group(key, group_cells)
        except Exception:
            # Whatever went wrong, the scalar path can reproduce it
            # (including its failure record) — never guess here.
            fallback_set.update(idxs)
            continue
        fell_set = {idxs[j] for j in fell}
        fallback_set.update(fell_set)
        for j, i in enumerate(idxs):
            if i not in fell_set:
                metrics_by_index[i] = metrics[j]
    results = [
        (cells[i], metrics_by_index[i])
        for i in range(len(cells))
        if i in metrics_by_index
    ]
    return results, [cells[i] for i in sorted(fallback_set)]


__all__ = [
    "BATCH_QUANTITIES",
    "BATCH_SCENARIOS",
    "HAVE_NUMPY",
    "batch_break_even_corrupt_rate",
    "batch_compression_worthwhile",
    "batch_download_energy_j",
    "batch_factor_threshold",
    "batch_interleaved_energy_j",
    "batch_ladder_thresholds",
    "batch_paper_condition",
    "batch_session_energy_time",
    "batch_size_threshold_bytes",
    "evaluate_cells",
    "partition_cells",
]
