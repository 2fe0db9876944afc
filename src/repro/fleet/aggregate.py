"""Streaming fleet aggregation: population distributions in closed form.

One cohort — a (device class, workload, stations-on-the-AP) triple — is
evaluated once through the vectorized session closed forms
(:func:`repro.simulator.batch.batch_session_energy_time`) and the
analytic contention layer (:mod:`repro.fleet.contention`); its result
is weighted by the cohort's device count.  A million-device fleet is a
few hundred such rows, so the whole evaluation is a handful of array
ops regardless of population size.

Distributions are held in :class:`LogHistogram` sketches: fixed
log-spaced bins with integer counts, so (a) the state is tiny and
byte-stable, (b) two sketches over the same bounds merge associatively
(shard partials combine in any grouping), and (c) quantiles are
deterministic functions of the counts.  :class:`FleetSummary` bundles
the sketches with exact totals and merges the same way — the property
the campaign shard-reduce path (:func:`reduce_campaign_metrics`)
relies on.

Evaluated quantities, per device:

- session energy under the selected policy, plus queue-wait energy at
  idle power (the contention model's mean wait);
- energy per MB of raw payload;
- battery lifetime at the workload's request rate (busy time at session
  power, the rest of each hour at the device's between-request idle
  rail);
- the fleet break-even size (the smallest file for which compression
  pays *for the fleet* at the cohort's AP load) and the Equation 6
  flip fraction — cohorts where contention reverses the single-device
  verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised implicitly by every import site
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is in the base image
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

from repro import units
from repro.core.roots import monotone_root_array
from repro.device.batterylife import Battery
from repro.errors import ModelError
from repro.fleet.contention import ContentionModel
from repro.fleet.population import Population

#: Policies a fleet evaluation can apply uniformly.
FLEET_POLICIES = ("raw", "compressed", "advised", "fleet-advised")

#: Default quantiles reported by :meth:`FleetSummary.to_dict`.
DEFAULT_PERCENTILES = (5, 25, 50, 75, 95, 99)

#: Fixed sketch bounds: every summary uses the same bins so partials
#: from different shards/seeds always merge.
ENERGY_PER_MB_BOUNDS = (1e-2, 1e4)
LIFETIME_HOURS_BOUNDS = (1e-2, 1e5)
BREAK_EVEN_KB_BOUNDS = (1e-4, 4096.0)
WAIT_S_BOUNDS = (1e-4, 1e5)

#: The factor the break-even bisection treats as "compress as well as
#: physically possible" (mirrors ``FleetAdvisor.size_threshold_bytes``).
_BREAK_EVEN_HUGE_FACTOR = 1e9


class LogHistogram:
    """A mergeable log-binned sketch with exact count/sum/min/max.

    ``bins`` log-spaced buckets cover ``[lo, hi)``; values below ``lo``
    (including non-positive ones) land in a dedicated underflow slot,
    values at or above ``hi`` (including ``inf``) in an overflow slot.
    Counts are int64, so merging is exact and associative; ``sum``,
    ``min`` and ``max`` track *finite* observations only.
    """

    def __init__(self, lo: float, hi: float, bins: int = 128) -> None:
        if not HAVE_NUMPY:
            raise ModelError("fleet aggregation requires numpy")
        if not (lo > 0.0 and hi > lo):
            raise ModelError("histogram bounds must satisfy 0 < lo < hi")
        if bins < 1:
            raise ModelError("histogram needs at least one bin")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self._log_lo = math.log(self.lo)
        self._span = math.log(self.hi) - self._log_lo
        # Slot 0 is underflow, slots 1..bins the bins, bins+1 overflow.
        self.counts = np.zeros(self.bins + 2, dtype=np.int64)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe_array(self, values, counts=None) -> None:
        """Fold in ``values`` with per-value integer weights."""
        values = np.asarray(values, dtype=np.float64)
        if counts is None:
            counts = np.ones(values.shape, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        if values.size == 0:
            return
        with np.errstate(all="ignore"):
            under = ~(values >= self.lo)  # catches NaN too
            over = values >= self.hi
            scaled = (np.log(values) - self._log_lo) / self._span * self.bins
            slot = 1 + np.clip(
                np.floor(scaled), 0, self.bins - 1
            ).astype(np.int64)
        slot = np.where(under, 0, np.where(over, self.bins + 1, slot))
        np.add.at(self.counts, slot, counts)
        self.total += int(counts.sum())
        finite = np.isfinite(values)
        if bool(finite.any()):
            fv = values[finite]
            self.sum += float((fv * counts[finite].astype(np.float64)).sum())
            lo_v = float(fv.min())
            hi_v = float(fv.max())
            self.min = lo_v if self.min is None else min(self.min, lo_v)
            self.max = hi_v if self.max is None else max(self.max, hi_v)

    def merge(self, other: "LogHistogram") -> None:
        """Fold another sketch in; bounds must match exactly."""
        if (self.lo, self.hi, self.bins) != (other.lo, other.hi, other.bins):
            raise ModelError("cannot merge histograms with different bins")
        self.counts += other.counts
        self.total += other.total
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def quantile(self, q: float) -> float:
        """Deterministic q-quantile from the counts.

        Underflow resolves to the observed minimum, overflow to the
        observed maximum, interior bins to their geometric midpoint
        clamped into the observed [min, max] range.  Returns 0.0 on an
        empty sketch.
        """
        if self.total <= 0:
            return 0.0
        rank = min(self.total, max(1, int(math.ceil(q * self.total))))
        cum = np.cumsum(self.counts)
        slot = int(np.searchsorted(cum, rank, side="left"))
        if slot <= 0:
            value = self.min if self.min is not None else self.lo
        elif slot >= self.bins + 1:
            value = self.max if self.max is not None else self.hi
        else:
            mid = self._log_lo + (slot - 0.5) * self._span / self.bins
            value = math.exp(mid)
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return float(value)

    def mean(self) -> float:
        """Mean of the finite observations (0.0 when empty)."""
        if self.total <= 0:
            return 0.0
        return self.sum / self.total

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready sparse form: only nonzero slots are listed."""
        nz = np.nonzero(self.counts)[0]
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "counts": [
                [int(i), int(self.counts[i])] for i in nz.tolist()
            ],
        }


def _new_sketches() -> Dict[str, LogHistogram]:
    """The summary's four distribution sketches, fixed bounds."""
    return {
        "lifetime_h": LogHistogram(*LIFETIME_HOURS_BOUNDS),
        "energy_per_mb": LogHistogram(*ENERGY_PER_MB_BOUNDS),
        "break_even_kb": LogHistogram(*BREAK_EVEN_KB_BOUNDS),
        "wait_s": LogHistogram(*WAIT_S_BOUNDS),
    }


@dataclass
class FleetSummary:
    """Mergeable aggregate of one (or many) fleet evaluations."""

    policy: str
    devices: int = 0
    aps: int = 0
    cohorts: int = 0
    fleet_energy_j: float = 0.0
    fleet_raw_mb: float = 0.0
    compress_devices: int = 0
    flip_devices: int = 0
    never_break_even_devices: int = 0
    #: station count -> [devices at that load, Eq-6 flips at that load]
    flips_by_n: Dict[int, List[int]] = field(default_factory=dict)
    sketches: Dict[str, LogHistogram] = field(default_factory=_new_sketches)

    def merge(self, other: "FleetSummary") -> None:
        """Fold another summary in (associative; policies must match)."""
        if other.policy != self.policy:
            raise ModelError(
                f"cannot merge {other.policy!r} summary into {self.policy!r}"
            )
        self.devices += other.devices
        self.aps += other.aps
        self.cohorts += other.cohorts
        self.fleet_energy_j += other.fleet_energy_j
        self.fleet_raw_mb += other.fleet_raw_mb
        self.compress_devices += other.compress_devices
        self.flip_devices += other.flip_devices
        self.never_break_even_devices += other.never_break_even_devices
        for n, (dev, flips) in other.flips_by_n.items():
            slot = self.flips_by_n.setdefault(n, [0, 0])
            slot[0] += dev
            slot[1] += flips
        for name, sketch in self.sketches.items():
            sketch.merge(other.sketches[name])

    def metrics(self) -> Dict[str, Any]:
        """Flat scalar metrics for a ``kind=fleet`` campaign cell."""
        dev = self.devices or 1
        out: Dict[str, Any] = {
            "devices": self.devices,
            "aps": self.aps,
            "cohorts": self.cohorts,
            "fleet_energy_j": self.fleet_energy_j,
            "mean_device_energy_j": self.fleet_energy_j / dev,
            "compress_fraction": self.compress_devices / dev,
            "flip_fraction": self.flip_devices / dev,
            "never_break_even_devices": self.never_break_even_devices,
        }
        for name, (p_lo, p_hi) in (
            ("lifetime_h", (50, 5)),
            ("energy_per_mb", (50, 95)),
            ("wait_s", (50, 95)),
        ):
            sketch = self.sketches[name]
            out[f"{name}_p{p_lo:02d}"] = sketch.quantile(p_lo / 100.0)
            out[f"{name}_p{p_hi:02d}"] = sketch.quantile(p_hi / 100.0)
        out["break_even_kb_p50"] = self.sketches["break_even_kb"].quantile(0.5)
        return out

    def to_dict(
        self, percentiles: Tuple[int, ...] = DEFAULT_PERCENTILES
    ) -> Dict[str, Any]:
        """Full JSON-ready report: totals, percentiles, sparse sketches."""
        dev = self.devices or 1
        return {
            "policy": self.policy,
            "devices": self.devices,
            "aps": self.aps,
            "cohorts": self.cohorts,
            "fleet_energy_j": self.fleet_energy_j,
            "fleet_raw_mb": self.fleet_raw_mb,
            "mean_device_energy_j": self.fleet_energy_j / dev,
            "compress_fraction": self.compress_devices / dev,
            "flip_fraction": self.flip_devices / dev,
            "never_break_even_devices": self.never_break_even_devices,
            "flips_by_n": [
                [n, counts[0], counts[1]]
                for n, counts in sorted(self.flips_by_n.items())
            ],
            "percentiles": {
                name: {
                    f"p{p:02d}": sketch.quantile(p / 100.0)
                    for p in percentiles
                }
                for name, sketch in sorted(self.sketches.items())
            },
            "sketches": {
                name: sketch.to_dict()
                for name, sketch in sorted(self.sketches.items())
            },
        }


def _session_tables(spec) -> Tuple[Any, Any, Any, Any, List[int], List[int]]:
    """(K, W) session energy/time tables for every class x workload.

    Returns ``(e_raw, t_raw, e_cmp, t_cmp, raw_bytes, comp_bytes)``
    with the byte lists indexed by workload.  Sessions are the clean
    analytic closed forms via the vectorized batch path.
    """
    from repro.core import thresholds
    from repro.simulator import batch

    n_k = len(spec.device_classes)
    n_w = len(spec.workloads)
    raw_bytes = [int(w.size_mb * units.BYTES_PER_MB) for w in spec.workloads]
    comp_bytes = [
        int(r / w.factor) if w.factor > 0 else r
        for r, w in zip(raw_bytes, spec.workloads)
    ]
    raw_arr = np.array([float(v) for v in raw_bytes], dtype=np.float64)
    comp_arr = np.array([float(v) for v in comp_bytes], dtype=np.float64)
    e_raw = np.zeros((n_k, n_w))
    t_raw = np.zeros((n_k, n_w))
    e_cmp = np.zeros((n_k, n_w))
    t_cmp = np.zeros((n_k, n_w))
    by_codec: Dict[str, List[int]] = {}
    for i, w in enumerate(spec.workloads):
        by_codec.setdefault(w.codec, []).append(i)
    for k, cls in enumerate(spec.device_classes):
        model = thresholds.model_at_rate(cls.link_mbps)
        e_raw[k], t_raw[k] = batch.batch_session_energy_time(
            "raw", raw_arr, raw_arr, model
        )
        for codec, idxs in by_codec.items():
            e, t = batch.batch_session_energy_time(
                "interleaved", raw_arr[idxs], comp_arr[idxs], model, codec
            )
            e_cmp[k, idxs] = e
            t_cmp[k, idxs] = t
    return e_raw, t_raw, e_cmp, t_cmp, raw_bytes, comp_bytes


def _break_even_bytes(spec, k_arr, n_arr, collision_overhead: float):
    """Fleet break-even size per (class, station-count) pair, bisected.

    The vector twin of ``FleetAdvisor.size_threshold_bytes`` with
    ``contenders = n - 1``: the smallest file for which an ideally
    compressed transfer beats raw *including* the contenders' waiting
    energy.  Returns ``(bytes, never_mask)`` aligned with the inputs.
    """
    from repro.core import thresholds
    from repro.simulator import batch

    out = np.zeros(k_arr.shape)
    never = np.zeros(k_arr.shape, dtype=bool)
    huge = _BREAK_EVEN_HUGE_FACTOR
    for k in np.unique(k_arr).tolist():
        sel = k_arr == k
        cls = spec.device_classes[int(k)]
        model = thresholds.model_at_rate(cls.link_mbps)
        contention = ContentionModel(model, collision_overhead)
        contenders = n_arr[sel] - 1.0

        def worth(n_bytes):
            raw = np.trunc(n_bytes)
            comp = np.trunc(raw / huge)
            cost_c = (
                batch.batch_interleaved_energy_j(raw, comp, model)
                + contenders
                * contention.service_time_s(
                    comp / units.BYTES_PER_MB / contention.model.params.rate_mb_per_s,
                    n_arr[sel],
                )
                * model.device.idle_power_w
            )
            cost_r = (
                batch.batch_download_energy_j(raw, model)
                + contenders
                * contention.service_time_s(
                    raw / units.BYTES_PER_MB / contention.model.params.rate_mb_per_s,
                    n_arr[sel],
                )
                * model.device.idle_power_w
            )
            return (cost_c < cost_r) & (raw > 0.0)

        lo = np.full(contenders.shape, 1.0)
        hi = np.full(contenders.shape, float(units.BYTES_PER_MB))
        w_lo = worth(lo)
        w_hi = worth(hi)
        vals = np.rint(monotone_root_array(worth, lo, hi))
        vals = np.where(w_lo, 1.0, vals)
        out[sel] = vals
        never[sel] = ~w_hi & ~w_lo
    return out, never


def evaluate_population(
    population: Population,
    policy: str = "fleet-advised",
    collision_overhead: float = 0.0,
) -> FleetSummary:
    """Evaluate a synthesized fleet into a :class:`FleetSummary`.

    Pure in its inputs: the same population (same seed + spec) under
    the same policy always yields byte-identical summary JSON.  Cost is
    O(cohorts), not O(devices).
    """
    if not HAVE_NUMPY:
        raise ModelError("fleet aggregation requires numpy")
    if policy not in FLEET_POLICIES:
        raise ModelError(
            f"unknown fleet policy {policy!r}; known: {', '.join(FLEET_POLICIES)}"
        )
    spec = population.spec
    spec.validate()
    cohorts = population.cohorts()
    e_raw_t, t_raw_t, e_cmp_t, t_cmp_t, raw_bytes, comp_bytes = (
        _session_tables(spec)
    )
    k_arr = cohorts.class_idx
    w_arr = cohorts.workload_idx
    n_arr = cohorts.stations.astype(np.float64)
    cnt = cohorts.count
    cntf = cnt.astype(np.float64)

    # Per-class and per-workload gathers.
    from repro.core import thresholds

    rates = np.zeros(len(spec.device_classes))
    idle_w = np.zeros(len(spec.device_classes))
    idle_between_w = np.zeros(len(spec.device_classes))
    usable_j = np.zeros(len(spec.device_classes))
    for k, cls in enumerate(spec.device_classes):
        model = thresholds.model_at_rate(cls.link_mbps)
        device = model.device
        idle_w[k] = device.idle_power_w
        idle_between_w[k] = (
            device.idle_power_save_w if cls.power_save_idle
            else device.idle_power_w
        )
        usable_j[k] = Battery(capacity_mah=cls.capacity_mah).usable_joules
        rates[k] = model.params.rate_mb_per_s
    size_mb = np.array([w.size_mb for w in spec.workloads])
    rph = np.array([w.requests_per_hour for w in spec.workloads])
    raw_mb = np.array([float(b) for b in raw_bytes]) / units.BYTES_PER_MB
    comp_mb = np.array([float(b) for b in comp_bytes]) / units.BYTES_PER_MB

    e_raw = e_raw_t[k_arr, w_arr]
    t_raw = t_raw_t[k_arr, w_arr]
    e_cmp = e_cmp_t[k_arr, w_arr]
    t_cmp = t_cmp_t[k_arr, w_arr]
    p_idle = idle_w[k_arr]
    p_between = idle_between_w[k_arr]
    capacity_j = usable_j[k_arr]
    rate = rates[k_arr]
    contention = ContentionModel(collision_overhead=collision_overhead)

    # Link occupancy of each choice (what contenders wait for) and the
    # FleetAdvisor decision form with contenders = n - 1.
    contenders = n_arr - 1.0
    t_link_raw = contention.service_time_s(raw_mb[w_arr] / rate, n_arr)
    t_link_cmp = contention.service_time_s(comp_mb[w_arr] / rate, n_arr)
    worth_single = e_cmp < e_raw
    fleet_worth = (e_cmp + contenders * t_link_cmp * p_idle) < (
        e_raw + contenders * t_link_raw * p_idle
    )
    if policy == "raw":
        use_cmp = np.zeros(n_arr.shape, dtype=bool)
    elif policy == "compressed":
        use_cmp = np.ones(n_arr.shape, dtype=bool)
    elif policy == "advised":
        use_cmp = worth_single
    else:
        use_cmp = fleet_worth

    e_sel = np.where(use_cmp, e_cmp, e_raw)
    t_sel = np.where(use_cmp, t_cmp, t_raw)
    wait = contention.mean_wait_s(t_sel, n_arr)
    e_dev = e_sel + wait * p_idle
    energy_per_mb = e_dev / size_mb[w_arr]

    # Battery lifetime at the workload's request rate: busy time at the
    # session's mean draw, the remainder of the hour on the idle rail.
    busy_s = rph[w_arr] * (contention.service_time_s(t_sel, n_arr) + wait)
    idle_s = np.maximum(0.0, 3600.0 - busy_s)
    hourly_j = rph[w_arr] * e_dev + idle_s * p_between
    with np.errstate(all="ignore"):
        lifetime_h = np.where(hourly_j > 0.0, capacity_j / hourly_j, np.inf)

    be_bytes, be_never = _break_even_bytes(
        spec, k_arr, n_arr, collision_overhead
    )

    summary = FleetSummary(policy=policy)
    summary.devices = int(cnt.sum())
    summary.aps = int((population.stations_per_ap > 0).sum())
    summary.cohorts = len(cohorts)
    summary.fleet_energy_j = float((e_dev * cntf).sum())
    summary.fleet_raw_mb = float((raw_mb[w_arr] * cntf).sum())
    summary.compress_devices = int(cnt[use_cmp].sum())
    flip = worth_single != fleet_worth
    summary.flip_devices = int(cnt[flip].sum())
    summary.never_break_even_devices = int(cnt[be_never].sum())
    for n in np.unique(cohorts.stations).tolist():
        sel = cohorts.stations == n
        summary.flips_by_n[int(n)] = [
            int(cnt[sel].sum()), int(cnt[sel & flip].sum())
        ]
    summary.sketches["lifetime_h"].observe_array(lifetime_h, cnt)
    summary.sketches["energy_per_mb"].observe_array(energy_per_mb, cnt)
    summary.sketches["wait_s"].observe_array(wait, cnt)
    ok = ~be_never
    summary.sketches["break_even_kb"].observe_array(
        be_bytes[ok] / 1024.0, cnt[ok]
    )
    return summary


def _jsonable(value: Any) -> Any:
    """Canonical-JSON-safe copy: non-finite floats become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else (
            "inf" if value > 0 else "-inf"
        )
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def summary_json(summary: FleetSummary, **kwargs) -> str:
    """Canonical JSON for a summary: sorted keys, no whitespace.

    Byte-identical across runs for byte-identical summaries — the form
    the CLI ``--json`` output, the smoke gate's ``cmp`` and the bench
    artifact all pin.
    """
    return json.dumps(
        _jsonable(summary.to_dict(**kwargs)),
        sort_keys=True,
        separators=(",", ":"),
    )


def reduce_campaign_metrics(out_dir) -> Dict[str, Dict[str, float]]:
    """Per-metric {count, sum, min, max, mean} over a campaign's shards.

    Folds each live shard file independently and combines the partials
    associatively via :func:`repro.campaign.store.reduce_shards` — the
    merged report is never materialized.  Only numeric metrics of
    ``ok`` records participate.
    """
    from repro.campaign import store

    def fold(acc: Dict[str, List[float]], record: Dict[str, Any]):
        if record.get("status") != "ok":
            return acc
        for name, value in (record.get("metrics") or {}).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            slot = acc.get(name)
            if slot is None:
                acc[name] = [1.0, float(value), float(value), float(value)]
            else:
                slot[0] += 1.0
                slot[1] += float(value)
                slot[2] = min(slot[2], float(value))
                slot[3] = max(slot[3], float(value))
        return acc

    def combine(a: Dict[str, List[float]], b: Dict[str, List[float]]):
        for name, slot in b.items():
            mine = a.get(name)
            if mine is None:
                a[name] = list(slot)
            else:
                mine[0] += slot[0]
                mine[1] += slot[1]
                mine[2] = min(mine[2], slot[2])
                mine[3] = max(mine[3], slot[3])
        return a

    partials = store.reduce_shards(out_dir, fold, dict, combine)
    return {
        name: {
            "count": int(slot[0]),
            "sum": slot[1],
            "min": slot[2],
            "max": slot[3],
            "mean": slot[1] / slot[0] if slot[0] else 0.0,
        }
        for name, slot in sorted(partials.items())
    }


__all__ = [
    "BREAK_EVEN_KB_BOUNDS",
    "DEFAULT_PERCENTILES",
    "ENERGY_PER_MB_BOUNDS",
    "FLEET_POLICIES",
    "FleetSummary",
    "HAVE_NUMPY",
    "LIFETIME_HOURS_BOUNDS",
    "LogHistogram",
    "WAIT_S_BOUNDS",
    "evaluate_population",
    "reduce_campaign_metrics",
    "summary_json",
]
