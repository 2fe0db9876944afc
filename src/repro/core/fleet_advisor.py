"""Contention-aware compression advice.

Equation 6 is a single-device criterion: it balances one device's radio
saving against its own decompression cost.  On a shared medium there is
a second term — every byte removed from the air shortens the queueing
delay of the *other* devices, which wait at idle power.  The fleet test
suite demonstrates the effect (a factor-1.10 file that loses alone wins
with four contenders); this module makes it a first-class decision rule.

Model: with ``contenders`` other devices backlogged behind a transfer of
T seconds, shrinking it by dT saves, in addition to the device's own
radio energy, ``contenders * dT * p_idle`` joules of fleet waiting
energy.  The contention-adjusted condition is therefore

    E_int(s, sc) + n*p_i*(t(sc) - t(s)) < E_plain(s)

with t() the transfer wall time — the left side *gains* a negative term
as sc < s, so the break-even factor falls monotonically with n.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.core.energy_model import EnergyModel
from repro.core.roots import monotone_root
from repro.errors import ModelError


class FleetAdvisor:
    """Compression decisions that price in shared-medium queueing.

    The waiting-energy arithmetic itself lives in
    :class:`repro.fleet.contention.ContentionModel` (the population
    layer's closed forms); this class keeps the decision API — the
    worthwhile test and the factor/size thresholds — and delegates the
    cost form.  ``collision_overhead`` passes through to the contention
    model's MAC efficiency knob; the default ``0.0`` preserves the
    original fluid-limit answers bit for bit.
    """

    def __init__(
        self,
        model: Optional[EnergyModel] = None,
        contenders: int = 0,
        collision_overhead: float = 0.0,
    ) -> None:
        if contenders < 0:
            raise ModelError("contenders must be non-negative")
        from repro.fleet.contention import ContentionModel

        self.model = model or EnergyModel()
        self.contenders = contenders
        self.contention = ContentionModel(
            self.model, collision_overhead=collision_overhead
        )

    def _waiting_power_w(self) -> float:
        return self.model.device.idle_power_w

    def fleet_cost_j(self, raw_bytes: int, transfer_bytes: int) -> float:
        """Total cost: device session energy plus contender waiting energy.

        The contenders wait for the transfer's link occupancy (its wall
        time on the medium); interleaved decompression overflow happens
        off-air and does not hold the link.  Delegates to
        :meth:`~repro.fleet.contention.ContentionModel.fleet_cost_j`.
        """
        return self.contention.fleet_cost_j(
            raw_bytes, transfer_bytes, self.contenders
        )

    def compression_worthwhile(
        self, raw_bytes: int, compression_factor: float
    ) -> bool:
        """Contention-adjusted Equation 6."""
        if compression_factor <= 0:
            raise ModelError("compression factor must be positive")
        if raw_bytes <= 0:
            return False
        compressed = int(raw_bytes / compression_factor)
        return self.fleet_cost_j(raw_bytes, compressed) < self.fleet_cost_j(
            raw_bytes, raw_bytes
        )

    def factor_threshold(self, raw_bytes: int) -> float:
        """Fleet break-even factor; falls toward 1 as contenders grow."""
        if raw_bytes <= 0:
            return float("inf")
        hi = 1e6
        if not self.compression_worthwhile(raw_bytes, hi):
            return float("inf")
        lo = 1.0
        if self.compression_worthwhile(raw_bytes, 1.0 + 1e-9):
            return 1.0
        return monotone_root(
            lambda f: self.compression_worthwhile(raw_bytes, f), lo, hi
        )

    def size_threshold_bytes(self) -> int:
        """Fleet size floor; also falls with contention (the startup cost
        amortizes against other devices' waiting)."""
        huge = 1e9

        def ever(n_bytes: float) -> bool:
            return self.compression_worthwhile(int(n_bytes), huge)

        lo, hi = 1.0, float(units.BYTES_PER_MB)
        if ever(lo):
            return 1
        if not ever(hi):
            raise ModelError("compression never worthwhile under this model")
        return int(round(monotone_root(ever, lo, hi)))
