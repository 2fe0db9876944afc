"""The paper's energy model for compressed downloading (Equations 1-5).

Equation 1 (plain download):      E = m*s + cs + ti*pi
Equation 2 (download, decompress): E = m*sc + cs + (ti' + ti'')*pi + td*pd
Equation 3 (interleaved):
    if ti' >  td:  E = m*sc + cs + td*pd + (ti' - td + ti'')*pi
    if ti' <= td:  E = m*sc + cs + td*pd + ti''*pi
Equation 4 (idle-time split):     ti'' is the idle time while the first
    0.128 MB (raw) block arrives — it cannot be filled with decompression
    because nothing is available to decompress yet; ti' is the rest.

All sizes in the public API are bytes; internally the model uses the
paper's MB (MiB).  The default parameterization reproduces the paper's
fitted constants exactly: with p_i = 1.55 W (310 mA), p_d = 2.85 W
(570 mA), m = 2.486 J/MB and cs = 0.012 J, Equation 3 expands to the
paper's Equation 5 coefficients (0.4589/2.945/0.132/0.0234 for F > 3.14,
0.2093/3.729/0.0172 otherwise, 0.4589/3.9784/0.0234 for small files).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro import units
from repro.core.roots import monotone_root
from repro.device.cpu import DeviceCpuModel, IPAQ_CPU
from repro.device.handheld import HandheldDevice
from repro.errors import ModelError
from repro.network.wlan import LinkConfig, LINK_11MBPS, LINK_2MBPS


@dataclass(frozen=True)
class ModelParams:
    """Everything Equations 1-5 need, in the paper's units.

    Attributes:
        m_j_per_mb: energy to receive one MB of data (active receive only).
        cs_j: network communication start-up cost.
        idle_power_w: p_i, draw during unfilled CPU-idle gaps.
        gap_power_w: draw during receive gaps; equals p_i at 11 Mb/s,
            but at 2 Mb/s the card never quiesces between slow packets, so
            gaps draw closer to the 430 mA receive level.
        decompress_power_w: p_d (570 mA for gzip at 11 Mb/s).
        decompress_sleep_power_w: p_d with the radio power-saving
            ("letting pd equal to 1.70", Section 4.2).
        rate_mb_per_s: delivered download rate in MB/s.
        idle_fraction: CPU-idle share of download wall time.
        block_mb: the compression buffer size (0.128 MB).
    """

    m_j_per_mb: float
    cs_j: float
    idle_power_w: float
    gap_power_w: float
    decompress_power_w: float
    decompress_sleep_power_w: float
    rate_mb_per_s: float
    idle_fraction: float
    block_mb: float = units.BLOCK_SIZE_MB

    def __post_init__(self) -> None:
        if self.rate_mb_per_s <= 0:
            raise ModelError("rate must be positive")
        if not 0 <= self.idle_fraction < 1:
            raise ModelError("idle fraction must be in [0, 1)")

    @classmethod
    def for_link(
        cls,
        link: LinkConfig,
        device: Optional[HandheldDevice] = None,
    ) -> "ModelParams":
        """Derive parameters for a link from the device power table.

        m comes from the active-receive power and the link's active time
        per MB; the gap power is p_i when gaps are long enough for the
        card to go idle (11 Mb/s) and the 430 mA receive level when the
        slow stream keeps the card receptive (2 Mb/s and below).
        """
        device = device or HandheldDevice()
        rate = link.delivered_rate_mbps
        active_s_per_mb = (1.0 - link.idle_fraction) / rate
        m = device.recv_active_power_w * active_s_per_mb
        if link.nominal_rate_bps >= units.NOMINAL_RATE_11MBPS:
            gap_power = device.idle_power_w
        else:
            from repro.device.power import CpuState, RadioState

            gap_power = device.power_table.power_w(
                CpuState.NETWORK, RadioState.RECV, False
            )
        return cls(
            m_j_per_mb=m,
            cs_j=units.COMM_STARTUP_ENERGY_J,
            idle_power_w=device.idle_power_w,
            gap_power_w=gap_power,
            decompress_power_w=device.decompress_power_w(power_save=False),
            decompress_sleep_power_w=device.decompress_power_w(power_save=True),
            rate_mb_per_s=rate,
            idle_fraction=link.idle_fraction,
        )


#: Paper Equation 5 literal coefficients (11 Mb/s, interleaved zlib).
PAPER_EQ5_HIGH_F = (0.4589, 2.945, 0.132, 0.0234)  # F > 3.14 - 0.265/s
PAPER_EQ5_LOW_F = (0.2093, 3.729, 0.0172)  # F <= 3.14 - 0.265/s
PAPER_EQ5_SMALL = (0.4589, 3.9784, 0.0234)  # s <= 0.128


class EnergyModel:
    """Equations 1-5 over a link + device + CPU-cost parameterization."""

    def __init__(
        self,
        link: LinkConfig = LINK_11MBPS,
        device: Optional[HandheldDevice] = None,
        cpu: Optional[DeviceCpuModel] = None,
        params: Optional[ModelParams] = None,
    ) -> None:
        self.link = link
        self.device = device or HandheldDevice()
        self.cpu = cpu or (self.device.cpu if device else IPAQ_CPU)
        self.params = params or ModelParams.for_link(link, self.device)

    # -- Equation 4: idle-time split ---------------------------------------

    def total_idle_time_s(self, transfer_bytes: float) -> float:
        """ti: total CPU idle time while downloading ``transfer_bytes``."""
        mb = units.bytes_to_mb(transfer_bytes)
        return self.params.idle_fraction * mb / self.params.rate_mb_per_s

    def idle_times(self, raw_bytes: float, compressed_bytes: float) -> Tuple[float, float]:
        """(ti', ti'') of Equation 4 for a compressed download."""
        p = self.params
        s = units.bytes_to_mb(raw_bytes)
        sc = units.bytes_to_mb(compressed_bytes)
        if s <= 0:
            return (0.0, 0.0)
        if s >= p.block_mb:
            first_block_sc = p.block_mb * sc / s
            ti_dprime = p.idle_fraction * first_block_sc / p.rate_mb_per_s
            ti_prime = p.idle_fraction * (sc - first_block_sc) / p.rate_mb_per_s
        else:
            ti_prime = 0.0
            ti_dprime = p.idle_fraction * sc / p.rate_mb_per_s
        return (ti_prime, ti_dprime)

    # -- computation time ----------------------------------------------------

    def decompression_time_s(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "gzip"
    ) -> float:
        """td: the device-side decompression time (paper's fit for gzip)."""
        return self.cpu.decompress_time_s(codec, raw_bytes, compressed_bytes)

    # -- Equation 1: plain download -------------------------------------------

    def download_energy_j(self, raw_bytes: float) -> float:
        """E = m*s + cs + ti*pi (Equation 1)."""
        p = self.params
        s = units.bytes_to_mb(raw_bytes)
        ti = self.total_idle_time_s(raw_bytes)
        return p.m_j_per_mb * s + p.cs_j + ti * p.gap_power_w

    def download_time_s(self, raw_bytes: float) -> float:
        """Wall time to download ``raw_bytes`` at the model rate."""
        return units.bytes_to_mb(raw_bytes) / self.params.rate_mb_per_s

    def fitted_download_energy_j(self, raw_bytes: float) -> float:
        """The paper's measured linear fit E = 3.519*s + 0.012 (11 Mb/s)."""
        s = units.bytes_to_mb(raw_bytes)
        return (
            units.DOWNLOAD_ENERGY_SLOPE_J_PER_MB * s
            + units.DOWNLOAD_ENERGY_INTERCEPT_J
        )

    # -- Equation 2: download then decompress ---------------------------------

    def sequential_energy_j(
        self,
        raw_bytes: float,
        compressed_bytes: float,
        codec: str = "gzip",
        radio_power_save: bool = False,
    ) -> float:
        """E = m*sc + cs + (ti' + ti'')*pi + td*pd (Equation 2).

        ``radio_power_save`` switches p_d to the 1.70 W power-saving value
        the paper uses when the card sleeps during decompression.
        """
        p = self.params
        sc = units.bytes_to_mb(compressed_bytes)
        ti_prime, ti_dprime = self.idle_times(raw_bytes, compressed_bytes)
        td = self.decompression_time_s(raw_bytes, compressed_bytes, codec)
        pd = p.decompress_sleep_power_w if radio_power_save else p.decompress_power_w
        return (
            p.m_j_per_mb * sc
            + p.cs_j
            + (ti_prime + ti_dprime) * p.gap_power_w
            + td * pd
        )

    # -- Equation 3: interleaved ----------------------------------------------

    def interleaved_energy_j(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "gzip"
    ) -> float:
        """Equation 3: decompress block i while block i+1 downloads."""
        p = self.params
        sc = units.bytes_to_mb(compressed_bytes)
        ti_prime, ti_dprime = self.idle_times(raw_bytes, compressed_bytes)
        td = self.decompression_time_s(raw_bytes, compressed_bytes, codec)
        base = p.m_j_per_mb * sc + p.cs_j + td * p.decompress_power_w
        if ti_prime > td:
            return base + (ti_prime - td + ti_dprime) * p.gap_power_w
        return base + ti_dprime * p.gap_power_w

    def interleaved_time_s(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "gzip"
    ) -> float:
        """Wall time with interleaving: decompression hides in the gaps."""
        ti_prime, _ = self.idle_times(raw_bytes, compressed_bytes)
        td = self.decompression_time_s(raw_bytes, compressed_bytes, codec)
        receive = units.bytes_to_mb(compressed_bytes) / self.params.rate_mb_per_s
        overflow = max(0.0, td - ti_prime)
        return receive + overflow

    # -- Equation 5: the closed form for gzip at 11 Mb/s ------------------------

    def closed_form_energy_j(self, raw_bytes: float, compression_factor: float) -> float:
        """Interleaved energy as a function of (s, F) only.

        Algebraically identical to :meth:`interleaved_energy_j` with
        sc = s/F; kept separate because the paper presents it this way
        (Equation 5) and the threshold analysis builds on it.
        """
        if compression_factor <= 0:
            raise ModelError("compression factor must be positive")
        return self.interleaved_energy_j(
            raw_bytes, raw_bytes / compression_factor, codec="gzip"
        )

    @staticmethod
    def paper_eq5_energy_j(raw_bytes: float, compression_factor: float) -> float:
        """The paper's literal Equation 5 (11 Mb/s constants)."""
        if compression_factor <= 0:
            raise ModelError("compression factor must be positive")
        s = units.bytes_to_mb(raw_bytes)
        f = compression_factor
        sc = s / f
        if s <= units.BLOCK_SIZE_MB:
            a, b, c = PAPER_EQ5_SMALL
            return a * s + b * sc + c
        if f > 3.14 - 0.265 / s:
            a, b, c, d = PAPER_EQ5_HIGH_F
            return a * s + b * sc + c / f + d
        a, b, c = PAPER_EQ5_LOW_F
        return a * s + b * sc + c

    # -- crossovers (Section 4.2) ----------------------------------------------

    def sleep_vs_interleave_crossover_factor(
        self, raw_bytes: float = 4 * units.BYTES_PER_MB, codec: str = "gzip"
    ) -> float:
        """Compression factor above which sequential + power-save beats
        interleaving (the paper derives "must exceed 4.6")."""
        lo, hi = 1.01, 1000.0

        def sleep_minus_interleave(f: float) -> float:
            sc = raw_bytes / f
            return self.sequential_energy_j(
                raw_bytes, sc, codec, radio_power_save=True
            ) - self.interleaved_energy_j(raw_bytes, sc, codec)

        if sleep_minus_interleave(hi) > 0:
            return float("inf")
        return monotone_root(
            lambda f: not sleep_minus_interleave(f) > 0, lo, hi
        )

    def fill_idle_factor(self, raw_bytes: float = 4 * units.BYTES_PER_MB) -> float:
        """Compression factor needed for decompression to exactly fill the
        idle time (td = ti'); the paper derives 27 at 2 Mb/s."""
        lo, hi = 1.01, 10000.0

        def td_minus_idle(f: float) -> float:
            sc = raw_bytes / f
            ti_prime, _ = self.idle_times(raw_bytes, sc)
            return self.decompression_time_s(raw_bytes, sc) - ti_prime

        # td - ti' increases with f (less idle, similar td), so bisection
        # finds where decompression stops fitting in the gaps.
        if td_minus_idle(lo) > 0:
            return lo
        if td_minus_idle(hi) < 0:
            return float("inf")
        return monotone_root(lambda f: not td_minus_idle(f) < 0, lo, hi)

    # -- convenience -------------------------------------------------------------

    def net_saving_j(
        self,
        raw_bytes: float,
        compressed_bytes: float,
        codec: str = "gzip",
        interleaved: bool = True,
    ) -> float:
        """Plain-download energy minus compressed-download energy."""
        plain = self.download_energy_j(raw_bytes)
        if interleaved:
            compressed = self.interleaved_energy_j(raw_bytes, compressed_bytes, codec)
        else:
            compressed = self.sequential_energy_j(raw_bytes, compressed_bytes, codec)
        return plain - compressed

    def with_params(self, **overrides) -> "EnergyModel":
        """A copy of this model with selected parameters overridden."""
        return EnergyModel(
            link=self.link,
            device=self.device,
            cpu=self.cpu,
            params=replace(self.params, **overrides),
        )


#: Ready-made models for the paper's two operating points.
def model_11mbps() -> EnergyModel:
    """The paper's main operating point (11 Mb/s WaveLAN)."""
    return EnergyModel(link=LINK_11MBPS)


def model_2mbps() -> EnergyModel:
    """The paper's 2 Mb/s validation operating point."""
    return EnergyModel(link=LINK_2MBPS)
