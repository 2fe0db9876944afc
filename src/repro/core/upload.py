"""Upload-path energy model (the paper's Section 7 future work).

"A similar tradeoff issue exists when the handheld device uploads
information, e.g. lively captured voice and pictures" (Section 1).  The
roles flip: *compression* now runs on the handheld — an order of
magnitude more CPU work than decompression — while the proxy pays the
cheap decompression.  With gzip -9's device-side cost (~2 s/MB on the
StrongARM) compression loses outright at 0.6 MB/s; the interesting
trade-off appears with fast compressor settings (gzip -1, LZW), which is
why this module models per-scheme *device* compression costs and mirrors
Equations 1-3 for the send direction.

Table 1 reports no separate send rows; the WaveLAN card's transmit draw
at this power level sits in the same band as receive, so the send-side
m and gap powers reuse the receive-derived values (documented in
DESIGN.md).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import units
from repro.core.energy_model import EnergyModel
from repro.core.roots import monotone_root
from repro.errors import ModelError


class UploadModel:
    """Equations 1-3 mirrored for the upload direction."""

    def __init__(self, model: Optional[EnergyModel] = None) -> None:
        self.model = model or EnergyModel()

    @property
    def params(self):
        """The underlying model parameters."""
        return self.model.params

    # -- computation time -----------------------------------------------------

    def compression_time_s(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "compress"
    ) -> float:
        """Device-side compression time (the upload bottleneck)."""
        return self.model.cpu.compress_time_s(codec, raw_bytes, compressed_bytes)

    # -- Equation 1 mirror: plain upload ---------------------------------------

    def upload_energy_j(self, raw_bytes: float) -> float:
        """Send the original data: m*s + cs + ti*p_gap."""
        return self.model.download_energy_j(raw_bytes)

    def upload_time_s(self, raw_bytes: float) -> float:
        """Wall time to send the original data."""
        return self.model.download_time_s(raw_bytes)

    # -- Equation 2 mirror: compress fully, then send --------------------------

    def sequential_energy_j(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "compress"
    ) -> float:
        """Compress (CPU busy, radio idle), then send the compressed data."""
        p = self.params
        sc = units.bytes_to_mb(compressed_bytes)
        tc = self.compression_time_s(raw_bytes, compressed_bytes, codec)
        ti = self.model.total_idle_time_s(compressed_bytes)
        # Compression draws the busy/idle decompress-class power: the
        # paper's 570 mA average is for the same load/store-heavy kind of
        # work.
        return (
            p.m_j_per_mb * sc
            + p.cs_j
            + ti * p.gap_power_w
            + tc * p.decompress_power_w
        )

    def sequential_time_s(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "compress"
    ) -> float:
        """Compress-then-send wall time."""
        tc = self.compression_time_s(raw_bytes, compressed_bytes, codec)
        return tc + units.bytes_to_mb(compressed_bytes) / self.params.rate_mb_per_s

    # -- Equation 3 mirror: compress block i+1 while sending block i ------------

    def interleave_times(
        self, raw_bytes: float, compressed_bytes: float
    ) -> Tuple[float, float]:
        """(ts', ts''): send-gap time after/during the LAST block.

        Mirrors Equation 4: the final block's send gaps cannot host
        compression work (everything is already compressed by then), so
        they play the ti'' role.
        """
        p = self.params
        s = units.bytes_to_mb(raw_bytes)
        sc = units.bytes_to_mb(compressed_bytes)
        if s <= 0:
            return (0.0, 0.0)
        if s >= p.block_mb:
            last_block_sc = p.block_mb * sc / s
            ts_dprime = p.idle_fraction * last_block_sc / p.rate_mb_per_s
            ts_prime = p.idle_fraction * (sc - last_block_sc) / p.rate_mb_per_s
        else:
            ts_prime = 0.0
            ts_dprime = p.idle_fraction * sc / p.rate_mb_per_s
        return (ts_prime, ts_dprime)

    def interleaved_energy_j(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "compress"
    ) -> float:
        """Compress the next block in the gaps of the current block's send.

        The first block must be compressed before anything can be sent
        (the pipeline fill), charged at full compression power; the rest
        of the compression work overlaps the send gaps, Equation 3 style.
        """
        p = self.params
        sc = units.bytes_to_mb(compressed_bytes)
        s = units.bytes_to_mb(raw_bytes)
        tc = self.compression_time_s(raw_bytes, compressed_bytes, codec)
        ts_prime, ts_dprime = self.interleave_times(raw_bytes, compressed_bytes)
        # The first block's compression (the pipeline fill) happens before
        # any gap exists; only the rest can hide in send gaps.
        n_blocks = max(1.0, s / p.block_mb)
        overlap_work = tc * (1.0 - 1.0 / n_blocks)
        base = p.m_j_per_mb * sc + p.cs_j + tc * p.decompress_power_w
        if ts_prime > overlap_work:
            return base + (ts_prime - overlap_work + ts_dprime) * p.gap_power_w
        return base + ts_dprime * p.gap_power_w

    def interleaved_time_s(
        self, raw_bytes: float, compressed_bytes: float, codec: str = "compress"
    ) -> float:
        """Send time plus whatever compression cannot hide in the gaps.

        The pipeline-fill block and any overflow extend the wall clock.
        """
        p = self.params
        s = units.bytes_to_mb(raw_bytes)
        tc = self.compression_time_s(raw_bytes, compressed_bytes, codec)
        send = units.bytes_to_mb(compressed_bytes) / p.rate_mb_per_s
        n_blocks = max(1.0, s / p.block_mb)
        fill = tc / n_blocks  # first block's compression
        ts_prime, _ = self.interleave_times(raw_bytes, compressed_bytes)
        overflow = max(0.0, (tc - fill) - ts_prime)
        return fill + send + overflow

    # -- decision support -------------------------------------------------------

    def net_saving_j(
        self,
        raw_bytes: float,
        compressed_bytes: float,
        codec: str = "compress",
        interleaved: bool = True,
    ) -> float:
        """Plain-upload energy minus compressed-upload energy."""
        plain = self.upload_energy_j(raw_bytes)
        if interleaved:
            compressed = self.interleaved_energy_j(raw_bytes, compressed_bytes, codec)
        else:
            compressed = self.sequential_energy_j(raw_bytes, compressed_bytes, codec)
        return plain - compressed

    def worthwhile(
        self,
        raw_bytes: float,
        compression_factor: float,
        codec: str = "compress",
        interleaved: bool = True,
    ) -> bool:
        """Upload-side Equation 6 analogue."""
        if compression_factor <= 0:
            raise ModelError("compression factor must be positive")
        if raw_bytes <= 0:
            return False
        return (
            self.net_saving_j(
                raw_bytes, raw_bytes / compression_factor, codec, interleaved
            )
            > 0
        )

    def factor_threshold(
        self, raw_bytes: float, codec: str = "compress", interleaved: bool = True
    ) -> float:
        """Minimum factor at which compressed upload saves energy."""
        if raw_bytes <= 0:
            return float("inf")
        hi = 1e6
        if not self.worthwhile(raw_bytes, hi, codec, interleaved):
            return float("inf")
        lo = 1.0
        if self.worthwhile(raw_bytes, lo, codec, interleaved):
            return lo
        return monotone_root(
            lambda f: self.worthwhile(raw_bytes, f, codec, interleaved), lo, hi
        )
