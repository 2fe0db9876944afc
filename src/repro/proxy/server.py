"""Proxy server: file store with precompression caching.

"When proxies are employed in a wireless LAN environment ... compressing
such information on the proxies, in advance or on demand, has the obvious
potential advantage of reducing the battery consumed by the wireless
network interface" (Section 1).  :class:`ProxyServer` stores original
files, caches precompressed representations per codec, and produces
:class:`TransferPlan` descriptors the simulator consumes.

The compression cache is bounded: a byte-budgeted LRU
(:class:`~repro.proxy.cache.LruByteCache`) holds the compressed
representations, so a long-running service cannot grow memory without
limit.  ``StoredFile.cache`` remains the per-file view of whatever the
LRU currently holds for that file.

Facts derived from a file's bytes (its sniffed probe factors and its
sha256) live on the :class:`StoredFile` itself, outside the LRU's
budget: :meth:`ProxyServer.put` replaces the ``StoredFile``, so new
content starts with none of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.compression.base import CodecResult, get_codec
from repro.core.adaptive import AdaptiveBlockCodec, AdaptiveResult
from repro.errors import WorkloadError
from repro.proxy.cache import DEFAULT_CACHE_BUDGET_BYTES, LruByteCache
from repro.proxy.cpu import ProxyCpuModel, PROXY_PIII


@dataclass
class StoredFile:
    """One file on the proxy, plus its compression cache."""

    name: str
    data: bytes
    cache: Dict[str, CodecResult] = field(default_factory=dict)
    #: Probe factors of ``data[:sniff_bytes]``, keyed by
    #: ``(codec, sniff_bytes)``: one float per key, filled by the
    #: service's sniff.
    sniffed: Dict[Tuple[str, int], float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Size of the stored bytes."""
        return len(self.data)

    @cached_property
    def sha256(self) -> str:
        """Hex sha256 of the stored bytes (the OK frame's integrity anchor)."""
        return hashlib.sha256(self.data).hexdigest()


@dataclass(frozen=True)
class TransferPlan:
    """What will cross the wireless link for one request."""

    name: str
    raw_bytes: int
    transfer_bytes: int
    codec: Optional[str]
    precompressed: bool
    #: Proxy CPU seconds if compression happens on demand (0 otherwise).
    proxy_compress_s: float
    #: The adaptive decision trail when the adaptive container is used.
    adaptive: Optional[AdaptiveResult] = None

    @property
    def compression_factor(self) -> float:
        """Raw size over transfer size."""
        if self.transfer_bytes <= 0:
            return 1.0
        return self.raw_bytes / self.transfer_bytes


class ProxyServer:
    """Stores files; serves them raw, precompressed, or compressed on demand."""

    def __init__(
        self,
        cpu: Optional[ProxyCpuModel] = None,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET_BYTES,
        metrics=None,
    ) -> None:
        self.cpu = cpu or PROXY_PIII
        self._files: Dict[str, StoredFile] = {}
        self.cache = LruByteCache(
            budget_bytes=cache_budget_bytes,
            on_evict=self._drop_from_file,
            metrics=metrics,
        )

    def _drop_from_file(self, key, value) -> None:
        """LRU eviction callback: keep the per-file view consistent."""
        name, codec_key = key
        stored = self._files.get(name)
        if stored is not None:
            stored.cache.pop(codec_key, None)

    def _cached(self, name: str, codec_key: str, build) -> CodecResult:
        """Serve ``(name, codec_key)`` from the LRU or build and insert."""
        stored = self.get(name)
        result = self.cache.get((name, codec_key))
        if result is None:
            result = build(stored)
            self.cache.put((name, codec_key), result)
            if (name, codec_key) in self.cache:
                stored.cache[codec_key] = result
            else:
                # Over-budget result: serve it, but do not pin it.
                stored.cache.pop(codec_key, None)
        return result

    # -- store management -----------------------------------------------------

    def put(self, name: str, data: bytes) -> StoredFile:
        """Store (or replace) a file; stale cached representations drop."""
        stored = StoredFile(name=name, data=data)
        self.cache.discard_prefix(name)
        self._files[name] = stored
        return stored

    def get(self, name: str) -> StoredFile:
        """Fetch a stored file; raises WorkloadError when absent."""
        try:
            return self._files[name]
        except KeyError:
            raise WorkloadError(f"no file named {name!r} on the proxy") from None

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def names(self):
        """Sorted names of stored files."""
        return sorted(self._files)

    # -- compression ------------------------------------------------------------

    def precompress(self, name: str, codec_name: str) -> CodecResult:
        """Compress ``name`` with ``codec_name`` and cache the result."""
        return self._cached(
            name, codec_name,
            lambda stored: get_codec(codec_name).compress(stored.data),
        )

    def precompress_adaptive(
        self, name: str, adaptive: Optional[AdaptiveBlockCodec] = None
    ) -> AdaptiveResult:
        """Build and cache the block-adaptive container for ``name``."""
        adaptive = adaptive or AdaptiveBlockCodec()
        key = f"adaptive:{adaptive.inner.name}"
        result = self._cached(
            name, key, lambda stored: adaptive.compress(stored.data)
        )
        assert isinstance(result, AdaptiveResult)
        return result

    # -- serving -----------------------------------------------------------------

    def plan_raw(self, name: str) -> TransferPlan:
        """Transfer plan for shipping the original bytes."""
        stored = self.get(name)
        return TransferPlan(
            name=name,
            raw_bytes=stored.size,
            transfer_bytes=stored.size,
            codec=None,
            precompressed=True,
            proxy_compress_s=0.0,
        )

    def plan_precompressed(self, name: str, codec_name: str) -> TransferPlan:
        """Transfer plan served from the precompression cache."""
        stored = self.get(name)
        result = self.precompress(name, codec_name)
        return TransferPlan(
            name=name,
            raw_bytes=stored.size,
            transfer_bytes=result.compressed_size,
            codec=codec_name,
            precompressed=True,
            proxy_compress_s=0.0,
        )

    def plan_ondemand(self, name: str, codec_name: str) -> TransferPlan:
        """Compression happens at request time; proxy CPU cost is charged."""
        stored = self.get(name)
        result = self.precompress(name, codec_name)  # content identical
        t_comp = self.cpu.compress_time_s(
            codec_name, stored.size, result.compressed_size
        )
        return TransferPlan(
            name=name,
            raw_bytes=stored.size,
            transfer_bytes=result.compressed_size,
            codec=codec_name,
            precompressed=False,
            proxy_compress_s=t_comp,
        )

    def plan_adaptive(
        self, name: str, adaptive: Optional[AdaptiveBlockCodec] = None
    ) -> TransferPlan:
        """Transfer plan for the block-adaptive container."""
        stored = self.get(name)
        result = self.precompress_adaptive(name, adaptive)
        return TransferPlan(
            name=name,
            raw_bytes=stored.size,
            transfer_bytes=result.compressed_size,
            codec=(adaptive or AdaptiveBlockCodec()).inner.name,
            precompressed=True,
            proxy_compress_s=0.0,
            adaptive=result,
        )
