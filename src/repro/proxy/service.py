"""The live compression proxy: an asyncio streaming service.

This promotes the simulator-side :class:`~repro.proxy.server.ProxyServer`
model into a real request/response service speaking the length-prefixed
protocol of :mod:`repro.proxy.protocol`.  Each request is served raw or
compressed, decided *online* by the paper's Equation 6 from content
sniffing and the client's declared link state; compression happens on
demand (or comes from the byte-budgeted precompression cache), and the
robustness layer wraps every step:

- per-phase deadlines (``admit`` / ``compress`` / ``write``) with
  :mod:`repro.core.watchdog` semantics — checked against the request's
  modeled clock on the in-process transport (deterministic, like the
  simulator's watchdog running on simulated time) or wall time on TCP;
- retry-with-backoff-and-cleanup for failed compressions: every failed
  attempt reclaims its partial output before the next attempt or the
  fallback runs, and failures surface as typed error frames from the
  corruption taxonomy;
- a per-codec circuit breaker that trips on consecutive failures or
  deadline overruns and routes requests to raw passthrough while open;
- bounded admission with shed frames when the queue is full, and
  bounded per-connection write buffers so a slow client throttles its
  own connection instead of ballooning server memory;
- graceful drain on shutdown: in-flight requests finish, new ones shed.

Two transports share every line of the request path: ``serve_tcp`` for
a real socket service, and :meth:`ProxyService.connect` for an
in-process duplex pipe the tests and the load generator drive
deterministically.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import units
from repro.compression.base import CodecResult, get_codec
from repro.core.energy_model import EnergyModel
from repro.core.selective import decide_file
from repro.errors import (
    CodecError,
    CorruptStreamError,
    ProtocolError,
    ReproError,
    WatchdogTimeout,
)
from repro.network.wlan import LADDER_MBPS, ladder_link
from repro.proxy import protocol
from repro.proxy.chaos import ChaosConfig
from repro.proxy.resilience import (
    AdmissionGate,
    BreakerConfig,
    CircuitBreaker,
    PartialOutputTracker,
    RetryPolicy,
    ServiceDeadlines,
    retry_with_cleanup,
)
from repro.proxy.server import ProxyServer

#: Bytes compressed to estimate the factor when no cached representation
#: exists (content sniffing; one 16 KiB probe, deterministic).
SNIFF_BYTES = 16 * 1024

#: Estimated factors at or below this read as incompressible.
MIN_WORTHWHILE_FACTOR = 1.05

#: Assumed factor when the sniff probe itself fails (typical gzip text
#: factor from Table 2); routes the object into the compress path so
#: the resilience ladder, not the sniff, handles the sick codec.
FALLBACK_SNIFF_FACTOR = 3.0

#: Per-connection write-buffer bound (the backpressure knob).
WRITE_BUFFER_BYTES = 256 * 1024


def snap_to_ladder(rate_mbps: float) -> float:
    """The nearest 802.11b rung to a client's declared link rate."""
    if not rate_mbps or rate_mbps <= 0:
        return LADDER_MBPS[0]
    return min(LADDER_MBPS, key=lambda r: abs(r - rate_mbps))


class ModeledClock:
    """A monotonic modeled clock (seconds); the deterministic time base."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        """Move modeled time forward by ``dt`` seconds."""
        self.now += dt

    def __call__(self) -> float:
        return self.now


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`ProxyService`."""

    deadlines: ServiceDeadlines = field(default_factory=ServiceDeadlines)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Admission capacity: requests in flight before shedding starts.
    max_inflight: int = 64
    #: Default codec when a request does not name one.
    default_codec: str = "gzip"
    #: Server-side roundtrip verification of every compression attempt
    #: (catches corrupt partial outputs before they reach the wire).
    verify_compressions: bool = True
    sniff_bytes: int = SNIFF_BYTES
    min_factor: float = MIN_WORTHWHILE_FACTOR


@dataclass
class ServiceStats:
    """What the service did, in integers (the telemetry ground truth)."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    shed: int = 0
    disconnects: int = 0
    retries: int = 0
    degraded: int = 0
    compressed: int = 0
    passthrough: int = 0
    #: Sniff probes actually run (memo hits do not count).
    sniffs: int = 0
    timeouts: Dict[str, int] = field(default_factory=dict)
    errors_by_type: Dict[str, int] = field(default_factory=dict)

    def timeout(self, phase: str) -> None:
        """Count one deadline overrun in ``phase``."""
        self.timeouts[phase] = self.timeouts.get(phase, 0) + 1

    def error(self, exc: BaseException) -> None:
        """Count one typed error, bucketed by exception type."""
        self.errors += 1
        name = type(exc).__name__
        self.errors_by_type[name] = self.errors_by_type.get(name, 0) + 1


class _PipeEndpoint:
    """One end of an in-process duplex connection.

    Reads come from ``inbox`` (a bounded byte buffer fed by the peer);
    writes go to the peer's inbox and block while it is over its bound —
    that blocking *is* the backpressure a slow reader exerts.
    """

    def __init__(self, limit: int = WRITE_BUFFER_BYTES) -> None:
        self._buf = bytearray()
        self._limit = limit
        self._eof = False
        self._data_ready = asyncio.Event()
        self._space_ready = asyncio.Event()
        self._space_ready.set()
        self.peer: Optional["_PipeEndpoint"] = None
        #: Client-side chaos knobs the server-side write path consults.
        self.reader_delay_s = 0.0
        self.abort_after_bytes: Optional[int] = None
        self._written_to_peer = 0

    # -- receiving -------------------------------------------------------------

    def _feed(self, data: bytes) -> None:
        self._buf.extend(data)
        self._data_ready.set()
        if len(self._buf) >= self._limit:
            self._space_ready.clear()

    def _feed_eof(self) -> None:
        self._eof = True
        self._data_ready.set()

    async def readexactly(self, n: int) -> bytes:
        """asyncio-compatible exact read (IncompleteReadError at EOF)."""
        while len(self._buf) < n:
            if self._eof:
                partial = bytes(self._buf)
                self._buf.clear()
                raise asyncio.IncompleteReadError(partial, n)
            self._data_ready.clear()
            await self._data_ready.wait()
        out = bytes(self._buf[:n])
        del self._buf[:n]
        if len(self._buf) < self._limit:
            self._space_ready.set()
        return out

    # -- sending ---------------------------------------------------------------

    async def write(self, data: bytes) -> None:
        """Write toward the peer, honouring its buffer bound."""
        peer = self.peer
        if peer is None or peer._eof:
            raise ConnectionResetError("peer is gone")
        if (
            peer.abort_after_bytes is not None
            and self._written_to_peer + len(data) > peer.abort_after_bytes
        ):
            # The peer hung up mid-stream (chaos injector): deliver
            # nothing further and fail the write like a reset socket.
            peer._feed_eof()
            raise ConnectionResetError("peer disconnected mid-stream")
        while not peer._space_ready.is_set():
            if peer._eof:
                raise ConnectionResetError("peer is gone")
            await peer._space_ready.wait()
        self._written_to_peer += len(data)
        peer._feed(data)

    def modeled_write_cost_s(self, nbytes: int, link_mbps: float) -> float:
        """Modeled seconds to drain ``nbytes`` to this connection's peer."""
        rate_bps = max(link_mbps, 0.001) * 1e6 / 8.0
        cost = nbytes / rate_bps
        peer = self.peer
        if peer is not None and peer.reader_delay_s:
            chunks = max(1, nbytes // self._limit + 1)
            cost += peer.reader_delay_s * chunks
        return cost

    def close(self) -> None:
        """Signal EOF to the peer (and unblock any waiting writer)."""
        peer = self.peer
        if peer is not None:
            peer._feed_eof()
            peer._space_ready.set()
        self._feed_eof()
        self._space_ready.set()

    async def send_frame(self, frame: protocol.Frame) -> None:
        await self.write(protocol.encode_frame(frame))

    async def read_frame(self) -> Optional[protocol.Frame]:
        return await protocol.read_frame(self)


def pipe_pair(limit: int = WRITE_BUFFER_BYTES) -> Tuple[_PipeEndpoint, _PipeEndpoint]:
    """A connected (client, server) in-process endpoint pair."""
    a, b = _PipeEndpoint(limit), _PipeEndpoint(limit)
    a.peer, b.peer = b, a
    return a, b


class ProxyService:
    """The live proxy: store + policy + resilience over any transport."""

    def __init__(
        self,
        store: Optional[ProxyServer] = None,
        config: Optional[ServiceConfig] = None,
        chaos: Optional[ChaosConfig] = None,
        metrics=None,
        tracer=None,
    ) -> None:
        self.store = store or ProxyServer(metrics=metrics)
        self.config = config or ServiceConfig()
        self.chaos = chaos or ChaosConfig()
        self.metrics = metrics
        self.tracer = tracer
        self.clock = ModeledClock()
        self.breaker = CircuitBreaker(self.config.breaker, clock=self.clock)
        self.gate = AdmissionGate(self.config.max_inflight)
        self.partials = PartialOutputTracker()
        self.stats = ServiceStats()
        self.draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._models: Dict[float, EnergyModel] = {}
        self._tcp_server: Optional[asyncio.AbstractServer] = None

    # -- policy ----------------------------------------------------------------

    def _model_for(self, link_mbps: float) -> EnergyModel:
        rung = snap_to_ladder(link_mbps)
        if rung not in self._models:
            self._models[rung] = EnergyModel(link=ladder_link(rung))
        return self._models[rung]

    def _estimate_factor(self, name: str, codec_name: str) -> float:
        """Sniffed compression factor for one stored file.

        Uses the cached full representation when present (exact), else
        the factor of one deterministic prefix probe.  The probe runs
        once per (object, codec, probe size): its factor is memoized on
        the :class:`~repro.proxy.server.StoredFile`.  Zero-byte and
        incompressible objects report factor 1.0 — passthrough.
        """
        stored = self.store.get(name)
        if stored.size == 0:
            return 1.0
        cached = self.store.cache.get((name, codec_name))
        if cached is not None:
            return max(cached.factor, 0.0) or 1.0
        key = (codec_name, self.config.sniff_bytes)
        if key not in stored.sniffed:
            self.stats.sniffs += 1
            self._count("proxy_sniffs_total")
            try:
                probe = get_codec(codec_name).compress(
                    stored.data[: self.config.sniff_bytes]
                )
            except CodecError:
                # A codec that cannot even sniff still gets routed through
                # the compress path: retry, breaker, and the degradation
                # ladder own that failure, not the decision step.  Not
                # memoized, so a healed codec gets a real sniff.
                return FALLBACK_SNIFF_FACTOR
            stored.sniffed[key] = (
                probe.raw_size / probe.compressed_size
                if probe.compressed_size > 0 else 1.0
            )
        return stored.sniffed[key]

    def decide(
        self, name: str, codec_name: str, link_mbps: float, loss_rate: float
    ) -> Tuple[bool, str]:
        """The online Equation 6 verdict: (compress?, reason)."""
        stored = self.store.get(name)
        if stored.size == 0:
            return False, "zero-byte object"
        if loss_rate == 0 and stored.size < units.THRESHOLD_FILE_SIZE_BYTES:
            # The paper's size floor (Section 4.3) rules before any
            # sniffing happens; a lossy link re-derives the floor, so
            # that path falls through to the full decision.
            return False, (
                f"file below the {units.THRESHOLD_FILE_SIZE_BYTES}-byte "
                "size threshold"
            )
        factor = self._estimate_factor(name, codec_name)
        if factor <= self.config.min_factor:
            return False, f"incompressible (sniffed factor {factor:.2f})"
        decision = decide_file(
            raw_bytes=stored.size,
            compression_factor=factor,
            model=self._model_for(link_mbps),
            loss_rate=loss_rate,
        )
        return decision.compress, decision.reason

    # -- the request path ------------------------------------------------------

    def _charge_compress(
        self, elapsed_holder: Dict[str, float], modeled_s: float
    ) -> None:
        """Advance the compress phase, aborting *at* its deadline.

        A stalled attempt does not run to completion: the watchdog fires
        when the deadline passes, so the phase is charged exactly up to
        the deadline and the typed overrun carries the projected total.
        """
        deadline = self.config.deadlines.deadline_for("compress")
        projected = elapsed_holder["compress"] + modeled_s
        if deadline is not None and projected > deadline:
            self.clock.advance(max(0.0, deadline - elapsed_holder["compress"]))
            elapsed_holder["compress"] = deadline
            raise WatchdogTimeout("compress", projected, deadline)
        elapsed_holder["compress"] = projected
        self.clock.advance(modeled_s)

    async def _compress_attempt(
        self, request_id: int, attempt: int, name: str, codec_name: str,
        elapsed_holder: Dict[str, float],
    ):
        """One compression attempt: modeled timing, chaos, verification.

        Cached representations face the same corruption draw as fresh
        ones (bad proxy memory does not care where the bytes came from),
        so retry-with-cleanup stays exercised after cache warmup.
        """
        stored = self.store.get(name)
        cached = self.store.cache.get((name, codec_name))
        handle = self.partials.allocate(stored.size)
        try:
            codec = get_codec(codec_name)
            if cached is not None:
                result = cached
                work_s = 0.0  # a cache hit costs no proxy CPU
            else:
                result = codec.compress(stored.data)
                work_s = self.store.cpu.compress_time_s(
                    codec_name, result.raw_size, result.compressed_size
                )
            self.partials.grow(handle, result.compressed_size)
            self._charge_compress(
                elapsed_holder,
                work_s + self.chaos.compress_stall_s(request_id, attempt),
            )
            corrupted = self.chaos.corrupt_payload(
                request_id, attempt, result.payload
            )
            payload = corrupted if corrupted is not None else result.payload
            # Verify-on-write: every fresh compression round-trips before
            # it is cached or served.  A clean cached read was verified
            # when written, so only a damaged one is re-checked.
            if self.config.verify_compressions and (
                cached is None or corrupted is not None
            ):
                decoded = codec.decompress_bytes(payload)
                if decoded != stored.data:
                    raise CorruptStreamError(
                        f"{codec_name}: roundtrip mismatch on {name!r}"
                    )
            if corrupted is None and cached is None:
                self.store.cache.put((name, codec_name), result)
                if (name, codec_name) in self.store.cache:
                    stored.cache[codec_name] = result
            self.partials.commit(handle)
        except BaseException:
            self.partials.reclaim(handle)
            raise
        if corrupted is not None:
            # Verification is off and the payload is damaged: it ships
            # as-is, and the client's checksum-on-decompress is the last
            # line of defence.
            result = CodecResult(
                payload=payload,
                raw_size=result.raw_size,
                compressed_size=len(payload),
            )
        return result, cached is not None

    async def _serve_compressed(
        self, request_id: int, name: str, codec_name: str,
        elapsed: Dict[str, float],
    ):
        """Compression under retry-with-cleanup and the circuit breaker.

        Returns ``(codec_result, from_cache, retries)`` or raises the
        last typed failure once the budget is gone.  Codec failures
        (including corrupt outputs) retry; a ``compress``-phase deadline
        overrun does not — phase elapsed is cumulative, so once the
        deadline is blown every further attempt is doomed and the
        request should degrade immediately.
        """
        retry = self.config.retry
        failures: list = []

        async def attempt(k: int):
            return await self._compress_attempt(
                request_id, k, name, codec_name, elapsed
            )

        def cleanup(k: int, exc: BaseException) -> None:
            # Partial outputs were reclaimed inside the attempt (the
            # tracker pairs allocate/reclaim exactly); here we account
            # the failure for the breaker and telemetry.
            failures.append(exc)
            self.breaker.record_failure(codec_name)
            if isinstance(exc, WatchdogTimeout):
                self.stats.timeout(exc.phase)

        async def backoff_sleep(delay_s: float) -> None:
            elapsed["compress"] += delay_s
            self.clock.advance(delay_s)

        try:
            (result, from_cache), retries = await retry_with_cleanup(
                attempt, retry, cleanup,
                retry_on=(CodecError,),
                sleep=backoff_sleep,
            )
        except (CodecError, WatchdogTimeout) as exc:
            exc.retries = max(0, len(failures) - 1)  # type: ignore[attr-defined]
            self.stats.retries += max(0, len(failures) - 1)
            raise
        self.breaker.record_success(codec_name)
        self.stats.retries += retries
        return result, from_cache, retries

    async def handle_request(
        self, conn, frame: protocol.Frame
    ) -> bool:
        """Serve one request frame; returns False when the connection died."""
        header = frame.header
        request_id = int(header.get("request_id", 0))
        self.stats.requests += 1
        self._count("proxy_requests_total")
        if self.draining or not self.gate.try_acquire():
            reason = "draining" if self.draining else "queue-full"
            self.stats.shed += 1
            self._count("proxy_shed_total")
            try:
                await conn.send_frame(protocol.shed_frame(request_id, reason))
            except (ConnectionError, ProtocolError):
                return False
            return True
        self._idle.clear()
        elapsed = {"admit": 0.0, "compress": 0.0, "write": 0.0}
        try:
            return await self._admitted(conn, header, request_id, elapsed)
        finally:
            self.gate.release()
            if self.gate.in_flight == 0:
                self._idle.set()

    async def _admitted(
        self, conn, header: Dict[str, object], request_id: int,
        elapsed: Dict[str, float],
    ) -> bool:
        codec_name = str(header.get("codec") or self.config.default_codec)
        link_mbps = float(header.get("link_mbps") or LADDER_MBPS[0])
        loss_rate = float(header.get("loss_rate") or 0.0)
        verify = bool(header.get("verify", True))
        name = header.get("name")
        retries = 0
        degraded = False
        reason = ""
        from_cache = False
        try:
            if not isinstance(name, str) or not name:
                raise ProtocolError("request carries no object name")
            stored = self.store.get(name)
            if self.breaker.state(codec_name) == CircuitBreaker.OPEN:
                # An open breaker short-circuits the whole compress
                # branch — not even the sniff probe touches the sick
                # codec until a cooldown admits a half-open probe.
                compress = False
                degraded = True
                reason = f"circuit breaker open for {codec_name!r}"
                self.stats.degraded += 1
                self._count("proxy_degraded_total")
            else:
                compress, reason = self.decide(
                    name, codec_name, link_mbps, loss_rate
                )
            payload = stored.data
            mechanism = "raw"
            result = None
            if compress:
                if self.breaker.allow(codec_name):
                    try:
                        result, from_cache, retries = (
                            await self._serve_compressed(
                                request_id, name, codec_name, elapsed
                            )
                        )
                        mechanism = "compress"
                        payload = result.payload
                    except (CodecError, WatchdogTimeout) as exc:
                        # Retries exhausted (or the phase deadline is
                        # blown): degrade to raw passthrough.
                        degraded = True
                        retries = getattr(exc, "retries", 0)
                        reason = (
                            f"degraded to raw after "
                            f"{type(exc).__name__}: {exc}"
                        )
                        self.stats.degraded += 1
                        self._count("proxy_degraded_total")
                else:
                    degraded = True
                    reason = f"circuit breaker open for {codec_name!r}"
                    self.stats.degraded += 1
                    self._count("proxy_degraded_total")
            ok = protocol.Frame(
                kind=protocol.OK,
                header={
                    "request_id": request_id,
                    "name": name,
                    "mechanism": mechanism,
                    "codec": codec_name if mechanism == "compress" else None,
                    "raw_bytes": stored.size,
                    "transfer_bytes": len(payload),
                    "served_from_cache": bool(from_cache),
                    "retries": retries,
                    "degraded": degraded,
                    "reason": reason,
                    "verify": verify,
                    "modeled_s": round(elapsed["compress"], 9),
                    # Integrity anchor for the client's checksum-on-
                    # decompress (the ecomp convention, on by default).
                    "sha256": stored.sha256,
                },
                payload=payload,
            )
            write_cost = conn.modeled_write_cost_s(
                len(payload) + 256, link_mbps
            )
            elapsed["write"] += write_cost
            self.clock.advance(write_cost)
            self.config.deadlines.check("write", elapsed["write"])
            await conn.send_frame(ok)
            self.stats.ok += 1
            if mechanism == "compress":
                self.stats.compressed += 1
            else:
                self.stats.passthrough += 1
            self._count("proxy_responses_total")
            self._event(
                "proxy.response", request_id=request_id, object=name,
                mechanism=mechanism, degraded=degraded, retries=retries,
            )
            return True
        except ConnectionError:
            # The client vanished mid-response; nothing to send.
            self.stats.disconnects += 1
            self._count("proxy_disconnects_total")
            self._event("proxy.disconnect", request_id=request_id)
            return False
        except WatchdogTimeout as exc:
            # The write phase overran (slow reader): abandon the payload
            # but tell the client why with a (small) typed error frame.
            self.stats.timeout(exc.phase)
            self.stats.error(exc)
            self._count("proxy_errors_total")
            self._event(
                "proxy.error", request_id=request_id,
                error=type(exc).__name__, phase=exc.phase,
            )
            return await self._send_error(conn, exc, request_id)
        except ReproError as exc:
            self.stats.error(exc)
            self._count("proxy_errors_total")
            self._event(
                "proxy.error", request_id=request_id,
                error=type(exc).__name__,
            )
            return await self._send_error(conn, exc, request_id)

    async def _send_error(self, conn, exc, request_id: int) -> bool:
        try:
            await conn.send_frame(protocol.error_frame(exc, request_id))
            return True
        except (ConnectionError, ProtocolError):
            self.stats.disconnects += 1
            return False

    # -- connection handling ---------------------------------------------------

    async def handle_connection(self, conn) -> None:
        """Serve frames off one connection until EOF or a dead peer."""
        try:
            while True:
                try:
                    frame = await conn.read_frame()
                except ProtocolError as exc:
                    self.stats.error(exc)
                    await self._send_error(conn, exc, -1)
                    return
                if frame is None:
                    return
                if frame.kind != protocol.REQUEST:
                    exc = ProtocolError(
                        f"expected a request frame, got {frame.kind!r}"
                    )
                    self.stats.error(exc)
                    if not await self._send_error(conn, exc, -1):
                        return
                    continue
                if not await self.handle_request(conn, frame):
                    return
        finally:
            conn.close()

    def connect(self) -> _PipeEndpoint:
        """Open an in-process connection; returns the client endpoint."""
        client, server = pipe_pair()
        asyncio.ensure_future(self.handle_connection(server))
        return client

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Serve the protocol over TCP; returns the asyncio server."""

        async def on_client(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
            conn = _TcpConnection(reader, writer)
            await self.handle_connection(conn)

        self._tcp_server = await asyncio.start_server(on_client, host, port)
        return self._tcp_server

    async def drain(self, timeout_s: float = 30.0) -> None:
        """Stop accepting work, finish in-flight requests, close up."""
        self.draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
        except asyncio.TimeoutError:
            pass
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, name.replace("_", " ")).inc()

    def _event(self, _event_name: str, **attrs) -> None:
        if self.tracer is not None:
            self.tracer.event(_event_name, self.clock.now, **attrs)


class _TcpConnection:
    """Adapter giving asyncio TCP streams the in-process endpoint API."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def read_frame(self) -> Optional[protocol.Frame]:
        return await protocol.read_frame(self.reader)

    async def send_frame(self, frame: protocol.Frame) -> None:
        self.writer.write(protocol.encode_frame(frame))
        await self.writer.drain()

    def modeled_write_cost_s(self, nbytes: int, link_mbps: float) -> float:
        # Wall-clock transports do not pre-charge modeled write time;
        # the OS socket buffer plus drain() provide the backpressure.
        return 0.0

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass


__all__ = [
    "SNIFF_BYTES",
    "MIN_WORTHWHILE_FACTOR",
    "ModeledClock",
    "ServiceConfig",
    "ServiceStats",
    "ProxyService",
    "pipe_pair",
    "snap_to_ladder",
]
