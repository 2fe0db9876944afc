"""The live proxy service: protocol, policy, degradation ladder, drain."""

import asyncio

import pytest

from repro import units
from repro.compression.base import get_codec
from repro.errors import CodecError
from repro.proxy import protocol
from repro.proxy.chaos import ChaosConfig
from repro.proxy.resilience import BreakerConfig, RetryPolicy
from repro.proxy.server import ProxyServer
from repro.proxy.service import (
    FALLBACK_SNIFF_FACTOR,
    ProxyService,
    ServiceConfig,
    pipe_pair,
    snap_to_ladder,
)

COMPRESSIBLE = b"<html>" + b"the quick brown fox jumps " * 2000 + b"</html>"
import random as _random

INCOMPRESSIBLE = _random.Random(0).randbytes(16384)  # entropy, factor ~1


def make_store() -> ProxyServer:
    store = ProxyServer()
    store.put("big.html", COMPRESSIBLE)
    store.put("tiny.txt", b"hello")
    store.put("rand.bin", INCOMPRESSIBLE)
    store.put("empty.bin", b"")
    return store


def run(coro):
    return asyncio.run(coro)


async def roundtrip(service: ProxyService, name: str, **kw):
    conn = service.connect()
    await conn.send_frame(protocol.request_frame(name, **kw))
    frame = await conn.read_frame()
    conn.close()
    return frame


class TestProtocolFraming:
    def test_encode_decode_roundtrip(self):
        frame = protocol.request_frame("a.txt", request_id=7)
        blob = protocol.encode_frame(frame)

        async def read():
            client, server = pipe_pair()
            await client.write(blob)
            client.close()
            return await protocol.read_frame(server)

        decoded = run(read())
        assert decoded.kind == protocol.REQUEST
        assert decoded.header["name"] == "a.txt"
        assert decoded.header["request_id"] == 7

    def test_truncated_frame_is_a_protocol_error(self):
        from repro.errors import ProtocolError

        blob = protocol.encode_frame(protocol.request_frame("a.txt"))

        async def read():
            client, server = pipe_pair()
            await client.write(blob[: len(blob) // 2])
            client.close()
            return await protocol.read_frame(server)

        with pytest.raises(ProtocolError):
            run(read())

    def test_clean_eof_returns_none(self):
        async def read():
            client, server = pipe_pair()
            client.close()
            return await protocol.read_frame(server)

        assert run(read()) is None

    def test_unknown_kind_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            protocol.Frame(kind="gossip")


class TestServingPaths:
    def test_compressible_object_is_compressed(self):
        service = ProxyService(store=make_store())
        frame = run(roundtrip(service, "big.html"))
        assert frame.kind == protocol.OK
        assert frame.header["mechanism"] == "compress"
        assert frame.header["transfer_bytes"] < frame.header["raw_bytes"]
        decoded = get_codec(str(frame.header["codec"])).decompress_bytes(
            frame.payload
        )
        assert decoded == COMPRESSIBLE

    def test_small_object_passes_through(self):
        # Below the paper's 3900-byte floor, Equation 6 says raw.
        service = ProxyService(store=make_store())
        frame = run(roundtrip(service, "tiny.txt"))
        assert frame.header["mechanism"] == "raw"
        assert frame.payload == b"hello"
        assert str(units.THRESHOLD_FILE_SIZE_BYTES) in frame.header["reason"]

    def test_incompressible_object_passes_through(self):
        service = ProxyService(store=make_store())
        frame = run(roundtrip(service, "rand.bin"))
        assert frame.header["mechanism"] == "raw"
        assert "incompressible" in frame.header["reason"]

    def test_zero_byte_object_passes_through(self):
        service = ProxyService(store=make_store())
        frame = run(roundtrip(service, "empty.bin"))
        assert frame.kind == protocol.OK
        assert frame.header["mechanism"] == "raw"
        assert frame.header["transfer_bytes"] == 0
        assert frame.payload == b""

    def test_missing_object_yields_typed_error_frame(self):
        service = ProxyService(store=make_store())
        frame = run(roundtrip(service, "missing.txt"))
        assert frame.kind == protocol.ERROR
        assert frame.header["error"] == "WorkloadError"

    def test_degraded_link_tilts_toward_compression(self):
        # rand.bin stays raw everywhere; big.html compresses on any link.
        # The decision plumbing matters: a 2 Mb/s client gets its own
        # Equation 6 model rather than the 11 Mb/s default.
        service = ProxyService(store=make_store())
        fast = run(roundtrip(service, "big.html", link_mbps=11.0))
        slow = run(roundtrip(service, "big.html", link_mbps=2.0))
        assert fast.header["mechanism"] == slow.header["mechanism"] == "compress"

    def test_snap_to_ladder(self):
        assert snap_to_ladder(11.0) == 11.0
        assert snap_to_ladder(7.0) == 5.5
        assert snap_to_ladder(0.0) == 11.0
        assert snap_to_ladder(-3.0) == 11.0

    def test_second_request_hits_cache(self):
        service = ProxyService(store=make_store())

        async def two():
            first = await roundtrip(service, "big.html")
            second = await roundtrip(service, "big.html")
            return first, second

        first, second = run(two())
        assert not first.header["served_from_cache"]
        assert second.header["served_from_cache"]
        assert second.header["modeled_s"] < first.header["modeled_s"]


class TestObservability:
    def test_tracer_sees_response_events(self):
        class RecordingTracer:
            def __init__(self):
                self.events = []

            def event(self, name, t_s, **attrs):
                self.events.append((name, t_s, attrs))

        tracer = RecordingTracer()
        service = ProxyService(store=make_store(), tracer=tracer)
        run(roundtrip(service, "big.html"))
        events = [e for e in tracer.events if e[0] == "proxy.response"]
        assert len(events) == 1
        assert events[0][2]["mechanism"] == "compress"

    def test_metrics_counters_accumulate(self):
        from repro.observability.metrics import MetricsRegistry

        reg = MetricsRegistry()
        service = ProxyService(store=make_store(), metrics=reg)
        run(roundtrip(service, "big.html"))
        text = reg.to_prometheus()
        assert "repro_proxy_requests_total 1" in text
        assert "repro_proxy_responses_total 1" in text


class BrokenCodec:
    """A codec whose compress always dies (wired in via the registry)."""

    name = "broken"
    calls = 0

    def compress(self, data):
        type(self).calls += 1
        raise CodecError("compressor wedged")


class TestDegradationLadder:
    def make_service(self, **config_kw):
        from repro.compression import base as cbase

        cbase.register_codec("broken", BrokenCodec)
        BrokenCodec.calls = 0
        return ProxyService(
            store=make_store(),
            config=ServiceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                breaker=BreakerConfig(failure_threshold=2, cooldown_s=5.0),
                **config_kw,
            ),
        )

    def test_failing_codec_degrades_to_passthrough(self):
        service = self.make_service()
        frame = run(roundtrip(service, "big.html", codec="broken"))
        assert frame.kind == protocol.OK
        assert frame.header["mechanism"] == "raw"
        assert frame.header["degraded"]
        assert frame.payload == COMPRESSIBLE
        assert service.stats.degraded == 1
        assert service.partials.outstanding() == 0

    def test_breaker_trips_then_recovers(self):
        service = self.make_service()

        async def storm():
            # Two degraded requests = 2 attempts each = 4 consecutive
            # failures; the breaker (threshold 2) trips during the first.
            for _ in range(2):
                await roundtrip(service, "big.html", codec="broken")
            tripped_calls = BrokenCodec.calls
            # While open: no compression attempt happens at all.
            frame = await roundtrip(service, "big.html", codec="broken")
            assert frame.header["degraded"]
            assert "circuit breaker open" in frame.header["reason"]
            assert BrokenCodec.calls == tripped_calls
            # After the cooldown the half-open probe is admitted again.
            service.clock.advance(10.0)
            await roundtrip(service, "big.html", codec="broken")
            assert BrokenCodec.calls > tripped_calls

        run(storm())
        assert service.breaker.trips >= 1
        assert service.partials.outstanding() == 0

    def test_breaker_is_per_codec(self):
        service = self.make_service()

        async def both():
            for _ in range(2):
                await roundtrip(service, "big.html", codec="broken")
            return await roundtrip(service, "big.html", codec="gzip")

        frame = run(both())
        assert frame.header["mechanism"] == "compress"
        assert not frame.header["degraded"]


class TestBackpressureAndDrain:
    def test_requests_beyond_capacity_are_shed(self):
        service = ProxyService(
            store=make_store(), config=ServiceConfig(max_inflight=1)
        )

        async def overload():
            # Hold the only slot, then knock again.
            service.gate.try_acquire()
            try:
                return await roundtrip(service, "tiny.txt", request_id=9)
            finally:
                service.gate.release()

        frame = run(overload())
        assert frame.kind == protocol.SHED
        assert frame.header["reason"] == "queue-full"
        assert frame.header["request_id"] == 9
        assert service.stats.shed == 1

    def test_draining_service_sheds_new_requests(self):
        service = ProxyService(store=make_store())

        async def drain_then_knock():
            await service.drain()
            return await roundtrip(service, "tiny.txt")

        frame = run(drain_then_knock())
        assert frame.kind == protocol.SHED
        assert frame.header["reason"] == "draining"

    def test_client_disconnect_mid_response_is_reclaimed(self):
        service = ProxyService(store=make_store())

        async def vanish():
            conn = service.connect()
            conn.abort_after_bytes = 128  # hang up mid-payload
            await conn.send_frame(protocol.request_frame("big.html"))
            frame = await conn.read_frame()
            return frame

        frame = run(vanish())
        assert frame is None or frame.kind != protocol.OK
        assert service.stats.disconnects == 1
        assert service.gate.in_flight == 0
        assert service.partials.outstanding() == 0

    def test_drain_waits_for_inflight_zero(self):
        service = ProxyService(store=make_store())

        async def flow():
            frame = await roundtrip(service, "big.html")
            await service.drain()
            return frame

        frame = run(flow())
        assert frame.kind == protocol.OK
        assert service.draining


class TestChecksumConvention:
    def test_ok_frames_carry_sha256(self):
        import hashlib

        service = ProxyService(store=make_store())
        frame = run(roundtrip(service, "big.html"))
        assert frame.header["sha256"] == hashlib.sha256(COMPRESSIBLE).hexdigest()

    def test_server_verify_catches_injected_corruption(self):
        # Corruption on every attempt + retries exhausted -> the request
        # degrades to raw instead of shipping damaged bytes.
        service = ProxyService(
            store=make_store(),
            config=ServiceConfig(retry=RetryPolicy(max_attempts=2,
                                                   base_delay_s=0.0)),
            chaos=ChaosConfig(seed=1, corrupt_rate=1.0),
        )
        frame = run(roundtrip(service, "big.html"))
        assert frame.kind == protocol.OK
        assert frame.header["mechanism"] == "raw"
        assert frame.header["degraded"]
        assert frame.payload == COMPRESSIBLE
        assert service.stats.retries >= 1
        assert service.partials.outstanding() == 0

    def test_verify_opt_out_ships_corrupt_bytes(self):
        # With the server check off, damage reaches the wire — exactly
        # what the client-side checksum (loadgen default) exists for.
        service = ProxyService(
            store=make_store(),
            config=ServiceConfig(verify_compressions=False),
            chaos=ChaosConfig(seed=1, corrupt_rate=1.0),
        )
        frame = run(roundtrip(service, "big.html"))
        assert frame.kind == protocol.OK
        assert frame.header["mechanism"] == "compress"
        codec = get_codec(str(frame.header["codec"]))
        try:
            decoded = codec.decompress_bytes(frame.payload)
        except CodecError:
            decoded = None
        assert decoded != COMPRESSIBLE


def count_compress_calls(monkeypatch, codec_name: str = "zlib") -> list:
    """Swap ``codec_name`` for a subclass that logs each compress input."""
    from repro.compression import base as cbase

    calls = []

    class Counting(type(get_codec(codec_name))):
        def compress(self, data):
            calls.append(len(data))
            return super().compress(data)

    monkeypatch.setitem(cbase._REGISTRY, codec_name, Counting)
    return calls


class FlakyCodec(type(get_codec("gzip-native"))):
    """A codec whose compress raises while ``sick`` is set."""

    name = "flaky"
    sick = True

    def compress(self, data):
        if type(self).sick:
            raise CodecError("compressor wedged")
        return super().compress(data)


class TestSniffOncePerObject:
    def test_rejected_object_sniffs_once(self, monkeypatch):
        from repro.observability.metrics import MetricsRegistry

        calls = count_compress_calls(monkeypatch)
        reg = MetricsRegistry()
        service = ProxyService(store=make_store(), metrics=reg)

        async def five():
            return [await roundtrip(service, "rand.bin") for _ in range(5)]

        frames = run(five())
        assert [f.header["mechanism"] for f in frames] == ["raw"] * 5
        assert len({f.header["reason"] for f in frames}) == 1
        assert "incompressible" in frames[0].header["reason"]
        assert calls == [len(INCOMPRESSIBLE)]
        assert service.stats.sniffs == 1
        assert "repro_proxy_sniffs_total 1" in reg.to_prometheus()

    def test_put_of_new_bytes_sniffs_again(self):
        import hashlib

        service = ProxyService(store=make_store())
        first = run(roundtrip(service, "rand.bin"))
        assert first.header["mechanism"] == "raw"
        assert first.header["sha256"] == hashlib.sha256(INCOMPRESSIBLE).hexdigest()
        service.store.put("rand.bin", COMPRESSIBLE)
        second = run(roundtrip(service, "rand.bin"))
        assert service.stats.sniffs == 2
        assert second.header["mechanism"] == "compress"
        assert second.header["raw_bytes"] == len(COMPRESSIBLE)
        assert second.header["sha256"] == hashlib.sha256(COMPRESSIBLE).hexdigest()

    def test_failed_probe_is_not_memoized(self, monkeypatch):
        from repro.compression import base as cbase

        monkeypatch.setitem(cbase._REGISTRY, "flaky", FlakyCodec)
        monkeypatch.setattr(FlakyCodec, "sick", True)
        service = ProxyService(store=make_store())
        assert service._estimate_factor("rand.bin", "flaky") == FALLBACK_SNIFF_FACTOR
        assert service.stats.sniffs == 1
        FlakyCodec.sick = False
        probe = get_codec("flaky").compress(INCOMPRESSIBLE)
        healed = probe.raw_size / probe.compressed_size
        assert service._estimate_factor("rand.bin", "flaky") == healed
        assert service._estimate_factor("rand.bin", "flaky") == healed
        assert service.stats.sniffs == 2

    def test_probe_size_keys_the_memo(self):
        head = b"abcd" * 1024
        data = head + _random.Random(1).randbytes(12288)
        store = ProxyServer()
        store.put("half.bin", data)
        small = ProxyService(store=store, config=ServiceConfig(sniff_bytes=4096))
        full = ProxyService(store=store)

        def probe(n: int) -> float:
            result = get_codec("gzip").compress(data[:n])
            return result.raw_size / result.compressed_size

        expected = (probe(4096), probe(len(data)))
        assert expected[0] > 10 * expected[1]
        for _ in range(2):
            assert small._estimate_factor("half.bin", "gzip") == expected[0]
            assert full._estimate_factor("half.bin", "gzip") == expected[1]
        assert small.stats.sniffs == full.stats.sniffs == 1

    def test_warmed_verdicts_equal_fresh_ones(self, corpus_2pct):
        """The memo changes no verdict or reason on any corpus file.

        The memo is codec-agnostic; the native codec keeps the grid's
        296 fresh sniffs cheap.
        """
        codec = "gzip-native"
        files = list(corpus_2pct.files())
        grid = [
            (f, rung, loss)
            for f in files for rung in (1.0, 2.0, 5.5, 11.0)
            for loss in (0.0, 0.05)
        ]
        warmed = ProxyService(store=ProxyServer())
        for f in files:
            warmed.store.put(f.name, f.data)
        for f, rung, loss in grid:
            warmed.decide(f.name, codec, rung, loss)
        sniffs = warmed.stats.sniffs
        assert 0 < sniffs <= len(files)
        for f, rung, loss in grid:
            fresh = ProxyService(store=ProxyServer())
            fresh.store.put(f.name, f.data)
            assert warmed.decide(f.name, codec, rung, loss) == fresh.decide(
                f.name, codec, rung, loss
            ), (f.name, rung, loss)
        assert warmed.stats.sniffs == sniffs
