"""The proxy server process of the perf benchmark's proxy workloads.

    python -m benchmarks.perf.proxy_server --cache-bytes N [--spans PATH LABEL]

Stores the Table 2 corpus at :data:`CORPUS_SCALE`, serves
:class:`~repro.proxy.service.ProxyService` over TCP on a loopback port
and prints ``{"port": P}`` once listening.  When its stdin closes it
drains, appends its spans to ``PATH`` labelled ``LABEL`` (traced runs
only) and prints its counters and peak RSS as one JSON line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys

from repro.proxy import protocol
from repro.proxy.cache import LruByteCache
from repro.proxy.server import ProxyServer
from repro.proxy.service import ProxyService
from repro.compression.base import Codec, get_codec
from repro.workload.corpus import Corpus

from benchmarks.perf.trace import Tracer

#: Corpus size scale: 37 files, 1.9 MB.
CORPUS_SCALE = 0.02

#: The codec every benchmark request names.
CODEC = "gzip"


def install_shims(tracer: Tracer) -> None:
    """Spans at the proxy's layer boundaries, tagged by request id."""
    tracer.wrap(
        ProxyService, "handle_request", "proxy.request",
        tag=lambda args: int(args[2].header.get("request_id", -1)),
    )
    tracer.wrap(ProxyService, "decide", "proxy.decide")
    tracer.wrap(
        Codec, "compress", "compression.compress",
        attrs=lambda args, result: {"bytes": len(args[1])},
    )
    tracer.wrap(
        type(get_codec(CODEC)), "decompress_bytes", "compression.decompress",
        attrs=lambda args, result: {"bytes": len(result)},
    )
    tracer.wrap(protocol, "encode_frame", "proxy.protocol.encode")
    tracer.wrap(
        LruByteCache, "get", "proxy.cache.get",
        attrs=lambda args, result: {"hit": result is not None},
    )
    tracer.wrap(
        LruByteCache, "put", "proxy.cache.put",
        attrs=lambda args, result: {"evictions": args[0].evictions},
    )


async def serve(cache_bytes: int) -> dict:
    """Serve until stdin closes; returns the final counters."""
    store = ProxyServer(cache_budget_bytes=cache_bytes)
    for generated in Corpus(scale=CORPUS_SCALE).files():
        store.put(generated.name, generated.data)
    service = ProxyService(store=store)
    server = await service.serve_tcp("127.0.0.1", 0)
    print(json.dumps({"port": server.sockets[0].getsockname()[1]}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    await service.drain()
    stats = service.stats
    return {
        "requests": stats.requests,
        "ok": stats.ok,
        "errors": stats.errors,
        "shed": stats.shed,
        "disconnects": stats.disconnects,
        "retries": stats.retries,
        "degraded": stats.degraded,
        "outstanding_partials": service.partials.outstanding(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-bytes", type=int, required=True)
    parser.add_argument(
        "--spans", nargs=2, metavar=("PATH", "LABEL"),
        help="trace, and append the spans to PATH with src LABEL",
    )
    args = parser.parse_args(argv)
    tracer = None
    if args.spans:
        tracer = Tracer()
        install_shims(tracer)
    stats = asyncio.run(serve(args.cache_bytes))
    if tracer is not None:
        tracer.uninstall()
        path, label = args.spans
        tracer.dump(path, src=label)
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
