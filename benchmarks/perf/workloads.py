"""The five perf-benchmark workloads; one process runs one round of one.

A round builds its inputs from the seed and sets up (imports, input
generation, a warm-up), then repeats one fixed unit of work until its
share of the measured seconds is used, and finally runs its correctness
gates, untimed.  Every unit of a run does the same operations in the
same order, so every unit's output digest must match, and each
operation's latency can be compared across units:

- ``eq6-grid``: one campaign over a slice of the eq6-mega plane, every
  cell on the batch engine, into a fresh one-shard store;
- ``session-sweep``: one campaign of cells the batch planner declines
  (DES, lossy/corrupt analytic, fault trajectories, resume policy),
  executed inline by the scalar simulators;
- ``fleet-pop``: synthesize, evaluate and serialize a 1M-device fleet
  for each of 3 mixes x 4 policies;
- ``proxy-hot``: one closed-loop connection fetches 100 Zipf-ranked
  corpus files over TCP from a proxy server process with its default
  64 MiB cache;
- ``proxy-cold``: one connection fetches every corpus file of at most
  32 KiB once, in a fixed cyclic order, from a server whose LRU holds
  about a third of their compressed bytes.

``run.py`` starts each round as::

    python -m benchmarks.perf.workloads WORKLOAD --seed N --seconds S \\
        --round K --spawned-at T [--traced]

The round prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import hashlib
import itertools
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from benchmarks.perf.stats import percentile
from benchmarks.perf.trace import Span, Tracer, load_spans, self_times

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch stores and span files; ignored by git.
OUT = HERE / "out"

#: eq6-grid: the eq6-mega axes with 8 seeded sizes (one per octile of
#: its 120, since the batch kernel's cost depends on size) and every
#: 19th loss rate: 8 x 3 codecs x 3 losses x 50 BERs = 3,600 cells.
EQ6_SIZES = 8
EQ6_LOSS_STRIDE = 19

#: Scalar re-runs checked against the batch records per round.
EQ6_SCALAR_SAMPLE = 256

#: session-sweep grid (660 cells).
SCENARIOS = ("raw", "sequential", "interleaved")
DES_SIZES_MB = (1, 4)
DES_LOSSES = (0.0, 0.05, 0.1, 0.2)
ANALYTIC_SIZES_MB = (0.05, 0.25, 1, 4)
ANALYTIC_LOSSES = (0.0, 0.05, 0.1, 0.2)
ANALYTIC_BERS = (0.0, 1e-8, 1e-7, 1e-6)
RESUME_FRACTIONS = (0.1, 0.5, 0.9)
RESUME_OUTAGES_S = (0.5, 2.0)
#: ARQ for lossy cells.  At 20% loss the 802.11 default of 7 retries
#: drops one packet in ~400k, so some seeds would fail a DES session;
#: 15 retries make a drop (7e-12 per packet) practically impossible.
LOSSY_ARQ = {"max_retries": 15}

#: fleet-pop population per evaluation.
FLEET_DEVICES = 1_000_000
FLEET_MIXES = ("balanced", "pda-heavy", "media-heavy")

#: proxy-cold requests the corpus files of at most this size: 17 files.
#: The proxy sniffs 12 of them and compresses 9.
COLD_MAX_FILE_BYTES = 32 * 1024

#: Proxy cache budgets.  proxy-hot has the service default.  proxy-cold's
#: LRU is larger than the largest of its compressed files (13 KiB) and
#: about a third of all 9 (64 KiB): between two requests for a file, a
#: cyclic scan puts every other compressed file, so each compressible
#: request misses and its put evicts.
HOT_CACHE_BYTES = 64 * 1024 * 1024
COLD_CACHE_BYTES = 24 * 1024

#: Request ids at or above this are timed; warm-up ids sit below it.
TIMED_ID_BASE = 1_000_000

#: Requests per proxy-hot unit.
REQUEST_BLOCK = 100


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256_file(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def unit_sums(
    spans: List[Span], names: Iterable[str],
    value: Callable[[Span], float] = lambda span: span.duration,
) -> float:
    """Median over units of ``value`` summed across spans named ``names``."""
    names = set(names)
    sums = {span.tag: 0.0 for span in spans if span.name == "unit"}
    for span in spans:
        if span.name in names and span.tag in sums:
            sums[span.tag] += value(span)
    return statistics.median(sums.values()) if sums else 0.0


class Workload:
    """One round of one workload: setup, measure, verify, layers."""

    name = ""

    #: The percentile of the operations' best latencies ``tail_ms``
    #: reports, fixed per workload.  Every timed latency of an operation
    #: beyond it is beyond it too, so a run repeating each operation ten
    #: times or more leaves at least ten timed latencies beyond it.
    tail_percentile = 99.0

    def __init__(self, seed: int, tiny: bool, tracer, workdir: pathlib.Path,
                 spans_path: pathlib.Path, round_index: int) -> None:
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer
        self.workdir = workdir
        self.spans_path = spans_path
        self.round_index = round_index
        #: ``(operations, seconds)`` per timed unit.
        self.units: List[Tuple[int, float]] = []
        #: Per timed unit, the latency of each of its operations as its
        #: user sees it, in the same operation order in every unit.
        self.unit_ms: List[List[float]] = []
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.digest = ""
        self.peak_rss_mb = 0.0

    def install_shims(self) -> None:
        """Wrap this workload's layer boundaries (traced rounds)."""

    def setup(self) -> None:
        """Everything before the timed phase, including a warm-up."""

    def unit(self) -> int:
        """Run one unit; returns the operations it completed."""
        raise NotImplementedError

    def unit_latencies_ms(self) -> List[float]:
        """Latency of each operation of the last unit, in operation order."""
        raise NotImplementedError

    def unit_seconds(self, elapsed: float) -> float:
        """The seconds the last unit's throughput is taken over."""
        return elapsed

    def op_keys(self) -> List[Any]:
        """Per operation of a unit, what it does: operations with equal
        keys do the same work, wherever they sit in the unit."""
        return list(range(len(self.unit_ms[0])))

    def after_unit(self) -> str:
        """Untimed per-unit checks and cleanup; returns the output digest."""
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        """Run units back to back for about ``seconds``.

        No unit starts that would likely end more than half a unit past
        the budget, so the measured time stays near ``seconds`` however
        long a unit is.
        """
        measured = elapsed = 0.0
        digests = []
        while not self.units or measured + elapsed / 2 < seconds:
            gc.collect()
            span = (
                self.tracer.span("unit", tag=len(self.units))
                if self.tracer else contextlib.nullcontext()
            )
            with span:
                start = time.perf_counter()
                ops = self.unit()
                elapsed = time.perf_counter() - start
            self.units.append((ops, self.unit_seconds(elapsed)))
            self.unit_ms.append(self.unit_latencies_ms())
            self.attempted += ops
            measured += elapsed
            digests.append(self.after_unit())
        self.peak_rss_mb = peak_rss_mb()
        self.digest = digests[0]
        self.checks["unit outputs byte-identical"] = len(set(digests)) == 1

    def verify(self) -> None:
        """Untimed correctness gates, recorded in ``checks``."""

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics of a traced round."""
        return {}

    def close(self) -> None:
        """Stop whatever the round started."""


# -- campaign workloads --------------------------------------------------------


class CampaignWorkload(Workload):
    """One campaign run per unit, into a fresh one-shard store."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spec = self.build_spec()
        self.store_dir = self.workdir / "store"
        self.summaries: List[Any] = []
        self.fsck_clean: List[bool] = []
        self.result = None
        self.unit_start = 0.0
        #: Cell index -> the moment its record became durable.
        self.record_times: Dict[int, float] = {}

    def build_spec(self):
        """The campaign every unit runs."""
        raise NotImplementedError

    def install_shims(self) -> None:
        from repro.campaign import faultio, runner, spec, store
        from repro.simulator import batch

        wrap = self.tracer.wrap
        wrap(spec.CampaignSpec, "expand", "campaign.expand")
        wrap(runner.CampaignRunner, "run", "campaign.run")
        wrap(store.ResultStore, "open", "campaign.store.open")
        wrap(store.ResultStore, "append", "campaign.store.append")
        wrap(store.ResultStore, "finalize", "campaign.store.finalize")
        wrap(store.ResultStore, "write_manifest", "campaign.store.manifest")
        wrap(
            faultio.AppendLog, "append_line", "campaign.store.io.append",
            attrs=lambda args, result: {"bytes": len(args[1]) + 1},
        )
        wrap(
            store, "write_text_atomic", "campaign.store.io.write",
            attrs=lambda args, result: {"bytes": len(args[1])},
        )
        wrap(batch, "partition_cells", "simulator.batch.plan")
        wrap(
            batch, "evaluate_cells", "simulator.batch.eval",
            attrs=lambda args, result: {
                "cells": len(result[0]), "fallback": len(result[1]),
            },
        )

    def _run(self):
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.store import ResultStore

        store = ResultStore(self.store_dir)
        append = store.append

        def timed_append(record) -> None:
            append(record)
            self.record_times[record["index"]] = time.perf_counter()

        store.append = timed_append
        # Inline (-j 1).  With a pool of two workers on the 2-core machine
        # of results/, a record waited on the supervisor's 50 ms polling
        # sleep and on which worker the heavy DES cells fell to, which
        # timing decided: session-sweep's throughput spread 12-14% over
        # ten seeds (results/choices.md).
        return CampaignRunner(self.spec, store=store).run()

    def setup(self) -> None:
        """One whole unit.  With a warm-up of a few cells, a round's
        slowest unit sat 15% below its median unit; with a whole unit,
        4% (``results/choices.md``)."""
        self._run()
        shutil.rmtree(self.store_dir)
        os.sync()

    def unit(self) -> int:
        self.record_times = {}
        self.unit_start = time.perf_counter()
        self.result = self._run()
        self.summaries.append(self.result.summary)
        return self.result.summary.total

    def unit_latencies_ms(self) -> List[float]:
        """Each cell's wait for its result, in cell order: from the
        campaign's start to its durable record.  Expansion, planning,
        evaluation and every earlier append count."""
        return [
            (self.record_times[i] - self.unit_start) * 1e3
            for i in sorted(self.record_times)
        ]

    def unit_seconds(self, elapsed: float) -> float:
        """Until the last record is durable.  The store's final rewrite
        is left out: on eq6-grid it took 0.11-0.51 s, mostly replacing
        the appended file, against 0.4 s for everything before it
        (``results/choices.md``).  ``campaign.store.finalize_s`` times
        it."""
        return max(self.record_times.values()) - self.unit_start

    def after_unit(self) -> str:
        from repro.campaign.fsck import EXIT_CLEAN, fsck_campaign
        from repro.campaign.store import RESULTS_NAME

        summary = self.result.summary
        self.failed += summary.total - summary.ok
        self.fsck_clean.append(
            fsck_campaign(self.store_dir).exit_code == EXIT_CLEAN
        )
        digest = sha256_file(self.store_dir / RESULTS_NAME)
        shutil.rmtree(self.store_dir)
        os.sync()
        return digest

    def verify(self) -> None:
        self.checks["every cell ok"] = all(
            s.ok == s.total for s in self.summaries
        )
        self.checks["fsck clean on every store"] = all(self.fsck_clean)

    def layers(self) -> Dict[str, float]:
        spans = self.tracer.spans
        selfs = self_times(spans)
        appends = [s.duration for s in spans if s.name == "campaign.store.append"]
        evals = [s for s in spans if s.name == "simulator.batch.eval"]
        eval_s = sum(s.duration for s in evals)
        scalar = [s.cell_durations[s.batch_cells:] for s in self.summaries]
        busy = [sum(durations) for durations in scalar]
        cell_ms = [d * 1e3 for durations in scalar for d in durations]
        return {
            "campaign.expand_s": unit_sums(spans, ["campaign.expand"]),
            "campaign.run_self_s": unit_sums(
                spans, ["campaign.run"], lambda s: selfs[s.id]
            ),
            "campaign.store.append_calls": unit_sums(
                spans, ["campaign.store.append"], lambda s: 1
            ),
            "campaign.store.append_s": unit_sums(
                spans, ["campaign.store.append"]
            ),
            "campaign.store.append_us_p50": percentile(appends, 50) * 1e6,
            "campaign.store.finalize_s": unit_sums(
                spans, ["campaign.store.finalize"]
            ),
            "campaign.store.bytes_written": unit_sums(
                spans, ["campaign.store.io.append", "campaign.store.io.write"],
                lambda s: s.attrs["bytes"],
            ),
            "campaign.cells.busy_s": statistics.median(busy),
            "campaign.cells.busy_frac": statistics.median(
                b / s.wall_s for b, s in zip(busy, self.summaries)
            ),
            "campaign.cells.ms_p50": percentile(cell_ms, 50),
            "campaign.cells.ms_p99": percentile(cell_ms, 99),
            "campaign.retries": sum(s.retries for s in self.summaries),
            "simulator.batch.plan_s": unit_sums(
                spans, ["simulator.batch.plan"]
            ),
            "simulator.batch.eval_s": unit_sums(
                spans, ["simulator.batch.eval"]
            ),
            "simulator.batch.cells_per_s": (
                sum(s.attrs["cells"] for s in evals) / eval_s
                if eval_s else 0.0
            ),
            "simulator.batch.fallback_cells": unit_sums(
                spans, ["simulator.batch.eval"], lambda s: s.attrs["fallback"]
            ),
        }


class Eq6Grid(CampaignWorkload):
    """Batch kernel plus bulk per-line durable appends."""

    name = "eq6-grid"

    def build_spec(self):
        from repro.campaign.presets import eq6_mega_spec
        from repro.campaign.spec import CampaignSpec

        axes = dict(eq6_mega_spec().axes)
        rng = random.Random(self.seed)
        sizes = axes["size_mb"]
        stride = len(sizes) // EQ6_SIZES
        axes["size_mb"] = [
            sizes[start + rng.randrange(stride)]
            for start in range(0, stride * EQ6_SIZES, stride)
        ]
        axes["loss_rate"] = axes["loss_rate"][::EQ6_LOSS_STRIDE]
        if self.tiny:
            axes = {k: v[:2] for k, v in axes.items()}
        return CampaignSpec(
            name="perf-eq6-grid", mode="grid", axes=axes, seed=self.seed,
            base={"kind": "threshold", "quantity": "factor"},
        )

    def verify(self) -> None:
        from repro.campaign.executor import execute_cell, sanitize_metrics
        from repro.campaign.spec import canonical_json

        super().verify()
        self.checks["planner accepts every cell"] = all(
            s.batch_cells == s.total for s in self.summaries
        )
        records = self.result.records
        n = min(EQ6_SCALAR_SAMPLE, len(records))
        mismatched = 0
        for i in range(n):
            record = records[i * len(records) // n]
            metrics, _ = execute_cell(record["params"], record["seed"])
            mismatched += (
                canonical_json(sanitize_metrics(metrics))
                != canonical_json(record["metrics"])
            )
        self.checks["scalar re-run matches batch records"] = mismatched == 0


def session_cells(tiny: bool) -> List[Dict[str, Any]]:
    """The session-sweep cells: every one declined by the batch planner."""
    from repro.campaign.presets import SCHEMES, SCHEME_FACTORS, TRAJECTORIES

    pick = (lambda values: values[:1]) if tiny else (lambda values: values)
    cells: List[Dict[str, Any]] = []
    for scenario, codec in itertools.product(SCENARIOS, pick(SCHEMES)):
        common = {
            "kind": "simulate", "scenario": scenario, "codec": codec,
            "factor": SCHEME_FACTORS[codec],
        }
        for size, loss in itertools.product(
            pick(DES_SIZES_MB), pick(DES_LOSSES)
        ):
            cells.append(dict(
                common, engine="des", size_mb=size, loss_rate=loss,
            ))
        for size, loss, ber in itertools.product(
            pick(ANALYTIC_SIZES_MB), ANALYTIC_LOSSES, ANALYTIC_BERS
        ):
            if loss or ber:
                cells.append(dict(
                    common, engine="analytic", size_mb=size, loss_rate=loss,
                    corrupt_rate=ber,
                ))
    for trajectory, scenario, engine in itertools.product(
        pick(TRAJECTORIES), SCENARIOS, ("analytic", "des")
    ):
        cell = {
            "kind": "simulate", "engine": engine, "scenario": scenario,
            "size_mb": 4, "codec": "gzip", "factor": SCHEME_FACTORS["gzip"],
            "resume": True,
        }
        if trajectory["faults"] is not None:
            cell["faults"] = trajectory["faults"]
        cells.append(cell)
    for codec, fraction, outage in itertools.product(
        pick(SCHEMES), pick(RESUME_FRACTIONS), pick(RESUME_OUTAGES_S)
    ):
        cells.append({
            "kind": "resume_policy", "size_mb": 4, "codec": codec,
            "factor": SCHEME_FACTORS[codec], "outage_at_fraction": fraction,
            "outage_s": outage,
        })
    for cell in cells:
        if cell.get("loss_rate"):
            cell["arq"] = LOSSY_ARQ
    return [dict(cell, label=f"s{i:04d}") for i, cell in enumerate(cells)]


def session_kind(params: Dict[str, Any]) -> str:
    """The per-layer metric a session-sweep cell's latency feeds."""
    if params["kind"] == "resume_policy":
        return "core.resume_policy_ms_p50"
    if params["engine"] == "analytic":
        return "simulator.analytic.session_ms_p50"
    if params.get("resume"):
        return "simulator.des.faulty_ms_p50"
    return "simulator.des.session_ms_p50"


class SessionSweep(CampaignWorkload):
    """The scalar simulators, with fewer but heavier appends."""

    name = "session-sweep"

    def build_spec(self):
        from repro.campaign.spec import CampaignSpec

        return CampaignSpec(
            name="perf-session-sweep", mode="list",
            cells=session_cells(self.tiny),
            seed=self.seed,
        )

    def verify(self) -> None:
        super().verify()
        self.checks["planner declines every cell"] = all(
            s.batch_cells == 0 for s in self.summaries
        )

    def layers(self) -> Dict[str, float]:
        out = super().layers()
        cells = self.spec.expand()
        kinds: Dict[str, List[float]] = {}
        for summary in self.summaries:
            # Inline, the runner times the cells in cell order.
            for cell, seconds in zip(cells, summary.cell_durations):
                kinds.setdefault(session_kind(cell.params), []).append(
                    seconds * 1e3
                )
        out.update({metric: statistics.median(ms) for metric, ms in kinds.items()})
        return out


# -- fleet ---------------------------------------------------------------------


class FleetPop(Workload):
    """The numpy fleet layer: synthesis, cohort reduction, serialization."""

    name = "fleet-pop"
    #: Of 12 evaluations, p90 leaves the slowest beyond it.
    tail_percentile = 90.0

    def __init__(self, *args, **kwargs) -> None:
        from repro.fleet.aggregate import FLEET_POLICIES
        from repro.fleet.population import PopulationSpec

        super().__init__(*args, **kwargs)
        devices = 20_000 if self.tiny else FLEET_DEVICES
        rng = random.Random(self.seed)
        self.combos = [
            (PopulationSpec.from_mix(devices, mix=mix), policy,
             rng.randrange(2 ** 32))
            for mix, policy in itertools.product(FLEET_MIXES, FLEET_POLICIES)
        ]
        self.unit_digest = ""
        self.eval_ms: List[float] = []

    def install_shims(self) -> None:
        from repro.fleet import aggregate, population

        wrap = self.tracer.wrap
        wrap(population, "synthesize", "fleet.synthesize")
        wrap(
            population.Population, "cohorts", "fleet.cohorts",
            attrs=lambda args, result: {"rows": len(result)},
        )
        wrap(aggregate, "evaluate_population", "fleet.evaluate")
        wrap(aggregate, "summary_json", "fleet.serialize")

    def _evaluate(self, combos) -> str:
        """Evaluate every combo; times each into ``eval_ms``."""
        from repro.fleet import aggregate, population

        digest = hashlib.sha256()
        self.eval_ms = []
        for spec, policy, seed in combos:
            start = time.perf_counter()
            fleet = population.synthesize(spec, seed)
            summary = aggregate.evaluate_population(fleet, policy=policy)
            digest.update(aggregate.summary_json(summary).encode())
            self.eval_ms.append((time.perf_counter() - start) * 1e3)
        return digest.hexdigest()

    def setup(self) -> None:
        from repro.errors import ModelError
        from repro.fleet.contention import assert_des_agreement
        from repro.fleet.population import PopulationSpec

        try:
            assert_des_agreement()
            self.checks["contention model agrees with the DES"] = True
        except ModelError:
            self.checks["contention model agrees with the DES"] = False
        warm = PopulationSpec.from_mix(10_000, mix=FLEET_MIXES[0])
        self._evaluate([(warm, policy, 0) for _, policy, _ in self.combos])

    def unit(self) -> int:
        self.unit_digest = self._evaluate(self.combos)
        return sum(spec.devices for spec, _, _ in self.combos)

    def unit_latencies_ms(self) -> List[float]:
        return self.eval_ms

    def after_unit(self) -> str:
        return self.unit_digest

    def layers(self) -> Dict[str, float]:
        spans = self.tracer.spans
        selfs = self_times(spans)
        return {
            "fleet.synthesize_s": unit_sums(spans, ["fleet.synthesize"]),
            "fleet.cohorts_s": unit_sums(spans, ["fleet.cohorts"]),
            "fleet.cohorts": unit_sums(
                spans, ["fleet.cohorts"], lambda s: s.attrs["rows"]
            ),
            "fleet.evaluate_self_s": unit_sums(
                spans, ["fleet.evaluate"], lambda s: selfs[s.id]
            ),
            "fleet.serialize_s": unit_sums(spans, ["fleet.serialize"]),
        }


# -- proxy ---------------------------------------------------------------------


def proxy_names(max_bytes: Optional[int] = None) -> List[str]:
    """Corpus file names in popularity order (the Table 2 order); with
    ``max_bytes``, only the files of at most that size."""
    from repro.workload.corpus import Corpus
    from repro.workload.manifest import TABLE2_FILES
    from benchmarks.perf.proxy_server import CORPUS_SCALE

    corpus = Corpus(scale=CORPUS_SCALE)
    return [
        spec.name for spec in TABLE2_FILES
        if max_bytes is None or corpus.scaled_size(spec) <= max_bytes
    ]


def zipf_block(names: List[str]) -> List[str]:
    """:data:`REQUEST_BLOCK` names with Zipf(s=1) popularity by rank.

    Counts are apportioned exactly (largest remainder), so every block
    holds the same mix.
    """
    weights = [1.0 / rank for rank in range(1, len(names) + 1)]
    quotas = [REQUEST_BLOCK * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(
        range(len(names)), key=lambda i: counts[i] - quotas[i]
    )
    for i in by_remainder[:REQUEST_BLOCK - sum(counts)]:
        counts[i] += 1
    return [name for name, count in zip(names, counts) for _ in range(count)]


class ProxyWorkload(Workload):
    """One closed-loop TCP client against a proxy server process.

    A unit is one list of requests, the same in every unit.  The warm-up
    requests every file of :attr:`cycle` once.  With two connections, a
    request queued behind the other connection's sniff or compression
    whenever the two collided, which the timing decided: proxy-hot's p99
    spread by 19% over ten seeds (``results/choices.md``).  One
    connection keeps each request's latency its own service time.
    """

    cache_bytes = 0
    #: The largest corpus file the workload requests; None for all.
    max_file_bytes: Optional[int] = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rng = random.Random(self.seed)
        names = proxy_names(self.max_file_bytes)
        start = self.rng.randrange(len(names))
        #: The requested files in Table 2 order, rotated to start at a
        #: seeded file.
        self.cycle = names[start:] + names[:start]
        self.request_ids = itertools.count(TIMED_ID_BASE)
        self.server = None
        self.loop = asyncio.new_event_loop()
        self.reader = self.writer = None
        #: sha256 of each file of the client's own copy of the corpus.
        self.corpus_sha256: Dict[str, str] = {}
        #: (request id, name, mechanism, payload, ms) of the current unit.
        self.responses: List[Tuple[int, str, str, bytes, float]] = []
        #: First payload per (name, mechanism); later ones must equal it.
        self.payloads: Dict[Tuple[str, str], bytes] = {}
        self.client_ms: Dict[int, float] = {}
        self.server_stats: Dict[str, Any] = {}

    def unit_names(self) -> List[str]:
        """The names the next unit requests, in order."""
        raise NotImplementedError

    def setup(self) -> None:
        from repro.workload.corpus import Corpus
        from benchmarks.perf.proxy_server import CORPUS_SCALE

        cmd = [
            sys.executable, "-m", "benchmarks.perf.proxy_server",
            "--cache-bytes", str(self.cache_bytes),
        ]
        if self.tracer is not None:
            cmd += [
                "--spans", str(self.spans_path), f"r{self.round_index}/server",
            ]
        self.server = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        # Generated while the server generates its own copy.
        corpus = Corpus(scale=CORPUS_SCALE)
        self.corpus_sha256 = {
            name: hashlib.sha256(corpus.generate(name).data).hexdigest()
            for name in self.cycle
        }
        port = json.loads(self.server.stdout.readline())["port"]
        self.reader, self.writer = self.loop.run_until_complete(
            asyncio.open_connection("127.0.0.1", port)
        )
        self.loop.run_until_complete(self._drive(enumerate(self.cycle)))
        self.after_unit()

    async def _disconnect(self) -> None:
        self.writer.close()
        with contextlib.suppress(ConnectionError):
            await self.writer.wait_closed()

    async def _drive(self, requests: Iterable[Tuple[int, str]]) -> None:
        """Send each request once the previous response is complete."""
        from repro.errors import ProtocolError
        from repro.proxy import protocol
        from benchmarks.perf.proxy_server import CODEC

        for request_id, name in requests:
            start = time.perf_counter()
            try:
                self.writer.write(protocol.encode_frame(protocol.request_frame(
                    name, codec=CODEC, request_id=request_id,
                )))
                await self.writer.drain()
                frame = await protocol.read_frame(self.reader)
            except (ConnectionError, ProtocolError):
                frame = None
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if frame is None or frame.kind != protocol.OK:
                self.failed += 1
                if frame is None:
                    return
                continue
            self.responses.append((
                request_id, name, frame.header["mechanism"],
                frame.payload, elapsed_ms,
            ))

    def unit(self) -> int:
        requests = [(next(self.request_ids), n) for n in self.unit_names()]
        self.loop.run_until_complete(self._drive(requests))
        return len(requests)

    def unit_latencies_ms(self) -> List[float]:
        return [ms for *_, ms in self.responses]

    def op_keys(self) -> List[Any]:
        """The file each request fetches: a request for a file does the
        same work wherever it sits in the unit."""
        return self.unit_names()

    def after_unit(self) -> str:
        served = []
        for request_id, name, mechanism, payload, ms in self.responses:
            first = self.payloads.setdefault((name, mechanism), payload)
            self.failed += first != payload
            self.client_ms[request_id] = ms
            served.append([name, mechanism, hashlib.sha256(payload).hexdigest()])
        self.responses.clear()
        return hashlib.sha256(json.dumps(sorted(served)).encode()).hexdigest()

    def _stop_server(self) -> None:
        self.loop.run_until_complete(self._disconnect())
        out, _ = self.server.communicate(timeout=60)
        self.server_stats = json.loads(out.strip().splitlines()[-1])

    def verify(self) -> None:
        from repro.compression.base import get_codec
        from benchmarks.perf.proxy_server import CODEC

        self._stop_server()
        stats = self.server_stats
        self.peak_rss_mb = stats["maxrss_mb"]
        self.checks["no partial outputs outstanding"] = (
            stats["outstanding_partials"] == 0
        )
        self.checks["server counted no error, shed or disconnect"] = (
            stats["errors"] + stats["shed"] + stats["disconnects"] == 0
        )
        codec = get_codec(CODEC)
        wrong = 0
        for (name, mechanism), payload in self.payloads.items():
            data = (
                codec.decompress_bytes(payload)
                if mechanism == "compress" else payload
            )
            wrong += (
                hashlib.sha256(data).hexdigest() != self.corpus_sha256[name]
            )
        self.checks["payloads decode to the client's corpus copy"] = wrong == 0

    def layers(self) -> Dict[str, float]:
        spans = load_spans(self.spans_path)[f"r{self.round_index}/server"]
        by_id = {span.id: span for span in spans}
        timed = [
            s for s in spans
            if isinstance(s.tag, int) and s.tag >= TIMED_ID_BASE
        ]
        requests = [s for s in timed if s.name == "proxy.request"]
        n = max(1, len(requests))
        server_ms = [s.duration * 1e3 for s in requests]

        def named(name: str) -> List[Span]:
            return [s for s in timed if s.name == name]

        def ms_per_request(found: List[Span]) -> float:
            return sum(s.duration for s in found) * 1e3 / n

        def mb_per_s(found: List[Span]) -> float:
            seconds = sum(s.duration for s in found)
            return (
                sum(s.attrs["bytes"] for s in found) / seconds / 2 ** 20
                if seconds else 0.0
            )

        sniffs, on_path = [], []
        for s in named("compression.compress"):
            parent = by_id.get(s.parent)
            is_sniff = parent is not None and parent.name == "proxy.decide"
            (sniffs if is_sniff else on_path).append(s)
        gets = named("proxy.cache.get")
        # Eviction counts are cumulative; subtract the warm-up's share.
        puts = [s for s in spans if s.name == "proxy.cache.put"]
        timed_ids = {s.id for s in timed}
        warm_evictions = max(
            [s.attrs["evictions"] for s in puts if s.id not in timed_ids]
            or [0]
        )
        evictions = max(
            [s.attrs["evictions"] for s in puts] or [0]
        ) - warm_evictions
        stats = self.server_stats
        return {
            "proxy.server_ms_p50": percentile(server_ms, 50),
            "proxy.server_ms_p99": percentile(server_ms, 99),
            "proxy.transport_ms_p50": percentile(
                [self.client_ms[s.tag] - s.duration * 1e3
                 for s in requests if s.tag in self.client_ms], 50
            ),
            "proxy.decide_ms_per_req": ms_per_request(named("proxy.decide")),
            "proxy.sniff_per_req": len(sniffs) / n,
            "proxy.sniff_ms_per_req": ms_per_request(sniffs),
            "proxy.protocol.encode_ms_per_req": ms_per_request(
                named("proxy.protocol.encode")
            ),
            "proxy.cache.hit_ratio": (
                sum(s.attrs["hit"] for s in gets) / len(gets) if gets else 0.0
            ),
            "proxy.cache.evictions_per_req": evictions / n,
            "proxy.degraded": stats["degraded"],
            "proxy.retries": stats["retries"],
            "proxy.shed": stats["shed"],
            "compression.compress_per_req": len(on_path) / n,
            "compression.compress_mb_per_s": mb_per_s(on_path),
            "compression.verify_mb_per_s": mb_per_s(
                named("compression.decompress")
            ),
        }

    def close(self) -> None:
        if self.server is not None and self.server.poll() is None:
            self.server.kill()
            self.server.wait()
        self.loop.close()


class ProxyHot(ProxyWorkload):
    """The cache-resident request path: sniffs, hits, framing.

    Zipf(s=1) popularity over the Table 2 order.
    """

    name = "proxy-hot"
    cache_bytes = HOT_CACHE_BYTES
    #: Ten of a unit's 100 requests sniff a never-compressed file; p95
    #: lies among them, p90 on their border with the cache hits.
    tail_percentile = 95.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The Zipf block in a seeded order.  The seed only orders it:
        #: names drawn independently would let the seed change how many
        #: requests pay a sniff.
        self.block = zipf_block(proxy_names())
        self.rng.shuffle(self.block)

    def unit_names(self) -> List[str]:
        return self.block


class ProxyCold(ProxyWorkload):
    """The miss path: sniff, on-demand compression, verify-on-write and
    LRU eviction on every compressible request.

    Each unit repeats :attr:`cycle`, so between two requests for a file
    come all the others, more compressed bytes than the LRU holds: every
    compressible request misses, at any seed.  With a seeded request
    order through an LRU holding part of the corpus, the seed would set
    how many requests hit.  Only the smaller files take part, so a unit
    takes about 0.5 s, not the whole corpus's 3 s, and a run repeats
    each request about 20 times.
    """

    name = "proxy-cold"
    cache_bytes = COLD_CACHE_BYTES
    max_file_bytes = COLD_MAX_FILE_BYTES
    #: Of 17 requests, p90 leaves the slowest beyond it.
    tail_percentile = 90.0

    def unit_names(self) -> List[str]:
        return self.cycle


WORKLOADS = {
    cls.name: cls
    for cls in (Eq6Grid, SessionSweep, FleetPop, ProxyHot, ProxyCold)
}


def run_round(workload: str, seed: int, seconds: float, round_index: int,
              spawned_at: float, traced: bool,
              tiny: bool = False) -> Dict[str, Any]:
    """One round, start to finish; returns its JSON-ready result.

    ``tiny`` shrinks the campaign and fleet inputs for the tests.
    """
    workdir = OUT / f"work-{workload}-r{round_index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if traced else None
    spans_path = OUT / f"spans-{workload}.jsonl"
    wl = WORKLOADS[workload](
        seed, tiny, tracer, workdir, spans_path, round_index
    )
    try:
        if tracer is not None:
            wl.install_shims()
        wl.setup()
        setup_s = time.monotonic() - spawned_at
        wl.measure(seconds)
        if tracer is not None:
            tracer.uninstall()
        wl.verify()
        layers = wl.layers() if tracer is not None else {}
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.dump(spans_path, src=f"r{round_index}/worker")
    return {
        "setup_s": setup_s,
        "units": wl.units,
        "unit_ms": wl.unit_ms,
        "op_keys": wl.op_keys(),
        "tail_percentile": wl.tail_percentile,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "checks": wl.checks,
        "digest": wl.digest,
        "peak_rss_mb": wl.peak_rss_mb,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark round.")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the round was started")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run_round(
        args.workload, args.seed, args.seconds, args.round, args.spawned_at,
        args.traced,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
