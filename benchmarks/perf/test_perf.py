"""Tests for the perf benchmark.

Run from the repository root: ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

import asyncio
import json
import pathlib
import subprocess
import sys
import time
import types

import pytest

from benchmarks.perf import run, stats, workloads
from benchmarks.perf.trace import Span, Tracer, self_times

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = {m["name"] for m in BENCH["per_layer"]}


def run_cli(workload, trace):
    # Every round runs at least one unit, so a tiny --seconds runs one.
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_benchmark_json_names_the_workloads_and_entry_point():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["command"] == ["python3", "benchmarks/perf/run.py"]
    assert BENCH["paths"] == ["benchmarks/perf"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_the_declared_metrics_with_their_units(trace, key):
    lines = run_cli("fleet-pop", trace)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    for name, metric in result["metrics"].items():
        assert f"fleet-pop {name} {metric['value']!r} {metric['unit']}" in lines
    if trace:
        assert result["metrics"]["fleet.synthesize_s"]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_passes_its_gates_at_a_tiny_size(
    name, tmp_path, monkeypatch
):
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    result = workloads.run_round(
        name, seed=3, seconds=0.05, round_index=0,
        spawned_at=time.monotonic(), traced=True, tiny=True,
    )
    assert result["checks"] and all(result["checks"].values())
    assert result["failed"] == 0
    assert result["units"] and all(ops > 0 for ops, _ in result["units"])
    assert result["digest"]
    unit_ms = result["unit_ms"]
    assert unit_ms and {len(ms) for ms in unit_ms} == {len(result["op_keys"])}
    assert min(min(ms) for ms in unit_ms) > 0
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0
    assert result["layers"] and set(result["layers"]) <= LAYER_NAMES
    assert (tmp_path / f"spans-{name}.jsonl").exists()
    if name == "proxy-cold":
        layers = result["layers"]
        assert layers["proxy.cache.hit_ratio"] == 0
        assert layers["proxy.cache.evictions_per_req"] > 0


def test_beyond_counts_samples_past_the_nearest_rank_percentile():
    assert stats.beyond(1_000, 99) == 10
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(100, 95) == 5
    assert stats.beyond(17, 90) == 1
    assert stats.beyond(1, 50) == 0


def test_each_operation_keeps_its_best_repetition_across_rounds():
    rounds = [
        {"unit_ms": [[5.0, 9.0, 2.0], [4.0, 12.0, 3.0]],
         "units": [(3, 0.5), (3, 0.25)], "op_keys": [0, 1, 2]},
        {"unit_ms": [[6.0, 8.0, 2.5]], "units": [(3, 1.0)],
         "op_keys": [0, 1, 2]},
    ]
    assert run.best_latencies(rounds) == [4.0, 8.0, 2.0]
    # Operations with one key share their best, wherever they sit.
    for r in rounds:
        r["op_keys"] = ["a", "b", "a"]
    assert run.best_latencies(rounds) == [2.0, 8.0, 2.0]
    assert sorted(run.unit_rates(rounds)) == [3.0, 6.0, 12.0]
    assert run.best_rate(rounds) == 12.0
    rounds[1]["unit_ms"] = [[6.0, 8.0]]
    with pytest.raises(run.RoundFailed):
        run.best_latencies(rounds)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([], 50) == 0.0


def span(id_, parent, start, end):
    return Span(id_, parent, f"s{id_}", start, end, None, None)


def test_self_time_subtracts_children_once():
    tree = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 5.0, 6.0),
        span(4, 2, 2.0, 3.0),
    ]
    selfs = self_times(tree)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(selfs.values()) == pytest.approx(tree[0].duration)
    # Concurrent children overlap: their union counts once, and a child
    # running past its parent's end is clipped to the parent.
    overlapping = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 12.0),
    ]
    selfs = self_times(overlapping)
    assert selfs[1] == pytest.approx(1.0)
    assert all(v >= 0 for v in selfs.values())


def test_shims_link_parents_per_task_and_restore_originals():
    box = types.SimpleNamespace()

    async def handle(request_id):
        await asyncio.sleep(0)
        return box.work(request_id)

    def work(request_id):
        return request_id * 2

    box.handle, box.work = handle, work
    tracer = Tracer()
    tracer.wrap(box, "handle", "request", tag=lambda args: args[0])
    tracer.wrap(box, "work", "work")

    async def both():
        return await asyncio.gather(box.handle(1), box.handle(2))

    assert asyncio.run(both()) == [2, 4]
    tracer.uninstall()
    assert box.handle is handle and box.work is work
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "work":
            parent = by_id[s.parent]
            assert parent.name == "request" and parent.tag == s.tag


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def make(cls, seed):
        return cls(seed, True, None, tmp_path, None, 0)

    def proxy_units(cls, seed):
        wl = make(cls, seed)
        try:
            return [wl.unit_names() for _ in range(3)]
        finally:
            wl.close()

    names = workloads.proxy_names()
    block = workloads.zipf_block(names)
    hot = [proxy_units(workloads.ProxyHot, s) for s in (1, 1, 2)]
    assert hot[0] == hot[1] != hot[2]
    # The seed orders the unit, and every unit repeats it.
    assert hot[0] == [hot[0][0]] * 3
    assert sorted(hot[0][0]) == sorted(block)
    counts = [block.count(name) for name in names]
    assert len(block) == workloads.REQUEST_BLOCK
    assert counts == sorted(counts, reverse=True)
    # proxy-cold repeats one seeded rotation of the Table 2 order of the
    # files of at most COLD_MAX_FILE_BYTES.
    small = workloads.proxy_names(workloads.COLD_MAX_FILE_BYTES)
    assert 0 < len(small) < len(names)
    cold = [proxy_units(workloads.ProxyCold, s) for s in (1, 1, 2)]
    assert cold[0] == cold[1] != cold[2]
    start = small.index(cold[0][0][0])
    assert cold[0] == [small[start:] + small[:start]] * 3

    def spec(cls, seed):
        return make(cls, seed).spec.spec_hash()

    for cls in (workloads.Eq6Grid, workloads.SessionSweep):
        assert spec(cls, 4) == spec(cls, 4)
        assert spec(cls, 4) != spec(cls, 5)
    fleet = [make(workloads.FleetPop, s).combos for s in (4, 4, 5)]
    assert fleet[0] == fleet[1] != fleet[2]
