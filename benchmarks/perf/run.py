"""Run one perf-benchmark workload and print its metrics.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The run is three rounds, each a fresh process
(``python -m benchmarks.perf.workloads``) that sets up, measures for a
third of ``--seconds`` and checks its outputs.  The metric names, units
and bounds are ``BENCHMARK.json``'s:

- ``--trace 0`` reports its ``end_to_end`` metrics: over the three
  rounds, the median set-up time, the throughput of the fastest timed
  unit, the 50th and the workload's tail percentile of the operations'
  best latencies (every unit repeats the same operations: cells, fleet
  evaluations or requests), and the median peak RSS;
- ``--trace 1`` traces rounds 1 and 3 and reports its ``per_layer``
  metrics, averaged over them, plus ``trace.overhead_frac`` from the
  untraced round 2.  A layer the workload never reaches reads 0.  The
  spans land in ``benchmarks/perf/out/spans-NAME.jsonl`` and a self-time
  table per span name is printed.

Each metric prints as ``workload metric value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when a correctness gate fails, with the
result still printed, and 1 without a result when a round cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not __package__:
    # Run as a script: import this package from the checkout root, not
    # from this directory, whose trace.py would shadow the stdlib's.
    sys.path[0] = str(ROOT)

from benchmarks.perf.stats import beyond, percentile  # noqa: E402
from benchmarks.perf.trace import layer_table, load_spans  # noqa: E402

ROUNDS = 3

#: Wall-clock budget for all rounds of one run, under the 180 s limit.
DEADLINE_S = 170.0


class RoundFailed(RuntimeError):
    """A round that exited abnormally or ran out of time."""


def round_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # numpy asks for transparent huge pages on large arrays; whether the
    # host has any free moved fleet-pop's peak RSS by 7% between runs.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def run_round(args, index: int, traced: bool,
              deadline: float) -> Dict[str, Any]:
    """Start one round process and return its result."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, "-m", "benchmarks.perf.workloads", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds / ROUNDS),
        "--round", str(index), "--spawned-at", repr(spawned_at),
    ]
    if traced:
        cmd.append("--traced")
    # Its own session, so a timeout also stops the proxy server the round
    # started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=round_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RoundFailed(f"round {index} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def unit_rates(rounds: List[Dict[str, Any]]) -> List[float]:
    return [ops / seconds for r in rounds for ops, seconds in r["units"]]


def best_rate(rounds: List[Dict[str, Any]]) -> float:
    """The rate of the run's fastest unit."""
    return max(unit_rates(rounds))


def best_latencies(rounds: List[Dict[str, Any]]) -> List[float]:
    """Per operation of a unit, the lowest latency of the same operation
    (equal ``op_keys``) anywhere in any unit of the run."""
    keys = rounds[0]["op_keys"]
    best: Dict[Any, float] = {}
    for ms in (ms for r in rounds for ms in r["unit_ms"]):
        if len(ms) != len(keys):
            raise RoundFailed("units timed different numbers of operations")
        for key, value in zip(keys, ms):
            best[key] = min(value, best.get(key, value))
    return [best[key] for key in keys]


def end_to_end(rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    """Set-up and memory are medians over rounds; throughput comes from
    the fastest unit and latency from each operation's best repetition."""

    def median(per_round) -> float:
        return statistics.median(per_round(r) for r in rounds)

    best = best_latencies(rounds)
    return {
        "setup_s": median(lambda r: r["setup_s"]),
        "ops_per_s": best_rate(rounds),
        "p50_ms": percentile(best, 50),
        "tail_ms": percentile(best, rounds[0]["tail_percentile"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }


def per_layer(traced: List[Dict[str, Any]],
              untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    names = {name for r in traced for name in r["layers"]}
    out = {
        name: statistics.mean(r["layers"].get(name, 0.0) for r in traced)
        for name in names
    }
    out["trace.overhead_frac"] = 1.0 - (
        statistics.median(unit_rates(traced))
        / statistics.median(unit_rates(untraced))
    )
    return out


def declared(bench: Dict[str, Any], values: Dict[str, float],
             key: str) -> Dict[str, Dict[str, Any]]:
    """``values`` in BENCHMARK.json's order and units; unreached layers 0."""
    known = {m["name"]: m["unit"] for m in bench[key]}
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise RoundFailed(f"metrics missing from BENCHMARK.json: {unknown}")
    if key == "end_to_end" and set(values) != set(known):
        raise RoundFailed(f"end-to-end metrics {sorted(values)} != {sorted(known)}")
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in known.items()
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run one perf-benchmark workload."
    )
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spans_path = HERE / "out" / f"spans-{args.workload}.jsonl"
    spans_path.unlink(missing_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    flags = [bool(args.trace) and i != 1 for i in range(ROUNDS)]
    rounds: List[Dict[str, Any]] = []
    try:
        for index, traced in enumerate(flags):
            rounds.append(run_round(args, index, traced, deadline))
        best = best_latencies(rounds)
        if args.trace:
            values = per_layer(
                [r for r, t in zip(rounds, flags) if t],
                [r for r, t in zip(rounds, flags) if not t],
            )
            metrics = declared(bench, values, "per_layer")
        else:
            metrics = declared(bench, end_to_end(rounds), "end_to_end")
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    outcomes = [c for r in rounds for c in r["checks"].items()]
    outcomes.append(("same output digest in every round",
                     len({r["digest"] for r in rounds}) == 1))
    failed = sum(r["failed"] for r in rounds)
    failed += sum(1 for _, ok in outcomes if not ok)
    attempted = sum(r["attempted"] for r in rounds) + len(outcomes)
    checks: Dict[str, bool] = {}
    for name, ok in outcomes:
        checks[name] = checks.get(name, True) and ok
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    units = len(unit_rates(rounds))
    q = rounds[0]["tail_percentile"]
    print(f"{args.workload} {len(best)} operations, each timed in "
          f"{units} units; tail_ms is p{q:g} of their best latencies, "
          f"{beyond(len(best), q)} operations and "
          f"{beyond(len(best), q) * units} timed latencies beyond it")
    print(f"{args.workload} digest {rounds[0]['digest']}")
    for name, ok in checks.items():
        print(f"{args.workload} check {'ok' if ok else 'FAILED'}: {name}")
    if args.trace and spans_path.exists():
        print(layer_table(load_spans(spans_path)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
