"""Population-scale fleet gate: a million handhelds, one minute, one byte.

Synthesizes a heterogeneous device population behind contended APs,
evaluates the full per-device energy/lifetime/decision distributions
through the analytic fleet layer, and *asserts* the contract that makes
the subsystem usable: the whole pipeline finishes inside the wall-clock
budget, and two runs at the same seed serialize to byte-identical JSON.
The analytic contention layer itself is re-validated against the
discrete-event ``MultiClientSimulation`` spot grid before anything is
timed, so a fast-but-wrong model cannot pass.

Knobs (environment):

- ``REPRO_FLEET_BENCH_DEVICES``  population size (default 1_000_000);
  only a default-size run rewrites ``results/fleet_population.*``,
  a smaller one (``make fleet-smoke``) keeps every gate and prints.
- ``REPRO_FLEET_BENCH_BUDGET_S`` wall-clock ceiling per run (default 60).
- ``REPRO_FLEET_BENCH_SEED``     synthesis seed (default 7).

Runs standalone (``python benchmarks/bench_fleet_population.py``) and as
a pytest benchmark (``pytest benchmarks/bench_fleet_population.py``).
"""

import os
import time

from repro.fleet import (
    HAVE_NUMPY,
    PopulationSpec,
    assert_des_agreement,
    evaluate_population,
    summary_json,
    synthesize,
)


#: The population the checked-in artifact records.
DEFAULT_DEVICES = 1_000_000


def env_int(name, default):
    return int(os.environ.get(name) or default)


def one_run(spec, seed, policy):
    """Synthesize + evaluate + serialize; return (json_bytes, seconds)."""
    t0 = time.perf_counter()
    population = synthesize(spec, seed=seed)
    summary = evaluate_population(population, policy=policy)
    text = summary_json(summary)
    return text, time.perf_counter() - t0, summary


def run_gate():
    """Validate against the DES, run twice, assert budget + byte-equality."""
    if not HAVE_NUMPY:  # pragma: no cover - numpy is a dependency
        raise SystemExit("SKIP: numpy not available, no fleet engine")
    devices = env_int("REPRO_FLEET_BENCH_DEVICES", DEFAULT_DEVICES)
    budget_s = env_int("REPRO_FLEET_BENCH_BUDGET_S", 60)
    seed = env_int("REPRO_FLEET_BENCH_SEED", 7)

    # Correctness first: the closed forms must still sit inside the
    # pinned tolerance of the discrete-event oracle on every spot config.
    assert_des_agreement()

    spec = PopulationSpec.from_mix(devices, mix="balanced")
    first, first_s, summary = one_run(spec, seed, "fleet-advised")
    second, second_s, _ = one_run(spec, seed, "fleet-advised")

    assert first == second, (
        "same-seed fleet runs are not byte-identical "
        f"({len(first)} vs {len(second)} bytes)"
    )
    worst = max(first_s, second_s)
    assert worst <= budget_s, (
        f"fleet evaluation took {worst:.1f}s for {devices} devices, "
        f"over the {budget_s}s budget"
    )

    stats = summary.metrics()
    return {
        "devices": devices,
        "aps": stats["aps"],
        "cohorts": stats["cohorts"],
        "seed": seed,
        "run_seconds": [round(first_s, 3), round(second_s, 3)],
        "budget_seconds": budget_s,
        "devices_per_second": round(devices / worst, 1),
        "json_bytes": len(first),
        "fleet_energy_j": stats["fleet_energy_j"],
        "compress_fraction": stats["compress_fraction"],
        "flip_fraction": stats["flip_fraction"],
        "lifetime_h_p50": stats["lifetime_h_p50"],
    }


def report(stats):
    from benchmarks.common import write_artifact

    text = (
        "Population-scale fleet gate (synthesize + evaluate + serialize)\n"
        f"  devices            : {stats['devices']} "
        f"across {stats['aps']} APs ({stats['cohorts']} cohorts)\n"
        f"  runs               : {stats['run_seconds']} s "
        f"(budget {stats['budget_seconds']} s)\n"
        f"  throughput         : {stats['devices_per_second']} devices/s\n"
        f"  determinism        : byte-identical at seed {stats['seed']} "
        f"({stats['json_bytes']} JSON bytes)\n"
        f"  compress fraction  : {stats['compress_fraction']:.3f}\n"
        f"  flip fraction      : {stats['flip_fraction']:.3f}\n"
        f"  lifetime p50       : {stats['lifetime_h_p50']:.2f} h\n"
        "  DES agreement      : all spot configs within the 5% gate"
    )
    if stats["devices"] == DEFAULT_DEVICES:
        write_artifact("fleet_population", text, data=stats)
    else:
        print(f"[artifact not written: not the {DEFAULT_DEVICES}-device default]")
    return text


def test_fleet_population_gate(benchmark):
    stats = benchmark.pedantic(run_gate, rounds=1, iterations=1)
    report(stats)


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    print(report(run_gate()))
