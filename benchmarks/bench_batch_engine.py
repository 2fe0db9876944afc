"""Batch-engine speedup gate: vectorized Eq 1-6 vs the scalar executor.

Times the numpy batch evaluator against the scalar cell executor on a
dense Equation 6 threshold grid and *asserts* the speedup floor — the
fast path only exists because it is dramatically faster, so a regression
that quietly drops it to ~1x should fail loudly, not just look slow.

The scalar side is timed on a systematic sample of the grid (every
cell of a 100k grid through fixed-point bisections would take minutes) and extrapolated per-cell; the batch side runs the *entire*
grid for real.  A byte-equality spot check re-runs a spread of cells
through the scalar executor and requires the batch metrics to match
exactly — the same contract the differential-oracle suite pins.

Knobs (environment):

- ``REPRO_BATCH_BENCH_CELLS``   grid size (default 10_000 — CI smoke;
  ``make campaign-perf`` runs 100_000).
- ``REPRO_BATCH_BENCH_SCALAR``  scalar timing sample size (default 256).
- ``REPRO_BATCH_BENCH_MIN_SPEEDUP``  assertion floor (default 50).

Runs standalone (``python benchmarks/bench_batch_engine.py``) and as a
pytest benchmark (``pytest benchmarks/bench_batch_engine.py``).
"""

import json
import math
import os
import time

from repro.campaign.executor import execute_cell, sanitize_metrics
from repro.campaign.spec import CampaignSpec
from repro.simulator.batch import HAVE_NUMPY, evaluate_cells, partition_cells

#: Loss / BER / codec axes shared by every grid size; only the size
#: axis stretches to hit the requested cell count.
GRID_LOSSES = (0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3)
GRID_BERS = (0.0, 1e-8, 1e-7, 3e-7, 1e-6)
GRID_CODECS = ("gzip", "compress", "bzip2")


def env_int(name, default):
    return int(os.environ.get(name) or default)


def grid_spec(n_cells):
    """A dense Eq-6 factor-threshold plane with >= ``n_cells`` cells."""
    per_size = len(GRID_LOSSES) * len(GRID_BERS) * len(GRID_CODECS)
    n_sizes = max(2, math.ceil(n_cells / per_size))
    return CampaignSpec(
        name="batch-bench",
        description="Synthetic dense Eq-6 plane for the speedup gate",
        mode="grid",
        base={"kind": "threshold", "quantity": "factor"},
        axes={
            "size_mb": [round(0.01 + 0.003 * i, 6) for i in range(n_sizes)],
            "codec": list(GRID_CODECS),
            "loss_rate": list(GRID_LOSSES),
            "corrupt_rate": list(GRID_BERS),
        },
    )


def canon(metrics):
    """Byte-comparable form of a metrics dict (what lands on disk)."""
    return json.dumps(
        sanitize_metrics(metrics), sort_keys=True, separators=(",", ":")
    )


def spread(seq, k):
    """Up to ``k`` elements spread evenly across ``seq``."""
    if len(seq) <= k:
        return list(seq)
    step = len(seq) / k
    return [seq[int(i * step)] for i in range(k)]


def run_gate():
    """Time both paths, verify byte-equality, assert the floor."""
    if not HAVE_NUMPY:  # pragma: no cover - numpy is a dependency
        raise SystemExit("SKIP: numpy not available, no batch engine")
    n_cells = env_int("REPRO_BATCH_BENCH_CELLS", 10_000)
    scalar_n = env_int("REPRO_BATCH_BENCH_SCALAR", 256)
    floor = env_int("REPRO_BATCH_BENCH_MIN_SPEEDUP", 50)

    cells = grid_spec(n_cells).expand()
    batchable, rest = partition_cells(cells)
    assert not rest, f"{len(rest)} grid cells declined by the planner"

    t0 = time.perf_counter()
    results, fallback = evaluate_cells(batchable)
    batch_s = time.perf_counter() - t0
    assert not fallback, f"{len(fallback)} cells fell back at runtime"
    assert len(results) == len(batchable)

    sample = spread(batchable, scalar_n)
    t0 = time.perf_counter()
    scalar_sample = [execute_cell(c.params, c.seed)[0] for c in sample]
    scalar_s = time.perf_counter() - t0

    by_id = {cell.cell_id: metrics for cell, metrics in results}
    for cell, want in zip(sample, scalar_sample):
        got = canon(by_id[cell.cell_id])
        assert got == canon(want), (
            f"batch/scalar byte divergence at {cell.cell_id}: "
            f"{got} != {canon(want)}"
        )

    batch_per = batch_s / len(batchable)
    scalar_per = scalar_s / len(sample)
    speedup = scalar_per / batch_per
    stats = {
        "cells": len(batchable),
        "batch_seconds": round(batch_s, 4),
        "batch_cells_per_second": round(1.0 / batch_per, 1),
        "scalar_sample": len(sample),
        "scalar_cells_per_second": round(1.0 / scalar_per, 1),
        "speedup": round(speedup, 1),
        "floor": floor,
        "oracle_checked": len(sample),
    }
    assert speedup >= floor, (
        f"batch engine speedup {speedup:.1f}x is below the {floor}x "
        f"floor ({stats})"
    )
    return stats


def report(stats):
    from benchmarks.common import write_artifact

    text = (
        "Batch engine speedup gate (vectorized Eq 1-6 vs scalar)\n"
        f"  grid cells        : {stats['cells']}\n"
        f"  batch             : {stats['batch_seconds']} s "
        f"({stats['batch_cells_per_second']} cells/s)\n"
        f"  scalar (sampled)  : {stats['scalar_cells_per_second']} cells/s "
        f"over {stats['scalar_sample']} cells\n"
        f"  speedup           : {stats['speedup']}x "
        f"(floor {stats['floor']}x)\n"
        f"  oracle spot check : {stats['oracle_checked']} cells "
        "byte-identical"
    )
    write_artifact("batch_engine", text, data=stats)
    return text


def test_batch_engine_speedup(benchmark):
    stats = benchmark.pedantic(run_gate, rounds=1, iterations=1)
    report(stats)


if __name__ == "__main__":
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    report(run_gate())
