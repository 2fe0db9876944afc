"""Record a baseline of the perf benchmark into ``results/``.

    python3 benchmarks/perf/baseline.py

For every workload: two untraced runs and one traced run at
:data:`SEED`, then two sets of one untraced run per seed
``1..``:data:`SPREAD_SEEDS`.  Writes every result line to
``results/baseline.json`` with the host description, and to
``results/baseline.md`` three tables:

- agreement: each end-to-end metric in the two same-seed runs, their
  relative difference and whether it is inside the metric's bound;
- spread: per end-to-end metric and set, the median over the seeds and
  the interquartile range over the median (``statistics.quantiles``,
  n=4), and how much worse the second median is than the first;
- layers: every per-layer metric of the traced run.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: The seed of the agreement pair and the traced run.
SEED = 1

#: Seeds 1..SPREAD_SEEDS measure the spread, twice: a bound is only
#: useful if two such sets of unchanged code agree within it.
SPREAD_SEEDS = 10


def run(workload: str, seed: int, trace: int, seconds: float) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited "
            f"{proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    digest = next(
        line.split()[-1] for line in proc.stdout.splitlines()
        if line.startswith(f"{workload} digest ")
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace} done", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace,
            "digest": digest, "result": result}


def host() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "system": platform.platform()}


def value(row: Dict[str, Any], name: str) -> float:
    return row["result"]["metrics"][name]["value"]


def tables(bench: Dict[str, Any], rows: List[Dict[str, Any]],
           seed: int) -> str:
    out = []
    e2e = bench["end_to_end"]
    out += ["## Agreement: two untraced runs at seed %d" % seed, "",
            "| workload | metric | run 1 | run 2 | diff | bound | ok |",
            "|---|---|---|---|---|---|---|"]
    for w in bench["workloads"]:
        pair = [r for r in rows if r["workload"] == w["name"]
                and r["seed"] == seed and r["trace"] == 0][:2]
        for m in e2e:
            a, b = (value(r, m["name"]) for r in pair)
            diff = abs(b - a) / a
            out.append(
                f"| {w['name']} | {m['name']} | {a:.6g} | {b:.6g} | "
                f"{diff:.3f} | {m['bound']} | "
                f"{'yes' if diff <= m['bound'] else 'NO'} |"
            )
        same = pair[0]["digest"] == pair[1]["digest"]
        out.append(f"| {w['name']} | output digest | | | "
                   f"{'identical' if same else 'DIFFERENT'} | | |")
    out += ["", "## Spread over seeds 1-%d, two sets (untraced)" % SPREAD_SEEDS,
            "",
            "| workload | metric | median 1 | IQR/median 1 | median 2 | "
            "IQR/median 2 | 2 worse than 1 by | bound |",
            "|---|---|---|---|---|---|---|---|"]
    for w in bench["workloads"]:
        for m in e2e:
            cells, medians = [], []
            for spread_set in (1, 2):
                values = [value(r, m["name"]) for r in rows
                          if r["workload"] == w["name"]
                          and r.get("spread") == spread_set]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                cells += [f"{medians[-1]:.6g}",
                          f"{(q3 - q1) / medians[-1]:.3f}"]
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            out.append(
                f"| {w['name']} | {m['name']} | " + " | ".join(cells)
                + f" | {worse:.3f} | {m['bound']} |"
            )
    out += ["", "## Per-layer metrics (traced run at seed %d)" % seed, "",
            "| metric | unit | " + " | ".join(
                w["name"] for w in bench["workloads"]) + " |",
            "|---|---|" + "---|" * len(bench["workloads"])]
    traced = {r["workload"]: r for r in rows if r["trace"] == 1}
    for m in bench["per_layer"]:
        cells = [f"{value(traced[w['name']], m['name']):.6g}"
                 for w in bench["workloads"]]
        out.append(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    rows = []
    for w in bench["workloads"]:
        for trace in (0, 0, 1):
            rows.append(run(w["name"], SEED, trace, seconds))
    for spread_set in (1, 2):
        for w in bench["workloads"]:
            for seed in range(1, SPREAD_SEEDS + 1):
                rows.append(dict(run(w["name"], seed, 0, seconds),
                                 spread=spread_set))
    RESULTS.mkdir(exist_ok=True)
    machine = host()
    (RESULTS / "baseline.json").write_text(json.dumps(
        {"host": machine, "run_seconds": seconds, "runs": rows}, indent=1
    ) + "\n")
    about = ", ".join(f"{k} {v}" for k, v in machine.items())
    (RESULTS / "baseline.md").write_text(
        f"# Perf benchmark baseline\n\nHost: {about}.  "
        f"{seconds} measured seconds per run.\n\n"
        + tables(bench, rows, SEED)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
