"""Built-in campaign specs: the sweeps the evaluation already runs.

Each preset is the *single source of truth* for one sweep's grid — the
benchmark that regenerates the corresponding artifact builds its spec
here and assembles its tables from the campaign records, so the bench,
the ``repro campaign`` CLI, and the pinned baselines can never drift
apart.

Presets return fresh :class:`CampaignSpec` objects; mutating one never
affects the next caller.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.campaign.spec import CampaignSpec

#: Equation 6 sweep sizes (MB), the bench's seven canonical points.
EQ6_SIZES_MB = (0.01, 0.05, 0.128, 0.5, 1, 4, 8)

#: Loss-rate sweep points (0 = the paper's clean channel).
LOSS_RATES = (0.0, 0.02, 0.05, 0.10, 0.20)

#: Residual bit-error-rate sweep points.
BER_RATES = (0.0, 1e-8, 1e-7, 3e-7, 1e-6)

#: Representative whole-file factors per scheme (Table 2 text-file
#: ballpark: gzip ~3.8, compress ~2.9, bzip2 ~4.3).
SCHEME_FACTORS = {"gzip": 3.8, "compress": 2.9, "bzip2": 4.3}

#: Scheme order shared with ``benchmarks.common.SCHEMES``.
SCHEMES = ("gzip", "compress", "bzip2")

#: Recovery policies ranked by the corruption sweep.
RECOVERY_POLICIES = ("restart", "refetch", "degrade")

#: The rate-trajectory sweep's scripted/seeded schedules, in the
#: serializable fault vocabulary of the simulate cell kind.
TRAJECTORIES: List[Dict[str, Any]] = [
    {"label": "steady 11", "faults": None},
    {"label": "11 -> 2 at 1s", "faults": {"rate_steps": [[1.0, 2.0]]}},
    {
        "label": "fade 11 -> 1 -> 11",
        "faults": {"rate_steps": [[0.8, 1.0], [2.2, 11.0]]},
    },
    {
        "label": "outage + stall",
        "faults": {"outages": [[0.9, 1.5, 0.3]], "stalls": [[3.0, 0.5]]},
    },
    {
        "label": "seeded walk",
        "faults": {
            "seeded": {
                "seed": 7,
                "horizon_s": 12.0,
                "rate_walk_interval_s": 2.0,
                "outage_interval_s": 8.0,
            }
        },
    },
]

#: Default tolerances pinned baselines are gated under: tight relative
#: drift for every metric, with a little extra slack for bisection
#: results whose last ulp depends on the platform's libm.
DEFAULT_TOLERANCES: Dict[str, Dict[str, float]] = {
    "default": {"rel": 1e-9, "abs": 1e-12},
    "factor_threshold": {"rel": 1e-6, "abs": 1e-9},
    "break_even_ber": {"rel": 1e-4, "abs": 1e-12},
    "size_floor_bytes": {"rel": 0.0, "abs": 1.0},
}


def eq6_spec() -> CampaignSpec:
    """The Equation 6 threshold sweep (literal and model-derived)."""
    cells: List[Dict[str, Any]] = []
    for literal in (True, False):
        tag = "literal" if literal else "model"
        cells.append({
            "label": f"floor/{tag}",
            "quantity": "size_floor",
            "literal": literal,
        })
        for size in EQ6_SIZES_MB:
            cells.append({
                "label": f"factor/{size}/{tag}",
                "quantity": "factor",
                "size_mb": size,
                "literal": literal,
            })
    return CampaignSpec(
        name="eq6-thresholds",
        description="Equation 6 selective-compression thresholds",
        mode="list",
        base={"kind": "threshold", "codec": "gzip"},
        cells=cells,
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def eq6_dense_spec() -> CampaignSpec:
    """A dense Eq-6 threshold plane: the parallel-speedup workhorse.

    Every cell is a bisection over full model evaluations (run to its
    float fixed point, ~60-72 passes), so the grid is compute-bound and
    embarrassingly parallel — the ``make campaign-perf`` target replays
    it at ``-j 1`` and ``-j N`` and reports the measured speedup.
    """
    return CampaignSpec(
        name="eq6-dense",
        description="Dense Equation 6 plane: size x codec x loss x BER",
        mode="grid",
        base={"kind": "threshold", "quantity": "factor"},
        axes={
            "size_mb": [0.01, 0.02, 0.05, 0.128, 0.25, 0.5, 1, 2, 4, 8],
            "codec": list(SCHEMES),
            "loss_rate": [0.0, 0.05, 0.15],
            "corrupt_rate": [0.0, 1e-7],
        },
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def eq6_mega_spec() -> CampaignSpec:
    """A ~1M-cell Eq-6 plane: the batch engine's scale demonstration.

    Every cell is batch-eligible (threshold/factor over loss x BER), so
    the vectorized engine evaluates the whole campaign in broadcasted
    numpy sweeps; with ``--shards`` the result stream fans out across
    shard files keyed by cell hash.  At scalar-path speeds this grid
    would take half a day — batched it completes in minutes (see
    EXPERIMENTS.md).
    """
    sizes = [round(0.01 * 1.06 ** i, 6) for i in range(120)]
    losses = [round(0.5 * i / 55, 6) for i in range(56)]
    bers = [0.0] + [
        round(10.0 ** (-9.0 + 7.0 * i / 48.0), 16) for i in range(49)
    ]
    return CampaignSpec(
        name="eq6-mega",
        description="Million-cell Equation 6 plane for the batch engine",
        mode="grid",
        base={"kind": "threshold", "quantity": "factor"},
        axes={
            "size_mb": sizes,
            "codec": list(SCHEMES),
            "loss_rate": losses,
            "corrupt_rate": bers,
        },
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def loss_sweep_spec() -> CampaignSpec:
    """The lossy-link sweep: thresholds + 1 MB energies per loss rate."""
    cells: List[Dict[str, Any]] = []
    for rate in LOSS_RATES:
        cells.append({
            "label": f"floor/{rate}",
            "kind": "threshold",
            "quantity": "size_floor",
            "loss_rate": rate,
        })
        for scheme in SCHEMES:
            cells.append({
                "label": f"factor/{rate}/{scheme}",
                "kind": "threshold",
                "quantity": "factor",
                "size_mb": 1,
                "codec": scheme,
                "loss_rate": rate,
            })
        cells.append({
            "label": f"energy/{rate}/raw",
            "kind": "simulate",
            "scenario": "raw",
            "size_mb": 1,
            "loss_rate": rate,
        })
        for scheme in SCHEMES:
            cells.append({
                "label": f"energy/{rate}/{scheme}",
                "kind": "simulate",
                "scenario": "interleaved",
                "size_mb": 1,
                "codec": scheme,
                "factor": SCHEME_FACTORS[scheme],
                "loss_rate": rate,
            })
    return CampaignSpec(
        name="loss-sweep",
        description="Lossy-link break-even shift and ARQ energy tax",
        mode="list",
        base={"engine": "analytic"},
        cells=cells,
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def corruption_sweep_spec() -> CampaignSpec:
    """The residual-corruption sweep: energies + break-even BERs."""
    cells: List[Dict[str, Any]] = [{
        "label": "energy/raw",
        "kind": "simulate",
        "scenario": "raw",
        "size_mb": 1,
    }]
    for ber in BER_RATES:
        for scheme in SCHEMES:
            cells.append({
                "label": f"energy/{ber}/{scheme}",
                "kind": "simulate",
                "scenario": "interleaved",
                "size_mb": 1,
                "codec": scheme,
                "factor": SCHEME_FACTORS[scheme],
                "corrupt_rate": ber,
            })
    for scheme in SCHEMES:
        for policy in RECOVERY_POLICIES:
            cells.append({
                "label": f"break-even/{scheme}/{policy}",
                "kind": "threshold",
                "quantity": "break_even_ber",
                "size_mb": 1,
                "codec": scheme,
                "factor": SCHEME_FACTORS[scheme],
                "recovery_policy": policy,
            })
    return CampaignSpec(
        name="corruption-sweep",
        description="Recovery energy vs residual BER, break-even BERs",
        mode="list",
        base={"engine": "analytic"},
        cells=cells,
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def trajectory_spec() -> CampaignSpec:
    """Fault trajectories x scheme x engine, plus outage policies."""
    cells: List[Dict[str, Any]] = []
    for traj in TRAJECTORIES:
        for scheme in ("raw", "sequential", "interleaved"):
            for engine in ("analytic", "des"):
                cell: Dict[str, Any] = {
                    "label": f"run/{traj['label']}/{scheme}/{engine}",
                    "kind": "simulate",
                    "engine": engine,
                    "scenario": scheme,
                    "size_mb": 4,
                    "factor": SCHEME_FACTORS["gzip"],
                    "codec": "gzip",
                    "resume": True,
                }
                if traj["faults"] is not None:
                    cell["faults"] = traj["faults"]
                cells.append(cell)
    for fraction in (0.5, 0.9):
        cells.append({
            "label": f"policy/{fraction}",
            "kind": "resume_policy",
            "size_mb": 4,
            "factor": SCHEME_FACTORS["gzip"],
            "outage_at_fraction": fraction,
        })
    return CampaignSpec(
        name="rate-trajectory",
        description="Fault timelines x scheme x engine, outage policies",
        mode="list",
        cells=cells,
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def smoke_spec() -> CampaignSpec:
    """The tiny CI campaign ``make campaign-smoke`` gates against."""
    return CampaignSpec(
        name="campaign-smoke",
        description="Tiny cross-kind campaign for the CI regression gate",
        mode="list",
        base={},
        cells=[
            {
                "label": "floor/literal",
                "kind": "threshold",
                "quantity": "size_floor",
                "literal": True,
            },
            {
                "label": "factor/1MB/model",
                "kind": "threshold",
                "quantity": "factor",
                "size_mb": 1,
            },
            {
                "label": "factor/1MB/lossy",
                "kind": "threshold",
                "quantity": "factor",
                "size_mb": 1,
                "loss_rate": 0.1,
            },
            {
                "label": "sim/raw",
                "kind": "simulate",
                "scenario": "raw",
                "size_mb": 0.5,
            },
            {
                "label": "sim/interleaved",
                "kind": "simulate",
                "scenario": "interleaved",
                "size_mb": 0.5,
                "factor": 3.8,
            },
            {
                "label": "sim/des-loss",
                "kind": "simulate",
                "engine": "des",
                "scenario": "interleaved",
                "size_mb": 0.1,
                "factor": 3.8,
                "loss_rate": 0.05,
            },
            {
                "label": "policy/0.9",
                "kind": "resume_policy",
                "size_mb": 1,
                "factor": 3.8,
                "outage_at_fraction": 0.9,
            },
        ],
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def fleet_pop_spec() -> CampaignSpec:
    """The population sweep: fleet composition x AP density x policy.

    Every cell synthesizes a seeded 20k-device fleet and reduces it
    through the closed-form cohort aggregator (``kind=fleet``), so the
    36-cell grid spans mixes, contention levels and compression
    policies in seconds.
    """
    return CampaignSpec(
        name="fleet-pop",
        description="Population-scale fleet: mix x AP density x policy",
        mode="grid",
        base={"kind": "fleet", "devices": 20000},
        axes={
            "mix": ["balanced", "pda-heavy", "media-heavy"],
            "devices_per_ap": [8, 25, 60],
            "policy": ["raw", "compressed", "advised", "fleet-advised"],
        },
        tolerances=dict(DEFAULT_TOLERANCES),
    )


def experiments_spec(
    ids: Optional[Iterable[str]] = None, paper_only: bool = False
) -> CampaignSpec:
    """Every indexed experiment (or a subset) as one campaign.

    ``repro campaign run --experiments all -j N`` regenerates the full
    evaluation in parallel through this spec.
    """
    from repro.experiments import all_experiments, get_experiment

    if ids:
        exps = [get_experiment(i) for i in ids]
    else:
        exps = all_experiments(include_extensions=not paper_only)
    return CampaignSpec(
        name="experiments",
        description="Full paper-figure regeneration via the bench index",
        mode="list",
        base={"kind": "experiment"},
        cells=[{"label": f"exp/{e.id}", "id": e.id} for e in exps],
        tolerances={
            "default": {"rel": 1e-6, "abs": 1e-9},
        },
    )


#: Name -> builder for the CLI's ``--preset`` flag.
PRESETS = {
    "eq6": eq6_spec,
    "eq6-dense": eq6_dense_spec,
    "eq6-mega": eq6_mega_spec,
    "loss": loss_sweep_spec,
    "corruption": corruption_sweep_spec,
    "trajectory": trajectory_spec,
    "fleet-pop": fleet_pop_spec,
    "smoke": smoke_spec,
}


def get_preset(name: str) -> CampaignSpec:
    """Build a preset spec by name (KeyError lists the known names)."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}"
        ) from None
