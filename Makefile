# Convenience targets for the reproduction.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test ci bench fuzz chaos coverage trace-check examples artifacts clean \
	campaign-smoke baseline campaign-perf campaign-mega proxy-smoke crash-chaos fsck-smoke \
	fleet-smoke perf-test

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# What the GitHub workflow runs (the tier-1 gate), plus the 10k-cell
# batch-engine smoke: speedup floor + byte-equality spot check.
ci:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) benchmarks/bench_batch_engine.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Long-budget corruption fuzzing of every registered codec.
fuzz:
	REPRO_FUZZ_EXAMPLES=500 $(PYTHON) -m pytest \
		tests/compression/test_mutation_properties.py \
		tests/compression/test_fuzzing.py -q

# Long-budget fault-timeline chaos: random schedules, bombs, mutations,
# and the cross-engine ledger differential suite.
chaos:
	REPRO_FUZZ_EXAMPLES=200 $(PYTHON) -m pytest \
		tests/integration/test_timeline_properties.py \
		tests/compression/test_bomb_guards.py \
		tests/compression/test_mutation_properties.py \
		tests/compression/test_fuzzing.py \
		tests/observability/test_engine_trace_diff.py -q

# Line-coverage gate (needs pytest-cov; CI installs it).
coverage:
	$(PYTHON) -m pytest tests/ -q --cov=repro --cov-fail-under=80

# End-to-end observability check: trace one session per engine, then
# let `repro trace summarize` audit span/energy conservation offline.
trace-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for engine in analytic des; do \
		echo "== $$engine"; \
		$(PYTHON) -m repro simulate --size-mb 1 --engine $$engine \
			--scenario interleaved --trace "$$tmp/$$engine.jsonl" \
			--metrics "$$tmp/$$engine.prom" >/dev/null; \
		$(PYTHON) -m repro trace summarize "$$tmp/$$engine.jsonl" || exit 1; \
		grep -q "repro_metrics_schema_version 1" "$$tmp/$$engine.prom" || exit 1; \
	done

# CI campaign gate: run the checked-in smoke campaign cold, rerun it
# warm from the shared cache (must recompute zero cells and reproduce
# results.jsonl byte for byte), then diff against the pinned baseline
# (non-zero exit on any out-of-tolerance drift).
campaign-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PYTHON) -m repro campaign run --spec benchmarks/campaigns/smoke.json \
		--out "$$tmp/cold" --cache-dir "$$tmp/cache" -j 2 || exit 1; \
	$(PYTHON) -m repro campaign run --spec benchmarks/campaigns/smoke.json \
		--out "$$tmp/warm" --cache-dir "$$tmp/cache" -j 2 \
		| tee "$$tmp/warm.log" || exit 1; \
	grep -q "executed 0" "$$tmp/warm.log" || \
		{ echo "FAIL: warm rerun recomputed cells"; exit 1; }; \
	cmp "$$tmp/cold/results.jsonl" "$$tmp/warm/results.jsonl" || \
		{ echo "FAIL: cold and warm results differ"; exit 1; }; \
	$(PYTHON) -m repro campaign status --out "$$tmp/warm" || exit 1; \
	$(PYTHON) -m repro campaign fsck --out "$$tmp/warm" \
		--cache-dir "$$tmp/cache" || exit 1; \
	$(PYTHON) -m repro campaign diff --out "$$tmp/warm" \
		--baseline benchmarks/campaigns/smoke_baseline.jsonl

# CI fsck gate over the checked-in artifacts: the pinned baseline must
# always verify (report-only pass piggybacked on a fresh smoke run).
fsck-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PYTHON) -m repro campaign run --spec benchmarks/campaigns/smoke.json \
		--out "$$tmp/run" --no-cache >/dev/null || exit 1; \
	$(PYTHON) -m repro campaign fsck --out "$$tmp/run" \
		--baseline benchmarks/campaigns/smoke_baseline.jsonl

# CI crash-chaos gate: SIGKILL a live campaign at every seeded crash
# point (append tears, both results renames, the manifest journal),
# resume each wreck, and require byte-identical results + clean fsck.
crash-chaos:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PYTHON) -m repro campaign crash-chaos \
		--spec benchmarks/campaigns/smoke.json --out "$$tmp/chaos" \
		-j 2 --min-fired 10

# CI proxy gate: a seeded chaos storm over the in-process transport.
# The load runs twice; the CLI exits non-zero if any partial output
# leaks, and the two JSON reports must be byte-identical (everything
# in them is modeled, so a fixed seed fully determines the bytes).
proxy-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for run in a b; do \
		$(PYTHON) -m repro proxy load -n 200 --clients 4 --seed 3 \
			--chaos --corpus-scale 0.02 --json \
			> "$$tmp/$$run.json" || exit 1; \
	done; \
	cmp "$$tmp/a.json" "$$tmp/b.json" || \
		{ echo "FAIL: chaos load is not byte-stable at a fixed seed"; exit 1; }; \
	$(PYTHON) -c "import json,sys; doc=json.load(open('$$tmp/a.json')); \
	outc=doc['outcomes']; total=sum(outc.values()); \
	assert total == 200, f'unaccounted requests: {total}'; \
	assert outc['ok'] > 0, 'no request completed'; \
	assert doc['service']['outstanding_partials'] == 0, 'leaked partials'; \
	assert sum(doc['chaos_injected'].values()) > 0, 'chaos never fired'; \
	print('OK: 200/200 accounted,', outc['ok'], 'ok,', \
	      doc['degraded'], 'degraded,', doc['service']['breaker_trips'], \
	      'breaker trips, 0 leaked partials')"

# CI fleet gate: the population layer's end-to-end contract at CI
# scale.  The CLI runs twice and the canonical JSON must be
# byte-identical (synthesis is a pure function of seed + spec), then
# the population bench runs at 50k devices — which still exercises the
# DES-agreement gate, the wall-clock budget, and the determinism
# assertion the 1M-device run pins.
fleet-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for run in a b; do \
		$(PYTHON) -m repro fleet --population 20000 --mix balanced \
			--policy fleet-advised --seed 7 --json \
			> "$$tmp/$$run.json" || exit 1; \
	done; \
	cmp "$$tmp/a.json" "$$tmp/b.json" || \
		{ echo "FAIL: fleet summary is not byte-stable at a fixed seed"; exit 1; }; \
	echo "OK: 20k-device summary byte-identical across runs"; \
	REPRO_FLEET_BENCH_DEVICES=50000 \
		$(PYTHON) benchmarks/bench_fleet_population.py

# The perf benchmark's own tests (benchmarks/perf/): every workload at
# a tiny size with its correctness gates, plus the CLI contract.
perf-test:
	$(PYTHON) -m pytest benchmarks/perf -q

# Refresh the pinned smoke baseline after an intentional model change.
baseline:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PYTHON) -m repro campaign run --spec benchmarks/campaigns/smoke.json \
		--out "$$tmp/run" --no-cache || exit 1; \
	$(PYTHON) -m repro campaign baseline --out "$$tmp/run" \
		--baseline benchmarks/campaigns/smoke_baseline.jsonl

# Opt-in perf gates.  First the vectorized batch engine on a 100k-cell
# Eq. 6 grid (asserts the >=50x speedup floor and byte-equality against
# the scalar executor), then the dense Eq. 6 sweep at -j 1 vs -j 4 and
# with/without the batch fast path — all three result files must be
# byte-identical.  -j speedup is only meaningful on a multi-core box.
campaign-perf:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	echo "== batch engine 100k-cell speedup gate"; \
	REPRO_BATCH_BENCH_CELLS=100000 \
		$(PYTHON) benchmarks/bench_batch_engine.py || exit 1; \
	echo "== eq6-dense -j 1"; \
	$(PYTHON) -m repro campaign run --preset eq6-dense \
		--out "$$tmp/j1" --no-cache -j 1 || exit 1; \
	echo "== eq6-dense -j 4"; \
	$(PYTHON) -m repro campaign run --preset eq6-dense \
		--out "$$tmp/j4" --no-cache -j 4 || exit 1; \
	echo "== eq6-dense -j 4 --no-batch"; \
	$(PYTHON) -m repro campaign run --preset eq6-dense \
		--out "$$tmp/scalar" --no-cache -j 4 --no-batch || exit 1; \
	cmp "$$tmp/j1/results.jsonl" "$$tmp/j4/results.jsonl" || \
		{ echo "FAIL: -j 1 and -j 4 results differ"; exit 1; }; \
	cmp "$$tmp/j1/results.jsonl" "$$tmp/scalar/results.jsonl" && \
		echo "OK: batch/scalar and -j 1/-j 4 results are byte-identical"

# The scale demonstration: the ~1M-cell eq6-mega preset through the
# batch engine into a 16-way sharded store, then a full fsck over the
# sharded layout.  Minutes end to end; the scalar path would take
# roughly half a day.
campaign-mega:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(PYTHON) -m repro campaign run --preset eq6-mega \
		--out "$$tmp/mega" --no-cache --shards 16 || exit 1; \
	$(PYTHON) -m repro campaign status --out "$$tmp/mega" || exit 1; \
	$(PYTHON) -m repro campaign fsck --out "$$tmp/mega" && \
		echo "OK: 1M-cell sharded campaign verifies clean"

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex; echo; done

# The final deliverable logs.
artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results/*.txt benchmarks/results/*.json
	find . -name __pycache__ -type d -exec rm -rf {} +
