# Convenience targets for the repro library.

.PHONY: install test test-fast test-faults lint bench bench-e2e bench-ab bench-full bench-smoke report-smoke timeline-smoke serve-smoke tune-smoke fidelity examples clean

install:
	pip install -e '.[test]'

test:
	pytest tests/

# Static checks (ruff, configured in pyproject.toml); a no-op with a notice
# when ruff isn't installed (`pip install -e '.[dev]'` provides it).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif python -c "import ruff" 2>/dev/null; then \
		python -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install -e '.[dev]')"; \
	fi

# Lint + parallel test run via pytest-xdist; falls back to serial when the
# plugin isn't installed.
test-fast: lint report-smoke timeline-smoke serve-smoke tune-smoke test-faults
	@python -c "import xdist" 2>/dev/null \
		&& pytest tests/ -n auto \
		|| { echo "pytest-xdist not installed; running serially"; pytest tests/; }

# The full fault-injection suite, including the slow_faults cases the
# tier-1 run excludes (-m "" overrides the addopts marker filter).
test-faults:
	pytest tests/test_faults.py tests/test_checkpoint.py -m "" -q

# End-to-end observability smoke: record an instrumented trace, then make
# sure the analyzer can read it back (the `repro report` acceptance loop).
report-smoke:
	@tmp=$$(mktemp -d) && \
	python -m repro run fb --batch-size 500 --num-batches 3 \
		--algorithm none --mode abr_usc --trace $$tmp/run.jsonl >/dev/null && \
	python -m repro report $$tmp/run.jsonl >/dev/null && \
	rm -rf $$tmp && echo "report-smoke: OK"

# CLI timeline smoke: a traced `pr` run must yield a Chrome trace whose
# coordinator track carries all five stage.* spans, a live heartbeat that
# `repro top` can render, and a trace whose embedded timeline re-exports.
timeline-smoke:
	@tmp=$$(mktemp -d) && \
	python -m repro run fb --batch-size 500 --num-batches 4 \
		--algorithm pr --trace $$tmp/run.jsonl \
		--timeline $$tmp/timeline.json \
		--heartbeat $$tmp/hb.json >/dev/null && \
	python -m repro top $$tmp/hb.json --once >/dev/null && \
	python -m repro report $$tmp/run.jsonl \
		--timeline $$tmp/timeline2.json >/dev/null && \
	python -c "import json, sys; \
doc = json.load(open(sys.argv[1])); \
names = {e['args']['name'] for e in doc['traceEvents'] \
         if e['ph'] == 'M' and e['name'] == 'thread_name'}; \
assert names == {'coordinator'}, names; \
spans = {e['name'] for e in doc['traceEvents'] if e['ph'] == 'X'}; \
stages = {'stage.' + s for s in \
          ('generate', 'update', 'observe', 'compute', 'record')}; \
assert stages <= spans, stages - spans; \
assert json.load(open(sys.argv[2]))['traceEvents']" \
		$$tmp/timeline.json $$tmp/timeline2.json && \
	rm -rf $$tmp && echo "timeline-smoke: OK"

# Live-ingest service smoke: boot `repro serve` as a subprocess, drive it
# with 2 concurrent loadgen clients plus a query client, SIGINT it, and
# assert a graceful drain (admission closed, partial batch flushed,
# checkpoint written, exit 0).  Then the serving benchmark with the
# regression gate armed against the committed BENCH_serve.json.
# PYTHONPATH=src keeps the outer driver import-clean on checkouts where
# the package isn't pip-installed; the driver re-injects it for the
# server subprocess.
serve-smoke:
	PYTHONPATH=src python -m repro.serve.smoke
	REPRO_BENCH_ENFORCE=1 pytest benchmarks/test_perf_serve.py \
		--benchmark-only

# Auto-tuning smoke: a 4-trial `repro tune` random search is killed right
# after trial 2 hits the journal, then rerun — the resumed search must
# finish with exactly 4 journaled trials (nothing re-evaluated, nothing
# skipped) and a best_config.json that round-trips through RunConfig and
# scores at least the baseline trial.
tune-smoke:
	PYTHONPATH=src python -m repro.tune.smoke

bench:
	pytest benchmarks/ --benchmark-only

# The end-to-end benchmark every performance claim is judged by
# (BENCHMARK.json's gated workloads, each in a fresh process): prints one
# JSON line per workload.  SEED=N picks the input seed.
SEED ?= 1
bench-e2e:
	python3 perfbench/run.py --workload all --seed $(SEED)

# A/B that benchmark for one workload: PAIRS alternating runs of BASE (a git
# revision, exported to a temp dir) and the working tree, seeds SEED onwards;
# prints each side's median/quartiles per metric, the change's wins and a
# verdict.  TRACE=1 runs traced and compares the per-layer metrics.
BASE ?= HEAD
WORKLOAD ?= churn-friendster
PAIRS ?= 10
TRACE ?= 0
bench-ab:
	python3 tools/bench_ab.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED) --trace $(TRACE)

bench-full:
	REPRO_BENCH_FULL=1 pytest benchmarks/ --benchmark-only

# Substrate micro-benchmark with the regression gate armed: fails if the
# measured speedups drop >20% below the committed BENCH_substrate.json.
bench-smoke:
	REPRO_BENCH_ENFORCE=1 pytest benchmarks/test_perf_substrate.py \
		--benchmark-only

fidelity:
	python -m repro fidelity

examples:
	@for f in examples/*.py; do echo "== $$f =="; python $$f || exit 1; done

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
