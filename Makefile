# Convenience targets for the EMPROF reproduction.

PYTHON ?= python

# Every target runs the package from this checkout, installed or not.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test lint regress check dashboard chaos chaos-service bench bench-all bench-e2e bench-engine trace watch-demo explain-demo reproduce examples selftest clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Whole-program analysis (per-file + cross-module rules) in one pass
# over every file; findings are silenced only by inline comments.
lint:
	$(PYTHON) -m repro.devtools.lint src/

# Judge the run ledger against its own recent history; exits 3 on a
# statistically significant slowdown, 0 when stable or when the ledger
# does not exist yet (fresh checkout).
regress:
	$(PYTHON) -m repro obs regress LEDGER_obs.jsonl --allow-missing

# The default verification flow: static analysis + perf history +
# the engine, simulator and quality-monitor differential harnesses
# (docs/engine.md, docs/simulator.md and docs/robustness.md
# equivalence contracts: the vectorized engine, the block simulator
# and the per-chunk quality monitor are bit-identical to their frozen
# references; the flight and streaming suites pin the pipeline's
# flight-recorder and streaming == batch bit identity) +
# the start-up import boundary (scipy.signal loads on the first DSP
# call, not at import) + the experiments layer's frozen reference (the
# x1 paper report, byte for byte, from one simulation per distinct run;
# docs/reproducing.md) + the on-disk format contract (stored capture
# members, the v2 columnar report JSON, v1 reports and older captures
# still load and damaged ones raise; docs/robustness.md) + the stall
# table (report.stalls is a StallTable on every path; a profiled, saved
# and summarized run, and a streamed run, build no per-stall object
# until the stalls are iterated, and the column aggregates equal their
# per-stall sums bit for bit; docs/engine.md) + the supervised-service
# chaos suite (docs/service.md invariants).
check: lint regress chaos-service
	$(PYTHON) -m pytest tests/test_engine_equivalence.py tests/test_engine_chunks.py tests/test_engine_flight.py tests/test_streaming.py tests/test_quality_equivalence.py tests/test_sim_equivalence.py tests/test_import_boundary.py tests/test_golden_report.py tests/test_io.py tests/test_stall_table.py -q

# Render the run observatory over the ledger history.
dashboard:
	$(PYTHON) -m repro obs dashboard LEDGER_obs.jsonl -o dashboard_obs.html

# Fault-injection suite: impairment injection, quality gating, the
# bounded-error chaos property test, retry and campaign resume.
chaos:
	$(PYTHON) -m pytest tests/test_faults_inject.py tests/test_faults_pipeline.py tests/test_faults_chaos.py tests/test_faults_runner.py -q

# Supervisor/daemon chaos suite: kill -9 and SIGSTOP'd workers,
# poison-spec quarantine, lease timeouts, graceful SIGTERM, the
# 100-run exactly-once acceptance scenario (docs/service.md), the
# kill-a-worker-mid-run telemetry scenario (docs/observability.md), the
# event bus's many-producer delivery check, the single-worker
# in-process pass, and the workers=1 == workers=2 span rollup; the last
# two read each run's RunOutcome.report, which a forked run parses from
# disk on first access, on both the in-process and the forked path.
chaos-service:
	$(PYTHON) -m pytest tests/test_campaign_supervisor.py tests/test_service.py tests/test_obs_live.py tests/test_obs_events.py tests/test_campaign_inprocess.py tests/test_obs_rollup.py -q

# Quick perf-tracking benches; appends one record per bench to the run
# ledger LEDGER_obs.jsonl (`repro obs ledger LEDGER_obs.jsonl --kind bench`).
bench:
	$(PYTHON) -m pytest benchmarks/test_perf_baseline.py benchmarks/test_streaming_throughput.py --benchmark-only -s

# The full figure/table regeneration suite (slow).
bench-all:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The repository benchmark (BENCHMARK.json): every workload once, end
# to end, into results/bench-e2e/ for benchmarks/e2e/compare.py, e.g.
#   make bench-e2e SEED=0 && mv results/bench-e2e results/before
SEED ?= 0
BENCH_E2E_WORKLOADS = device-micro-boot sim-spec signal-sweep campaign-replay
bench-e2e:
	mkdir -p results/bench-e2e
	@for w in $(BENCH_E2E_WORKLOADS); do \
		$(PYTHON) benchmarks/e2e/run.py --workload $$w --seed $(SEED) --seconds 15 --trace 0 \
			--out results/bench-e2e/$$w-seed$(SEED).json || exit 1; \
	done

# Engine layer bench: samples/s of batch, chunked and streaming
# profiling on a 1M-sample capture, recorded into the ledger.
bench-engine:
	$(PYTHON) -m pytest benchmarks/test_engine_throughput.py --benchmark-only -s

# Capture + profile one microbenchmark with observability on; drops
# spans.json (chrome://tracing compatible via --trace-format chrome)
# into results/; `repro obs show --trace results/spans.json` rolls it up.
trace:
	mkdir -p results
	EMPROF_OBS=1 $(PYTHON) -m repro capture --workload micro -o results/trace_capture.npz
	EMPROF_OBS=1 $(PYTHON) -m repro profile results/trace_capture.npz --trace-out results/spans.json

# Self-contained live-telemetry demo: a synthetic streaming producer,
# the line-JSON status server, and the terminal watch client in one
# process, then the run's span rollup.  No
# hardware, no prior state; exits on its own.
watch-demo:
	$(PYTHON) -m repro obs demo

# Flight-recorder demo: build a faulted microbenchmark capture, then
# `repro explain` it — provenance cards on stdout, a self-contained
# HTML report at results/explain_demo.html, and the raw NDJSON
# decision log at results/explain_demo.flight.
explain-demo:
	$(PYTHON) examples/explain_demo.py

reproduce:
	$(PYTHON) -m repro reproduce -o results/

examples:
	@for s in examples/*.py; do echo "== $$s"; $(PYTHON) $$s || exit 1; done

selftest:
	$(PYTHON) -m repro selftest

# Removes derived artefacts only: the run ledger (LEDGER_obs.jsonl)
# is history, not output, and survives a clean.
clean:
	rm -rf results/ .pytest_cache .benchmarks
	rm -f dashboard_obs.html
	find . -name __pycache__ -type d -exec rm -rf {} +
