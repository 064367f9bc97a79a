# Convenience targets for the repro toolkit.

PYTHON ?= python

.PHONY: install test test-faults runs-smoke api-smoke lint lint-changed docscheck typecheck bench bench-smoke bench-gen-smoke bench-stream bench-stream-smoke reproduce reproduce-full clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Robustness suite: atomic publication, quarantine, locks, retries and
# the fault-injection acceptance scenarios (see docs/robustness.md).
test-faults:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest \
		tests/test_robust.py tests/test_cache_robust.py tests/test_faults.py -q

# Run-store round trip on a tiny market (see docs/run-contract.md):
# record the same report twice, then list, show and diff the two runs.
# The diff must exit 0 with zero metric deltas — byte-identical reruns
# are the store's reproducibility contract.
runs-smoke:
	PYTHONPATH=src:$(PYTHONPATH) REPRO_RUNS_DIR=.runs-smoke/runs \
		REPRO_CACHE_DIR=.runs-smoke/cache $(PYTHON) scripts/runs_smoke.py
	rm -rf .runs-smoke

# Serving-layer acceptance bar (see docs/serving.md): boot the bundled
# HTTP server on an ephemeral port and check auth (401), deterministic
# byte-identical replays (memo, then run store across a restart), 429
# under burst with Retry-After, and 400/404 validation — over real
# sockets, stdlib client only.
api-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) scripts/api_smoke.py

# Project-specific invariant checks (reprolint) plus mypy when installed.
# `pip install -e .[lint]` pulls mypy in; without it only reprolint runs.
lint:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro lint
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "mypy not installed (pip install -e .[lint]); skipping type check"

# Pre-commit pass: per-file rules over files differing from git HEAD,
# parses served from the warm .reprolint-cache AST index.
lint-changed:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro lint --changed

# Documentation link/reference check: dead relative links or stale
# `repro.*` module references in docs/**/*.md and README.md fail.
docscheck:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro docscheck

typecheck:
	$(PYTHON) -m mypy

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick perf gate: generation throughput, with GC disabled and a
# machine-readable report for regression diffs.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_generation.py \
		--benchmark-only --benchmark-disable-gc \
		--benchmark-json=BENCH_smoke.json

# Generation-engine gate: object vs columnar (fastgen) vs sharded at
# smoke and 10x-smoke scale, checked against the committed baseline
# (fails on a >2x slowdown; refresh with check_gen_regression.py --update).
bench-gen-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) benchmarks/bench_fastgen.py \
		--tenx --out BENCH_gen_smoke.json
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) benchmarks/check_gen_regression.py \
		BENCH_gen_smoke.json

# Resident-vs-partitioned query benchmark: wall time + peak RSS (each
# scenario in its own forked child) for full-history and single-era
# queries.  The smoke variant only asserts the era query opens exactly
# the era's month partitions and never exceeds resident RSS — the 50%
# RSS bar is meaningful only at paper scale, where the dataset (not the
# interpreter footprint) dominates; `make bench-stream` enforces it and
# refreshes the committed BENCH_stream.json.
bench-stream-smoke:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) benchmarks/bench_stream.py \
		--check --rss-budget 1.0 --out BENCH_stream_smoke.json

bench-stream:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) benchmarks/bench_stream.py \
		--scale 1.0 --check --out BENCH_stream.json

reproduce:
	$(PYTHON) examples/reproduce_paper.py --scale 0.05 --out reproduction_results

reproduce-full:
	$(PYTHON) examples/reproduce_paper.py --scale 1.0 --out reproduction_fullscale

clean:
	rm -rf reproduction_results benchmarks/results .pytest_cache BENCH_gen_smoke.json BENCH_stream_smoke.json
	find . -name __pycache__ -type d -exec rm -rf {} +
