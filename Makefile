PY ?= python

.PHONY: test test-fast alloc-budget live census lint bench-pytest paper-shape rollout-bench perf-selftest perf-pairs telemetry-ratio soak-smoke loss-smoke telemetry-smoke

test:
	PYTHONPATH=src $(PY) -m pytest -x -q

test-fast:
	PYTHONPATH=src $(PY) -m pytest -x -q -m "not slow"

# The allocation budget in a process of its own (CI runs it after
# tier-1): a traced peak that depends on what earlier test files
# imported cannot hide behind them here.
alloc-budget:
	PYTHONPATH=src $(PY) -m pytest -q tests/test_alloc_budget.py

# Exactly the CI `live` job (which runs this target): the sim<->live
# conformance matrix on both carriers of one fleet — loopback UDP
# processes (the `live` mark) and the virtual-clock wire (tier-1) — with a
# per-test timeout, plus the tier-1 tests of the live roles themselves
# (frame logic, hostile frames, hand-built sessions on the wire); both
# marks together hold the repro.live coverage floor; the plugin flags are
# dropped when the plugins are not installed.
LIVE_TESTS = tests/test_live_conformance.py tests/test_live_roles.py \
	tests/test_member_role.py tests/test_switch_role.py tests/test_alloc_budget.py
live:
	@if $(PY) -c "import pytest_timeout, pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PY) -m pytest -q -m "live or not live" $(LIVE_TESTS) \
			--timeout=120 --cov=repro.live --cov-fail-under=88; \
	else \
		echo "pytest-timeout/pytest-cov not installed; running without them"; \
		PYTHONPATH=src $(PY) -m pytest -q -m "live or not live" $(LIVE_TESTS); \
	fi

# Which functions of src/repro/live/ the tier-1 suite calls (a
# sys.setprofile census; ~1.8x tier-1's wall time).  Fails unless tier-1
# calls every function of the role modules and of the fleet: only socket
# and process code (transport.py, runner.py) may go uncalled.
LIVE_ROLES = driver.py worker.py ps.py async_ps.py collective.py switch.py \
	fleet.py
census:
	PYTHONPATH=src $(PY) tools/live_census.py --require $(LIVE_ROLES)

lint:
	$(PY) -m compileall -q src tests benchmarks
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; compileall-only lint"; \
	fi

bench-pytest:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only -q

# The paper-shape suite: every table, figure, ablation and utilization
# benchmark asserts its qualitative shape (who wins, by roughly how much),
# run once each without timing (CI runs it beside tier-1; ~1 min).
PAPER_SHAPE = benchmarks/test_table*.py benchmarks/test_fig*.py \
	benchmarks/test_ablation*.py benchmarks/test_util*.py
paper-shape:
	PYTHONPATH=src $(PY) -m pytest -q $(PAPER_SHAPE) --benchmark-disable

# The K=1 rollout cost: one compute_gradient() per algorithm through the
# scalar rollout oracle (tests/oracles.py) and the one rollout path on the
# same bare env (plus four scalar envs in one VectorEnv), in one session.
rollout-bench:
	PYTHONPATH=src $(PY) -m pytest benchmarks/test_microbench_primitives.py -k rollout --benchmark-only

perf-selftest:
	$(PY) -m pytest benchmarks/perf -q

# Interleaved parent/change pairs of benchmarks/perf (~45 min for all six
# workloads at ten pairs); narrow with PAIRS_ARGS="--workload isw-small".
BASELINE ?= HEAD~1
PAIRS ?= 10
perf-pairs:
	$(PY) tools/perf_pairs.py --baseline-ref $(BASELINE) --pairs $(PAIRS) $(PAIRS_ARGS)

# What telemetry costs: the isw-small legs with it on and off, interleaved
# in one process (~15 s); prints the median on/off wall ratio.
telemetry-ratio:
	$(PY) tools/telemetry_ratio.py $(RATIO_ARGS)

soak-smoke:
	timeout 60 env PYTHONPATH=src $(PY) -m repro jobs soak \
		--jobs 32 --seed 0 --policy fair

# A rack tree under 1% packet loss must finish, and quickly: until PR 18
# its switches bounced Help messages between the levels forever (exit 124).
# Async-isw that can lose a packet runs sync-isw's windowed schedule and its
# Help recovery: 1% loss and the chaos demo plan (crash, Reset, burst) must
# finish; loss past what recovery carries (60%; sync-isw gives up there
# too) must stop as a typed error with a replay line.
ASYNC_LOSSY = timeout 60 env PYTHONPATH=src $(PY) -m repro train --mode async \
	--strategy isw --workload synth -n 4 --iterations 20 --seed 7
# A live worker retransmits only when its switch relays a Help (DESIGN
# §6.2), so live recovery under loss rests on that relay: flat (-n 4) and
# the ToR tree (-n 6).  The host-level baselines recover on their own
# (H / R resend requests): ring, halving/doubling, sync PS and async PS.
LIVE_LOSSY = timeout 60 env PYTHONPATH=src $(PY) -m repro train --backend live \
	--iterations 20 --loss-rate 0.05

loss-smoke:
	timeout 60 env PYTHONPATH=src $(PY) -m repro train --strategy isw \
		--workload synth -n 12 --iterations 20 --seed 7 --loss-rate 0.01
	$(ASYNC_LOSSY) --loss-rate 0.01
	err=$$($(ASYNC_LOSSY) --loss-rate 0.6 2>&1 >/dev/null); status=$$?; \
		echo "$$err"; test $$status -eq 2 && echo "$$err" | grep -q "replay:"
	timeout 60 env PYTHONPATH=src $(PY) -m repro train --mode async \
		--strategy isw --workload dqn -n 4 --iterations 20 \
		--fault-plan examples/chaos_demo.json
	$(LIVE_LOSSY) --strategy isw -n 4
	$(LIVE_LOSSY) --strategy isw -n 6
	$(LIVE_LOSSY) --strategy ar -n 4
	$(LIVE_LOSSY) --strategy ar-hd -n 4
	$(LIVE_LOSSY) --strategy ps -n 4
	$(LIVE_LOSSY) --mode async --strategy ps -n 4

# Telemetry watches the batched ingest instead of replacing it: a traced
# rack-tree run must still join every train as a view, and its Chrome
# trace must hold the accelerator's segment.aggregate spans.
TRACE_OUT ?= $(or $(TMPDIR),/tmp)/repro-telemetry-smoke.json
telemetry-smoke:
	out=$$(timeout 60 env PYTHONPATH=src $(PY) -m repro train --strategy isw \
		--workload synth -n 12 --iterations 5 --seed 7 \
		--trace-out $(TRACE_OUT)); status=$$?; echo "$$out"; \
		test $$status -eq 0 && echo "$$out" | grep -q "train ingest:     view="
	$(PY) -c "import json, sys; events = json.load(open(sys.argv[1]))['traceEvents']; \
		n = sum(e.get('name') == 'segment.aggregate' for e in events); \
		print(n, 'segment.aggregate spans'); sys.exit(n == 0)" $(TRACE_OUT)
