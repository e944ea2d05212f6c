PY ?= python

.PHONY: test test-fast live lint bench-pytest perf-selftest perf-pairs soak-smoke loss-smoke

test:
	PYTHONPATH=src $(PY) -m pytest -x -q

test-fast:
	PYTHONPATH=src $(PY) -m pytest -x -q -m "not slow"

# Exactly the CI `live` job (which runs this target): sim<->live conformance
# over loopback UDP with a per-test timeout and the repro.live coverage
# floor; the plugin flags are dropped when the plugins are not installed.
live:
	@if $(PY) -c "import pytest_timeout, pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PY) -m pytest -q -m live --timeout=120 \
			--cov=repro.live --cov-fail-under=88; \
	else \
		echo "pytest-timeout/pytest-cov not installed; running without them"; \
		PYTHONPATH=src $(PY) -m pytest -q -m live; \
	fi

lint:
	$(PY) -m compileall -q src tests benchmarks
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; compileall-only lint"; \
	fi

bench-pytest:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only -q

perf-selftest:
	$(PY) -m pytest benchmarks/perf -q

# Interleaved parent/change pairs of benchmarks/perf (~45 min for all six
# workloads at ten pairs); narrow with PAIRS_ARGS="--workload isw-small".
BASELINE ?= HEAD~1
PAIRS ?= 10
perf-pairs:
	$(PY) tools/perf_pairs.py --baseline-ref $(BASELINE) --pairs $(PAIRS) $(PAIRS_ARGS)

soak-smoke:
	timeout 60 env PYTHONPATH=src $(PY) -m repro jobs soak \
		--jobs 32 --seed 0 --policy fair

# A rack tree under 1% packet loss must finish, and quickly: until PR 18
# its switches bounced Help messages between the levels forever (exit 124).
# Emergent async-isw arms no recovery: light loss must still finish, heavy
# loss must stop as a typed error with a replay line (until PR 22 it ran
# forever, holding every partial round it had ever seen).
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
	err=$$($(ASYNC_LOSSY) --loss-rate 0.2 2>&1 >/dev/null); status=$$?; \
		echo "$$err"; test $$status -eq 2 && echo "$$err" | grep -q "replay:"
	$(LIVE_LOSSY) --strategy isw -n 4
	$(LIVE_LOSSY) --strategy isw -n 6
	$(LIVE_LOSSY) --strategy ar -n 4
	$(LIVE_LOSSY) --strategy ar-hd -n 4
	$(LIVE_LOSSY) --strategy ps -n 4
	$(LIVE_LOSSY) --mode async --strategy ps -n 4
