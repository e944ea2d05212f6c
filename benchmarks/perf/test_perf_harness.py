"""Self-tests of the reference benchmark.

Run with ``python -m pytest benchmarks/perf -q`` (tier-1 collects only
``tests/``).  They check the harness, not the program's speed.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import harness
import layers
import tracing
from workloads import LEG_NAMES, WORKLOADS, Leg, Workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def defined_metrics():
    return [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]


class TestBenchmarkJson:
    def test_workloads_match_the_harness(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
        assert SPEC["paths"] == ["benchmarks/perf"]

    def test_metric_names_are_well_formed_and_unique(self):
        names = defined_metrics()
        assert all(NAME.match(name) and len(name) <= 64 for name in names)
        assert len(set(names)) == len(names)
        assert "setup_s" in names

    def test_every_layer_and_leg_has_its_metrics(self):
        names = set(defined_metrics())
        for layer in layers.LAYERS:
            assert f"{layer}.self_ms_per_iter" in names
            assert f"{layer}.calls_per_iter" in names
        for leg in LEG_NAMES:
            assert f"leg.{leg}.iter_wall_ms" in names


def test_smoke_run_prints_every_defined_metric(tmp_path):
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "isw-small", "--out", str(out)],
        stdout=subprocess.PIPE, timeout=120, check=True,
    )
    printed = {
        line.split()[1] for line in done.stdout.decode().splitlines()
        if line.startswith("isw-small ")
    }
    assert set(defined_metrics()) <= printed
    assert "failed_frac" in printed
    report = json.loads(out.read_text())
    entry = report["workloads"]["isw-small"]
    assert entry["failed_frac"] == 0
    assert set(report["host"]) >= {"nproc", "python", "numpy"}
    assert entry["per_layer"]["core.switch.calls_per_iter"] > 0
    assert entry["per_layer"]["trace.unresolved_names"] == 0
    spans = json.loads((tmp_path / "report.trace.isw-small.json").read_text())
    assert len(spans["spans"]["start"]) == len(spans["spans"]["parent"]) > 1000


def test_contract_line_is_the_last_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "isw-robust",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, timeout=120, check=True,
    )
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def fake_outcome(replicas=2, skew=0.0):
    def worker(rank):
        weights = np.arange(4.0) + skew * rank
        return SimpleNamespace(
            algorithm=SimpleNamespace(get_weights=lambda: weights)
        )

    return SimpleNamespace(workers=[worker(r) for r in range(replicas)], elapsed=1.5)


FAKE = Workload("fake", "two good legs and a bad one", (
    Leg("good", 10, "sync"), Leg("bad", 30, "sync"), Leg("also-good", 20, "async"),
))


def run_fake(leg_runner, passes=2):
    runner = harness.Runner(FAKE, seed=1, leg_runner=leg_runner)
    samples = [runner.run_pass() for _ in range(passes)]
    return runner, samples


class TestFailureAccounting:
    def test_raising_leg_fails_its_iterations_and_the_run_goes_on(self):
        def leg_runner(program, leg, seed, telemetry=False):
            if leg.name == "bad":
                raise RuntimeError("switch job table full")
            return fake_outcome()

        runner, samples = run_fake(leg_runner)
        assert (runner.attempted, runner.failed) == (120, 60)
        assert runner.failed / runner.attempted == 0.5
        assert [f["leg"] for f in runner.failures] == ["bad", "bad"]
        assert "switch job table full" in runner.failures[0]["error"]
        assert runner.failures[0]["seed"] == 1
        assert all(set(s.wall) == {"good", "bad", "also-good"} for s in samples)
        report = harness.end_to_end(FAKE, samples)
        assert report["passes"] == 2 and report["iter_wall_ms"] >= 0

    def test_disagreeing_replicas_fail_a_sync_leg_only(self):
        runner, _ = run_fake(
            lambda program, leg, seed, telemetry=False: fake_outcome(skew=1.0),
            passes=1,
        )
        # "also-good" is async: its replicas may differ.
        assert (runner.attempted, runner.failed) == (60, 40)
        assert "disagrees" in runner.failures[0]["error"]

    def test_output_that_changes_between_passes_fails(self):
        calls = []

        def leg_runner(program, leg, seed, telemetry=False):
            calls.append(leg.name)
            outcome = fake_outcome()
            outcome.elapsed = float(len(calls) > 3 and leg.name == "good")
            return outcome

        runner, _ = run_fake(leg_runner)
        assert [f["leg"] for f in runner.failures] == ["good"]
        assert "expected" in runner.failures[0]["error"]

    def test_leg_past_the_timeout_fails(self, monkeypatch):
        monkeypatch.setattr(harness, "LEG_TIMEOUT_S", 0.05)

        def leg_runner(program, leg, seed, telemetry=False):
            if leg.name == "bad":
                time.sleep(5)
            return fake_outcome()

        started = time.perf_counter()
        runner, _ = run_fake(leg_runner, passes=1)
        assert time.perf_counter() - started < 2
        assert runner.failed == 30
        assert "LegTimeout" in runner.failures[0]["error"]


def test_high_percentile_keeps_samples_beyond_it():
    values = list(range(1, 33))
    assert harness.high_percentile(values) == (24, 75.0)
    assert harness.high_percentile(list(range(1, 101))) == (90, 90.0)
    assert harness.high_percentile([5.0, 1.0, 3.0])[0] == 5.0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@pytest.fixture
def program():
    return harness.load_program()


def busy(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class TestSpans:
    def test_self_times_of_nested_spans_sum_to_the_pass(self):
        tracer = tracing.Tracer()

        def leaf():
            busy(0.002)

        def middle():
            busy(0.001)
            traced_leaf()
            traced_leaf()

        def top():
            traced_middle()
            busy(0.001)

        traced_leaf = tracer.span(leaf, tracer._name_id("nn", "leaf"))
        traced_middle = tracer.span(middle, tracer._name_id("rl.algo", "middle"))
        traced_top = tracer.span(top, tracer._name_id("core.client", "top"))
        tracer.begin_pass()
        tracer.rooted(traced_top)()
        profile = tracer.finish_pass()
        assert sum(profile.self_seconds.values()) == pytest.approx(profile.wall)
        assert profile.calls["nn"] == 2 and profile.children["rl.algo"] == 2
        assert profile.self_seconds["nn"] == pytest.approx(0.004, rel=0.25)
        assert profile.self_seconds["rl.algo"] == pytest.approx(0.001, rel=0.5)
        assert profile.self_seconds["core.client"] == pytest.approx(0.001, rel=0.5)
        assert profile.unattributed_frac < 0.05

    def test_call_inside_the_same_layer_opens_no_span(self):
        tracer = tracing.Tracer()
        inner = tracer.span(lambda: None, tracer._name_id("nn", "inner"))
        outer = tracer.span(inner, tracer._name_id("nn", "outer"))
        tracer.begin_pass()
        tracer.rooted(outer)()
        assert tracer.finish_pass().calls["nn"] == 1

    def test_overhead_is_taken_out_in_proportion_to_spans(self):
        profile = tracing.PassProfile(
            wall=3.0,
            self_seconds={"a": 2.0, "b": 0.9, tracing.ROOT: 0.1},
            calls={"a": 100, "b": 0, tracing.ROOT: 0},
            children={"a": 0, "b": 0, tracing.ROOT: 100},
            callbacks={"a": 0, "b": 0, tracing.ROOT: 0},
            name_calls={},
        )
        profile.subtract_overhead(tracing.SpanCost(0.005, 0.0, 0.0), 2.0)
        assert profile.self_seconds["a"] == pytest.approx(1.0)
        assert profile.self_seconds["b"] == pytest.approx(0.9)
        assert sum(profile.self_seconds.values()) == pytest.approx(2.0)

    def test_no_more_than_the_capped_cost_is_taken_out(self):
        profile = tracing.PassProfile(
            wall=3.0, self_seconds={"a": 2.9, tracing.ROOT: 0.1},
            calls={"a": 10, tracing.ROOT: 0}, children={"a": 0, tracing.ROOT: 10},
            callbacks={"a": 0, tracing.ROOT: 0}, name_calls={},
        )
        profile.subtract_overhead(tracing.SpanCost(0.001, 0.0, 0.0), 2.0)
        taken = 2.9 - profile.self_seconds["a"]
        assert taken == pytest.approx(10 * 0.001 * tracing.MAX_COST_SCALE)


class TestLayerTable:
    def test_every_name_resolves(self, program):
        targets, missing = layers.resolve()
        assert missing == []
        assert {layer for layer, _, _ in targets} == set(layers.LAYERS)

    def test_only_public_names(self):
        for _, _, _, names in layers.TABLE:
            assert not any(name.startswith("_") for name in names)

    def test_install_wraps_and_uninstall_restores(self, program):
        from repro.netsim.events import Simulator
        from repro.netsim.link import LinkEnd

        before = (Simulator.run, Simulator.schedule, LinkEnd.send,
                  program[0].run, program[0].runner.run)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert Simulator.run is not before[0]
            assert program[0].run is program[0].runner.run is not before[3]
        finally:
            tracer.uninstall()
        after = (Simulator.run, Simulator.schedule, LinkEnd.send,
                 program[0].run, program[0].runner.run)
        assert after == before

    def test_scheduled_callbacks_are_charged_to_their_own_layer(self, program):
        from repro.netsim.events import Simulator

        def callback():
            busy(0.003)

        callback.__module__ = "repro.netsim.link"
        tracer = tracing.Tracer()
        tracer.install()
        try:
            def simulate():
                sim = Simulator()
                sim.schedule(1.0, callback)
                sim.schedule_fire(2.0, callback)
                sim.run()

            tracer.begin_pass()
            tracer.rooted(simulate)()
            profile = tracer.finish_pass()
        finally:
            tracer.uninstall()
        assert profile.callbacks["netsim.link"] == 2
        assert profile.self_seconds["netsim.link"] == pytest.approx(0.006, rel=0.25)
        assert profile.self_seconds["netsim.events"] < 0.001

    def test_traced_pass_attributes_a_real_leg(self, program):
        leg = Leg("tiny", 2, "sync", dict(
            strategy="isw", mode="sync", workload="synth", n_workers=2,
            iterations=2))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_pass()
            tracer.rooted(harness.run_leg)(program, leg, seed=1)
            profile = tracer.finish_pass()
        finally:
            tracer.uninstall()
        assert profile.unattributed_frac < 0.05
        for layer in ("netsim.events", "netsim.link", "core.switch",
                      "core.accelerator", "core.client", "rl.algo"):
            assert profile.calls[layer] > 0, layer
        assert profile.calls["distributed.collectives"] > 0
        assert profile.calls["live"] == profile.calls["nn"] == 0


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
class TestCompare:
    tight = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]

    def test_within_bound_is_ok(self):
        b = [x * 1.05 for x in self.tight]
        assert compare.verdict(10.0, 10.5, 0.10, self.tight, b) == "ok"

    def test_beyond_bound_is_regressed(self):
        b = [x * 1.2 for x in self.tight]
        assert compare.verdict(10.0, 12.0, 0.10, self.tight, b) == "regressed"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0]
        assert compare.verdict(10.0, 10.4, 0.10, self.tight, noisy) == "unresolved"

    def test_noisy_but_every_sample_better_is_ok(self):
        noisy = [4.0, 6.0, 5.0, 7.0, 3.0]
        assert compare.verdict(10.0, 5.0, 0.10, self.tight, noisy) == "ok"

    def test_counts_are_told_from_timings(self):
        assert compare.is_count("netsim.events_per_iter")
        assert compare.is_count("core.help_requests")
        assert not compare.is_count("netsim.events.self_ms_per_iter")
        assert not compare.is_count("live.frames_tx")
