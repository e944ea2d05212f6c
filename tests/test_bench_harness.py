"""Tests for the wall-clock benchmark harness (repro.bench).

Everything here runs shrunken scenarios so tier-1 stays fast; the one
test that exercises the real smoke matrix end to end is marked ``bench``
and excluded from the default pytest run (CI has a dedicated job).
"""

import json
import time

import pytest

from repro import bench
from repro.bench import (
    SCHEMA,
    Scenario,
    bench_scenarios,
    host_info,
    run_benchmark,
    validate_report,
)


class TestScenarioStats:
    def test_median_and_p90_over_repeats(self):
        def fake():
            # Long enough that the 6-decimal rounding of median_s keeps a
            # meaningful value on a fast machine.
            time.sleep(0.002)
            return {"events": 10}

        scenario = Scenario(name="fake", kind="micro", fn=fake)
        record = scenario.run(repeats=3)
        assert record["repeats"] == 3
        assert len(record["wall_s"]) == 3
        assert min(record["wall_s"]) <= record["median_s"] <= max(record["wall_s"])
        assert record["median_s"] <= record["p90_s"] <= max(record["wall_s"])
        assert record["events"] == 10
        assert record["events_per_s"] == pytest.approx(
            10 / record["median_s"], rel=0.01
        )

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_benchmark(repeats=0)


class TestMicrobenchmarks:
    def test_event_dispatch_counts_events(self):
        scenario = bench._micro_event_dispatch(500)
        record = scenario.run(repeats=1)
        assert record["events"] == 500
        assert record["events_per_s"] > 0

    def test_link_tx_delivers_every_packet(self):
        scenario = bench._micro_link_tx(200)
        record = scenario.run(repeats=1)
        assert record["packets"] == 200
        assert record["packets_per_s"] > 0

    def test_accel_agg_completes_every_round(self):
        scenario = bench._micro_accel_agg(1, n_senders=4)
        record = scenario.run(repeats=1)
        assert record["segments"] == 4 * record["n_chunks"]
        assert record["segments_per_s"] > 0

    # The compute micros are checked as the smoke and the full matrix
    # build them (same sizes in both: micro-replay-sample is a gate
    # scenario), two repeats so the lazily built state is reused once.
    @staticmethod
    def _matrix_record(name, smoke):
        (scenario,) = [s for s in bench_scenarios(smoke=smoke) if s.name == name]
        return scenario.run(repeats=2)

    @pytest.mark.parametrize("smoke", [False, True])
    def test_env_step_micro_counts_batched_steps(self, smoke):
        record = self._matrix_record("micro-env-step", smoke)
        assert record["env_steps"] == record["steps"] * record["num_envs"]

    @pytest.mark.parametrize("smoke", [False, True])
    def test_replay_sample_micro_counts_samples(self, smoke):
        record = self._matrix_record("micro-replay-sample", smoke)
        assert record["samples"] == record["draws"] * record["batch"]

    @pytest.mark.parametrize("smoke", [False, True])
    def test_optim_step_micro_counts_param_updates(self, smoke):
        record = self._matrix_record("micro-optim-step", smoke)
        # The fixed [64, 128, 128, 8] MLP.
        expected_params = 64 * 128 + 128 + 128 * 128 + 128 + 128 * 8 + 8
        assert record["param_updates"] == record["steps"] * expected_params


class TestTrainingScenario:
    def test_smallest_training_scenario_reports_counts(self):
        scenario = bench._training_scenario("sync", "isw", 4, 2)
        record = scenario.run(repeats=1)
        record.update(scenario.fn.counted())
        assert record["sim_time_s"] > 0
        assert record["events"] > 0
        assert record["packets"] > 0


class TestMatrix:
    def test_full_matrix_covers_every_strategy_at_4_and_8(self):
        from repro.distributed.runner import ASYNC_STRATEGIES, SYNC_STRATEGIES

        names = {s.name for s in bench_scenarios(smoke=False)}
        for n_workers in (4, 8):
            for strategy in SYNC_STRATEGIES:
                assert f"sync-{strategy}-n{n_workers}" in names
            for strategy in ASYNC_STRATEGIES:
                assert f"async-{strategy}-n{n_workers}" in names
        assert "chaos-isw-n4" in names
        assert {
            "micro-event-dispatch",
            "micro-link-tx",
            "micro-accel-agg",
        } <= names

    def test_smoke_matrix_is_a_small_subset_of_kinds(self):
        smoke = bench_scenarios(smoke=True)
        assert len(smoke) < len(bench_scenarios(smoke=False))
        assert {s.kind for s in smoke} == {"training", "chaos", "micro"}

    @pytest.mark.parametrize("smoke", [False, True])
    def test_compute_micros_present_without_twins(self, smoke):
        names = {s.name for s in bench_scenarios(smoke=smoke)}
        assert {"micro-env-step", "micro-replay-sample", "micro-optim-step"} <= names
        # One compute path: nothing left to pair a "-legacy" twin with.
        assert not [name for name in names if name.endswith("-legacy")]

    def test_full_matrix_has_dqn_compute_scenarios(self):
        names = {s.name for s in bench_scenarios(smoke=False)}
        assert {"dqn-sync-isw-n4", "dqn-sync-isw-n8"} <= names


class TestReportSchema:
    def _tiny_report(self, monkeypatch, **kwargs):
        def tiny(smoke=False):
            return [
                bench._micro_event_dispatch(200),
                bench._micro_accel_agg(1, n_senders=2),
            ]

        monkeypatch.setattr(bench, "bench_scenarios", tiny)
        return run_benchmark(repeats=2, **kwargs)

    def test_report_validates(self, monkeypatch):
        report = self._tiny_report(monkeypatch)
        validate_report(report)
        assert report["schema"] == SCHEMA
        assert report["config"]["repeats"] == 2
        assert set(report["host"]) >= {"python", "platform", "numpy"}

    def test_baseline_embedding_adds_speedups(self, monkeypatch, tmp_path):
        first = self._tiny_report(monkeypatch)
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(first))
        second = self._tiny_report(
            monkeypatch, baseline_path=str(baseline_file)
        )
        validate_report(second)
        assert set(second["speedups"]) == set(first["scenarios"])
        for value in second["speedups"].values():
            assert value > 0
        assert second["baseline"]["scenarios"] == first["scenarios"]

    def test_baseline_schema_mismatch_rejected(self, monkeypatch, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="schema"):
            self._tiny_report(monkeypatch, baseline_path=str(bad))

    def test_validate_rejects_missing_sections(self):
        with pytest.raises(ValueError, match="schema"):
            validate_report({})
        report = {
            "schema": SCHEMA,
            "generated": "now",
            "host": host_info(),
            "config": {},
            "total_wall_s": 0.0,
            "scenarios": {"x": {"kind": "micro", "repeats": 1}},
        }
        with pytest.raises(ValueError, match="missing"):
            validate_report(report)

    def test_validate_requires_rates_on_training_scenarios(self):
        report = {
            "schema": SCHEMA,
            "generated": "now",
            "host": host_info(),
            "config": {},
            "total_wall_s": 0.0,
            "scenarios": {
                "sync-isw-n8": {
                    "kind": "training",
                    "repeats": 1,
                    "wall_s": [0.1],
                    "median_s": 0.1,
                    "p90_s": 0.1,
                    # events/packets rates missing
                }
            },
        }
        with pytest.raises(ValueError, match="sim_time_s"):
            validate_report(report)


class TestCli:
    def test_repro_bench_subcommand_writes_report(self, tmp_path, monkeypatch):
        def tiny(smoke=False):
            return [bench._micro_event_dispatch(100)]

        monkeypatch.setattr(bench, "bench_scenarios", tiny)
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(["bench", "--repeats", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)

    def test_budget_overrun_fails(self, tmp_path, monkeypatch):
        def tiny(smoke=False):
            return [bench._micro_event_dispatch(100)]

        monkeypatch.setattr(bench, "bench_scenarios", tiny)
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--repeats", "1", "--out", str(out), "--budget", "0.0"]
        )
        assert code == 1


class TestRegressionGate:
    @staticmethod
    def _report(samples, baseline_samples=None):
        def entry(ws):
            return {"wall_s": list(ws), "median_s": sorted(ws)[len(ws) // 2]}

        report = {"scenarios": {bench.GATE_SCENARIO: entry(samples)}}
        if baseline_samples is not None:
            report["baseline"] = {
                "scenarios": {bench.GATE_SCENARIO: entry(baseline_samples)}
            }
        return report

    def test_compares_best_samples_not_medians(self):
        # Median regressed 2x (cold samples dominate) but the best sample
        # matches the baseline's best: the gate must pass.
        report = self._report([0.30, 0.25, 0.10], baseline_samples=[0.10, 0.12, 0.14])
        assert bench.check_regression(report, 0.50) == 0

    def test_fails_on_structural_regression(self):
        report = self._report([0.31, 0.30, 0.32], baseline_samples=[0.10, 0.12, 0.14])
        assert bench.check_regression(report, 0.50) == 1

    def test_missing_baseline_passes(self):
        assert bench.check_regression(self._report([0.1]), 0.50) == 0

    def test_missing_scenario_passes(self):
        report = self._report([0.1], baseline_samples=[0.1])
        report["baseline"]["scenarios"] = {}
        assert bench.check_regression(report, 0.50) == 0

    def test_falls_back_to_median_without_samples(self):
        report = self._report([0.2], baseline_samples=[0.1])
        del report["scenarios"][bench.GATE_SCENARIO]["wall_s"]
        del report["baseline"]["scenarios"][bench.GATE_SCENARIO]["wall_s"]
        assert bench.check_regression(report, 0.50) == 1
        assert bench.check_regression(report, 1.50) == 0

    def test_default_gate_covers_all_gate_scenarios(self):
        """scenario=None sweeps GATE_SCENARIOS; any one regression fails."""

        def entry(ws):
            return {"wall_s": list(ws), "median_s": sorted(ws)[len(ws) // 2]}

        assert "micro-replay-sample" in bench.GATE_SCENARIOS
        report = {
            "scenarios": {name: entry([0.10]) for name in bench.GATE_SCENARIOS},
            "baseline": {
                "scenarios": {
                    name: entry([0.10]) for name in bench.GATE_SCENARIOS
                }
            },
        }
        assert bench.check_regression(report, 0.50) == 0
        # Regress only the replay micro: the combined gate must trip even
        # though the training scenario is clean.
        report["scenarios"]["micro-replay-sample"] = entry([0.30])
        assert bench.check_regression(report, 0.50) == 1
        assert bench.check_regression(report, 0.50, bench.GATE_SCENARIO) == 0


@pytest.mark.bench
class TestSmokeMatrixEndToEnd:
    def test_smoke_run_validates_and_recovers_faults(self, tmp_path):
        report = run_benchmark(repeats=1, smoke=True)
        validate_report(report)
        assert report["scenarios"]["chaos-isw-n4"]["fault_ok"] is True
