"""Tests for the asynchronous strategies (Async PS, Async iSwitch)."""

import numpy as np
import pytest

from .helpers import train


class TestAsyncParameterServer:
    @pytest.fixture(scope="class")
    def result(self):
        return train("ps", "ppo", mode="async", n_workers=4, iterations=40, seed=2)

    def test_server_applied_requested_updates(self, result):
        assert result.iterations == 40

    def test_staleness_measured_and_plausible(self, result):
        staleness = result.mean_staleness
        # Each worker sees roughly the other three workers' pushes per cycle.
        assert 1.0 <= staleness <= 4.0
        assert result.max_staleness >= staleness

    def test_server_busy_time_positive(self, result):
        assert 0 < result.server_busy_time <= result.elapsed

    def test_workers_iterate_independently(self, result):
        counts = [w.iterations_done for w in result.workers]
        assert all(c >= 1 for c in counts)
        assert sum(counts) >= 40  # every update came from some worker

    def test_invalid_updates_rejected(self):
        with pytest.raises(ValueError):
            train("ps", "ppo", mode="async", iterations=0)


class TestAsyncISwitch:
    @pytest.fixture(scope="class")
    def result(self):
        return train("isw", "ppo", mode="async", n_workers=4, iterations=40, seed=2)

    def test_all_replicas_reach_target_updates(self, result):
        assert result.iterations == 40

    def test_decentralized_weights_agree(self, result):
        """Algorithm 1's core claim: identical broadcasts keep all local
        weight copies in agreement with no parameter server."""
        reference = result.workers[0].algorithm.get_weights()
        for worker in result.workers[1:]:
            # Replicas may be 1-2 updates apart at the stop instant; compare
            # update counts first, then weights at equal counts.
            if worker.algorithm.updates_applied == result.workers[
                0
            ].algorithm.updates_applied:
                np.testing.assert_allclose(
                    worker.algorithm.get_weights(), reference, atol=1e-5
                )

    def test_staleness_below_bound(self, result):
        assert result.max_staleness <= 3

    def test_staleness_fresher_than_ps(self, result):
        ps = train("ps", "ppo", mode="async", n_workers=4, iterations=40, seed=2)
        assert (
            result.mean_staleness < ps.mean_staleness
        )

    def test_commits_tracked(self, result):
        assert result.commits >= 40
        assert result.skipped_commits >= 0

    def test_staleness_bound_skips_when_tight(self):
        tight = train(
            "isw",
            "ppo",
            mode="async",
            n_workers=4,
            iterations=30,
            seed=2,
            staleness_bound=0,
        )
        assert tight.max_staleness == 0

    def test_explicit_threshold(self):
        from repro.distributed import AsyncISwitch, build_cluster
        from repro.workloads import get_profile

        profile = get_profile("ppo")
        net, workers = build_cluster(
            4, profile, with_server=False, use_iswitch=True, workload="ppo"
        )
        runner = AsyncISwitch(net, workers, profile, threshold=2)
        result = runner.run(20)
        assert result.iterations == 20
        assert runner.h == 2

    def test_rack_scale_async(self):
        result = train("isw", "ppo", mode="async", n_workers=6, iterations=20, seed=1)
        assert result.iterations == 20
        assert result.n_workers == 6


class TestAsyncComparative:
    def test_dqn_isw_updates_faster_than_ps(self):
        ps = train("ps", "dqn", mode="async", n_workers=4, iterations=30, seed=1)
        isw = train("isw", "dqn", mode="async", n_workers=4, iterations=30, seed=1)
        assert isw.per_iteration_time < ps.per_iteration_time

    def test_learning_progress_recorded(self):
        result = train("isw", "a2c", mode="async", n_workers=4, iterations=60, seed=1)
        total_episodes = sum(
            len(w.algorithm.episode_rewards) for w in result.workers
        )
        assert total_episodes > 0
