"""Edge cases across the distributed layer: tiny clusters, odd configs."""

import numpy as np
import pytest

from repro.core.accelerator import AggregationEngine
from repro.core.protocol import DataSegment
from repro.distributed import (
    AsyncISwitch,
    build_cluster,
)
from repro.workloads import get_profile

from .helpers import train


class TestTinyClusters:
    def test_single_worker_sync_isw(self):
        result = train("isw", "ppo", n_workers=1, iterations=3, seed=0)
        assert result.iterations == 3
        assert result.workers[0].algorithm.updates_applied == 3

    def test_single_worker_sync_ps(self):
        result = train("ps", "ppo", n_workers=1, iterations=3, seed=0)
        assert result.iterations == 3

    def test_single_worker_ar_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            train("ar", "ppo", n_workers=1, iterations=3, seed=0)

    def test_single_worker_async_isw(self):
        result = train("isw", "ppo", mode="async", n_workers=1, iterations=5, seed=0)
        assert result.iterations == 5
        # With one worker, every gradient is its own round: staleness <= 1.
        assert result.max_staleness <= 1

    def test_single_worker_async_ps(self):
        result = train("ps", "ppo", mode="async", n_workers=1, iterations=5, seed=0)
        assert result.iterations == 5
        assert result.mean_staleness == 0.0

    def test_two_worker_cluster(self):
        result = train("isw", "a2c", n_workers=2, iterations=4, seed=0)
        assert result.n_workers == 2
        np.testing.assert_allclose(
            result.workers[0].algorithm.get_weights(),
            result.workers[1].algorithm.get_weights(),
            atol=1e-5,
        )


class TestOddClusterSizes:
    @pytest.mark.parametrize("n_workers", [5, 7, 10])
    def test_irregular_rack_fills(self, n_workers):
        result = train("isw", "ppo", n_workers=n_workers, iterations=2, seed=0)
        assert result.n_workers == n_workers
        assert all(w.iterations_done == 2 for w in result.workers)


class TestEngineCornerCases:
    def test_renumber_with_dedup(self):
        engine = AggregationEngine(threshold=2, dedup=True)
        engine.arrival_renumber = 1
        # Same (sender, commit) twice: dedup keys on the renumbered seg,
        # so the duplicate within one round is dropped.
        engine.contribute(
            DataSegment(seg=0, data=np.ones(1, dtype=np.float32), sender="a", commit_id=1)
        )
        result = engine.contribute(
            DataSegment(seg=0, data=np.ones(1, dtype=np.float32), sender="a", commit_id=1)
        )
        assert result is None
        assert engine.stats.duplicates_dropped == 1

    def test_threshold_change_midstream(self):
        engine = AggregationEngine(threshold=4)
        engine.contribute(DataSegment(seg=0, data=np.ones(1, dtype=np.float32)))
        engine.contribute(DataSegment(seg=0, data=np.ones(1, dtype=np.float32)))
        engine.set_threshold(2)
        # The next contribution sees the lowered bar.
        result = engine.contribute(
            DataSegment(seg=0, data=np.ones(1, dtype=np.float32))
        )
        assert result is not None
        assert result.data[0] == pytest.approx(3.0)

    def test_zero_length_never_occurs_but_empty_data_is_safe(self):
        engine = AggregationEngine(threshold=1)
        result = engine.contribute(
            DataSegment(seg=0, data=np.zeros(0, dtype=np.float32))
        )
        assert result is not None
        assert result.data.size == 0


class TestAsyncISwitchConfig:
    def test_threshold_on_tree_rejected(self):
        profile = get_profile("ppo")
        net, workers = build_cluster(
            6, profile, with_server=False, use_iswitch=True, workload="ppo"
        )
        with pytest.raises(ValueError, match="single-switch"):
            AsyncISwitch(net, workers, profile, threshold=2)

    def test_invalid_threshold(self):
        profile = get_profile("ppo")
        net, workers = build_cluster(
            4, profile, with_server=False, use_iswitch=True, workload="ppo"
        )
        with pytest.raises(ValueError, match="H must be >= 1"):
            AsyncISwitch(net, workers, profile, threshold=0)


class TestDeterminism:
    def test_same_seed_same_simulated_timeline(self):
        a = train("isw", "ppo", n_workers=4, iterations=5, seed=42)
        b = train("isw", "ppo", n_workers=4, iterations=5, seed=42)
        assert a.elapsed == b.elapsed
        np.testing.assert_array_equal(
            a.workers[0].algorithm.get_weights(),
            b.workers[0].algorithm.get_weights(),
        )

    def test_different_seed_different_gradients(self):
        a = train("isw", "ppo", n_workers=2, iterations=3, seed=1)
        b = train("isw", "ppo", n_workers=2, iterations=3, seed=2)
        assert not np.allclose(
            a.workers[0].algorithm.get_weights(),
            b.workers[0].algorithm.get_weights(),
        )

    def test_async_same_seed_same_staleness(self):
        a = train("isw", "ppo", mode="async", n_workers=4, iterations=20, seed=9)
        b = train("isw", "ppo", mode="async", n_workers=4, iterations=20, seed=9)
        assert a.mean_staleness == b.mean_staleness
        assert a.elapsed == b.elapsed
