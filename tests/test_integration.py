"""Cross-module integration tests: whole-system behaviours."""

import numpy as np
import pytest

from repro.core import (
    AggregationClient,
    SegmentPlan,
    configure_aggregation,
    iswitch_factory,
)
from repro.netsim import Packet, Simulator, build_rack_tree, build_star

from .helpers import train


class TestDistributedVsSingleNode:
    def test_sync_cluster_equals_local_mean_gradient_training(self):
        """A 2-worker synchronous iSwitch run must produce exactly the
        weights of a local loop applying the same mean gradients."""
        from repro.distributed.runner import make_algorithm

        result = train("isw", "ppo", n_workers=2, iterations=4, seed=11)
        distributed = result.workers[0].algorithm.get_weights()

        # Replay locally: two replicas, mean gradient, same update order.
        replicas = [make_algorithm("ppo", seed=11 + i) for i in range(2)]
        for _ in range(4):
            gradients = [r.compute_gradient() for r in replicas]
            mean = np.mean([g.astype(np.float64) for g in gradients], axis=0)
            # Match the wire's float32 rounding of the aggregated sum.
            mean = np.sum(
                [g.astype(np.float32) for g in gradients], axis=0, dtype=np.float32
            ).astype(np.float64) / 2
            for replica in replicas:
                replica.apply_update(mean)
        np.testing.assert_allclose(
            distributed, replicas[0].get_weights(), atol=1e-5
        )


class TestLearningAcrossTheSwitch:
    def test_a2c_learns_through_in_switch_aggregation(self):
        """End-to-end: real rewards improve when every gradient crosses
        the simulated switch accelerator."""
        result = train("isw", "a2c", n_workers=4, iterations=250, seed=5)
        algo = result.workers[0].algorithm
        assert len(algo.episode_rewards) >= 20
        early = np.mean(algo.episode_rewards[:10])
        late = np.mean(algo.episode_rewards[-10:])
        assert late > early


class TestHierarchicalAsync:
    def test_async_isw_on_two_racks(self):
        result = train("isw", "ppo", mode="async", n_workers=6, iterations=25, seed=3)
        assert result.iterations == 25
        assert result.mean_staleness <= 3


class TestCoexistence:
    def test_background_traffic_during_aggregation(self):
        """iSwitch 'does not affect the regular network functions': plain
        traffic flows through the same switch while it aggregates."""
        sim = Simulator()
        net = build_star(sim, 3, switch_factory=iswitch_factory)
        configure_aggregation(net)
        plan = SegmentPlan(2000)
        done = {}
        clients = [
            AggregationClient(
                w,
                "tor0",
                plan,
                on_round_complete=lambda rnd, vec, n=w.name: done.__setitem__(n, vec),
            )
            for w in net.workers
        ]
        background = []
        net.workers[2].bind(8080, background.append)
        for client in clients:
            client.send_gradient(np.ones(2000, dtype=np.float32), 0)
        for i in range(10):
            net.workers[0].send(
                Packet(
                    src="worker0",
                    dst="worker2",
                    payload_size=500,
                    dst_port=8080,
                )
            )
        sim.run()
        assert len(done) == 3
        assert len(background) == 10
        np.testing.assert_allclose(done["worker0"], 3.0)


class TestScaleInvariantCorrectness:
    @pytest.mark.parametrize("n_workers", [2, 4, 6, 9])
    def test_aggregated_mean_identical_at_any_scale(self, n_workers):
        sim = Simulator()
        if n_workers <= 4:
            net = build_star(sim, n_workers, switch_factory=iswitch_factory)
        else:
            net = build_rack_tree(sim, n_workers, switch_factory=iswitch_factory)
        configure_aggregation(net)
        plan = SegmentPlan(777)
        results = {}
        clients = [
            AggregationClient(
                w,
                net.tor_of_worker[i].name,
                plan,
                on_round_complete=lambda rnd, vec, n=w.name: results.__setitem__(
                    n, vec
                ),
            )
            for i, w in enumerate(net.workers)
        ]
        rng = np.random.default_rng(n_workers)
        vectors = [
            rng.standard_normal(777).astype(np.float32) for _ in clients
        ]
        # Snapshot first: the engine adopts a first writable contribution
        # as its accumulation buffer, so senders' arrays may be summed into.
        expected = np.sum(vectors, axis=0)
        for client, vector in zip(clients, vectors):
            client.send_gradient(vector, 0)
        sim.run()
        assert len(results) == n_workers
        for got in results.values():
            np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)


class TestFaultTolerance:
    def test_sync_training_survives_downlink_loss_with_recovery(self):
        """Failure injection: drop ~20% of one worker's packets and verify
        the Help/retransmission path still completes every round."""
        sim = Simulator()

        def factory(s, name):
            from repro.core.switch import ISwitch

            return ISwitch(s, name, dedup=True)

        net = build_star(sim, 3, switch_factory=factory)
        configure_aggregation(net)
        net.links[1].loss_rate = 0.2
        net.links[1].loss_rng = np.random.default_rng(13)
        plan = SegmentPlan(3000)
        completions = {w.name: set() for w in net.workers}
        clients = [
            AggregationClient(
                w,
                "tor0",
                plan,
                on_round_complete=lambda rnd, vec, n=w.name: completions[n].add(rnd),
                recovery_timeout=0.3e-3,
            )
            for w in net.workers
        ]
        for round_index in range(3):
            for client in clients:
                client.send_gradient(
                    np.full(3000, 1.0 + round_index, dtype=np.float32),
                    round_index,
                )
        sim.run(until=0.5)
        for rounds in completions.values():
            assert rounds == {0, 1, 2}
