"""Unit tests for the worker-side aggregation client, including loss
recovery via the Help/result-cache path."""

import numpy as np
import pytest

from repro.core import (
    AggregationClient,
    SegmentPlan,
    configure_aggregation,
    iswitch_factory,
)
from repro.netsim import Simulator, build_star


def cluster(n_workers=2, n_elements=1000, dedup=False, **client_kwargs):
    sim = Simulator()

    def factory(s, name):
        from repro.core.switch import ISwitch

        return ISwitch(s, name, dedup=dedup)

    net = build_star(sim, n_workers, switch_factory=factory)
    configure_aggregation(net)
    plan = SegmentPlan(n_elements)
    results = {}
    clients = [
        AggregationClient(
            w,
            "tor0",
            plan,
            on_round_complete=lambda rnd, vec, n=w.name: results.setdefault(
                n, {}
            ).__setitem__(rnd, vec),
            **client_kwargs,
        )
        for w in net.workers
    ]
    return sim, net, plan, clients, results


class TestRoundAssembly:
    def test_rounds_completed_counter(self):
        sim, net, plan, clients, results = cluster()
        for client in clients:
            client.send_gradient(np.ones(1000, dtype=np.float32), 0)
        sim.run()
        assert all(c.rounds_completed == 1 for c in clients)

    def test_commit_ids_increment(self):
        sim, net, plan, clients, results = cluster()
        first = clients[0].send_gradient(np.ones(1000, dtype=np.float32), 0)
        second = clients[0].send_gradient(np.ones(1000, dtype=np.float32), 1)
        assert second == first + 1

    def test_pending_rounds_tracked(self):
        sim, net, plan, clients, results = cluster()
        clients[0].send_gradient(np.ones(1000, dtype=np.float32), 0)
        sim.run()
        # Worker 1 never contributed, so the round never completes and no
        # results flow; nothing is pending at either client.
        assert clients[0].pending_rounds() == 0

    def test_out_of_order_rounds_complete_independently(self):
        sim, net, plan, clients, results = cluster(n_elements=3000)
        # Worker 0 commits rounds 0 and 1 back to back; worker 1 commits in
        # reverse order.  Both rounds must assemble correctly.
        v = np.ones(3000, dtype=np.float32)
        clients[0].send_gradient(v * 1, 0)
        clients[0].send_gradient(v * 2, 1)
        clients[1].send_gradient(v * 20, 1)
        clients[1].send_gradient(v * 10, 0)
        sim.run()
        for chunks in results.values():
            np.testing.assert_allclose(chunks[0], 11.0)
            np.testing.assert_allclose(chunks[1], 22.0)


class TestLossRecovery:
    def test_armed_client_refused_where_clients_burst(self):
        # The train path keeps no retransmission cache and arms no
        # watchdog, so an armed client there would hang on the first drop.
        sim = Simulator()
        sim.transport = "train"
        net = build_star(sim, 2, switch_factory=iswitch_factory)
        with pytest.raises(ValueError, match="per-packet transport"):
            AggregationClient(
                net.workers[0], "tor0", SegmentPlan(1000),
                recovery_timeout=0.5e-3,
            )
        AggregationClient(net.workers[0], "tor0", SegmentPlan(1000))  # unarmed: fine

    def _lossy_cluster(self, loss_rate, n_elements=2000):
        """A 2-worker cluster whose *downlink* to worker0 drops packets."""
        sim, net, plan, clients, results = cluster(
            n_elements=n_elements,
            dedup=True,
            recovery_timeout=0.5e-3,
        )
        # Make worker0's link lossy only for switch->worker traffic by
        # injecting loss on the link and retransmitting via Help.
        link = net.links[0]
        link.loss_rate = loss_rate
        link.loss_rng = np.random.default_rng(5)
        return sim, net, plan, clients, results, link

    def test_help_recovers_lost_results(self):
        sim, net, plan, clients, results, link = self._lossy_cluster(0.3)
        vectors = [
            np.full(2000, 1.0, dtype=np.float32),
            np.full(2000, 2.0, dtype=np.float32),
        ]
        for client, vector in zip(clients, vectors):
            client.send_gradient(vector, 0)
        sim.run(until=0.2)  # several watchdog rounds
        assert link.dropped_packets > 0
        assert "worker0" in results and "worker1" in results
        np.testing.assert_allclose(results["worker0"][0], 3.0)
        np.testing.assert_allclose(results["worker1"][0], 3.0)
        assert clients[0].help_requests + clients[1].help_requests > 0

    def test_lossless_run_sends_no_help(self):
        sim, net, plan, clients, results, link = self._lossy_cluster(0.0)
        for client in clients:
            client.send_gradient(np.ones(2000, dtype=np.float32), 0)
        sim.run(until=0.2)
        assert clients[0].help_requests == 0
        assert clients[1].help_requests == 0

    def test_dedup_prevents_double_count_on_uplink_retransmit(self):
        """Retransmitting the same commit must not inflate the sum."""
        sim, net, plan, clients, results = cluster(dedup=True, n_elements=100)
        v = np.ones(100, dtype=np.float32)
        segments = plan.split(v, 0, sender="worker0", commit_id=1)
        from repro.core.protocol import make_data_packet

        # Worker 0 sends its chunk twice (simulated retransmission).
        for _ in range(2):
            for segment in plan.split(v, 0, sender="worker0", commit_id=1):
                net.workers[0].send(
                    make_data_packet("worker0", "tor0", segment, plan)
                )
        for segment in plan.split(v * 5, 0, sender="worker1", commit_id=1):
            net.workers[1].send(
                make_data_packet("worker1", "tor0", segment, plan)
            )
        sim.run()
        np.testing.assert_allclose(results["worker0"][0], 6.0)
