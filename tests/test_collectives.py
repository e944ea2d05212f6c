"""Tests for the collectives layer and the strategies composed from it.

Covers three things:

* unit behaviour of the primitives (handles, barriers, schedules,
  gather/scatter on a tiny star network);
* the golden regression pinning every refactored strategy's final
  weights *and* total simulated time to pre-refactor values — the
  collectives layer is required to be a pure factoring, bit for bit;
* the two strategies that exist only because the layer made them cheap
  to add: ``ar-hd`` (recursive halving/doubling) and ``ps-shard``
  (parameter server sharded across worker hosts).
"""

import hashlib

import numpy as np
import pytest

from repro.distributed.collectives import (
    CollectiveHandle,
    RoundBarrier,
    hd_all_gather,
    hd_reduce_scatter,
    ring_all_gather,
    ring_reduce_scatter,
)
from repro.distributed.collectives.base import HandleLedger, MAX_LIVE_HANDLES
from repro.distributed.collectives.ps import PsGather, PsScatter
from repro.distributed.config import ExperimentConfig
from repro.distributed.metrics import BusyQueue
from repro.distributed.registry import strategy_specs
from repro.distributed.runner import build_cluster, run
from repro.distributed.sharded import ShardedParameterServer
from repro.distributed.sync import HalvingDoublingAllReduce, RingAllReduce
from repro.netsim import Simulator
from repro.netsim.topology import build_star
from repro.workloads import get_profile

from .helpers import train
from .oracles import reference_adam_step_flat


def weight_hash(result) -> str:
    weights = result.workers[0].algorithm.get_weights()
    return hashlib.sha256(
        np.ascontiguousarray(weights, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


# ----------------------------------------------------------------------
# Golden regression: the refactor must be a pure factoring
# ----------------------------------------------------------------------
#: (final-weight hash of worker 0, total simulated seconds) captured on
#: the pre-collectives implementation for ppo / 4 workers / seed 7 with
#: 5 sync iterations or 30 async updates; ``ar-hd``/``ps-shard`` were
#: pinned on the pre-payload-refactor implementation so the zero-copy
#: datapath covers all seven strategies.  Any drift here means a change
#: to either the math or the event schedule — fix the regression, do not
#: re-pin these values.
GOLDEN = {
    ("sync", "ps"): ("8597b1f7ddb892fb", 0.09213318678487417),
    ("sync", "ar"): ("8597b1f7ddb892fb", 0.09544441303242046),
    ("sync", "ar-hd"): ("8597b1f7ddb892fb", 0.07844703138005157),
    ("sync", "ps-shard"): ("8597b1f7ddb892fb", 0.05470335664735608),
    ("sync", "isw"): ("94346f131ed9bc3c", 0.04437665757874773),
    ("async", "ps"): ("09fc5c06e2e6462d", 0.11654701069085062),
    ("async", "isw"): ("9c075db685abf719", 0.25010475115351194),
}


class TestGoldenRegression:
    @pytest.mark.parametrize("mode,strategy", sorted(GOLDEN))
    def test_weights_and_simulated_time_pinned(self, mode, strategy):
        if mode == "sync":
            result = train(strategy, "ppo", n_workers=4, iterations=5, seed=7)
        else:
            result = train(
                strategy, "ppo", mode="async", n_workers=4, iterations=30, seed=7
            )
        expected_hash, expected_elapsed = GOLDEN[(mode, strategy)]
        assert weight_hash(result) == expected_hash
        assert result.elapsed == expected_elapsed


# ----------------------------------------------------------------------
# Primitive unit tests
# ----------------------------------------------------------------------
class TestHandlesAndBarriers:
    def test_handle_records_times_and_done(self):
        sim = Simulator()
        handle = CollectiveHandle("x", tag=0, sim=sim, expected=2)
        handle.mark_started("a")
        sim.schedule(1.5, lambda: handle.mark_completed("a"))
        sim.schedule(2.5, lambda: handle.mark_completed("b"))
        sim.run()
        assert handle.done
        assert handle.elapsed("a") == pytest.approx(1.5)
        assert handle.elapsed("b") is None  # never marked started
        assert handle.completed_at == pytest.approx(2.5)

    def test_ledger_completes_and_forgets(self):
        sim = Simulator()
        ledger = HandleLedger("x", sim)
        handle = ledger.get(0, expected=1)
        handle.mark_started("a")
        ledger.complete(0, "a")
        assert ledger.peek(0) is None
        # Completing an unknown tag is a no-op, not an error.
        ledger.complete(42, "a")

    def test_ledger_evicts_oldest(self):
        sim = Simulator()
        ledger = HandleLedger("x", sim)
        for tag in range(MAX_LIVE_HANDLES + 1):
            ledger.get(tag, expected=99)
        assert len(ledger) <= MAX_LIVE_HANDLES
        assert ledger.peek(0) is None  # oldest evicted
        assert ledger.peek(MAX_LIVE_HANDLES) is not None

    def test_barrier_fires_once_at_threshold(self):
        fired = []
        barrier = RoundBarrier(3, fired.append)
        assert not barrier.arrive("r")
        assert not barrier.arrive("r")
        assert barrier.pending("r") == 2
        assert barrier.arrive("r")
        assert fired == ["r"]
        assert barrier.pending("r") == 0  # tag reset, can be reused

    def test_barrier_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            RoundBarrier(0)


class _FakeWorker:
    def __init__(self, index, host):
        self.index = index
        self.host = host
        self.name = host.name


def star(n):
    """n worker hosts plus a server host as gather/scatter hub, all on
    one basic switch (hosts are single-homed)."""
    sim = Simulator()
    net = build_star(sim, n, with_server=True)
    workers = [_FakeWorker(i, host) for i, host in enumerate(net.workers)]
    return sim, net.server, workers


class TestPsPrimitives:
    def test_gather_round_barrier_and_vectors(self):
        sim, hub, workers = star(3)
        cpu = BusyQueue(sim, name="hub")
        seen, rounds = [], []
        gather = PsGather(
            hub,
            cpu,
            ingest_cost=1e-6,
            on_vector=lambda src, tag, vec, meta: seen.append((src, vec[0])),
            threshold=3,
            on_round=rounds.append,
        )
        for worker in workers:
            gather.submit(
                worker,
                tag=0,
                vector=np.full(4, float(worker.index), dtype=np.float32),
                wire_bytes=1000,
            )
        sim.run()
        assert rounds == [0]
        assert sorted(v for _, v in seen) == [0.0, 1.0, 2.0]

    def test_gather_submit_local_skips_wire_but_pays_cpu(self):
        sim, hub, workers = star(2)
        cpu = BusyQueue(sim, name="hub")
        done = []
        gather = PsGather(
            hub, cpu, ingest_cost=0.5, on_vector=lambda *a: done.append(sim.now)
        )
        gather.submit_local(workers[0], tag=0, vector=None)
        sim.run()
        assert done == [pytest.approx(0.5)]  # CPU cost only, no wire time

    def test_scatter_broadcast_reaches_all(self):
        sim, hub, workers = star(3)
        got = []
        scatter = PsScatter(
            hub, workers, on_deliver=lambda w, tag, vec, meta: got.append(w.index)
        )
        scatter.broadcast(tag=0, vector=None, wire_bytes=1000)
        sim.run()
        assert sorted(got) == [0, 1, 2]

    def test_callable_ingest_cost(self):
        sim, hub, workers = star(1)
        cpu = BusyQueue(sim, name="hub")
        done = []
        gather = PsGather(
            hub,
            cpu,
            ingest_cost=lambda src, tag, vec, meta: 0.25,
            on_vector=lambda *a: done.append(sim.now),
        )
        gather.submit_local(workers[0], tag=0, vector=None)
        sim.run()
        assert done == [pytest.approx(0.25)]


class TestSchedules:
    def test_ring_schedules_step_counts(self):
        rs = ring_reduce_scatter(4, chunk_bytes=100, message_count=3)
        ag = ring_all_gather(4, chunk_bytes=100, message_count=3)
        assert rs.n_steps == 9 and ag.n_steps == 9
        assert rs.peer_of(3, 0) == 0  # ring wraps
        assert rs.bytes_of(5) == 100

    def test_hd_schedules_step_counts_and_halving(self):
        rs = hd_reduce_scatter(8, wire_bytes=8000, message_count=1)
        ag = hd_all_gather(8, wire_bytes=8000, message_count=1)
        assert rs.n_steps == 3 and ag.n_steps == 3
        # Payload halves each reduce step: 4000, 2000, 1000.
        assert [rs.bytes_of(s) for s in range(3)] == [4000, 2000, 1000]
        # ...and doubles back symmetrically in the gather phase.
        assert [ag.bytes_of(s) for s in range(3)] == [1000, 2000, 4000]
        # Peers are symmetric partners (i XOR 2^k).
        for step in range(3):
            for i in range(8):
                peer = rs.peer_of(i, step)
                assert rs.peer_of(peer, step) == i

    def test_hd_requires_power_of_two(self):
        for n in (3, 6, 12):
            with pytest.raises(ValueError, match="power-of-two"):
                hd_reduce_scatter(n, wire_bytes=1000)


# ----------------------------------------------------------------------
# New strategies: ar-hd and ps-shard
# ----------------------------------------------------------------------
class TestNewStrategies:
    @pytest.fixture(scope="class")
    def trio(self):
        """ar, ar-hd, ps-shard on the same seed at N=8."""
        return {
            s: train(s, "ppo", n_workers=8, iterations=3, seed=7)
            for s in ("ar", "ar-hd", "ps-shard")
        }

    def test_identical_weight_trajectories(self, trio):
        reference = weight_hash(trio["ar"])
        assert weight_hash(trio["ar-hd"]) == reference
        assert weight_hash(trio["ps-shard"]) == reference

    def test_hd_has_logarithmic_steps(self):
        profile = get_profile("ppo")
        net, workers = build_cluster(
            8, profile, with_server=False, use_iswitch=False, workload="ppo"
        )
        hd = HalvingDoublingAllReduce(net, workers, profile)
        net2, workers2 = build_cluster(
            8, profile, with_server=False, use_iswitch=False, workload="ppo"
        )
        ring = RingAllReduce(net2, workers2, profile)
        # 2·log2(8)·messages vs 2·(8−1)·messages.
        assert hd.total_steps * 7 == ring.total_steps * 3
        assert hd.total_steps < ring.total_steps

    def test_hd_aggregates_faster_than_ring_at_8(self, trio):
        hd, ring = trio["ar-hd"], trio["ar"]
        assert hd.aggregation_latency.mean < ring.aggregation_latency.mean
        assert hd.elapsed < ring.elapsed

    def test_hd_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            train("ar-hd", "ppo", n_workers=6, iterations=1)

    def test_ps_shard_clamps_shards_to_workers(self):
        profile = get_profile("ppo")
        net, workers = build_cluster(
            2, profile, with_server=False, use_iswitch=False, workload="ppo"
        )
        strategy = ShardedParameterServer(net, workers, profile, n_shards=16)
        assert strategy.n_shards == 2
        assert sum(strategy.shard_bytes) >= strategy.wire_bytes

    def test_ps_shard_needs_two_workers(self):
        profile = get_profile("ppo")
        net, workers = build_cluster(
            1, profile, with_server=False, use_iswitch=False, workload="ppo"
        )
        with pytest.raises(ValueError, match="at least 2"):
            ShardedParameterServer(net, workers, profile)

    def test_ps_shard_runs_via_config_with_shard_count(self):
        result = run(
            ExperimentConfig(
                strategy="ps-shard",
                workload="ppo",
                n_workers=4,
                iterations=2,
                seed=7,
                ps_shards=2,
                telemetry=False,
            )
        )
        assert result.strategy == "sync-ps-shard"
        assert all(w.iterations_done == 2 for w in result.workers)

    def test_new_strategies_through_cli(self, capsys):
        from repro.cli import main

        for strategy in ("ar-hd", "ps-shard"):
            code = main(
                [
                    "train",
                    "--strategy",
                    strategy,
                    "--workload",
                    "ppo",
                    "--workers",
                    "4",
                    "--iterations",
                    "2",
                ]
            )
            assert code == 0
            assert f"sync-{strategy}" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Registry introspection
# ----------------------------------------------------------------------
class TestRegistryIntrospection:
    def test_strategy_specs_cover_both_modes(self):
        names = {(s.mode, s.name) for s in strategy_specs()}
        assert {("sync", "ps"), ("sync", "ar-hd"), ("sync", "ps-shard"),
                ("async", "isw")} <= names

    def test_strategy_specs_mode_filter(self):
        from repro.distributed.registry import strategy_names

        sync_only = strategy_specs("sync")
        assert sync_only and all(s.mode == "sync" for s in sync_only)
        assert tuple(s.name for s in sync_only) == strategy_names("sync")

    def test_list_strategies_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--list-strategies"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("ps", "ar", "ar-hd", "isw", "ps-shard"):
            assert name in out

    def test_unregister_removes_and_tolerates_missing(self):
        from repro.distributed.registry import (
            get_strategy,
            register_strategy,
            unregister_strategy,
        )
        from repro.distributed.sync import SyncParameterServer

        register_strategy("sync", "tmp-test")(SyncParameterServer)
        assert get_strategy("sync", "tmp-test").cls is SyncParameterServer
        unregister_strategy("sync", "tmp-test")
        with pytest.raises(KeyError, match="unknown sync strategy"):
            get_strategy("sync", "tmp-test")
        # Unregistering again is a no-op.
        unregister_strategy("sync", "tmp-test")


# ----------------------------------------------------------------------
# The distributed layer must not notice how the workers do their math
# ----------------------------------------------------------------------
class TestComputePathParity:
    """Every strategy on reference compute, identical results.

    The goldens above pin the production compute tier; these runs swap
    the fused flat Adam for the textbook per-parameter oracle step
    (``tests/oracles.py`` — the "legacy compute" of the test names) and
    require the same final weights *and* the same simulated clock.
    """

    @pytest.mark.parametrize("mode,strategy", sorted(GOLDEN))
    def test_legacy_compute_reproduces_golden(self, mode, strategy, monkeypatch):
        from repro.nn import Adam

        monkeypatch.setattr(Adam, "step_flat", reference_adam_step_flat)
        if mode == "sync":
            result = train(strategy, "ppo", n_workers=4, iterations=5, seed=7)
        else:
            result = train(
                strategy, "ppo", mode="async", n_workers=4, iterations=30, seed=7
            )
        expected_hash, expected_elapsed = GOLDEN[(mode, strategy)]
        assert weight_hash(result) == expected_hash
        assert result.elapsed == expected_elapsed

    def test_chaos_run_fast_vs_legacy(self):
        """Fault injection (crash + switch reset + loss burst) on dqn —
        replay, fused Q-net gradient, Adam, replica resync — against the
        digest both the fast and the since-removed legacy compute path
        produced at the last commit that carried both.  Fix a regression,
        do not re-pin."""
        result = train(
            "isw", "dqn", n_workers=4, iterations=6, seed=7,
            fault_plan="examples/chaos_demo.json",
        )
        assert weight_hash(result) == "81694ec8dc7438f7"
        assert result.elapsed == 0.3049290590851495
        assert result.fault_report is not None and result.fault_report.ok


# ----------------------------------------------------------------------
# Collective telemetry
# ----------------------------------------------------------------------
class TestCollectiveTelemetry:
    def test_spans_emitted_per_round(self):
        result = run(
            ExperimentConfig(
                strategy="ar", workload="ppo", n_workers=4, iterations=2, seed=1
            )
        )
        spans = result.telemetry.spans_named("collective.ring")
        # One completion span per worker per iteration.
        assert len(spans) == 4 * 2
        assert all(s.duration >= 0 for s in spans)

    def test_client_round_spans_for_iswitch(self):
        result = run(
            ExperimentConfig(
                strategy="isw", workload="ppo", n_workers=4, iterations=2, seed=1
            )
        )
        spans = result.telemetry.spans_named("client.round")
        assert len(spans) == 4 * 2
        assert all(s.duration > 0 for s in spans)
