"""Tests for the fault-injection subsystem (repro.faults).

Covers the plan schema + JSON round trip, the Gilbert–Elliott burst-loss
model, seed-derivation determinism (pinned contract), injector unit
behaviour, and the acceptance scenario: the demo plan (worker crash +
rejoin, switch Reset, 2% burst-loss window) completing on every
registered strategy with structured recovery and telemetry.
"""

import json

import numpy as np
import pytest

from repro.distributed import ExperimentConfig, run
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultReport,
    clone_training_state,
    demo_plan,
)
from repro.faults.report import FaultRecord
from repro.netsim.events import Simulator
from repro.netsim.link import GBPS, GilbertElliott
from repro.netsim.topology import build_star

ALL_STRATEGIES = [
    ("sync", "ps"),
    ("sync", "ar"),
    ("sync", "ar-hd"),
    ("sync", "isw"),
    ("sync", "ps-shard"),
    ("async", "ps"),
    ("async", "isw"),
]

PAUSE_STRATEGIES = [
    ("sync", "ps"),
    ("sync", "ar"),
    ("sync", "ar-hd"),
    ("sync", "ps-shard"),
]


def run_cfg(mode, strategy, plan=None, telemetry=False, iterations=12, **kw):
    return run(
        ExperimentConfig(
            strategy=strategy,
            mode=mode,
            workload="dqn",
            n_workers=4,
            iterations=iterations,
            seed=0,
            fault_plan=plan,
            telemetry=telemetry,
            **kw,
        )
    )


# ---------------------------------------------------------------------------
# FaultPlan / FaultEvent schema
# ---------------------------------------------------------------------------
class TestPlanSchema:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            [
                FaultEvent(0.5, "switch-reset", "root"),
                FaultEvent(0.1, "worker-crash", "worker0", {"down_for": 0.01}),
            ]
        )
        assert [e.time for e in plan] == [0.1, 0.5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0.0, "meteor-strike", "earth").validate()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(-1.0, "switch-reset", "root").validate()

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultEvent(0.0, "switch-reset", "").validate()

    def test_worker_crash_requires_down_for(self):
        with pytest.raises(ValueError, match="down_for"):
            FaultEvent(0.0, "worker-crash", "worker0").validate()

    def test_link_burst_requires_valid_loss(self):
        with pytest.raises(ValueError, match="loss"):
            FaultEvent(
                0.0, "link-burst", "*", {"loss": 0.9, "loss_bad": 0.5}
            ).validate()

    def test_link_burst_requires_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(0.0, "link-burst", "*", {"loss": 0.02}).validate()

    def test_link_degrade_requires_factor_above_one(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(
                0.0, "link-degrade", "*", {"factor": 0.5, "duration": 1.0}
            ).validate()

    def test_straggler_requires_slowdown_above_one(self):
        with pytest.raises(ValueError, match="slowdown"):
            FaultEvent(
                0.0, "straggler", "worker0", {"slowdown": 1.0, "duration": 1.0}
            ).validate()

    def test_json_round_trip(self, tmp_path):
        plan = demo_plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert [e.to_dict() for e in loaded] == [e.to_dict() for e in plan]

    def test_round_trip_preserves_version(self, tmp_path):
        path = str(tmp_path / "plan.json")
        demo_plan().save(path)
        with open(path) as handle:
            assert json.load(handle)["version"] == 1

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({"version": 99, "events": []})

    def test_unknown_event_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-event keys"):
            FaultEvent.from_dict(
                {"time": 0.0, "kind": "switch-reset", "target": "root",
                 "frobnicate": True}
            )

    def test_example_plan_file_is_loadable(self):
        plan = FaultPlan.load("examples/chaos_demo.json")
        assert [e.kind for e in plan] == [
            "worker-crash", "switch-reset", "link-burst"
        ]


# ---------------------------------------------------------------------------
# Gilbert–Elliott burst-loss model
# ---------------------------------------------------------------------------
class TestGilbertElliott:
    def test_from_mean_loss_hits_target_rate(self):
        model = GilbertElliott.from_mean_loss(0.02)
        assert model.mean_loss_rate() == pytest.approx(0.02)

    def test_empirical_rate_matches_mean(self):
        model = GilbertElliott.from_mean_loss(0.05)
        rng = np.random.default_rng(0)
        n = 200_000
        drops = sum(model.should_drop(rng) for _ in range(n))
        assert drops / n == pytest.approx(0.05, rel=0.15)

    def test_losses_are_bursty(self):
        """Drops cluster: P(drop | previous dropped) >> mean rate."""
        model = GilbertElliott.from_mean_loss(0.02)
        rng = np.random.default_rng(1)
        outcomes = [model.should_drop(rng) for _ in range(200_000)]
        pairs = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if a and b
        )
        drops = sum(outcomes)
        conditional = pairs / drops
        assert conditional > 5 * (drops / len(outcomes))

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliott.from_mean_loss(0.6, loss_bad=0.5)

    def test_link_burst_window_drops_packets(self):
        """A loss_model on a lossless link drops packets while installed."""
        from repro.netsim.link import Link
        from repro.netsim.node import Device, Host
        from repro.netsim.packets import Packet

        class Sink(Device):
            def __init__(self, sim, name="sink"):
                super().__init__(sim, name)
                self.received = []

            def handle_packet(self, packet, in_port):
                self.received.append(packet)

        sim = Simulator()
        src, dst = Host(sim, "src"), Sink(sim, "dst")
        link = Link(sim, bandwidth=10 * GBPS)
        link.attach(src, dst)
        link.loss_model = GilbertElliott.from_mean_loss(0.3)
        for _ in range(300):
            src.send(Packet(src="src", dst="dst", payload_size=100))
        sim.run()
        assert link.dropped_packets > 0
        assert len(dst.received) + link.dropped_packets == 300
        # Removing the model restores lossless behaviour.
        link.loss_model = None
        dst.received.clear()
        link.dropped_packets = 0
        for _ in range(50):
            src.send(Packet(src="src", dst="dst", payload_size=100))
        sim.run()
        assert len(dst.received) == 50


# ---------------------------------------------------------------------------
# Loss-seed derivation (pinned contract — referenced from docstrings in
# netsim/link.py and netsim/topology.py)
# ---------------------------------------------------------------------------
class TestLossSeedDerivation:
    def test_loss_seed_derivation_is_deterministic(self):
        """Link i's rng is seeded ``loss_seed + i`` in creation order, so
        two identically-built topologies drop exactly the same packets."""

        def sequences(seed):
            net = build_star(
                Simulator(), 4, with_server=False, loss_rate=0.1, loss_seed=seed
            )
            return [link.loss_rng.random(16).tolist() for link in net.links]

        assert sequences(42) == sequences(42)
        assert sequences(42) != sequences(43)

    def test_link_seeds_offset_by_creation_index(self):
        net = build_star(
            Simulator(), 4, with_server=False, loss_rate=0.1, loss_seed=7
        )
        for index, link in enumerate(net.links):
            expected = np.random.default_rng(7 + index).random(8)
            np.testing.assert_array_equal(link.loss_rng.random(8), expected)


# ---------------------------------------------------------------------------
# Injector unit behaviour
# ---------------------------------------------------------------------------
class TestInjectorUnits:
    def _cluster(self, recovery_armed=True):
        from repro.distributed.runner import build_cluster
        from repro.workloads import get_profile

        return build_cluster(
            2,
            get_profile("dqn"),
            with_server=False,
            use_iswitch=True,
            recovery_armed=recovery_armed,
        )

    def test_install_on_a_bursting_cluster_is_a_typed_error(self):
        # Crash faults under trains used to die deep in the event loop
        # (SimError: time moves forward); now the combination cannot be
        # built, and the error names the selection rule.
        net, workers = self._cluster(recovery_armed=False)
        assert net.sim.transport == "train"
        injector = FaultInjector(net, workers, object(), demo_plan())
        with pytest.raises(ValueError, match="no loss recovery is armed"):
            injector.install()
        assert net.sim.pending_events == 0  # nothing was scheduled

    def test_install_twice_rejected(self):
        net, workers = self._cluster()
        injector = FaultInjector(net, workers, object(), demo_plan())
        injector.install()
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install()

    def test_unknown_worker_target_is_skipped(self):
        net, workers = self._cluster()
        plan = FaultPlan(
            [FaultEvent(1e-4, "worker-crash", "worker99", {"down_for": 1e-3})]
        )
        injector = FaultInjector(net, workers, object(), plan)
        injector.install()
        net.sim.run()
        report = injector.finalize()
        assert report.records[0].status == "skipped"
        assert "no worker matches" in report.records[0].detail

    def test_missing_hooks_skip_with_reason(self):
        net, workers = self._cluster()
        plan = FaultPlan(
            [FaultEvent(1e-4, "worker-crash", "worker0", {"down_for": 1e-3})]
        )
        injector = FaultInjector(net, workers, object(), plan)
        injector.install()
        net.sim.run()
        report = injector.finalize()
        assert report.records[0].status == "skipped"
        assert "hook" in report.records[0].detail

    def test_finalize_settles_pending_to_skipped(self):
        net, workers = self._cluster()
        plan = FaultPlan([FaultEvent(1e9, "switch-reset", "root")])
        injector = FaultInjector(net, workers, object(), plan)
        injector.install()
        report = injector.finalize()  # run never happened
        assert report.records[0].status == "skipped"
        assert not report.ok or report.records[0].status == "skipped"

    def test_burst_skipped_without_loss_tolerance(self):
        net, workers = self._cluster()
        plan = FaultPlan(
            [FaultEvent(1e-4, "link-burst", "*",
                        {"loss": 0.02, "duration": 1e-3})]
        )
        injector = FaultInjector(
            net, workers, object(), plan, loss_tolerant=False
        )
        injector.install()
        net.sim.run()
        report = injector.finalize()
        assert report.records[0].status == "skipped"
        assert "no loss recovery" in report.records[0].detail

    def test_report_ok_semantics(self):
        ok = FaultReport(
            records=[
                FaultRecord(FaultEvent(0, "switch-reset", "r"), "recovered"),
                FaultRecord(FaultEvent(0, "switch-reset", "r"), "skipped"),
            ]
        )
        bad = FaultReport(
            records=[FaultRecord(FaultEvent(0, "switch-reset", "r"), "failed")]
        )
        assert ok.ok and not bad.ok
        assert bad.counts() == {"failed": 1}
        assert len(ok.summary()) == 2


# ---------------------------------------------------------------------------
# Replica resynchronization
# ---------------------------------------------------------------------------
class TestCloneTrainingState:
    def test_clone_matches_weights_and_optimizer(self):
        from repro.distributed.runner import make_algorithm

        src = make_algorithm("dqn", seed=0)
        dst = make_algorithm("dqn", seed=1)
        for _ in range(3):
            src.apply_update(src.compute_gradient())
        clone_training_state(src, dst)
        np.testing.assert_array_equal(src.get_weights(), dst.get_weights())
        assert dst.updates_applied == src.updates_applied
        # One more identical update keeps them identical only if optimizer
        # state (momenta etc.) was carried over too.
        grad = np.ones(src.n_params, dtype=np.float32)
        src.apply_update(grad.copy())
        dst.apply_update(grad.copy())
        np.testing.assert_array_equal(src.get_weights(), dst.get_weights())

    def test_type_mismatch_rejected(self):
        from repro.distributed.runner import make_algorithm

        src = make_algorithm("dqn", seed=0)
        dst = make_algorithm("a2c", seed=0)
        with pytest.raises(TypeError):
            clone_training_state(src, dst)


# ---------------------------------------------------------------------------
# ExperimentConfig / CLI plumbing
# ---------------------------------------------------------------------------
class TestConfigPlumbing:
    def test_resolved_fault_plan_from_path(self, tmp_path):
        path = str(tmp_path / "plan.json")
        demo_plan().save(path)
        config = ExperimentConfig(fault_plan=path)
        assert len(config.resolved_fault_plan()) == 3

    def test_resolved_fault_plan_passthrough(self):
        plan = demo_plan()
        assert ExperimentConfig(fault_plan=plan).resolved_fault_plan() is plan

    def test_resolved_fault_plan_rejects_other_types(self):
        with pytest.raises(ValueError, match="fault_plan"):
            ExperimentConfig(fault_plan=123).resolved_fault_plan()

    def test_fault_plan_arms_recovery_timeout(self):
        assert ExperimentConfig().resolved_recovery_timeout() is None
        assert (
            ExperimentConfig(fault_plan=demo_plan()).resolved_recovery_timeout()
            is not None
        )

    def test_cli_fault_plan_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train", "--strategy", "isw", "--workload", "dqn",
                "--workers", "4", "--iterations", "8",
                "--fault-plan", "examples/chaos_demo.json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[recovered]" in out
        assert "worker-crash" in out

    def test_cli_missing_plan_file_errors_cleanly(self, capsys):
        from repro.cli import main

        code = main(
            ["train", "--strategy", "isw", "--fault-plan", "/nonexistent.json"]
        )
        assert code == 2


# ---------------------------------------------------------------------------
# Acceptance scenario: the demo plan on every registered strategy
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def demo_runs():
    """Demo fault plan (crash+rejoin, Reset, burst window) everywhere."""
    return {
        (mode, strategy): run_cfg(mode, strategy, plan=demo_plan(),
                                  telemetry=True)
        for mode, strategy in ALL_STRATEGIES
    }


@pytest.fixture(scope="module")
def clean_runs():
    """Fault-free twins of ``demo_runs`` for convergence comparison."""
    return {
        (mode, strategy): run_cfg(mode, strategy)
        for mode, strategy in ALL_STRATEGIES
    }


class TestDemoPlanAcceptance:
    @pytest.mark.parametrize("mode,strategy", ALL_STRATEGIES)
    def test_completes_with_structured_report(self, demo_runs, mode, strategy):
        result = demo_runs[(mode, strategy)]
        report = result.fault_report
        assert report is not None
        assert report.ok, report.summary()
        assert len(report.records) == 3

    @pytest.mark.parametrize("mode,strategy", ALL_STRATEGIES)
    def test_worker_crash_recovers_everywhere(self, demo_runs, mode, strategy):
        report = demo_runs[(mode, strategy)].fault_report
        crash = next(
            r for r in report.records if r.event.kind == "worker-crash"
        )
        assert crash.status == "recovered"
        assert crash.recovery_latency > 0

    @pytest.mark.parametrize("mode,strategy", ALL_STRATEGIES)
    def test_reset_and_burst_recover_on_iswitch_only(
        self, demo_runs, mode, strategy
    ):
        report = demo_runs[(mode, strategy)].fault_report
        by_kind = {r.event.kind: r for r in report.records}
        expected = "recovered" if strategy == "isw" else "skipped"
        assert by_kind["switch-reset"].status == expected
        assert by_kind["link-burst"].status == expected

    @pytest.mark.parametrize("mode,strategy", PAUSE_STRATEGIES)
    def test_pause_strategies_reach_bit_identical_weights(
        self, demo_runs, clean_runs, mode, strategy
    ):
        """Barrier strategies defer the crashed worker at an iteration
        boundary, so the numerical trajectory is untouched."""
        faulted = demo_runs[(mode, strategy)].workers[0].algorithm.get_weights()
        clean = clean_runs[(mode, strategy)].workers[0].algorithm.get_weights()
        np.testing.assert_array_equal(faulted, clean)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_iswitch_weights_within_convergence_tolerance(
        self, demo_runs, clean_runs, mode
    ):
        faulted = demo_runs[(mode, "isw")].workers[0].algorithm.get_weights()
        clean = clean_runs[(mode, "isw")].workers[0].algorithm.get_weights()
        assert np.all(np.isfinite(faulted))
        # Real Leave/Join changes membership for a few rounds, so allow a
        # small drift relative to the weight scale.
        assert np.max(np.abs(faulted - clean)) < 0.05 * np.linalg.norm(clean)

    @pytest.mark.parametrize("mode,strategy", ALL_STRATEGIES)
    def test_telemetry_marks_injections_and_recoveries(
        self, demo_runs, mode, strategy
    ):
        snap = demo_runs[(mode, strategy)].telemetry
        injected = len(snap.events_named("fault.injected"))
        recovered = len(snap.events_named("fault.recovered"))
        assert injected >= 1
        assert recovered == injected
        assert snap.value("fault.injected_total") == injected
        assert len(snap.spans_named("fault.recovery")) >= 1

    def test_faulted_run_is_reproducible(self):
        a = run_cfg("sync", "isw", plan=demo_plan(), iterations=8)
        b = run_cfg("sync", "isw", plan=demo_plan(), iterations=8)
        np.testing.assert_array_equal(
            a.workers[0].algorithm.get_weights(),
            b.workers[0].algorithm.get_weights(),
        )
        assert a.elapsed == b.elapsed


# ---------------------------------------------------------------------------
# Strategy-level recovery: burst loss + Leave mid-round (iSwitch modes)
# ---------------------------------------------------------------------------
class TestISwitchRecoveryScenarios:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_help_recovery_under_long_burst(self, mode):
        """A burst window spanning several rounds: Help/FBcast-driven
        retransmission must still finish every iteration."""
        plan = FaultPlan(
            [
                FaultEvent(
                    5e-3, "link-burst", "*",
                    {"loss": 0.05, "duration": 60e-3},
                )
            ]
        )
        result = run_cfg(mode, "isw", plan=plan, telemetry=True, iterations=10)
        assert result.fault_report.ok
        weights = result.workers[0].algorithm.get_weights()
        assert np.all(np.isfinite(weights))
        if mode == "sync":
            assert all(w.iterations_done == 10 for w in result.workers)
        # Recovery machinery actually fired: the switch saw duplicate
        # retransmissions (dedup'd) or clients resent after Help.
        snap = result.telemetry
        assert snap.value("link.packets_dropped") > 0

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_worker_leave_mid_round(self, mode):
        """A crash that lands mid-round drives real Leave/Join + SetH;
        the remaining members must finish the round via the sweep."""
        # A sync-isw iteration is ~90 ms wall (wire transfers dominate the
        # 11.5 ms LGC), and a pending crash is consumed at the target's own
        # iteration boundary — so the crash lands during iteration 1 and
        # the restore arrives well after the Leave has taken effect.
        plan = FaultPlan(
            [FaultEvent(100e-3, "worker-crash", "worker2",
                        {"down_for": 200e-3})]
        )
        result = run_cfg(mode, "isw", plan=plan, telemetry=True, iterations=12)
        report = result.fault_report
        assert report.records[0].status == "recovered"
        weights = result.workers[2].algorithm.get_weights()
        assert np.all(np.isfinite(weights))
        # The rejoined worker resynced: its weights agree with a live one.
        # Sync replicas march in lockstep after the Join; async replicas
        # always differ by whatever in-flight rounds each had applied when
        # the run drained, so the rejoined one only has to sit inside that
        # natural envelope.
        reference = result.workers[0].algorithm.get_weights()
        atol = 1e-3 if mode == "sync" else 2e-2
        np.testing.assert_allclose(weights, reference, atol=atol)

    def test_sync_isw_crashed_worker_misses_iterations(self):
        # Crash consumed at worker1's ~180 ms boundary; the 250 ms outage
        # then spans two-plus full iterations before the Join.
        plan = FaultPlan(
            [FaultEvent(100e-3, "worker-crash", "worker1",
                        {"down_for": 250e-3})]
        )
        result = run_cfg("sync", "isw", plan=plan, iterations=12)
        done = [w.iterations_done for w in result.workers]
        assert done[1] < 12  # crashed worker skipped rounds while down
        assert max(done) == 12

    def test_straggler_slows_only_the_window(self):
        plan = FaultPlan(
            [FaultEvent(10e-3, "straggler", "worker0",
                        {"slowdown": 5.0, "duration": 30e-3})]
        )
        slow = run_cfg("sync", "isw", plan=plan, iterations=10)
        fast = run_cfg("sync", "isw", iterations=10)
        assert slow.fault_report.records[0].status == "recovered"
        assert slow.elapsed > fast.elapsed

    def test_link_degrade_applies_to_any_strategy(self):
        plan = FaultPlan(
            [FaultEvent(5e-3, "link-degrade", "*",
                        {"factor": 4.0, "duration": 40e-3})]
        )
        degraded = run_cfg("sync", "ps", plan=plan, iterations=10)
        clean = run_cfg("sync", "ps", iterations=10)
        assert degraded.fault_report.records[0].status == "recovered"
        assert degraded.elapsed > clean.elapsed
        np.testing.assert_array_equal(
            degraded.workers[0].algorithm.get_weights(),
            clean.workers[0].algorithm.get_weights(),
        )
