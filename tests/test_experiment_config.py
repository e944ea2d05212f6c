"""Tests for the ExperimentConfig facade, repro.distributed.run, and the
strategy registry."""

import hashlib

import numpy as np
import pytest

from repro.distributed import (
    ASYNC_STRATEGIES,
    SYNC_STRATEGIES,
    ExperimentConfig,
    get_strategy,
    register_strategy,
    run,
    strategy_names,
    unregister_strategy,
)


class TestExperimentConfigValidation:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.strategy == "isw"
        assert config.mode == "sync"

    def test_names_normalized_to_lowercase(self):
        config = ExperimentConfig(strategy="ISW", mode="SYNC", workload="DQN")
        assert (config.strategy, config.mode, config.workload) == (
            "isw",
            "sync",
            "dqn",
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "turbo"},
            {"workload": "alphago"},
            {"n_workers": 0},
            {"iterations": 0},
            {"staleness_bound": -1},
            {"loss_rate": 1.0},
            {"loss_rate": -0.1},
            {"recovery_timeout": 0.0},
            {"workers_per_rack": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_recovery_timeout_resolution(self):
        assert ExperimentConfig().resolved_recovery_timeout() is None
        assert (
            ExperimentConfig(loss_rate=1e-3).resolved_recovery_timeout()
            is not None
        )
        assert (
            ExperimentConfig(recovery_timeout=2e-3).resolved_recovery_timeout()
            == 2e-3
        )

    @pytest.mark.parametrize("strategy", ["ps", "ar", "isw", "async-ps"])
    def test_shard_count_rejected_without_ps_shard(self, strategy):
        # Both backends refuse: the check runs before a backend is chosen.
        for backend in ("sim", "live"):
            with pytest.raises(ValueError, match="ps-shard"):
                ExperimentConfig(strategy=strategy, backend=backend, ps_shards=2)

    def test_scheduler_knob_is_gone(self):
        # One scheduler: the field must not grow back.
        with pytest.raises(TypeError):
            ExperimentConfig(scheduler="heap")

    def test_with_overrides_revalidates(self):
        config = ExperimentConfig()
        assert config.with_overrides(n_workers=8).n_workers == 8
        with pytest.raises(ValueError):
            config.with_overrides(n_workers=0)


class TestRunFacadeParity:
    #: What the since-removed ``run_sync``/``run_async`` wrappers returned
    #: for dqn / 3 workers at the last commit that had them: (sha256[:16]
    #: of worker 0's float64 weights, simulated seconds).  Fix a
    #: regression, do not re-pin.
    RUN_SYNC = {
        "ps": ("4edc25055e399ac5", 0.22532311618162984),
        "ar": ("4edc25055e399ac5", 0.12174818457264427),
        "isw": ("b1fd0da7e785bde0", 0.06782530864023797),
    }
    RUN_ASYNC = {
        "ps": ("0280764976377876", 0.1847714539575507),
        "isw": ("19c68fabb0974f0d", 0.0682943955350272),
    }

    @staticmethod
    def _digest(result):
        weights = result.workers[0].algorithm.get_weights()
        return (
            hashlib.sha256(
                np.ascontiguousarray(weights, dtype=np.float64).tobytes()
            ).hexdigest()[:16],
            result.elapsed,
        )

    @pytest.mark.parametrize("strategy", ["ps", "ar", "isw"])
    def test_sync_matches_run_sync(self, strategy):
        new = run(
            ExperimentConfig(
                strategy=strategy,
                workload="dqn",
                n_workers=3,
                iterations=3,
                seed=7,
                telemetry=False,
            )
        )
        assert new.iterations == 3
        assert self._digest(new) == self.RUN_SYNC[strategy]

    @pytest.mark.parametrize("strategy", ["ps", "isw"])
    def test_async_matches_run_async(self, strategy):
        new = run(
            ExperimentConfig(
                strategy=strategy,
                workload="dqn",
                mode="async",
                n_workers=3,
                iterations=4,
                seed=3,
                telemetry=False,
            )
        )
        assert new.iterations == 4
        assert self._digest(new) == self.RUN_ASYNC[strategy]

    def test_telemetry_does_not_change_results(self):
        base = ExperimentConfig(
            strategy="isw", workload="dqn", n_workers=3, iterations=3, seed=1
        )
        on = run(base)
        off = run(base.with_overrides(telemetry=False))
        assert on.elapsed == off.elapsed
        np.testing.assert_array_equal(
            on.workers[0].algorithm.get_weights(),
            off.workers[0].algorithm.get_weights(),
        )
        assert on.telemetry is not None
        assert off.telemetry is None

    def test_loss_rate_rejected_for_non_iswitch(self):
        for strategy, mode in (("ps", "sync"), ("ar", "sync"), ("ps", "async")):
            with pytest.raises(ValueError, match="loss recovery"):
                run(
                    ExperimentConfig(
                        strategy=strategy,
                        mode=mode,
                        iterations=2,
                        loss_rate=1e-3,
                    )
                )


class TestStrategyRegistry:
    def test_derived_tuples_match_registered_values(self):
        assert SYNC_STRATEGIES == ("ps", "ar", "ar-hd", "isw", "ps-shard")
        assert ASYNC_STRATEGIES == ("ps", "isw")
        assert strategy_names("sync") == SYNC_STRATEGIES
        assert strategy_names("async") == ASYNC_STRATEGIES

    def test_unknown_name_error_message_parity(self):
        with pytest.raises(KeyError) as err:
            get_strategy("sync", "bogus")
        assert "unknown sync strategy 'bogus'" in str(err.value)
        assert "'ps', 'ar'" in str(err.value)
        with pytest.raises(KeyError) as err:
            run(ExperimentConfig(strategy="bogus", mode="async"))
        assert "unknown async strategy 'bogus'" in str(err.value)
        assert "('ps', 'isw')" in str(err.value)

    def test_spec_requirements(self):
        assert get_strategy("sync", "ps").requires_server
        assert not get_strategy("sync", "ps").requires_iswitch
        assert get_strategy("sync", "isw").requires_iswitch
        assert get_strategy("async", "isw").requires_iswitch

    def test_custom_strategy_registration(self):
        from repro.distributed.sync import SyncISwitch

        try:

            @register_strategy("sync", "isw2", requires_iswitch=True)
            class Custom(SyncISwitch):
                name = "sync-isw2"

            assert "isw2" in strategy_names("sync")
            result = run(
                ExperimentConfig(
                    strategy="isw2",
                    workload="dqn",
                    n_workers=2,
                    iterations=2,
                    telemetry=False,
                )
            )
            assert result.strategy == "sync-isw2"
            assert result.iterations == 2
        finally:
            unregister_strategy("sync", "isw2")
        assert "isw2" not in strategy_names("sync")

    def test_duplicate_registration_rejected(self):
        from repro.distributed.sync import SyncISwitch, SyncParameterServer

        with pytest.raises(ValueError, match="already registered"):
            register_strategy("sync", "isw")(SyncParameterServer)
        # Re-registering the same class, with the same flags, is
        # idempotent (other flags would rewrite the spec for every later
        # test: sync-isw lost its live backend that way).
        spec = get_strategy("sync", "isw")
        register_strategy(
            "sync",
            "isw",
            requires_iswitch=True,
            supports_live=True,
            supports_multijob=True,
        )(SyncISwitch)
        assert get_strategy("sync", "isw") == spec

    def test_class_without_create_rejected(self):
        with pytest.raises(TypeError, match="create"):
            register_strategy("sync", "nocreate")(object)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            register_strategy("turbo", "x")


class TestAcceptance:
    """The issue's acceptance scenario: a 4-worker iSwitch DQN run with
    telemetry enabled produces link counters and lifecycle spans."""

    def test_full_telemetry_snapshot(self):
        result = run(
            ExperimentConfig(
                strategy="isw", workload="dqn", n_workers=4, iterations=4
            )
        )
        snap = result.telemetry
        assert snap is not None
        # Link counters: tx always, drop series present even at zero.
        assert snap.value("link.tx_packets") > 0
        assert snap.value("link.tx_bytes") > 0
        assert snap.has_metric("link.packets_dropped")
        assert snap.value("link.packets_dropped") == 0.0
        # Segment lifecycle spans from the in-switch engine.
        agg_spans = snap.spans_named("segment.aggregate")
        assert len(agg_spans) > 0
        assert all(s.end >= s.start for s in agg_spans)
        # Per-iteration spans from the sync runner: one per worker per
        # iteration.
        assert len(snap.spans_named("iteration")) == 4 * 4
        assert len(snap.spans_named("compute.lgc")) == 4 * 4
        # Snapshot meta identifies the experiment.
        assert snap.meta["strategy"] == "sync-isw"
        assert snap.meta["n_workers"] == 4

    def test_lossy_run_recovers_and_counts_drops(self):
        result = run(
            ExperimentConfig(
                strategy="isw",
                workload="dqn",
                n_workers=3,
                iterations=2,
                loss_rate=2e-3,
                seed=2,
            )
        )
        assert result.iterations == 2
        snap = result.telemetry
        assert snap.value("link.packets_dropped") > 0
