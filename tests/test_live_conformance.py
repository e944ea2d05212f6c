"""Sim <-> live differential conformance (the live backend's ground truth).

The live backend (`repro.live`) runs the *full* strategy registry for
real: worker processes plus the strategy's server processes (a software
switch, a PS, K PS shards, a ToR->AGG switch tree — or none at all for
the peer-to-peer collectives) exchanging encoded frames over loopback
UDP.  These tests prove it computes *exactly* what the simulator models:
the same seeded gradients through either backend must produce
bit-identical per-round aggregated sums and bit-identical final weights
— per strategy, per fleet size, and including runs where injected
datagram loss forces each strategy's recovery path to reconstruct
rounds.  The async strategies additionally assert their *measured*
staleness against the configured bound.

Everything here is marked ``live`` (excluded from the tier-1 run, see
``pyproject.toml``); socket-based tests also skip when loopback UDP is
unavailable.  The in-process tests at the bottom exercise the protocol
logic of the switch/server/worker classes directly — they are the
coverage backbone for the ``repro.live`` package.
"""

import hashlib
import multiprocessing
import os
import struct
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    MAX_SEG_INDEX,
    SEG_PAYLOAD_BYTES,
    TOS_CONTROL,
    TOS_DATA_UP,
    TOS_NUMERICS_MASK,
    Action,
    ControlMessage,
    DataSegment,
    JoinInfo,
    ProtocolError,
    SegmentPlan,
    decode_frame,
    encode_control,
    encode_data,
)
from repro.distributed.config import ExperimentConfig
from repro.distributed.registry import strategy_specs
from repro.distributed.runner import make_algorithm, run
from repro.live.async_ps import LiveAsyncPsServer, LiveAsyncPsWorker
from repro.live.collective import LiveHdWorker, LiveRingWorker
from repro.live.driver import (
    CHUNK_ELEMS,
    LiveRoundAbandoned,
    decode_control,
    serve,
    shard_ranges,
)
from repro.live.ps import LiveShardWorker, PsServer
from repro.live.runner import (
    TREE_RACK_WIDTH,
    LiveRunError,
    _validate,
    run_live,
)
from repro.live.switch import SoftwareSwitch
from repro.live.transport import (
    LOOPBACK,
    PeerTable,
    UdpEndpoint,
    loopback_available,
)
from repro.live.worker import LiveWorker

pytestmark = pytest.mark.live

LOOPBACK_OK = loopback_available()
needs_loopback = pytest.mark.skipif(
    not LOOPBACK_OK, reason="loopback UDP unavailable in this environment"
)

SEED = 7
ITERATIONS = 3
WORKLOAD = "synth"
LOSS = 0.05
#: Watchdog timeout for lossy conformance runs.  5 % per-frame loss makes
#: most rounds stall at least once; a short timeout keeps recovery fast
#: without changing a bit of the result.
LOSSY_RECOVERY_TIMEOUT = 0.04

#: Every live-capable (mode, strategy) pair — the registry's own flags.
ALL_LIVE = [
    (spec.mode, spec.name) for spec in strategy_specs() if spec.supports_live
]
PAIR_IDS = [f"{mode}-{strategy}" for mode, strategy in ALL_LIVE]


def live_config(strategy, n_workers, mode="sync", **overrides):
    return ExperimentConfig(
        strategy=strategy,
        workload=WORKLOAD,
        mode=mode,
        n_workers=n_workers,
        iterations=ITERATIONS,
        seed=SEED,
        backend="live",
        **overrides,
    )


def sim_config(strategy, n_workers, mode="sync", **overrides):
    # Canonical (rank-order) aggregation is what the live switch always
    # does, and a fixed schedule (the windowed template for async-isw, the
    # paced server for async-ps) is what the live async workers replay;
    # the sim opts in so float32 sums and async apply orders match
    # bit-exactly.  The float64 PS-family sums are order-independent.
    return ExperimentConfig(
        strategy=strategy,
        workload=WORKLOAD,
        mode=mode,
        n_workers=n_workers,
        iterations=ITERATIONS,
        seed=SEED,
        deterministic_aggregation=(strategy == "isw" or mode == "async"),
        **overrides,
    )


#: Clean (no-override) runs are pure functions of (backend, mode,
#: strategy, N) here, so tests share them instead of re-spawning fleets.
_RUN_CACHE = {}


def live_run(mode, strategy, n_workers):
    key = ("live", mode, strategy, n_workers)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run(live_config(strategy, n_workers, mode=mode))
    return _RUN_CACHE[key]


def sim_run(mode, strategy, n_workers):
    key = ("sim", mode, strategy, n_workers)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run(sim_config(strategy, n_workers, mode=mode))
    return _RUN_CACHE[key]


def sim_final_weights(result):
    return {
        rank: np.asarray(worker.algorithm.get_weights(), dtype=np.float64)
        for rank, worker in enumerate(result.workers)
    }


def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def _fleet(n_workers):
    return [
        make_algorithm(WORKLOAD, seed=SEED + rank) for rank in range(n_workers)
    ]


def reference_digests(strategy, n_workers):
    """Per-round aggregated-sum digests from a straight-line re-execution.

    An oracle independent of both backends: same algorithms, same seeds,
    summed whole-vector in rank order — float32 for the switch datapath
    (``isw``, sync or async: the synth gradient stream is weight-
    independent, so pacing cannot change any sum), float64 for the whole
    PS/collective family (``ps``, ``ar``, ``ar-hd``, ``ps-shard`` — f64
    sums of these gradients are exact, hence order-independent, hence
    one shared digest stream).  Chunked summation is elementwise, so
    chunk geometry cannot change the result.
    """
    algorithms = _fleet(n_workers)
    digests = []
    for _ in range(ITERATIONS):
        gradients = [
            np.asarray(a.compute_gradient(), dtype=np.float32)
            for a in algorithms
        ]
        if strategy == "isw":
            total = gradients[0].copy()
            for gradient in gradients[1:]:
                total += gradient
            update = total.astype(np.float64) / n_workers
        else:
            total = np.zeros(gradients[0].shape, dtype=np.float64)
            for gradient in gradients:
                total += gradient
            update = total / n_workers
        digests.append(_digest(total))
        for algorithm in algorithms:
            algorithm.apply_update(update)
    return digests


def tree_reference_digests(n_workers):
    """Straight-line oracle for the hierarchical switch tree: float32
    partial sums per rack (rank order), partials summed at the
    aggregation switch in ToR order — the tree's actual float32
    association, which differs from the flat left-to-right one."""
    algorithms = _fleet(n_workers)
    digests = []
    for _ in range(ITERATIONS):
        gradients = [
            np.asarray(a.compute_gradient(), dtype=np.float32)
            for a in algorithms
        ]
        partials = []
        for start in range(0, n_workers, TREE_RACK_WIDTH):
            partial = gradients[start].copy()
            for gradient in gradients[start + 1 : start + TREE_RACK_WIDTH]:
                partial += gradient
            partials.append(partial)
        total = partials[0].copy()
        for partial in partials[1:]:
            total += partial
        digests.append(_digest(total))
        update = total.astype(np.float64) / n_workers
        for algorithm in algorithms:
            algorithm.apply_update(update)
    return digests


def async_ps_reference(n_workers):
    """Straight-line oracle for async-PS: a server replica applies pushes
    in rank-cyclic order; worker ``w`` pulls (and digests) the replica
    weights right after apply number ``k*N + w``.  Returns the per-rank
    digest streams and per-rank final weights."""
    replica = make_algorithm(WORKLOAD, seed=SEED + 10_000)
    workers = _fleet(n_workers)
    digests = {rank: [] for rank in range(n_workers)}
    finals = {}
    for _ in range(ITERATIONS):
        gradients = [
            np.asarray(w.compute_gradient(), dtype=np.float32)
            for w in workers
        ]
        for rank in range(n_workers):
            replica.apply_update(gradients[rank].astype(np.float64))
            weights = np.ascontiguousarray(
                replica.get_weights(), dtype=np.float64
            ).copy()
            digests[rank].append(_digest(weights))
            workers[rank].set_weights(weights)
            finals[rank] = weights
    return digests, finals


def oracle_digests(mode, strategy, n_workers):
    assert (mode, strategy) != ("async", "ps")  # per-rank: use async_ps_reference
    return reference_digests(strategy, n_workers)


def total_drops(result):
    stats = result.server_stats
    if stats is not None:
        return stats.get("drops_injected", 0)
    return sum(
        counters.get("drops_injected", 0)
        for counters in result.worker_counters.values()
    )


def total_recoveries(result):
    return sum(
        counters.get("help_sent", 0)
        + counters.get("retransmissions", 0)
        + counters.get("resend_requests_sent", 0)
        for counters in result.worker_counters.values()
    )


@needs_loopback
class TestSimLiveConformance:
    """The full matrix: every live strategy, N=2 and N=4, bit for bit."""

    @pytest.mark.parametrize("n_workers", [2, 4])
    @pytest.mark.parametrize(("mode", "strategy"), ALL_LIVE, ids=PAIR_IDS)
    def test_final_weights_bit_identical(self, mode, strategy, n_workers):
        live = live_run(mode, strategy, n_workers)
        sim = sim_run(mode, strategy, n_workers)

        assert live.backend == "live"
        live_weights = live.final_weights
        expected = sim_final_weights(sim)
        assert set(live_weights) == set(range(n_workers))
        for rank in range(n_workers):
            assert live_weights[rank].dtype == np.float64
            assert np.array_equal(live_weights[rank], expected[rank]), (
                f"{mode}-{strategy} rank {rank}: live and sim weights diverge"
            )
        if (mode, strategy) != ("async", "ps"):
            # The synchronized invariant: every rank holds the same model.
            # (async-ps ranks pull different replica versions by design.)
            for rank in range(1, n_workers):
                assert np.array_equal(live_weights[rank], live_weights[0])

    @pytest.mark.parametrize(("mode", "strategy"), ALL_LIVE, ids=PAIR_IDS)
    def test_aggregated_sums_match_oracle(self, mode, strategy):
        """The per-round sums themselves (not just their consequences),
        against a re-execution oracle independent of both backends."""
        live = live_run(mode, strategy, 4)
        if (mode, strategy) == ("async", "ps"):
            digests, _ = async_ps_reference(4)
            assert live.worker_digests == digests
        else:
            assert live.round_digests == oracle_digests(
                mode, strategy, 4
            )

    @pytest.mark.parametrize("strategy", ["isw", "ps"], ids=["isw", "ps"])
    def test_async_digests_match_paced_simulator(self, strategy):
        """The async sim records digests too (paced mode): compare the
        two backends' streams directly, not only through the oracle."""
        live = live_run("async", strategy, 4)
        sim = sim_run("async", strategy, 4)
        if strategy == "ps":
            assert live.worker_digests == sim.worker_digests
        else:
            assert live.round_digests == sim.round_digests

    def test_ps_family_shares_one_digest_stream(self):
        """f64 sums are exact, so four different exchange topologies
        (star PS, ring, halving/doubling, K shards) must land on the
        same bits — live, for real, over four different wire protocols."""
        streams = {
            strategy: live_run("sync", strategy, 4).round_digests
            for strategy in ("ps", "ar", "ar-hd", "ps-shard")
        }
        reference = reference_digests("ps", 4)
        for strategy, stream in streams.items():
            assert stream == reference, f"{strategy} diverged from the family"


@needs_loopback
class TestLossRecovery:
    """5 % injected datagram loss per strategy: recovery must reconstruct
    the exact same bits as a clean run."""

    @pytest.mark.parametrize(("mode", "strategy"), ALL_LIVE, ids=PAIR_IDS)
    def test_lossy_run_stays_bit_identical(self, mode, strategy):
        n_workers = 4
        lossy = run(
            live_config(
                strategy,
                n_workers,
                mode=mode,
                loss_rate=LOSS,
                recovery_timeout=LOSSY_RECOVERY_TIMEOUT,
            )
        )
        assert total_drops(lossy) > 0, "loss injection never fired"
        assert total_recoveries(lossy) > 0, (
            "loss was injected but no recovery action was ever taken"
        )
        clean = live_run(mode, strategy, n_workers)
        for rank, weights in clean.final_weights.items():
            assert np.array_equal(
                lossy.final_weights[rank], weights
            ), f"{mode}-{strategy} rank {rank}: recovery changed the weights"
        if (mode, strategy) == ("async", "ps"):
            assert (
                lossy.worker_digests
                == clean.worker_digests
            )
        else:
            assert (
                lossy.round_digests == clean.round_digests
            )

    def test_isw_loss_recovery_mechanics_observable(self):
        """For the paper's strategy, check the *mechanism* too: Helps
        flowed and engine dedup absorbed the retransmission storm."""
        lossy = run(live_config("isw", 4, loss_rate=LOSS))
        stats = lossy.server_stats
        assert stats["drops_injected"] > 0
        helps = sum(
            counters["help_sent"]
            for counters in lossy.worker_counters.values()
        )
        assert helps > 0, "loss was injected but no Help was ever sent"
        assert stats["engine_duplicates_dropped"] > 0
        assert lossy.round_digests == reference_digests("isw", 4)


@needs_loopback
class TestTreeConformance:
    """N=6 overflows one rack (workers_per_rack=4): two ToR switches
    under one aggregation switch, nested live processes."""

    N = 6

    def test_tree_matches_sim_and_oracle(self):
        live = live_run("sync", "isw", self.N)
        sim = sim_run("sync", "isw", self.N)
        expected = sim_final_weights(sim)
        for rank in range(self.N):
            assert np.array_equal(
                live.final_weights[rank], expected[rank]
            ), f"rank {rank}: tree live and sim weights diverge"
        assert live.round_digests == tree_reference_digests(self.N)
        stats = live.server_stats
        # Both tiers actually did their jobs: ToRs forwarded partials up,
        # the aggregation switch's finals were relayed back down.
        assert stats["upstream_forwards"] > 0
        assert stats["parent_relays"] > 0

    def test_tree_loss_recovery_stays_bit_identical(self):
        lossy = run(live_config("isw", self.N, loss_rate=LOSS))
        assert lossy.server_stats["drops_injected"] > 0
        clean = live_run("sync", "isw", self.N)
        assert lossy.round_digests == clean.round_digests
        for rank, weights in clean.final_weights.items():
            assert np.array_equal(
                lossy.final_weights[rank], weights
            )


#: Recorded at the parent commit (b7cd21a) from the two classes this PR
#: deleted as degenerate cases — ``LivePsWorker`` (= ``LiveShardWorker``
#: with one shard) and the sync-only ``LiveWorker`` (= the merged
#: ``LiveWorker`` with ``staleness_bound=0``): strategy, N, config
#: overrides, per-round digests, digest of every rank's final weights.
PARENT_RECORDINGS = {
    "ps-n2": (
        "ps",
        2,
        {},
        ["7474e99331f6771c", "94d174bf7ec29698", "0d96c4d168338ffe"],
        "5db4bf206a9150d1",
    ),
    "ps-n2-loss": (
        "ps",
        2,
        {"loss_rate": LOSS, "recovery_timeout": LOSSY_RECOVERY_TIMEOUT},
        ["7474e99331f6771c", "94d174bf7ec29698", "0d96c4d168338ffe"],
        "5db4bf206a9150d1",
    ),
    "isw-n2": (
        "isw",
        2,
        {},
        ["c0e14eef6a6f9b72", "99ed211f23534da3", "fb2a84ef6bf5b080"],
        "ea3ea898292d0055",
    ),
    "isw-n6-tree": (
        "isw",
        6,
        {},
        ["03c3bce41efef1f0", "b1ecff5e6b641fd7", "998ba3fc3fd847c7"],
        "d9617936f477db16",
    ),
    "isw-n2-fp16": (
        "isw",
        2,
        {"codec": "fp16"},
        ["06ebb72e6355286d", "cd6edd310b6b8c71", "e1ad07e3ae84aadb"],
        "80b31dc01bc0bb36",
    ),
}


@needs_loopback
class TestDeletedClassesWereDegenerateCases:
    """``ps`` is ``ps-shard`` with one shard and ``sync-isw`` is
    ``async-isw`` with S=0 — exactly, against the deleted classes' own
    output rather than against an argument."""

    @pytest.mark.parametrize("name", sorted(PARENT_RECORDINGS))
    def test_merged_class_reproduces_parent_recording(self, name):
        strategy, n_workers, overrides, digests, weights = PARENT_RECORDINGS[
            name
        ]
        if overrides:
            result = run(live_config(strategy, n_workers, **overrides))
        else:
            result = live_run("sync", strategy, n_workers)
        assert result.round_digests == digests
        for rank in range(n_workers):
            assert _digest(result.final_weights[rank]) == weights, rank
        if "loss_rate" in overrides:
            assert total_drops(result) > 0, "loss injection never fired"


@needs_loopback
class TestAsyncStaleness:
    """The staleness bound is *measured* from the live run, not assumed:
    async-isw workers record their applied-version at compute time and
    the real gap at apply time; the async-PS server records the gap
    between each push's weight version and its apply number."""

    def test_async_isw_staleness_bound_holds_and_is_reached(self):
        bound = 1
        result = run(
            live_config(
                "isw", 2, mode="async", staleness_bound=bound, telemetry=True
            )
        )
        # Greedy schedule with S=1 over 3 rounds: gaps are [0, 1, 1].
        assert result.max_staleness == bound
        assert result.mean_staleness == pytest.approx(2 / 3)
        for rank, counters in result.worker_counters.items():
            assert counters["version_gap_max"] <= bound, f"rank {rank}"
            assert counters["version_gap_count"] == ITERATIONS
        # And the same numbers are visible through telemetry, per node.
        snapshot = result.telemetry
        assert snapshot is not None
        for rank in range(2):
            assert (
                snapshot.value("live.version_gap_max", node=f"worker{rank}")
                == bound
            )
        # Despite running ahead, the result is the synchronous result.
        assert result.round_digests == reference_digests("isw", 2)

    def test_async_isw_default_bound(self):
        result = live_run("async", "isw", 4)  # staleness_bound defaults to 3
        # 3 rounds under S=3: gaps are [0, 1, 2] on every worker.
        assert result.max_staleness == min(ITERATIONS - 1, 3)
        assert result.mean_staleness == pytest.approx(1.0)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_async_ps_staleness_measured_at_server(self, n_workers):
        result = live_run("async", "ps", n_workers)
        # Cyclic applies: cycle-0 pushes carry version 0 (staleness = w);
        # every later push trails by exactly N-1 applies.
        assert result.max_staleness == n_workers - 1
        assert result.mean_staleness == pytest.approx(
            (n_workers - 1) * (ITERATIONS - 0.5) / ITERATIONS
        )


def codec_reference_digests(codec_name, n_workers):
    """Straight-line oracle for compressed rounds, independent of both
    backends: quantize each contribution onto the codec grid, sum in rank
    order (fp32), apply the downstream rounding (``finalize_sum``)."""
    from repro.core.compression import get_codec

    codec = get_codec(codec_name)
    algorithms = _fleet(n_workers)
    digests = []
    for _ in range(ITERATIONS):
        contributions = [
            codec.roundtrip(
                np.asarray(a.compute_gradient(), dtype=np.float32)
            )
            for a in algorithms
        ]
        total = contributions[0].copy()
        for contribution in contributions[1:]:
            total += contribution
        total = codec.finalize_sum(total)
        digests.append(_digest(total))
        update = total.astype(np.float64) / n_workers
        for algorithm in algorithms:
            algorithm.apply_update(update)
    return digests


@needs_loopback
class TestCodecConformance:
    """Compressed frames over real UDP equal the simulator bit-for-bit."""

    @pytest.mark.parametrize("codec", ["fp16", "int32-bs", "topk"])
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_final_weights_bit_identical(self, codec, n_workers):
        live = run(live_config("isw", n_workers, codec=codec))
        sim = run(sim_config("isw", n_workers, codec=codec))

        live_weights = live.final_weights
        expected = sim_final_weights(sim)
        for rank in range(n_workers):
            assert np.array_equal(live_weights[rank], expected[rank]), (
                f"{codec}, rank {rank}: live and sim weights diverge"
            )
        for rank in range(1, n_workers):
            assert np.array_equal(live_weights[rank], live_weights[0])
        # Every frame that reached the switch carried the right tag.
        assert live.server_stats.get("wrong_codec", 0) == 0

    @pytest.mark.parametrize("codec", ["fp16", "int32-bs", "topk"])
    def test_aggregated_sums_match_oracle(self, codec):
        live = run(live_config("isw", 4, codec=codec))
        assert live.round_digests == codec_reference_digests(
            codec, 4
        )

    def test_codec_loss_recovery_stays_bit_identical(self):
        """Help-path retransmission of compressed frames is idempotent."""
        live = run(live_config("isw", 4, codec="int32-bs", loss_rate=LOSS))
        assert live.server_stats["drops_injected"] > 0
        assert live.round_digests == codec_reference_digests(
            "int32-bs", 4
        )


@needs_loopback
class TestLiveRunPlumbing:
    def test_telemetry_and_result_shape(self):
        result = run(live_config("isw", 2, telemetry=True))
        assert result.n_workers == 2
        assert result.iterations == ITERATIONS
        assert result.elapsed > 0
        assert result.wall_elapsed >= result.elapsed
        stats = result.server_stats
        # 2 workers x 3 rounds x ceil(23424/366) chunks, plus control.
        assert stats["engine_completions"] == ITERATIONS * 64
        assert stats["frames_rx"] > stats["data_rx"] > 0
        snapshot = result.telemetry
        assert snapshot is not None
        assert snapshot.meta["backend"] == "live"
        # Every child attributes its own cost: loop CPU and blocking polls.
        children = {"aggregator": stats}
        children.update(
            (f"worker{rank}", counters)
            for rank, counters in result.worker_counters.items()
        )
        assert len(children) == 3
        for node, counters in children.items():
            for name in ("cpu_ms", "waits"):
                assert counters[name] > 0, (node, name)
                assert snapshot.value(f"live.{name}", node=node) == counters[name]

    def test_cli_live_run(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--backend",
                "live",
                "--strategy",
                "sync-ps",
                "-n",
                "2",
                "--workload",
                WORKLOAD,
                "--iterations",
                "2",
                "--seed",
                str(SEED),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "live (loopback UDP)" in out
        assert "switch frames:" in out

    def test_cli_live_async_reports_staleness(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--backend",
                "live",
                "--mode",
                "async",
                "--strategy",
                "isw",
                "-n",
                "2",
                "--workload",
                WORKLOAD,
                "--iterations",
                "2",
                "--seed",
                str(SEED),
                "--staleness-bound",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "live (loopback UDP)" in out
        assert "mean staleness:" in out


class TestLiveRunValidation:
    def test_every_registered_strategy_is_live_capable(self):
        """PR goal made durable: the whole registry — all seven (mode,
        strategy) pairs — runs live."""
        assert all(spec.supports_live for spec in strategy_specs())
        assert len(ALL_LIVE) == 7

    def test_unflagged_spec_rejected(self):
        """The refusal names the live-capable pairs from the registry's
        own flags (there is no second hand-kept list)."""
        spec = SimpleNamespace(
            supports_live=False, name="ar", requires_iswitch=False
        )
        with pytest.raises(LiveRunError, match="no live backend") as excinfo:
            _validate(live_config("ar", 2), spec, tree=False)
        for pair_id in PAIR_IDS:
            assert pair_id in str(excinfo.value)

    def test_fault_plan_rejected(self):
        config = live_config("isw", 2)
        config.fault_plan = object()
        with pytest.raises(LiveRunError, match="simulator-only"):
            run_live(config)

    def test_async_tree_rejected(self):
        with pytest.raises(LiveRunError, match="synchronous rounds"):
            run_live(live_config("isw", 6, mode="async"))

    def test_peer_to_peer_needs_two_workers(self):
        with pytest.raises(ValueError, match=">= 2 workers"):
            run_live(live_config("ar", 1))

    def test_halving_doubling_needs_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            run_live(live_config("ar-hd", 3))

    def test_job_id_requires_iswitch(self):
        config = live_config("ps", 2)
        config.job_id = 1
        with pytest.raises(ValueError, match="job_id"):
            run_live(config)

    def test_codec_requires_flat_sync_isw(self):
        for config in (
            live_config("isw", 6, codec="fp16"),  # tree
            live_config("isw", 2, mode="async", codec="fp16"),
        ):
            with pytest.raises(ValueError, match="sync-isw"):
                run_live(config)

    def test_simulator_only_codec_rejected(self):
        with pytest.raises(ValueError, match="loss model"):
            run_live(live_config("isw", 2, codec="int8"))


class TestFailureModes:
    """The live backend must fail loudly and structurally, never hang."""

    @needs_loopback
    def test_port_bind_conflict_raises(self):
        with UdpEndpoint() as taken:
            with pytest.raises(OSError):
                UdpEndpoint(port=taken.port)

    def test_loopback_unavailable_raises_before_spawning(self, monkeypatch):
        import repro.live.transport as transport

        monkeypatch.setattr(transport, "loopback_available", lambda: False)
        with pytest.raises(LiveRunError, match="loopback UDP is unavailable"):
            run_live(live_config("isw", 2))

    def test_recv_times_out_with_structured_error(self):
        from repro.live.runner import _recv, _recv_port

        parent, child = multiprocessing.Pipe()
        try:
            with pytest.raises(LiveRunError, match="timed out waiting"):
                _recv(parent, "worker 0", timeout=0.02)
            # A child that reports something other than its port.
            child.send(("ok", {}))
            with pytest.raises(LiveRunError, match="unexpected"):
                _recv_port(parent, "switch", timeout=1.0)
            # A child that reports a startup error.
            child.send(("error", "boom"))
            with pytest.raises(LiveRunError, match="failed to start"):
                _recv_port(parent, "switch", timeout=1.0)
        finally:
            parent.close()
            child.close()

    @needs_loopback
    def test_worker_exception_mid_run_is_structured_error(self, monkeypatch):
        """A worker raising (not just dying) must report its traceback."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("crash injection requires the fork start method")
        import repro.live.worker as worker_module

        def explode(self, iterations):
            raise RuntimeError("injected training failure")

        monkeypatch.setattr(worker_module.LiveWorker, "train", explode)
        with pytest.raises(LiveRunError, match="worker 0 failed") as excinfo:
            run_live(live_config("isw", 2, recovery_timeout=0.02))
        # The error carries what is needed to replay the failing run.
        message = str(excinfo.value)
        assert "injected training failure" in message
        for fact in ("sync-isw", "n_workers=2", f"seed={SEED}", "loss_rate=0.0"):
            assert fact in message

    @needs_loopback
    def test_worker_death_mid_run_is_structured_error(self, monkeypatch):
        """A worker process dying must surface as LiveRunError naming the
        worker — not as a hung run waiting on a pipe forever."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("crash injection requires the fork start method")
        import repro.live.worker as worker_module

        monkeypatch.setattr(
            worker_module.LiveWorker,
            "train",
            lambda self, iterations: os._exit(13),
        )
        with pytest.raises(LiveRunError, match="worker 0"):
            run_live(live_config("isw", 2, recovery_timeout=0.02))


# ---------------------------------------------------------------------------
# In-process protocol-logic tests (no child processes; coverage backbone)
# ---------------------------------------------------------------------------
class TinyAlgorithm:
    """A deterministic stand-in small enough for single-frame rounds."""

    def __init__(self, n_elements=5, seed=0):
        self._rng = np.random.default_rng(seed)
        self._weights = np.zeros(n_elements, dtype=np.float64)

    def get_weights(self):
        return self._weights

    def set_weights(self, weights):
        self._weights = np.asarray(weights, dtype=np.float64).copy()

    def compute_gradient(self):
        return self._rng.standard_normal(self._weights.size).astype(
            np.float32
        )

    def apply_update(self, update):
        self._weights = self._weights - update

    def final_average_reward(self):
        return 0.0


def segment_frames(rank, round_index, vector):
    plan = SegmentPlan(vector.size)
    return [
        encode_data(s)
        for s in plan.split(vector, round_index, sender=f"worker{rank}")
    ]


def tiny_reference(n_workers, iterations, n_elements=5, float64=False):
    """Straight-line digests for a TinyAlgorithm fleet (rank-order sums)."""
    algorithms = [TinyAlgorithm(n_elements, seed=r) for r in range(n_workers)]
    digests = []
    for _ in range(iterations):
        dtype = np.float64 if float64 else np.float32
        total = np.zeros(n_elements, dtype=dtype)
        for algorithm in algorithms:
            total += algorithm.compute_gradient()
        digests.append(_digest(total))
        for algorithm in algorithms:
            algorithm.apply_update(total.astype(np.float64) / n_workers)
    return digests


def run_in_threads(runnables, timeout=60.0):
    """Start one thread per callable; join all, failing on a hang."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except BaseException as exc:  # surfaced to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=wrap, args=(fn,), daemon=True)
        for fn in runnables
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "worker thread hung"
    if errors:
        raise errors[0]
    return True


def run_session(servers, workers, iterations):
    """A thread-hosted session: every ``(role, endpoint)`` in ``servers``
    is driven by the one ``serve`` loop while every worker joins and
    trains; once the workers have left, every server loop must drain."""
    deadline = time.monotonic() + 60.0
    threads = [
        threading.Thread(
            target=serve,
            args=(role, endpoint, deadline),
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        for role, endpoint in servers
    ]
    for thread in threads:
        thread.start()
    try:
        run_in_threads(
            [lambda w=w: (w.join(), w.train(iterations)) for w in workers]
        )
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "a server never drained"
    finally:
        for _, endpoint in servers:
            endpoint.close()
        for worker in workers:
            worker.endpoint.close()


def run_switch_session(
    n_workers, iterations, loss_rate=0.0, staleness_bound=0
):
    """One flat switch, ``n_workers`` iSwitch workers; ``staleness_bound``
    0 is sync-isw, anything above it async-isw — one worker class."""
    switch_endpoint = UdpEndpoint()
    switch = SoftwareSwitch(
        n_workers=n_workers, loss_rate=loss_rate, loss_seed=3
    )
    workers = [
        LiveWorker(
            rank=rank,
            n_workers=n_workers,
            algorithm=TinyAlgorithm(n_elements=5, seed=rank),
            endpoint=UdpEndpoint(),
            switch_addr=switch_endpoint.address,
            recovery_timeout=0.05,
            max_recovery_attempts=40,
            staleness_bound=staleness_bound,
        )
        for rank in range(n_workers)
    ]
    run_session([(switch, switch_endpoint)], workers, iterations)
    return switch, workers


def chatter(target, stop, period=0.05):
    """Trickle unrelated (ACK control) frames at ``target`` until ``stop``
    is set: a 20 Hz stream that used to restart a worker's whole watchdog
    timeout with every datagram."""
    frame = encode_control(ControlMessage(Action.ACK, value=1))
    with UdpEndpoint() as noisy:
        while not stop.wait(period):
            noisy.send(frame, target)


def assert_abandons_under_chatter(worker):
    """``worker`` faces a dead server while strangers keep its socket
    busy; it must raise the typed abandonment inside ~its budget."""
    stop = threading.Event()
    noise = threading.Thread(
        target=chatter, args=(worker.endpoint.address, stop), daemon=True
    )
    noise.start()
    outcome = []

    def train():
        try:
            worker.train(1)
        except LiveRoundAbandoned as exc:
            outcome.append(exc)

    trainer = threading.Thread(target=train, daemon=True)
    started = time.monotonic()
    trainer.start()
    try:
        trainer.join(timeout=5.0)
        elapsed = time.monotonic() - started
        assert not trainer.is_alive(), (
            f"still waiting after {elapsed:.1f}s with "
            f"watchdog_timeouts == {worker.counters['watchdog_timeouts']}"
        )
    finally:
        stop.set()
        noise.join(timeout=2.0)
    assert len(outcome) == 1, "the round was not abandoned"
    error = outcome[0]
    assert (error.rank, error.round_index, error.attempts) == (0, 0, 2)
    assert error.missing  # names what never arrived
    assert worker.counters["watchdog_timeouts"] == 3
    assert elapsed < 2.5  # budget 0.7 s, generous for a loaded host


class TestSoftwareSwitchLogic:
    def addr(self, rank):
        return (LOOPBACK, 40000 + rank)

    def join_all(self, switch, n):
        outs = []
        for rank in range(n):
            frame = encode_control(
                ControlMessage(
                    Action.JOIN, JoinInfo(rank=rank, n_elements=5, n_chunks=1)
                )
            )
            outs.append(switch.handle_frame(frame, self.addr(rank)))
        return outs

    def test_join_ack_and_seth_barrier(self):
        switch = SoftwareSwitch(n_workers=2)
        first, second = self.join_all(switch, 2)
        # First join: ACK only — membership incomplete, no go signal yet.
        assert [decode_frame(f)[1].action for f, _ in first] == [Action.ACK]
        # Second join: ACK plus a SetH broadcast to *both* members.
        actions = [decode_frame(f)[1] for f, _ in second]
        assert actions[0].action == Action.ACK
        assert [m.action for m in actions[1:]] == [Action.SETH] * 2
        assert all(m.value == 2 for m in actions[1:])
        # A late duplicate join is re-acked and re-sent the go signal 1:1.
        retry = switch.handle_frame(
            encode_control(ControlMessage(Action.JOIN, JoinInfo(rank=0))),
            self.addr(0),
        )
        assert [decode_frame(f)[1].action for f, _ in retry] == [
            Action.ACK,
            Action.SETH,
        ]
        assert switch.counters["joins"] == 2  # the retry is not a new member

    def test_aggregation_and_broadcast(self):
        switch = SoftwareSwitch(n_workers=2)
        self.join_all(switch, 2)
        vectors = [
            np.arange(5, dtype=np.float32),
            np.full(5, 0.5, dtype=np.float32),
        ]
        assert switch.handle_frame(
            segment_frames(0, 0, vectors[0])[0], self.addr(0)
        ) == []
        out = switch.handle_frame(
            segment_frames(1, 0, vectors[1])[0], self.addr(1)
        )
        # Completion: the float32 rank-order sum broadcast to both members.
        assert [a for _, a in out] == [self.addr(0), self.addr(1)]
        _, result = decode_frame(out[0][0])
        np.testing.assert_array_equal(result.data, vectors[0] + vectors[1])
        assert switch.counters["results_broadcast"] == 1

    def test_non_member_and_garbage_frames_ignored(self):
        switch = SoftwareSwitch(n_workers=2)
        self.join_all(switch, 2)
        stranger = ("10.0.0.9", 1)
        frame = segment_frames(0, 0, np.ones(5, dtype=np.float32))[0]
        assert switch.handle_frame(frame, stranger) == []
        assert switch.counters["data_rx"] == 0
        assert switch.counters["non_member"] == 1
        # ...and a stranger's control message never reaches the role.
        reset = encode_control(ControlMessage(Action.RESET))
        assert switch.handle_frame(reset, stranger) == []
        assert switch.counters["non_member"] == 2
        assert switch.handle_frame(b"\xde\xad\xbe\xef", self.addr(0)) == []
        assert switch.counters["decode_errors"] == 1
        # Downstream frames at the switch ingress are not aggregated.
        down = encode_data(
            DataSegment(seg=0, data=np.ones(5, dtype=np.float32)),
            downstream=True,
        )
        assert switch.handle_frame(down, self.addr(0)) == []

    def test_rejoined_rank_no_longer_owns_its_old_address(self):
        switch = SoftwareSwitch(n_workers=2)
        self.join_all(switch, 2)
        moved = (LOOPBACK, 40099)
        switch.handle_frame(
            encode_control(ControlMessage(Action.JOIN, JoinInfo(rank=0))),
            moved,
        )
        assert switch.counters["joins"] == 2
        frame = segment_frames(0, 0, np.ones(5, dtype=np.float32))[0]
        assert switch.handle_frame(frame, self.addr(0)) == []
        assert switch.counters["non_member"] == 1
        assert switch.counters["data_rx"] == 0
        assert switch.engine.stats.contributions == 0
        # From its new address the same frame is rank 0's contribution.
        assert switch.handle_frame(frame, moved) == []
        assert switch.engine.stats.contributions == 1

    def test_loss_injection_drops_before_the_engine(self):
        # random.Random(0).random() == 0.844..., below a 0.9 loss rate.
        switch = SoftwareSwitch(n_workers=1, loss_rate=0.9, loss_seed=0)
        self.join_all(switch, 1)
        frame = segment_frames(0, 0, np.ones(5, dtype=np.float32))[0]
        assert switch.handle_frame(frame, self.addr(0)) == []
        assert switch.counters["drops_injected"] == 1
        assert switch.counters["data_rx"] == 0

    def test_all_members_leaving_ends_the_job(self):
        switch = SoftwareSwitch(n_workers=2)
        self.join_all(switch, 2)
        assert not switch.done
        for rank in range(2):
            switch.handle_frame(
                encode_control(ControlMessage(Action.LEAVE)), self.addr(rank)
            )
        assert switch.done
        assert switch.counters["leaves"] == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            SoftwareSwitch(n_workers=0)
        with pytest.raises(ValueError, match="loss_rate"):
            SoftwareSwitch(n_workers=1, loss_rate=1.0)

    def test_guard_branches_drop_unexpected_frames(self):
        switch = SoftwareSwitch(n_workers=2)
        self.join_all(switch, 2)
        # A frame tagged for another job never reaches this engine.
        other_job = encode_control(
            ControlMessage(Action.HELP, value=0, job=3)
        )
        assert switch.handle_frame(other_job, self.addr(0)) == []
        assert switch.counters["wrong_job"] == 1
        # A Join with no JoinInfo payload decodes but is a defect: the
        # encoder refuses to produce one, so build the raw frame.
        from repro.core.protocol import TOS_CONTROL

        bad_join = bytes((TOS_CONTROL, Action.JOIN))
        assert switch.handle_frame(bad_join, self.addr(0)) == []
        assert switch.counters["decode_errors"] == 1
        # A member's SetH is the shared role's, as on the simulator's
        # switch: applied and ACKed (the live twin used to ignore it).
        seth = encode_control(ControlMessage(Action.SETH, value=2))
        (ack, to), = switch.handle_frame(seth, self.addr(0))
        assert (decode_frame(ack)[1].action, to) == (Action.ACK, self.addr(0))
        assert switch.engine.threshold == 2

    def test_simulator_only_codec_rejected(self):
        from repro.core.compression import get_codec

        with pytest.raises(ValueError, match="wire format"):
            SoftwareSwitch(n_workers=1, codec=get_codec("int8"))
        with pytest.raises(ValueError, match="wire format"):
            LiveWorker(
                rank=0,
                n_workers=1,
                algorithm=TinyAlgorithm(),
                endpoint=None,
                switch_addr=self.addr(0),
                codec=get_codec("int8"),
            )

    def test_codec_switch_drops_mismatched_tags(self):
        from repro.core.compression import get_codec

        codec = get_codec("fp16")
        switch = SoftwareSwitch(n_workers=2, codec=codec)
        self.join_all(switch, 2)
        # Untagged fp32 upstream frames are the wrong numerics: dropped.
        fp32_frame = segment_frames(0, 0, np.ones(5, dtype=np.float32))[0]
        assert switch.handle_frame(fp32_frame, self.addr(0)) == []
        assert switch.counters["wrong_codec"] == 1
        assert switch.counters["data_rx"] == 0

    def test_codec_switch_aggregates_and_broadcasts_on_grid(self):
        from repro.core.compression import get_codec
        from repro.core.protocol import TOS_DATA_DOWN, TOS_NUMERICS_MASK

        codec = get_codec("fp16")
        switch = SoftwareSwitch(n_workers=2, codec=codec)
        self.join_all(switch, 2)
        plan = SegmentPlan(
            5,
            bytes_per_element=codec.bytes_per_element,
            frame_overhead=codec.frame_overhead,
        )
        vectors = [
            np.full(5, 1.0, dtype=np.float32),
            np.full(5, 2.0 ** -11, dtype=np.float32),  # off-grid sum
        ]
        for rank, vector in enumerate(vectors):
            frames = [
                encode_data(s, codec=codec)
                for s in plan.split(vector, 0, sender=f"worker{rank}")
            ]
            out = switch.handle_frame(frames[0], self.addr(rank))
        # Completion: broadcast frames carry the codec's tag and values
        # rounded onto the fp16 grid (1.0 + 2**-11 is not representable).
        assert len(out) == 2
        tos, result = decode_frame(out[0][0])
        assert (tos & ~TOS_NUMERICS_MASK) == TOS_DATA_DOWN
        assert tos & TOS_NUMERICS_MASK == codec.wire_tag
        expected = codec.finalize_sum(vectors[0] + vectors[1])
        np.testing.assert_array_equal(result.data, expected)
        np.testing.assert_array_equal(
            result.data, np.full(5, 1.0, dtype=np.float32)
        )


class TestTreeSwitchLogic:
    """What is the *driver's* in ToR mode — the parent barrier and its
    queue, the parent-Join timer, Leave propagation — frame by frame; the
    ToR rules themselves are tests/test_switch_role.py."""

    PARENT = (LOOPBACK, 45000)

    def addr(self, rank):
        return (LOOPBACK, 40100 + rank)

    def make_tor(self):
        tor = SoftwareSwitch(n_workers=2, parent_addr=self.PARENT, rank=1)
        for rank in range(2):
            tor.handle_frame(
                encode_control(
                    ControlMessage(
                        Action.JOIN,
                        JoinInfo(rank=rank, n_elements=5, n_chunks=1),
                    )
                ),
                self.addr(rank),
            )
        return tor

    def complete_seg0(self, tor):
        vector = np.ones(5, dtype=np.float32)
        tor.handle_frame(segment_frames(0, 0, vector)[0], self.addr(0))
        return tor.handle_frame(segment_frames(1, 0, vector)[0], self.addr(1))

    def test_completion_buffers_until_parent_seth(self):
        tor = self.make_tor()
        # Parent barrier not reached: the completed partial is buffered,
        # not broadcast, not sent upstream.
        assert self.complete_seg0(tor) == []
        assert tor.counters["upstream_forwards"] == 1
        assert tor.counters["results_broadcast"] == 0
        assert not tor.done
        # Parent SetH flushes the pending partials upstream.
        out = tor.handle_frame(
            encode_control(ControlMessage(Action.SETH, value=2)), self.PARENT
        )
        assert [a for _, a in out] == [self.PARENT]
        tos, partial = decode_frame(out[0][0])
        np.testing.assert_array_equal(
            partial.data, np.full(5, 2.0, dtype=np.float32)
        )
        # A later completion forwards straight up, no buffering.
        vector = np.ones(5, dtype=np.float32)
        tor.handle_frame(segment_frames(0, 1, vector)[0], self.addr(0))
        out = tor.handle_frame(segment_frames(1, 1, vector)[0], self.addr(1))
        assert [a for _, a in out] == [self.PARENT]
        # The parent is not a member: a contribution from it is dropped.
        assert tor.handle_frame(segment_frames(0, 2, vector)[0], self.PARENT) == []
        assert tor.engine.live_segments == 0

    def test_help_before_the_parent_barrier_queues_with_the_partial(self):
        tor = self.make_tor()
        assert self.complete_seg0(tor) == []
        # A member times out while the parent is still admitting ToRs: the
        # role re-offers the partial and asks the parent; both wait in the
        # queue behind the partial itself and flush on the parent's SetH.
        help_frame = encode_control(ControlMessage(Action.HELP, value=0))
        assert tor.handle_frame(help_frame, self.addr(0)) == []
        out = tor.handle_frame(
            encode_control(ControlMessage(Action.SETH, value=2)), self.PARENT
        )
        assert [a for _, a in out] == [self.PARENT] * 3
        kinds = [type(decode_frame(f)[1]).__name__ for f, _ in out]
        assert kinds == ["DataSegment", "DataSegment", "ControlMessage"]
        assert not tor._up_pending

    def test_parent_join_is_a_timer_until_the_parent_seth(self):
        """The ToR's periodic parent Join is a timer-expiry on the role
        (frames out, no I/O), not code inside a private serve loop."""
        tor = SoftwareSwitch(n_workers=2, parent_addr=self.PARENT, rank=1)
        out = tor.on_timer(10.0)
        assert [a for _, a in out] == [self.PARENT]
        join = decode_frame(out[0][0])[1]
        assert join.action == Action.JOIN
        assert (join.value.member_type, join.value.rank) == ("switch", 1)
        assert tor.on_timer(10.1) == []  # not due again yet
        assert len(tor.on_timer(10.6)) == 1
        tor.handle_frame(
            encode_control(ControlMessage(Action.SETH, value=2)), self.PARENT
        )
        assert tor.on_timer(99.0) == []  # admitted: the timer is disarmed
        # A flat switch has no parent and therefore no timer.
        assert SoftwareSwitch(n_workers=1).on_timer(0.0) == []

    def test_leave_propagates_upstream_once(self):
        tor = self.make_tor()
        tor.handle_frame(
            encode_control(ControlMessage(Action.SETH, value=2)), self.PARENT
        )
        leave = encode_control(ControlMessage(Action.LEAVE))
        assert tor.handle_frame(leave, self.addr(0)) == []
        assert not tor.done
        out = tor.handle_frame(leave, self.addr(1))
        assert [a for _, a in out] == [self.PARENT]
        assert decode_frame(out[0][0])[1].action == Action.LEAVE
        assert tor.done
        # A duplicate member leave does not re-notify the parent.
        assert tor.handle_frame(leave, self.addr(1)) == []


@needs_loopback
class TestPeerExchangeLogic:
    """Unit-level checks on the collective workers (no training loop)."""

    def peers(self, n):
        return {rank: (LOOPBACK, 42000 + rank) for rank in range(n)}

    def test_constructor_validation(self):
        algorithm = TinyAlgorithm()
        with pytest.raises(ValueError, match=">= 2 workers"):
            LiveRingWorker(0, 1, algorithm, None, {0: (LOOPBACK, 1)})
        with pytest.raises(ValueError, match="cover ranks"):
            LiveRingWorker(0, 2, algorithm, None, {0: (LOOPBACK, 1)})
        with pytest.raises(ValueError, match="loss_rate"):
            LiveRingWorker(
                0, 2, algorithm, None, self.peers(2), loss_rate=1.0
            )
        with pytest.raises(ValueError, match="power-of-two"):
            LiveHdWorker(0, 3, algorithm, None, self.peers(3))

    def test_ingest_rejects_garbage_and_counts_errors(self):
        peer = self.peers(2)[1]
        worker = LiveRingWorker(0, 2, TinyAlgorithm(), None, self.peers(2))
        worker._ingest(b"Z???", peer)  # unknown tag
        worker._ingest(b"E\x01", peer)  # truncated header
        assert worker.counters["decode_errors"] == 2
        # Resend request for a message never sent: served silently later.
        import struct

        worker._ingest(b"R" + struct.pack("<BBII", 1, 0, 0, 0), peer)
        assert worker.counters["resends_served"] == 0
        # A peer finish frame is recorded.
        worker._ingest(b"F\x01", peer)
        assert 1 in worker._peer_done

    def test_last_finisher_still_announces_itself(self):
        """The rank that finishes last already holds every peer's ``F``;
        it must still send its own, or every peer lingers to the 30 s
        hard stop (the lossy ar-hd run used to, every time)."""
        with UdpEndpoint() as mine, UdpEndpoint() as peer:
            worker = LiveRingWorker(
                0, 2, TinyAlgorithm(), mine, {0: mine.address, 1: peer.address}
            )
            worker._peer_done.add(1)
            worker._leave()
            got = peer.recv(timeout=1.0)
            assert got is not None and got[0] == b"F\x00"

    def test_stale_rounds_pruned_from_buffers(self):
        import struct

        peer = self.peers(2)[1]
        worker = LiveRingWorker(0, 2, TinyAlgorithm(), None, self.peers(2))
        # A whole fragment: rank 1's step-0 block is 2 of the 5 elements.
        payload = np.zeros(2, dtype="<f8").tobytes()
        worker._ingest(
            b"E" + struct.pack("<BBIII", 1, 0, 0, 0, 0) + payload, peer
        )
        assert (1, 0, 0, 0) in worker._pending
        worker._round = 5
        worker._prune_caches()
        assert worker._pending == {}
        # Frames for long-gone rounds are dropped at ingest too.
        worker._ingest(
            b"E" + struct.pack("<BBIII", 1, 0, 1, 0, 0) + payload, peer
        )
        assert worker._pending == {}
        assert worker.counters["stale_frames"] >= 2


@needs_loopback
class TestCollectiveInProcess:
    """Thread-hosted ring / halving-doubling sessions: the full exchange
    without forked processes."""

    def run_collective(self, cls, n_workers, n_elements, loss_rate=0.0):
        endpoints = [UdpEndpoint() for _ in range(n_workers)]
        peers = {rank: e.address for rank, e in enumerate(endpoints)}
        workers = [
            cls(
                rank=rank,
                n_workers=n_workers,
                algorithm=TinyAlgorithm(n_elements, seed=rank),
                endpoint=endpoints[rank],
                peers=peers,
                recovery_timeout=0.05,
                max_recovery_attempts=20,
                loss_rate=loss_rate,
                loss_seed=3,
            )
            for rank in range(n_workers)
        ]
        try:
            run_in_threads(
                [lambda w=w: w.train(ITERATIONS) for w in workers]
            )
        finally:
            for endpoint in endpoints:
                endpoint.close()
        return workers

    def test_ring_matches_float64_reference(self):
        # 3 workers x 5 elements: uneven chunk split (2/2/1).
        workers = self.run_collective(LiveRingWorker, 3, 5)
        expected = tiny_reference(3, ITERATIONS, float64=True)
        for worker in workers:
            assert worker.round_digests == expected
        np.testing.assert_array_equal(
            workers[0].algorithm.get_weights(),
            workers[2].algorithm.get_weights(),
        )

    def test_ring_multi_fragment_messages(self):
        # Chunks above 183 float64 elements must fragment and reassemble.
        n_elements = 2 * (2 * CHUNK_ELEMS + 7)
        workers = self.run_collective(LiveRingWorker, 2, n_elements)
        expected = tiny_reference(
            2, ITERATIONS, n_elements=n_elements, float64=True
        )
        for worker in workers:
            assert worker.round_digests == expected

    def test_halving_doubling_matches_ring_bits(self):
        ring = self.run_collective(LiveRingWorker, 4, 12)
        hd = self.run_collective(LiveHdWorker, 4, 12)
        expected = tiny_reference(4, ITERATIONS, n_elements=12, float64=True)
        assert ring[0].round_digests == expected
        assert hd[0].round_digests == expected
        np.testing.assert_array_equal(
            ring[0].algorithm.get_weights(), hd[0].algorithm.get_weights()
        )

    def test_collective_gives_up_when_peer_is_silent(self):
        """A dead peer: the watchdog must abandon the round, not hang."""
        with UdpEndpoint() as mine, UdpEndpoint() as silent:
            worker = LiveRingWorker(
                rank=0,
                n_workers=2,
                algorithm=TinyAlgorithm(n_elements=4),
                endpoint=mine,
                peers={0: mine.address, 1: silent.address},
                recovery_timeout=0.01,
                max_recovery_attempts=2,
            )
            with pytest.raises(LiveRoundAbandoned, match="abandoned") as info:
                worker.train(1)
            assert worker.counters["watchdog_timeouts"] >= 2
            # Typed: who gave up, on what, after how much effort.
            error = info.value
            assert (error.rank, error.round_index, error.attempts) == (0, 0, 2)
            assert error.missing == [(1, 0, 0, 0)]  # rank 1, phase 0, step 0

    @pytest.mark.parametrize("cls", [LiveRingWorker, LiveHdWorker])
    def test_lossy_session_recovers_bit_identically(self, cls):
        workers = self.run_collective(cls, 2, 8, loss_rate=0.3)
        drops = sum(w.counters["drops_injected"] for w in workers)
        requests = sum(w.counters["resend_requests_sent"] for w in workers)
        assert drops > 0, "loss injection never fired"
        assert requests > 0, "drops happened but nobody asked for a resend"
        assert sum(w.counters["resends_served"] for w in workers) > 0
        expected = tiny_reference(2, ITERATIONS, n_elements=8, float64=True)
        for worker in workers:
            assert worker.round_digests == expected


class TestShardLogic:
    def test_shard_ranges_cover_and_partition(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert shard_ranges(6, 2) == [(0, 3), (3, 6)]

    def test_constructor_and_join_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            LiveShardWorker(0, 2, TinyAlgorithm(), None, [])
        worker = LiveShardWorker(
            0, 2, TinyAlgorithm(), None, [(LOOPBACK, 1)]
        )
        with pytest.raises(RuntimeError, match="join"):
            worker.train(1)


@needs_loopback
class TestPsFamilyInProcess:
    """Thread-hosted PS sessions.  ``ps`` is the one-shard input of the
    same :class:`LiveShardWorker` that runs ``ps-shard``."""

    def run_ps_session(self, n_elements, n_shards, loss_rate=0.0):
        endpoints = [UdpEndpoint() for _ in range(n_shards)]
        servers = [
            PsServer(n_workers=2, loss_rate=loss_rate, loss_seed=3)
            for _ in endpoints
        ]
        workers = [
            LiveShardWorker(
                rank=rank,
                n_workers=2,
                algorithm=TinyAlgorithm(n_elements, seed=rank),
                endpoint=UdpEndpoint(),
                shard_addrs=[e.address for e in endpoints],
                recovery_timeout=0.05,
                max_recovery_attempts=40,
            )
            for rank in range(2)
        ]
        run_session(list(zip(servers, endpoints)), workers, ITERATIONS)
        return servers, workers

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_session_matches_float64_reference(self, n_shards):
        # Shard 0's slice spans more than one 183-element chunk either way.
        n_elements = 2 * CHUNK_ELEMS + 40
        servers, workers = self.run_ps_session(n_elements, n_shards)
        expected = tiny_reference(
            2, ITERATIONS, n_elements=n_elements, float64=True
        )
        for worker in workers:
            assert worker.round_digests == expected
        np.testing.assert_array_equal(
            workers[0].algorithm.get_weights(),
            workers[1].algorithm.get_weights(),
        )
        chunks_per_round = sum(
            -(-(hi - lo) // CHUNK_ELEMS)
            for lo, hi in shard_ranges(n_elements, n_shards)
        )
        assert (
            sum(s.counters["chunks_summed"] for s in servers)
            == chunks_per_round * ITERATIONS
        )

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_lossy_session_recovers_bit_identically(self, n_shards):
        servers, workers = self.run_ps_session(20, n_shards, loss_rate=0.3)
        assert sum(s.counters["drops_injected"] for s in servers) > 0
        assert sum(w.counters["help_sent"] for w in workers) > 0
        expected = tiny_reference(2, ITERATIONS, n_elements=20, float64=True)
        for worker in workers:
            assert worker.round_digests == expected

    def test_watchdog_is_not_starved_by_unrelated_traffic(self):
        """A dead server plus a 20 Hz trickle of unrelated frames: the
        worker must still abandon within its recovery budget
        (0.1 + 0.2 + 0.4 = 0.7 s).  Restarting the timeout on every
        datagram, as every collect loop but the collectives' used to,
        left it waiting with ``watchdog_timeouts == 0``."""
        with UdpEndpoint() as endpoint, UdpEndpoint() as blackhole:
            worker = LiveShardWorker(
                rank=0,
                n_workers=1,
                algorithm=TinyAlgorithm(),
                endpoint=endpoint,
                shard_addrs=[blackhole.address],  # bound but never served
                recovery_timeout=0.1,
                max_recovery_attempts=2,
            )
            worker._joined = True  # pretend the join happened
            assert_abandons_under_chatter(worker)


class TestAsyncPsServerLogic:
    """LiveAsyncPsServer.handle_frame, frame by frame (pure logic)."""

    def addr(self, rank):
        return (LOOPBACK, 43000 + rank)

    def make_server(self, n_workers=2, n_elements=5, **kwargs):
        return LiveAsyncPsServer(
            n_workers=n_workers,
            replica=TinyAlgorithm(n_elements, seed=99),
            **kwargs,
        )

    def join_all(self, server, n):
        import struct

        for rank in range(n):
            server.handle_frame(
                b"J" + struct.pack("<BI", rank, server.n_elements),
                self.addr(rank),
            )

    def push(self, rank, cycle, vector, version=0, chunk=0):
        import struct

        return (
            b"U"
            + struct.pack("<BIII", rank, cycle, chunk, version)
            + vector.astype("<f4").tobytes()
        )

    def test_join_barrier_and_wrong_geometry(self):
        import struct

        server = self.make_server()
        first = server.handle_frame(
            b"J" + struct.pack("<BI", 0, 5), self.addr(0)
        )
        assert [f for f, _ in first] == [b"A"]
        second = server.handle_frame(
            b"J" + struct.pack("<BI", 1, 5), self.addr(1)
        )
        assert [f for f, _ in second] == [b"A", b"G", b"G"]
        late = server.handle_frame(
            b"J" + struct.pack("<BI", 0, 5), self.addr(0)
        )
        assert [f for f, _ in late] == [b"A", b"G"]
        # A join with mismatched model geometry is refused outright.
        bad = server.handle_frame(
            b"J" + struct.pack("<BI", 0, 7), self.addr(0)
        )
        assert bad == []
        assert server.counters["decode_errors"] == 1

    def test_out_of_order_pushes_apply_cyclically(self):
        server = self.make_server()
        self.join_all(server, 2)
        g0 = np.arange(5, dtype=np.float32)
        g1 = np.full(5, 0.5, dtype=np.float32)
        # Rank 1 arrives first: buffered, nothing applied.
        assert server.handle_frame(self.push(1, 0, g1), self.addr(1)) == []
        assert server.server_updates == 0
        # Rank 0 arrives: both applies fire, oldest first, each answered
        # with that rank's pull.
        out = server.handle_frame(self.push(0, 0, g0), self.addr(0))
        assert server.server_updates == 2
        assert [addr for _, addr in out] == [self.addr(0), self.addr(1)]
        # The replica walked g0 then g1 in float64.
        np.testing.assert_array_equal(
            server.replica.get_weights(),
            -(g0.astype(np.float64) + g1.astype(np.float64)),
        )
        # Measured staleness: apply 0 gap 0, apply 1 gap 1 (version 0).
        assert server.counters["updates"] == 2
        assert server.counters["staleness_max"] == 1
        assert server.counters["staleness_total"] == 1

    def test_duplicate_pushes_dropped_at_every_stage(self):
        server = self.make_server()
        self.join_all(server, 2)
        g = np.ones(5, dtype=np.float32)
        server.handle_frame(self.push(1, 0, g), self.addr(1))
        # Duplicate of a buffered (not yet applied) push.
        server.handle_frame(self.push(1, 0, g), self.addr(1))
        assert server.counters["duplicates_dropped"] == 1
        server.handle_frame(self.push(0, 0, g), self.addr(0))
        # Duplicate of an already-applied push.
        server.handle_frame(self.push(0, 0, g), self.addr(0))
        assert server.counters["duplicates_dropped"] == 2
        assert server.server_updates == 2

    def test_pull_resend_served_from_cache(self):
        import struct

        server = self.make_server(n_workers=1)
        self.join_all(server, 1)
        out = server.handle_frame(
            self.push(0, 0, np.ones(5, dtype=np.float32)), self.addr(0)
        )
        resend = server.handle_frame(
            b"H" + struct.pack("<BI", 0, 1), self.addr(0)
        )
        assert resend == [(out[0][0], self.addr(0))]
        assert server.counters["resends_served"] == 1
        # A request for a cycle not yet applied: the worker must retry.
        assert (
            server.handle_frame(
                b"H" + struct.pack("<BI", 0, 9), self.addr(0)
            )
            == []
        )

    def test_loss_injection_drops_pushes(self):
        # random.Random(0).random() == 0.844..., below a 0.9 loss rate.
        server = self.make_server(n_workers=1, loss_rate=0.9, loss_seed=0)
        self.join_all(server, 1)
        assert (
            server.handle_frame(
                self.push(0, 0, np.ones(5, dtype=np.float32)), self.addr(0)
            )
            == []
        )
        assert server.counters["drops_injected"] == 1
        assert server.server_updates == 0

    def test_leave_completes_and_malformed_frames_counted(self):
        server = self.make_server(n_workers=1)
        self.join_all(server, 1)
        assert not server.done
        server.handle_frame(b"L\x00", self.addr(0))
        assert server.done
        assert server.handle_frame(b"", self.addr(0)) == []
        assert server.handle_frame(b"U\x00", self.addr(0)) == []
        assert server.counters["decode_errors"] >= 2

    def test_strangers_and_truncated_pushes_never_reach_the_replica(self):
        """Same membership/ingest as the sync PS: a push is credited to
        the joined address (not the rank byte), and a chunk of the wrong
        length is refused before it is stored — so the real chunk that
        follows is not mistaken for its duplicate."""
        server = self.make_server()
        self.join_all(server, 2)
        g = np.ones(5, dtype=np.float32)
        stranger = (LOOPBACK, 43999)
        assert server.handle_frame(self.push(0, 0, g), stranger) == []
        assert server.counters["non_member"] == 1
        assert server.handle_frame(self.push(0, 0, g[:3]), self.addr(0)) == []
        assert server.counters["decode_errors"] == 1
        assert server.handle_frame(self.push(0, 0, g, chunk=7), self.addr(0)) == []
        assert server.counters["decode_errors"] == 2
        assert server.server_updates == 0 and server._partial == {}
        # The well-formed push still applies.
        assert len(server.handle_frame(self.push(0, 0, g), self.addr(0))) == 1
        assert server.server_updates == 1
        # A stranger's Leave does not count towards ``done``.
        server.handle_frame(b"L\x00", stranger)
        server.handle_frame(b"L\x01", self.addr(0))
        assert not server.done

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            self.make_server(n_workers=0)
        with pytest.raises(ValueError, match="loss_rate"):
            self.make_server(loss_rate=1.0)


@needs_loopback
class TestAsyncInProcess:
    """Thread-hosted async sessions (bounded-staleness isw, async PS)."""

    def test_async_isw_lossy_session_recovers_bit_identically(self):
        """Loss under pipelining: the watchdog retransmit/Help path and
        the ahead-of-round buffering both fire, and the bits still match
        the synchronous reference."""
        switch, workers = run_switch_session(
            2, iterations=5, loss_rate=0.3, staleness_bound=2
        )
        assert switch.counters["drops_injected"] > 0
        assert sum(w.counters["watchdog_timeouts"] for w in workers) > 0
        expected = tiny_reference(2, 5)
        for worker in workers:
            assert worker.round_digests == expected
            assert worker.counters["version_gap_max"] <= 2

    def test_async_worker_rejects_negative_bound_and_needs_join(self):
        with pytest.raises(ValueError, match="staleness_bound"):
            LiveWorker(
                rank=0,
                n_workers=1,
                algorithm=TinyAlgorithm(),
                endpoint=None,
                switch_addr=(LOOPBACK, 1),
                staleness_bound=-1,
            )
        worker = LiveWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            endpoint=None,
            switch_addr=(LOOPBACK, 1),
            staleness_bound=3,
        )
        with pytest.raises(RuntimeError, match="join"):
            worker.train(1)

    def run_async_ps(self, n_workers, n_elements, loss_rate=0.0):
        server_endpoint = UdpEndpoint()
        server = LiveAsyncPsServer(
            n_workers=n_workers,
            replica=TinyAlgorithm(n_elements, seed=99),
            loss_rate=loss_rate,
            loss_seed=3,
        )
        workers = [
            LiveAsyncPsWorker(
                rank=rank,
                n_workers=n_workers,
                algorithm=TinyAlgorithm(n_elements, seed=rank),
                endpoint=UdpEndpoint(),
                server_addr=server_endpoint.address,
                recovery_timeout=0.05,
            )
            for rank in range(n_workers)
        ]
        run_session([(server, server_endpoint)], workers, ITERATIONS)
        return server, workers

    def async_ps_tiny_reference(self, n_workers, n_elements):
        # Straight-line replica walk: rank-cyclic applies, digest after
        # each rank's own apply.
        replica = TinyAlgorithm(n_elements, seed=99)
        fleet = [TinyAlgorithm(n_elements, seed=r) for r in range(n_workers)]
        expected = {rank: [] for rank in range(n_workers)}
        for _ in range(ITERATIONS):
            gradients = [w.compute_gradient() for w in fleet]
            for rank in range(n_workers):
                replica.apply_update(gradients[rank].astype(np.float64))
                expected[rank].append(
                    _digest(
                        np.ascontiguousarray(
                            replica.get_weights(), dtype=np.float64
                        )
                    )
                )
        return expected

    def test_async_ps_session_matches_replica_walk(self):
        n_workers, n_elements = 2, 5
        server, workers = self.run_async_ps(n_workers, n_elements)
        expected = self.async_ps_tiny_reference(n_workers, n_elements)
        for rank, worker in enumerate(workers):
            assert worker.round_digests == expected[rank], f"rank {rank}"
        assert server.counters["updates"] == n_workers * ITERATIONS
        assert server.counters["staleness_max"] == n_workers - 1
        # Workers measured their own version gaps from the pull stamps.
        assert all(
            w.counters["version_gap_max"] <= n_workers - 1 for w in workers
        )

    def test_async_ps_lossy_session_recovers_bit_identically(self):
        """Dropped pushes must be retransmitted and lost pulls re-served
        from the server's cycle cache, without double-applying anything."""
        server, workers = self.run_async_ps(2, 5, loss_rate=0.3)
        assert server.counters["drops_injected"] > 0
        assert sum(w.counters["help_sent"] for w in workers) > 0
        assert server.counters["updates"] == 2 * ITERATIONS
        expected = self.async_ps_tiny_reference(2, 5)
        for rank, worker in enumerate(workers):
            assert worker.round_digests == expected[rank], f"rank {rank}"

    def test_async_ps_worker_requires_join(self):
        worker = LiveAsyncPsWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            endpoint=None,
            server_addr=(LOOPBACK, 1),
        )
        with pytest.raises(RuntimeError, match="join"):
            worker.train(1)


@needs_loopback
class TestTreeInProcess:
    """A full two-rack tree in threads: AGG + 2 ToRs + 4 workers."""

    def test_tree_session_matches_nested_reference(self):
        n_elements, rack = 5, 2
        agg_endpoint = UdpEndpoint()
        agg = SoftwareSwitch(n_workers=2)
        tor_endpoints = [UdpEndpoint() for _ in range(2)]
        tors = [
            SoftwareSwitch(
                n_workers=rack, parent_addr=agg_endpoint.address, rank=index
            )
            for index in range(2)
        ]
        workers = [
            LiveWorker(
                rank=rank,
                n_workers=rack,  # the worker's barrier is its rack's SetH
                algorithm=TinyAlgorithm(n_elements, seed=rank),
                endpoint=UdpEndpoint(),
                switch_addr=tor_endpoints[rank // rack].address,
                recovery_timeout=0.05,
                max_recovery_attempts=20,
            )
            for rank in range(4)
        ]
        run_session(
            [(agg, agg_endpoint)] + list(zip(tors, tor_endpoints)),
            workers,
            ITERATIONS,
        )
        # The tree's float32 association: per-rack partials, then the
        # partials in ToR order.
        fleet = [TinyAlgorithm(n_elements, seed=r) for r in range(4)]
        expected = []
        for _ in range(ITERATIONS):
            gradients = [w.compute_gradient() for w in fleet]
            partials = [
                gradients[0] + gradients[1],
                gradients[2] + gradients[3],
            ]
            total = partials[0] + partials[1]
            expected.append(_digest(total))
            for worker in fleet:
                worker.apply_update(total.astype(np.float64) / 4)
        for worker in workers:
            assert worker.round_digests == expected
        for tor in tors:
            assert tor.counters["upstream_forwards"] == ITERATIONS
            assert tor.counters["parent_relays"] == ITERATIONS
        assert agg.counters["results_broadcast"] == ITERATIONS
        np.testing.assert_array_equal(
            workers[0].algorithm.get_weights(),
            workers[3].algorithm.get_weights(),
        )


class TestPsServerLogic:
    def addr(self, rank):
        return (LOOPBACK, 41000 + rank)

    def up(self, rank, round_index, chunk, vector):
        import struct

        return (
            b"U"
            + struct.pack("<BII", rank, round_index, chunk)
            + vector.astype("<f4").tobytes()
        )

    def join(self, rank, n_elements):
        import struct

        return b"J" + struct.pack("<BI", rank, n_elements)

    def join_all(self, server, n, n_elements=3):
        for rank in range(n):
            server.handle_frame(self.join(rank, n_elements), self.addr(rank))

    def test_join_and_go_barrier(self):
        server = PsServer(n_workers=2)
        first = server.handle_frame(self.join(0, 3), self.addr(0))
        assert [f for f, _ in first] == [b"A"]
        second = server.handle_frame(self.join(1, 3), self.addr(1))
        assert [f for f, _ in second] == [b"A", b"G", b"G"]
        late = server.handle_frame(self.join(0, 3), self.addr(0))
        assert [f for f, _ in late] == [b"A", b"G"]
        assert server.counters["joins"] == 2  # the retry is not a new member
        # The sync Join carries the model geometry, like the async one:
        # a mismatched join is refused outright.
        assert server.handle_frame(self.join(0, 7), self.addr(0)) == []
        assert server.counters["decode_errors"] == 1

    def test_rank_order_float64_sum_and_dedup(self):
        server = PsServer(n_workers=2)
        self.join_all(server, 2, n_elements=2)
        a = np.array([1.0, 2.0], dtype=np.float32)
        b = np.array([0.5, -1.5], dtype=np.float32)
        assert server.handle_frame(self.up(1, 0, 0, b), self.addr(1)) == []
        assert server.handle_frame(self.up(1, 0, 0, b), self.addr(1)) == []
        assert server.counters["duplicates_dropped"] == 1
        out = server.handle_frame(self.up(0, 0, 0, a), self.addr(0))
        assert [addr for _, addr in out] == [self.addr(0), self.addr(1)]
        down = out[0][0]
        assert down[:1] == b"D"
        total = np.frombuffer(down, dtype="<f8", offset=9)
        np.testing.assert_array_equal(
            total, (a.astype(np.float64) + b.astype(np.float64))
        )
        # A retransmission racing completion is dropped, not re-summed.
        assert server.handle_frame(self.up(0, 0, 0, a), self.addr(0)) == []
        assert server.counters["duplicates_dropped"] == 2

    def test_stranger_rank_cannot_contribute(self):
        """Hostile wire (a): with N=2, rank 0's chunk plus a ``U`` naming
        never-joined rank 9 used to complete the round and broadcast
        ``[101, 102, 103]`` as its sum.  The sender is the joined
        address, never the rank byte."""
        server = PsServer(n_workers=2)
        self.join_all(server, 2)
        real = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        forged = np.full(3, 100.0, dtype=np.float32)
        assert server.handle_frame(self.up(0, 0, 0, real), self.addr(0)) == []
        stranger = (LOOPBACK, 41999)
        assert server.handle_frame(self.up(9, 0, 0, forged), stranger) == []
        assert server.counters["non_member"] == 1
        # A member cannot speak for another rank either: from rank 0's
        # address the forged frame is just rank 0's duplicate.
        assert server.handle_frame(self.up(9, 0, 0, forged), self.addr(0)) == []
        assert server.counters["duplicates_dropped"] == 1
        assert server.counters["chunks_summed"] == 0
        out = server.handle_frame(self.up(1, 0, 0, real), self.addr(1))
        total = np.frombuffer(out[0][0], dtype="<f8", offset=9)
        np.testing.assert_array_equal(total, [2.0, 4.0, 6.0])

    def test_rejoined_rank_no_longer_owns_its_old_address(self):
        server = PsServer(n_workers=2)
        self.join_all(server, 2)
        moved = (LOOPBACK, 41998)
        server.handle_frame(self.join(0, 3), moved)
        vector = np.ones(3, dtype=np.float32)
        assert server.handle_frame(self.up(0, 0, 0, vector), self.addr(0)) == []
        assert server.counters["non_member"] == 1
        assert server._sums.pending == {}
        # Rank 0 speaks from its new address; its old one stays a stranger.
        assert server.handle_frame(self.up(0, 0, 0, vector), moved) == []
        assert list(server._sums.pending[(0, 0)]) == [0]
        out = server.handle_frame(self.up(1, 0, 0, vector), self.addr(1))
        assert [addr for _, addr in out] == [moved, self.addr(1)]

    def test_stranger_leave_does_not_end_the_job(self):
        """Hostile wire (b): ``L\\x05`` from a stranger plus rank 0's real
        Leave used to make ``done`` true while rank 1 was still training."""
        server = PsServer(n_workers=2)
        self.join_all(server, 2)
        server.handle_frame(b"L\x05", (LOOPBACK, 41999))
        assert server.counters["non_member"] == 1
        server.handle_frame(b"L\x00", self.addr(0))
        assert not server.done
        # Nor can rank 0 leave on rank 1's behalf.
        server.handle_frame(b"L\x01", self.addr(0))
        assert not server.done
        server.handle_frame(b"L\x01", self.addr(1))
        assert server.done
        assert server.counters["leaves"] == 2

    def test_truncated_chunk_rejected_before_it_is_stored(self):
        """Hostile wire (c): one truncated ``U`` chunk used to be stored,
        blow up the sum with a ``ValueError`` once the round filled, and
        then shadow every retransmission as a "duplicate" — that (round,
        chunk) never completed."""
        server = PsServer(n_workers=2)
        self.join_all(server, 2)
        vector = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        short = self.up(0, 0, 0, vector[:2])
        assert server.handle_frame(short, self.addr(0)) == []
        assert server.counters["decode_errors"] == 1
        assert server._sums.pending == {}
        # A chunk index outside the vector is refused the same way.
        assert server.handle_frame(self.up(0, 0, 4, vector), self.addr(0)) == []
        assert server.counters["decode_errors"] == 2
        # The retransmitted, intact chunk is accepted and the round sums.
        assert server.handle_frame(self.up(0, 0, 0, vector), self.addr(0)) == []
        out = server.handle_frame(self.up(1, 0, 0, vector), self.addr(1))
        assert [addr for _, addr in out] == [self.addr(0), self.addr(1)]
        assert server.counters["duplicates_dropped"] == 0
        assert server.counters["chunks_summed"] == 1

    def test_resend_served_from_cache(self):
        import struct

        server = PsServer(n_workers=1)
        self.join_all(server, 1)
        vector = np.ones(3, dtype=np.float32)
        out = server.handle_frame(self.up(0, 0, 0, vector), self.addr(0))
        resend = server.handle_frame(
            b"H" + struct.pack("<BII", 0, 0, 0), self.addr(0)
        )
        assert resend == [(out[0][0], self.addr(0))]
        assert server.counters["resends_served"] == 1
        # Unknown (round, chunk): nothing to serve yet.
        assert (
            server.handle_frame(
                b"H" + struct.pack("<BII", 0, 5, 0), self.addr(0)
            )
            == []
        )

    def test_loss_injection_drops_gradients(self):
        # random.Random(0).random() == 0.844..., below a 0.9 loss rate.
        server = PsServer(n_workers=1, loss_rate=0.9, loss_seed=0)
        self.join_all(server, 1)
        vector = np.ones(3, dtype=np.float32)
        assert server.handle_frame(self.up(0, 0, 0, vector), self.addr(0)) == []
        assert server.counters["drops_injected"] == 1
        assert server.counters["chunks_summed"] == 0

    def test_result_cache_pruned_below_round_window(self):
        server = PsServer(n_workers=1)
        self.join_all(server, 1, n_elements=1)
        vector = np.ones(1, dtype=np.float32)
        for round_index in range(5):
            server.handle_frame(
                self.up(0, round_index, 0, vector), self.addr(0)
            )
        assert sorted(r for r, _ in server._sums.results) == [2, 3, 4]

    def test_malformed_frames_counted_not_fatal(self):
        server = PsServer(n_workers=1)
        assert server.handle_frame(b"J", self.addr(0)) == []  # no body
        self.join_all(server, 1)
        assert server.handle_frame(b"", self.addr(0)) == []
        assert server.handle_frame(b"U\x00", self.addr(0)) == []
        assert server.handle_frame(b"Z???", self.addr(0)) == []
        assert server.counters["decode_errors"] == 4

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            PsServer(n_workers=0)
        with pytest.raises(ValueError, match="loss_rate"):
            PsServer(n_workers=1, loss_rate=1.0)


class TestHostileFrames:
    """Valid data frames, mutated, against the I/O-free servers.  Each one
    lands in the counter the wire format predicts — for the switch,
    ``decode_frame``'s own verdict, taken in the switch's filter order —
    and no malformed frame reaches the engine or the PS sum."""

    MEMBERS = [(LOOPBACK, 44000), (LOOPBACK, 44001)]
    STRANGER = (LOOPBACK, 44999)
    #: The PS vector: chunks of 183, 183 and 40 elements.
    PS_ELEMENTS = 2 * CHUNK_ELEMS + 40

    def mutate(self, data, frame, mutations):
        """One drawn mutation of ``frame``; returns (frame, source)."""
        mutation = data.draw(st.sampled_from(mutations), label="mutation")
        addr = self.MEMBERS[0]
        if mutation == "truncate":
            frame = frame[: data.draw(st.integers(0, len(frame) - 1))]
        elif mutation == "pad":  # a payload that is not whole float32s
            frame += bytes(data.draw(st.integers(1, 3)))
        elif mutation == "oversize":  # one float32 past a frame's budget
            frame += bytes(1 + 8 + SEG_PAYLOAD_BYTES + 4 - len(frame))
        elif mutation == "tag":  # a host-level tag byte, one bit flipped
            frame = bytes((frame[0] ^ 1 << data.draw(st.integers(0, 7)),)) + frame[1:]
        elif mutation == "direction":  # upstream <-> downstream
            frame = bytes((frame[0] ^ 0x04,)) + frame[1:]
        elif mutation == "codec":  # another numerics tag
            frame = bytes((frame[0] ^ data.draw(st.integers(1, 3)),)) + frame[1:]
        elif mutation == "job":  # a foreign job; above 127, no job at all
            job = data.draw(st.integers(1, 255))
            word = int.from_bytes(frame[1:9], "little") & MAX_SEG_INDEX
            frame = frame[:1] + ((job << 56) | word).to_bytes(8, "little") + frame[9:]
        elif mutation == "rank":  # the informational rank byte of a U
            frame = frame[:1] + bytes((data.draw(st.integers(0, 255)),)) + frame[2:]
        elif mutation == "zero":  # a control frame's Value, all zero bits
            frame = frame[:2] + bytes(len(frame) - 2)
        elif mutation == "stranger":
            addr = self.STRANGER
        return frame, addr

    def switch_verdict(self, switch, frame, addr):
        try:
            tos, message = decode_frame(frame)
        except ProtocolError:
            return "decode_errors"
        if message.job != switch.job:
            return "wrong_job"
        if addr not in self.MEMBERS:
            return "non_member"
        if tos & ~TOS_NUMERICS_MASK != TOS_DATA_UP:
            return None  # downstream at the ingress: not ours to sum
        expected_tag = switch.codec.wire_tag if switch.codec else 0
        if tos & TOS_NUMERICS_MASK != expected_tag:
            return "wrong_codec"
        return "data_rx"

    @pytest.mark.parametrize("codec", ["fp32", "fp16"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_switch_counts_each_mutation_where_the_decoder_says(self, codec, data):
        from repro.core.compression import get_codec

        codec = None if codec == "fp32" else get_codec(codec)
        switch = self.joined_switch(codec=codec)
        values = np.arange(data.draw(st.integers(1, 40)), dtype=np.float32)
        segment = DataSegment(seg=data.draw(st.integers(0, 200)), data=values)
        frame, addr = self.mutate(
            data,
            encode_data(segment, codec=codec),
            ["none", "truncate", "pad", "oversize", "direction", "codec",
             "job", "stranger"],
        )
        verdict = self.switch_verdict(switch, frame, addr)
        before = dict(switch.counters)
        assert switch.handle_frame(frame, addr) == []  # N=2: nothing completes
        moved = {name for name, n in switch.counters.items() if n != before[name]}
        assert moved == {"frames_rx"} | ({verdict} if verdict else set())
        assert switch.engine.stats.contributions == (verdict == "data_rx")

    def joined_switch(self, **kwargs):
        switch = SoftwareSwitch(n_workers=2, **kwargs)
        for rank, addr in enumerate(self.MEMBERS):
            join = ControlMessage(Action.JOIN, JoinInfo(rank=rank))
            switch.handle_frame(encode_control(join), addr)
        return switch

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_control_mutations_are_counted_never_fatal(self, data):
        """Control frames, mutated, against the switch and a worker.  A
        Value-less ``HELP``/``FBCAST``/``SETH`` or ``SETH 0`` used to
        raise out of ``handle_frame`` and ``_ingest`` — killing the
        process — where it now lands in ``decode_errors``."""
        switch = self.joined_switch()
        worker = LiveWorker(0, 2, TinyAlgorithm(), None, self.MEMBERS[0])
        action = data.draw(
            st.sampled_from(
                [Action.HELP, Action.FBCAST, Action.SETH, Action.RESET, Action.HALT]
            )
        )
        message = ControlMessage(action, data.draw(st.integers(1, 200)))
        frame, addr = self.mutate(
            data, encode_control(message), ["none", "truncate", "zero", "stranger"]
        )
        try:
            decode_control(frame)
            verdict = None if addr in self.MEMBERS else "non_member"
        except ProtocolError:
            verdict = "decode_errors"
        before = dict(switch.counters)
        switch.handle_frame(frame, addr)
        moved = {name for name, n in switch.counters.items() if n != before[name]}
        if verdict:
            assert moved == {"frames_rx", verdict}
        assert switch.engine.threshold >= 1
        worker._ingest(frame, addr)
        assert worker.counters["decode_errors"] == (verdict == "decode_errors")

    #: Control frames the wire decodes but no live process can act on.
    UNACTIONABLE = {
        "help": bytes((TOS_CONTROL, Action.HELP)),
        "fbcast": bytes((TOS_CONTROL, Action.FBCAST)),
        "seth": bytes((TOS_CONTROL, Action.SETH)),
        "seth0": encode_control(ControlMessage(Action.SETH, value=0)),
    }

    @pytest.mark.parametrize("name", sorted(UNACTIONABLE))
    def test_member_control_without_a_usable_value_is_dropped(self, name):
        switch = self.joined_switch()
        assert switch.handle_frame(self.UNACTIONABLE[name], self.MEMBERS[0]) == []
        assert switch.counters["decode_errors"] == 1
        assert switch.engine.threshold == 2
        # ...and the switch still works.
        help_ = encode_control(ControlMessage(Action.HELP, value=0))
        assert len(switch.handle_frame(help_, self.MEMBERS[0])) == 2

    def test_parent_help_without_a_value_is_dropped_at_a_tor(self):
        parent = (LOOPBACK, 45000)
        tor = self.joined_switch(parent_addr=parent)
        assert tor.handle_frame(self.UNACTIONABLE["help"], parent) == []
        assert tor.counters["decode_errors"] == 1

    def test_relayed_help_without_a_value_is_dropped_at_a_worker(self):
        worker = LiveWorker(0, 2, TinyAlgorithm(), None, self.MEMBERS[0])
        worker._ingest(self.UNACTIONABLE["help"], self.MEMBERS[0])
        assert worker.counters["decode_errors"] == 1

    def ps_verdict(self, frame, addr):
        """DESIGN §9.4's ``U`` row: u8 rank, u32 round, u32 chunk, then
        exactly that chunk's float32 elements."""
        if addr not in self.MEMBERS:
            return "non_member"
        if frame[:1] != b"U" or len(frame) < 10:
            return "decode_errors"
        _, _, chunk = struct.unpack_from("<BII", frame, 1)
        expected = min(CHUNK_ELEMS, self.PS_ELEMENTS - chunk * CHUNK_ELEMS)
        if chunk >= 3 or len(frame) - 10 != 4 * expected:
            return "decode_errors"
        return None  # held until the other rank's chunk arrives

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_ps_counts_each_mutation_where_the_frame_table_says(self, data):
        server = PsServer(n_workers=2)
        for rank, addr in enumerate(self.MEMBERS):
            server.handle_frame(
                b"J" + struct.pack("<BI", rank, self.PS_ELEMENTS), addr
            )
        chunk = data.draw(st.integers(0, 2))
        size = min(CHUNK_ELEMS, self.PS_ELEMENTS - chunk * CHUNK_ELEMS)
        frame = (
            b"U"
            + struct.pack("<BII", 0, data.draw(st.integers(0, 9)), chunk)
            + np.arange(size, dtype="<f4").tobytes()
        )
        frame, addr = self.mutate(
            data,
            frame,
            ["none", "truncate", "pad", "oversize", "tag", "rank", "stranger"],
        )
        verdict = self.ps_verdict(frame, addr)
        before = dict(server.counters)
        assert server.handle_frame(frame, addr) == []
        moved = {name for name, n in server.counters.items() if n != before[name]}
        assert moved == {"frames_rx"} | ({verdict} if verdict else set())
        # Held under the rank that joined from the source, whatever the
        # rank byte says; anything malformed is never held at all.
        held = {key: list(ranks) for key, ranks in server._sums.pending.items()}
        if verdict:
            assert held == {}
        else:
            assert held == {struct.unpack_from("<II", frame, 2): [0]}

    #: The exchange vector: two blocks of 223 elements, so every message
    #: is a 183-element and a 40-element fragment.
    EXCHANGE_ELEMENTS = 2 * (CHUNK_ELEMS + 40)

    class QueuedEndpoint:
        """No socket: sends are kept, receives pop a script."""

        def __init__(self, script=()):
            self.sent, self.queued = [], list(script)

        def send(self, frame, addr):
            self.sent.append((frame, addr))

        def recv(self, timeout):
            return self.queued.pop(0) if self.queued else None

    def exchange_worker(self, endpoint=None):
        """Rank 1 of a two-rank ring; the only peer is ``MEMBERS[0]``."""
        algorithm = TinyAlgorithm(self.EXCHANGE_ELEMENTS)
        return LiveRingWorker(1, 2, algorithm, endpoint, dict(enumerate(self.MEMBERS)))

    @staticmethod
    def fragments(phase, values, sender=0):
        """One exchange message, as its ``E`` fragments."""
        return [
            b"E"
            + struct.pack("<BBIII", sender, phase, 0, 0, frag)
            + np.asarray(part, dtype="<f8").tobytes()
            for frag, part in enumerate((values[:CHUNK_ELEMS], values[CHUNK_ELEMS:]))
        ]

    def exchange_verdict(self, frame, addr):
        """DESIGN §9.4's ``E`` row: u8 sender, u8 phase, u32 round, u32
        step, u32 frag, then exactly that fragment of the message the
        schedule has the sender owe rank 1 — rank 0, at step 0 of either
        phase, one 223-element block."""
        if addr not in self.MEMBERS:
            return "non_member"
        if frame[:1] != b"E" or len(frame) < 15:
            return "decode_errors"
        _, phase, _, step, frag = struct.unpack_from("<BBIII", frame, 1)
        if phase > 1 or step != 0 or frag > 1:
            return "decode_errors"
        if len(frame) - 15 != 8 * (CHUNK_ELEMS, 40)[frag]:
            return "decode_errors"
        return None

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_peer_exchange_counts_each_mutation_where_the_frame_table_says(
        self, data
    ):
        """A malformed ``E`` fragment used to raise out of ``_ingest`` (not
        whole float64s) or be stored and blow up its message's assembly;
        a stranger's fragment was taken for the peer's."""
        worker = self.exchange_worker()
        phase = data.draw(st.integers(0, 2))
        step = data.draw(st.integers(0, 1))
        frag = data.draw(st.integers(0, 2))
        size = data.draw(st.sampled_from([CHUNK_ELEMS, CHUNK_ELEMS + 1, 40, 41]))
        frame = (
            b"E"
            + struct.pack("<BBIII", 0, phase, data.draw(st.integers(0, 9)), step, frag)
            + np.arange(size, dtype="<f8").tobytes()
        )
        frame, addr = self.mutate(
            data, frame, ["none", "truncate", "pad", "tag", "rank", "stranger"]
        )
        verdict = self.exchange_verdict(frame, addr)
        before = dict(worker.counters)
        worker._ingest(frame, addr)
        moved = {name for name, n in worker.counters.items() if n != before[name]}
        assert moved == ({verdict} if verdict else set())
        # Held under the rank the peer table gives the source address,
        # whatever the rank byte says; anything malformed is never held.
        held = {key: list(frags) for key, frags in worker._pending.items()}
        if verdict:
            assert held == {}
        else:
            _, phase, rnd, step, frag = struct.unpack_from("<BBIII", frame, 1)
            assert held == {(0, phase, rnd, step): [frag]}

    def test_malformed_fragments_ahead_of_the_real_ones_are_not_fatal(self):
        """Each of these used to end the worker: a payload that is not
        whole float64s raised out of ``_ingest``; a fragment past the
        message's end, or one element too long, was stored and made the
        assembly raise ("could not broadcast")."""
        peer = self.MEMBERS[0]
        block = np.arange(self.EXCHANGE_ELEMENTS // 2, dtype=np.float64)
        first, second = self.fragments(0, block)
        bad = [
            first + b"\x00",
            b"E" + struct.pack("<BBIII", 0, 0, 0, 0, 2) + second[15:],
            second + bytes(8),
        ]
        script = bad + self.fragments(0, block) + self.fragments(1, block)
        endpoint = self.QueuedEndpoint([(f, peer) for f in script + [b"F\x00"]])
        worker = self.exchange_worker(endpoint)
        gradient = TinyAlgorithm(self.EXCHANGE_ELEMENTS).compute_gradient()
        worker.train(1)
        assert worker.counters["decode_errors"] == 3
        # Rank 1 reduces block 0 and gathers block 1.
        total = np.concatenate([gradient[: block.size] + block, block])
        np.testing.assert_array_equal(worker.algorithm.get_weights(), -total / 2)

    def test_a_stranger_is_not_a_peer(self):
        """Any address used to pass for any rank: a stranger's ``E``
        completed the peer's message, its ``R`` drew a resend."""
        peer, stranger = self.MEMBERS[0], self.STRANGER
        block = np.arange(self.EXCHANGE_ELEMENTS // 2, dtype=np.float64)
        script = [(f, stranger) for f in self.fragments(0, np.full(block.size, 1e9))]
        script += [(f, peer) for f in self.fragments(0, block) + self.fragments(1, block)]
        script += [(b"F\x00", stranger), (b"F\x00", peer)]
        endpoint = self.QueuedEndpoint(script)
        worker = self.exchange_worker(endpoint)
        gradient = TinyAlgorithm(self.EXCHANGE_ELEMENTS).compute_gradient()
        worker.train(1)
        total = np.concatenate([gradient[: block.size] + block, block])
        np.testing.assert_array_equal(worker.algorithm.get_weights(), -total / 2)
        assert worker.counters["non_member"] == 3
        sent = len(endpoint.sent)
        resend = b"R" + struct.pack("<BBII", 0, 0, 0, 0)
        worker._ingest(resend, stranger)
        assert len(endpoint.sent) == sent and worker.counters["non_member"] == 4
        worker._ingest(resend, peer)  # the peer's: both fragments again
        assert [addr for _, addr in endpoint.sent[sent:]] == [peer, peer]
        assert worker.counters["resends_served"] == 1


@needs_loopback
class TestTransport:
    def test_send_recv_round_trip(self):
        with UdpEndpoint() as a, UdpEndpoint() as b:
            a.send(b"hello", b.address)
            got = b.recv(timeout=2.0)
            assert got is not None
            frame, addr = got
            assert frame == b"hello"
            assert addr[0] == LOOPBACK

    def test_recv_timeout_returns_none(self):
        with UdpEndpoint() as endpoint:
            assert endpoint.recv(timeout=0.05) is None

    def test_queued_datagram_returns_without_a_poll(self):
        import select

        with UdpEndpoint() as a, UdpEndpoint() as b:
            a.send(b"queued", b.address)
            assert select.select([b.sock], [], [], 2.0)[0]  # it is there now
            assert b.recv(timeout=2.0)[0] == b"queued"
            assert b.waits == 0

    def test_send_waits_out_a_full_buffer_instead_of_raising(self):
        with UdpEndpoint() as a, UdpEndpoint() as b:
            real = a.sock
            attempts = []

            class FullOnce:
                """The socket, except that its first send finds no room."""

                def sendto(self, frame, addr):
                    attempts.append(frame)
                    if len(attempts) == 1:
                        raise BlockingIOError
                    return real.sendto(frame, addr)

                def fileno(self):
                    return real.fileno()

            a.sock = FullOnce()
            a.send(b"late", b.address)
            a.sock = real
            assert attempts == [b"late", b"late"]
            assert b.recv(timeout=2.0)[0] == b"late"

    def test_empty_socket_returns_none_within_its_timeout(self):
        with UdpEndpoint() as endpoint:
            started = time.monotonic()
            assert endpoint.recv(timeout=0.05) is None
            elapsed = time.monotonic() - started
            assert 0.04 <= elapsed < 1.0
            assert endpoint.waits == 1
            assert endpoint.recv(timeout=0.0) is None  # a zero wait polls once
            assert endpoint.waits == 2

    def test_double_close_is_harmless(self):
        endpoint = UdpEndpoint()
        endpoint.close()
        endpoint.close()

    def test_loopback_probe(self):
        assert loopback_available() is True

    def test_peer_table_pickling(self):
        import pickle

        table = PeerTable(workers={0: (LOOPBACK, 1000), 1: (LOOPBACK, 1001)})
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert clone.workers[1] == (LOOPBACK, 1001)


@needs_loopback
class TestInProcessEndToEnd:
    """Worker/server loops in threads: the full protocol without forks."""

    @pytest.mark.parametrize("bound", [0, 1], ids=["sync", "async-S1"])
    def test_two_worker_session_matches_reference(self, bound):
        switch, workers = run_switch_session(
            n_workers=2, iterations=3, staleness_bound=bound
        )
        expected = tiny_reference(2, 3)
        for worker in workers:
            assert worker.round_digests == expected
            # TinyAlgorithm gradients are weight-independent, so the
            # bounded pipeline lands on the synchronous bits exactly.
            # Greedy schedule with S=1 over 3 rounds: gaps [0, 1, 1];
            # S=0 is the degenerate pipeline — nothing is ever in flight
            # ahead of the applied weights, so every measured gap is 0.
            assert worker.counters["version_gap_max"] == bound
            assert worker.counters["version_gap_total"] == 2 * bound
            assert worker.counters["version_gap_count"] == 3
        assert switch.done
        assert switch.stats_snapshot()["engine_completions"] == 3
        np.testing.assert_array_equal(
            workers[0].algorithm.get_weights(),
            workers[1].algorithm.get_weights(),
        )

    def test_lossy_session_recovers_and_matches_reference(self):
        switch, workers = run_switch_session(
            n_workers=2, iterations=3, loss_rate=0.3
        )
        assert switch.counters["drops_injected"] > 0
        recoveries = sum(w.counters["help_sent"] for w in workers)
        assert recoveries > 0
        for worker in workers:
            assert worker.round_digests == tiny_reference(2, 3)

    def test_worker_requires_join_before_train(self):
        worker = LiveWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            endpoint=None,
            switch_addr=(LOOPBACK, 1),
        )
        with pytest.raises(RuntimeError, match="join"):
            worker.train(1)

    def test_worker_rejects_bad_recovery_timeout(self):
        with pytest.raises(ValueError, match="recovery_timeout"):
            LiveWorker(
                rank=0,
                n_workers=1,
                algorithm=TinyAlgorithm(),
                endpoint=None,
                switch_addr=(LOOPBACK, 1),
                recovery_timeout=0.0,
            )

    def dead_switch_worker(self, endpoint, switch_addr, recovery_timeout):
        worker = LiveWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            endpoint=endpoint,
            switch_addr=switch_addr,  # bound but never served
            recovery_timeout=recovery_timeout,
            max_recovery_attempts=2,
        )
        worker._joined = True  # pretend the join happened
        return worker

    def test_worker_gives_up_after_max_attempts(self):
        """A dead switch: the watchdog must abandon the round, not hang."""
        with UdpEndpoint() as endpoint, UdpEndpoint() as blackhole:
            worker = self.dead_switch_worker(endpoint, blackhole.address, 0.01)
            with pytest.raises(LiveRoundAbandoned, match="abandoned") as info:
                worker.train(1)
            assert worker.counters["watchdog_timeouts"] >= 2
            assert info.value.missing == [0]  # the one Seg of round 0

    def test_watchdog_is_not_starved_by_unrelated_traffic(self):
        """The same dead switch, plus a 20 Hz trickle of unrelated ACK
        control frames: abandonment must still come within the recovery
        budget (0.1 + 0.2 + 0.4 = 0.7 s), not never."""
        with UdpEndpoint() as endpoint, UdpEndpoint() as blackhole:
            worker = self.dead_switch_worker(endpoint, blackhole.address, 0.1)
            assert_abandons_under_chatter(worker)
