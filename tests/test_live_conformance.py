"""Sim <-> live differential conformance (the live backend's ground truth).

The live backend (`repro.live`) runs the *full* strategy registry: one
fleet (``repro.live.fleet.fleet``) of workers plus the strategy's servers
(a software switch, a PS, K PS shards, a ToR->AGG switch tree — or none
at all for the peer-to-peer collectives) exchanging encoded frames.
These tests prove it computes *exactly* what the simulator models: the
same seeded gradients through either backend must produce bit-identical
per-round aggregated sums and bit-identical final weights — per
strategy, per fleet size, and including runs where injected datagram
loss forces each strategy's recovery path to reconstruct rounds.  The
async strategies additionally assert their *measured* staleness against
the configured bound.

The matrix runs on two carriers of the same fleet (the ``carrier``
parameter): ``wire``, the virtual-clock wire of ``tests/live_wire.py``,
in tier-1; and ``processes``, ``run_live``'s child processes over
loopback UDP, marked ``live`` (excluded from the tier-1 run, see
``pyproject.toml``) and skipped where loopback UDP is unavailable.  What
only processes show — fork and spawn, sockets, pickling, real
scheduling, the CLI — is the ``live``-marked plumbing, failure-mode and
transport classes.  The roles frame by frame, hostile frames and
hand-built sessions are ``tests/test_live_roles.py``.
"""

import hashlib
import multiprocessing
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.distributed.config import ExperimentConfig
from repro.distributed.registry import strategy_specs
from repro.distributed.runner import make_algorithm, run
from repro.live.runner import LiveRunError, _validate, run_live
from repro.live.transport import LOOPBACK, UdpEndpoint, loopback_available
from repro.netsim.topology import racks

from .live_wire import Wire, run_fleet

LOOPBACK_OK = loopback_available()
needs_loopback = pytest.mark.skipif(
    not LOOPBACK_OK, reason="loopback UDP unavailable in this environment"
)
#: The process-level tests: real sockets and processes.
processes_only = [pytest.mark.live, needs_loopback]

#: The two carriers of one live fleet: the virtual-clock wire (tier-1)
#: and ``run_live``'s processes over loopback UDP (``live``).
CARRIERS = [
    pytest.param("wire"),
    pytest.param("processes", marks=processes_only),
]
carriers = pytest.mark.parametrize("carrier", CARRIERS)


def run_on(carrier, config):
    """``config``'s live run on ``carrier`` (processes through ``run``,
    the one entry point)."""
    return run_fleet(config) if carrier == "wire" else run(config)

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


def live_config(strategy, n_workers, mode="sync", seed=SEED, **overrides):
    return ExperimentConfig(
        strategy=strategy,
        workload=WORKLOAD,
        mode=mode,
        n_workers=n_workers,
        iterations=ITERATIONS,
        seed=seed,
        backend="live",
        **overrides,
    )


def sim_config(strategy, n_workers, mode="sync", seed=SEED, **overrides):
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
        seed=seed,
        deterministic_aggregation=(strategy == "isw" or mode == "async"),
        **overrides,
    )


#: Clean (no-override) runs are pure functions of (carrier, mode,
#: strategy, N) here, so tests share them instead of re-running fleets.
_RUN_CACHE = {}


def live_run(mode, strategy, n_workers, carrier):
    key = (carrier, mode, strategy, n_workers)
    if key not in _RUN_CACHE:
        config = live_config(strategy, n_workers, mode=mode)
        _RUN_CACHE[key] = run_on(carrier, config)
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
        for ranks in racks(n_workers):
            partial = gradients[ranks[0]].copy()
            for rank in ranks[1:]:
                partial += gradients[rank]
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


@carriers
class TestSimLiveConformance:
    """The full matrix: every live strategy, N=2 and N=4, bit for bit."""

    @pytest.mark.parametrize("n_workers", [2, 4])
    @pytest.mark.parametrize(("mode", "strategy"), ALL_LIVE, ids=PAIR_IDS)
    def test_final_weights_bit_identical(self, mode, strategy, n_workers, carrier):
        live = live_run(mode, strategy, n_workers, carrier)
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
    def test_aggregated_sums_match_oracle(self, mode, strategy, carrier):
        """The per-round sums themselves (not just their consequences),
        against a re-execution oracle independent of both backends."""
        live = live_run(mode, strategy, 4, carrier)
        if (mode, strategy) == ("async", "ps"):
            digests, _ = async_ps_reference(4)
            assert live.worker_digests == digests
        else:
            assert live.round_digests == oracle_digests(
                mode, strategy, 4
            )

    @pytest.mark.parametrize("strategy", ["isw", "ps"], ids=["isw", "ps"])
    def test_async_digests_match_paced_simulator(self, strategy, carrier):
        """The async sim records digests too (paced mode): compare the
        two backends' streams directly, not only through the oracle."""
        live = live_run("async", strategy, 4, carrier)
        sim = sim_run("async", strategy, 4)
        if strategy == "ps":
            assert live.worker_digests == sim.worker_digests
        else:
            assert live.round_digests == sim.round_digests

    def test_ps_family_shares_one_digest_stream(self, carrier):
        """f64 sums are exact, so four different exchange topologies
        (star PS, ring, halving/doubling, K shards) must land on the
        same bits — live, over four different wire protocols."""
        streams = {
            strategy: live_run("sync", strategy, 4, carrier).round_digests
            for strategy in ("ps", "ar", "ar-hd", "ps-shard")
        }
        reference = reference_digests("ps", 4)
        for strategy, stream in streams.items():
            assert stream == reference, f"{strategy} diverged from the family"


@pytest.mark.live
@needs_loopback
class TestCarriersAgree:
    """Processes and the wire run one fleet: the same digests and
    weights, whatever real scheduling did to the processes' frames."""

    @pytest.mark.parametrize(("mode", "strategy"), ALL_LIVE, ids=PAIR_IDS)
    def test_processes_give_the_wires_bits(self, mode, strategy):
        processes = live_run(mode, strategy, 4, "processes")
        wire = live_run(mode, strategy, 4, "wire")
        assert processes.round_digests == wire.round_digests
        assert processes.worker_digests == wire.worker_digests
        for rank, weights in wire.final_weights.items():
            assert np.array_equal(processes.final_weights[rank], weights)


@carriers
class TestLossRecovery:
    """5 % injected datagram loss per strategy: recovery must reconstruct
    the exact same bits as a clean run."""

    @pytest.mark.parametrize(("mode", "strategy"), ALL_LIVE, ids=PAIR_IDS)
    def test_lossy_run_stays_bit_identical(self, mode, strategy, carrier):
        n_workers = 4
        lossy = run_on(
            carrier,
            live_config(
                strategy,
                n_workers,
                mode=mode,
                loss_rate=LOSS,
                recovery_timeout=LOSSY_RECOVERY_TIMEOUT,
            ),
        )
        assert total_drops(lossy) > 0, "loss injection never fired"
        assert total_recoveries(lossy) > 0, (
            "loss was injected but no recovery action was ever taken"
        )
        clean = live_run(mode, strategy, n_workers, carrier)
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

    def test_isw_loss_recovery_mechanics_observable(self, carrier):
        """For the paper's strategy, check the *mechanism* too: Helps
        flowed and engine dedup absorbed the retransmission storm."""
        lossy = run_on(carrier, live_config("isw", 4, loss_rate=LOSS))
        stats = lossy.server_stats
        assert stats["drops_injected"] > 0
        helps = sum(
            counters["help_sent"]
            for counters in lossy.worker_counters.values()
        )
        assert helps > 0, "loss was injected but no Help was ever sent"
        assert stats["engine_duplicates_dropped"] > 0
        assert lossy.round_digests == reference_digests("isw", 4)


@carriers
class TestTreeConformance:
    """N=6 overflows one rack (workers_per_rack=4): two ToR switches
    under one aggregation switch, racks as the simulator lays them out."""

    N = 6

    def test_tree_matches_sim_and_oracle(self, carrier):
        live = live_run("sync", "isw", self.N, carrier)
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

    def test_tree_loss_recovery_stays_bit_identical(self, carrier):
        lossy = run_on(carrier, live_config("isw", self.N, loss_rate=LOSS))
        assert lossy.server_stats["drops_injected"] > 0
        clean = live_run("sync", "isw", self.N, carrier)
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


@carriers
class TestDeletedClassesWereDegenerateCases:
    """``ps`` is ``ps-shard`` with one shard and ``sync-isw`` is
    ``async-isw`` with S=0 — exactly, against the deleted classes' own
    output rather than against an argument."""

    @pytest.mark.parametrize("name", sorted(PARENT_RECORDINGS))
    def test_merged_class_reproduces_parent_recording(self, name, carrier):
        strategy, n_workers, overrides, digests, weights = PARENT_RECORDINGS[
            name
        ]
        if overrides:
            result = run_on(carrier, live_config(strategy, n_workers, **overrides))
        else:
            result = live_run("sync", strategy, n_workers, carrier)
        assert result.round_digests == digests
        for rank in range(n_workers):
            assert _digest(result.final_weights[rank]) == weights, rank
        if "loss_rate" in overrides:
            assert total_drops(result) > 0, "loss injection never fired"


@carriers
class TestAsyncStaleness:
    """The staleness bound is *measured* from the live run, not assumed:
    async-isw workers record their applied-version at compute time and
    the real gap at apply time; the async-PS server records the gap
    between each push's weight version and its apply number."""

    def test_async_isw_staleness_bound_holds_and_is_reached(self, carrier):
        bound = 1
        result = run_on(
            carrier,
            live_config(
                "isw", 2, mode="async", staleness_bound=bound, telemetry=True
            ),
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

    def test_async_isw_default_bound(self, carrier):
        result = live_run("async", "isw", 4, carrier)  # staleness_bound: 3
        # 3 rounds under S=3: gaps are [0, 1, 2] on every worker.
        assert result.max_staleness == min(ITERATIONS - 1, 3)
        assert result.mean_staleness == pytest.approx(1.0)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_async_ps_staleness_measured_at_server(self, n_workers, carrier):
        result = live_run("async", "ps", n_workers, carrier)
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


@carriers
class TestCodecConformance:
    """Compressed frames on either carrier equal the simulator bit for
    bit."""

    @pytest.mark.parametrize("codec", ["fp16", "int32-bs", "topk"])
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_final_weights_bit_identical(self, codec, n_workers, carrier):
        live = run_on(carrier, live_config("isw", n_workers, codec=codec))
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
    def test_aggregated_sums_match_oracle(self, codec, carrier):
        live = run_on(carrier, live_config("isw", 4, codec=codec))
        assert live.round_digests == codec_reference_digests(
            codec, 4
        )

    def test_codec_loss_recovery_stays_bit_identical(self, carrier):
        """Help-path retransmission of compressed frames is idempotent."""
        live = run_on(
            carrier, live_config("isw", 4, codec="int32-bs", loss_rate=LOSS)
        )
        assert live.server_stats["drops_injected"] > 0
        assert live.round_digests == codec_reference_digests(
            "int32-bs", 4
        )


@pytest.mark.live
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
        # Every child attributes its own cost: the loop's CPU, and how
        # many receives blocked in a poll — a count that may be 0 (every
        # receive of a child can find a datagram already queued).
        children = {"aggregator": stats}
        children.update(
            (f"worker{rank}", counters)
            for rank, counters in result.worker_counters.items()
        )
        assert len(children) == 3
        for node, counters in children.items():
            assert counters["cpu_ms"] > 0, node
            assert isinstance(counters["waits"], int) and counters["waits"] >= 0
            for name in ("cpu_ms", "waits"):
                # The hub skips counters that never moved: a 0 has no series.
                assert snapshot.value(f"live.{name}", node=node) == counters[name]
                assert snapshot.has_metric(f"live.{name}", node=node) == bool(
                    counters[name]
                )

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


@pytest.mark.live
class TestFailureModes:
    """The live backend must fail loudly and structurally, never hang."""

    @needs_loopback
    def test_port_bind_conflict_raises(self):
        with UdpEndpoint() as taken:
            with pytest.raises(OSError):
                UdpEndpoint(port=taken.address[1])

    def test_loopback_unavailable_raises_before_spawning(self, monkeypatch):
        import repro.live.transport as transport

        monkeypatch.setattr(transport, "loopback_available", lambda: False)
        with pytest.raises(LiveRunError, match="loopback UDP is unavailable"):
            run_live(live_config("isw", 2))

    def test_recv_times_out_with_structured_error(self):
        from repro.live.runner import _recv

        parent, child = multiprocessing.Pipe()
        try:
            with pytest.raises(LiveRunError, match="timed out waiting"):
                _recv(parent, "worker 0", timeout=0.02)
        finally:
            parent.close()
            child.close()

    @needs_loopback
    def test_worker_exception_mid_run_is_structured_error(self, monkeypatch):
        """A worker raising (not just dying) must report its traceback."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("crash injection requires the fork start method")
        import repro.live.worker as worker_module

        def explode(self, gradient, round_index):
            raise RuntimeError("injected training failure")

        monkeypatch.setattr(worker_module.LiveWorker, "_submit", explode)
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
            "_submit",
            lambda self, gradient, round_index: os._exit(13),
        )
        with pytest.raises(LiveRunError, match="worker 0"):
            run_live(live_config("isw", 2, recovery_timeout=0.02))


@pytest.mark.live
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


#: Live runs the property draws from: every live-capable pair, flat and
#: tree fleet sizes, and the codecs with a wire format.
PROPERTY_CASES = st.fixed_dictionaries(
    {
        "pair": st.sampled_from(ALL_LIVE),
        "n_workers": st.sampled_from([2, 3, 4, 6]),
        "codec": st.sampled_from(["fp32", "fp16", "int32-bs", "topk"]),
        "loss_rate": st.sampled_from([0.0, LOSS]),
        "seed": st.integers(0, 2**16),
    }
)


def _live_capable(pair, n_workers, codec):
    mode, strategy = pair
    tree = strategy == "isw" and n_workers > 4
    if strategy == "ar-hd" and n_workers & (n_workers - 1):
        return False
    if mode == "async" and tree:
        return False
    return codec == "fp32" or (pair == ("sync", "isw") and not tree)


class TestWireMatchesTheSimulator:
    """The sim<->live matrix as a property on the wire: any live-capable
    strategy, fleet size, codec and loss, at any seed — and a wire that
    itself drops, truncates, duplicates and reorders frames of every kind
    — lands on the simulator's final weights bit for bit."""

    @given(case=PROPERTY_CASES, wire_seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_final_weights_bit_identical(self, case, wire_seed):
        (mode, strategy), n_workers = case["pair"], case["n_workers"]
        assume(_live_capable(case["pair"], n_workers, case["codec"]))
        common = dict(mode=mode, seed=case["seed"], codec=case["codec"])
        lossy = case["loss_rate"] > 0
        live = run_fleet(
            live_config(
                strategy,
                n_workers,
                loss_rate=case["loss_rate"],
                recovery_timeout=LOSSY_RECOVERY_TIMEOUT if lossy else None,
                **common,
            ),
            Wire(
                seed=wire_seed, drop=0.02, duplicate=0.02, reorder=0.1, truncate=0.02
            ),
        )
        sim = run(sim_config(strategy, n_workers, **common))
        expected = sim_final_weights(sim)
        for rank in range(n_workers):
            assert np.array_equal(live.final_weights[rank], expected[rank]), rank
        if (mode, strategy) == ("async", "ps"):
            assert live.worker_digests == sim.worker_digests
        elif mode == "async":
            assert live.round_digests == sim.round_digests
