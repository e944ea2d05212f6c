"""Exactness of the zero-copy sync datapath.

One ownership rule: *a gradient handed to a strategy belongs to the
datapath; a result handed back is read-only and may be shared*.  These
tests pin what the rule must not change — every simulated observable of
the parent commit, on every transport — and what it promises: a run's
chunks are views of the one vector it carries (the join is the vector),
nothing upstream reads a gradient after ``submit``, and a replica that
scribbles on a shared result raises.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import AggregationEngine
from repro.core.protocol import SegmentPlan, SegmentRun, make_data_packet
from repro.distributed import ExperimentConfig, run
from repro.distributed import runner as runner_module
from repro.distributed.sync import SyncISwitch
from repro.rl import synthetic
from repro.rl.synthetic import AHEAD_MAX_PARAMS, POOL_MIN_PARAMS, SyntheticAlgorithm

from .helpers import built_clusters, per_packet_reference

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAPER_N_PARAMS = 4592 * 366


# ----------------------------------------------------------------------
# (a) a run is its vector: every cut of it equals np.concatenate, as a view
# ----------------------------------------------------------------------
@st.composite
def run_cuts(draw):
    """(plan, vector, a, b): chunks ``[a, b)`` of a plan of any geometry."""
    frames_per_chunk = draw(st.integers(1, 3))
    n_chunks = draw(st.integers(1, 7))
    tail = draw(st.integers(1, 366 * frames_per_chunk))
    plan = SegmentPlan(
        366 * frames_per_chunk * (n_chunks - 1) + tail,
        frames_per_chunk=frames_per_chunk,
        wire_multiplier=draw(st.integers(1, 3)),
    )
    assert plan.n_chunks == n_chunks
    a = draw(st.integers(0, n_chunks - 1))
    b = draw(st.integers(a + 1, n_chunks))
    vector = np.arange(plan.n_elements, dtype=np.float32)
    return plan, vector, a, b


class TestJoinChunks:
    @given(run_cuts())
    @settings(max_examples=200, deadline=None)
    def test_equals_concatenate_and_is_a_view_only_for_the_cut(self, case):
        plan, vector, a, b = case
        chunks = plan.split(vector, round_index=2, sender="w", commit_id=5)
        part = plan.run(vector, 2, sender="w", commit_id=5, job=3)[a:b]
        expected = np.concatenate([c.data for c in chunks[a:b]])
        assert len(part) == b - a and part.seg == chunks[a].seg
        assert part.data.tobytes() == expected.tobytes()
        assert np.shares_memory(part.data, vector)
        # Materialised, it is split()'s segments, stamped as
        # make_data_packet stamps them, and its wire sizes are the packets'.
        packets = [make_data_packet("w", "s", c, plan) for c in chunks[a:b]]
        for made, chunk, packet in zip(part.segments(), chunks[a:b], packets):
            assert (made.seg, made.sender, made.commit_id, made.job) == (
                chunk.seg, "w", 5, 3
            )
            assert made.data.tobytes() == chunk.data.tobytes()
            assert np.shares_memory(made.data, vector)
            assert (made.wire_payload, made.wire_frames) == (
                packet.payload_size, packet.frame_count
            )
        assert part.wire_sizes.tolist() == [p.wire_size for p in packets]
        assert part.wire_total == sum(p.wire_size for p in packets)
        assert part.payload_sizes == [p.payload_size for p in packets]
        with pytest.raises(ValueError):
            part[::2]

    def test_a_single_chunk_cut_is_its_own_join(self):
        plan = SegmentPlan(5)
        vector = np.arange(5, dtype=np.float32)
        run = plan.run(vector, round_index=1)
        assert len(run) == 1 and run.data is vector and run.seg == 1
        assert run[0:1].data.tobytes() == vector.tobytes()
        (only,) = run.segments()
        assert np.shares_memory(only.data, vector) and only.seg == 1

    def test_split_records_its_cut(self):
        plan = SegmentPlan(1000, frames_per_chunk=1)
        vector = np.arange(1000, dtype=np.float32)
        run = plan.run(vector, round_index=3)
        assert run.data is vector  # float32 and contiguous: never copied
        assert [s.seg for s in run.segments()] == [9, 10, 11]
        assert run.segments() is run.segments()  # built once, then shared
        # A switch's partial: the same chunks, read-only, one commit per Seg.
        partial = replace(run, sender="tor0", commit_id=None)
        assert [s.commit_id for s in partial.segments()] == [9, 10, 11]
        # Other dtypes are converted once, by the plan.
        assert plan.run(vector.astype(np.float64), 0).data.dtype == np.float32
        with pytest.raises(ValueError, match="shape"):
            plan.run(vector[:-1], 0)

    def test_one_pass_divide_is_cast_then_divide(self):
        rng = np.random.default_rng(3)
        total = (rng.standard_normal(4096) * 1e3).astype(np.float32)
        total[:4] = (-0.0, np.inf, np.nan, 1e-45)
        for divisor in (1, 3, 4, 7, 12):
            assert (
                np.divide(total, divisor, dtype=np.float64).tobytes()
                == (total.astype(np.float64) / divisor).tobytes()
            )


class TestEngineAdoptsTheTrain:
    def test_first_vector_becomes_the_round_buffer_and_results_are_its_cut(self):
        plan = SegmentPlan(366 * 4)
        engine = AggregationEngine(threshold=2)
        a = np.arange(plan.n_elements, dtype=np.float32)
        b = np.ones(plan.n_elements, dtype=np.float32)
        expected = a + b
        assert engine.contribute_batch(plan.run(a, 0, "w0", 1)) == []
        done = engine.contribute_batch(plan.run(b, 0, "w1", 1))
        assert isinstance(done, SegmentRun) and len(done) == 4
        assert done.data is a  # summed in place, never copied
        assert a.tobytes() == expected.tobytes()
        assert b.tobytes() == np.ones_like(b).tobytes()  # only read
        assert engine.stats.joins == {"view": 2, "copy": 0}
        # Help is answered from the run, one segment at a time.
        assert engine.cached_result(2) is done.segments()[2]

    def test_a_read_only_vector_is_copied_not_adopted(self):
        plan = SegmentPlan(366 * 2)
        engine = AggregationEngine(threshold=2)
        a = np.arange(plan.n_elements, dtype=np.float32)
        a.flags.writeable = False
        engine.contribute_batch(plan.run(a, 0, "w0", 1))
        done = engine.contribute_batch(plan.run(a, 0, "w1", 1))
        assert a.tobytes() == np.arange(plan.n_elements, dtype=np.float32).tobytes()
        assert done.data.tobytes() == (a + a).tobytes()


# ----------------------------------------------------------------------
# (b) every simulated observable equals the parent commit's
# ----------------------------------------------------------------------
def observed_run(fields, reference, telemetry):
    """``run()`` plus the network it built."""
    config = dict(workload="synth", n_workers=4, iterations=4, seed=7)
    config.update(fields, telemetry=telemetry)
    with built_clusters() as built:
        if reference:
            with per_packet_reference():
                result = run(ExperimentConfig(**config))
        else:
            result = run(ExperimentConfig(**config))
    return result, built[0][0]


def observe(fields, reference=False):
    """Worker-0 weights, simulated time and link counters of the run a
    benchmark times (telemetry off: the batched ingest), and the telemetry
    counters of its telemetry-on twin (which must agree on the rest)."""

    def digest(value):
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]

    seen = []
    for telemetry in (False, True):
        result, net = observed_run(fields, reference, telemetry)
        weights = result.workers[0].algorithm.get_weights()
        links = [
            (link.name, link.dropped_packets)
            + tuple(
                (e.tx_packets, e.tx_bytes, repr(e.busy_time)) for e in link.ends
            )
            for link in net.links
        ]
        seen.append(
            {
                "weights": hashlib.sha256(
                    np.ascontiguousarray(weights, dtype=np.float64).tobytes()
                ).hexdigest()[:16],
                "elapsed": repr(result.elapsed),
                "links": digest(links),
            }
        )
    assert seen[0] == seen[1]
    counters = sorted(
        (m["name"], sorted(m["labels"].items()), m["value"])
        for m in result.telemetry.metrics
        if m["kind"] == "counter"
        # Which ingest path ran (new in this PR) is not a simulated number.
        and m["name"] not in ("switch.batch_bails", "switch.joins")
    )
    return dict(seen[0], counters=digest(counters))


CASES = {
    "train": dict(strategy="isw"),
    "per-packet": dict(strategy="isw"),
    "lossy": dict(strategy="isw", loss_rate=0.01),
    "int32-bs": dict(strategy="isw", codec="int32-bs"),
    "canonical": dict(strategy="isw", deterministic_aggregation=True),
    "tree-n12": dict(strategy="isw", n_workers=12),
    "async-isw": dict(strategy="isw", mode="async", iterations=12),
    "ps": dict(strategy="ps"),
    "ar": dict(strategy="ar"),
    "paper-isw": dict(
        strategy="isw", iterations=1,
        algorithm_overrides={"n_params": PAPER_N_PARAMS},
    ),
    "paper-ps": dict(
        strategy="ps", iterations=1,
        algorithm_overrides={"n_params": PAPER_N_PARAMS},
    ),
}

#: ``observe()`` of each case at the parent commit (e9fc65c), recorded by
#: running this file's ``observe`` against that checkout's ``src/``.
PARENT = json.loads(
    """
{
 "ar": {
  "counters": "791c1e4a500c1034",
  "elapsed": "0.045541588668572185",
  "links": "51c2f74dca9e4650",
  "weights": "7096d2212cd2e612"
 },
 "async-isw": {
  "counters": "af280600feae2e76",
  "elapsed": "0.007035114899370804",
  "links": "3c8d916c6d7365a6",
  "weights": "e49fdfee7da0aa6c"
 },
 "canonical": {
  "counters": "e6dba4802e315862",
  "elapsed": "0.003976514349301738",
  "links": "c55f965e1d6f99f6",
  "weights": "9b357798db7cfd15"
 },
 "int32-bs": {
  "counters": "d84dac3d791b619a",
  "elapsed": "0.003821269549301729",
  "links": "848de6e3b6a535ef",
  "weights": "f7f403abc00a27d3"
 },
 "lossy": {
  "counters": "dd6622b541cacc7a",
  "elapsed": "0.0051915588864961",
  "links": "7cf569678353c465",
  "weights": "67cb6e3ba2690a28"
 },
 "paper-isw": {
  "counters": "b77d227ee572c06e",
  "elapsed": "0.006598538631278269",
  "links": "b717989be9bb030d",
  "weights": "5af5886ef19adf44"
 },
 "paper-ps": {
  "counters": "ce12e26054d01cfb",
  "elapsed": "0.011637346818081932",
  "links": "528e8ae6a87953e4",
  "weights": "72d205ee280f1994"
 },
 "per-packet": {
  "counters": "e6dba4802e315862",
  "elapsed": "0.003976514349301738",
  "links": "c55f965e1d6f99f6",
  "weights": "45b2bc4e3b91df2d"
 },
 "ps": {
  "counters": "9ac78068ca45f89e",
  "elapsed": "0.045315803600135755",
  "links": "ae210360dee3c1fa",
  "weights": "7096d2212cd2e612"
 },
 "train": {
  "counters": "e6dba4802e315862",
  "elapsed": "0.003976514349301738",
  "links": "c55f965e1d6f99f6",
  "weights": "45b2bc4e3b91df2d"
 },
 "tree-n12": {
  "counters": "d7d862b541618b01",
  "elapsed": "0.004042081341756292",
  "links": "ebe0189698692889",
  "weights": "3b481c22a075dc96"
 }
}
"""
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_observables_equal_the_parent_commits(name):
    assert observe(CASES[name], reference=name == "per-packet") == PARENT[name]


# ----------------------------------------------------------------------
# (c) nothing reads a gradient after submit; shared results are read-only
# ----------------------------------------------------------------------
def final_weights(fields, poison, reference=False):
    """Worker weight digests of a run; with ``poison``, each worker's
    gradient of iteration ``k`` is overwritten with NaN at iteration
    ``k + 2`` — long after every member applied round ``k`` — and, where
    the datapath only reads gradients, checked untouched first."""
    untouched = []

    def wrap(net, workers):
        for worker in workers:
            compute = worker.algorithm.compute_gradient
            handed = []

            def compute_and_poison(compute=compute, handed=handed):
                if len(handed) >= 2:
                    gradient, snapshot = handed[-2]
                    untouched.append(
                        gradient.tobytes() == snapshot.tobytes()
                    )
                    gradient.flags.writeable = True
                    gradient.fill(np.nan)
                gradient = compute()
                handed.append((gradient, gradient.copy()))
                return gradient

            worker.algorithm.compute_gradient = compute_and_poison

    config = dict(n_workers=4, iterations=6, seed=3, telemetry=False)
    config.update(fields)
    with built_clusters(prepare=wrap if poison else None):
        if reference:
            with per_packet_reference():
                result = run(ExperimentConfig(**config))
        else:
            result = run(ExperimentConfig(**config))
    digests = [
        hashlib.sha256(w.algorithm.get_weights().tobytes()).hexdigest()
        for w in result.workers
    ]
    return digests, untouched


ALIASING = {
    "isw-train": dict(strategy="isw", workload="synth"),
    "isw-per-packet": dict(strategy="isw", workload="synth"),
    "isw-lossy": dict(strategy="isw", workload="synth", loss_rate=0.01),
    "isw-tree": dict(strategy="isw", workload="synth", n_workers=12),
    "isw-dqn": dict(strategy="isw", workload="dqn"),
    "isw-ddpg": dict(strategy="isw", workload="ddpg"),
    "ps-dqn": dict(strategy="ps", workload="dqn"),
    "ar-dqn": dict(strategy="ar", workload="dqn"),
    "ps-shard": dict(strategy="ps-shard", workload="synth"),
}


@pytest.mark.parametrize("name", sorted(ALIASING))
def test_a_submitted_gradient_is_untouched_or_never_read_again(name):
    fields = ALIASING[name]
    reference = name == "isw-per-packet"
    clean, _ = final_weights(fields, poison=False, reference=reference)
    poisoned, untouched = final_weights(fields, poison=True, reference=reference)
    assert poisoned == clean
    if fields["strategy"] != "isw" or "loss_rate" in fields:
        # Host-side folds and retransmission caches only ever read.
        assert untouched and all(untouched)
    elif name == "isw-train":
        # The switch summed at least one round into a worker's own vector.
        assert not all(untouched)


@pytest.mark.parametrize("strategy", ["isw", "ps", "ar", "ar-hd", "ps-shard"])
def test_a_replica_that_scribbles_on_its_update_raises(strategy):
    def scribble(self, mean_gradient):
        mean_gradient[0] = 0.0

    with mock.patch.object(SyntheticAlgorithm, "apply_update", scribble):
        if strategy == "isw":
            # Each worker divides into a private float64 vector; what is
            # shared (the round buffer) never reaches the algorithm.
            run(ExperimentConfig(
                strategy=strategy, workload="synth", iterations=1,
                telemetry=False,
            ))
        else:
            with pytest.raises(ValueError, match="read-only"):
                run(ExperimentConfig(
                    strategy=strategy, workload="synth", iterations=1,
                    telemetry=False,
                ))


def test_the_assembled_round_is_one_read_only_buffer_for_every_member():
    seen = []
    inner = SyncISwitch._deliver_sum

    def spy(self, worker, summed, iteration):
        seen.append(summed)
        return inner(self, worker, summed, iteration)

    with mock.patch.object(SyncISwitch, "_deliver_sum", spy):
        result = run(ExperimentConfig(
            strategy="isw", workload="synth", iterations=2, telemetry=False
        ))
    assert result.ingest == {"view": 8}
    assert len(seen) == 8
    for summed in seen:
        assert summed.dtype == np.float32 and not summed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            summed[0] = 0.0
    first_round = seen[:4]
    assert all(np.shares_memory(first_round[0], s) for s in first_round[1:])


# ----------------------------------------------------------------------
# Once per cluster: the shared initial draw
# ----------------------------------------------------------------------
class TestSyntheticReplica:
    def test_replica_is_bit_identical_to_a_fresh_construction(self):
        first = SyntheticAlgorithm(seed=5, init_seed=99, n_params=1000, lr=0.5)
        twin = first.replica(seed=6)
        fresh = SyntheticAlgorithm(seed=6, init_seed=99, n_params=1000, lr=0.5)
        assert twin.get_weights().tobytes() == fresh.get_weights().tobytes()
        for _ in range(3):
            gradient = twin.compute_gradient()
            assert gradient.tobytes() == fresh.compute_gradient().tobytes()
            twin.apply_update(gradient.astype(np.float64))
            fresh.apply_update(gradient.astype(np.float64))
        assert twin.get_weights().tobytes() == fresh.get_weights().tobytes()
        assert twin.episode_rewards == fresh.episode_rewards
        # The twin's weights and reward log are its own.
        assert first.updates_applied == 0 and first.episode_rewards == []
        assert not np.shares_memory(first._weights, twin._weights)

    def test_replicas_are_cut_from_an_untrained_algorithm(self):
        first = SyntheticAlgorithm(n_params=10)
        first.apply_update(np.zeros(10))
        with pytest.raises(ValueError, match="untrained"):
            first.replica(seed=1)

    def test_a_cluster_draws_the_shared_weights_once(self):
        draws = []
        inner = np.random.default_rng

        def counting(seed=None):
            draws.append(seed)
            return inner(seed)

        with mock.patch.object(np.random, "default_rng", counting):
            run(ExperimentConfig(
                strategy="isw", workload="synth", iterations=1,
                telemetry=False,
            ))
        assert draws.count(runner_module.INIT_SEED) == 1

    # A cluster's replicas share one stream group: an asker with no draw
    # pending starts the other idle streams' draws on a thread pool and
    # draws its own; a draw handed out queues its stream's next one, and
    # an asker takes back a queued draw the pool has not started.  Each
    # stream must still give the bytes of a replica drawing alone,
    # whatever order the replicas ask in.
    def group_and_loners(self, n, n_params=POOL_MIN_PARAMS):
        first = SyntheticAlgorithm(seed=11, n_params=n_params)
        group = [first] + [first.replica(seed=11 + i) for i in range(1, n)]
        loners = [
            SyntheticAlgorithm(seed=11 + i, n_params=n_params) for i in range(n)
        ]
        return group, loners

    @pytest.mark.parametrize(
        "asks",
        [
            [0, 1, 2, 3] * 3,  # sync: every replica once per round
            [2, 2, 0, 3, 2, 1, 1, 0, 2, 3, 3, 3, 0, 1, 2],  # async-like
        ],
        ids=["sync-order", "uneven-order"],
    )
    def test_a_group_gives_each_replica_its_own_stream(self, asks):
        group, loners = self.group_and_loners(4)
        with mock.patch.object(synthetic, "_cpus", return_value=2):
            for k in asks:
                gradient = group[k].compute_gradient()
                assert gradient.tobytes() == loners[k].compute_gradient().tobytes()
        for replica, loner in zip(group, loners):
            assert replica.episode_rewards == loner.episode_rewards

    def test_an_asker_takes_back_a_draw_the_pool_has_not_started(self):
        group, loners = self.group_and_loners(4)
        executor = ThreadPoolExecutor(max_workers=1)
        gate = threading.Event()
        pending = group[0]._group._pending
        pool = mock.patch.object(
            synthetic, "_pool_of_process", (os.getpid(), executor)
        )
        try:
            with pool, mock.patch.object(synthetic, "_cpus", return_value=2):
                # The pool's only thread waits on the gate, so every draw
                # queued behind it is one an asker must take back: waiting
                # for it would wait out the gate's 30 s.
                blocker = executor.submit(gate.wait, 30)
                for k in [0, 1, 2, 3, 0, 1, 2, 3]:
                    queued = pending[k]
                    gradient = group[k].compute_gradient()
                    assert gradient.tobytes() == loners[k].compute_gradient().tobytes()
                    if queued is not None:
                        assert queued[0].cancelled() and queued[2] == []
                    assert not blocker.done()
        finally:
            gate.set()
            executor.shutdown(wait=True)
        assert blocker.result() is True

    @pytest.mark.parametrize(
        "n_params, ahead",
        [(AHEAD_MAX_PARAMS, True), (AHEAD_MAX_PARAMS + 1, False)],
        ids=["at-the-cap", "above-it"],
    )
    def test_a_stream_draws_ahead_only_up_to_the_cap(self, n_params, ahead):
        group, loners = self.group_and_loners(4, n_params)
        pending = group[0]._group._pending
        with mock.patch.object(synthetic, "_cpus", return_value=2):
            gradient = group[0].compute_gradient()
            assert gradient.tobytes() == loners[0].compute_gradient().tobytes()
            # The asker's peers were started either way; only a short
            # vector queues the asker's own next draw too.
            assert [p is not None for p in pending] == [ahead, True, True, True]
            for k in [1, 2, 3, 0, 1, 2, 3]:
                gradient = group[k].compute_gradient()
                assert gradient.tobytes() == loners[k].compute_gradient().tobytes()
            assert [p is not None for p in pending] == [ahead] * 4

    def test_more_streams_than_cores_under_fast_thread_switching(self):
        group, loners = self.group_and_loners(8)
        asks = np.random.default_rng(3).integers(0, 8, size=200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(synthetic, "_cpus", return_value=2):
                drawn = [(k, group[k].compute_gradient()) for k in asks]
        finally:
            sys.setswitchinterval(interval)
        for k, gradient in drawn:
            assert gradient.tobytes() == loners[k].compute_gradient().tobytes()

    def test_a_replica_asked_late_gets_its_pending_draw(self):
        group, loners = self.group_and_loners(3)
        with mock.patch.object(synthetic, "_cpus", return_value=2):
            # Replica 2's second draw starts with the others' next round
            # and then sits pending while they run on for three more.
            for k in [0, 1, 2, 0, 1, 0, 1, 0, 1]:
                group[k].compute_gradient()
            late = group[2].compute_gradient()
        loners[2].compute_gradient()
        assert late.tobytes() == loners[2].compute_gradient().tobytes()

    def test_no_pool_below_the_crossover_for_a_loner_or_on_one_cpu(self):
        cases = [
            (4, POOL_MIN_PARAMS - 1, 2),  # too short to pay for a hand-off
            (1, 4 * POOL_MIN_PARAMS, 2),  # a group of one
            (4, 4 * POOL_MIN_PARAMS, 1),  # nothing to run in parallel on
        ]
        no_pool = mock.patch.object(
            synthetic, "_pool", side_effect=AssertionError("pool started")
        )
        for n, n_params, cpus in cases:
            group, loners = self.group_and_loners(n, n_params)
            with no_pool, mock.patch.object(synthetic, "_cpus", return_value=cpus):
                for replica, loner in zip(group, loners):
                    gradient = replica.compute_gradient()
                    assert gradient.tobytes() == loner.compute_gradient().tobytes()
        # Control: the same patch does see a pooled group.
        group, _ = self.group_and_loners(2)
        with no_pool, mock.patch.object(synthetic, "_cpus", return_value=2):
            with pytest.raises(AssertionError, match="pool started"):
                group[0].compute_gradient()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_after_a_pooled_run_draws_without_hanging(self):
        group, loners = self.group_and_loners(2)
        with mock.patch.object(synthetic, "_cpus", return_value=2):
            group[0].compute_gradient()  # the parent's pool now has threads
            # A whole run just before the fork leaves each of its
            # streams' next draws queued or filling on the parent's pool.
            result = run(ExperimentConfig(
                strategy="isw", workload="synth", iterations=2,
                telemetry=False,
            ))
            left = result.workers[0].algorithm._group._pending
            assert all(p is not None for p in left)
            expected = [loner.compute_gradient().tobytes() for loner in loners]
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork() in a threaded process,
                # which is exactly the case under test.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: a fresh group on a fresh pool
                code = 1
                try:
                    fresh, _ = self.group_and_loners(2)
                    drawn = [r.compute_gradient().tobytes() for r in fresh]
                    pool_pid = synthetic._pool_of_process[0]
                    code = 0 if drawn == expected and pool_pid == os.getpid() else 1
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung drawing its gradients")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


    def test_the_interpreter_exits_with_draws_queued(self):
        # Every pooled run ends with one draw per stream still queued;
        # the pool's threads must not keep the process from exiting.
        script = """
import time
from repro.distributed import ExperimentConfig, run
from repro.rl import synthetic
synthetic._cpus = lambda: 2
synthetic._pool().submit(time.sleep, 3)  # hold the draws in the queue
result = run(ExperimentConfig(strategy="isw", workload="synth", n_workers=4,
                              iterations=3, telemetry=False))
left = result.workers[0].algorithm._group._pending
assert len(left) == 4 and not any(p[0].done() for p in left)
"""
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# A run says which per-byte path it took; the Help cache is bounded in rounds
# ----------------------------------------------------------------------
class TestIngestReport:
    def run(self, **fields):
        config = dict(strategy="isw", workload="synth", n_workers=4, iterations=3)
        config.update(fields)
        return run(ExperimentConfig(**config))

    def test_result_and_snapshot_name_the_path(self):
        off = self.run(telemetry=False)
        assert off.ingest == {"view": 12}
        # Telemetry reads the arrival times the trains carry: same path.
        on = self.run()
        assert on.ingest == off.ingest
        assert on.telemetry.value("switch.batch_bails") == 0
        assert on.telemetry.value("switch.joins", kind="view") == 12
        assert self.run(strategy="ps", telemetry=False).ingest is None

    def test_fallback_paths_are_named_by_cause(self):
        # No engine setting is a cause: every clean run reports joins only.
        for fields in (
            dict(codec="int32-bs"),
            dict(codec="fp16"),
            dict(deterministic_aggregation=True),
            dict(mode="async", deterministic_aggregation=True, staleness_bound=2),
        ):
            assert self.run(telemetry=False, **fields).ingest == {"view": 12}, fields
        emergent = self.run(telemetry=False, mode="async", iterations=15)
        assert set(emergent.ingest) == {"view"}
        # Armed recovery keeps the cluster per-packet: no trains at all.
        assert self.run(telemetry=False, loss_rate=0.01).ingest == {}
        # A ToR's partial travels to the root as a run: its join is a view.
        tree = run(ExperimentConfig(
            strategy="isw", workload="synth", n_workers=12, iterations=15,
            seed=7, telemetry=False,
        ))
        assert tree.ingest == {"view": 240}
        # A short last chunk overtakes its neighbour inside a ToR: what the
        # root gets is no longer a run.
        ddpg = self.run(telemetry=False, workload="ddpg", n_workers=12)
        assert ddpg.ingest == {"view": 36, "shape": 12}

    @pytest.mark.parametrize(
        "fields",
        [
            dict(),
            dict(mode="async", iterations=8),
            dict(n_workers=12),
            dict(mode="async", n_workers=12, iterations=8),
            dict(codec="fp16"),
            dict(codec="int32-bs", n_workers=12),
            dict(deterministic_aggregation=True),
            dict(workload="dqn"),
            dict(workload="ddpg", n_workers=12),
        ],
        ids=[
            "sync", "async", "tree", "async-tree", "fp16", "int32-bs-tree",
            "canonical", "dqn", "ddpg-tree",
        ],
    )
    def test_telemetry_does_not_choose_the_path(self, fields):
        off = self.run(telemetry=False, **fields)
        on = self.run(**fields)
        assert on.ingest == off.ingest
        assert set(on.ingest) <= {"view", "shape"}
        assert on.elapsed == off.elapsed


class TestHelpCacheIsBoundedInRounds:
    def engines(self, **fields):
        config = dict(strategy="isw", workload="synth", n_workers=4, telemetry=False)
        config.update(fields)
        with built_clusters() as built:
            run(ExperimentConfig(**config))
        return [switch.engine for switch in built[0][0].switches]

    @pytest.mark.parametrize(
        "fields,rounds",
        [
            (dict(iterations=12), 2),
            (dict(iterations=12, loss_rate=0.01), 2),
            (dict(iterations=12, n_workers=12), 2),
            (dict(iterations=40, mode="async", staleness_bound=3), 14),
        ],
        ids=["train", "lossy", "tree", "async"],
    )
    def test_cache_holds_a_window_of_rounds_not_4096_segments(self, fields, rounds):
        for engine in self.engines(**fields):
            assert engine.cache_size == 64 * rounds
            cached = sorted(engine._result_cache)
            assert 64 <= len(cached) <= engine.cache_size
            # The newest round is always whole: Help for it is answered.
            newest = cached[-1] // 64
            assert [s for s in cached if s // 64 == newest] == list(
                range(newest * 64, newest * 64 + 64)
            )
