"""An allocation budget that fails on the next stray copy of the vector.

Peak traced memory of one ``run()``, in units of one float32 gradient
vector ``V``.  What has to be live on a 4-worker synthetic run is four
float64 replicas (8 V) and the round's fresh gradients (4 V), plus the
last rounds' results still pinned for Help (isw) or shared until the round
barrier (ps, ar): about 14.1 V on every strategy, reached when a round's
gradients are drawn.  Before the Help cache was bounded in rounds the
same runs peaked at 24.8 V (isw, growing by 1 V per iteration as the Help
cache pinned every round buffer), 18.7 V (ps) and 24.7 V (ar); until
``SyntheticAlgorithm.apply_update`` worked in blocks, its full-length
float64 temporary put a 2-iteration isw run at 14.1 V too (now 13.1 V).
"""

import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core.protocol import DataSegment, SegmentPlan
from repro.distributed import ExperimentConfig, run
from repro.distributed.runner import make_algorithm
from repro.distributed.transport import VectorChunk
from repro.live import driver
from repro.live import worker as live_worker
from repro.live.switch import SoftwareSwitch
from repro.netsim import Packet, PacketCapture
from repro.rl.synthetic import SyntheticAlgorithm

from .helpers import built_clusters

N_PARAMS = 366_000
V = 4 * N_PARAMS


def peak_in_vectors(strategy, iterations):
    config = ExperimentConfig(
        strategy=strategy, workload="synth", n_workers=4,
        iterations=iterations, seed=7, telemetry=False,
        algorithm_overrides={"n_params": N_PARAMS},
    )
    # The first run in a process also imports what the run imports lazily
    # (numpy.random, concurrent.futures, ...): ~0.4 V of importlib
    # allocations that would be traced only when this file runs first.
    run(config)
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1] / V
    finally:
        tracemalloc.stop()


#: Measured 14.06-14.11 V on every strategy and iteration count below.
PEAK_BOUND_V = 14.5


def test_sync_isw_peak_is_bounded_and_does_not_grow_with_iterations():
    # A sync Help cache holds two rounds' results once it is full, at the
    # third round's draw: from there on the peak is flat.
    short = peak_in_vectors("isw", 3)
    long = peak_in_vectors("isw", 12)
    assert short <= PEAK_BOUND_V, short
    # A Help cache counted in segments pinned one round buffer per
    # iteration: +9 V over these nine iterations.
    assert abs(long - short) <= 0.5, (short, long)


@pytest.mark.parametrize("strategy", ["ps", "ar", "ar-hd", "ps-shard"])
def test_sharing_the_round_results_does_not_raise_the_host_side_peak(strategy):
    # The shared fold and mean are released at the round barrier; a memo
    # that outlived it would add 2 V per retained round.
    short = peak_in_vectors(strategy, 2)
    long = peak_in_vectors(strategy, 12)
    assert short <= PEAK_BOUND_V, short
    assert abs(long - short) <= 1.0, (short, long)


@pytest.mark.parametrize("strategy", ["isw", "ps", "ar", "ar-hd", "ps-shard"])
def test_drawing_a_gradient_leaves_no_vector_behind(strategy):
    # The whole-run peak above misses a stray gradient copy on the host
    # aggregators: with ``.copy()`` planted in ``compute_gradient`` ps,
    # ar, ar-hd and ps-shard still peak at 14.07-14.10 V (isw: +1 V),
    # because their peak comes later in the round, when the copy's
    # original is long freed.  Inside the call the copy shows: what the
    # call allocated and freed again (its peak less what is live when it
    # returns) is 1.00 V with the copy and <= 0.003 V without it.
    config = ExperimentConfig(
        strategy=strategy, workload="synth", n_workers=4, iterations=4,
        seed=7, telemetry=False, algorithm_overrides={"n_params": N_PARAMS},
    )
    run(config)  # lazy imports out of the traced run (peak_in_vectors)
    draw = SyntheticAlgorithm.compute_gradient
    freed = []

    def traced_draw(self):
        tracemalloc.reset_peak()
        gradient = draw(self)
        live, peak = tracemalloc.get_traced_memory()
        freed.append((peak - live) / V)
        return gradient

    tracemalloc.start()
    try:
        with mock.patch.object(SyntheticAlgorithm, "compute_gradient", traced_draw):
            run(config)
    finally:
        tracemalloc.stop()
    assert len(freed) >= 16 and max(freed) <= 0.25, max(freed)


# ----------------------------------------------------------------------
# Objects: a vector on a clean path is one run, not 64 packets
# ----------------------------------------------------------------------
def constructions_per_iteration(
    capture, strategy="isw", n_workers=4, payload=DataSegment
):
    """``Packet`` + ``payload`` objects built per warm iteration of a clean
    sync synth run (10 iterations after 2 of warm-up), and what a capture
    on worker 0 recorded per iteration."""
    built = {"count": 0}
    iteration_marks = []
    captures = []

    def counting(cls):
        if not hasattr(cls, "trusted"):  # a plain dataclass: one way in
            init = cls.__init__

            def spy_init(self, *args, **kwargs):
                built["count"] += 1
                init(self, *args, **kwargs)

            return mock.patch.object(cls, "__init__", spy_init)
        # Both ways either class is built: validated (the dataclass
        # __init__ ends in __post_init__) and trusted.
        trusted, validated = cls.trusted.__func__, cls.__post_init__

        def spy_trusted(klass, *args, **kwargs):
            built["count"] += 1
            return trusted(klass, *args, **kwargs)

        def spy_validated(self):
            built["count"] += 1
            validated(self)

        return mock.patch.multiple(
            cls, trusted=classmethod(spy_trusted), __post_init__=spy_validated
        )

    def tap(net, workers):
        if capture:
            captures.append(PacketCapture(workers[0].host))
        finish = workers[0].finish_iteration

        def marked(*args, **kwargs):
            iteration_marks.append(built["count"])
            return finish(*args, **kwargs)

        workers[0].finish_iteration = marked

    with counting(Packet), counting(payload), built_clusters(tap):
        run(
            ExperimentConfig(
                strategy=strategy, workload="synth", n_workers=n_workers,
                iterations=12, seed=7, telemetry=False,
            )
        )
    assert len(iteration_marks) == 12
    per_iteration = (iteration_marks[-1] - iteration_marks[1]) / 10
    records = len(captures[0].records) / 12 if capture else 0
    return per_iteration, records


def test_a_clean_iteration_builds_a_handful_of_packet_objects():
    # O(members), not O(members x chunks): the parent built ~900 (320
    # Packet.trusted, 256 clone_to, 320 DataSegment.trusted).
    per_iteration, _ = constructions_per_iteration(capture=False)
    assert per_iteration <= 32, per_iteration


def test_a_capture_still_sees_every_packet_of_every_train():
    # Whoever asks for packets gets them: 64 per result train, built then.
    per_iteration, records = constructions_per_iteration(capture=True)
    assert records == 64
    assert 128 <= per_iteration <= 128 + 32, per_iteration


#: Chunks worker 0 receives per sync iteration at n=8: the pulled vector
#: (64 one-frame chunks), or 2·7 ring steps of an eighth of it (8 each).
BASELINE_CHUNKS = {"ps": 64, "ar": 112}


@pytest.mark.parametrize("strategy", sorted(BASELINE_CHUNKS))
def test_a_clean_baseline_iteration_builds_no_packet_per_chunk(strategy):
    # O(members), not O(members x chunks): the parent built 1,024 Packet +
    # 1,024 VectorChunk (ps) and 896 + 896 (ar) per iteration.
    per_iteration, _ = constructions_per_iteration(
        False, strategy, n_workers=8, payload=VectorChunk
    )
    assert per_iteration <= 2 * 8, per_iteration


@pytest.mark.parametrize("strategy", sorted(BASELINE_CHUNKS))
def test_a_capture_still_sees_every_chunk_of_every_flow(strategy):
    # Whoever asks for packets gets them: a Packet and a VectorChunk per
    # chunk worker 0 receives, built then.
    per_iteration, records = constructions_per_iteration(
        True, strategy, n_workers=8, payload=VectorChunk
    )
    assert records == BASELINE_CHUNKS[strategy]
    assert 2 * records <= per_iteration <= 2 * records + 2 * 8, per_iteration


# ----------------------------------------------------------------------
# Live: a data frame is a header and a view, on the switch and the worker
# ----------------------------------------------------------------------
def calls_counted(owner, name, calls):
    """Patch ``owner.name`` with a wrapper that counts into ``calls[name]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return mock.patch.object(owner, name, counted)


def test_a_clean_live_round_builds_no_validated_segment_and_assembles_nothing():
    # The parent ran two validating DataSegments per data frame on the
    # switch (decode_frame's, then the rank re-key) — 256 for this round —
    # and a worker decoded each of its 64 results and assembled them.
    # Both roles are driven as ``serve`` drives them: frames in through
    # ``handle_frame``, the worker's join, round and apply in ``on_timer``.
    switch_addr = ("127.0.0.1", 45000)
    addrs = [("127.0.0.1", 40000 + rank) for rank in range(2)]
    switch = SoftwareSwitch(n_workers=2)
    workers = [
        live_worker.LiveWorker(rank, 2, make_algorithm("synth", seed=7 + rank), switch_addr)
        for rank in range(2)
    ]
    # The gradients the workers will compute: the same seeded streams.
    gradients = [
        np.asarray(make_algorithm("synth", seed=7 + rank).compute_gradient(), dtype=np.float32)
        for rank in range(2)
    ]
    inbox = {addr: [] for addr in addrs}

    def to_switch(frames, addr):
        for frame, _ in frames:
            for result, dst in switch.handle_frame(frame, addr):
                inbox[dst].append(result)

    for worker, addr in zip(workers, addrs):
        worker.start(1)
        to_switch(worker.on_timer(0.0), addr)  # the Join
    for worker, addr in zip(workers, addrs):
        for frame in inbox[addr]:  # ACK and SetH
            worker.handle_frame(frame, switch_addr)
        inbox[addr].clear()
    ups = [worker.on_timer(0.0) for worker in workers]
    assert [len(frames) for frames in ups] == [64, 64]
    calls = collections.Counter()
    with calls_counted(DataSegment, "__post_init__", calls):
        for frames in zip(*ups):
            for frame, addr in zip(frames, addrs):
                to_switch([frame], addr)
    assert switch.counters["results_broadcast"] == 64
    assert calls["__post_init__"] == 0
    totals = []
    apply = live_worker.LiveWorker._apply
    with calls_counted(driver, "decode_frame", calls), calls_counted(
        SegmentPlan, "assemble", calls
    ), mock.patch.object(
        live_worker.LiveWorker,
        "_apply",
        lambda self, total, r: (totals.append(total.copy()), apply(self, total, r)),
    ):
        for worker, addr in zip(workers, addrs):
            for frame in inbox[addr]:
                worker.handle_frame(frame, switch_addr)
            worker.on_timer(0.0)
    assert calls["decode_frame"] == calls["assemble"] == 0
    assert [worker.applied for worker in workers] == [1, 1]
    for total in totals:
        np.testing.assert_array_equal(total, gradients[0] + gradients[1])
