"""An allocation budget that fails on the next stray copy of the vector.

Peak traced memory of one ``run()``, in units of one float32 gradient
vector ``V``.  What has to be live on a 4-worker synthetic run is four
float64 replicas (8 V), the round's gradients (4 V, on iSwitch one of them
*is* the round buffer), one float64 update and the optimizer's temporary
(2 V each): about 14.8 V on every strategy.  At the parent commit the same
runs peaked at 24.8 V (isw, growing by 1 V per iteration as the Help cache
pinned every round buffer), 18.7 V (ps) and 24.7 V (ar).
"""

import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core.protocol import (
    Action,
    ControlMessage,
    DataSegment,
    JoinInfo,
    SegmentPlan,
    encode_control,
)
from repro.distributed import ExperimentConfig, run
from repro.distributed.runner import make_algorithm
from repro.distributed.transport import VectorChunk
from repro.live import worker as live_worker
from repro.live.switch import SoftwareSwitch
from repro.netsim import Packet, PacketCapture

from .helpers import built_clusters

N_PARAMS = 366_000
V = 4 * N_PARAMS


def peak_in_vectors(strategy, iterations):
    tracemalloc.start()
    try:
        run(
            ExperimentConfig(
                strategy=strategy, workload="synth", n_workers=4,
                iterations=iterations, seed=7, telemetry=False,
                algorithm_overrides={"n_params": N_PARAMS},
            )
        )
        return tracemalloc.get_traced_memory()[1] / V
    finally:
        tracemalloc.stop()


def test_sync_isw_peak_is_bounded_and_does_not_grow_with_iterations():
    short = peak_in_vectors("isw", 2)
    long = peak_in_vectors("isw", 12)
    assert short <= 16.0, short
    # A Help cache counted in segments pinned one round buffer per
    # iteration: +10 V over these ten iterations at the parent commit.
    assert abs(long - short) <= 1.0, (short, long)


@pytest.mark.parametrize("strategy", ["ps", "ar", "ar-hd", "ps-shard"])
def test_sharing_the_round_results_does_not_raise_the_host_side_peak(strategy):
    # The shared fold and mean are released at the round barrier; a memo
    # that outlived it would add 2 V per retained round.
    short = peak_in_vectors(strategy, 2)
    long = peak_in_vectors(strategy, 12)
    assert short <= 16.0, short
    assert abs(long - short) <= 1.0, (short, long)


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
class _Inbox:
    """An endpoint without a socket: sends are kept, receives pop a queue."""

    def __init__(self):
        self.sent, self.queued = [], collections.deque()

    def send(self, frame, addr):
        self.sent.append((frame, addr))

    def recv(self, timeout):
        return self.queued.popleft() if self.queued else None


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
    switch_addr = ("127.0.0.1", 45000)
    addrs = [("127.0.0.1", 40000 + rank) for rank in range(2)]
    switch = SoftwareSwitch(n_workers=2)
    workers = []
    for rank, addr in enumerate(addrs):
        join = ControlMessage(Action.JOIN, JoinInfo(rank=rank))
        switch.handle_frame(encode_control(join), addr)
        algorithm = make_algorithm("synth", seed=7 + rank)
        workers.append(
            live_worker.LiveWorker(rank, 2, algorithm, _Inbox(), switch_addr)
        )
    gradients = [
        np.asarray(w.algorithm.compute_gradient(), dtype=np.float32)
        for w in workers
    ]
    for worker, gradient in zip(workers, gradients):
        worker._submit(gradient, 0)
    calls = collections.Counter()
    with calls_counted(DataSegment, "__post_init__", calls):
        for frames in zip(*(w.endpoint.sent for w in workers)):
            for (frame, _), addr in zip(frames, addrs):
                for result, dst in switch.handle_frame(frame, addr):
                    workers[addrs.index(dst)].endpoint.queued.append(
                        (result, switch_addr)
                    )
    assert switch.counters["results_broadcast"] == 64
    assert calls["__post_init__"] == 0
    with calls_counted(live_worker, "decode_frame", calls), calls_counted(
        SegmentPlan, "assemble", calls
    ):
        totals = [w._complete(0) for w in workers]
    assert calls["decode_frame"] == calls["assemble"] == 0
    for total in totals:
        np.testing.assert_array_equal(total, gradients[0] + gradients[1])
