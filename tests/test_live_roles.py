"""The live roles, socket-free: frame by frame, and whole sessions on a wire.

Every live process is a sans-I/O role (``repro.live.driver``): a switch,
a PS shard, an async PS, or a worker of any family maps (frame or timer
expiry) to the frames to send.  This module drives them without sockets,
processes or threads — so it runs in tier-1:

* the server roles' ``handle_frame`` / ``on_timer``, frame by frame, and
  hostile frames against every role;
* whole sessions — sync and async-isw, ps, ps-shard, async-ps, ring,
  halving/doubling and switch trees — on :class:`tests.live_wire.Wire`,
  a single-threaded wire on a virtual clock with seeded drop, duplicate,
  reorder and delay, against straight-line reference digests; watchdog
  abandonment is exact on its virtual time.

The same roles over real loopback UDP processes, against the simulator,
are ``tests/test_live_conformance.py`` (marked ``live``).
"""

import hashlib
import math
import struct
import time

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
from repro.live.switch import SoftwareSwitch
from repro.live.worker import LiveWorker

from .live_wire import LOOPBACK, Chatter, Wire

ITERATIONS = 3


def _digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


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


def drive(worker, script, iterations=1):
    """Run ``worker`` for ``iterations`` rounds on a scripted inbox: each
    ``(frame, addr)`` is handed to it in turn, and its timer fires (at
    time 0) whenever it is due at once.  Returns every frame it sent."""
    worker.start(iterations)
    sent = worker.on_timer(0.0)
    for frame, addr in script:
        sent += worker.handle_frame(frame, addr)
        if worker.next_timer == -math.inf:
            sent += worker.on_timer(0.0)
    return sent


#: The switch's go frame, for a test that pretends a join happened (the
#: PS family's is ``b"G"``).
SETH = encode_control(ControlMessage(Action.SETH, value=1))


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


class TestShardLogic:
    def test_shard_ranges_cover_and_partition(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert shard_ranges(6, 2) == [(0, 3), (3, 6)]

    def test_constructor_and_join_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            LiveShardWorker(0, 2, TinyAlgorithm(), [])
        worker = LiveShardWorker(0, 2, TinyAlgorithm(), [(LOOPBACK, 1)])
        assert_trains_only_after_the_join(worker, b"J")


class TestPeerExchangeLogic:
    """Unit-level checks on the collective workers (no training loop)."""

    def peers(self, n):
        return {rank: (LOOPBACK, 42000 + rank) for rank in range(n)}

    def test_constructor_validation(self):
        algorithm = TinyAlgorithm()
        with pytest.raises(ValueError, match=">= 2 workers"):
            LiveRingWorker(0, 1, algorithm, {0: (LOOPBACK, 1)})
        with pytest.raises(ValueError, match="cover ranks"):
            LiveRingWorker(0, 2, algorithm, {0: (LOOPBACK, 1)})
        with pytest.raises(ValueError, match="loss_rate"):
            LiveRingWorker(
                0, 2, algorithm, self.peers(2), loss_rate=1.0
            )
        with pytest.raises(ValueError, match="power-of-two"):
            LiveHdWorker(0, 3, algorithm, self.peers(3))

    def test_ingest_rejects_garbage_and_counts_errors(self):
        peer = self.peers(2)[1]
        worker = LiveRingWorker(0, 2, TinyAlgorithm(), self.peers(2))
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
        mine, peer = self.peers(2).values()
        worker = LiveRingWorker(0, 2, TinyAlgorithm(), {0: mine, 1: peer})
        worker._peer_done.add(1)
        worker.start(0)  # no rounds: it lingers at once
        got = worker.on_timer(0.0)
        assert got == [(b"F\x00", peer)]
        assert worker.done

    def test_stale_rounds_pruned_from_buffers(self):
        import struct

        peer = self.peers(2)[1]
        worker = LiveRingWorker(0, 2, TinyAlgorithm(), self.peers(2))
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
        worker = LiveWorker(0, 2, TinyAlgorithm(), self.MEMBERS[0])
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
        worker = LiveWorker(0, 2, TinyAlgorithm(), self.MEMBERS[0])
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

    def exchange_worker(self):
        """Rank 1 of a two-rank ring; the only peer is ``MEMBERS[0]``."""
        algorithm = TinyAlgorithm(self.EXCHANGE_ELEMENTS)
        return LiveRingWorker(1, 2, algorithm, dict(enumerate(self.MEMBERS)))

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
        worker = self.exchange_worker()
        gradient = TinyAlgorithm(self.EXCHANGE_ELEMENTS).compute_gradient()
        drive(worker, [(f, peer) for f in script + [b"F\x00"]])
        assert worker.done
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
        worker = self.exchange_worker()
        gradient = TinyAlgorithm(self.EXCHANGE_ELEMENTS).compute_gradient()
        drive(worker, script)
        assert worker.done
        total = np.concatenate([gradient[: block.size] + block, block])
        np.testing.assert_array_equal(worker.algorithm.get_weights(), -total / 2)
        assert worker.counters["non_member"] == 3
        resend = b"R" + struct.pack("<BBII", 0, 0, 0, 0)
        assert worker.handle_frame(resend, stranger) == []
        assert worker.counters["non_member"] == 4
        sent = worker.handle_frame(resend, peer)  # the peer's: both fragments again
        assert [addr for _, addr in sent] == [peer, peer]
        assert worker.counters["resends_served"] == 1


# ---------------------------------------------------------------------------
# Every worker family's role, frame by frame
# ---------------------------------------------------------------------------
def assert_trains_only_after_the_join(worker, join_tag):
    """Until its go arrives a worker only (re)sends its Join(s): it
    computes no gradient and submits nothing; a server that never admits
    it ends the wait after 30 s."""
    worker.start(1)
    for now in (0.0, 0.5):
        out = worker.on_timer(now)
        assert out and {frame[:1] for frame, _ in out} == {join_tag}
    assert worker.on_timer(0.7) == []  # the next resend is not due yet
    assert worker.submitted == 0 and worker.started is None
    with pytest.raises(RuntimeError, match="did not admit within 30s"):
        worker.on_timer(30.0)


class TestWorkerRoles:
    SERVER = (LOOPBACK, 46000)
    STRANGER = (LOOPBACK, 46999)

    def joined(self, worker, go=SETH):
        worker.start(1)
        worker.handle_frame(go, self.SERVER)
        out = worker.on_timer(0.0)
        assert out and worker.submitted == 1
        return out

    def test_join_then_train(self):
        worker = LiveWorker(0, 1, TinyAlgorithm(), self.SERVER)
        assert_trains_only_after_the_join(worker, bytes((TOS_CONTROL,)))
        for worker in (
            LiveAsyncPsWorker(0, 1, TinyAlgorithm(), self.SERVER),
            LiveShardWorker(0, 1, TinyAlgorithm(), [self.SERVER]),
        ):
            assert_trains_only_after_the_join(worker, b"J")

    def test_a_shard_worker_trains_once_every_shard_admitted_it(self):
        shards = [(LOOPBACK, 46001), (LOOPBACK, 46002)]
        worker = LiveShardWorker(0, 1, TinyAlgorithm(), shards)
        worker.start(1)
        assert [a for _, a in worker.on_timer(0.0)] == shards
        worker.handle_frame(b"G", shards[1])
        assert worker.next_timer == 0.5  # shard 0 still owes its go
        assert [a for _, a in worker.on_timer(0.5)] == [shards[0]]
        worker.handle_frame(b"G", shards[0])
        assert worker.next_timer == -math.inf
        out = worker.on_timer(0.6)
        assert {(f[:1], a) for f, a in out} == {(b"U", s) for s in shards}

    def test_a_strangers_result_is_not_the_round(self):
        """A second switch broadcast a well-formed result for job 0,
        round 0, Seg 0 — the worker took it, and closed the round on the
        stranger's 1e6s.  Frames come from the switch it joined."""
        worker = LiveWorker(0, 1, TinyAlgorithm(), self.SERVER)
        (up, _), = self.joined(worker)
        forged = DataSegment(seg=0, data=np.full(5, 1e6, dtype=np.float32))
        assert worker.handle_frame(encode_data(forged, downstream=True), self.STRANGER) == []
        assert worker.counters["non_member"] == 1
        assert worker.rounds.missing(0) == {0}
        real = decode_frame(up)[1].data
        sum_ = encode_data(DataSegment(seg=0, data=real), downstream=True)
        worker.handle_frame(sum_, self.SERVER)
        worker.on_timer(0.0)
        assert worker.round_digests == [_digest(real)]
        np.testing.assert_array_equal(worker.algorithm.get_weights(), -real.astype(np.float64))

    def test_a_strangers_seth_does_not_admit(self):
        worker = LiveWorker(0, 1, TinyAlgorithm(), self.SERVER)
        worker.start(1)
        worker.on_timer(0.0)
        assert worker.handle_frame(SETH, self.STRANGER) == []
        assert worker.counters["non_member"] == 1
        out = worker.on_timer(0.5)  # still joining: the Join goes again
        assert [decode_frame(f)[1].action for f, _ in out] == [Action.JOIN]
        assert worker.submitted == 0

    def test_a_strangers_help_draws_no_retransmission(self):
        worker = LiveWorker(0, 1, TinyAlgorithm(), self.SERVER)
        (up, _), = self.joined(worker)
        help_ = encode_control(ControlMessage(Action.HELP, value=0))
        assert worker.handle_frame(help_, self.STRANGER) == []
        assert worker.counters["non_member"] == 1
        assert worker.counters["retransmissions"] == 0
        # The switch's relayed Help: this worker's own frame goes again.
        assert worker.handle_frame(help_, self.SERVER) == [(up, self.SERVER)]
        assert worker.counters["retransmissions"] == 1

    def test_host_level_workers_ignore_strangers_too(self):
        ps = LiveShardWorker(0, 1, TinyAlgorithm(), [self.SERVER])
        self.joined(ps, go=b"G")
        down = b"D" + struct.pack("<II", 0, 0) + np.full(5, 1e6).tobytes()
        ps.handle_frame(down, self.STRANGER)
        assert ps.counters["non_member"] == 1 and ps._missing == {(0, 0)}
        apush = LiveAsyncPsWorker(0, 1, TinyAlgorithm(), self.SERVER)
        self.joined(apush, go=b"G")
        pull = b"W" + struct.pack("<BIII", 0, 1, 0, 1) + np.zeros(5).tobytes()
        apush.handle_frame(pull, self.STRANGER)
        assert apush.counters["non_member"] == 1 and apush._missing == {0}
        apush.handle_frame(pull, self.SERVER)
        assert apush._missing == set()

    def test_progress_rewinds_the_watchdog_and_expiry_backs_off(self):
        """Each expiry without progress asks for Help and doubles the
        period (T, 2T, 4T, ...); a result that lands on the awaited round
        makes the timer due at once, which rewinds it to T."""
        worker = LiveWorker(
            0, 1, TinyAlgorithm(n_elements=2 * 366), self.SERVER,
            recovery_timeout=0.125, max_recovery_attempts=5,
        )
        worker.start(1)
        worker.handle_frame(SETH, self.SERVER)
        ups = worker.on_timer(0.0)
        assert len(ups) == 2 and worker.next_timer == 0.125
        helps = worker.on_timer(0.125)
        assert [decode_frame(f)[1].value for f, _ in helps] == [0, 1]
        assert worker.next_timer == 0.375
        assert len(worker.on_timer(0.375)) == 2
        assert worker.next_timer == 0.875
        assert worker.on_timer(0.5) == []  # not due
        first = decode_frame(ups[0][0])[1]
        sum_ = encode_data(DataSegment(seg=0, data=first.data), downstream=True)
        worker.handle_frame(sum_, self.SERVER)
        assert worker.next_timer == -math.inf
        assert worker.on_timer(0.625) == []  # the rewind
        assert worker.next_timer == 0.75
        assert worker.counters["watchdog_timeouts"] == 2
        helps = worker.on_timer(0.75)  # a fresh first attempt: 2T next
        assert [decode_frame(f)[1].value for f, _ in helps] == [1]
        assert worker.next_timer == 1.0


# ---------------------------------------------------------------------------
# serve: the one loop, over any endpoint
# ---------------------------------------------------------------------------
class ScriptedEndpoint:
    """No socket: sends are kept, receives pop a script (then time out)."""

    def __init__(self, script=()):
        self.sent, self.queued, self.waits = [], list(script), 0

    def send(self, frame, addr):
        self.sent.append((frame, addr))

    def recv(self, timeout):
        if self.queued:
            return self.queued.pop(0)
        self.waits += 1
        return None


class TestServe:
    MEMBERS = [(LOOPBACK, 47000), (LOOPBACK, 47001)]

    def test_serves_a_server_role_until_it_is_done(self):
        join = lambda rank: b"J" + struct.pack("<BI", rank, 1)
        up = lambda rank: b"U" + struct.pack("<BII", rank, 0, 0) + np.ones(1, "<f4").tobytes()
        script = [(join(r), a) for r, a in enumerate(self.MEMBERS)]
        script += [(up(r), a) for r, a in enumerate(self.MEMBERS)]
        script += [(b"L" + bytes([r]), a) for r, a in enumerate(self.MEMBERS)]
        endpoint = ScriptedEndpoint(script)
        server = PsServer(n_workers=2)
        serve(server, endpoint, time.monotonic() + 5.0)
        assert server.done and endpoint.waits == 0
        assert [f[:1] for f, _ in endpoint.sent] == [b"A", b"A", b"G", b"G", b"D", b"D"]
        assert server.counters["frames_tx"] == 6

    def test_serves_a_worker_through_its_timers(self):
        """A worker's join, round and leave all run from ``serve``: its
        first timer sends the Join, the go makes the next one due at once."""
        switch = (LOOPBACK, 47100)
        worker = LiveWorker(0, 1, TinyAlgorithm(), switch)
        worker.start(1)

        class Echo(ScriptedEndpoint):
            """The switch, as far as one member needs it: SetH for its
            Join, its own Seg back as the sum."""

            def send(self, frame, addr):
                super().send(frame, addr)
                message = decode_frame(frame)[1]
                if isinstance(message, DataSegment):
                    down = encode_data(message, downstream=True)
                    self.queued.append((down, switch))
                elif message.action == Action.JOIN:
                    self.queued.append((SETH, switch))

        endpoint = Echo()
        serve(worker, endpoint, time.monotonic() + 5.0)
        assert worker.done and len(worker.round_digests) == 1
        kinds = [decode_frame(f)[1] for f, _ in endpoint.sent]
        assert [getattr(m, "action", None) for m in kinds] == [
            Action.JOIN, None, Action.LEAVE,
        ]
        assert worker.counters["frames_tx"] == 3

    def test_a_server_has_no_timer_of_its_own(self):
        for server in (
            PsServer(n_workers=1),
            LiveAsyncPsServer(n_workers=1, replica=TinyAlgorithm()),
            SoftwareSwitch(n_workers=1),
        ):
            assert server.next_timer == math.inf
            assert server.on_timer(0.0) == []

    def test_stops_at_the_deadline(self):
        endpoint = ScriptedEndpoint()
        switch = SoftwareSwitch(n_workers=1)
        started = time.monotonic()
        serve(switch, endpoint, started + 0.05)
        assert not switch.done and endpoint.waits >= 1
        assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# Whole sessions on the wire
# ---------------------------------------------------------------------------
def run_switch_session(
    n_workers, iterations, loss_rate=0.0, staleness_bound=0, wire=None
):
    """One flat switch, ``n_workers`` iSwitch workers; ``staleness_bound``
    0 is sync-isw, anything above it async-isw — one worker class."""
    wire = wire or Wire()
    switch = SoftwareSwitch(n_workers=n_workers, loss_rate=loss_rate, loss_seed=3)
    switch_addr = wire.add(switch)
    workers = [
        LiveWorker(
            rank=rank,
            n_workers=n_workers,
            algorithm=TinyAlgorithm(n_elements=5, seed=rank),
            switch_addr=switch_addr,
            recovery_timeout=0.05,
            max_recovery_attempts=40,
            staleness_bound=staleness_bound,
        )
        for rank in range(n_workers)
    ]
    run_session(wire, workers, iterations)
    return switch, workers


def run_session(wire, workers, iterations):
    """Plug the workers in, start them, run the wire.  Every server must
    drain too — unless the wire drops frames: no member resends a lost
    Leave, so then only the workers must finish."""
    for worker in workers:
        wire.add(worker)
        worker.start(iterations)
    wire.run(until=(lambda: all(w.done for w in workers)) if wire.drop else None)


def run_ps_session(n_elements, n_shards, loss_rate=0.0, wire=None):
    """``ps`` is the one-shard input of the same :class:`LiveShardWorker`
    that runs ``ps-shard``."""
    wire = wire or Wire()
    servers = [
        PsServer(n_workers=2, loss_rate=loss_rate, loss_seed=3)
        for _ in range(n_shards)
    ]
    addrs = [wire.add(server) for server in servers]
    workers = [
        LiveShardWorker(
            rank=rank,
            n_workers=2,
            algorithm=TinyAlgorithm(n_elements, seed=rank),
            shard_addrs=addrs,
            recovery_timeout=0.05,
            max_recovery_attempts=40,
        )
        for rank in range(2)
    ]
    run_session(wire, workers, ITERATIONS)
    return servers, workers


def run_async_ps(n_workers, n_elements, loss_rate=0.0, wire=None):
    wire = wire or Wire()
    server = LiveAsyncPsServer(
        n_workers=n_workers,
        replica=TinyAlgorithm(n_elements, seed=99),
        loss_rate=loss_rate,
        loss_seed=3,
    )
    server_addr = wire.add(server)
    workers = [
        LiveAsyncPsWorker(
            rank=rank,
            n_workers=n_workers,
            algorithm=TinyAlgorithm(n_elements, seed=rank),
            server_addr=server_addr,
            recovery_timeout=0.05,
            max_recovery_attempts=40,
        )
        for rank in range(n_workers)
    ]
    run_session(wire, workers, ITERATIONS)
    return server, workers


def async_ps_tiny_reference(n_workers, n_elements):
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
                    np.ascontiguousarray(replica.get_weights(), dtype=np.float64)
                )
            )
    return expected


def run_collective(cls, n_workers, n_elements, loss_rate=0.0, wire=None):
    wire = wire or Wire()
    addrs = [wire.address() for _ in range(n_workers)]
    peers = dict(enumerate(addrs))
    workers = [
        cls(
            rank=rank,
            n_workers=n_workers,
            algorithm=TinyAlgorithm(n_elements, seed=rank),
            peers=peers,
            recovery_timeout=0.05,
            max_recovery_attempts=20,
            loss_rate=loss_rate,
            loss_seed=3,
        )
        for rank in range(n_workers)
    ]
    for worker, addr in zip(workers, addrs):
        wire.add(worker, addr)
        worker.start(ITERATIONS)
    wire.run()
    return workers


def run_tree_session(n_workers, rack, n_elements=5, loss_rate=0.0):
    """AGG + ToRs of ``rack`` workers each; returns the switches, the
    workers and the tree's own float32 association as a reference:
    per-rack partials, then the partials in ToR order."""
    wire = Wire()
    n_racks = -(-n_workers // rack)
    agg = SoftwareSwitch(n_workers=n_racks)
    agg_addr = wire.add(agg)
    tors = [
        SoftwareSwitch(
            n_workers=min(rack, n_workers - index * rack),
            parent_addr=agg_addr,
            rank=index,
            loss_rate=loss_rate,
            loss_seed=3 + index,
        )
        for index in range(n_racks)
    ]
    tor_addrs = [wire.add(tor) for tor in tors]
    workers = [
        LiveWorker(
            rank=rank,
            n_workers=rack,  # the worker's barrier is its rack's SetH
            algorithm=TinyAlgorithm(n_elements, seed=rank),
            switch_addr=tor_addrs[rank // rack],
            recovery_timeout=0.05,
            max_recovery_attempts=20,
        )
        for rank in range(n_workers)
    ]
    run_session(wire, workers, ITERATIONS)
    fleet = [TinyAlgorithm(n_elements, seed=r) for r in range(n_workers)]
    expected = []
    for _ in range(ITERATIONS):
        gradients = [w.compute_gradient() for w in fleet]
        partials = []
        for first in range(0, n_workers, rack):
            partial = gradients[first].copy()
            for gradient in gradients[first + 1 : first + rack]:
                partial += gradient
            partials.append(partial)
        total = partials[0].copy()
        for partial in partials[1:]:
            total += partial
        expected.append(_digest(total))
        for worker in fleet:
            worker.apply_update(total.astype(np.float64) / n_workers)
    return agg, tors, workers, expected


def assert_abandons_under_chatter(worker, go, server):
    """``worker`` faces a dead server while a stranger keeps its inbox
    busy; it must raise the typed abandonment inside its budget."""
    wire = Wire()
    addr = wire.add(worker)
    wire.add(Chatter(addr))
    worker.start(1)
    worker.handle_frame(go, server)  # pretend the join happened
    with pytest.raises(LiveRoundAbandoned) as outcome:
        wire.run(until=lambda: worker.done)
    elapsed = wire.now
    error = outcome.value
    assert (error.rank, error.round_index, error.attempts) == (0, 0, 2)
    assert error.missing  # names what never arrived
    assert worker.counters["watchdog_timeouts"] == 3
    assert worker.counters["non_member"] >= 10  # the chatter did arrive
    assert elapsed < 2.5
    # Exact on virtual time: the budget is 0.1 + 0.2 + 0.4 s.
    assert elapsed == pytest.approx(0.7)


class TestInProcessEndToEnd:
    """The iSwitch switch and workers: the full protocol, on the wire."""

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
            switch_addr=(LOOPBACK, 1),
        )
        assert_trains_only_after_the_join(worker, bytes((TOS_CONTROL,)))

    def test_worker_rejects_bad_recovery_timeout(self):
        with pytest.raises(ValueError, match="recovery_timeout"):
            LiveWorker(
                rank=0,
                n_workers=1,
                algorithm=TinyAlgorithm(),
                switch_addr=(LOOPBACK, 1),
                recovery_timeout=0.0,
            )

    def dead_switch_worker(self, switch_addr, recovery_timeout):
        return LiveWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            switch_addr=switch_addr,  # nothing answers there
            recovery_timeout=recovery_timeout,
            max_recovery_attempts=2,
        )

    def test_worker_gives_up_after_max_attempts(self):
        """A dead switch: the watchdog must abandon the round, not hang."""
        wire = Wire()
        blackhole = wire.address()
        worker = self.dead_switch_worker(blackhole, 0.01)
        wire.add(worker)
        worker.start(1)
        worker.handle_frame(SETH, blackhole)  # pretend the join happened
        with pytest.raises(LiveRoundAbandoned, match="abandoned") as info:
            wire.run()
        assert worker.counters["watchdog_timeouts"] >= 2
        assert info.value.missing == [0]  # the one Seg of round 0
        assert wire.now == pytest.approx(0.01 + 0.02 + 0.04)

    def test_watchdog_is_not_starved_by_unrelated_traffic(self):
        """The same dead switch, plus a 20 Hz trickle of unrelated ACK
        control frames: abandonment must still come within the recovery
        budget (0.1 + 0.2 + 0.4 = 0.7 s), not never."""
        blackhole = (LOOPBACK, 46500)
        worker = self.dead_switch_worker(blackhole, 0.1)
        assert_abandons_under_chatter(worker, SETH, blackhole)


class TestAsyncInProcess:
    """Bounded-staleness isw and async PS sessions, on the wire."""

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
                switch_addr=(LOOPBACK, 1),
                staleness_bound=-1,
            )
        worker = LiveWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            switch_addr=(LOOPBACK, 1),
            staleness_bound=3,
        )
        assert_trains_only_after_the_join(worker, bytes((TOS_CONTROL,)))

    def test_async_ps_session_matches_replica_walk(self):
        n_workers, n_elements = 2, 5
        server, workers = run_async_ps(n_workers, n_elements)
        expected = async_ps_tiny_reference(n_workers, n_elements)
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
        server, workers = run_async_ps(2, 5, loss_rate=0.3)
        assert server.counters["drops_injected"] > 0
        assert sum(w.counters["help_sent"] for w in workers) > 0
        assert server.counters["updates"] == 2 * ITERATIONS
        expected = async_ps_tiny_reference(2, 5)
        for rank, worker in enumerate(workers):
            assert worker.round_digests == expected[rank], f"rank {rank}"

    def test_async_ps_worker_requires_join(self):
        worker = LiveAsyncPsWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            server_addr=(LOOPBACK, 1),
        )
        assert_trains_only_after_the_join(worker, b"J")


class TestPsFamilyInProcess:
    """PS sessions on the wire."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_session_matches_float64_reference(self, n_shards):
        # Shard 0's slice spans more than one 183-element chunk either way.
        n_elements = 2 * CHUNK_ELEMS + 40
        servers, workers = run_ps_session(n_elements, n_shards)
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
        servers, workers = run_ps_session(20, n_shards, loss_rate=0.3)
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
        blackhole = (LOOPBACK, 46501)  # nothing answers there
        worker = LiveShardWorker(
            rank=0,
            n_workers=1,
            algorithm=TinyAlgorithm(),
            shard_addrs=[blackhole],
            recovery_timeout=0.1,
            max_recovery_attempts=2,
        )
        assert_abandons_under_chatter(worker, b"G", blackhole)


class TestCollectiveInProcess:
    """Ring / halving-doubling sessions: the full exchange on the wire."""

    def test_ring_matches_float64_reference(self):
        # 3 workers x 5 elements: uneven chunk split (2/2/1).
        workers = run_collective(LiveRingWorker, 3, 5)
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
        workers = run_collective(LiveRingWorker, 2, n_elements)
        expected = tiny_reference(
            2, ITERATIONS, n_elements=n_elements, float64=True
        )
        for worker in workers:
            assert worker.round_digests == expected

    def test_halving_doubling_matches_ring_bits(self):
        ring = run_collective(LiveRingWorker, 4, 12)
        hd = run_collective(LiveHdWorker, 4, 12)
        expected = tiny_reference(4, ITERATIONS, n_elements=12, float64=True)
        assert ring[0].round_digests == expected
        assert hd[0].round_digests == expected
        np.testing.assert_array_equal(
            ring[0].algorithm.get_weights(), hd[0].algorithm.get_weights()
        )

    def test_collective_gives_up_when_peer_is_silent(self):
        """A dead peer: the watchdog must abandon the round, not hang."""
        wire = Wire()
        mine, silent = wire.address(), wire.address()
        worker = LiveRingWorker(
            rank=0,
            n_workers=2,
            algorithm=TinyAlgorithm(n_elements=4),
            peers={0: mine, 1: silent},
            recovery_timeout=0.01,
            max_recovery_attempts=2,
        )
        wire.add(worker, mine)
        worker.start(1)
        with pytest.raises(LiveRoundAbandoned, match="abandoned") as info:
            wire.run()
        assert worker.counters["watchdog_timeouts"] >= 2
        # Typed: who gave up, on what, after how much effort.
        error = info.value
        assert (error.rank, error.round_index, error.attempts) == (0, 0, 2)
        assert error.missing == [(1, 0, 0, 0)]  # rank 1, phase 0, step 0

    @pytest.mark.parametrize("cls", [LiveRingWorker, LiveHdWorker])
    def test_lossy_session_recovers_bit_identically(self, cls):
        workers = run_collective(cls, 2, 8, loss_rate=0.3)
        drops = sum(w.counters["drops_injected"] for w in workers)
        requests = sum(w.counters["resend_requests_sent"] for w in workers)
        assert drops > 0, "loss injection never fired"
        assert requests > 0, "drops happened but nobody asked for a resend"
        assert sum(w.counters["resends_served"] for w in workers) > 0
        expected = tiny_reference(2, ITERATIONS, n_elements=8, float64=True)
        for worker in workers:
            assert worker.round_digests == expected
            assert worker.done


class TestTreeInProcess:
    """Switch trees on the wire: AGG + ToRs + their racks."""

    @pytest.mark.parametrize(
        ("n_workers", "rack"), [(4, 2), (6, 3)], ids=["n4-rack2", "n6-rack3"]
    )
    def test_tree_session_matches_nested_reference(self, n_workers, rack):
        agg, tors, workers, expected = run_tree_session(n_workers, rack)
        for worker in workers:
            assert worker.round_digests == expected
        for tor in tors:
            assert tor.counters["upstream_forwards"] == ITERATIONS
            assert tor.counters["parent_relays"] == ITERATIONS
        assert agg.counters["results_broadcast"] == ITERATIONS
        np.testing.assert_array_equal(
            workers[0].algorithm.get_weights(),
            workers[-1].algorithm.get_weights(),
        )

    def test_lossy_n6_tree_recovers_bit_identically(self):
        agg, tors, workers, expected = run_tree_session(6, 3, loss_rate=0.2)
        assert sum(tor.counters["drops_injected"] for tor in tors) > 0
        assert sum(w.counters["help_sent"] for w in workers) > 0
        for worker in workers:
            assert worker.round_digests == expected


class TestHostileWire:
    """Seeded drop, duplicate, reorder and delay on every frame of a
    session: wherever recovery is possible the digests are the clean
    reference's, bit for bit."""

    POLICIES = st.fixed_dictionaries(
        {
            "seed": st.integers(0, 2**32 - 1),
            "drop": st.sampled_from([0.0, 0.05, 0.15]),
            "duplicate": st.sampled_from([0.0, 0.1]),
            "reorder": st.sampled_from([0.0, 0.3]),
            "latency": st.sampled_from([1e-5, 1e-3]),
        }
    )

    @given(policies=POLICIES)
    @settings(max_examples=12, deadline=None)
    def test_isw_sync_and_async(self, policies):
        for bound in (0, 2):
            _, workers = run_switch_session(
                2, 4, staleness_bound=bound, wire=Wire(**policies)
            )
            for worker in workers:
                assert worker.round_digests == tiny_reference(2, 4)

    @given(policies=POLICIES)
    @settings(max_examples=12, deadline=None)
    def test_ps_and_ps_shard(self, policies):
        for n_shards in (1, 2):
            _, workers = run_ps_session(20, n_shards, wire=Wire(**policies))
            expected = tiny_reference(2, ITERATIONS, n_elements=20, float64=True)
            for worker in workers:
                assert worker.round_digests == expected

    @given(policies=POLICIES)
    @settings(max_examples=12, deadline=None)
    def test_async_ps(self, policies):
        _, workers = run_async_ps(2, 5, wire=Wire(**policies))
        expected = async_ps_tiny_reference(2, 5)
        for rank, worker in enumerate(workers):
            assert worker.round_digests == expected[rank]

    @given(policies=POLICIES)
    @settings(max_examples=12, deadline=None)
    def test_ring_and_halving_doubling(self, policies):
        for cls in (LiveRingWorker, LiveHdWorker):
            workers = run_collective(cls, 2, 8, wire=Wire(**policies))
            expected = tiny_reference(2, ITERATIONS, n_elements=8, float64=True)
            for worker in workers:
                assert worker.round_digests == expected

    def test_the_policies_fire_and_every_family_recovers(self):
        """At 30 % drop and 30 % duplicates every session loses and
        doubles frames — and still lands on the reference bits."""
        policies = dict(seed=1, drop=0.3, duplicate=0.3, reorder=0.3)
        wires = [Wire(**policies) for _ in range(3)]
        _, isw = run_switch_session(2, 4, staleness_bound=1, wire=wires[0])
        _, ps = run_ps_session(400, 2, wire=wires[1])
        ring = run_collective(LiveRingWorker, 3, 400, wire=wires[2])
        for wire in wires:
            assert wire.dropped > 0 and wire.duplicated > 0
        assert isw[0].round_digests == tiny_reference(2, 4)
        expected = tiny_reference(2, ITERATIONS, n_elements=400, float64=True)
        assert ps[0].round_digests == expected
        expected = tiny_reference(3, ITERATIONS, n_elements=400, float64=True)
        assert ring[0].round_digests == expected
