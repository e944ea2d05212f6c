"""The software switch: the iSwitch switch role behind a real UDP socket.

One process (or thread, in the in-process tests) runs a
:class:`SoftwareSwitch`, the *live driver* of
:class:`~repro.core.jobs.JobState` — the same role, around the same
:class:`~repro.core.accelerator.AggregationEngine`, that the simulator's
``ISwitch`` drives from packets.  This class owns what is live: frame
decode/encode, the job and codec-tag filters, the ingress
:class:`~repro.live.driver.LossGate`, re-keying each contribution with its
member's rank, the N-member ``Join`` barrier whose ``SetH`` doubles as the
start-of-training signal, and — for a ToR — the parent ``Join`` timer and
the queue of frames awaiting the parent's barrier.  Where a completed
segment goes, and what a ``Help``, ``Reset``, ``SetH``, ``FBcast`` or
``Halt`` does, is the role's (DESIGN §6.2).

The engine runs ``canonical_order=True``: UDP arrival order is
nondeterministic, so on-the-fly summation would make the result depend on
scheduling noise.  Canonical (rank-order) summation makes the aggregate a
pure function of the contributions — and lets a simulator run with
``deterministic_aggregation=True`` reproduce it bit-for-bit.

``handle_frame`` is side-effect-free with respect to I/O — it returns the
frames to transmit — so the driver is unit-testable without processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.jobs import JobState, Routes
from ..core.protocol import (
    Action,
    ControlMessage,
    DataSegment,
    JoinInfo,
    ProtocolError,
    TOS_CONTROL,
    TOS_DATA_DOWN,
    TOS_DATA_UP,
    TOS_NUMERICS_MASK,
    decode_data_header,
    decode_frame,
    decode_payload,
    encode_control,
    encode_data,
)
from .driver import JOIN_RESEND_PERIOD, Frames, MemberServer
from .transport import Address

__all__ = ["SoftwareSwitch"]

_CONTROL = bytes((TOS_CONTROL,))


class SoftwareSwitch(MemberServer):
    """Aggregates live UDP gradient traffic for one training job."""

    def __init__(
        self,
        n_workers: int,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        cache_size: int = 4096,
        job: int = 0,
        codec=None,
        parent_addr: Optional[Address] = None,
        rank: int = 0,
    ) -> None:
        if codec is not None and codec.wire_tag is None:
            raise ValueError(
                f"codec {codec.name!r} has no wire format; the live switch "
                "can only aggregate fp32/fp16/int32-bs/topk frames"
            )
        super().__init__(
            n_workers,
            loss_rate,
            loss_seed,
            ack=encode_control(ControlMessage(Action.ACK, value=1, job=job)),
            go=encode_control(
                ControlMessage(Action.SETH, value=n_workers, job=job)
            ),
        )
        #: The single training-job id this switch serves; frames stamped
        #: with a different job are dropped (counted as ``wrong_job``).
        self.job = job
        #: ToR mode (hierarchical tree): the aggregation switch above, and
        #: this switch's member rank there (the ToR index).
        self.parent_addr = parent_addr
        self.rank = rank
        #: Parent-membership barrier: nothing goes upstream before the
        #: parent's SetH (all ToRs admitted); frames for it queue until
        #: then.  Trivially ready with no parent.
        self._parent_ready = parent_addr is None
        self._up_pending: List[bytes] = []
        #: When the next parent ``Join`` is due (see :meth:`on_timer`).
        self._next_parent_join = 0.0
        self._left_sent = False
        #: Aggregation numerics (``None`` = fp32).  ``canonical_order`` is
        #: only needed where arrival order can change the sum: integer
        #: summation (int32-bs) is associative, so that engine aggregates
        #: in true arrival order, exactly like the switch ALU — and still
        #: matches the canonical-order simulator bit for bit (DESIGN §12).
        self.codec = codec
        self._tag = 0 if codec is None else codec.wire_tag
        #: Each rank's canonical sender identity (ranks fit the Join's byte).
        self._senders = [f"worker{rank}" for rank in range(256)]
        self.role = JobState(
            job,
            dedup=True,  # Help retransmissions must be idempotent
            canonical=codec is None or not codec.order_independent,
            codec=codec,
            parent=parent_addr,
            members=self,
            counters=self.counters,
        )
        self.engine = self.role.engine
        self.engine.set_threshold(n_workers)
        self.engine.cache_size = cache_size
        self.counters.update(
            dict.fromkeys(("data_rx", "wrong_job", "wrong_codec"), 0)
        )

    # ------------------------------------------------------------------
    # Protocol logic (I/O-free: returns the frames to transmit)
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """All expected workers joined and all of them have left.

        A ToR additionally waits until it has drained its upstream queue
        and told the parent it is leaving — its send cache is no longer
        needed by then (members only leave once every final result
        reached them, which required the parent to have every partial).
        """
        if self.parent_addr is None:
            return self._all_left()
        return self._all_left() and self._left_sent and not self._up_pending

    def on_timer(self, now: float) -> Frames:
        """A ToR re-sends its parent ``Join`` until the parent's SetH.

        It joins the aggregation switch above it as a member of type
        "switch"; n_elements is 0 — the parent never needs the gradient
        geometry, only the membership.
        """
        if self._parent_ready or now < self._next_parent_join:
            return []
        self._next_parent_join = now + JOIN_RESEND_PERIOD
        join = ControlMessage(
            Action.JOIN,
            JoinInfo(
                member_type="switch", rank=self.rank, n_elements=0, n_chunks=0
            ),
            job=self.job,
        )
        return [(encode_control(join), self.parent_addr)]

    def handle_frame(self, frame: bytes, addr: Address) -> Frames:
        """Process one received datagram; return the datagrams to send.
        A data frame is a header and a view (DESIGN §9.4): its payload is
        not copied before the engine's own hold."""
        self.counters["frames_rx"] += 1
        try:
            if frame[:1] == _CONTROL:
                tos, message = decode_frame(frame)
                job = message.job
            else:
                tos, job, seg = decode_data_header(frame)
                data = decode_payload(frame)
        except ProtocolError:
            self.counters["decode_errors"] += 1
            return []
        if job != self.job:
            self.counters["wrong_job"] += 1
            return []
        role = self.role
        from_parent = addr == self.parent_addr
        if tos == TOS_CONTROL:
            action = message.action
            if from_parent and action == Action.SETH:
                # The parent's barrier opened: flush what queued for it.
                self._parent_ready = True
                out = [(queued, addr) for queued in self._up_pending]
                self._up_pending = []
                return out
            if not from_parent:
                if action == Action.JOIN:
                    if not isinstance(message.value, JoinInfo):
                        self.counters["decode_errors"] += 1
                        return []
                    return self._admit(message.value.rank, addr)
                rank = self._rank_of(addr)
                if rank is None:
                    return []  # not a member (stale socket, fuzzed frame)
                if action == Action.LEAVE:
                    return self._leave(rank)
            routes, completed = role.control(message, addr)
            return self._frames(routes + role.emit(completed))
        direction = tos & ~TOS_NUMERICS_MASK
        if from_parent:
            if direction != TOS_DATA_DOWN:
                return []
            # The tree-wide result: the role caches it and fans it out.
            final = DataSegment.trusted(seg, data, job=job)
            return self._frames(role.deliver([final]))
        rank = self._rank_of(addr)
        # TOS_DATA_DOWN at the switch ingress is not ours to aggregate.
        if rank is None or direction != TOS_DATA_UP:
            return []
        if (tos & TOS_NUMERICS_MASK) != self._tag:
            # A frame in the wrong numerics for this job's engine:
            # summing it would silently mix grids, so drop it.
            self.counters["wrong_codec"] += 1
            return []
        if self._loss.drops():
            return []
        self.counters["data_rx"] += 1
        # Keyed by the member's canonical identity; the wire carries only
        # (job, seg), exactly like the hardware.  The decoder's checks made
        # ``data`` 1-D contiguous float32, so the segment needs no validation.
        completed = role.contribute(
            DataSegment.trusted(seg, data, self._senders[rank], 0, job)
        )
        return self._frames(role.emit(completed)) if completed else []

    def _leave(self, rank: int) -> Frames:
        """A member left; the last one out tells the parent, once."""
        self._depart(rank)
        if self.parent_addr is None or self._left_sent or not self._all_left():
            return []
        self._left_sent = True
        leave = encode_control(ControlMessage(Action.LEAVE, job=self.job))
        return [(leave, self.parent_addr)]

    def _frames(self, routes: Routes) -> Frames:
        """Encode the role's routes (each shared message list once); what
        is bound for a parent that has not opened its barrier queues."""
        out: Frames = []
        encoded_for = None
        frames: List[bytes] = []
        for dst, messages in routes:
            upstream = dst == self.parent_addr
            if messages is not encoded_for:
                encoded_for = messages
                frames = [
                    encode_control(m)
                    if isinstance(m, ControlMessage)
                    else encode_data(m, downstream=not upstream, codec=self.codec)
                    for m in messages
                ]
            if upstream and not self._parent_ready:
                self._up_pending.extend(frames)
            else:
                out += [(frame, dst) for frame in frames]
        return out

    def stats_snapshot(self) -> Dict[str, int]:
        """Counters plus engine statistics, for the parent's telemetry."""
        snapshot = super().stats_snapshot()
        stats = self.engine.stats
        snapshot.update(
            engine_contributions=stats.contributions,
            engine_completions=stats.completions,
            engine_duplicates_dropped=stats.duplicates_dropped,
            engine_max_live_segments=stats.max_live_segments,
        )
        return snapshot
