"""The software switch: the AggregationEngine behind a real UDP socket.

One process (or thread, in the in-process tests) runs a
:class:`SoftwareSwitch`: it admits workers via real ``Join`` control
packets, broadcasts ``SetH`` once the expected membership is complete
(doubling as the start-of-training signal), sums ``TOS_DATA_UP`` frames
with the *same* :class:`~repro.core.accelerator.AggregationEngine` the
simulator uses, and broadcasts each completed segment to every member as
a ``TOS_DATA_DOWN`` frame.

The engine runs ``canonical_order=True``: UDP arrival order is
nondeterministic, so on-the-fly summation would make the result depend on
scheduling noise.  Canonical (rank-order) summation makes the aggregate a
pure function of the contributions — and lets a simulator run with
``deterministic_aggregation=True`` reproduce it bit-for-bit.

Loss injection (``loss_rate``) drops incoming data frames at ingress with
a seeded RNG, exercising the watchdog/Help recovery path over real
sockets.  ``handle_frame`` is side-effect-free with respect to I/O — it
returns the frames to transmit — so the protocol logic is unit-testable
without processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.accelerator import AggregationEngine
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
    decode_frame,
    encode_control,
    encode_data,
)
from .driver import JOIN_RESEND_PERIOD, Frames, MemberServer
from .transport import Address

__all__ = ["SoftwareSwitch"]


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
        #: ToR mode (hierarchical tree): completed local partials are
        #: forwarded upstream to the aggregation switch at ``parent_addr``
        #: instead of broadcast, and the parent's final results are
        #: relayed down to the members.  ``rank`` is this switch's member
        #: rank at the parent (the ToR index).
        self.parent_addr = parent_addr
        self.rank = rank
        #: Parent-membership barrier: upstream forwarding waits for the
        #: parent's SetH (all ToRs admitted); completions buffer until
        #: then.  Trivially ready with no parent.
        self._parent_ready = parent_addr is None
        #: When the next parent ``Join`` is due (see :meth:`on_timer`).
        self._next_parent_join = 0.0
        self._left_sent = False
        #: Encoded upstream frames by Seg, for parent-relayed Help.
        self._up_cache: Dict[int, bytes] = {}
        #: Completed partials (encoded) awaiting the parent barrier.
        self._up_pending: List[bytes] = []
        #: Parent's final DOWN frames by Seg, for member Help.
        self._down_cache: Dict[int, bytes] = {}
        #: Aggregation numerics (``None`` = fp32).  ``canonical_order`` is
        #: only needed where arrival order can change the sum: integer
        #: summation (int32-bs) is associative, so that engine aggregates
        #: in true arrival order, exactly like the switch ALU — and still
        #: matches the canonical-order simulator bit for bit (DESIGN §12).
        self.codec = codec
        self.engine = AggregationEngine(
            threshold=n_workers,
            dedup=True,  # Help retransmissions must be idempotent
            canonical_order=codec is None or not codec.order_independent,
            cache_size=cache_size,
            codec=codec,
        )
        self.counters.update(
            dict.fromkeys(
                (
                    "data_rx",
                    "results_broadcast",
                    "help_cache_hits",
                    "help_relayed",
                    "wrong_job",
                    "wrong_codec",
                    "upstream_forwards",
                    "parent_relays",
                ),
                0,
            )
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
        """Process one received datagram; return the datagrams to send."""
        self.counters["frames_rx"] += 1
        try:
            tos, message = decode_frame(frame)
        except ProtocolError:
            self.counters["decode_errors"] += 1
            return []
        if getattr(message, "job", 0) != self.job:
            self.counters["wrong_job"] += 1
            return []
        if self.parent_addr is not None and addr == self.parent_addr:
            return self._handle_parent_frame(tos, message)
        if tos == TOS_CONTROL and message.action == Action.JOIN:
            if not isinstance(message.value, JoinInfo):
                self.counters["decode_errors"] += 1
                return []
            return self._admit(message.value.rank, addr)
        rank = self._rank_of(addr)
        if rank is None:
            return []  # not a member (stale socket, fuzzed frame)
        if tos == TOS_CONTROL:
            return self._handle_control(message, rank, addr)
        if (tos & ~TOS_NUMERICS_MASK) == TOS_DATA_UP:
            expected_tag = 0 if self.codec is None else self.codec.wire_tag
            if (tos & TOS_NUMERICS_MASK) != expected_tag:
                # A frame in the wrong numerics for this job's engine:
                # summing it would silently mix grids, so drop it.
                self.counters["wrong_codec"] += 1
                return []
            return self._handle_contribution(message, rank)
        # TOS_DATA_DOWN at the switch ingress: not ours to aggregate.
        return []

    def _handle_parent_frame(self, tos: int, message) -> Frames:
        """A frame from the aggregation switch above this ToR."""
        if (tos & ~TOS_NUMERICS_MASK) == TOS_DATA_DOWN:
            # Final tree-wide result: cache for member Help, fan out.
            frame = encode_data(message, downstream=True, codec=self.codec)
            self._down_cache[message.seg] = frame
            self.counters["parent_relays"] += 1
            return [(frame, a) for _, a in self._active()]
        if isinstance(message, ControlMessage):
            if message.action == Action.SETH:
                out = []
                if not self._parent_ready:
                    self._parent_ready = True
                    out = [
                        (frame, self.parent_addr)
                        for frame in self._up_pending
                    ]
                    self._up_pending = []
                return out
            if message.action == Action.HELP:
                # The parent lost (or never got) our partial for a Seg.
                frame = self._up_cache.get(int(message.value))
                if frame is None:
                    return []
                self.counters["retransmissions_up"] = (
                    self.counters.get("retransmissions_up", 0) + 1
                )
                return [(frame, self.parent_addr)]
        # ACKs and anything else from the parent: no action needed.
        return []

    def _handle_control(
        self, message: ControlMessage, rank: int, addr: Address
    ) -> Frames:
        if message.action == Action.LEAVE:
            self._depart(rank)
            if (
                self.parent_addr is not None
                and not self._left_sent
                and self._all_left()
            ):
                self._left_sent = True
                return [
                    (
                        encode_control(
                            ControlMessage(Action.LEAVE, job=self.job)
                        ),
                        self.parent_addr,
                    )
                ]
            return []
        if message.action == Action.HELP:
            return self._handle_help(message, addr)
        if message.action == Action.RESET:
            self.engine.reset()
            return []
        if message.action == Action.FBCAST:
            result = self.engine.force_broadcast(int(message.value))
            if result is None:
                return []
            return self._emit(result)
        # SETH/HALT/ACK arriving at the switch: acknowledge nothing.
        return []

    def _handle_help(self, message: ControlMessage, addr: Address) -> Frames:
        seg = int(message.value)
        if self.parent_addr is not None:
            # ToR: the member wants the *final* result, which only the
            # parent computes.  The engine cache holds local partials —
            # serving one of those would double-count this rack.
            down = self._down_cache.get(seg)
            if down is not None:
                self.counters["help_cache_hits"] += 1
                return [(down, addr)]
            up = self._up_cache.get(seg)
            if up is not None and self._parent_ready:
                # Our partial is complete but the final never came back:
                # re-offer it upstream and ask the parent for help.
                self.counters["help_relayed"] += 1
                return [
                    (up, self.parent_addr),
                    (
                        encode_control(
                            ControlMessage(
                                Action.HELP, value=seg, job=self.job
                            )
                        ),
                        self.parent_addr,
                    ),
                ]
            # Our own partial is incomplete: a member's contribution was
            # lost — fall through to the member relay below.
        else:
            cached = self.engine.cached_result(seg)
            if cached is not None:
                self.counters["help_cache_hits"] += 1
                cached.job = self.job
                return [
                    (
                        encode_data(cached, downstream=True, codec=self.codec),
                        addr,
                    )
                ]
        # Not completed yet: some contribution was lost.  Relay the Help
        # to every other member; each retransmits its cached frames.
        relay = encode_control(
            ControlMessage(Action.HELP, value=seg, job=self.job)
        )
        self.counters["help_relayed"] += 1
        return [
            (relay, member_addr)
            for _, member_addr in self._active()
            if member_addr != addr
        ]

    def _handle_contribution(self, segment: DataSegment, rank: int) -> Frames:
        if self._loss.drops():
            return []
        self.counters["data_rx"] += 1
        # Re-key the contribution with the member's canonical identity;
        # the wire carries only (job, seg), exactly like the hardware.
        contribution = DataSegment(
            seg=segment.seg,
            data=segment.data,
            sender=f"worker{rank}",
            job=self.job,
        )
        result = self.engine.contribute(contribution)
        if result is None:
            return []
        return self._emit(result)

    def _emit(self, result: DataSegment) -> Frames:
        """Route a completed segment: broadcast, or forward up the tree."""
        if self.parent_addr is None:
            return self._broadcast(result)
        # ToR: the local sum is a *partial*; send it upstream as a fresh
        # contribution.  The parent re-keys it under this ToR's rank, so
        # the aggregate stays a pure function of (tor, seg).
        result.job = self.job
        frame = encode_data(result, downstream=False, codec=self.codec)
        self._up_cache[result.seg] = frame
        self.counters["upstream_forwards"] += 1
        if not self._parent_ready:
            self._up_pending.append(frame)
            return []
        return [(frame, self.parent_addr)]

    def _broadcast(self, result: DataSegment) -> Frames:
        result.job = self.job
        frame = encode_data(result, downstream=True, codec=self.codec)
        self.counters["results_broadcast"] += 1
        return [(frame, addr) for _, addr in self._active()]

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
