"""The live iSwitch worker: real gradients through real UDP frames.

Mirrors the numerics of the simulator's :class:`SyncStrategy` exactly —
per round: ``compute_gradient()`` (float32), stream the vector as
encoded ``TOS_DATA_UP`` frames, collect the switch's aggregated
``TOS_DATA_DOWN`` frames, then ``apply_update(sum.astype(float64) / N)``.
Chunk geometry differs from the simulator (one real frame per chunk here)
but elementwise sums are partition-independent, so the trajectories stay
bit-identical.

The worker drives the member role the simulator's ``AggregationClient``
drives: per-round state in :class:`~repro.core.client.MemberRounds`, and
one recovery rule (DESIGN §6.2): a receive timeout only sends ``Help``
for each missing segment, and a frame goes again only when the switch
relays a Help (to every member, requester included).

**sync-isw is async-isw with S = 0.**  The switch side is the same
:class:`~repro.live.switch.SoftwareSwitch` either way (threshold = N,
dedup, canonical order): asynchrony — the paper's Algorithm 1 — lives
entirely in the worker schedule, and the simulator runs the same windowed
rule (:meth:`repro.distributed.sync.SyncStrategy._step`); both are
event-driven, the live one by the frames and timers
:func:`~repro.live.driver.serve` hands its role.  A worker may run up to
``staleness_bound`` rounds ahead of its own applied weights: it computes
and submits round ``k`` as soon as ``k ≤ applied + S``, then collects and
applies the oldest outstanding round.  Under that greedy schedule the
gradient for round ``k`` is computed against weight version
``max(0, k − S)``, so every applied gradient's version gap is
``min(k, S) ≤ S`` — the bound Algorithm 1 enforces — and the weight
trajectory is the simulator's, bit for bit.

The gap is **measured**, not assumed: at compute time the worker records
its live applied-version, and at apply time it counts the real gap into
``version_gap_max`` / ``version_gap_total`` / ``version_gap_count``.
The conformance suite asserts the bound from those counters, so genuine
process-arrival jitter (rounds completing out of order, recovery
retransmissions) is covered by the assertion rather than averaged away.

Pipelining means DOWN frames for round ``k+1`` can arrive while round
``k`` is still being collected; they land in round ``k+1``'s array, and
the send log keeps ``S + 2`` rounds at least for the slowest peer's Help.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.client import MemberRounds
from ..core.protocol import (
    TOS_CONTROL,
    Action,
    ControlMessage,
    JoinInfo,
    ProtocolError,
    SegmentPlan,
    decode_data_header,
    decode_payload,
    encode_control,
    encode_data,
)
from ..rl.base import Algorithm
from .driver import LiveWorkerBase, decode_control
from .transport import Address

__all__ = ["LiveWorker"]

_CONTROL = bytes((TOS_CONTROL,))


class LiveWorker(LiveWorkerBase):
    """One iSwitch worker process's protocol state machine."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        switch_addr: Address,
        job: int = 0,
        codec=None,
        staleness_bound: int = 0,
        **watchdog,
    ) -> None:
        super().__init__(rank, n_workers, algorithm, **watchdog)
        if codec is not None and codec.wire_tag is None:
            raise ValueError(
                f"codec {codec.name!r} has no wire format and cannot cross "
                "real UDP; choose fp16, int32-bs, or topk"
            )
        if staleness_bound < 0:
            raise ValueError(
                f"staleness_bound must be >= 0, got {staleness_bound}"
            )
        self.job = job
        self.switch_addr = switch_addr
        self.staleness_bound = staleness_bound
        #: Aggregation numerics; ``None`` streams raw fp32 frames.
        self.codec = codec
        if codec is None:
            self.plan = SegmentPlan(self.n_elements)  # one real frame per chunk
        else:
            self.plan = SegmentPlan(
                self.n_elements,
                bytes_per_element=codec.bytes_per_element,
                frame_overhead=codec.frame_overhead,
            )
        #: This member's rounds, each opened at submit (a forged future
        #: round allocates nothing).  The send log keeps ``S + 2`` rounds at
        #: least: a peer's collect can trail this submit by the whole bound.
        self.rounds = MemberRounds(self.plan, keep_sent=2 * (staleness_bound + 2))
        #: Applied-version at each round's compute time.
        self._versions: List[int] = []
        self.counters.update(
            help_sent=0,
            retransmissions=0,
            version_gap_max=0,
            version_gap_total=0,
            version_gap_count=0,
        )
        # Join the job: ``Join`` until the switch's ``SetH`` arrives.
        info = JoinInfo("worker", rank, self.plan.n_elements, self.plan.n_chunks)
        join = ControlMessage(Action.JOIN, info, job=job)
        leave = ControlMessage(Action.LEAVE, job=job)
        self._join([switch_addr], [encode_control(join)], encode_control(leave))

    # ------------------------------------------------------------------
    def _submit(self, gradient: np.ndarray, round_index: int) -> None:
        """Stream one round's frames up without waiting for its result."""
        self._versions.append(len(self.round_digests))
        run = self.plan.run(gradient, round_index, job=self.job)
        frames = [encode_data(s, codec=self.codec) for s in run.segments()]
        self.rounds.record(round_index, frames)
        self.rounds.open(round_index)
        for frame in frames:
            self._send(frame, self.switch_addr)

    def _collected(self, round_index: int) -> Optional[np.ndarray]:
        """One round's aggregate, once every segment landed (part of it
        may have landed while earlier rounds were collected)."""
        self._missing = self.rounds.missing(round_index)
        return None if self._missing else self.rounds.close(round_index)

    def _receive(self, frame: bytes, sender: int) -> None:
        try:
            if frame[:1] == _CONTROL:
                message = decode_control(frame)
                if message.job == self.job:
                    if message.action == Action.HELP:
                        # A relayed Help: some member misses a segment we fed.
                        self._retransmit(message.value)
                    elif message.action == Action.SETH:
                        self._admitted(sender)  # the join barrier opened
                return
            _, job, seg = decode_data_header(frame)
            data = decode_payload(frame)
            # A result lands in its open round (maybe one ahead: pipeline
            # jitter).  Closed rounds' rebroadcasts, duplicates and another
            # tenant's job (a switch mis-delivery) are stale.
            fresh = job == self.job and self.rounds.land(seg, data)
        except ProtocolError:
            self.counters["decode_errors"] += 1
            return
        if not fresh:
            self.counters["stale_frames"] += 1

    def _recover(self, missing: set, round_index: int) -> None:
        """Watchdog fired: ask for Help with each missing Seg; this
        worker's own frames go again only when the switch relays one."""
        for seg in sorted(missing):
            help_ = ControlMessage(Action.HELP, value=seg, job=self.job)
            self._send(encode_control(help_), self.switch_addr)
            self.counters["help_sent"] += 1

    def _retransmit(self, seg: int) -> None:
        frame = self.rounds.resend(seg)
        if frame is not None:
            self._send(frame, self.switch_addr)
            self.counters["retransmissions"] += 1

    def _apply(self, total: np.ndarray, round_index: int) -> None:
        super()._apply(total, round_index)
        gap = round_index - self._versions[round_index]
        self.counters["version_gap_max"] = max(self.counters["version_gap_max"], gap)
        self.counters["version_gap_total"] += gap
        self.counters["version_gap_count"] += 1
