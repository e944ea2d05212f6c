"""The live iSwitch worker: real gradients through real UDP frames.

Mirrors the numerics of the simulator's :class:`SyncStrategy` exactly —
per round: ``compute_gradient()`` (float32), stream the vector as
encoded ``TOS_DATA_UP`` frames, collect the switch's aggregated
``TOS_DATA_DOWN`` frames, then ``apply_update(sum.astype(float64) / N)``.
Chunk geometry differs from the simulator (one real frame per chunk here)
but elementwise sums are partition-independent, so the trajectories stay
bit-identical.

Loss recovery is the paper's worker-driven watchdog (§3.4): a receive
timeout retransmits this worker's own cached frames for the missing
segments and sends ``Help``; the switch answers from its result cache or
relays the Help so peers retransmit theirs.  Dedup in the engine makes
all of it idempotent.

**sync-isw is async-isw with S = 0.**  The switch side is the same
:class:`~repro.live.switch.SoftwareSwitch` either way (threshold = N,
dedup, canonical order): asynchrony — the paper's Algorithm 1 — lives
entirely in the worker schedule, and the simulator runs the same windowed
rule (:meth:`repro.distributed.sync.SyncStrategy._step`, event-driven
where :meth:`LiveWorkerBase.train` blocks).  A worker may run up to ``staleness_bound`` rounds ahead of its own
applied weights: it computes and submits round ``k`` as soon as
``k ≤ applied + S``, then collects and applies the oldest outstanding
round.  Under that greedy schedule the gradient for round ``k`` is
computed against weight version ``max(0, k − S)``, so every applied
gradient's version gap is ``min(k, S) ≤ S`` — the bound Algorithm 1
enforces — and the weight trajectory is the simulator's, bit for bit.

The gap is **measured**, not assumed: at compute time the worker records
its live applied-version, and at apply time it counts the real gap into
``version_gap_max`` / ``version_gap_total`` / ``version_gap_count``.
The conformance suite asserts the bound from those counters, so genuine
process-arrival jitter (rounds completing out of order, recovery
retransmissions) is covered by the assertion rather than averaged away.

Pipelining means DOWN frames for round ``k+1`` can arrive while round
``k`` is still being collected; those are buffered, not dropped, and the
send cache retains ``S + 2`` rounds so Help retransmissions can serve
the slowest peer's recovery window.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from ..core.protocol import (
    TOS_CONTROL,
    Action,
    ControlMessage,
    JoinInfo,
    ProtocolError,
    SegmentPlan,
    decode_data_header,
    decode_frame,
    decode_payload,
    encode_control,
    encode_data,
)
from ..rl.base import Algorithm
from .driver import LiveWorkerBase
from .transport import Address, UdpEndpoint

__all__ = ["LiveWorker"]

_CONTROL = bytes((TOS_CONTROL,))


class LiveWorker(LiveWorkerBase):
    """One iSwitch worker process's protocol state machine."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        endpoint: UdpEndpoint,
        switch_addr: Address,
        job: int = 0,
        codec=None,
        staleness_bound: int = 0,
        **watchdog,
    ) -> None:
        super().__init__(rank, n_workers, algorithm, endpoint, **watchdog)
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
        #: Round → its encoded upstream frames, by chunk: the last ``S + 2``
        #: rounds', for Help-triggered retransmission.
        self._sent: Dict[int, List[bytes]] = {}
        #: Round → (its result, the Segs it still misses) for each round
        #: submitted and not yet collected; results land there in place.
        self._results: Dict[int, Tuple[np.ndarray, Set[int]]] = {}
        #: Applied-version at each round's compute time.
        self._versions: List[int] = []
        self.counters.update(
            help_sent=0,
            retransmissions=0,
            version_gap_max=0,
            version_gap_total=0,
            version_gap_count=0,
        )

    # ------------------------------------------------------------------
    def join(self) -> None:
        """Join the job: send ``Join`` until the switch's ``SetH`` arrives."""
        join = ControlMessage(
            Action.JOIN,
            JoinInfo(
                member_type="worker",
                rank=self.rank,
                n_elements=self.plan.n_elements,
                n_chunks=self.plan.n_chunks,
            ),
            job=self.job,
        )

        def is_seth(frame: bytes, addr: Address) -> bool:
            try:
                message = decode_frame(frame)[1]
            except ProtocolError:
                self.counters["decode_errors"] += 1
                return False
            return (
                isinstance(message, ControlMessage)
                and message.action == Action.SETH
                and message.job == self.job
            )

        self._join_until_go(encode_control(join), self.switch_addr, is_seth)

    def _leave(self) -> None:
        self._send(
            encode_control(ControlMessage(Action.LEAVE, job=self.job)),
            self.switch_addr,
        )

    # ------------------------------------------------------------------
    def _submit(self, gradient: np.ndarray, round_index: int) -> None:
        """Stream one round's frames up without waiting for its result."""
        self._versions.append(len(self.round_digests))
        run = self.plan.run(gradient, round_index, job=self.job)
        frames = [encode_data(s, codec=self.codec) for s in run.segments()]
        # Retain S + 2 rounds: a peer's collect window can trail this
        # worker's submit window by the full staleness bound.
        self._sent[round_index] = frames
        self._sent.pop(round_index - self.staleness_bound - 2, None)
        self._results[round_index] = (
            np.empty(self.n_elements, dtype=np.float32),
            set(range(run.seg, run.seg + len(run))),
        )
        for frame in frames:
            self._send(frame, self.switch_addr)

    def _complete(self, round_index: int) -> np.ndarray:
        """Collect one round's aggregate (part of it may already be here:
        segments that arrived while collecting earlier rounds)."""
        result, missing = self._results[round_index]
        self._collect(missing, round_index)
        del self._results[round_index]
        return result

    def _ingest(self, frame: bytes, addr: Address) -> None:
        try:
            if frame[:1] == _CONTROL:
                message = decode_frame(frame)[1]
                if message.action == Action.HELP and message.job == self.job:
                    # A relayed Help: some peer is missing a segment we fed.
                    self._retransmit(int(message.value))
                return
            _, job, seg = decode_data_header(frame)
            data = decode_payload(frame)
        except ProtocolError:
            self.counters["decode_errors"] += 1
            return
        # A result lands at its chunk's offset in its round's array — the
        # round being collected, or a later one that completed ahead of it
        # (pipeline jitter, not staleness).  Earlier rounds' rebroadcasts,
        # duplicates and another tenant's job (a switch mis-delivery) are
        # stale.
        n_chunks = self.plan.n_chunks
        entry = self._results.get(seg // n_chunks) if job == self.job else None
        if entry is None or seg not in entry[1]:
            self.counters["stale_frames"] += 1
            return
        start, stop = self.plan.chunk_bounds(seg % n_chunks)
        if data.size != stop - start:
            self.counters["decode_errors"] += 1
            return
        entry[0][start:stop] = data
        entry[1].discard(seg)

    def _recover(self, missing: set, round_index: int) -> None:
        """Watchdog fired: retransmit our own frames and ask for Help."""
        for seg in sorted(missing):
            self._retransmit(seg)
            self._send(
                encode_control(
                    ControlMessage(Action.HELP, value=seg, job=self.job)
                ),
                self.switch_addr,
            )
            self.counters["help_sent"] += 1

    def _retransmit(self, seg: int) -> None:
        frames = self._sent.get(seg // self.plan.n_chunks)
        if frames is not None:
            self._send(frames[seg % self.plan.n_chunks], self.switch_addr)
            self.counters["retransmissions"] += 1

    def _apply(self, total: np.ndarray, round_index: int) -> None:
        super()._apply(total, round_index)
        gap = round_index - self._versions[round_index]
        self.counters["version_gap_max"] = max(
            self.counters["version_gap_max"], gap
        )
        self.counters["version_gap_total"] += gap
        self.counters["version_gap_count"] += 1
