"""The iSwitch member role (paper §3.4), and its simulator driver.

:class:`MemberRounds` is a member's per-round state — what it sent, which
results it still misses, which rounds are closed — with no host, packet,
socket or clock.  The simulator's :class:`AggregationClient` and the live
:class:`~repro.live.worker.LiveWorker` both drive it, as ``ISwitch`` and
``SoftwareSwitch`` drive :class:`~repro.core.jobs.JobState`; loops and
timers stay with each driver.  Both follow one recovery rule (DESIGN
§6.2): a timer expiry sends ``Help`` for each missing Seg, and a member
retransmits only when the switch relays a ``Help``.

An :class:`AggregationClient` binds its host's iSwitch UDP port, streams
each gradient as ToS-tagged data packets the NIC serializes back to back
(what lets the switch aggregate on the fly), lands the broadcast results
and speaks the control protocol (Join/Leave/Reset/SetH/Help).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from .accelerator import trim_result_cache
from .protocol import (
    ISWITCH_UDP_PORT,
    TOS_CONTROL,
    TOS_DATA_DOWN,
    Action,
    ControlMessage,
    DataSegment,
    ProtocolError,
    SegmentPlan,
    SegmentRun,
    make_control_packet,
    make_data_packet,
    make_data_train,
)

__all__ = ["AggregationClient", "MemberRounds"]

RoundCallback = Callable[[int, np.ndarray], None]
ControlCallback = Callable[[ControlMessage], None]


class MemberRounds:
    """One member's rounds, whichever wire carries them.

    * ``sent``: each round's upstream items by chunk, opaque here (a
      ``DataSegment`` in the simulator, an encoded frame live), for
      :meth:`resend`; past ``keep_sent`` rounds the oldest half goes.
    * ``pending``: each open round's float32 result and the Segs it
      still misses.  When a round opens is the driver's call.
    * ``closed``: completed or abandoned rounds, bounded the same way at
      ``keep_closed``.  A closed round never reopens and takes no chunk.
    """

    keep_closed = 1024

    def __init__(self, plan: SegmentPlan, keep_sent: int = 8) -> None:
        self.plan = plan
        self._n_chunks = plan.n_chunks
        self._bounds = [plan.chunk_bounds(c) for c in range(self._n_chunks)]
        self.keep_sent = keep_sent
        self.sent: Dict[int, list] = {}
        self.pending: Dict[int, Tuple[np.ndarray, Set[int]]] = {}
        self.closed: Dict[int, None] = {}
        #: With no recovery armed, a round that lost a result chunk never
        #: completes.  The owner of a bounded engine window sets this (in
        #: rounds): opening a round drops, and counts, any open round older
        #: than it by more.
        self.partial_window: Optional[int] = None
        self.rounds_dropped = 0

    def record(self, round_index: int, items: list) -> None:
        self.sent[round_index] = items
        trim_result_cache(self.sent, self.keep_sent)

    def resend(self, seg: int):
        """The item that answers a relayed ``Help(seg)``, or ``None``."""
        items = self.sent.get(seg // self._n_chunks)
        return None if items is None else items[seg % self._n_chunks]

    def open(self, round_index: int) -> Set[int]:
        """Open a round unless it is open or closed; the Segs it misses."""
        entry = self.pending.get(round_index)
        if entry is not None:
            return entry[1]
        missing = self.missing(round_index)
        if round_index not in self.closed:
            if self.partial_window is not None:
                horizon = round_index - self.partial_window
                for stale in [r for r in self.pending if r < horizon]:
                    del self.pending[stale]
                    self.rounds_dropped += 1
            result = np.empty(self.plan.n_elements, dtype=np.float32)
            self.pending[round_index] = (result, missing)
        return missing

    def missing(self, round_index: int) -> Set[int]:
        """The Segs a round misses: all before it opens, none once closed."""
        entry = self.pending.get(round_index)
        if entry is not None:
            return entry[1]
        if round_index in self.closed:
            return set()
        base = round_index * self._n_chunks
        return set(range(base, base + self._n_chunks))

    def land(self, seg: int, data: np.ndarray) -> bool:
        """Copy a result chunk to its offset in its open round; whether the
        Seg was still missing.  A duplicate overwrites: the last copy wins."""
        entry = self.pending.get(seg // self._n_chunks)
        if entry is None:
            return False
        start, stop = self._bounds[seg % self._n_chunks]
        if data.size != stop - start:
            raise ProtocolError(f"Seg {seg}: {data.size} elements, not {stop - start}")
        entry[0][start:stop] = data
        fresh = seg in entry[1]
        entry[1].discard(seg)
        return fresh

    def close(self, round_index: int) -> Optional[np.ndarray]:
        """Close a round; its result array, if it was open."""
        self.closed[round_index] = None
        trim_result_cache(self.closed, self.keep_closed)
        entry = self.pending.pop(round_index, None)
        return None if entry is None else entry[0]


class AggregationClient:
    """The simulator's driver of the member role, on one worker host."""

    def __init__(
        self,
        host,
        switch_address: str,
        plan: SegmentPlan,
        on_round_complete: Optional[RoundCallback] = None,
        on_control: Optional[ControlCallback] = None,
        recovery_timeout: Optional[float] = None,
        job: int = 0,
        codec=None,
        max_recovery_attempts: Optional[int] = None,
        on_round_abandoned: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.host = host
        self.switch_address = switch_address
        self.plan = plan
        self.job = job
        #: Optional :class:`repro.core.compression.GradientCodec`: gradients
        #: suffer its quantization before leaving the worker (the wire width
        #: comes from the plan's ``bytes_per_element``).
        self.codec = codec
        if codec is not None and (
            plan.bytes_per_element != codec.bytes_per_element
            or plan.frame_overhead != codec.frame_overhead
        ):
            # The plan bills the wire; a codec with another geometry would
            # quantize the gradient while nothing shrank on the wire.
            raise ValueError(
                f"AggregationClient codec {codec.name!r} does not match the "
                f"segment plan geometry ({plan.bytes_per_element} B/elt, "
                f"{plan.frame_overhead} B frame overhead vs the codec's "
                f"{codec.bytes_per_element}/{codec.frame_overhead}); build "
                "the plan with make_plan(..., codec=codec)"
            )
        self.on_round_complete = on_round_complete
        self.on_control = on_control
        #: Base Help-retry timeout (simulated seconds), or ``None`` for no
        #: recovery at all.  A premature watchdog is harmless but wastes
        #: packets, so it should exceed a round trip plus the slowest
        #: peer's compute time.
        self.recovery_timeout = recovery_timeout
        if recovery_timeout is not None and host.sim.batch_transport:
            raise ValueError(
                f"AggregationClient on {host.name}: loss recovery needs the "
                "per-packet transport; clients burst packet trains only when "
                "no recovery is armed (build_cluster(recovery_armed=True))"
            )
        #: Cap on watchdog firings per round (``None``: retry forever).  A
        #: round that became unsatisfiable — membership shrank, a Reset —
        #: would otherwise keep the event loop alive.
        self.max_recovery_attempts = max_recovery_attempts
        #: Rounds whose watchdog hit ``max_recovery_attempts`` and gave up.
        self.abandoned_rounds: set = set()
        #: Called with an abandoned round's index, so the owning strategy
        #: can account for the missed update instead of waiting forever.
        self.on_round_abandoned = on_round_abandoned
        #: This member's rounds; the send log (kept only when recovery is
        #: armed) holds the last 8 at least.
        self.rounds = MemberRounds(plan)
        self._watchdogs: Dict[int, object] = {}
        #: Consecutive watchdog firings per round (the backoff exponent).
        self._watchdog_attempts: Dict[int, int] = {}
        #: Simulated time each round's gradient left this client, kept so
        #: the completion span covers stream + in-switch + broadcast.
        self._round_started: Dict[int, float] = {}
        self._commit_counter = 0
        self.rounds_completed = 0
        self.help_requests = 0
        self.retransmissions = 0
        # Several clients (different jobs) may share one host; the first
        # binds the iSwitch port and fans packets out to every registered
        # client, each of which filters on its job id.
        registry = getattr(host, "_iswitch_clients", None)
        if registry is None:
            registry = []
            host._iswitch_clients = registry

            def dispatch(packet) -> None:
                for client in registry:
                    client._receive(packet)

            def dispatch_train(train) -> None:
                for client in registry:
                    client._receive_train(train)

            host.bind(ISWITCH_UDP_PORT, dispatch)
            host.bind_train(ISWITCH_UDP_PORT, dispatch_train)
        registry.append(self)

    partial_window = property(
        lambda self: self.rounds.partial_window,
        lambda self, window: setattr(self.rounds, "partial_window", window),
    )
    rounds_dropped = property(lambda self: self.rounds.rounds_dropped)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_gradient(self, vector: np.ndarray, round_index: int) -> int:
        """Stream one gradient vector for ``round_index``; returns commit id.

        All chunks are offered to the NIC immediately; the link transmit
        queue serializes them back to back, so the last byte leaves at
        exactly ``vector_wire_bytes * 8 / bandwidth`` after the first.
        """
        self._commit_counter += 1
        commit_id = self._commit_counter
        self._round_started.setdefault(round_index, self.host.sim.now)
        trim_result_cache(self._round_started, 1024)
        if self.codec is not None:
            vector = self.codec.roundtrip(vector)
        if self.host.sim.batch_transport:
            # One run, no packets unless someone downstream asks.  No recovery
            # bookkeeping: __init__ refuses an armed client on this path.
            run = self.plan.run(
                vector, round_index, self.host.name, commit_id, self.job
            )
            self.host.send_burst(make_data_train(run, self.switch_address))
            return commit_id
        segments = self.plan.split(
            vector, round_index, sender=self.host.name, commit_id=commit_id
        )
        for segment in segments:
            segment.job = self.job
            if self.recovery_timeout is not None:
                # These segments double as the send log, so the engine
                # must not adopt (and sum into) their arrays; a read-only
                # view makes it copy on first arrival instead.
                frozen = segment.data.view()
                frozen.flags.writeable = False
                segment.data = frozen
            self.host.send(
                make_data_packet(
                    self.host.name, self.switch_address, segment, self.plan
                )
            )
        if self.recovery_timeout is not None:
            self.rounds.record(round_index, segments)
            self._arm_watchdog(round_index)
        return commit_id

    # ------------------------------------------------------------------
    # Control operations
    # ------------------------------------------------------------------
    def join(self, member_type: str = "worker") -> None:
        # Broadcast fragments of rounds missed while away can never complete.
        self.rounds.pending.clear()
        self._control(Action.JOIN, member_type)

    def leave(self) -> None:
        self.cancel_recovery()  # a departed member's rounds stay unanswered
        self._control(Action.LEAVE)

    def reset_switch(self) -> None:
        self._control(Action.RESET)

    def set_threshold(self, h: int) -> None:
        self._control(Action.SETH, h)

    def request_help(self, seg: int) -> None:
        """Ask the switch to retransmit the result for one lost segment."""
        self.help_requests += 1
        telemetry = self.host.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("client.help_requests", 1, worker=self.host.name)
            telemetry.event(
                "client.help_request", cat="recovery", track=self.host.name,
                seg=seg,
            )
        self._control(Action.HELP, seg)

    def _control(self, action: Action, value=None) -> None:
        self.host.send(
            make_control_packet(
                self.host.name,
                self.switch_address,
                ControlMessage(action, value, job=self.job),
            )
        )

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _receive(self, packet) -> None:
        if packet.tos == TOS_DATA_DOWN:
            if packet.payload.job != self.job:
                return  # another tenant's results on a shared host
            self._receive_result(packet.payload)
        elif packet.tos == TOS_CONTROL:
            message = packet.payload
            control = isinstance(message, ControlMessage)
            if control and message.job != self.job:
                return
            if control and message.action == Action.HELP:
                self._retransmit(int(message.value))
            elif self.on_control is not None:
                self.on_control(message)

    def _receive_train(self, train) -> None:
        """Batched receive.  The dominant shape, a whole round's broadcast
        as one run, finishes a round never opened on the run's own vector
        (no copy); anything else is received packet by packet, in arrival
        order, within this call.  No watchdog is due here: trains only
        flow where no recovery is armed."""
        run = train.run
        if isinstance(run, SegmentRun) and train.tos == TOS_DATA_DOWN:
            if run.job != self.job:
                return  # another tenant's results on a shared host
            n_chunks = self.plan.n_chunks
            round_index, chunk = divmod(run.seg, n_chunks)
            rounds = self.rounds
            if chunk == 0 and len(run) == n_chunks and round_index not in rounds.pending:
                if round_index not in rounds.closed:
                    self._finish_round(round_index, run.data)
                return
        for packet in train.packets:
            self._receive(packet)

    def _retransmit(self, seg: int) -> None:
        """Answer a relayed Help: resend our own contribution (the engine's
        dedup drops it if the original did arrive)."""
        segment = self.rounds.resend(seg)
        if segment is None:
            return
        self.retransmissions += 1
        telemetry = self.host.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("client.retransmissions", 1, worker=self.host.name)
            telemetry.event(
                "client.retransmit", cat="recovery", track=self.host.name,
                seg=seg,
            )
        self.host.send(
            make_data_packet(
                self.host.name, self.switch_address, segment, self.plan
            )
        )

    def _receive_result(self, segment: DataSegment) -> None:
        rounds, seg = self.rounds, segment.seg
        round_index = seg // self.plan.n_chunks
        if round_index in rounds.closed:
            return  # a late copy of a closed round
        # A round opens with its first result: arrival renumbering (async
        # mode) delivers rounds this member never submitted.
        missing = rounds.open(round_index)
        rounds.land(seg, segment.data)
        if not missing:
            self._finish_round(round_index)
        elif (
            self.recovery_timeout is not None
            and self.on_round_abandoned is not None
        ):
            self._guard_broadcast_rounds(round_index)

    def _guard_broadcast_rounds(self, round_index: int) -> None:
        """Arm watchdogs for a partially received round *and* recent gaps.

        Under arrival renumbering (async mode, the one that wires an
        abandonment callback) a broadcast lost whole leaves no open round
        and no timer.  Rounds complete in renumbered order, so a chunk of
        round ``r`` means the nearby earlier rounds were broadcast already:
        guard that trailing window too.  Under submission numbering every
        receivable round has its watchdog from :meth:`send_gradient`, and
        guarding gaps would resurrect rounds a rejoined member skipped.
        """
        for guarded in range(max(0, round_index - 8), round_index + 1):
            if guarded not in self.rounds.closed:
                self._arm_watchdog(guarded)

    def _finish_round(self, round_index: int, out: Optional[np.ndarray] = None) -> None:
        """Hand a finished round to its owner: ``out`` when it came as one
        run, the array its chunks landed in otherwise."""
        landed = self.rounds.close(round_index)
        watchdog = self._watchdogs.pop(round_index, None)
        if watchdog is not None:
            watchdog.cancel()
        self._watchdog_attempts.pop(round_index, None)
        # Read-only: a run's vector is the engine's round buffer, shared
        # with the Help cache and every other member.
        out = (landed if out is None else out).view()
        out.flags.writeable = False
        self.rounds_completed += 1
        telemetry = self.host.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("client.rounds_completed", 1, worker=self.host.name)
            started = self._round_started.pop(round_index, None)
            if started is not None:
                telemetry.span_at(
                    "client.round",
                    started,
                    self.host.sim.now,
                    cat="iswitch",
                    track=self.host.name,
                    round=round_index,
                )
        else:
            self._round_started.pop(round_index, None)
        if self.on_round_complete is not None:
            self.on_round_complete(round_index, out)

    # ------------------------------------------------------------------
    # Loss recovery
    # ------------------------------------------------------------------
    def _arm_watchdog(self, round_index: int) -> None:
        """(Re)arm a round's recovery timer (the cycle is DESIGN §6.2).

        On expiry it sends ``Help(seg)`` for each Seg the round misses and
        rearms with exponential backoff — ``recovery_timeout *
        2**min(attempts, 8)``, so a round merely gated on slow peers
        starts no Help storm — until ``max_recovery_attempts`` firings
        abandon the round.  :meth:`_finish_round` cancels it.
        """
        if round_index in self._watchdogs:
            return

        def check() -> None:
            self._watchdogs.pop(round_index, None)
            if round_index in self.rounds.closed:
                return
            telemetry = self.host.sim.telemetry
            if telemetry.enabled:
                telemetry.event(
                    "client.watchdog_fired",
                    cat="recovery",
                    track=self.host.name,
                    round=round_index,
                )
            attempts = self._watchdog_attempts.get(round_index, 0) + 1
            self._watchdog_attempts[round_index] = attempts
            if (
                self.max_recovery_attempts is not None
                and attempts > self.max_recovery_attempts
            ):
                # Give up: the round is presumed unsatisfiable (it straddled
                # a membership change or a Reset).  Going quiet lets the
                # simulator drain.
                self.abandoned_rounds.add(round_index)
                self._watchdog_attempts.pop(round_index, None)
                self.rounds.close(round_index)
                if telemetry.enabled:
                    telemetry.inc(
                        "client.rounds_abandoned", 1, worker=self.host.name
                    )
                if self.on_round_abandoned is not None:
                    self.on_round_abandoned(round_index)
                return
            for seg in sorted(self.rounds.missing(round_index)):
                self.request_help(seg)
            self._arm_watchdog(round_index)

        attempts = self._watchdog_attempts.get(round_index, 0)
        timeout = self.recovery_timeout * (2 ** min(attempts, 8))
        self._watchdogs[round_index] = self.host.sim.schedule(
            timeout, check, name=f"watchdog:r{round_index}"
        )

    def cancel_recovery(self) -> None:
        """Silence every armed watchdog (``leave()`` does: a departed member
        can never satisfy its pending rounds, and its timers would otherwise
        keep the event loop alive)."""
        for watchdog in self._watchdogs.values():
            watchdog.cancel()
        self._watchdogs.clear()
        self._watchdog_attempts.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_rounds(self) -> int:
        """Rounds with at least one received chunk but not yet complete."""
        return len(self.rounds.pending)
