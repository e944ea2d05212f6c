"""Worker-side endpoint of the iSwitch protocol.

Each training worker owns an :class:`AggregationClient` bound to its
host's iSwitch UDP port.  The client

* streams a gradient vector to the switch as a train of ToS-tagged data
  packets (the NIC serializes them back to back, which is what lets the
  accelerator aggregate on the fly while later packets are still in
  flight);
* collects the aggregated segments broadcast back by the switch,
  reassembles them into full vectors per aggregation round, and invokes a
  completion callback;
* speaks the control protocol (Join/Leave/Reset/SetH/Help) and can run a
  timeout-driven loss-recovery loop, implementing the paper's "offload
  the majority of tasks of handling lossy packets to workers".
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..netsim.events import Event
from ..netsim.node import Host
from ..netsim.packets import Packet, PacketTrain
from .protocol import (
    ISWITCH_UDP_PORT,
    TOS_CONTROL,
    TOS_DATA_DOWN,
    TOS_DATA_UP,
    Action,
    ControlMessage,
    DataSegment,
    SegmentPlan,
    SegmentRun,
    make_control_packet,
    make_data_packet,
)

__all__ = ["AggregationClient"]

RoundCallback = Callable[[int, np.ndarray], None]
ControlCallback = Callable[[ControlMessage], None]


class AggregationClient:
    """The per-worker protocol endpoint for in-switch aggregation."""

    def __init__(
        self,
        host: Host,
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
        #: Optional :class:`repro.core.compression.GradientCodec`; when
        #: set, gradients suffer its quantization loss before leaving the
        #: worker (the wire width itself comes from the plan's
        #: ``bytes_per_element``).
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
        #: Base Help-retry timeout (seconds of simulated time), or ``None``
        #: to disable the loss-recovery loop entirely.  Should comfortably
        #: exceed one round-trip *plus* the slowest peer's compute time —
        #: a premature watchdog is harmless (Help on an incomplete segment
        #: is ignored or answered by retransmits the dedup engine drops)
        #: but wastes packets.
        self.recovery_timeout = recovery_timeout
        if recovery_timeout is not None and host.sim.batch_transport:
            raise ValueError(
                f"AggregationClient on {host.name}: loss recovery needs the "
                "per-packet transport; clients burst packet trains only when "
                "no recovery is armed (build_cluster(recovery_armed=True))"
            )
        #: Cap on watchdog firings per round.  ``None`` (default) retries
        #: forever — correct when every round is guaranteed to eventually
        #: complete, but it deadlocks the simulator's event loop if a
        #: round becomes *unsatisfiable* (e.g. membership shrank and the
        #: round was force-completed elsewhere).  Fault-injected runs set
        #: a finite cap so abandoned rounds go quiet instead of keeping
        #: the run alive.
        self.max_recovery_attempts = max_recovery_attempts
        #: Rounds whose watchdog hit ``max_recovery_attempts`` and gave up.
        self.abandoned_rounds: set = set()
        #: Called with the round index when a round is abandoned, so the
        #: owning strategy can account for the permanently missed update
        #: (e.g. advance its iteration counter) instead of waiting forever.
        self.on_round_abandoned = on_round_abandoned
        #: Result segments received so far, per round and chunk offset.
        self._partial: Dict[int, Dict[int, DataSegment]] = {}
        #: With no recovery armed a round that lost a broadcast chunk is
        #: never completed, and pins its round buffer.  The owner of a
        #: bounded engine window sets this (in rounds): a partial round
        #: older than the newest seen by more is dropped and counted.
        self.partial_window: Optional[int] = None
        self.rounds_dropped = 0
        self._completed: set = set()
        self._watchdogs: Dict[int, Event] = {}
        #: Consecutive watchdog firings per round (drives the exponential
        #: backoff so a round gated on slow peers doesn't spam Help).
        self._watchdog_attempts: Dict[int, int] = {}
        #: Recently sent segments by global Seg number, kept only when
        #: loss recovery is armed, so a relayed Help can be answered by
        #: retransmitting the original contribution.
        self._sent: Dict[int, DataSegment] = {}
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

            def dispatch(packet: Packet) -> None:
                for client in registry:
                    client._receive(packet)

            def dispatch_train(train) -> None:
                for client in registry:
                    client._receive_train(train)

            host.bind(ISWITCH_UDP_PORT, dispatch)
            host.bind_train(ISWITCH_UDP_PORT, dispatch_train)
        registry.append(self)

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
        if len(self._round_started) > 1024:
            for old in sorted(self._round_started)[:512]:
                del self._round_started[old]
        if self.codec is not None:
            vector = self.codec.roundtrip(vector)
        if self.host.sim.batch_transport:
            # One run, no packets unless someone downstream asks.  No recovery
            # bookkeeping: __init__ refuses an armed client on this path.
            src, job = self.host.name, self.job
            run = self.plan.run(vector, round_index, src, commit_id, job)
            self.host.send_burst(
                PacketTrain(
                    run, src, self.switch_address, TOS_DATA_UP,
                    ISWITCH_UDP_PORT, job,
                )
            )
            return commit_id
        segments = self.plan.split(
            vector, round_index, sender=self.host.name, commit_id=commit_id
        )
        for segment in segments:
            segment.job = self.job
            if self.recovery_timeout is not None:
                # These segments double as the retransmission cache, so
                # the engine must not adopt (and sum into) their arrays;
                # a read-only view makes it copy on first arrival
                # instead.
                frozen = segment.data.view()
                frozen.flags.writeable = False
                segment.data = frozen
            self.host.send(
                make_data_packet(
                    self.host.name, self.switch_address, segment, self.plan
                )
            )
        if self.recovery_timeout is not None:
            for segment in segments:
                self._sent[segment.seg] = segment
            if len(self._sent) > 8 * self.plan.n_chunks:
                for old in sorted(self._sent)[: 4 * self.plan.n_chunks]:
                    del self._sent[old]
            self._arm_watchdog(round_index)
        return commit_id

    # ------------------------------------------------------------------
    # Control operations
    # ------------------------------------------------------------------
    def join(self, member_type: str = "worker") -> None:
        # Broadcast fragments of rounds missed while away can never complete.
        self._partial.clear()
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
    def _receive(self, packet: Packet) -> None:
        if packet.tos == TOS_DATA_DOWN:
            if packet.payload.job != self.job:
                return  # another tenant's results on a shared host
            self._receive_result(packet.payload)
        elif packet.tos == TOS_CONTROL:
            message = packet.payload
            if isinstance(message, ControlMessage) and message.job != self.job:
                return
            if (
                isinstance(message, ControlMessage)
                and message.action == Action.HELP
            ):
                self._retransmit(int(message.value))
            elif self.on_control is not None:
                self.on_control(message)

    def _receive_train(self, train) -> None:
        """Batched receive.  The dominant shape, a whole round's broadcast
        as one run, finishes the round on the run's own vector; anything
        else is received packet by packet, in the train's (arrival) order
        and within this call — per-packet semantics without a dispatch
        event each.  No watchdog is due here: trains only flow where no
        recovery is armed."""
        run = train.run
        if isinstance(run, SegmentRun) and train.tos == TOS_DATA_DOWN:
            if run.job != self.job:
                return  # another tenant's results on a shared host
            n_chunks = self.plan.n_chunks
            round_index, chunk = divmod(run.seg, n_chunks)
            if chunk == 0 and len(run) == n_chunks and round_index not in self._partial:
                if round_index not in self._completed:
                    self._finish_round(round_index, run.data)
                return
        for packet in train.packets:
            self._receive(packet)

    def _retransmit(self, seg: int) -> None:
        """Answer a switch-relayed Help: resend our own contribution.

        The engine's dedup mode drops the copy if the original did arrive,
        so retransmission is always safe.
        """
        segment = self._sent.get(seg)
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
        round_index = self.plan.round_of_seg(segment.seg)
        if round_index in self._completed:
            return  # late duplicate of an already-assembled round
        chunk = self.plan.chunk_of_seg(segment.seg)
        chunks = self._partial.get(round_index)
        if chunks is None:
            chunks = self._partial[round_index] = {}
            if self.partial_window is not None:
                horizon = round_index - self.partial_window
                for stale in [r for r in self._partial if r < horizon]:
                    del self._partial[stale]
                    self.rounds_dropped += 1
        chunks[chunk] = segment  # duplicate results simply overwrite
        if len(chunks) == self.plan.n_chunks:
            self._finish_round(round_index)
        elif (
            self.recovery_timeout is not None
            and self.on_round_abandoned is not None
        ):
            self._guard_broadcast_rounds(round_index)

    def _guard_broadcast_rounds(self, round_index: int) -> None:
        """Arm watchdogs for a partially received round *and* recent gaps.

        :meth:`send_gradient` only guards rounds this client submitted
        under its own numbering; with arrival renumbering (async mode)
        the switch's round indices are assigned on arrival, so a
        broadcast whose packets were *all* lost here leaves no partial
        state and no timer.  Rounds complete in renumbered order, so a
        chunk for round ``r`` means every nearby earlier round's
        broadcast already happened — guard the small trailing window so
        fully-dropped rounds get Help-recovered too.

        Only armed when an abandonment callback is wired (async mode):
        under submission numbering every receivable round already has a
        watchdog from :meth:`send_gradient`, and guarding gaps would
        resurrect rounds a rejoined member deliberately skipped.
        """
        for guarded in range(max(0, round_index - 8), round_index + 1):
            if (
                guarded not in self._completed
                and guarded not in self.abandoned_rounds
            ):
                self._arm_watchdog(guarded)

    def _finish_round(self, round_index: int, out: Optional[np.ndarray] = None) -> None:
        """Hand a finished round to its owner: ``out`` when it came as one
        run, the chunks collected in ``_partial`` otherwise."""
        self._completed.add(round_index)
        if len(self._completed) > 1024:
            # Old rounds can never resurface; keep the set bounded.
            for done in sorted(self._completed)[:512]:
                self._completed.discard(done)
        watchdog = self._watchdogs.pop(round_index, None)
        if watchdog is not None:
            watchdog.cancel()
        self._watchdog_attempts.pop(round_index, None)
        if out is None:
            # Chunks cover [0, n_chunks) exactly once and the plan's bounds
            # are contiguous in chunk order, so joining them in order
            # reproduces the per-chunk slice assignment.
            chunks = self._partial.pop(round_index)
            out = np.concatenate(
                [chunks[chunk].data for chunk in range(self.plan.n_chunks)]
            )
        # Read-only: a run's vector is the engine's round buffer, shared
        # with the Help cache and every other member.
        out = out.view()
        out.flags.writeable = False
        if out.shape[0] != self.plan.n_elements:
            raise ValueError(
                f"round {round_index}: assembled {out.shape[0]} elements, "
                f"expected {self.plan.n_elements}"
            )
        self.rounds_completed += 1
        telemetry = self.host.sim.telemetry
        if telemetry.enabled:
            telemetry.inc(
                "client.rounds_completed", 1, worker=self.host.name
            )
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
        """(Re)arm the per-round loss-recovery timer.

        This is the worker half of the paper's loss handling ("offload
        the majority of tasks of handling lossy packets to workers").
        The cycle is:

        1. :meth:`send_gradient` arms a watchdog for the round (only when
           ``recovery_timeout`` is set) and records every sent segment in
           ``_sent``.
        2. If the round's broadcast completes in time,
           :meth:`_finish_round` cancels the timer.  Otherwise ``check``
           fires: for each chunk still missing from ``_partial`` it sends
           ``Help(seg)`` to the switch.
        3. The switch answers from its result cache (covers a lost
           *downstream* broadcast) or relays the Help to all members,
           whose clients re-send their original contribution from
           ``_sent`` (covers a lost *upstream* contribution; the engine's
           dedup mode makes the re-send idempotent).
        4. The watchdog rearms with exponential backoff —
           ``recovery_timeout * 2**min(attempts, 8)`` — so a round merely
           gated on slow peers doesn't generate a Help storm, and stops
           for good after ``max_recovery_attempts`` firings (if set).
        """
        if round_index in self._watchdogs:
            return

        def check() -> None:
            self._watchdogs.pop(round_index, None)
            if round_index in self._completed:
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
                # Give up: the round is presumed unsatisfiable (e.g. it
                # straddled a membership change or switch Reset).  Going
                # quiet lets the simulator drain instead of retrying an
                # outcome that cannot happen.
                self.abandoned_rounds.add(round_index)
                self._watchdog_attempts.pop(round_index, None)
                self._partial.pop(round_index, None)
                if telemetry.enabled:
                    telemetry.inc(
                        "client.rounds_abandoned", 1, worker=self.host.name
                    )
                if self.on_round_abandoned is not None:
                    self.on_round_abandoned(round_index)
                return
            received = set(self._partial.get(round_index, {}))
            missing = set(range(self.plan.n_chunks)) - received
            base = round_index * self.plan.n_chunks
            for chunk in sorted(missing):
                self.request_help(base + chunk)
            self._arm_watchdog(round_index)

        # Exponential backoff: a round stalled on slow peers (not loss)
        # shouldn't generate a Help storm while it waits.
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
        return len(self._partial)
