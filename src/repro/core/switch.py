"""The iSwitch: a programmable switch with the aggregation accelerator
integrated into its data plane as a bump-in-the-wire (paper §3.3, Figure 6).

The input arbiter inspects the IP ToS byte of every packet:

* untagged packets take the regular forwarding path of the parent
  :class:`~repro.netsim.switch.EthernetSwitch` — iSwitch "does not affect
  the regular network functions";
* :data:`~repro.core.protocol.TOS_DATA_UP` packets feed the job's
  :class:`~repro.core.accelerator.AggregationEngine`;
* :data:`~repro.core.protocol.TOS_DATA_DOWN` packets are results arriving
  from a parent switch;
* :data:`~repro.core.protocol.TOS_CONTROL` packets go to the control
  plane (Join/Leave/Reset/SetH/FBcast/Help/Halt — Table 2).

This class is the *simulator driver* of the switch role,
:class:`~repro.core.jobs.JobState`: it owns what is simulation — the
arbiter, the accelerator's latency on the event loop, ``Packet`` and train
construction, telemetry, Join/Leave on the ``MembershipTable`` — and asks
the job's role where everything else goes (broadcast or forward up, the
Help rules of DESIGN §6.2, Reset/SetH/FBcast/Halt).  The live backend's
``SoftwareSwitch`` drives the same role from UDP frames.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..netsim.events import Simulator
from ..netsim.link import LinkEnd
from ..netsim.packets import Packet, PacketTrain
from ..netsim.switch import DEFAULT_SWITCH_LATENCY, EthernetSwitch
from .accelerator import AcceleratorTiming, AggregationEngine
from .control_plane import MembershipTable, MemberType
from .jobs import DEFAULT_JOB, JobState, JobTable, Routes
from .protocol import (
    FLOAT_BYTES,
    FLOATS_PER_SEGMENT,
    ISWITCH_UDP_PORT,
    SEG_HEADER_BYTES,
    TOS_CONTROL,
    TOS_DATA_DOWN,
    TOS_DATA_UP,
    Action,
    ControlMessage,
    DataSegment,
    SegmentRun,
    make_control_packet,
)

__all__ = ["ISwitch"]


class ISwitch(EthernetSwitch):
    """An Ethernet switch extended with in-switch gradient aggregation."""

    #: Aggregation depends on what has arrived so far, so every train
    #: gets its delivery event (none is forwarded ahead of time).
    reacts = True

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: float = DEFAULT_SWITCH_LATENCY,
        dedup: bool = False,
        timing: Optional[AcceleratorTiming] = None,
        canonical: bool = False,
        codec=None,
    ) -> None:
        super().__init__(sim, name, latency=latency)
        #: Per-job switch roles; job 0 is the single-tenant default.
        self.jobs = JobTable(
            dedup=dedup, timing=timing, canonical=canonical, codec=codec, name=name
        )
        self.result_broadcasts = 0
        self.upstream_forwards = 0
        self.control_messages = 0

    # ------------------------------------------------------------------
    # Configuration (programmatic equivalents of the control messages)
    # ------------------------------------------------------------------
    @property
    def engine(self) -> AggregationEngine:
        """The default job's engine (single-tenant convenience)."""
        return self.jobs.get(DEFAULT_JOB).engine

    @engine.setter
    def engine(self, engine: AggregationEngine) -> None:
        self.jobs.get(DEFAULT_JOB).engine = engine

    @property
    def members(self) -> MembershipTable:
        """The default job's membership table."""
        return self.jobs.get(DEFAULT_JOB).members

    def add_member(
        self,
        address: str,
        member_type: str = MemberType.WORKER,
        job: int = DEFAULT_JOB,
    ) -> None:
        """Register a local member (worker or child switch) and grow H.

        "By default, H is equal to the number of workers" (§3.2) — here,
        the number of directly attached members contributing to this
        switch for the given job.  An explicit ``SetH`` overrides this.
        """
        state = self.jobs.get(job)
        state.members.join(address, ISWITCH_UDP_PORT, member_type)
        state.engine.set_threshold(len(state.members))

    @property
    def parent_address(self) -> Optional[str]:
        """Address of the parent iSwitch for hierarchical aggregation, or
        ``None`` if this switch is the (local) aggregation root."""
        return self.jobs.parent

    def set_parent(self, address: Optional[str]) -> None:
        self.jobs.set_parent(address)

    # ------------------------------------------------------------------
    # Input arbiter
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, in_port: LinkEnd) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.wire_size
        self._arbitrate(packet, in_port)

    def _arbitrate(self, packet: Packet, in_port: LinkEnd) -> None:
        tos = packet.tos
        if tos == TOS_DATA_UP:
            self._handle_contribution(packet)
        elif tos == TOS_DATA_DOWN:
            self._handle_result_from_parent(packet)
        elif tos == TOS_CONTROL:
            self._handle_control(packet)
        else:
            self.process(packet, in_port)

    def handle_train(self, train: PacketTrain, in_port: LinkEnd) -> None:
        """Batched arbiter: ingest or fan out a whole train in one call.

        Trains are single-flow by construction (one sender burst, or one
        switch's result emissions), so the common cases are a
        ``TOS_DATA_UP`` train into the aggregation engine and a
        ``TOS_DATA_DOWN`` train fanned out to members, as its header says.
        Anything else goes to the per-packet arbiter.
        """
        n = len(train)
        self.rx_packets += n
        self.rx_bytes += train.run.wire_total
        if n > 1:
            if train.tos == TOS_DATA_UP:
                if self._ingest_contribution_train(train, in_port):
                    return
            elif train.tos == TOS_DATA_DOWN:
                self._fanout_train(train)
                return
        for packet in train.packets:
            self._arbitrate(packet, in_port)

    # ------------------------------------------------------------------
    # Data plane: aggregation path
    # ------------------------------------------------------------------
    def _handle_contribution(self, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, DataSegment):
            raise TypeError(
                f"{self.name}: data packet carries {type(segment).__name__}, "
                "expected DataSegment"
            )
        state = self.jobs.get(segment.job)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            labels = {"job": segment.job} if segment.job else {}
            telemetry.inc("switch.contributions", 1, switch=self.name, **labels)
            if state.engine.clock is None:
                # Arm the engine's first-arrival stamping lazily so the
                # datapath stays timestamp-free while telemetry is off.
                state.engine.clock = telemetry.now
        latency = state.engine.processing_latency(packet.payload_size)
        for completed in state.contribute(segment):
            if telemetry.enabled:
                now = self.sim.now
                self._trace_completion(state.engine, completed, now, now + latency)
            self.sim.schedule_fire(
                latency + self.latency,
                lambda seg=completed: self._emit(seg.job, [seg]),
                "agg-complete",
            )

    def _ingest_contribution_train(
        self, train: PacketTrain, in_port: LinkEnd
    ) -> bool:
        """Aggregate a whole train of contributions in one call.

        Returns ``False`` — before touching any state — when the train is
        not a single-job run of :class:`DataSegment` payloads; the caller
        then falls back to the per-packet arbiter.

        Exactness: contributions enter the engine in packet order (the
        per-packet arrival order), each completion's emission time is
        computed from its *own* packet's carried arrival (preserving the
        paper's on-the-fly overlap), and emissions are sorted by
        ``(time, completion order)`` — the key the event heap would have
        used for the per-packet emission events.
        """
        segments = train.run
        if isinstance(segments, SegmentRun):
            job = segments.job
            sizes = segments.payload_sizes
        else:  # a switch's results out of Seg order (a short last chunk)
            packets = train.packets
            segments = [packet.payload for packet in packets]
            sizes = [packet.payload_size for packet in packets]
            job = getattr(segments[0], "job", None)
            if not all(
                isinstance(s, DataSegment) and s.job == job for s in segments
            ):
                return False
        state = self.jobs.get(job)
        engine = state.engine
        sim = self.sim
        telemetry = sim.telemetry
        n = len(sizes)
        clocks = None
        if telemetry.enabled:
            labels = {"job": job} if job else {}
            telemetry.inc("switch.contributions", n, switch=self.name, **labels)
            # Stamp each contribution with its own carried arrival: one
            # train = one simulator event, so the engine's shared clock
            # would record the last packet's arrival for every segment.
            clocks = train.arrivals.tolist()
        # One processing_latency accrual per packet, exactly like the
        # per-packet path (it also accumulates the engine's busy_time).
        size0 = sizes[0]
        latency0 = engine.processing_latency(size0)
        latencies = [latency0] * n
        stats = engine.stats
        for i in range(1, n):
            if sizes[i] == size0:
                # Repeated adds, not one multiply: busy_time must match
                # the per-packet accumulation bit for bit.
                stats.busy_time += latency0
            else:
                latencies[i] = engine.processing_latency(sizes[i])
        completions = engine.contribute_batch(segments, clocks=clocks)
        if not completions:
            return True
        # One logical "agg-complete" event per completion.
        sim.count_batched(len(completions), "agg-complete")
        switch_latency = self.latency
        if isinstance(completions, SegmentRun):
            # The run completed its round: chunk i leaves one summed delay
            # after packet i arrived (schedule_fire's float association).
            ready = train.arrivals + (np.array(latencies) + switch_latency)
            if (ready[1:] >= ready[:-1]).all():
                self._emit(job, completions, ready=ready)
                return True
            # A short last chunk overtakes its neighbour in the pipeline:
            # no longer one run on the wire.
            completions = list(enumerate(completions))
        arrivals = train.arrivals.tolist()  # python floats, identical values
        items: List[Tuple[float, int, DataSegment]] = []
        for order, (i, completed) in enumerate(completions):
            completed.job = job
            arrival = arrivals[i]
            latency = latencies[i]
            # Match the per-packet float association exactly:
            # schedule_fire(latency + self.latency) adds the *summed*
            # delay to the arrival in one operation.
            emit_delay = latency + switch_latency
            if telemetry.enabled:
                self._trace_completion(engine, completed, arrival, arrival + latency)
            items.append((arrival + emit_delay, order, completed))
        items.sort(key=lambda item: (item[0], item[1]))
        self._emit(
            job,
            [item[2] for item in items],
            ready=np.array([item[0] for item in items], dtype=np.float64),
        )
        return True

    def _trace_completion(self, engine, completed, arrival, done) -> None:
        """Telemetry for one completion: its first arrival -> ``done`` span
        (from ``arrival`` if the stamp aged out) and the per-job count."""
        telemetry = self.sim.telemetry
        started = engine.consume_span_start(completed.seg)
        # Trains from different links deliver in last-arrival order, so
        # under retransmission a completion can carry an earlier logical
        # arrival than the recorded first arrival; clamp so the span stays
        # well-formed.
        telemetry.span_at(
            "segment.aggregate",
            min(arrival if started is None else started, done),
            done,
            cat="aggregation",
            track=self.name,
            seg=completed.seg,
            job=completed.job,
        )
        labels = {"job": completed.job} if completed.job else {}
        telemetry.inc("switch.segments_completed", 1, switch=self.name, **labels)

    def _fanout_train(self, train: PacketTrain) -> None:
        """Batched :meth:`_handle_result_from_parent`: re-broadcast a train,
        each packet ready one switch latency after its own arrival."""
        self.sim.count_batched(len(train), "fanout")
        results = train.run
        if isinstance(results, SegmentRun):
            job = results.job
        else:  # the parent's results out of Seg order: one job's segments
            results = [packet.payload for packet in train.packets]
            job = results[0].job
        self._emit(job, results, final=True, ready=train.arrivals + self.latency)

    def _handle_result_from_parent(self, packet: Packet) -> None:
        """A globally aggregated segment arrived from above: fan it out."""
        segment = packet.payload
        self.sim.schedule_fire(
            self.latency,
            lambda: self._emit(segment.job, [segment], final=True),
            "fanout",
        )

    # ------------------------------------------------------------------
    # Egress: what the job's role routes, as packets and trains
    # ------------------------------------------------------------------
    def _emit(
        self,
        job: int,
        results: List[DataSegment],
        final: bool = False,
        ready: Optional[np.ndarray] = None,
    ) -> None:
        """Ship one job's segments at their emission time — now, or with
        per-segment ``ready`` times as one train per destination.

        ``final`` ones arrived from the parent; the others completed here
        and the job's role decides: up the hierarchy, or down to the
        members it has *now* (Figure 1c).  This driver only accounts for
        what it was told to send.
        """
        # The job may have been evicted (last member left) between the
        # segment completing and this delayed fan-out; don't resurrect it.
        role = self.jobs.peek(job)
        if role is None:
            return
        routes = role.deliver(results) if final else role.emit(results)
        telemetry = self.sim.telemetry
        n = len(results)
        if routes and routes[0][0] == role.parent:
            self.upstream_forwards += n
            if telemetry.enabled:
                for result in results:
                    telemetry.event(
                        "segment.forward_up",
                        cat="aggregation",
                        track=self.name,
                        seg=result.seg,
                    )
        else:
            self.result_broadcasts += n
            if telemetry.enabled:
                labels = {"job": job} if job else {}
                telemetry.inc(
                    "switch.result_broadcasts", n, switch=self.name, **labels
                )
                for result in results:
                    telemetry.event(
                        "segment.broadcast",
                        cat="aggregation",
                        track=self.name,
                        seg=result.seg,
                        job=job,
                    )
        self._transmit(role, routes, ready)

    def _transmit(
        self, role: JobState, routes: Routes, ready: Optional[np.ndarray] = None
    ) -> None:
        """Put a role's routes on the wire: one packet per message, or —
        given the messages' ``ready`` times — one train per destination;
        a run goes out as it is, the same one to every destination."""
        parent = role.parent
        for dst, messages in routes:
            egress = self.lookup(dst)
            if egress is None:
                self.dropped_packets += len(messages)
                continue
            downstream = dst != parent
            if isinstance(messages, SegmentRun):
                egress.send_train(
                    PacketTrain(
                        messages, self.name, dst,
                        TOS_DATA_DOWN if downstream else TOS_DATA_UP,
                        ISWITCH_UDP_PORT,
                    ),
                    ready,
                )
            elif ready is None:
                for message in messages:
                    egress.send(self._packet(dst, message, downstream))
            else:
                egress.send_train(
                    PacketTrain.of(
                        [self._packet(dst, m, downstream) for m in messages]
                    ),
                    ready,
                )

    def _packet(self, dst: str, message, downstream: bool) -> Packet:
        if isinstance(message, ControlMessage):
            return make_control_packet(self.name, dst, message)
        segment = message
        if segment.wire_payload is not None and segment.wire_frames is not None:
            payload_size, frames = segment.wire_payload, segment.wire_frames
        else:
            # Reconstructed from the carried data (Help retransmissions of
            # unstamped segments): one Seg header per real frame, fp32.
            frames = max(1, math.ceil(segment.data.size / FLOATS_PER_SEGMENT))
            payload_size = (
                frames * SEG_HEADER_BYTES + segment.data.size * FLOAT_BYTES
            )
        # Trusted construction: stamped footprints passed validation when
        # the contribution was built; reconstructed ones fit by definition.
        return Packet.trusted(
            self.name,
            dst,
            payload_size,
            TOS_DATA_DOWN if downstream else TOS_DATA_UP,
            segment,
            ISWITCH_UDP_PORT,
            ISWITCH_UDP_PORT,
            frames,
            0,
        )

    # ------------------------------------------------------------------
    # Control plane: Join/Leave here, everything else is the role's
    # ------------------------------------------------------------------
    def _handle_control(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, ControlMessage):
            raise TypeError(
                f"{self.name}: control packet carries "
                f"{type(message).__name__}, expected ControlMessage"
            )
        self.control_messages += 1
        action = message.action
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.inc(
                "switch.control_messages",
                1,
                switch=self.name,
                action=action.name.lower(),
            )
        job = message.job
        role = self.jobs.get(job)
        members = role.members
        completed: List[DataSegment] = []
        if action == Action.JOIN:
            member_type = message.value or MemberType.WORKER
            members.join(packet.src, packet.src_port, member_type)
            role.engine.set_threshold(len(members))
            routes = [role.ack(packet.src)]
        elif action == Action.LEAVE:
            routes = [role.ack(packet.src, members.leave(packet.src))]
            if members:
                completed = role.set_threshold(len(members))
            elif job != DEFAULT_JOB:
                self.jobs.remove(job)
        else:
            routes, completed = role.control(message, packet.src)
        for segment in completed:
            # Completed by a control message (a lowered H, an FBcast), not
            # an arrival: same egress, one switch latency from now.
            if telemetry.enabled:
                telemetry.event(
                    "segment.swept",
                    cat="aggregation",
                    track=self.name,
                    seg=segment.seg,
                    job=job,
                )
            self.sim.schedule_fire(
                self.latency,
                lambda seg=segment: self._emit(job, [seg]),
                "agg-sweep",
            )
        self._transmit(role, routes)
