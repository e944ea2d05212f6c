"""Discrete-event simulation engine.

The whole iSwitch reproduction runs on a single-threaded discrete-event
simulator.  Time is a float measured in **seconds**.  Components schedule
callbacks at absolute or relative simulated times; the :class:`Simulator`
pops them in timestamp order and invokes them.

Determinism
-----------
Events scheduled for the same timestamp are executed in scheduling order
(FIFO), which makes every simulation run bit-reproducible for a fixed seed.
This matters because the asynchronous-training experiments derive gradient
*staleness* from event ordering.

Performance
-----------
This module is the hottest code in the repository (every packet costs
several events), so it trades a little elegance for speed:

* the heap stores plain tuples — ``(time, seq, event)`` for cancellable
  events and ``(time, seq, callback, kind)`` for fire-and-forget ones
  (:meth:`Simulator.schedule_fire`) — so every sift compares C-level
  tuples instead of calling a Python ``__lt__``; the ``seq`` tie-break
  is globally unique, so comparison never reaches the third element and
  the two tuple shapes coexist safely;
* the per-packet paths (delivery, forwarding, aggregation completion)
  use the fire-and-forget shape, which skips the :class:`Event`
  allocation entirely;
* :class:`Event` uses ``__slots__``;
* cancelled events use lazy deletion (skipped when popped), but a run
  that cancels heavily — loss-recovery watchdogs, mostly — is compacted
  in one batched sweep once cancelled entries outnumber live ones, so
  the heap never silts up.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..telemetry.hub import NULL_HUB, TelemetryHub

__all__ = [
    "Event",
    "Simulator",
    "SimError",
    "make_simulator",
]

#: Compact the heap when at least this many cancelled events have
#: accumulated *and* they outnumber the live ones.
_SWEEP_MIN_CANCELLED = 64


class SimError(RuntimeError):
    """Raised for illegal simulator operations (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    The owning simulator orders events by ``(time, seq)`` so that ties are
    broken by insertion order.  ``cancelled`` events stay in the heap but
    are skipped when popped (lazy deletion, batch-swept under pressure).
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "_cancel_cell")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = cancelled
        #: The owning simulator's cancelled-event counter (a one-element
        #: list, shared so ``cancel`` stays O(1) with no back-reference to
        #: the simulator itself).  ``None`` once the event left the heap.
        self._cancel_cell: Optional[List[int]] = None

    def cancel(self) -> None:
        """Mark this event so the simulator will skip it."""
        if not self.cancelled:
            self.cancelled = True
            cell = self._cancel_cell
            if cell is not None:
                cell[0] += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}, {self.name!r}{state})"


class Simulator:
    """A minimal but complete discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    #: Which transport the senders on this simulator use (iSwitch clients
    #: for their segments, ``send_vector`` for its chunks), and why:
    #: ``"train"`` (same-destination bursts travel as one
    #: :class:`~repro.netsim.packets.PacketTrain`: one delivery event per
    #: train at a device that reacts, none at a plain switch) or
    #: ``"packet (<reason>)"`` (one event per packet per hop, the
    #: reference model).  Whoever builds the cluster sets it once from
    #: :func:`repro.distributed.config.choose_transport`, before it builds
    #: the switches; a bare simulator is per-packet.
    transport = "packet"

    def __init__(self, telemetry: Optional[TelemetryHub] = None) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._cancelled = [0]  # cancelled events still sitting in the heap
        self._processed = 0
        self._running = False
        #: The run's telemetry hub; the shared disabled hub by default, so
        #: every component can unconditionally do ``sim.telemetry.inc(...)``
        #: behind an ``enabled`` check at zero configuration cost.
        self.telemetry: TelemetryHub = NULL_HUB
        #: The :class:`~repro.netsim.switch.ForwardingQueue` of a simulator
        #: whose plain switches forward packet trains without events, or
        #: ``None``: a per-packet simulator never has one, so what
        #: ``LinkEnd.send`` pays to ask is one attribute load.
        self.forwarding = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_telemetry(self, hub: TelemetryHub) -> None:
        """Install ``hub`` as this run's telemetry sink and time source."""
        self.telemetry = hub
        hub.bind_clock(lambda: self._now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def batch_transport(self) -> bool:
        """Whether senders on this simulator burst packet trains."""
        return self.transport == "train"

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (excluding cancelled ones)."""
        return len(self._heap) - self._cancelled[0]

    def count_batched(self, n: int, kind: str) -> None:
        """Account ``n`` logical events coalesced into the current one.

        The batched transport path replaces N per-packet events (delivery,
        forwarding, result emission) with one physical train event.  The
        components that coalesce call this so ``processed_events`` and the
        ``sim.events_processed`` telemetry counter keep meaning *logical*
        per-packet work — benchmark events/s rates stay comparable across
        transports, only the wall-clock cost per logical event changes.
        """
        if n <= 0:
            return
        self._processed += n
        if self.telemetry.enabled:
            self.telemetry.inc("sim.events_processed", n, kind=kind)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        # Body of schedule_at, inlined: this is called once or more per
        # simulated packet and the extra frame is measurable.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, name)
        event._cancel_cell = self._cancelled
        heapq.heappush(self._heap, (time, seq, event))
        cancelled = self._cancelled[0]
        if cancelled >= _SWEEP_MIN_CANCELLED and 2 * cancelled >= len(self._heap):
            self._sweep_cancelled()
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at t={time} (now={self._now}): time moves forward"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, name)
        event._cancel_cell = self._cancelled
        heapq.heappush(self._heap, (time, seq, event))
        cancelled = self._cancelled[0]
        if cancelled >= _SWEEP_MIN_CANCELLED and 2 * cancelled >= len(self._heap):
            self._sweep_cancelled()
        return event

    def schedule_fire(
        self, delay: float, callback: Callable[[], None], kind: str = ""
    ) -> None:
        """Schedule a fire-and-forget callback ``delay`` seconds from now.

        Unlike :meth:`schedule` no :class:`Event` is created and nothing is
        returned, so the callback **cannot be cancelled**.  This is the
        per-packet path (delivery, forwarding, result emission), where the
        allocation per event is measurable; ``kind`` is the telemetry
        dispatch label (a plain prefix such as ``"deliver"``, never a
        per-packet string).
        """
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, callback, kind))

    def schedule_fire_at(
        self, time: float, callback: Callable[[], None], kind: str = ""
    ) -> None:
        """Absolute-time variant of :meth:`schedule_fire`."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at t={time} (now={self._now}): time moves forward"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, kind))

    def _sweep_cancelled(self) -> None:
        """Batch-drop every cancelled event and re-heapify the survivors."""
        self._heap = [
            entry
            for entry in self._heap
            if entry[2].__class__ is not Event or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled[0] = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        heap = self._heap
        while heap:
            head = heapq.heappop(heap)
            event = head[2]
            if event.__class__ is Event:
                if event.cancelled:
                    self._cancelled[0] -= 1
                    event._cancel_cell = None
                    continue
                event._cancel_cell = None
                callback = event.callback
                # Label by the name prefix (e.g. "lgc", "deliver", "fwd")
                # so dispatch counts stay low-cardinality.
                kind = event.name.split(":", 1)[0] if event.name else "anonymous"
            else:
                callback = event
                kind = head[3] or "anonymous"
            self._now = head[0]
            self._processed += 1
            if self.telemetry.enabled:
                self.telemetry.inc("sim.events_processed", 1, kind=kind)
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the final simulated time.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so repeated ``run(until=...)``
        calls observe a monotone clock.
        """
        if self._running:
            raise SimError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        telemetry = self.telemetry  # fixed for the simulator's lifetime
        try:
            if until is None and max_events is None:
                # Fast path for drain-the-queue runs (the training loops):
                # pop directly instead of peek-then-pop.
                while heap:
                    head = pop(heap)
                    event = head[2]
                    if event.__class__ is Event:
                        if event.cancelled:
                            cancelled[0] -= 1
                            event._cancel_cell = None
                            continue
                        event._cancel_cell = None
                        self._now = head[0]
                        self._processed += 1
                        if telemetry.enabled:
                            name = event.name
                            kind = (
                                name.split(":", 1)[0] if name else "anonymous"
                            )
                            telemetry.inc(
                                "sim.events_processed", 1, kind=kind
                            )
                        event.callback()
                    else:
                        self._now = head[0]
                        self._processed += 1
                        if telemetry.enabled:
                            telemetry.inc(
                                "sim.events_processed",
                                1,
                                kind=head[3] or "anonymous",
                            )
                        event()
                return self._now
            executed = 0
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                head = heap[0]
                event = head[2]
                is_event = event.__class__ is Event
                if is_event and event.cancelled:
                    pop(heap)
                    cancelled[0] -= 1
                    event._cancel_cell = None
                    continue
                if until is not None and head[0] > until:
                    break
                pop(heap)
                if is_event:
                    event._cancel_cell = None
                    callback = event.callback
                    name = event.name
                    kind = name.split(":", 1)[0] if name else "anonymous"
                else:
                    callback = event
                    kind = head[3] or "anonymous"
                self._now = head[0]
                self._processed += 1
                if telemetry.enabled:
                    telemetry.inc("sim.events_processed", 1, kind=kind)
                callback()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self._running = False
            if self.forwarding is not None:
                # Forwarding is computed when something asks; whoever reads
                # a link after a partial run must find it up to date.
                self.forwarding.drain()

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._heap.clear()
        self._cancelled[0] = 0
        self._now = 0.0
        self._processed = 0
        if self.forwarding is not None:
            self.forwarding.clear()


def make_simulator(*, telemetry: Optional[TelemetryHub] = None) -> Simulator:
    """Build the run's :class:`Simulator`.

    The one place runs get their event loop from (``build_cluster``, the
    multi-tenant fabric), which is also where ``benchmarks/perf`` hooks
    its tracer.
    """
    return Simulator(telemetry=telemetry)
