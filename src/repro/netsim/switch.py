"""The regular (non-programmable) store-and-forward Ethernet switch.

This is the substrate the PS and AllReduce baselines run on, and the chassis
the iSwitch accelerator extends (:mod:`repro.core.switch` subclasses it).

Forwarding model
----------------
* Store-and-forward: the ingress link already delivered the whole frame, so
  the switch only adds a fixed processing latency before the egress
  transmitter takes over (cut-through is not modelled; at 10 GbE and
  1.5 kB frames the difference is ~1.2 µs and identical across all
  compared systems).
* The forwarding table maps destination host names to egress ports and is
  populated by the topology builder (static routing — the experiments do
  not exercise MAC learning, and the paper's switches are statically
  configured too).
* Two drivers, one model: a packet delivered by an event is forwarded by
  an event one latency later (:meth:`EthernetSwitch.process`); a packet
  *train* is handed over ahead of time and forwarded by the simulator's
  :class:`ForwardingQueue` with no event per packet — same departure
  times, same counters (DESIGN.md §11.1).
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush, heapreplace
from math import inf, nextafter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .events import SimError, Simulator
from .link import LinkEnd
from .node import Device
from .packets import Packet, PacketTrain

__all__ = ["EthernetSwitch", "ForwardingQueue", "DEFAULT_SWITCH_LATENCY"]

#: Port-to-port latency of a commodity 10 GbE ToR switch (~1 µs).
DEFAULT_SWITCH_LATENCY = 1e-6

class _Hop:
    """One train at one plain switch, bound for one egress.

    ``arrivals`` and ``seqs`` grow as the hop before this one transmits
    (the first hop of a train knows them all when it is offered);
    ``sent`` of them, of the wire ``sizes``, have left through ``egress``.
    """

    __slots__ = (
        "switch", "latency", "egress", "link", "train", "sizes",
        "arrivals", "seqs", "sent", "queued", "forward", "down",
    )

    def __init__(
        self, switch: "EthernetSwitch", egress: LinkEnd, train: PacketTrain,
        sizes: List[int],
    ) -> None:
        self.switch = switch
        self.latency = switch.latency
        self.egress = egress
        self.link = egress.link
        self.train = train
        self.sizes = sizes
        self.arrivals: List[float] = []
        self.seqs: Sequence[int] = []
        self.sent = 0
        #: Whether the hop has a packet waiting and so sits in the heap.
        self.queued = False
        #: Whether the far end of ``egress`` is the next plain switch on
        #: the path — ``down`` is then its :class:`_Hop` — or a device the
        #: train is delivered to in one event (also where a plain switch
        #: drops it): ``down`` is then the arrival times there, one per
        #: packet sent.
        self.forward = False
        self.down = None


class ForwardingQueue:
    """Every packet a plain switch holds but has not yet sent, in the order
    the per-packet path would send them — one queue per simulator.

    An :class:`EthernetSwitch` never reacts to a packet: given what the
    hosts offer, every departure is fixed by the FIFO recurrence ``end =
    max(busy, ready) + serialization`` applied in event order.  So a train
    handed to a plain switch (:meth:`accept`) costs no events of its own.
    Its packets wait here keyed ``(ready, arrival, seq)`` — exactly the
    event loop's ``(time, seq)`` for their ``fwd`` events:

    * ``ready = arrival + latency`` is when the event would fire;
    * two events at one time fire in the order they were scheduled, which
      is the order their packets arrived (``arrival``: two different
      arrivals can round to one ready time), and for one arrival time the
      order the upstream sends happened — ``seq``, handed out as sends
      are computed, which is that same order one hop earlier.

    :meth:`drain` transmits whatever is ready by ``sim.now`` with the
    same float operations and the same link and switch counters as the
    per-packet path; it runs before anything else moves a link
    (``LinkEnd.send`` / ``send_train`` call it) and in the **wake events**,
    the only events forwarding schedules: one per hop at the ready time of
    the train's *last* packet (kind ``fwd``: it stands for that packet's
    own event and books the others with ``count_batched``), and one
    delivery where the path reaches a device that reacts.  The heap holds
    one entry per hop, keyed by its next packet, so trains contending for
    an egress interleave packet by packet.

    Losses are not drawn here: a lossy link raises, naming the rule.
    Whoever changes a link mid-run (a fault window) must :meth:`drain`
    first, so packets ready before the change are sent by the old state.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._heap: list = []
        self._seq = 0

    def clear(self) -> None:
        """Forget every waiting packet (``Simulator.reset``)."""
        self._heap.clear()

    # ------------------------------------------------------------------
    def accept(
        self,
        switch: "EthernetSwitch",
        train: PacketTrain,
        in_port: LinkEnd,
    ) -> None:
        """Queue a train reaching ``switch`` at its arrivals (now or later)."""
        sim = self.sim
        arrivals = train.arrivals.tolist()  # python floats, identical values
        if arrivals[0] < sim.now:
            raise SimError(
                f"{switch.name}: a train must be handed over before it "
                f"arrives (first arrival t={arrivals[0]}, now={sim.now})"
            )
        first = self._seq
        self._seq = first + len(arrivals)
        sizes = train.run.wire_sizes.astype(np.int64).tolist()
        hop = self._route(switch, train, sizes, in_port)
        if hop is None:
            sim.schedule_fire_at(
                arrivals[-1], partial(self._dropped, switch, train, arrivals),
                "deliver",
            )
            return
        hop.arrivals = arrivals
        hop.seqs = range(first, first + len(arrivals))
        hop.queued = True
        latency = hop.latency
        heappush(self._heap, (arrivals[0] + latency, arrivals[0], first, hop))
        sim.schedule_fire_at(
            arrivals[-1] + latency, partial(self._wake, hop), "fwd"
        )

    def _route(self, switch, train, sizes, in_port) -> Optional[_Hop]:
        """The hops from ``switch`` to where the path leaves the plain
        switches, or ``None`` where ``switch`` drops the train."""
        egress = switch.lookup(train.dst)
        if egress is None or egress is in_port:
            return None
        hop = _Hop(switch, egress, train, sizes)
        hop.link.require_lossless()
        peer = egress.peer_device
        if not peer.reacts:
            hop.down = self._route(peer, train, sizes, egress.peer)
            hop.forward = hop.down is not None
        if not hop.forward:
            hop.down = []  # arrivals where the train is delivered, or dropped
        return hop

    # ------------------------------------------------------------------
    def drain(self, inclusive: bool = True) -> None:
        """Transmit everything ready by ``sim.now``, in heap order.

        ``inclusive=False`` leaves what is ready *at* ``sim.now`` to its
        own wake event: a host event at that same instant comes first,
        as it does whenever it was scheduled before the packet arrived.
        """
        heap = self._heap
        if not heap:
            return
        now = self.sim.now
        limit = now if inclusive else nextafter(now, -inf)
        seq = self._seq
        while heap:
            head = heap[0]
            ready = head[0]
            if ready > limit:
                break
            hop = head[3]
            i = hop.sent
            egress = hop.egress
            link = hop.link
            # LinkEnd.send, operation for operation.
            wire_size = hop.sizes[i]
            serialization = wire_size * link._seconds_per_byte
            busy = egress._busy_until
            busy = (busy if busy > ready else ready) + serialization
            egress._busy_until = busy
            egress.busy_time += serialization
            egress.tx_packets += 1
            egress.tx_bytes += wire_size
            arrival = busy + link.propagation
            down = hop.down
            if hop.forward:
                down.arrivals.append(arrival)
                down.seqs.append(seq)
                if not down.queued:
                    down.queued = True
                    heappush(heap, (arrival + down.latency, arrival, seq, down))
                seq += 1
            else:
                down.append(arrival)
            hop.sent = i = i + 1
            # The hop is still the head: what was pushed is ready later.
            arrivals = hop.arrivals
            if i < len(arrivals):
                upcoming = arrivals[i]
                heapreplace(
                    heap, (upcoming + hop.latency, upcoming, hop.seqs[i], hop)
                )
                continue
            heappop(heap)
            hop.queued = False
            if i == len(hop.sizes):
                self._finish(hop, arrival)
        self._seq = seq

    def _finish(self, hop: _Hop, arrival: float) -> None:
        """``hop`` has sent its last packet, which lands at ``arrival``:
        schedule the one event the far end of its egress needs."""
        sim = self.sim
        down = hop.down
        train = hop.train
        train.hops += 1
        if hop.forward:
            sim.schedule_fire_at(
                arrival + down.latency, partial(self._wake, down), "fwd"
            )
            return
        peer = hop.egress.peer_device
        if peer.reacts:
            train.arrivals = np.array(down, dtype=np.float64)
            deliver = partial(hop.egress._deliver_train, train)
        else:
            deliver = partial(self._dropped, peer, train, down)
        sim.schedule_fire_at(arrival, deliver, "deliver")

    # ------------------------------------------------------------------
    def _wake(self, hop: _Hop) -> None:
        """The ``fwd`` event of a hop's last packet: everything ready is
        sent, and the hop is booked where its per-packet events were."""
        self.drain()
        hop.link.require_lossless()  # not turned lossy with the train in flight
        switch = hop.switch
        train = hop.train
        n = len(train)
        nbytes = train.run.wire_total
        switch.rx_packets += n
        switch.rx_bytes += nbytes
        switch.forwarded_packets += n
        if switch.train_tap is not None:
            switch.train_tap(train.packets, hop.arrivals)
        sim = self.sim
        # n deliveries to the switch, n forwarding events; this is one.
        sim.count_batched(n, "deliver")
        sim.count_batched(n - 1, "fwd")
        if train.job:
            hop.link.tenant_packets[train.job] += n
            hop.link.tenant_bytes[train.job] += nbytes

    def _dropped(self, switch, train, arrivals) -> None:
        """The delivery of the last packet of a train ``switch`` has no
        route for (or would send back where it came from)."""
        n = len(train)
        switch.rx_packets += n
        switch.rx_bytes += train.run.wire_total
        switch.dropped_packets += n
        if switch.train_tap is not None:
            switch.train_tap(train.packets, arrivals)
        self.sim.count_batched(n - 1, "deliver")


class EthernetSwitch(Device):
    """An N-port store-and-forward switch with a static forwarding table."""

    reacts = False

    #: ``(packets, arrivals)`` of every train forwarded through the
    #: :class:`ForwardingQueue` is passed to this callable when set — how
    #: a :class:`~repro.netsim.capture.PacketCapture` sees packets that no
    #: event delivers.
    train_tap: Optional[Callable[[List[Packet], List[float]], None]] = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        latency: float = DEFAULT_SWITCH_LATENCY,
    ) -> None:
        super().__init__(sim, name)
        if latency < 0:
            raise ValueError(f"switch latency must be >= 0, got {latency}")
        self.latency = latency
        self._fib: Dict[str, LinkEnd] = {}
        self._default_route: Optional[LinkEnd] = None
        self.forwarded_packets = 0
        self.dropped_packets = 0
        if sim.batch_transport and not self.reacts and sim.forwarding is None:
            # From the start, so that a lone packet sent before the first
            # train is already merged in the same order.
            sim.forwarding = ForwardingQueue(sim)

    # ------------------------------------------------------------------
    # Forwarding table
    # ------------------------------------------------------------------
    def add_route(self, dst: str, port: LinkEnd) -> None:
        """Route packets addressed to host ``dst`` out of ``port``."""
        if port not in self.ports:
            raise ValueError(f"{port!r} is not a port of switch {self.name}")
        self._fib[dst] = port

    def set_default_route(self, port: LinkEnd) -> None:
        """Route unknown destinations out of ``port`` (the uplink)."""
        if port not in self.ports:
            raise ValueError(f"{port!r} is not a port of switch {self.name}")
        self._default_route = port

    def lookup(self, dst: str) -> Optional[LinkEnd]:
        return self._fib.get(dst, self._default_route)

    @property
    def default_route(self) -> Optional[LinkEnd]:
        """The uplink port unknown destinations are forwarded out of."""
        return self._default_route

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, in_port: LinkEnd) -> None:
        self._count_rx(packet)
        self.process(packet, in_port)

    def process(self, packet: Packet, in_port: LinkEnd) -> None:
        """The regular forwarding path.  Subclasses may intercept first."""
        egress = self.lookup(packet.dst)
        if egress is None or egress is in_port:
            # Unknown destination or would hairpin: drop.  The experiments
            # never rely on flooding, so a drop here indicates a miswired
            # topology and the counters make that visible in tests.
            self.dropped_packets += 1
            return
        self.forwarded_packets += 1
        self.sim.schedule_fire(
            self.latency,
            lambda: egress.send(packet),
            "fwd",
        )

    def handle_train(self, train: PacketTrain, in_port: LinkEnd) -> None:
        """Take a whole train — normally ahead of time, with the arrival
        times it *will* have — and forward it without per-packet events.

        Each packet's forwarding event would have fired at
        ``arrival + latency`` on the per-packet path; the simulator's
        :class:`ForwardingQueue` transmits it then, merged packet by
        packet with whatever else is ready at the same egress.
        """
        queue = self.sim.forwarding
        if queue is None:
            queue = self.sim.forwarding = ForwardingQueue(self.sim)
        queue.accept(self, train, in_port)
