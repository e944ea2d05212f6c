"""Full-duplex point-to-point links with serialization and propagation.

A :class:`Link` joins two devices.  Each direction is independent (full
duplex) and owns a FIFO transmit queue: a packet occupies the transmitter
for ``wire_size * 8 / bandwidth`` seconds, then arrives at the far end
``propagation`` seconds later.  Queueing delay therefore emerges naturally
when a device offers packets faster than the link drains them — this is
what makes the parameter-server's single ingress link the bottleneck the
paper describes.

Packet loss
-----------
Two loss behaviours are modelled, both decided at *send* time (the drop
is accounted when the packet would have been delivered, so a dropped
packet still occupies the transmitter — exactly what a corrupted frame
does on real Ethernet):

* **Independent drops** — ``loss_rate`` is a per-packet Bernoulli drop
  probability, drawn from ``loss_rng``.  This is the historical knob the
  loss-recovery unit tests use.
* **Correlated (bursty) drops** — attaching a :class:`GilbertElliott`
  model via :attr:`Link.loss_model` overrides ``loss_rate`` and produces
  the loss *bursts* that real congestion and link flaps exhibit.  The
  fault-injection layer (:mod:`repro.faults`) installs and removes these
  models for timed windows.

Determinism: every random draw comes from ``loss_rng``, a
``numpy.random.default_rng(loss_seed)`` owned by the link.  Topology
builders derive each link's seed as ``loss_seed + len(net.links)`` (the
link's creation index) so that drops are decorrelated across links yet
bit-reproducible for a fixed topology and seed — see
:func:`repro.netsim.topology.build_star` and the determinism test in
``tests/test_faults.py``.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from .events import Simulator
from .packets import Packet, PacketRun, PacketTrain

if TYPE_CHECKING:  # pragma: no cover
    from .node import Device

__all__ = [
    "Link",
    "LinkEnd",
    "GilbertElliott",
    "GBPS",
    "DEFAULT_PROPAGATION",
]

GBPS = 1e9  # bits per second
#: One-way propagation for an in-rack copper/fiber run (~100 ns, i.e. ~20 m).
DEFAULT_PROPAGATION = 100e-9


class GilbertElliott:
    """Two-state Markov (Gilbert–Elliott) burst-loss model.

    The chain alternates between a *good* state (drop probability
    ``loss_good``, usually 0) and a *bad* state (drop probability
    ``loss_bad``).  Each packet first advances the state — good→bad with
    probability ``p_good_to_bad``, bad→good with ``p_bad_to_good`` — then
    samples a drop at the current state's rate, so losses arrive in
    bursts whose mean length is ``1 / p_bad_to_good`` packets.

    The stationary fraction of time spent in the bad state is
    ``p_gb / (p_gb + p_bg)``, which gives a mean loss rate of
    ``loss_good + pi_bad * (loss_bad - loss_good)``.
    :meth:`from_mean_loss` inverts that relation so fault plans can be
    written in terms of a target mean loss rate.

    >>> ge = GilbertElliott.from_mean_loss(0.02)
    >>> round(ge.mean_loss_rate(), 6)
    0.02
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_bad: float,
        loss_good: float = 0.0,
    ) -> None:
        for label, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_bad", loss_bad),
            ("loss_good", loss_good),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {p}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_bad = loss_bad
        self.loss_good = loss_good
        self.bad = False

    @classmethod
    def from_mean_loss(
        cls,
        loss: float,
        loss_bad: float = 0.5,
        p_bad_to_good: float = 0.25,
    ) -> "GilbertElliott":
        """Build a model whose stationary mean loss rate is ``loss``.

        ``loss_bad`` is the in-burst drop rate and ``1/p_bad_to_good``
        the mean burst length (packets); ``p_good_to_bad`` is solved
        from the stationary distribution.
        """
        if not 0.0 < loss < loss_bad:
            raise ValueError(
                f"mean loss must be in (0, loss_bad={loss_bad}), got {loss}"
            )
        pi_bad = loss / loss_bad
        p_gb = pi_bad * p_bad_to_good / (1.0 - pi_bad)
        return cls(min(1.0, p_gb), p_bad_to_good, loss_bad)

    def mean_loss_rate(self) -> float:
        """Stationary mean per-packet drop probability."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        pi_bad = self.p_good_to_bad / denom if denom > 0 else 0.0
        return self.loss_good + pi_bad * (self.loss_bad - self.loss_good)

    def should_drop(self, rng: np.random.Generator) -> bool:
        """Advance the Markov state, then sample a drop (two rng draws)."""
        if self.bad:
            if rng.random() < self.p_bad_to_good:
                self.bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self.bad = True
        rate = self.loss_bad if self.bad else self.loss_good
        return rate > 0.0 and rng.random() < rate


def _record_job_tx(telemetry, link_name: str, job: int, count: int, nbytes: int):
    # Multi-tenant traffic carries its job, so per-tenant telemetry
    # can separate shared-link usage; job 0 stays unlabelled.
    labels = {"job": job} if job else {}
    telemetry.inc("link.tx_packets", count, link=link_name, **labels)
    telemetry.inc("link.tx_bytes", nbytes, link=link_name, **labels)


class LinkEnd:
    """One attachment point of a :class:`Link`.

    Devices hold ``LinkEnd`` objects as their "ports" and call
    :meth:`send` to transmit toward the peer device.
    """

    def __init__(self, link: "Link", index: int) -> None:
        self.link = link
        self.index = index
        self.device: Optional["Device"] = None
        #: Filled by :meth:`Link.attach`; caches the two properties below
        #: for the per-packet delivery path.
        self._peer_end: Optional["LinkEnd"] = None
        self._peer_device: Optional["Device"] = None
        self._busy_until = 0.0
        self._queued_packets = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        #: Cumulative seconds this transmitter spent serializing.
        self.busy_time = 0.0

    @property
    def peer(self) -> "LinkEnd":
        """The opposite end of the link."""
        return self.link.ends[1 - self.index]

    @property
    def peer_device(self) -> "Device":
        device = self.peer.device
        if device is None:
            raise RuntimeError(f"{self.link} end {1 - self.index} is unattached")
        return device

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this transmitter was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def send(self, packet: Packet) -> float:
        """Transmit ``packet`` toward the peer; returns its arrival time.

        The transmitter serializes packets back to back in FIFO order.
        """
        link = self.link
        sim = link.sim
        if sim.forwarding is not None:
            # Trains cross this simulator's plain switches without events
            # (ForwardingQueue): bring every link up to date before this
            # one moves, and let a plain switch take a lone packet the way
            # it takes a train, so both are merged in one order.
            sim.forwarding.drain(inclusive=False)
            peer = self._peer_device
            if peer is not None and not peer.reacts:
                return self.send_train(PacketTrain.of([packet]))
        now = sim.now
        busy = self._busy_until
        wire_size = packet.wire_size
        serialization = wire_size * link._seconds_per_byte
        end = (busy if busy > now else now) + serialization
        self._busy_until = end
        self.busy_time += serialization
        arrival = end + link.propagation
        self.tx_packets += 1
        self.tx_bytes += wire_size
        self._queued_packets += 1
        packet.hops += 1
        loss_model = link.loss_model
        if loss_model is not None:
            dropped = loss_model.should_drop(link.loss_rng)
        else:
            dropped = (
                link.loss_rate > 0.0 and link.loss_rng.random() < link.loss_rate
            )
        telemetry = sim.telemetry
        if telemetry.enabled:
            _record_job_tx(telemetry, link.name, packet.job, 1, wire_size)
            telemetry.set_gauge(
                "link.queue_depth", self._queued_packets, link=link.name
            )

        def deliver() -> None:
            self._queued_packets -= 1
            # ``telemetry`` is captured from send time; the hub is fixed
            # for a simulator's lifetime, so this stays current.
            if telemetry.enabled:
                telemetry.set_gauge(
                    "link.queue_depth", self._queued_packets, link=link.name
                )
                if dropped:
                    telemetry.inc("link.packets_dropped", 1, link=link.name)
            if dropped:
                link.dropped_packets += 1
                return
            device = self._peer_device
            if device is None:  # unattached link: keep the loud error path
                device = self.peer_device
            device.handle_packet(packet, self._peer_end or self.peer)

        sim.schedule_fire_at(arrival, deliver, "deliver")
        return arrival

    def send_train(
        self, train: PacketTrain, ready: Optional[Sequence[float]] = None
    ) -> float:
        """Transmit an unsent train toward the peer as **one** burst.

        This is the batched-transport fast path: all serialization and
        propagation arithmetic happens in one pass over the run's wire
        sizes and a single delivery event fires at the last packet's
        arrival, with the per-packet arrival times carried on the train.
        No packet is built.  Two shapes:

        * ``ready=None`` — an *offered burst*: every packet hits the
          transmit queue right now, exactly like N back-to-back
          :meth:`send` calls in one event (how a worker streams a
          gradient).  The arrival times reproduce the sequential FIFO
          recurrence bit for bit (``np.add.accumulate`` is a strict
          left-to-right float64 sum, matching ``e_k = e_{k-1} + ser_k``).
        * ``ready`` given (non-decreasing, one entry per packet) — a
          *forwarded train*: packet ``i`` reaches this transmitter at
          ``ready[i]`` (its per-packet forwarding event time), so each
          transmission starts at ``max(busy, ready[i])``, again matching
          the per-packet path exactly.

        Fault windows (:mod:`repro.faults`) register *train barriers* —
        future times at which this link's loss model or bandwidth changes.
        A forwarded train straddling a barrier is split there: packets
        whose ready time falls at/after the barrier are re-offered in a
        fresh event at the barrier time, after the fault boundary has
        applied, so they see exactly the link state the per-packet path
        would have.  Offered bursts never split: their per-packet
        equivalent also commits all loss draws and reads the bandwidth in
        a single event at send time.

        A peer that does not react to packets (a plain
        :class:`~repro.netsim.switch.EthernetSwitch`) is handed the train
        in this call, with the arrival times it will have, and no delivery
        event is scheduled: the switch's forwarding queue transmits each
        packet when the clock reaches it.

        Returns the arrival time of the last packet transmitted now (or
        the barrier time when the whole train was deferred).
        """
        link = self.link
        sim = link.sim
        if sim.forwarding is not None:
            sim.forwarding.drain(inclusive=False)
        now = sim.now
        peer = self._peer_device
        # A peer that does not react takes the train now, with its future
        # arrival times, instead of in a delivery event.
        hand_over = peer is not None and not peer.reacts
        if hand_over:
            link.require_lossless()
        barriers = link.train_barriers
        if barriers:
            while barriers and barriers[0] <= now:
                barriers.pop(0)  # boundary already applied this timestamp
            if barriers and ready is not None and ready[-1] >= barriers[0]:
                boundary = barriers[0]
                split = int(np.searchsorted(ready, boundary, side="left"))
                deferred = train[split:]
                deferred_ready = ready[split:]
                sim.schedule_fire_at(
                    boundary,
                    lambda: self.send_train(deferred, deferred_ready),
                    "train-defer",
                )
                if split == 0:
                    return boundary
                train = train[:split]
                ready = ready[:split]
        n = len(train)
        if n == 1 and ready is None and not hand_over:
            return self.send(train.packets[0])
        run = train.run
        train.hops += 1
        serialization = run.wire_sizes * link._seconds_per_byte
        # Python-float view: keeps np.float64 from leaking into
        # ``_busy_until``/``busy_time`` (same IEEE doubles, wrong type for
        # downstream scheduling and stats).
        ser_list = serialization.tolist()
        busy = self._busy_until
        if ready is None:
            # Fold the first start time into element 0, then accumulate:
            # ufunc.accumulate sums strictly left to right, so arr[k]
            # reproduces the sequential e_k = e_{k-1} + ser_k recurrence
            # with identical rounding.
            ends = serialization.copy()
            ends[0] = (busy if busy > now else now) + serialization[0]
            np.add.accumulate(ends, out=ends)
            self._busy_until = float(ends[-1])
        else:
            # Gap-capable recurrence (max against each ready time); plain
            # float loop to preserve the per-packet operation order.
            ends = []
            for r, ser in zip(
                ready.tolist() if isinstance(ready, np.ndarray) else ready,
                ser_list,
            ):
                busy = (busy if busy > r else r) + ser
                ends.append(busy)
            ends = np.array(ends, dtype=np.float64)
            self._busy_until = busy
        busy_time = self.busy_time
        for s in ser_list:
            # Repeated adds (not a multiply): must match the per-packet
            # accumulation bit for bit.
            busy_time += s
        self.busy_time = busy_time
        train.arrivals = arrivals = ends + link.propagation
        total_wire = run.wire_total
        self.tx_packets += n
        self.tx_bytes += total_wire
        telemetry = sim.telemetry
        if telemetry.enabled:
            _record_job_tx(telemetry, link.name, train.job, n, total_wire)
        if hand_over:
            # Through the instance, so a PacketCapture on the peer sees it.
            peer.handle_train(train, self._peer_end)
            return float(arrivals[-1])
        self._queued_packets += n
        # Loss draws, per packet in transmission order — the same rng
        # consumption as N per-packet sends.
        loss_model = link.loss_model
        rng = link.loss_rng
        mask = None
        dropped_count = 0
        if loss_model is not None:
            mask = np.empty(n, dtype=bool)
            for i in range(n):
                mask[i] = loss_model.should_drop(rng)
            dropped_count = int(mask.sum())
        elif link.loss_rate > 0.0:
            rate = link.loss_rate
            mask = np.empty(n, dtype=bool)
            for i in range(n):
                mask[i] = rng.random() < rate
            dropped_count = int(mask.sum())
        if telemetry.enabled:
            telemetry.set_gauge(
                "link.queue_depth", self._queued_packets, link=link.name
            )

        def deliver_train() -> None:
            self._queued_packets -= n
            if telemetry.enabled:
                telemetry.set_gauge(
                    "link.queue_depth", self._queued_packets, link=link.name
                )
                if dropped_count:
                    telemetry.inc(
                        "link.packets_dropped", dropped_count, link=link.name
                    )
            if not dropped_count:
                self._deliver_train(train)
                return
            link.dropped_packets += dropped_count
            if dropped_count == n:
                sim.count_batched(n - 1, "deliver")
                return
            survivors = train.carrying(PacketRun(
                [packet for packet, gone in zip(train.packets, mask) if not gone]
            ))
            survivors.arrivals = arrivals[~mask]
            self._deliver_train(survivors, dropped_count)

        last_arrival = float(arrivals[-1])
        sim.schedule_fire_at(last_arrival, deliver_train, "deliver")
        return last_arrival

    def _deliver_train(self, train: PacketTrain, lost: int = 0) -> None:
        """A train's one delivery event: the peer gets every packet that
        survived, each with its own arrival time.

        Each packet's delivery was one event on the per-packet path (the
        ``lost`` ones included); the physical event already counts 1.
        """
        self.link.sim.count_batched(len(train) + lost - 1, "deliver")
        device = self._peer_device
        if device is None:  # unattached link: keep the loud error path
            device = self.peer_device
        device.handle_train(train, self._peer_end or self.peer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        owner = self.device.name if self.device else "?"
        return f"LinkEnd({owner} on {self.link.name})"


class Link:
    """A bidirectional link with symmetric bandwidth and propagation delay.

    ``loss_rate`` injects independent per-packet drops (for the
    loss-recovery tests; the paper notes packet loss "is uncommon in the
    cluster environment" — the default is lossless).

    ``loss_seed`` seeds the link-private ``loss_rng``; with the same
    topology, seed and traffic, the exact same packets drop on every
    run.  ``loss_model`` (normally ``None``) may be set to a
    :class:`GilbertElliott` instance to switch this link to correlated
    burst loss; while set it takes precedence over ``loss_rate``.  Both
    knobs may also be mutated mid-run — the fault injector uses this for
    timed loss windows and bandwidth-degradation windows (``bandwidth``
    is read per-send, so changes apply to subsequent transmissions
    only).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = 10 * GBPS,
        propagation: float = DEFAULT_PROPAGATION,
        name: str = "",
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        if propagation < 0:
            raise ValueError(f"propagation must be >= 0, got {propagation}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.name = name or f"link{id(self):x}"
        self.loss_rate = loss_rate
        self.loss_rng = np.random.default_rng(loss_seed)
        #: Optional :class:`GilbertElliott`; overrides ``loss_rate`` when set.
        self.loss_model: Optional[GilbertElliott] = None
        self.dropped_packets = 0
        #: Future times at which this link's properties change (fault
        #: window edges), kept sorted.  Forwarded trains split here — see
        #: :meth:`LinkEnd.send_train`.  Mutating ``bandwidth`` or the loss
        #: knobs mid-run *without* registering a barrier is still legal,
        #: but in-flight trains then keep the state they were computed
        #: with.  Nothing registers barriers today: fault plans run on the
        #: per-packet transport (``choose_transport``).
        self.train_barriers: List[float] = []
        self.ends = (LinkEnd(self, 0), LinkEnd(self, 1))

    def require_lossless(self) -> None:
        """Raise unless this link drops nothing: a train forwarded without
        events (:class:`~repro.netsim.switch.ForwardingQueue`) draws no
        losses, and skipping the draws silently would be a different run."""
        if self.loss_model is not None or self.loss_rate > 0.0:
            raise ValueError(
                f"{self.name}: trains forwarded without events draw no "
                "losses; a lossy link needs the per-packet transport (a "
                "simulator with no forwarding queue)"
            )

    def add_train_barrier(self, time: float) -> None:
        """Register a future property-change instant for train splitting."""
        insort(self.train_barriers, time)

    @property
    def bandwidth(self) -> float:
        """Link rate in bits per second.  Assignable mid-run (fault windows)."""
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"bandwidth must be positive, got {value}")
        self._bandwidth = value
        # Serialization works in bytes; cache the per-byte cost so the
        # per-packet send path does one multiply instead of a division.
        self._seconds_per_byte = 8.0 / value

    def attach(self, device0: "Device", device1: "Device") -> None:
        """Wire the two ends to their devices and register the ports."""
        for end, device in zip(self.ends, (device0, device1)):
            end.device = device
            device.register_port(end)
        end0, end1 = self.ends
        end0._peer_end, end0._peer_device = end1, device1
        end1._peer_end, end1._peer_device = end0, device0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name}, {self.bandwidth / GBPS:g} Gb/s)"
