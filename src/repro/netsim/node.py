"""Devices: the base class plus the end-host model.

A :class:`Device` is anything a link can attach to.  :class:`Host` models a
server with a single NIC; the switches live in
:mod:`repro.netsim.switch` and :mod:`repro.core.switch`.

Hosts dispatch received packets to *protocol handlers* registered by UDP
destination port, which is how the distributed-training strategies layer
their traffic over the simulated network.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .events import Simulator
from .link import LinkEnd
from .packets import Packet, PacketTrain

__all__ = ["Device", "Host", "PacketHandler", "TrainHandler"]

PacketHandler = Callable[[Packet], None]
TrainHandler = Callable[[PacketTrain], None]


class Device:
    """Base class for anything attached to links."""

    #: Whether what this device does with a packet can depend on when it
    #: arrives and on what else has: such a device needs a delivery event.
    #: A plain store-and-forward switch does not react — every departure
    #: is fixed by the arrivals — so trains bound for one are handed over
    #: ahead of time (:class:`repro.netsim.switch.ForwardingQueue`).
    reacts = True

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[LinkEnd] = []
        self.rx_packets = 0
        self.rx_bytes = 0

    def register_port(self, port: LinkEnd) -> None:
        """Called by :meth:`Link.attach` when a link is wired to us."""
        self.ports.append(port)

    def handle_packet(self, packet: Packet, in_port: LinkEnd) -> None:
        """Receive one packet from a link.  Subclasses must override."""
        raise NotImplementedError

    def handle_train(self, train: PacketTrain, in_port: LinkEnd) -> None:
        """Receive a packet train in one call (batched transport).

        The base implementation unrolls to :meth:`handle_packet`; devices
        with a cheaper batch path (hosts, switches) override it.
        """
        for packet in train.packets:
            self.handle_packet(packet, in_port)

    def _count_rx(self, packet: Packet) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.wire_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class Host(Device):
    """An end host (worker or parameter-server node) with one NIC.

    Outbound packets always use the single uplink.  Inbound packets are
    dispatched by UDP destination port; a default handler catches the rest.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._handlers: Dict[int, PacketHandler] = {}
        self._train_handlers: Dict[int, TrainHandler] = {}
        self._default_handler: Optional[PacketHandler] = None
        self._uplink: Optional[LinkEnd] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def uplink(self) -> LinkEnd:
        if self._uplink is None:
            raise RuntimeError(f"host {self.name} has no link attached")
        return self._uplink

    def register_port(self, port: LinkEnd) -> None:
        if self.ports:
            raise RuntimeError(
                f"host {self.name} already has a NIC; hosts are single-homed"
            )
        super().register_port(port)
        self._uplink = port

    # ------------------------------------------------------------------
    # Protocol dispatch
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: PacketHandler) -> None:
        """Register ``handler`` for packets whose UDP dst port is ``port``."""
        if port in self._handlers:
            raise ValueError(f"port {port} already bound on {self.name}")
        self._handlers[port] = handler

    def unbind(self, port: int) -> None:
        self._handlers.pop(port, None)
        self._train_handlers.pop(port, None)

    def bind_default(self, handler: PacketHandler) -> None:
        """Register the catch-all handler for unbound ports."""
        self._default_handler = handler

    def bind_train(self, port: int, handler: TrainHandler) -> None:
        """Register a whole-train handler for UDP dst port ``port``.

        Complements :meth:`bind` (which must also be bound for the port):
        when a :class:`PacketTrain` for ``port`` arrives, the train handler
        gets it in one call; a train whose packets target several ports
        and individual packets go to the per-packet handlers.
        """
        self._train_handlers[port] = handler

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> float:
        """Transmit a packet out of the NIC; returns the link-arrival time."""
        uplink = self._uplink
        if uplink is None:
            raise RuntimeError(f"host {self.name} has no link attached")
        return uplink.send(packet)

    def send_burst(self, train: PacketTrain) -> float:
        """Offer an unsent train to the NIC: what one :meth:`send` per
        packet, all in this event, puts on the wire."""
        uplink = self._uplink
        if uplink is None:
            raise RuntimeError(f"host {self.name} has no link attached")
        return uplink.send_train(train)

    def handle_packet(self, packet: Packet, in_port: LinkEnd) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.wire_size
        handler = self._handlers.get(packet.dst_port, self._default_handler)
        if handler is not None:
            handler(packet)
        # Packets with no handler are dropped silently, like a closed UDP
        # socket; tests assert on rx counters to detect misrouting.

    def handle_train(self, train: PacketTrain, in_port: LinkEnd) -> None:
        self.rx_packets += len(train)
        self.rx_bytes += train.run.wire_total
        train_handler = self._train_handlers.get(train.port)
        if train_handler is not None:
            train_handler(train)
            return
        default = self._default_handler
        handlers = self._handlers
        for packet in train.packets:
            handler = handlers.get(packet.dst_port, default)
            if handler is not None:
                handler(packet)
