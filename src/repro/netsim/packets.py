"""Packet model: Ethernet / IP / UDP framing with byte-accurate sizes.

The simulator is *packet level*: a :class:`Packet` is the unit that crosses
links and switches.  Header sizes follow standard wire formats so that
serialization delay over a 10 GbE link matches what the paper's testbed
would see:

=====================  =====
Component              Bytes
=====================  =====
Ethernet header + FCS     18
802.1Q VLAN tag            4
IP header                 20
UDP header                 8
Max Ethernet frame      1522   (paper §3.2: "typically 1,522 bytes")
MTU (IP payload)        1500
=====================  =====

The iSwitch protocol (see :mod:`repro.core.protocol`) rides in the UDP
payload and tags packets through the IP **ToS** byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

__all__ = [
    "ETHERNET_OVERHEAD",
    "VLAN_TAG",
    "IP_HEADER",
    "UDP_HEADER",
    "MAX_FRAME",
    "MTU",
    "MAX_UDP_PAYLOAD",
    "TOS_DEFAULT",
    "PER_FRAME_OVERHEAD",
    "Packet",
    "PacketTrain",
    "PacketRun",
]

ETHERNET_OVERHEAD = 18  # 14-byte header + 4-byte FCS
VLAN_TAG = 4
IP_HEADER = 20
UDP_HEADER = 8
MAX_FRAME = 1522  # max 802.1Q Ethernet frame, as quoted in the paper
MTU = 1500  # max IP packet carried in one frame
MAX_UDP_PAYLOAD = MTU - IP_HEADER - UDP_HEADER  # 1472 bytes

TOS_DEFAULT = 0

#: Header bytes added per Ethernet frame (Ethernet + FCS, VLAN, IP, UDP).
PER_FRAME_OVERHEAD = ETHERNET_OVERHEAD + VLAN_TAG + IP_HEADER + UDP_HEADER

_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One UDP/IP/Ethernet packet.

    ``payload_size`` counts only the UDP payload bytes; :attr:`wire_size`
    adds all header overheads.  A packet may represent a **train** of
    ``frame_count`` back-to-back Ethernet frames from the same flow: the
    wire size then includes one set of headers per frame, so serialization
    delay is exactly that of the individual frames sent back to back.
    Trains exist purely to keep event counts tractable when simulating
    multi-megabyte gradient vectors; with ``frame_count=1`` (the default)
    the model is strictly per-frame.

    ``payload`` carries an arbitrary Python object (e.g. a NumPy slice of
    gradient data, or a control message).  The simulator never serializes
    it — sizes are explicit so timing stays byte-accurate without the cost
    of real encoding.
    """

    src: str
    dst: str
    payload_size: int
    tos: int = TOS_DEFAULT
    payload: Any = None
    src_port: int = 0
    dst_port: int = 0
    frame_count: int = 1
    #: Training-job id this packet belongs to (0 = the default job, which
    #: also covers non-aggregation traffic).  Multi-tenant runs stamp the
    #: originating job so per-job telemetry can attribute link traffic.
    job: int = 0
    packet_id: int = field(default_factory=_packet_ids.__next__)
    hops: int = 0
    #: Total bytes on the wire, headers included (per-frame overheads).
    #: Precomputed: the link layer reads it once per hop and neither
    #: ``payload_size`` nor ``frame_count`` changes after construction.
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError(f"negative payload size: {self.payload_size}")
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        if self.payload_size > self.frame_count * MAX_UDP_PAYLOAD:
            raise ValueError(
                f"payload of {self.payload_size} B does not fit in "
                f"{self.frame_count} frame(s) "
                f"({self.frame_count * MAX_UDP_PAYLOAD} B max); "
                "fragmentation is not modelled"
            )
        if not 0 <= self.tos <= 255:
            raise ValueError(f"ToS must be one byte, got {self.tos}")
        self.wire_size = self.frame_count * PER_FRAME_OVERHEAD + self.payload_size

    def copy_for(self, dst: str) -> "Packet":
        """Clone this packet for a new destination (used by broadcast).

        The clone gets a fresh ``packet_id`` but shares the payload object;
        callers that mutate payloads must copy them explicitly.
        """
        return Packet(
            src=self.src,
            dst=dst,
            payload_size=self.payload_size,
            tos=self.tos,
            payload=self.payload,
            src_port=self.src_port,
            dst_port=self.dst_port,
            frame_count=self.frame_count,
            job=self.job,
            hops=self.hops,
        )

    @classmethod
    def trusted(
        cls,
        src: str,
        dst: str,
        payload_size: int,
        tos: int,
        payload: Any,
        src_port: int,
        dst_port: int,
        frame_count: int,
        job: int,
    ) -> "Packet":
        """Validation-free constructor for callers whose sizes come from an
        already-validated :class:`~repro.core.protocol.SegmentPlan`.

        Per-packet construction dominates the batched transport path;
        skipping ``__post_init__`` here is safe because the plan guarantees
        the payload fits its frames and the ToS values are module
        constants.
        """
        p = object.__new__(cls)
        p.src = src
        p.dst = dst
        p.payload_size = payload_size
        p.tos = tos
        p.payload = payload
        p.src_port = src_port
        p.dst_port = dst_port
        p.frame_count = frame_count
        p.job = job
        p.packet_id = next(_packet_ids)
        p.hops = 0
        p.wire_size = frame_count * PER_FRAME_OVERHEAD + payload_size
        return p

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet(#{self.packet_id} {self.src}->{self.dst} "
            f"{self.payload_size}B tos={self.tos})"
        )


class PacketTrain:
    """A burst of packets of one flow, delivered as **one** event.

    The batched transport path (:meth:`repro.netsim.link.LinkEnd.send_train`)
    computes every packet's arrival time in one vectorized expression and
    schedules a single delivery at the last arrival.  The train carries the
    per-packet arrival times (``arrivals[i]`` is exactly the time packet
    ``i``'s own delivery event would have fired on the per-packet path), so
    consumers that care about per-packet timing — on-the-fly aggregation,
    store-and-forward switches, packet capture — stay timestamp-accurate.

    A train is a header — what its packets share: ``src``, ``dst``,
    ``tos``, ``port`` (source and destination), ``job``, ``hops`` — plus a
    ``run`` that states the rest: ``len(run)``, ``run[a:b]``,
    ``run.wire_sizes`` (float64), ``run.wire_total`` and
    ``run.packets(header)``.  The run is a gradient's
    :class:`~repro.core.protocol.SegmentRun`, a baseline vector's
    :class:`~repro.distributed.transport.VectorRun`, or a :class:`PacketRun`
    of packets already built (:meth:`of`); :attr:`packets` builds the
    packets whenever someone asks (a capture, a per-packet handler).

    Invariants: ``len(train) == len(arrivals) >= 1`` once sent, and
    ``arrivals`` is sorted ascending (link FIFO order).  Dropped packets
    are removed before the train is handed to its destination.
    """

    __slots__ = ("run", "arrivals", "src", "dst", "tos", "port", "job", "hops")

    def __init__(
        self, run, src: str, dst: str, tos: Optional[int] = TOS_DEFAULT,
        port: Optional[int] = 0, job: int = 0, hops: int = 0,
    ) -> None:
        self.run = run
        self.src, self.dst, self.tos, self.port, self.job = src, dst, tos, port, job
        self.hops = hops
        #: Per-packet receiver-side arrival times (float64 ndarray), once
        #: the train has been transmitted.
        self.arrivals = None

    @classmethod
    def of(cls, packets: List[Packet]) -> "PacketTrain":
        """Packets already built, for one destination and one job, as a
        train.  A ToS or port they do not share is ``None`` in the header:
        no handler keyed on it takes the train whole."""
        run = PacketRun(packets)
        first = packets[0]
        train = cls(
            run, first.src, first.dst, first.tos, first.dst_port, first.job,
            first.hops,
        )
        for packet in packets:
            if (packet.dst, packet.job) != (first.dst, first.job):
                raise ValueError(
                    f"a train has one destination and one job: {packet!r} "
                    f"after {first!r}"
                )
            if packet.tos != first.tos:
                train.tos = None
            if packet.dst_port != first.dst_port:
                train.port = None
        return train

    def carrying(self, run) -> "PacketTrain":
        """A train not yet sent with this header over ``run``."""
        return PacketTrain(
            run, self.src, self.dst, self.tos, self.port, self.job, self.hops
        )

    @property
    def packets(self) -> List[Packet]:
        return self.run.packets(self)

    def stamped(self, payloads) -> List[Packet]:
        """Packets under this header, one per payload stamped with its
        ``wire_payload`` bytes and ``wire_frames``."""
        packets = []
        for payload in payloads:
            packet = Packet.trusted(
                self.src, self.dst, payload.wire_payload, self.tos, payload,
                self.port, self.port, payload.wire_frames, self.job,
            )
            packet.hops = self.hops
            packets.append(packet)
        return packets

    def __len__(self) -> int:
        return len(self.run)

    def __getitem__(self, part: slice) -> "PacketTrain":
        """Packets ``[a, b)`` of a train not yet sent."""
        return self.carrying(self.run[part])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PacketTrain({len(self)}p, arrivals={self.arrivals})"


class PacketRun:
    """Packets already built, as a run: a lone packet toward a plain
    switch, the survivors of a lossy link, an iSwitch's results out of Seg
    order."""

    __slots__ = ("_packets", "wire_sizes", "wire_total")

    def __init__(self, packets: List[Packet]) -> None:
        if not packets:
            raise ValueError("a train carries at least one packet")
        self._packets = packets
        sizes = [packet.wire_size for packet in packets]
        self.wire_sizes = np.array(sizes, dtype=np.float64)
        self.wire_total = sum(sizes)

    def __len__(self) -> int:
        return len(self._packets)

    def __getitem__(self, part: slice) -> "PacketRun":
        return PacketRun(self._packets[part])

    def packets(self, header: PacketTrain) -> List[Packet]:
        """The packets themselves, with the links their train crossed."""
        for packet in self._packets:
            packet.hops = header.hops
        return self._packets
