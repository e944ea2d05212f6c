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
    created_at: Optional[float] = None
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
            created_at=self.created_at,
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
        p.created_at = None
        p.wire_size = frame_count * PER_FRAME_OVERHEAD + payload_size
        return p

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet(#{self.packet_id} {self.src}->{self.dst} "
            f"{self.payload_size}B tos={self.tos})"
        )


class PacketTrain:
    """A burst of same-destination packets delivered as **one** event.

    The batched transport path (:meth:`repro.netsim.link.LinkEnd.send_train`)
    computes every packet's arrival time in one vectorized expression and
    schedules a single delivery at the last arrival.  The train carries the
    per-packet arrival times (``arrivals[i]`` is exactly the time packet
    ``i``'s own delivery event would have fired on the per-packet path), so
    consumers that care about per-packet timing — on-the-fly aggregation,
    store-and-forward switches, packet capture — stay timestamp-accurate.

    A train is a list of packets, or a *header and arrays*: the fields all
    packets of one flow share (``src``, ``dst``, ``tos``, ``port``, ``job``,
    ``hops``, ``created_at``) plus a ``run`` that states the rest —
    ``len(run)``, ``run[a:b]``, ``run.wire_sizes`` (float64 array),
    ``run.wire_total`` and ``run.segments()``, the packets' payloads, each
    with its ``wire_payload`` and ``wire_frames``.  :attr:`packets` builds
    such a train's packets on first use, for whoever needs the objects.

    Invariants: ``len(train) == len(arrivals) >= 1`` once sent, and
    ``arrivals`` is sorted ascending (link FIFO order).  All packets share
    one destination device; dropped packets are removed before the train
    is handed to it.
    """

    __slots__ = (
        "_packets", "arrivals", "run",
        "src", "dst", "tos", "port", "job", "hops", "created_at",
    )

    def __init__(
        self, packets: Optional[List[Packet]] = None, arrivals=None, *,
        run=None, src: str = "", dst: str = "", tos: int = TOS_DEFAULT,
        port: int = 0, job: int = 0,
    ) -> None:
        if run is None:
            if arrivals is not None and len(packets) != len(arrivals):
                raise ValueError(
                    f"train has {len(packets)} packets but "
                    f"{len(arrivals)} arrival times"
                )
            if not packets:
                raise ValueError("a train carries at least one packet")
        self._packets = packets
        #: Per-packet receiver-side arrival times (float64 ndarray), once
        #: the train has been transmitted.
        self.arrivals = arrivals
        self.run = run
        self.src, self.dst, self.tos, self.port, self.job = src, dst, tos, port, job
        self.hops = 0
        #: When a run's packets entered their first transmit queue: one
        #: time for an offered burst, one per packet for a forwarded train.
        self.created_at = None

    @property
    def packets(self) -> List[Packet]:
        if self._packets is None:
            created = self.created_at
            if created is None or isinstance(created, float):
                created = [created] * len(self.run)
            self._packets = []
            for payload, stamp in zip(self.run.segments(), created):
                packet = Packet.trusted(
                    self.src, self.dst, payload.wire_payload, self.tos, payload,
                    self.port, self.port, payload.wire_frames, self.job,
                )
                packet.hops = self.hops
                packet.created_at = None if stamp is None else float(stamp)
                self._packets.append(packet)
        return self._packets

    def __len__(self) -> int:
        return len(self.run) if self._packets is None else len(self._packets)

    def __getitem__(self, part: slice) -> "PacketTrain":
        """Packets ``[a, b)`` of a train not yet sent, in the same form."""
        if self._packets is not None:
            return PacketTrain(self._packets[part])
        return PacketTrain(
            run=self.run[part], src=self.src, dst=self.dst, tos=self.tos,
            port=self.port, job=self.job,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PacketTrain({len(self)}p, arrivals={self.arrivals})"
