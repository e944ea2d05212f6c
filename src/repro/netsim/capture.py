"""Packet capture: a pcap-style tracer for simulated devices.

Attach a :class:`PacketCapture` to any device to record the packets it
receives (optionally filtered), for debugging and for the experiments
that reason about traffic composition — e.g. verifying that iSwitch
control traffic is negligible next to gradient data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .node import Device
from .packets import Packet

__all__ = ["CapturedPacket", "PacketCapture"]

PacketFilter = Callable[[Packet], bool]


@dataclass(frozen=True)
class CapturedPacket:
    """One trace record (sizes in wire bytes, time in seconds)."""

    time: float
    src: str
    dst: str
    tos: int
    dst_port: int
    wire_size: int
    payload_size: int
    frame_count: int


class PacketCapture:
    """Records packets arriving at a device.

    Wraps the device's ``handle_packet`` — the capture sees exactly what
    the device sees, in order, including packets the device then drops.
    """

    def __init__(
        self,
        device: Device,
        packet_filter: Optional[PacketFilter] = None,
        max_records: Optional[int] = None,
    ) -> None:
        self.device = device
        self.packet_filter = packet_filter
        self.max_records = max_records
        self.records: List[CapturedPacket] = []
        self.dropped_records = 0
        self._inner = device.handle_packet
        device.handle_packet = self._tap  # type: ignore[method-assign]
        self._inner_train = device.handle_train
        if device.reacts:
            device.handle_train = self._tap_train  # type: ignore[method-assign]
        else:
            # A plain switch forwards trains without delivery events; the
            # forwarding queue reports each one as it books it.
            device.train_tap = self._record_train

    def _record(self, packet: Packet, time: float) -> None:
        if self.packet_filter is None or self.packet_filter(packet):
            if self.max_records is None or len(self.records) < self.max_records:
                self.records.append(
                    CapturedPacket(
                        time=time,
                        src=packet.src,
                        dst=packet.dst,
                        tos=packet.tos,
                        dst_port=packet.dst_port,
                        wire_size=packet.wire_size,
                        payload_size=packet.payload_size,
                        frame_count=packet.frame_count,
                    )
                )
            else:
                self.dropped_records += 1

    def _tap(self, packet: Packet, in_port) -> None:
        self._record(packet, self.device.sim.now)
        self._inner(packet, in_port)

    def _tap_train(self, train, in_port) -> None:
        self._record_train(train.packets, train.arrivals)
        self._inner_train(train, in_port)

    def _record_train(self, packets, arrivals) -> None:
        # Batched transport delivers the whole train in one event at the
        # last arrival; the trace records each packet at its *carried*
        # per-packet arrival so captures are transport-independent.
        for packet, arrival in zip(packets, arrivals):
            self._record(packet, float(arrival))

    def detach(self) -> None:
        """Stop capturing and restore the device's original handler."""
        self.device.handle_packet = self._inner  # type: ignore[method-assign]
        if self.device.reacts:
            self.device.handle_train = self._inner_train  # type: ignore[method-assign]
        else:
            self.device.train_tap = None

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        return sum(r.wire_size for r in self.records)

    def by_tos(self) -> dict:
        """Wire bytes per ToS value."""
        out: dict = {}
        for record in self.records:
            out[record.tos] = out.get(record.tos, 0) + record.wire_size
        return out

    def between(self, start: float, stop: float) -> List[CapturedPacket]:
        return [r for r in self.records if start <= r.time < stop]

    def __len__(self) -> int:
        return len(self.records)
