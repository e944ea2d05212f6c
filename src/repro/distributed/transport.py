"""Vector transport for the baseline strategies (PS push/pull, AllReduce).

The baselines exchange whole gradient/weight vectors as UDP flows.  A
flow of ``wire_bytes`` is carried as a train of chunk packets whose byte
counts exactly match per-frame framing; the *data* (a NumPy vector)
rides in the final chunk, since the simulated network never reorders a
FIFO flow and never corrupts payloads.  (iSwitch traffic instead uses the
per-segment protocol in :mod:`repro.core.protocol`, where packet-level
slicing is semantically load-bearing.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..netsim.node import Host
from ..netsim.packets import MAX_UDP_PAYLOAD, TOS_DEFAULT, Packet, PacketTrain

__all__ = ["VECTOR_PORT", "VectorChunk", "send_vector", "VectorReceiver"]

VECTOR_PORT = 7777


@dataclass
class VectorChunk:
    """One chunk of a vector flow; ``data`` is set on the last chunk only."""

    tag: Any
    index: int
    total: int
    data: Optional[np.ndarray] = None
    meta: Any = None


@lru_cache(maxsize=256)
def _chunk_shapes(wire_bytes: int, max_chunks: int) -> List[Tuple[int, int]]:
    """Split ``wire_bytes`` into <= max_chunks (payload, frame_count) trains.

    Pure, and asked the same few questions thousands of times a run:
    memoised, so the list it returns is shared — read it, do not change it.
    """
    n_frames = max(1, math.ceil(wire_bytes / MAX_UDP_PAYLOAD))
    frames_per_chunk = max(1, math.ceil(n_frames / max_chunks))
    shapes = []
    remaining_bytes = wire_bytes
    remaining_frames = n_frames
    while remaining_frames > 0:
        frames = min(frames_per_chunk, remaining_frames)
        payload = min(remaining_bytes, frames * MAX_UDP_PAYLOAD)
        shapes.append((payload, frames))
        remaining_bytes -= payload
        remaining_frames -= frames
    return shapes


def send_vector(
    host: Host,
    dst: str,
    tag: Any,
    vector: Optional[np.ndarray],
    wire_bytes: int,
    port: int = VECTOR_PORT,
    max_chunks: int = 64,
    meta: Any = None,
) -> int:
    """Stream one vector of ``wire_bytes`` from ``host`` to ``dst``.

    Returns the number of chunk packets sent.  ``vector`` may be ``None``
    for pure-timing flows (e.g. emulated scalability runs).
    """
    if wire_bytes < 1:
        raise ValueError(f"wire_bytes must be >= 1, got {wire_bytes}")
    if max_chunks < 1:
        raise ValueError(f"max_chunks must be >= 1, got {max_chunks}")
    shapes = _chunk_shapes(wire_bytes, max_chunks)
    total = len(shapes)
    src = host.name
    # Shapes from _chunk_shapes fit their frames by construction.
    packets = [
        Packet.trusted(
            src, dst, payload_size, TOS_DEFAULT,
            VectorChunk(tag, index, total),
            port, port, frames, 0,
        )
        for index, (payload_size, frames) in enumerate(shapes)
    ]
    last = packets[-1].payload
    last.data, last.meta = vector, meta
    if host.sim.batch_transport:
        host.send_burst(packets)
    else:
        for packet in packets:
            host.send(packet)
    return total


class VectorReceiver:
    """Reassembles vector flows on a host port and fires a callback.

    The callback signature is ``(src, tag, vector, meta)`` and fires when
    the last chunk of a flow lands.
    """

    def __init__(
        self,
        host: Host,
        on_vector: Callable[[str, Any, Optional[np.ndarray], Any], None],
        port: int = VECTOR_PORT,
    ) -> None:
        self.host = host
        self.on_vector = on_vector
        self._progress: Dict[Tuple[str, Any], int] = {}
        host.bind(port, self._receive)
        host.bind_train(port, self._receive_train)

    def _receive_train(self, train: PacketTrain) -> None:
        """A train delivered in one event: normally one whole flow, which
        completes here without counting chunks; anything else (part of a
        flow, several flows, a stray payload) is counted chunk by chunk."""
        packets = train.packets
        first, last = packets[0], packets[-1]
        head, tail = first.payload, last.payload
        if (
            isinstance(head, VectorChunk)
            and isinstance(tail, VectorChunk)
            and head.index == 0
            and tail.index == tail.total - 1 == len(packets) - 1
            and (first.src, head.tag) == (last.src, tail.tag)
            and (last.src, tail.tag) not in self._progress
        ):
            self.on_vector(last.src, tail.tag, tail.data, tail.meta)
            return
        for packet in packets:
            self._receive(packet)

    def _receive(self, packet: Packet) -> None:
        chunk = packet.payload
        if not isinstance(chunk, VectorChunk):
            raise TypeError(
                f"{self.host.name}: expected VectorChunk, got "
                f"{type(chunk).__name__}"
            )
        key = (packet.src, chunk.tag)
        received = self._progress.get(key, 0) + 1
        if received < chunk.total:
            self._progress[key] = received
            return
        self._progress.pop(key, None)
        self.on_vector(packet.src, chunk.tag, chunk.data, chunk.meta)
