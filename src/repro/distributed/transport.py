"""Vector transport for the baseline strategies (PS push/pull, AllReduce).

The baselines exchange whole gradient/weight vectors as UDP flows.  A
flow of ``wire_bytes`` is carried as chunk packets whose byte counts
exactly match per-frame framing; the *data* (a NumPy vector) rides in the
final chunk, since the simulated network never reorders a FIFO flow and
never corrupts payloads.  A flow is one :class:`VectorRun` — the chunk
geometry plus the data, once — and its packets are built only for whoever
asks.  (iSwitch traffic instead uses the per-segment protocol in
:mod:`repro.core.protocol`, where packet-level slicing is semantically
load-bearing.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..netsim.node import Host
from ..netsim.packets import (
    MAX_UDP_PAYLOAD,
    PER_FRAME_OVERHEAD,
    TOS_DEFAULT,
    Packet,
    PacketTrain,
)

__all__ = ["VECTOR_PORT", "VectorChunk", "VectorRun", "send_vector", "VectorReceiver"]

VECTOR_PORT = 7777


@dataclass
class VectorChunk:
    """One chunk of a vector flow; ``data`` is set on the last chunk only."""

    tag: Any
    index: int
    total: int
    data: Optional[np.ndarray] = None
    meta: Any = None
    #: UDP payload bytes and frames, stamped by the run it comes from.
    wire_payload: Optional[int] = None
    wire_frames: Optional[int] = None


class _Shapes(list):
    """``[(payload, frames), ...]`` of one flow, plus the columns a
    :class:`VectorRun` reads: ``wire_sizes`` (bytes on the wire, headers
    included; read-only float64) and ``cumulative``, their running total."""

    def __init__(self, shapes) -> None:
        super().__init__(shapes)
        wire = [frames * PER_FRAME_OVERHEAD + payload for payload, frames in self]
        self.wire_sizes = np.array(wire, dtype=np.float64)
        self.wire_sizes.flags.writeable = False
        self.cumulative = [0, *itertools.accumulate(wire)]


@lru_cache(maxsize=256)
def _chunk_shapes(wire_bytes: int, max_chunks: int) -> _Shapes:
    """Split ``wire_bytes`` into <= max_chunks (payload, frame_count) trains.

    Pure, and asked the same few questions thousands of times a run:
    memoised, so what it returns is shared — read it, do not change it.
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
    return _Shapes(shapes)


@dataclass(slots=True, eq=False)
class VectorRun:
    """Chunks ``[lo, hi)`` of one vector flow as one object: the flow's
    geometry (:func:`_chunk_shapes`, shared by every flow of its size) plus
    ``tag``, ``data`` and ``meta``, stored once.  :class:`VectorChunk`
    payloads are built only for whoever asks (:meth:`chunks`)."""

    shapes: _Shapes
    lo: int
    hi: int
    tag: Any
    data: Optional[np.ndarray] = None
    meta: Any = None

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, part: slice) -> "VectorRun":
        """Chunks ``[a, b)`` of this run — still a run (a barrier split)."""
        a, b, step = part.indices(self.hi - self.lo)
        if step != 1 or b <= a:
            raise ValueError(f"a run is cut into contiguous runs, got {part}")
        return VectorRun(
            self.shapes, self.lo + a, self.lo + b, self.tag, self.data, self.meta
        )

    # What :class:`repro.netsim.packets.PacketTrain` reads of its run.
    def packets(self, header: PacketTrain) -> List[Packet]:
        """Its packets under a train's ``header``, built now."""
        return header.stamped(self.chunks())

    @property
    def wire_sizes(self) -> np.ndarray:
        """Per-chunk bytes on the wire, headers included (float64)."""
        return self.shapes.wire_sizes[self.lo : self.hi]

    @property
    def wire_total(self) -> int:
        cumulative = self.shapes.cumulative
        return cumulative[self.hi] - cumulative[self.lo]

    def chunks(self) -> List[VectorChunk]:
        """Its wire-stamped chunks; the last of the flow carries the data."""
        total = len(self.shapes)
        chunks = [
            VectorChunk(self.tag, index, total, None, None, *self.shapes[index])
            for index in range(self.lo, self.hi)
        ]
        if self.hi == total:
            chunks[-1].data, chunks[-1].meta = self.data, self.meta
        return chunks


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
    train = PacketTrain(
        VectorRun(shapes, 0, len(shapes), tag, vector, meta),
        host.name, dst, TOS_DEFAULT, port,
    )
    if host.sim.batch_transport:
        host.send_burst(train)
    else:
        for packet in train.packets:
            host.send(packet)
    return len(shapes)


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
        """A train delivered in one event: normally one whole flow's run,
        which completes here without counting chunks; anything else (part
        of a flow, packets built elsewhere) is counted chunk by chunk."""
        run = train.run
        if (
            isinstance(run, VectorRun)
            and len(run) == len(run.shapes)
            and (train.src, run.tag) not in self._progress
        ):
            self.on_vector(train.src, run.tag, run.data, run.meta)
            return
        for packet in train.packets:
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
