"""Live sync-PS baselines: parameter-server processes over loopback UDP.

The PS baseline is host-level networking, so it speaks the minimal
host-level framing of DESIGN §9.4 (``J``/``A``/``G``/``U``/``D``/``H``/
``L``), not :mod:`repro.core.protocol`.  A :class:`PsServer` sums each
``(round, chunk)`` with :class:`repro.core.baselines.RoundSums` — in
float64 rank order once all ``N`` contributions arrived — the store the
simulator folds every host-level round with, so ps and ps-shard agree
with the simulator by construction.

**ps is ps-shard with one shard.**  The parameter space is split into K
contiguous element ranges, each summed by a stock :class:`PsServer`, so
sharding lives entirely in :class:`LiveShardWorker`: it routes each
shard's slice to that shard's address and reassembles the K float64
slices, telling responses apart by source address.  It joins all K
shards at once and trains once every shard's go arrived.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.baselines import RoundSums
from ..rl.base import Algorithm
from .driver import (
    CHUNK_ELEMS,
    Frames,
    LiveWorkerBase,
    MemberServer,
    chunk_payload,
    shard_ranges,
    split_chunks,
)
from .transport import Address

__all__ = ["HostServer", "PsServer", "LiveShardWorker"]

JOIN_BODY = struct.Struct("<BI")  # rank, n_elements
_UP_HEADER = struct.Struct("<BII")  # rank, round, chunk
_DOWN_HEADER = struct.Struct("<II")  # round, chunk


class HostServer(MemberServer):
    """Frame dispatch shared by the host-level servers (sync and async PS).

    ``n_elements`` is the length of the vector (or shard slice) this
    server owns; while it is ``None`` the first Join fixes it.  Every
    Join must agree with it, so every gradient chunk can be
    length-checked.
    """

    def __init__(self, n_workers: int, loss_rate: float, loss_seed: int) -> None:
        super().__init__(n_workers, loss_rate, loss_seed, ack=b"A", go=b"G")
        self.n_elements: Optional[int] = None
        self.counters.update(duplicates_dropped=0, resends_served=0)

    def handle_frame(self, frame: bytes, addr: Address) -> Frames:
        self.counters["frames_rx"] += 1
        tag = frame[:1]
        try:
            if tag == b"J":
                rank, n_elements = JOIN_BODY.unpack_from(frame, 1)
                if self.n_elements is None:
                    self.n_elements = n_elements
                if n_elements != self.n_elements:
                    raise ValueError("join with mismatched model geometry")
                return self._admit(rank, addr)
            rank = self._rank_of(addr)
            if rank is None:
                return []
            if tag == b"U":
                # Injected ingress loss on gradient frames — the
                # host-networking analogue of the switch's ingress drop.
                if self._loss.drops():
                    return []
                return self._handle_push(rank, frame)
            if tag == b"H":
                return self._handle_resend(rank, frame, addr)
            if tag == b"L":
                self._depart(rank)
                return []
            raise ValueError(f"unknown tag {tag!r}")
        except (struct.error, ValueError):
            self.counters["decode_errors"] += 1
            return []


class PsServer(HostServer):
    """Sums each (round, chunk) across all workers, in rank order."""

    def __init__(
        self, n_workers: int, loss_rate: float = 0.0, loss_seed: int = 0
    ) -> None:
        super().__init__(n_workers, loss_rate, loss_seed)
        #: (round, chunk) → its f32 chunks (views of their frames), then
        #: its sum, kept for resends over the last three rounds.
        self._sums = RoundSums(n_workers, self.counters)
        self.counters["chunks_summed"] = 0

    def _handle_push(self, rank: int, frame: bytes) -> Frames:
        _, round_index, chunk = _UP_HEADER.unpack_from(frame, 1)
        data = chunk_payload(
            frame, 1 + _UP_HEADER.size, "<f4", chunk, self.n_elements
        )
        total = self._sums.add((round_index, chunk), rank, data)
        if total is None:
            return []
        self.counters["chunks_summed"] += 1
        self._sums.release((round_index - 3, chunk))
        down = _down_frame(round_index, chunk, total)
        return [(down, addr) for addr in self.addresses]

    def _handle_resend(self, rank: int, frame: bytes, addr: Address) -> Frames:
        _, round_index, chunk = _UP_HEADER.unpack_from(frame, 1)
        total = self._sums.results.get((round_index, chunk))
        if total is None:
            return []  # still waiting on some worker; the sender retries
        self.counters["resends_served"] += 1
        return [(_down_frame(round_index, chunk, total), addr)]


def _down_frame(round_index: int, chunk: int, total: np.ndarray) -> bytes:
    header = b"D" + _DOWN_HEADER.pack(round_index, chunk)
    return header + total.astype("<f8", copy=False).tobytes()


class LiveShardWorker(LiveWorkerBase):
    """Worker role of the live PS strategies (``ps``: one shard)."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        shard_addrs: List[Address],
        **watchdog,
    ) -> None:
        if not shard_addrs:
            raise ValueError("need at least one shard server")
        super().__init__(rank, n_workers, algorithm, **watchdog)
        self.shard_addrs = list(shard_addrs)
        self.ranges = shard_ranges(self.n_elements, len(shard_addrs))
        self._join(
            self.shard_addrs,
            [b"J" + JOIN_BODY.pack(rank, hi - lo) for lo, hi in self.ranges],
            b"L" + bytes([rank]),
        )
        #: (shard, chunk) → encoded ``U`` frame of the current round.
        self._round_frames: Dict[Tuple[int, int], bytes] = {}
        #: The round being collected (its float64 sum fills ``_result``).
        self._round = 0
        self.counters.update(help_sent=0, retransmissions=0)

    def _submit(self, gradient: np.ndarray, round_index: int) -> None:
        self._round_frames = {}
        for shard, (lo, hi) in enumerate(self.ranges):
            for chunk, data in enumerate(split_chunks(gradient[lo:hi])):
                frame = (
                    b"U"
                    + _UP_HEADER.pack(self.rank, round_index, chunk)
                    + data.astype("<f4", copy=False).tobytes()
                )
                self._round_frames[(shard, chunk)] = frame
                self._send(frame, self.shard_addrs[shard])
        self._round = round_index
        self._result = np.empty(self.n_elements, dtype=np.float64)
        self._missing = set(self._round_frames)

    def _receive(self, frame: bytes, shard: int) -> None:
        tag = frame[:1]
        if tag == b"G":
            self._admitted(shard)
        if tag != b"D":
            return
        try:
            round_index, chunk = _DOWN_HEADER.unpack_from(frame, 1)
            key = (shard, chunk)
            if round_index != self._round or key not in self._missing:
                self.counters["stale_frames"] += 1
                return
            lo, hi = self.ranges[shard]
            data = chunk_payload(
                frame, 1 + _DOWN_HEADER.size, "<f8", chunk, hi - lo
            )
        except (struct.error, ValueError):
            self.counters["decode_errors"] += 1
            return
        start = lo + chunk * CHUNK_ELEMS
        self._result[start : start + data.size] = data
        self._missing.discard(key)

    def _recover(self, missing: set, round_index: int) -> None:
        """Watchdog fired: resend our own chunks and ask for the sums."""
        for shard, chunk in sorted(missing):
            addr = self.shard_addrs[shard]
            self._send(self._round_frames[(shard, chunk)], addr)
            self.counters["retransmissions"] += 1
            self._send(
                b"H" + _UP_HEADER.pack(self.rank, round_index, chunk), addr
            )
            self.counters["help_sent"] += 1
