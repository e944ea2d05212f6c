"""Live sync-PS baselines: parameter-server processes over loopback UDP.

The paper's PS baseline is ordinary host-level networking, not the
iSwitch protocol, so this module uses the minimal host-level framing of
DESIGN §9.4 (``J``/``A``/``G``/``U``/``D``/``H``/``L``) rather than
:mod:`repro.core.protocol`.

A :class:`PsServer` sums each chunk in float64 **rank order** once all
``N`` contributions arrived.  The simulator's ``SyncParameterServer``
sums in float64 arrival order; for gradients of one workload's dynamic
range the float64 sums are exact either way (the repo's golden hashes
show ps, ring, and halving/doubling — three different orders — already
agree), so sim and live stay bit-identical without a canonical mode here.

**ps is ps-shard with one shard.**  Mirroring the simulator's
``sync-ps-shard`` strategy, the parameter space is split into K
contiguous element ranges and each range is served by an independent
:class:`PsServer` process.  The servers are completely stock — each one
sums its own (round, chunk) keys over all N workers — so sharding lives
entirely in :class:`LiveShardWorker`: it routes each shard's slice of
the gradient to that shard's address and reassembles the K float64
slices into the full summed vector.  Responses are demultiplexed by
source address (each shard has its own socket), so the per-shard chunk
index spaces never collide.  Joins run shard-by-shard in shard order on
every worker, which keeps the K join barriers deadlock-free.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

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
from .transport import Address, UdpEndpoint

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
        #: (round, chunk) → rank → the f32 chunk, a view of its frame.
        self._contribs: Dict[Tuple[int, int], Dict[int, np.ndarray]] = {}
        self._results: Dict[Tuple[int, int], bytes] = {}
        #: The newest round a sum completed in; the cache is pruned on advance.
        self._newest = 0
        self.counters["chunks_summed"] = 0

    def _handle_push(self, rank: int, frame: bytes) -> Frames:
        _, round_index, chunk = _UP_HEADER.unpack_from(frame, 1)
        data = chunk_payload(
            frame, 1 + _UP_HEADER.size, "<f4", chunk, self.n_elements
        )
        key = (round_index, chunk)
        if key in self._results:
            self.counters["duplicates_dropped"] += 1
            return []  # already summed: a retransmission raced completion
        contribs = self._contribs.setdefault(key, {})
        if rank in contribs:
            self.counters["duplicates_dropped"] += 1
            return []
        contribs[rank] = data
        if len(contribs) < self.n_workers:
            return []
        # Rank order from +0.0, so even the sign of a zero sum is pinned.
        total = np.zeros(data.shape, dtype=np.float64)
        for member_rank in sorted(contribs):
            total += contribs[member_rank]
        del self._contribs[key]
        down = (
            b"D"
            + _DOWN_HEADER.pack(round_index, chunk)
            + total.astype("<f8", copy=False).tobytes()
        )
        self._results[key] = down
        self.counters["chunks_summed"] += 1
        if round_index > self._newest:
            # Keep the last three rounds' sums for resend requests.
            self._newest = round_index
            for old in [k for k in self._results if k[0] < round_index - 2]:
                del self._results[old]
        return [(down, addr) for addr in self.addresses]

    def _handle_resend(self, rank: int, frame: bytes, addr: Address) -> Frames:
        _, round_index, chunk = _UP_HEADER.unpack_from(frame, 1)
        down = self._results.get((round_index, chunk))
        if down is None:
            return []  # still waiting on some worker; the sender retries
        self.counters["resends_served"] += 1
        return [(down, addr)]


class LiveShardWorker(LiveWorkerBase):
    """Worker-side loop of the live PS strategies (``ps``: one shard)."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        endpoint: UdpEndpoint,
        shard_addrs: List[Address],
        **watchdog,
    ) -> None:
        if not shard_addrs:
            raise ValueError("need at least one shard server")
        super().__init__(rank, n_workers, algorithm, endpoint, **watchdog)
        self.shard_addrs = list(shard_addrs)
        self.ranges = shard_ranges(self.n_elements, len(shard_addrs))
        self._addr_to_shard = {
            addr: index for index, addr in enumerate(self.shard_addrs)
        }
        #: (shard, chunk) → encoded ``U`` frame of the current round.
        self._round_frames: Dict[Tuple[int, int], bytes] = {}
        #: The round being collected, and its float64 sum, filled in place.
        self._round = 0
        self._total = np.empty(0)
        self.counters.update(help_sent=0, retransmissions=0)

    def join(self) -> None:
        """Join every shard, in shard order (the same order on all ranks)."""
        for addr, (lo, hi) in zip(self.shard_addrs, self.ranges):
            self._join_until_go(
                b"J" + JOIN_BODY.pack(self.rank, hi - lo),
                addr,
                lambda frame, src, addr=addr: frame[:1] == b"G"
                and src == addr,
            )

    def _leave(self) -> None:
        for addr in self.shard_addrs:
            self._send(b"L" + bytes([self.rank]), addr)

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

    def _complete(self, round_index: int) -> np.ndarray:
        self._round = round_index
        self._total = np.empty(self.n_elements, dtype=np.float64)
        self._collect(set(self._round_frames), round_index)
        return self._total

    def _ingest(self, frame: bytes, addr: Address) -> None:
        shard = self._addr_to_shard.get(addr)
        if shard is None or frame[:1] != b"D":
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
        self._total[start : start + data.size] = data
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
