"""Live async-PS: a parameter-server process applying pushes one by one.

The server holds the authoritative weights in a replica: each worker
pushes its gradient, the server applies it at once (no barrier with
other workers), and the pushing worker pulls the post-apply weights
before computing again.  Pushes are applied in **rank-cyclic order** —
apply number ``k·N + w`` is worker ``w``'s cycle-``k`` push — by the
:class:`repro.core.baselines.RankCyclicOrder` the simulator's paced
server drains too, so arrival jitter moves *when* an apply happens,
never *which weights* it reads.  Staleness is still measured from the
wire: each push carries the weight version it was computed against.

Framing is host-level (DESIGN §9.4): ``U`` pushes also carry that
version, ``W`` frames carry the post-apply pull, and ``H`` asks for a
whole cycle's pull again.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

import numpy as np

from ..core.baselines import RankCyclicOrder
from ..rl.base import Algorithm
from .driver import (
    CHUNK_ELEMS,
    Frames,
    LiveWorkerBase,
    chunk_payload,
    n_chunks,
    split_chunks,
)
from .ps import JOIN_BODY, HostServer
from .transport import Address

__all__ = ["LiveAsyncPsServer", "LiveAsyncPsWorker"]

_ASYNC_HEADER = struct.Struct("<BIII")  # rank, cycle, chunk, version
_PULL_REQ = struct.Struct("<BI")  # rank, cycle


class LiveAsyncPsServer(HostServer):
    """Applies pushes cyclically to a replica; answers with fresh pulls."""

    def __init__(
        self,
        n_workers: int,
        replica: Algorithm,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        super().__init__(n_workers, loss_rate, loss_seed)
        self.replica = replica
        self.n_elements = replica.get_weights().size
        self.n_chunks = n_chunks(self.n_elements)
        #: Applied-push counter: apply number ``k·N + w`` is next.
        self.server_updates = 0
        #: (cycle, rank) → (chunk → f32 payload, version) partial pushes.
        self._partial: Dict[
            Tuple[int, int], Tuple[Dict[int, np.ndarray], int]
        ] = {}
        #: Full pushes, (f32 gradient, version), awaiting their turn.
        self._order = RankCyclicOrder(n_workers)
        #: rank → (cycle, encoded ``W`` frames) — latest pull, for resends.
        self._pull_cache: Dict[int, Tuple[int, List[bytes]]] = {}
        self.counters.update(updates=0, staleness_total=0, staleness_max=0)

    def _handle_push(self, rank: int, frame: bytes) -> Frames:
        _, cycle, chunk, version = _ASYNC_HEADER.unpack_from(frame, 1)
        data = chunk_payload(
            frame, 1 + _ASYNC_HEADER.size, "<f4", chunk, self.n_elements
        )
        key = (cycle, rank)
        if not self._order.wants(cycle, rank):
            self.counters["duplicates_dropped"] += 1
            return []  # applied already (a retransmission raced it), or buffered
        chunks, _ = self._partial.setdefault(key, ({}, version))
        if chunk in chunks:
            self.counters["duplicates_dropped"] += 1
            return []
        chunks[chunk] = data
        if len(chunks) < self.n_chunks:
            return []
        del self._partial[key]
        gradient = np.concatenate([chunks[i] for i in range(self.n_chunks)])
        self._order.offer(cycle, rank, (gradient, version))
        out: Frames = []
        for cycle, rank, (gradient, version) in self._order.drain():
            staleness = self.server_updates - version
            self.counters["updates"] += 1
            self.counters["staleness_total"] += staleness
            self.counters["staleness_max"] = max(
                self.counters["staleness_max"], staleness
            )
            self.replica.apply_update(np.asarray(gradient, dtype=np.float64))
            self.server_updates += 1
            out.extend(self._send_pull(rank, cycle + 1))
        return out

    def _send_pull(self, rank: int, cycle: int) -> Frames:
        """Scatter the post-apply weights back to the pushing worker."""
        weights = np.ascontiguousarray(
            self.replica.get_weights(), dtype="<f8"
        )
        frames = [
            b"W"
            + _ASYNC_HEADER.pack(rank, cycle, chunk, self.server_updates)
            + data.tobytes()
            for chunk, data in enumerate(split_chunks(weights))
        ]
        self._pull_cache[rank] = (cycle, frames)
        return [(frame, self._members[rank]) for frame in frames]

    def _handle_resend(self, rank: int, frame: bytes, addr: Address) -> Frames:
        _, cycle = _PULL_REQ.unpack_from(frame, 1)
        cached = self._pull_cache.get(rank)
        if cached is None or cached[0] != cycle:
            return []  # push not applied yet; the worker retries its U
        self.counters["resends_served"] += 1
        return [(f, addr) for f in cached[1]]


class LiveAsyncPsWorker(LiveWorkerBase):
    """Push-pull worker role of the live async PS baseline."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        server_addr: Address,
        **watchdog,
    ) -> None:
        super().__init__(rank, n_workers, algorithm, **watchdog)
        self.server_addr = server_addr
        self._join(
            [server_addr],
            [b"J" + JOIN_BODY.pack(rank, self.n_elements)],
            b"L" + bytes([rank]),
        )
        #: The weight version the next gradient is computed against.
        self.version = 0
        self._cycle_frames: List[bytes] = []
        #: The pull being collected: its cycle and version stamp (the
        #: weights fill ``_result``).
        self._cycle = 0
        self._pulled_version = 0
        #: ``round_digests`` holds per-cycle digests of the pulled weights
        #: (each rank pulls its own versions, so streams differ across
        #: ranks by design).
        self.counters.update(
            help_sent=0, retransmissions=0, version_gap_max=0
        )

    def _submit(self, gradient: np.ndarray, cycle: int) -> None:
        """Push: the whole gradient, stamped with the version it read; the
        pull to collect is the server's weights right after it applied
        that push."""
        self._cycle_frames = [
            b"U"
            + _ASYNC_HEADER.pack(self.rank, cycle, chunk, self.version)
            + data.astype("<f4", copy=False).tobytes()
            for chunk, data in enumerate(split_chunks(gradient))
        ]
        for frame in self._cycle_frames:
            self._send(frame, self.server_addr)
        self._cycle = cycle + 1
        self._result = np.empty(self.n_elements, dtype=np.float64)
        self._missing = set(range(len(self._cycle_frames)))

    def _receive(self, frame: bytes, sender: int) -> None:
        tag = frame[:1]
        if tag == b"G":
            self._admitted(sender)
        elif tag == b"L":
            self._departed(sender)
        if tag != b"W":
            return
        try:
            rank, cycle, chunk, version = _ASYNC_HEADER.unpack_from(frame, 1)
            if (
                rank != self.rank
                or cycle != self._cycle
                or chunk not in self._missing
            ):
                self.counters["stale_frames"] += 1
                return
            data = chunk_payload(
                frame, 1 + _ASYNC_HEADER.size, "<f8", chunk, self.n_elements
            )
        except (struct.error, ValueError):
            self.counters["decode_errors"] += 1
            return
        start = chunk * CHUNK_ELEMS
        self._result[start : start + data.size] = data
        self._pulled_version = version
        self._missing.discard(chunk)

    def _recover(self, missing: set, cycle: int) -> None:
        """Watchdog fired: push again and ask for the pull again."""
        for frame in self._cycle_frames:
            self._send(frame, self.server_addr)
            self.counters["retransmissions"] += 1
        self._send(
            b"H" + _PULL_REQ.pack(self.rank, self._cycle), self.server_addr
        )
        self.counters["help_sent"] += 1

    def _apply(self, weights: np.ndarray, cycle: int) -> None:
        self.algorithm.set_weights(weights)
        self.counters["version_gap_max"] = max(
            self.counters["version_gap_max"],
            self._pulled_version - self.version - 1,
        )
        self.version = self._pulled_version
