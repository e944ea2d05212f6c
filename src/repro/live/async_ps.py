"""Live async-PS: a parameter-server process applying pushes one by one.

The asynchronous PS baseline holds the authoritative weights in a server
replica: each worker pushes its gradient, the server applies it to the
replica immediately (no barrier with other workers), and the pushing
worker pulls the fresh post-apply weights before computing again.

To stay bit-comparable with the simulator's paced mode, the server
applies pushes in **rank-cyclic order** — apply number ``k·N + w`` is
worker ``w``'s cycle-``k`` push — buffering pushes that arrive early.
Arrival jitter moves *when* an apply happens, never *which weights* it
reads, so the replica trajectory and every worker's pulled-weights
digest stream are pure functions of the gradients.  Staleness is still
measured from the wire: each push carries the weight version it was
computed against, and the server records the real gap at apply time.

Framing (host-level, like the sync PS baseline):

=========  ==========================================================
Tag byte   Body (little-endian)
=========  ==========================================================
``J``      u8 rank, u32 n_elements — join
``A``      — ack (server → worker)
``G``      — go: all workers joined (server → worker)
``U``      u8 rank, u32 cycle, u32 chunk, u32 version,
           float32[] gradient chunk (version = weights the gradient
           was computed against)
``W``      u8 rank, u32 cycle, u32 chunk, u32 version,
           float64[] weights chunk (server → worker; post-apply pull)
``H``      u8 rank, u32 cycle — resend request for that cycle's pull
``L``      u8 rank — leave
=========  ==========================================================

Chunks carry 183 elements, the shared MTU-friendly payload budget.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..rl.base import Algorithm
from .ps import JOIN_DEADLINE, JOIN_RESEND_PERIOD, _chunk_bounds, _n_chunks
from .transport import Address, UdpEndpoint

__all__ = ["LiveAsyncPsServer", "LiveAsyncPsWorker"]

_ASYNC_HEADER = struct.Struct("<BIII")  # rank, cycle, chunk, version
_JOIN_BODY = struct.Struct("<BI")  # rank, n_elements
_PULL_REQ = struct.Struct("<BI")  # rank, cycle


class LiveAsyncPsServer:
    """Applies pushes cyclically to a replica; answers with fresh pulls."""

    def __init__(
        self,
        n_workers: int,
        replica: Algorithm,
        endpoint: Optional[UdpEndpoint] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.n_workers = n_workers
        self.replica = replica
        self.endpoint = endpoint
        self.loss_rate = loss_rate
        self._drop_rng = random.Random(loss_seed)
        self.n_elements = replica.get_weights().size
        self.n_chunks = _n_chunks(self.n_elements)
        self._members: Dict[int, Address] = {}
        self._left: set = set()
        self._go_sent = False
        #: Applied-push counter: apply number ``k·N + w`` is next.
        self.server_updates = 0
        #: (cycle, rank) → (chunk → f32 payload, version) partial pushes.
        self._partial: Dict[
            Tuple[int, int], Tuple[Dict[int, np.ndarray], int]
        ] = {}
        #: (cycle, rank) → (full f32 gradient, version) awaiting its turn.
        self._ready: Dict[Tuple[int, int], Tuple[np.ndarray, int]] = {}
        #: rank → (cycle, encoded ``W`` frames) — latest pull, for resends.
        self._pull_cache: Dict[int, Tuple[int, List[bytes]]] = {}
        self.counters: Dict[str, int] = {
            "frames_rx": 0,
            "frames_tx": 0,
            "updates": 0,
            "staleness_total": 0,
            "staleness_max": 0,
            "duplicates_dropped": 0,
            "drops_injected": 0,
            "resends_served": 0,
            "decode_errors": 0,
        }

    @property
    def done(self) -> bool:
        return len(self._members) == self.n_workers and len(self._left) == len(
            self._members
        )

    def handle_frame(
        self, frame: bytes, addr: Address
    ) -> List[Tuple[bytes, Address]]:
        self.counters["frames_rx"] += 1
        if not frame:
            self.counters["decode_errors"] += 1
            return []
        tag = frame[:1]
        try:
            if tag == b"J":
                rank, n_elements = _JOIN_BODY.unpack_from(frame, 1)
                if n_elements != self.n_elements:
                    self.counters["decode_errors"] += 1
                    return []
                return self._handle_join(rank, addr)
            if tag == b"U":
                return self._handle_push(frame)
            if tag == b"H":
                return self._handle_pull_resend(frame, addr)
            if tag == b"L":
                self._left.add(frame[1])
                return []
        except (IndexError, struct.error, ValueError):
            self.counters["decode_errors"] += 1
        return []

    def _handle_join(
        self, rank: int, addr: Address
    ) -> List[Tuple[bytes, Address]]:
        self._members[rank] = addr
        out = [(b"A", addr)]
        if len(self._members) == self.n_workers and not self._go_sent:
            self._go_sent = True
            out.extend(
                (b"G", a)
                for _, a in sorted(self._members.items())
            )
        elif self._go_sent:
            out.append((b"G", addr))
        return out

    def _handle_push(self, frame: bytes) -> List[Tuple[bytes, Address]]:
        if self.loss_rate > 0 and self._drop_rng.random() < self.loss_rate:
            self.counters["drops_injected"] += 1
            return []
        rank, cycle, chunk, version = _ASYNC_HEADER.unpack_from(frame, 1)
        if cycle * self.n_workers + rank < self.server_updates:
            self.counters["duplicates_dropped"] += 1
            return []  # already applied: a retransmission raced the apply
        key = (cycle, rank)
        if key in self._ready:
            self.counters["duplicates_dropped"] += 1
            return []
        chunks, _ = self._partial.setdefault(key, ({}, version))
        if chunk in chunks:
            self.counters["duplicates_dropped"] += 1
            return []
        chunks[chunk] = np.frombuffer(
            frame, dtype="<f4", offset=1 + _ASYNC_HEADER.size
        ).astype(np.float32)
        if len(chunks) < self.n_chunks:
            return []
        del self._partial[key]
        gradient = np.empty(self.n_elements, dtype=np.float32)
        for index, data in chunks.items():
            start, stop = _chunk_bounds(index, self.n_elements)
            gradient[start:stop] = data
        self._ready[key] = (gradient, version)
        return self._apply_ready()

    def _apply_ready(self) -> List[Tuple[bytes, Address]]:
        """Apply every push whose cyclic turn has come, oldest first."""
        out: List[Tuple[bytes, Address]] = []
        while True:
            cycle, rank = divmod(self.server_updates, self.n_workers)
            entry = self._ready.pop((cycle, rank), None)
            if entry is None:
                return out
            gradient, version = entry
            staleness = self.server_updates - version
            self.counters["updates"] += 1
            self.counters["staleness_total"] += staleness
            self.counters["staleness_max"] = max(
                self.counters["staleness_max"], staleness
            )
            self.replica.apply_update(np.asarray(gradient, dtype=np.float64))
            self.server_updates += 1
            out.extend(self._send_pull(rank, cycle + 1))

    def _send_pull(
        self, rank: int, cycle: int
    ) -> List[Tuple[bytes, Address]]:
        """Scatter the post-apply weights back to the pushing worker."""
        weights = np.ascontiguousarray(
            self.replica.get_weights(), dtype="<f8"
        )
        version = self.server_updates
        frames = []
        for chunk in range(self.n_chunks):
            start, stop = _chunk_bounds(chunk, self.n_elements)
            frames.append(
                b"W"
                + _ASYNC_HEADER.pack(rank, cycle, chunk, version)
                + weights[start:stop].tobytes()
            )
        self._pull_cache[rank] = (cycle, frames)
        addr = self._members.get(rank)
        if addr is None:
            return []
        return [(frame, addr) for frame in frames]

    def _handle_pull_resend(
        self, frame: bytes, addr: Address
    ) -> List[Tuple[bytes, Address]]:
        rank, cycle = _PULL_REQ.unpack_from(frame, 1)
        cached = self._pull_cache.get(rank)
        if cached is None or cached[0] != cycle:
            return []  # push not applied yet; the worker retries its U
        self.counters["resends_served"] += 1
        return [(f, addr) for f in cached[1]]

    def serve(self, deadline: float, poll_interval: float = 0.2) -> None:
        if self.endpoint is None:
            raise RuntimeError("serve() needs an endpoint")
        while not self.done and time.monotonic() < deadline:
            remaining = deadline - time.monotonic()
            got = self.endpoint.recv(
                timeout=min(poll_interval, max(remaining, 0.01))
            )
            if got is None:
                continue
            for out_frame, out_addr in self.handle_frame(*got):
                self.endpoint.send(out_frame, out_addr)
                self.counters["frames_tx"] += 1

    def stats_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)


class LiveAsyncPsWorker:
    """Push-pull worker loop of the live async PS baseline."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        endpoint: UdpEndpoint,
        server_addr: Address,
        recovery_timeout: float = 0.1,
        max_recovery_attempts: int = 12,
    ) -> None:
        self.rank = rank
        self.n_workers = n_workers
        self.algorithm = algorithm
        self.endpoint = endpoint
        self.server_addr = server_addr
        self.recovery_timeout = recovery_timeout
        self.max_recovery_attempts = max_recovery_attempts
        self.n_elements = algorithm.get_weights().size
        self.n_chunks = _n_chunks(self.n_elements)
        #: The weight version the next gradient is computed against.
        self.version = 0
        self._cycle_frames: List[bytes] = []
        #: Per-cycle digests of the pulled weights (each rank pulls its
        #: own versions, so streams differ across ranks by design).
        self.round_digests: List[str] = []
        self.counters: Dict[str, int] = {
            "frames_tx": 0,
            "frames_rx": 0,
            "help_sent": 0,
            "retransmissions": 0,
            "watchdog_timeouts": 0,
            "stale_frames": 0,
            "version_gap_max": 0,
        }
        self._joined = False

    def _send(self, frame: bytes) -> None:
        self.endpoint.send(frame, self.server_addr)
        self.counters["frames_tx"] += 1

    def join(self) -> None:
        join = b"J" + _JOIN_BODY.pack(self.rank, self.n_elements)
        deadline = time.monotonic() + JOIN_DEADLINE
        while time.monotonic() < deadline:
            self._send(join)
            resend_at = time.monotonic() + JOIN_RESEND_PERIOD
            while time.monotonic() < resend_at:
                got = self.endpoint.recv(
                    timeout=max(resend_at - time.monotonic(), 0.01)
                )
                if got is None:
                    break
                self.counters["frames_rx"] += 1
                if got[0][:1] == b"G":
                    self._joined = True
                    return
        raise RuntimeError(
            f"async ps worker {self.rank}: not admitted within "
            f"{JOIN_DEADLINE:.0f}s"
        )

    def train(self, iterations: int) -> None:
        """``iterations`` push/pull cycles against the server replica."""
        if not self._joined:
            raise RuntimeError("join() the job before training")
        for cycle in range(iterations):
            gradient = np.asarray(
                self.algorithm.compute_gradient(), dtype=np.float32
            )
            self._push(gradient, cycle)
            weights, version = self._pull(cycle + 1)
            self.round_digests.append(
                hashlib.sha256(
                    np.ascontiguousarray(
                        weights, dtype=np.float64
                    ).tobytes()
                ).hexdigest()[:16]
            )
            self.algorithm.set_weights(weights)
            self.counters["version_gap_max"] = max(
                self.counters["version_gap_max"], version - self.version - 1
            )
            self.version = version
        self._send(b"L" + bytes([self.rank]))

    def _push(self, gradient: np.ndarray, cycle: int) -> None:
        self._cycle_frames = []
        for chunk in range(self.n_chunks):
            start, stop = _chunk_bounds(chunk, self.n_elements)
            frame = (
                b"U"
                + _ASYNC_HEADER.pack(self.rank, cycle, chunk, self.version)
                + gradient[start:stop].astype("<f4", copy=False).tobytes()
            )
            self._cycle_frames.append(frame)
            self._send(frame)

    def _pull(self, cycle: int) -> Tuple[np.ndarray, int]:
        received: Dict[int, np.ndarray] = {}
        version = 0
        attempts = 0
        timeout = self.recovery_timeout
        while len(received) < self.n_chunks:
            got = self.endpoint.recv(timeout=timeout)
            if got is None:
                attempts += 1
                self.counters["watchdog_timeouts"] += 1
                if attempts > self.max_recovery_attempts:
                    raise RuntimeError(
                        f"async ps worker {self.rank}: cycle {cycle} "
                        f"abandoned after {attempts - 1} recovery attempts"
                    )
                for frame in self._cycle_frames:
                    self._send(frame)
                    self.counters["retransmissions"] += 1
                self._send(b"H" + _PULL_REQ.pack(self.rank, cycle))
                self.counters["help_sent"] += 1
                timeout = min(self.recovery_timeout * 2**attempts, 2.0)
                continue
            frame = got[0]
            self.counters["frames_rx"] += 1
            if frame[:1] != b"W" or len(frame) < 1 + _ASYNC_HEADER.size:
                continue
            rank, frame_cycle, chunk, frame_version = (
                _ASYNC_HEADER.unpack_from(frame, 1)
            )
            if rank != self.rank or frame_cycle != cycle or chunk in received:
                self.counters["stale_frames"] += 1
                continue
            version = frame_version
            received[chunk] = np.frombuffer(
                frame, dtype="<f8", offset=1 + _ASYNC_HEADER.size
            ).astype(np.float64)
        weights = np.empty(self.n_elements, dtype=np.float64)
        for chunk, data in received.items():
            start, stop = _chunk_bounds(chunk, self.n_elements)
            weights[start:stop] = data
        return weights, version
