"""Live AllReduce baselines: peer-to-peer UDP exchange, no aggregator.

The paper's AllReduce baselines (ring, recursive halving/doubling) are
host-to-host collectives — there is no central process at all.  Each
worker binds its own socket, the runner distributes the
:class:`~repro.live.transport.PeerTable` once everyone is bound, and the
exchange proceeds as a schedule of point-to-point messages.

Framing is host-level, like the live PS baseline — not the iSwitch wire
protocol (DESIGN §9.4): ``E`` carries one fragment of an exchange
message, ``R`` asks for a whole message again, ``F`` says this rank has
applied all of its rounds.

One exchange *message* is the chunk a peer owes us for ``(phase, round,
step)`` of the schedule; chunks exceed the UDP datagram limit, so they
travel as fragments of 183 float64 elements (1464 B — the same payload
budget as the iSwitch segment).  Loss recovery is receiver-driven: a
receive timeout sends ``R`` to the expected sender, which retransmits
every fragment of that message from its send cache (current and
previous round are retained).  Fragments are idempotent — duplicates
overwrite with identical bytes — so recovery needs no sequencing.

With no central process there is also no one to outlive the workers, so
teardown is a peer handshake: a finished worker broadcasts ``F`` and
keeps answering ``R`` requests until it holds an ``F`` from every peer —
only then can no peer still need this worker's send cache.  ``F`` and
``R`` frames are exempt from injected loss (like the simulator, which
drops only data-plane packets); ``F`` is rebroadcast periodically while
lingering as a belt-and-braces against real kernel drops.

Numerics: chunks are exchanged and summed in **float64**.  For gradients
of one workload's dynamic range those sums are exact (the repo's golden
hashes show ps, ring, and halving/doubling — three different summation
orders — already agree), so ring, halving/doubling, live PS, and the
simulator all land on bit-identical weight trajectories.
"""

from __future__ import annotations

import struct
import time
from typing import Dict, List, Tuple

import numpy as np

from ..rl.base import Algorithm
from .driver import (
    CHUNK_ELEMS,
    LiveWorkerBase,
    LossGate,
    n_chunks,
    shard_ranges,
    split_chunks,
)
from .transport import Address, UdpEndpoint

__all__ = ["LiveRingWorker", "LiveHdWorker"]

_DATA_HEADER = struct.Struct("<BBIII")  # sender_rank, phase, round, step, frag
_REQ_HEADER = struct.Struct("<BBII")  # requester_rank, phase, round, step

#: Re-broadcast period for the ``F`` (finished) frame while lingering.
FINISH_RESEND_PERIOD = 0.25
#: Hard ceiling on the post-training linger; normally the peer ``F``
#: handshake ends it within milliseconds.
LINGER_DEADLINE = 30.0

_MsgKey = Tuple[int, int, int, int]  # sender, phase, round, step


class _PeerExchangeWorker(LiveWorkerBase):
    """Shared transport machinery for the peer-to-peer collectives."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        endpoint: UdpEndpoint,
        peers: Dict[int, Address],
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        **watchdog,
    ) -> None:
        if n_workers < 2:
            raise ValueError(
                f"peer-to-peer allreduce needs >= 2 workers, got {n_workers}"
            )
        if sorted(peers) != list(range(n_workers)):
            raise ValueError(
                f"peer table must cover ranks 0..{n_workers - 1}, "
                f"got {sorted(peers)}"
            )
        super().__init__(rank, n_workers, algorithm, endpoint, **watchdog)
        self.peers = dict(peers)
        # Per-rank stream so every receiver drops an independent sample.
        self._loss = LossGate(loss_rate, loss_seed * 7919 + rank, self.counters)
        #: Send cache: (phase, round, step) → encoded fragments, for
        #: resend requests.  Current and previous round are retained.
        self._sent: Dict[Tuple[int, int, int], List[bytes]] = {}
        #: Receive buffer: (sender, phase, round, step) → frag → payload.
        self._pending: Dict[_MsgKey, Dict[int, np.ndarray]] = {}
        #: Peers whose ``F`` (finished) frame has arrived.
        self._peer_done: set = set()
        self._round = 0
        self._accumulator = np.empty(0)
        self.counters.update(resend_requests_sent=0, resends_served=0)
        # Receiving the peer table was the rendezvous: nothing to join.
        self._joined = True

    # -- wire helpers ---------------------------------------------------
    def _send_message(
        self, dest: int, phase: int, step: int, vector: np.ndarray
    ) -> None:
        """Fragment ``vector`` (float64) and send it to peer ``dest``."""
        payload = np.ascontiguousarray(vector, dtype="<f8")
        frames = [
            b"E"
            + _DATA_HEADER.pack(self.rank, phase, self._round, step, frag)
            + chunk.tobytes()
            for frag, chunk in enumerate(split_chunks(payload))
        ]
        self._sent[(phase, self._round, step)] = frames
        for frame in frames:
            self._send(frame, self.peers[dest])

    def _prune_caches(self) -> None:
        floor = self._round - 1
        for key in [k for k in self._sent if k[1] < floor]:
            del self._sent[key]
        for key in [k for k in self._pending if k[2] < floor]:
            del self._pending[key]
            self.counters["stale_frames"] += 1

    def _recv_message(
        self, src: int, phase: int, step: int, n_elements: int
    ) -> np.ndarray:
        """Block until the message from peer ``src`` is fully assembled."""
        key: _MsgKey = (src, phase, self._round, step)
        frags = self._pending.setdefault(key, {})
        self._collect(
            {
                (src, phase, step, frag)
                for frag in range(n_chunks(n_elements))
                if frag not in frags
            },
            self._round,
        )
        del self._pending[key]
        out = np.empty(n_elements, dtype=np.float64)
        for index, payload in frags.items():
            start = index * CHUNK_ELEMS
            out[start : start + payload.size] = payload
        return out

    def _recover(self, missing: set, round_index: int) -> None:
        """Watchdog fired: ask the sender for the whole message again."""
        src, phase, step, _ = next(iter(missing))
        self._send(
            b"R" + _REQ_HEADER.pack(self.rank, phase, round_index, step),
            self.peers[src],
        )
        self.counters["resend_requests_sent"] += 1

    def _ingest(self, frame: bytes, addr: Address) -> None:
        tag = frame[:1]
        try:
            if tag == b"E":
                if self._loss.drops():
                    return
                sender, phase, rnd, step, frag = _DATA_HEADER.unpack_from(
                    frame, 1
                )
                if rnd < self._round - 1:
                    self.counters["stale_frames"] += 1
                    return
                payload = np.frombuffer(
                    frame, dtype="<f8", offset=1 + _DATA_HEADER.size
                )
                self._pending.setdefault((sender, phase, rnd, step), {})[
                    frag
                ] = payload.astype(np.float64)
                if rnd == self._round:
                    self._missing.discard((sender, phase, step, frag))
            elif tag == b"R":
                requester, phase, rnd, step = _REQ_HEADER.unpack_from(frame, 1)
                self._serve_resend(requester, phase, rnd, step)
            elif tag == b"F":
                self._peer_done.add(frame[1])
            else:
                self.counters["decode_errors"] += 1
        except (struct.error, KeyError, IndexError):
            self.counters["decode_errors"] += 1

    def _serve_resend(
        self, requester: int, phase: int, rnd: int, step: int
    ) -> None:
        frames = self._sent.get((phase, rnd, step))
        if frames is None:
            return  # not sent yet (peer is ahead) or pruned; peer retries
        addr = self.peers.get(requester)
        if addr is None:
            return
        for frame in frames:
            self._send(frame, addr)
        self.counters["resends_served"] += 1

    # -- training template hooks ----------------------------------------
    def _submit(self, gradient: np.ndarray, round_index: int) -> None:
        self._round = round_index
        self._prune_caches()
        self._accumulator = gradient.astype(np.float64)

    def _complete(self, round_index: int) -> np.ndarray:
        return self._exchange(self._accumulator)

    def _exchange(self, accumulator: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _leave(self) -> None:
        """Linger: serve resend requests until every peer has finished.

        Drops happen at the *receiver*, so this worker's last
        transmissions may still be missing at a peer whose only recovery
        source is this worker's send cache.  A peer's ``F`` frame is the
        proof it needs nothing more; once all are in, exit immediately.
        """
        finish = b"F" + bytes([self.rank])
        others = [r for r in self.peers if r != self.rank]
        hard_stop = time.monotonic() + LINGER_DEADLINE
        next_finish = 0.0
        while True:
            # Announce first, test second: the last rank to finish already
            # holds every peer's ``F`` and must still send its own.
            if time.monotonic() >= next_finish:
                for peer in others:
                    self._send(finish, self.peers[peer])
                next_finish = time.monotonic() + FINISH_RESEND_PERIOD
            if (
                all(r in self._peer_done for r in others)
                or time.monotonic() >= hard_stop
            ):
                return
            got = self.endpoint.recv(timeout=0.05)
            if got is None:
                continue
            self.counters["frames_rx"] += 1
            if got[0][:1] in (b"R", b"F"):
                self._ingest(*got)
            else:
                self.counters["stale_frames"] += 1


class LiveRingWorker(_PeerExchangeWorker):
    """Ring allreduce: N−1 reduce-scatter steps + N−1 all-gather steps.

    Chunk ``c`` circulates rightward accumulating every rank's slice; the
    schedule is the textbook one (each rank starts the reduce-scatter
    with its own chunk index and ends owning chunk ``(rank+1) % N``).
    """

    name = "ring"

    def _exchange(self, accumulator: np.ndarray) -> np.ndarray:
        n = self.n_workers
        bounds = shard_ranges(self.n_elements, n)
        right = (self.rank + 1) % n
        left = (self.rank - 1) % n
        # Phase 0: reduce-scatter.
        for step in range(n - 1):
            send_chunk = (self.rank - step) % n
            recv_chunk = (self.rank - step - 1) % n
            lo, hi = bounds[send_chunk]
            self._send_message(right, 0, step, accumulator[lo:hi])
            lo, hi = bounds[recv_chunk]
            accumulator[lo:hi] += self._recv_message(left, 0, step, hi - lo)
        # Phase 1: all-gather.
        for step in range(n - 1):
            send_chunk = (self.rank + 1 - step) % n
            recv_chunk = (self.rank - step) % n
            lo, hi = bounds[send_chunk]
            self._send_message(right, 1, step, accumulator[lo:hi])
            lo, hi = bounds[recv_chunk]
            accumulator[lo:hi] = self._recv_message(left, 1, step, hi - lo)
        return accumulator


class LiveHdWorker(_PeerExchangeWorker):
    """Recursive halving/doubling: 2·log2(N) hypercube exchange steps.

    Requires a power-of-two worker count, like the simulator strategy.
    """

    name = "hd"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.n_workers & (self.n_workers - 1):
            raise ValueError(
                "halving/doubling needs a power-of-two worker count, "
                f"got {self.n_workers}"
            )

    def _exchange(self, accumulator: np.ndarray) -> np.ndarray:
        steps = self.n_workers.bit_length() - 1
        lo, hi = 0, self.n_elements
        stack: List[Tuple[int, int]] = []
        # Phase 0: recursive halving (reduce-scatter on bisected ranges).
        for step in range(steps):
            partner = self.rank ^ (1 << step)
            mid = lo + (hi - lo) // 2
            if self.rank & (1 << step):
                keep, send = (mid, hi), (lo, mid)
            else:
                keep, send = (lo, mid), (mid, hi)
            self._send_message(partner, 0, step, accumulator[send[0] : send[1]])
            received = self._recv_message(
                partner, 0, step, keep[1] - keep[0]
            )
            accumulator[keep[0] : keep[1]] += received
            stack.append((lo, hi))
            lo, hi = keep
        # Phase 1: recursive doubling (all-gather, ranges re-merge).
        for step in reversed(range(steps)):
            partner = self.rank ^ (1 << step)
            parent_lo, parent_hi = stack.pop()
            self._send_message(partner, 1, step, accumulator[lo:hi])
            if lo == parent_lo:
                other = (hi, parent_hi)
            else:
                other = (parent_lo, lo)
            received = self._recv_message(
                partner, 1, step, other[1] - other[0]
            )
            accumulator[other[0] : other[1]] = received
            lo, hi = parent_lo, parent_hi
        return accumulator
