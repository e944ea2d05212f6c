"""Live AllReduce baselines: peer-to-peer UDP exchange, no aggregator.

Ring and recursive halving/doubling AllReduce are host-to-host: each
worker binds its own socket, the runner hands out the
:class:`~repro.live.transport.PeerTable`, and the worker role steps
through its rank's row of the schedule the simulator reads its peers
from (:func:`repro.core.baselines.ring_schedule` / ``hd_schedule``):
phase 0 adds what arrives into the accumulator, phase 1 takes it.
Blocks are ``shard_ranges(n_elements, N)``.

Framing is host-level (DESIGN §9.4): ``E`` is one 183-float64 fragment
of the message a peer owes us for ``(phase, round, step)``, ``R`` asks
for a whole message again, ``F`` says a rank applied all its rounds.  A
frame's sender is its source address in the peer table.  Recovery is
receiver-driven: a receive timeout sends ``R`` to the expected sender,
which resends from its cache of the current and previous round;
duplicate fragments overwrite with identical bytes.  Teardown is a peer
handshake: once its last round is applied a worker lingers — it sends
``F`` on a timer and still answers ``R`` — and is done when it holds
every peer's ``F`` (or :data:`LINGER_DEADLINE` after it began).  ``F``
and ``R`` are exempt from injected loss, like the simulator's control
plane.

Numerics: chunks are summed in **float64**, each element in its
schedule's own tree order — a rotation of the ranks for the ring,
pairwise by hypercube dimension for halving/doubling — not in the rank
order of the PS and the simulator (``core.baselines.RoundSums``).  They
agree bit for bit only because float64 sums of float32 gradients of one
workload's dynamic range are exact, which the sim↔live digest tests
check; nothing else makes them identical.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.baselines import hd_schedule, ring_schedule
from ..rl.base import Algorithm
from .driver import (
    CHUNK_ELEMS,
    LiveWorkerBase,
    LossGate,
    chunk_payload,
    n_chunks,
    shard_ranges,
    split_chunks,
)
from .transport import Address

__all__ = ["LiveRingWorker", "LiveHdWorker"]

_DATA_HEADER = struct.Struct("<BBIII")  # sender_rank, phase, round, step, frag
_REQ_HEADER = struct.Struct("<BBII")  # requester_rank, phase, round, step

#: Re-send period of the ``F`` (finished) frame while lingering.
FINISH_RESEND_PERIOD = 0.25
#: Hard ceiling on the post-training linger; normally the peer ``F``
#: handshake ends it within milliseconds.
LINGER_DEADLINE = 30.0


class _PeerExchangeWorker(LiveWorkerBase):
    """One exchange schedule, stepped frame by frame, and its transport.

    Frames from an address outside the peer table are counted
    (``non_member``), whatever rank byte they carry; an ``E`` fragment
    that is not a whole fragment of the message the schedule expects
    from its sender at its ``(phase, step)`` is a ``decode_errors``.
    """

    schedule = staticmethod(ring_schedule)

    def __init__(
        self,
        rank: int,
        n_workers: int,
        algorithm: Algorithm,
        peers: Dict[int, Address],
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        **watchdog,
    ) -> None:
        if sorted(peers) != list(range(n_workers)):
            raise ValueError(
                f"peer table must cover ranks 0..{n_workers - 1}, "
                f"got {sorted(peers)}"
            )
        super().__init__(rank, n_workers, algorithm, **watchdog)
        self.peers = dict(peers)
        # Receiving the peer table was the rendezvous: nothing to join.
        self._senders = {addr: peer for peer, addr in self.peers.items()}
        #: This rank's schedule rows, their block ranges as element slices,
        #: and by (phase, step) — what each received message must be.
        bounds = [lo for lo, _ in shard_ranges(self.n_elements, n_workers)]
        bounds.append(self.n_elements)
        span = lambda blocks: slice(bounds[blocks[0]], bounds[blocks[1]])
        self.steps = [
            row._replace(send=span(row.send), recv=span(row.recv))
            for row in self.schedule(n_workers, rank)
        ]
        self._expected = {(row.phase, row.step): row for row in self.steps}
        # Per-rank stream so every receiver drops an independent sample.
        self._loss = LossGate(loss_rate, loss_seed * 7919 + rank, self.counters)
        #: Send cache: (phase, round, step) → encoded fragments, for
        #: resend requests.  Current and previous round are retained.
        self._sent: Dict[Tuple[int, int, int], List[bytes]] = {}
        #: Receive buffer: (sender, phase, round, step) → frag → payload.
        self._pending: Dict[tuple, Dict[int, np.ndarray]] = {}
        #: Peers whose ``F`` (finished) frame has arrived, of the others.
        self._peer_done: set = set()
        self._others = set(self.peers) - {rank}
        self._round = 0
        #: The schedule row being exchanged (-1: the round's first is next).
        self._step = -1
        #: While lingering: the next ``F`` and the hard stop.
        self._next_finish = -math.inf
        self._hard_stop: Optional[float] = None
        self.counters.update(resend_requests_sent=0, resends_served=0)

    # -- wire helpers ---------------------------------------------------
    def _exchange(self, row) -> None:
        """Send ``row``'s message (float64 fragments, kept for resend
        requests); await the fragments of the one it receives that are
        not here yet."""
        payload = np.ascontiguousarray(self._result[row.send], dtype="<f8")
        frames = [
            b"E"
            + _DATA_HEADER.pack(self.rank, row.phase, self._round, row.step, frag)
            + chunk.tobytes()
            for frag, chunk in enumerate(split_chunks(payload))
        ]
        self._sent[(row.phase, self._round, row.step)] = frames
        for frame in frames:
            self._send(frame, self.peers[row.send_to])
        src, phase, step = row.recv_from, row.phase, row.step
        frags = self._pending.setdefault((src, phase, self._round, step), {})
        wanted = range(n_chunks(row.recv.stop - row.recv.start))
        self._missing = {(src, phase, step, f) for f in wanted if f not in frags}

    def _prune_caches(self) -> None:
        floor = self._round - 1
        for key in [k for k in self._sent if k[1] < floor]:
            del self._sent[key]
        for key in [k for k in self._pending if k[2] < floor]:
            del self._pending[key]
            self.counters["stale_frames"] += 1

    def _recover(self, missing: set, round_index: int) -> None:
        """Watchdog fired: ask the sender for the whole message again."""
        src, phase, step, _ = next(iter(missing))
        self._send(
            b"R" + _REQ_HEADER.pack(self.rank, phase, round_index, step),
            self.peers[src],
        )
        self.counters["resend_requests_sent"] += 1

    def _receive(self, frame: bytes, sender: int) -> None:
        tag = frame[:1]
        if self._hard_stop is not None and tag not in (b"R", b"F"):
            self.counters["stale_frames"] += 1  # lingering: resends only
            return
        try:
            if tag == b"E":
                if self._loss.drops():
                    return
                _, phase, rnd, step, frag = _DATA_HEADER.unpack_from(frame, 1)
                if rnd < self._round - 1:
                    self.counters["stale_frames"] += 1
                    return
                row = self._expected[(phase, step)]
                if sender != row.recv_from:
                    raise ValueError(f"rank {sender} does not send {phase}/{step}")
                size = row.recv.stop - row.recv.start
                self._pending.setdefault((sender, phase, rnd, step), {})[
                    frag
                ] = chunk_payload(frame, 1 + _DATA_HEADER.size, "<f8", frag, size)
                if rnd == self._round:
                    self._missing.discard((sender, phase, step, frag))
            elif tag == b"R":
                _, phase, rnd, step = _REQ_HEADER.unpack_from(frame, 1)
                # Not sent yet (the peer is ahead) or pruned: it retries.
                resend = self._sent.get((phase, rnd, step), ())
                for message in resend:
                    self._send(message, self.peers[sender])
                self.counters["resends_served"] += bool(resend)
            elif tag == b"F":
                self._peer_done.add(sender)
                if self._hard_stop is not None:
                    self.done = self._peer_done >= self._others
            else:
                self.counters["decode_errors"] += 1
        except (struct.error, KeyError, ValueError):
            self.counters["decode_errors"] += 1

    # -- worker role hooks ----------------------------------------------
    def _submit(self, gradient: np.ndarray, round_index: int) -> None:
        self._round = round_index
        self._prune_caches()
        self._result = gradient.astype(np.float64)
        self._step = -1
        self._missing = set()

    def _collected(self, round_index: int) -> Optional[np.ndarray]:
        """Step the schedule as far as the fragments here allow: phase 0
        adds each received message into the accumulator, phase 1 takes
        it."""
        while not self._missing:
            if self._step >= 0:
                row = self.steps[self._step]
                key = (row.recv_from, row.phase, self._round, row.step)
                message = np.empty(row.recv.stop - row.recv.start)
                for index, payload in self._pending.pop(key).items():
                    start = index * CHUNK_ELEMS
                    message[start : start + payload.size] = payload
                if row.phase:
                    self._result[row.recv] = message
                else:
                    self._result[row.recv] += message
            self._step += 1
            if self._step == len(self.steps):
                return self._result
            self._exchange(self.steps[self._step])
        return None

    def _finish(self, now: float) -> None:
        """Linger: serve resend requests until every peer has finished.

        Drops happen at the *receiver*, so this worker's last
        transmissions may still be missing at a peer whose only recovery
        source is this worker's send cache.  A peer's ``F`` frame is the
        proof it needs nothing more; once all are in, the worker is done.
        Announce first, test second: the last rank to finish already
        holds every peer's ``F`` and must still send its own.
        """
        if self._hard_stop is None:
            self._hard_stop = now + LINGER_DEADLINE
        if now >= self._next_finish:
            finish = b"F" + bytes([self.rank])
            for peer in sorted(self._others):
                self._send(finish, self.peers[peer])
            self._next_finish = now + FINISH_RESEND_PERIOD
        self.done = self._peer_done >= self._others or now >= self._hard_stop
        self.next_timer = min(self._next_finish, self._hard_stop)


class LiveRingWorker(_PeerExchangeWorker):
    """Ring allreduce: N−1 reduce-scatter steps + N−1 all-gather steps."""

    name = "ring"


class LiveHdWorker(_PeerExchangeWorker):
    """Recursive halving/doubling: 2·log2(N) hypercube exchange steps.

    Requires a power-of-two worker count, like the simulator strategy.
    """

    name = "hd"
    schedule = staticmethod(hd_schedule)
