"""Chained peer-exchange collectives: ring and hypercube schedules.

A :class:`RingExchange` runs each participant through a fixed chain of
steps.  At step ``s`` a worker sends a timing-only chunk to a
schedule-defined peer, and on receiving its own step-``s`` chunk pays the
per-step framework cost before issuing step ``s+1``.  The partial sums
are timing-only (``vector=None`` flows); the true reduction is computed
once, at completion, by the strategy — every worker folds the identical
sum, which is what keeps all synchronous data paths on the same weight
trajectory.

Two schedule families are provided, their peers read from the tables
the live backend runs too (:func:`repro.core.baselines.ring_schedule`,
:func:`~repro.core.baselines.hd_schedule`):

* **Ring** (Figure 1b): :func:`ring_reduce_scatter` +
  :func:`ring_all_gather` — 2(N−1) steps of M/N bytes to the next
  neighbour, the classic bandwidth-optimal but latency-poor ring.
* **Hypercube** (recursive halving/doubling): :func:`hd_reduce_scatter`
  + :func:`hd_all_gather` — 2·log2(N) steps pairing worker ``i`` with
  ``i XOR 2^k``, halving the payload each reduce step.  Far fewer
  per-step overheads, which wins on small models and moderate N.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

from ...core.baselines import hd_schedule, log2_exact, ring_schedule
from ..transport import VectorReceiver, send_vector
from .base import HandleLedger, RoundBarrier

__all__ = [
    "RingSchedule",
    "RingExchange",
    "ring_reduce_scatter",
    "ring_all_gather",
    "hd_reduce_scatter",
    "hd_all_gather",
    "RING_PORT",
]

#: Port the sync Ring-AllReduce has always used for its step messages.
RING_PORT = 7801


class RingSchedule(NamedTuple):
    """One phase of a chained exchange: ``n_steps`` steps, the peer
    ``peer_of(worker_index, step)`` a worker sends to at each (phase-local)
    step, and the bytes ``bytes_of(step)`` it moves."""

    n_steps: int
    peer_of: Callable[[int, int], int]
    bytes_of: Callable[[int], int]


class RingExchange:
    """Runs workers through the concatenated steps of several phases.

    A worker enters with :meth:`start` once its own contribution is ready
    (its LGC finished).  Chunks that arrive at a worker *before* it
    started are stalled — the receiver has no local value to fold them
    into — and are processed the moment it enters, exactly the
    fast-neighbour behaviour of the original Ring-AllReduce.
    """

    def __init__(
        self,
        sim,
        workers: List,
        phases: List[RingSchedule],
        step_cost: Callable[[int], float],
        on_complete: Callable[[Any, Any], None],
        port: int = RING_PORT,
        max_chunks: int = 8,
        name: str = "ring",
    ) -> None:
        self.sim = sim
        self.workers = workers
        self.phases = phases
        self.step_cost = step_cost
        self.on_complete = on_complete
        self.port = port
        self.max_chunks = max_chunks
        self.name = name
        self.total_steps = sum(p.n_steps for p in phases)
        self.handles = HandleLedger(name, sim)
        self._ready: Dict[Any, set] = {}
        self._finished = RoundBarrier(
            len(workers), lambda tag: self._ready.pop(tag, None)
        )
        #: Chunks that arrived before the receiver entered the round.
        self._stalled: Dict[tuple, list] = {}
        for worker in workers:
            VectorReceiver(
                worker.host,
                lambda src, tag, vec, meta, w=worker: self._on_message(w, tag),
                port=port,
            )

    # ------------------------------------------------------------------
    def _locate(self, step: int) -> tuple:
        """Map a global step index to (phase, phase-local step)."""
        for phase in self.phases:
            if step < phase.n_steps:
                return phase, step
            step -= phase.n_steps
        raise IndexError(f"step {step} beyond {self.total_steps}")

    def peer_of(self, worker_index: int, step: int) -> int:
        phase, local = self._locate(step)
        return phase.peer_of(worker_index, local)

    def bytes_of(self, step: int) -> int:
        phase, local = self._locate(step)
        return phase.bytes_of(local)

    # ------------------------------------------------------------------
    def start(self, worker, tag: Any) -> None:
        """Enter ``worker`` into round ``tag`` and send its first chunk."""
        self._ready.setdefault(tag, set()).add(worker.index)
        self.handles.get(tag, expected=len(self.workers)).mark_started(
            worker.name
        )
        self._send_step(worker, tag, step=0)
        for step in self._stalled.pop((tag, worker.index), []):
            self._process(worker, tag, step)

    def _send_step(self, worker, tag: Any, step: int) -> None:
        peer = self.workers[self.peer_of(worker.index, step)]
        send_vector(
            worker.host,
            peer.name,
            tag=(tag, step),
            vector=None,  # partial sums are timing-only; math happens at the end
            wire_bytes=self.bytes_of(step),
            port=self.port,
            max_chunks=self.max_chunks,
        )

    def _on_message(self, worker, tag_step: tuple) -> None:
        tag, step = tag_step
        if worker.index not in self._ready.get(tag, ()):
            # Fast peer: the chunk waits until this worker's own
            # contribution exists to be folded in.
            self._stalled.setdefault((tag, worker.index), []).append(step)
            return
        self._process(worker, tag, step)

    def _process(self, worker, tag: Any, step: int) -> None:
        # Per-step reduction cost on the receiving host, then forward the
        # next step (or finish after the final step).
        def reduced() -> None:
            if step + 1 < self.total_steps:
                self._send_step(worker, tag, step + 1)
            else:
                self._finish(worker, tag)

        self.sim.schedule(self.step_cost(self.bytes_of(step)), reduced)

    def _finish(self, worker, tag: Any) -> None:
        self._finished.arrive(tag)
        self.handles.complete(tag, worker.name)
        self.on_complete(worker, tag)


# ----------------------------------------------------------------------
# Peers come from the shared schedules (``core.baselines``); bytes per step
# are this simulator's cost model.
# ----------------------------------------------------------------------
def _phase(schedule, n_workers: int, phase: int, message_count: int, bytes_of):
    """One phase of ``schedule``, repeated once per exchanged tensor."""
    table = [
        [row.send_to for row in schedule(n_workers, rank) if row.phase == phase]
        for rank in range(n_workers)
    ]
    steps = len(table[0])
    return RingSchedule(
        steps * message_count, lambda i, s: table[i][s % steps], bytes_of
    )


def ring_reduce_scatter(
    n_workers: int, chunk_bytes: int, message_count: int = 1
) -> RingSchedule:
    """(N−1)·message_count steps of ``chunk_bytes`` to the next neighbour."""
    return _phase(ring_schedule, n_workers, 0, message_count, lambda s: chunk_bytes)


def ring_all_gather(
    n_workers: int, chunk_bytes: int, message_count: int = 1
) -> RingSchedule:
    """(N−1)·message_count steps circulating the reduced chunks."""
    return _phase(ring_schedule, n_workers, 1, message_count, lambda s: chunk_bytes)


def hd_reduce_scatter(
    n_workers: int, wire_bytes: int, message_count: int = 1
) -> RingSchedule:
    """log2(N)·message_count halving steps: step k pairs ``i`` with
    ``i XOR 2^k`` and moves half the previous step's bytes."""
    levels = log2_exact(n_workers)
    per_tensor = max(1, wire_bytes // message_count)
    return _phase(
        hd_schedule, n_workers, 0, message_count,
        lambda s: max(1, per_tensor >> ((s % levels) + 1)),
    )


def hd_all_gather(
    n_workers: int, wire_bytes: int, message_count: int = 1
) -> RingSchedule:
    """log2(N)·message_count doubling steps mirroring the halving phase."""
    levels = log2_exact(n_workers)
    per_tensor = max(1, wire_bytes // message_count)
    return _phase(
        hd_schedule, n_workers, 1, message_count,
        lambda s: max(1, per_tensor >> (levels - (s % levels))),
    )
