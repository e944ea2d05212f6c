"""The host-level aggregation rules of the PS and AllReduce baselines, once.

The paper's baselines (Figure 1a, 1b) aggregate on hosts, not in the
switch.  Three rules decide what they compute, and each lives here, with
no host, packet, socket or clock; the simulator and the live backend
both drive them and only move bytes:

* :class:`RoundSums` — a round's float64 sum of N contributions, in rank
  order from +0.0 (the PS, ps-shard, and the simulator's fold for every
  host-level strategy).
* :func:`ring_schedule` / :func:`hd_schedule` — who sends which block to
  whom at each step of ring and recursive halving/doubling AllReduce.
* :class:`RankCyclicOrder` — the paced async PS's apply order: apply
  number ``k·N + w`` is rank ``w``'s cycle-``k`` push.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["ExchangeStep", "RankCyclicOrder", "RoundSums", "hd_schedule",
           "log2_exact", "ring_schedule"]


class RoundSums:
    """Rank-order float64 sums, one per key, of ``n_members`` contributions.

    :meth:`add` holds each contribution until the Nth distinct rank of its
    key lands, then sums them once.  A repeated rank, or a contribution to
    a key already summed, is dropped and counted in
    ``counters["duplicates_dropped"]`` (the driver's counters, if given).
    A sum stays in ``results`` — for resends, or for every replica to
    read — until the driver :meth:`release`\\ s its key.
    """

    def __init__(self, n_members: int, counters: Optional[Dict] = None) -> None:
        self.n_members = n_members
        #: key → rank → contribution, until the key is summed.
        self.pending: Dict[Hashable, Dict[int, np.ndarray]] = {}
        #: key → float64 sum, until released.
        self.results: Dict[Hashable, np.ndarray] = {}
        self.counters = {} if counters is None else counters
        self.counters.setdefault("duplicates_dropped", 0)

    def add(self, key: Hashable, rank: int, data: np.ndarray) -> Optional[np.ndarray]:
        """Hold ``data``; returns the key's sum if this completed it."""
        contribs = self.pending.get(key)
        if contribs is None and key not in self.results:
            contribs = self.pending[key] = {}
        if contribs is None or rank in contribs:
            self.counters["duplicates_dropped"] += 1
            return None
        contribs[rank] = data
        if len(contribs) < self.n_members:
            return None
        del self.pending[key]
        # Rank order from +0.0, so even the sign of a zero sum is pinned.
        total = np.zeros(data.shape, dtype=np.float64)
        for member in sorted(contribs):
            total += contribs[member]
        self.results[key] = total
        return total

    def release(self, key: Hashable) -> None:
        """Forget ``key``: its contributions and its sum."""
        self.pending.pop(key, None)
        self.results.pop(key, None)


class ExchangeStep(NamedTuple):
    """One step of one rank's AllReduce schedule: phase 0 reduces (the
    receiver adds what it gets), phase 1 gathers (the receiver takes it).
    ``send`` and ``recv`` are ranges ``(first, end)`` of the N blocks."""

    phase: int
    step: int
    send_to: int
    recv_from: int
    send: Tuple[int, int]
    recv: Tuple[int, int]


def ring_schedule(n: int, rank: int) -> List[ExchangeStep]:
    """Figure 1b: N−1 reduce-scatter steps, then N−1 all-gather steps,
    each sending one block right and receiving one from the left.  Block
    ``c`` starts its circuit at rank ``c``; rank ``r`` ends up owning the
    reduced block ``r + 1``."""
    if n < 2:
        raise ValueError(f"ring allreduce needs >= 2 workers, got {n}")
    right, left = (rank + 1) % n, (rank - 1) % n
    block = lambda index: (index % n, index % n + 1)
    return [
        ExchangeStep(phase, step, right, left,
                     block(rank + phase - step), block(rank + phase - step - 1))
        for phase in (0, 1)
        for step in range(n - 1)
    ]


def hd_schedule(n: int, rank: int) -> List[ExchangeStep]:
    """Recursive halving, then doubling: step ``k`` of the halving pairs
    ``rank`` with ``rank XOR 2^k``, which keeps the half of its blocks
    matching bit ``k`` of its rank and sends the other; the doubling
    replays those steps in reverse with the halves swapped."""
    lo, hi = 0, n
    halving = []
    for step in range(log2_exact(n)):
        partner = rank ^ (1 << step)
        mid = (lo + hi) // 2
        keep, give = ((mid, hi), (lo, mid)) if rank >> step & 1 else ((lo, mid), (mid, hi))
        halving.append(ExchangeStep(0, step, partner, partner, give, keep))
        lo, hi = keep
    return halving + [
        ExchangeStep(1, step, row.send_to, row.recv_from, row.recv, row.send)
        for step, row in enumerate(reversed(halving))
    ]


def log2_exact(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(
            f"halving/doubling needs a power-of-two worker count, got {n}"
        )
    return n.bit_length() - 1


class RankCyclicOrder:
    """Apply number ``k·N + w`` is rank ``w``'s cycle-``k`` item.

    Items that arrive early wait in ``buffered``; :meth:`drain` yields, in
    turn order, every item whose turn has come.  Arrival timing moves
    *when* an item is applied, never which one is applied next.
    """

    def __init__(self, n_members: int) -> None:
        self.n_members = n_members
        #: Items drained so far: the next turn is ``divmod(applied, N)``.
        self.applied = 0
        self.buffered: Dict[Tuple[int, int], Any] = {}

    def wants(self, cycle: int, rank: int) -> bool:
        """Neither applied already nor buffered."""
        return (
            cycle * self.n_members + rank >= self.applied
            and (cycle, rank) not in self.buffered
        )

    def offer(self, cycle: int, rank: int, item: Any) -> None:
        """Buffer ``item``, unless it was applied or buffered already."""
        if self.wants(cycle, rank):
            self.buffered[(cycle, rank)] = item

    def drain(self) -> Iterator[Tuple[int, int, Any]]:
        """``(cycle, rank, item)`` for every item whose turn has come."""
        while (due := divmod(self.applied, self.n_members)) in self.buffered:
            self.applied += 1
            yield (*due, self.buffered.pop(due))
