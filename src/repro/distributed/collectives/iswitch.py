"""The in-switch collective: ToS-tagged segment streaming (Figure 1c).

An :class:`ISwitchStream` owns one
:class:`~repro.core.client.AggregationClient` per worker, all sharing a
single :class:`~repro.core.protocol.SegmentPlan`.  Submitting a gradient
streams its segments to the worker's ToR accelerator, which aggregates
at packet granularity and broadcasts completed segments immediately —
the paper's 2-hop data path.  The primitive also carries the
accelerator-engine knobs asynchronous training needs (explicit threshold
H, arrival-order renumbering, bounded buffering), so strategies never
touch switch engines directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ...core.client import AggregationClient
from ...core.hierarchy import aggregation_switches, configure_aggregation
from ...core.protocol import SegmentPlan
from .base import HandleLedger

__all__ = ["ISwitchStream", "iswitch_stream", "make_plan", "MAX_CHUNKS"]

#: Cap on simulated packet-train events per vector transfer.
MAX_CHUNKS = 64


def make_plan(
    n_elements: int, wire_bytes: int, max_chunks: int = MAX_CHUNKS, codec=None
) -> SegmentPlan:
    """Build a SegmentPlan for a real vector of ``n_elements`` floats whose
    wire footprint should emulate ``wire_bytes`` (the paper model size).

    ``codec`` applies that codec's frame geometry (element width and
    per-frame overhead), shrinking the wire footprint accordingly.  The
    emulation multiplier is always derived from the *fp32* footprint —
    it counts how many copies of the paper model the real vector stands
    in for, which is codec-independent, so a codec's bytes-on-wire
    reduction shows up undiluted in the accounting.
    """
    base = SegmentPlan(n_elements)
    frames_per_chunk = max(1, -(-base.n_frames // max_chunks))
    multiplier = max(1, round(wire_bytes / base.wire_bytes))
    if codec is None:
        return SegmentPlan(
            n_elements,
            frames_per_chunk=frames_per_chunk,
            wire_multiplier=multiplier,
        )
    return SegmentPlan(
        n_elements,
        frames_per_chunk=frames_per_chunk,
        wire_multiplier=multiplier,
        bytes_per_element=codec.bytes_per_element,
        frame_overhead=codec.frame_overhead,
    )


class ISwitchStream:
    """Per-worker aggregation clients over the in-switch fabric.

    ``on_round(worker, round_index, vector)`` fires on each worker as the
    switch's broadcast of that round fully reassembles there.
    """

    def __init__(
        self,
        net,
        workers: List,
        wire_bytes: int,
        on_round: Callable[[object, int, np.ndarray], None],
        recovery_timeout: Optional[float] = None,
        threshold: Optional[int] = None,
        arrival_renumber: bool = False,
        buffer_rounds: Optional[int] = None,
        max_recovery_attempts: Optional[int] = None,
        on_round_abandoned: Optional[Callable[[object, int], None]] = None,
        name: str = "iswitch_stream",
        job: int = 0,
        codec=None,
    ) -> None:
        self.net = net
        self.sim = net.sim
        self.workers = workers
        self.on_round = on_round
        self.name = name
        self.job = job
        self.codec = codec
        configure_aggregation(net, job=job)
        switches = aggregation_switches(net)
        n_params = workers[0].algorithm.n_params
        self.plan = make_plan(n_params, wire_bytes, codec=codec)
        self.handles = HandleLedger(name, self.sim)
        # Leaf switches aggregate their local members; an explicit H only
        # makes sense in the flat (single-switch) deployment.
        if threshold is not None:
            if len(switches) != 1:
                raise ValueError(
                    "explicit H is only supported on a single-switch topology"
                )
            switches[0].jobs.get(job).engine.set_threshold(threshold)
        for switch in switches:
            engine = switch.jobs.get(job).engine
            # Help is only asked about a round some member still waits
            # for: synchronous members are at most one round apart,
            # asynchronous ones at most the buffered window.  A cached
            # result pins its round's whole buffer, so the cache is sized
            # in rounds — two windows, because eviction halves it.
            engine.cache_size = self.plan.n_chunks * 2 * (buffer_rounds or 1)
            if arrival_renumber:
                # Arrival-order renumbering gives the paper's true async
                # semantics: the next H arriving vectors form a round,
                # letting fast workers contribute more than once.
                engine.arrival_renumber = self.plan.n_chunks
                if buffer_rounds is not None:
                    engine.buffer_limit = self.plan.n_chunks * buffer_rounds
        self.clients: List[AggregationClient] = []
        for worker, tor in zip(workers, net.tor_of_worker):
            worker_self = worker
            client = AggregationClient(
                worker.host,
                tor.name,
                self.plan,
                on_round_complete=lambda rnd, vec, w=worker_self: self._complete(
                    w, rnd, vec
                ),
                recovery_timeout=recovery_timeout,
                job=job,
                codec=codec,
                max_recovery_attempts=max_recovery_attempts,
                on_round_abandoned=(
                    None
                    if on_round_abandoned is None
                    else lambda rnd, w=worker_self: on_round_abandoned(w, rnd)
                ),
            )
            if recovery_timeout is None:
                # No Help will ever complete a round that lost a chunk;
                # past the engine's buffered window it is dead weight.
                client.partial_window = buffer_rounds
            self.clients.append(client)

    # ------------------------------------------------------------------
    def submit(self, worker, gradient: np.ndarray, round_index: int) -> None:
        """Stream one gradient contribution into round ``round_index``.

        ``gradient`` now belongs to the datapath: the switch may sum the
        round into it, so the caller must not read it again.
        """
        self.handles.get(round_index, expected=len(self.workers)).mark_started(
            worker.name
        )
        self.clients[worker.index].send_gradient(
            gradient, round_index=round_index
        )

    def _complete(self, worker, round_index: int, vector: np.ndarray) -> None:
        self.handles.complete(round_index, worker.name)
        self.on_round(worker, round_index, vector)


def iswitch_stream(net, workers, wire_bytes, on_round, **kwargs) -> ISwitchStream:
    """Build an :class:`ISwitchStream` (functional spelling)."""
    return ISwitchStream(net, workers, wire_bytes, on_round, **kwargs)
