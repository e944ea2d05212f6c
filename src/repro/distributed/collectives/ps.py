"""Hub-based collective primitives: gather into, and scatter from, one host.

These model the parameter-server data path (Figure 1a): every pushed
vector crosses the hub's single link, and the hub's CPU — a
:class:`~repro.distributed.metrics.BusyQueue` — ingests vectors strictly
sequentially, which is the central bottleneck the paper measures.  The
same primitives back the *sharded* variant, where several hub instances
(one per shard, each with its own CPU queue and link) split the load.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union

import numpy as np

from ...netsim.node import Host
from ..transport import VECTOR_PORT, VectorReceiver, send_vector
from .base import HandleLedger, RoundBarrier

__all__ = ["PsGather", "PsScatter", "ps_gather", "ps_scatter"]

#: Either a fixed CPU occupancy in seconds or a per-vector cost callable
#: ``(src, tag, vector, meta) -> seconds``.
IngestCost = Union[float, Callable[[str, Any, Optional[np.ndarray], Any], float]]


class PsGather:
    """Workers push vectors to a hub host whose CPU ingests sequentially.

    Each received vector occupies the hub CPU for ``ingest_cost`` seconds
    (queued back to back with everything else the hub does), then
    ``on_vector(src, tag, vector, meta)`` fires.  With ``threshold`` set,
    ``on_round(tag)`` additionally fires inside the event that ingests
    the threshold-th vector of a tag — the synchronous-PS round barrier.
    """

    def __init__(
        self,
        hub: Host,
        cpu,
        ingest_cost: IngestCost,
        on_vector: Optional[Callable[[str, Any, Optional[np.ndarray], Any], None]] = None,
        threshold: Optional[int] = None,
        on_round: Optional[Callable[[Any], None]] = None,
        port: int = VECTOR_PORT,
        name: str = "ps_gather",
    ) -> None:
        self.hub = hub
        self.sim = hub.sim
        self.cpu = cpu
        self.ingest_cost = ingest_cost
        self.on_vector = on_vector
        self.port = port
        self.name = name
        self.handles = HandleLedger(name, self.sim)
        self._expected = threshold if threshold is not None else 1
        self._barrier = (
            RoundBarrier(threshold, on_round) if threshold is not None else None
        )
        VectorReceiver(hub, self._ingest, port=port)

    # ------------------------------------------------------------------
    def submit(
        self,
        worker,
        tag: Any,
        vector: Optional[np.ndarray],
        wire_bytes: int,
        meta: Any = None,
    ) -> None:
        """Stream one contribution from ``worker`` to the hub."""
        self.handles.get(tag, expected=self._expected).mark_started(worker.name)
        send_vector(
            worker.host,
            self.hub.name,
            tag=tag,
            vector=vector,
            wire_bytes=wire_bytes,
            port=self.port,
            meta=meta,
        )

    def submit_local(
        self, worker, tag: Any, vector: Optional[np.ndarray], meta: Any = None
    ) -> None:
        """Contribute without crossing the wire (hub co-located with worker).

        The contribution still occupies the hub CPU like any other; only
        the network hop is skipped.
        """
        self.handles.get(tag, expected=self._expected).mark_started(worker.name)
        self._ingest(worker.name, tag, vector, meta)

    # ------------------------------------------------------------------
    def _ingest(self, src: str, tag: Any, vector, meta) -> None:
        cost = self.ingest_cost
        busy = cost(src, tag, vector, meta) if callable(cost) else cost

        def ingested() -> None:
            self.handles.complete(tag, src)
            if self.on_vector is not None:
                self.on_vector(src, tag, vector, meta)
            if self._barrier is not None:
                self._barrier.arrive(tag)

        self.cpu.submit(busy, ingested)


class PsScatter:
    """A hub host fans vectors out to workers over its single link.

    ``on_deliver(worker, tag, vector, meta)`` fires on the receiving
    worker when a flow fully lands.  A broadcast serializes N copies
    through the hub's one transmit queue — the PS downlink bottleneck.
    """

    def __init__(
        self,
        hub: Host,
        workers: List,
        on_deliver: Callable[[Any, Any, Optional[np.ndarray], Any], None],
        port: int = VECTOR_PORT,
        name: str = "ps_scatter",
    ) -> None:
        self.hub = hub
        self.sim = hub.sim
        self.workers = workers
        self.on_deliver = on_deliver
        self.port = port
        self.name = name
        self.handles = HandleLedger(name, self.sim)
        for worker in workers:
            VectorReceiver(
                worker.host,
                lambda src, tag, vec, meta, w=worker: self._deliver(
                    w, tag, vec, meta
                ),
                port=port,
            )

    # ------------------------------------------------------------------
    def broadcast(
        self,
        tag: Any,
        vector: Optional[np.ndarray],
        wire_bytes: int,
        meta: Any = None,
    ) -> None:
        """Send one vector to every worker (single-link fan-out)."""
        for worker in self.workers:
            self.send_to(worker, tag, vector, wire_bytes, meta=meta)

    def send_to(
        self,
        worker,
        tag: Any,
        vector: Optional[np.ndarray],
        wire_bytes: int,
        meta: Any = None,
    ) -> None:
        """Send one vector to one worker."""
        handle = self.handles.get(tag)
        handle.expected += 1
        handle.mark_started(worker.name)
        if worker.host is self.hub:
            # Shard co-located with the worker: no wire, deliver in place.
            self._deliver(worker, tag, vector, meta)
            return
        send_vector(
            self.hub,
            worker.name,
            tag=tag,
            vector=vector,
            wire_bytes=wire_bytes,
            port=self.port,
            meta=meta,
        )

    # ------------------------------------------------------------------
    def _deliver(self, worker, tag: Any, vector, meta) -> None:
        self.handles.complete(tag, worker.name)
        self.on_deliver(worker, tag, vector, meta)


def ps_gather(hub, cpu, ingest_cost, **kwargs) -> PsGather:
    """Build a :class:`PsGather` (functional spelling of the primitive)."""
    return PsGather(hub, cpu, ingest_cost, **kwargs)


def ps_scatter(hub, workers, on_deliver, **kwargs) -> PsScatter:
    """Build a :class:`PsScatter` (functional spelling of the primitive)."""
    return PsScatter(hub, workers, on_deliver, **kwargs)
