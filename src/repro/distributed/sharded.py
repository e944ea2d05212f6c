"""Sharded parameter server: the PS data path split across K hosts.

Classic parameter-server training funnels every byte and every
framework-level tensor exchange through one host (Figure 1a's central
bottleneck).  The sharded variant — the BytePS/co-located style — slices
the model into K shards, each owned by a *shard server* running on one of
the worker hosts:

* push: every worker sends shard ``k`` of its gradient (≈M/K bytes) to
  shard host ``k``; the contribution to a worker's *own* shard never
  crosses the wire.
* reduce: each shard host's CPU ingests its N contributions sequentially
  (its own :class:`~repro.distributed.metrics.BusyQueue`), paying 1/K of
  the PS ingest/update cost per contribution.
* pull: once a shard's round is complete, the shard host broadcasts the
  reduced shard to all workers; a worker applies the update when all K
  shards have landed.

The data path stays 2 network hops like the PS, but both the CPU
serialization and the single-link load divide by K.  Built entirely from
the :class:`PsGather`/:class:`PsScatter` primitives — one instance pair
per shard — which is the extensibility point of the collectives layer:
no new transport or round bookkeeping was needed.

Transfers are timing-only (like Ring-AllReduce's); every worker folds
the identical full-round sum at delivery, so ps-shard rides the same
weight trajectory as every other synchronous strategy.
"""

from __future__ import annotations

from typing import List, Optional

from ..netsim.topology import Network
from ..workloads.calibration import DEFAULT_COST_MODEL, CostModel
from ..workloads.profiles import WorkloadProfile
from .collectives import PsGather, PsScatter, RoundBarrier
from .metrics import BusyQueue
from .registry import register_strategy
from .sync import SyncStrategy
from .worker import SimWorker

__all__ = ["ShardedParameterServer", "DEFAULT_SHARDS"]

#: Default shard count (clamped to the worker count).
DEFAULT_SHARDS = 4

#: Every shard's gather hub listens here (hubs are distinct hosts); each
#: shard's scatter uses its own port on all workers.
SHARD_GATHER_PORT = 7821
SHARD_SCATTER_PORT_BASE = 7830


@register_strategy("sync", "ps-shard", supports_live=True)
class ShardedParameterServer(SyncStrategy):
    """Parameter server sharded across K worker-co-located hosts."""

    name = "sync-ps-shard"

    def __init__(
        self,
        net: Network,
        workers: List[SimWorker],
        profile: WorkloadProfile,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        n_shards: Optional[int] = None,
    ) -> None:
        # _setup() runs inside the base __init__, so the shard count must
        # be in place before delegating.
        self._requested_shards = n_shards
        super().__init__(net, workers, profile, cost_model)

    @classmethod
    def create(cls, net, workers, profile, config) -> "ShardedParameterServer":
        return cls(
            net, workers, profile, config.cost_model, n_shards=config.ps_shards
        )

    # ------------------------------------------------------------------
    def _setup(self) -> None:
        n = len(self.workers)
        if n < 2:
            raise ValueError("ps-shard needs at least 2 workers")
        requested = self._requested_shards or DEFAULT_SHARDS
        if requested < 1:
            raise ValueError(f"n_shards must be >= 1, got {requested}")
        self.n_shards = min(requested, n)
        k = self.n_shards
        # Near-equal byte split of the model across shards.
        base, extra = divmod(self.wire_bytes, k)
        self.shard_bytes = [max(1, base + (1 if i < extra else 0)) for i in range(k)]
        messages = self.profile.message_count
        # Each shard carries 1/K of the bytes *and* 1/K of the per-tensor
        # framework work (the slicing is below the tensor-exchange level).
        ingest = self.cost.server_ingest(self.wire_bytes, messages) / k
        self._shard_update = (
            self.cost.server_update(
                self.wire_bytes, messages, self.profile.update_cost_factor
            )
            / k
        )
        self.shard_cpus: List[BusyQueue] = []
        self.gathers: List[PsGather] = []
        self.scatters: List[PsScatter] = []
        self._delivered = RoundBarrier(k, self._all_shards_delivered)
        for shard in range(k):
            hub = self.workers[shard].host
            cpu = BusyQueue(self.sim, name=f"shard{shard}")
            self.shard_cpus.append(cpu)
            self.gathers.append(
                PsGather(
                    hub,
                    cpu,
                    ingest_cost=ingest,
                    threshold=n,
                    on_round=lambda tag, s=shard: self._shard_round_complete(
                        s, tag
                    ),
                    port=SHARD_GATHER_PORT,
                    name=f"ps_shard_gather{shard}",
                )
            )
            self.scatters.append(
                PsScatter(
                    hub,
                    self.workers,
                    on_deliver=lambda w, tag, vec, meta: self._shard_delivered(
                        w, tag
                    ),
                    port=SHARD_SCATTER_PORT_BASE + shard,
                    name=f"ps_shard_scatter{shard}",
                )
            )

    # ------------------------------------------------------------------
    def _submit_gradient(self, worker, gradient, iteration) -> None:
        # Shard slices are timing-only; the true sum is folded at delivery.
        for shard, gather in enumerate(self.gathers):
            if shard == worker.index:
                gather.submit_local(worker, iteration, None)
            else:
                gather.submit(
                    worker,
                    iteration,
                    None,
                    wire_bytes=self.shard_bytes[shard],
                )

    def _shard_round_complete(self, shard: int, iteration) -> None:
        # All N contributions to this shard ingested: run this shard's
        # slice of the weight update, then fan the reduced shard out.
        self.shard_cpus[shard].submit(
            self._shard_update,
            lambda: self.scatters[shard].broadcast(
                iteration, None, wire_bytes=self.shard_bytes[shard]
            ),
        )

    def _shard_delivered(self, worker, iteration) -> None:
        self._delivered.arrive((iteration, worker.index))

    def _all_shards_delivered(self, key) -> None:
        iteration, worker_index = key
        worker = self.workers[worker_index]
        self._deliver_sum(worker, self._shared_round_sum(iteration), iteration)
