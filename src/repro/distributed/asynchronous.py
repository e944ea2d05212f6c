"""Asynchronous distributed training: the PS baseline and iSwitch's
pipelined, decentralized rethink (paper §4, Algorithm 1).

Both strategies are thin compositions of the collective primitives in
:mod:`repro.distributed.collectives`; they own the *policy* (staleness
accounting, Algorithm 1's two logical threads) while the primitives own
the *data path*.

**AsyncParameterServer** (Figure 3): the server keeps the authoritative
weights (a full *server replica* of the algorithm, so optimizer state,
target networks and update counting are exactly the centralized
training's).  Each worker loops: pull weights → local gradient computing →
push gradient → pull again.  Pushes land through a per-vector
:class:`PsGather` (the server CPU ingests and applies each gradient
sequentially); pulls are served back through a :class:`PsScatter`.
Gradient *staleness* — how many server updates happened between a
worker's pull and its push being applied — is an emergent, measured
quantity.

**AsyncISwitch** (Algorithm 1): no server.  Each worker runs two logical
threads over one :class:`ISwitchStream`:

* the **LGC thread** snapshots the weights (version ``tw = ts``), computes
  a gradient against the snapshot over the modelled duration, and commits
  it to the switch *only if* ``ts − tw <= S`` (the staleness bound),
  tagging the commit with the current round ``ts``.  Commits are
  non-blocking: the next LGC starts immediately (the three-stage
  pipeline, Figure 11).
* the **LWU thread** receives each aggregated gradient broadcast by the
  switch and applies ``w ← w − γ · g_sum / H``.  All replicas receive the
  same broadcasts from the same initial weights, so the decentralized
  weight copies agree forever — no parameter server needed.

Because commits are tagged with the live round, a fast worker can
contribute several gradients to one aggregation round while a slow worker
contributes none ("faster workers contribute more to the aggregation,
while slower workers commit less without blocking the training").
Contributions that arrive after their round already completed can never
reach H again; the accelerator's bounded buffer evicts them, modelling
both the BRAM budget and async training's tolerance for dropped stale
gradients.

**Fixed schedules**: emergent async training is timing-dependent, so two
backends cannot be bit-compared; ``ExperimentConfig(deterministic_aggregation=True)``
fixes the *schedule* while leaving the data path untouched (the sim↔live
conformance suite, DESIGN.md §9.4).  Async-isw needs one for a second
reason: arrival renumbering cannot recover a lost packet.

* async-isw: every run that arms recovery — ``loss_rate > 0``, a
  ``fault_plan``, an explicit ``recovery_timeout`` — or sets
  ``deterministic_aggregation`` is handed by :meth:`AsyncISwitch.create` to
  the synchronous template with its staleness window opened to S —
  :meth:`repro.distributed.sync.SyncStrategy._step`, the rule the live
  ``LiveWorkerBase.on_timer`` runs, and at S = 0 sync-isw itself, with
  sync-isw's Help recovery and membership and rank-order sums.  Every
  applied gradient's version gap is ``min(r, S)``, which makes the bound
  tight and checkable.
* async-ps (``paced``, ``deterministic_aggregation`` only): the server
  applies pushes in rank-cyclic order
  ``(cycle 0, w0) .. (cycle 0, wN-1), (cycle 1, w0) ..`` (buffering
  out-of-order arrivals in ``core.baselines.RankCyclicOrder``, the order
  the live server keeps too) and ships the post-apply weights straight back
  to the pushing worker, so worker ``w``'s cycle-``k`` pull is
  deterministically version ``(k-1)·N + w + 1`` and its staleness is
  exactly ``N - 1`` (``w`` on the cold-start cycle).  The worker loop is
  the emergent one; who asks for the pull and which buffered push the
  server applies next are all that differ.  A fault plan pauses that
  loop, so paced mode refuses one.

Arrival jitter still exists in both backends — it just moves *when*
values land, never *which* values, so live processes under real
scheduling noise must reproduce the simulator bit for bit.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np

from ..core.baselines import RankCyclicOrder
from ..netsim.packets import Packet
from ..netsim.topology import Network
from ..netsim.trace import LatencyStats
from ..rl.base import Algorithm
from ..telemetry import scrape
from ..workloads.calibration import DEFAULT_COST_MODEL, CostModel
from ..workloads.profiles import WorkloadProfile
from .collectives import ISwitchStream, PsGather, PsScatter
from .config import resolve_codec as _resolve_codec
from .metrics import BusyQueue
from .registry import register_strategy
from .results import TrainingResult
from .sync import SyncISwitch
from .worker import SimWorker

__all__ = ["AsyncParameterServer", "AsyncISwitch"]

#: Tiny request packet for a weight pull.
PULL_REQUEST_BYTES = 64

#: Ports of the async PS data paths (push / pull-request / weights-down).
PUSH_PORT = 7811
PULL_REQUEST_PORT = 7812
WEIGHTS_PORT = 7813


def _digest(vector, dtype) -> str:
    """The differential artifact both backends record per aggregate."""
    data = np.ascontiguousarray(vector, dtype=dtype)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


@register_strategy("async", "ps", requires_server=True, supports_live=True)
class AsyncParameterServer:
    """Figure 3: asynchronous training with a central parameter server."""

    name = "async-ps"

    def __init__(
        self,
        net: Network,
        workers: List[SimWorker],
        profile: WorkloadProfile,
        server_algorithm: Algorithm,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        staleness_bound: int = 3,
        paced: bool = False,
    ) -> None:
        if net.server is None:
            raise ValueError("async PS needs a topology built with a server host")
        self.net = net
        self.sim = net.sim
        self.workers = workers
        self.profile = profile
        self.cost = cost_model
        self.staleness_bound = staleness_bound
        self.wire_bytes = profile.model_bytes
        self.server = net.server
        self.server_cpu = BusyQueue(self.sim, name="server")
        #: The server-side replica holding the authoritative weights.
        self.replica = server_algorithm
        self.server_updates = 0
        self.sim.telemetry.watch(scrape.async_server, self)
        #: ``run(n)``'s n: server applies (paced: cycles per worker).
        self.target = 0
        self.staleness = LatencyStats()
        self._push_seq = 0
        self._done = False
        #: Fault-injection state: paused worker indices, and those whose
        #: pull->compute->push loop actually died while paused (only
        #: they need a fresh pull on restore — blindly re-pulling a loop
        #: that survived the pause window would fork a second loop).
        self._paused: set = set()
        self._pause_dropped: set = set()
        #: Paced (deterministic) schedule for the conformance suite: the
        #: server applies pushes in rank-cyclic order and pushes weights
        #: straight back, so staleness is a closed-form quantity (module
        #: docstring).  ``run(n)`` then means n *cycles per worker*.
        self.paced = paced
        self._order = RankCyclicOrder(len(workers))
        #: Per-worker sha256 digests of each pulled weight vector (paced
        #: mode only) — the live backend's differential artifact.
        self.worker_digests: List[List[str]] = [[] for _ in workers]

        # Every pushed gradient occupies the server CPU for ingest +
        # optimizer update back to back, then is applied (per-vector
        # completion: no round barrier in asynchronous training).
        messages = self.profile.message_count
        busy = self.cost.server_ingest(
            self.wire_bytes, messages
        ) + self.cost.server_update(
            self.wire_bytes, messages, self.profile.update_cost_factor
        )
        self.gather = PsGather(
            self.server,
            self.server_cpu,
            ingest_cost=busy,
            on_vector=self._gradient_arrived,
            port=PUSH_PORT,
        )
        self.server.bind(PULL_REQUEST_PORT, self._server_on_pull_request)
        self.scatter = PsScatter(
            self.server,
            self.workers,
            on_deliver=lambda w, tag, vec, meta: self._worker_on_weights(
                w, vec, meta
            ),
            port=WEIGHTS_PORT,
        )

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, net: Network, workers: List[SimWorker], profile, config
    ) -> "AsyncParameterServer":
        """Registry hook: build a runner from an ExperimentConfig."""
        from .runner import make_algorithm  # deferred: runner imports us

        if config.deterministic_aggregation and config.fault_plan is not None:
            # The paced schedule redefines who pulls when, and the fault
            # hooks pause and restart the emergent pull loop.
            raise ValueError(
                "async-ps: deterministic_aggregation=True (the paced "
                "schedule) and a fault_plan do not compose; drop one"
            )
        server_algorithm = make_algorithm(
            config.workload,
            seed=config.seed + 10_000,
            **(config.algorithm_overrides or {}),
        )
        return cls(
            net,
            workers,
            profile,
            server_algorithm,
            config.cost_model,
            staleness_bound=config.staleness_bound,
            paced=config.deterministic_aggregation,
        )

    def run(self, n_updates: int) -> TrainingResult:
        """Simulate until the server has applied ``n_updates`` gradients.

        In paced mode ``n_updates`` counts *cycles per worker* instead
        (``n_updates * n_workers`` server applies), matching the live
        backend's per-worker iteration semantics.
        """
        if n_updates < 1:
            raise ValueError(f"n_updates must be >= 1, got {n_updates}")
        start = self.sim.now
        self.target = n_updates
        for worker in self.workers:
            if self.paced:
                # Cycle 0 computes against the worker's own init, which is
                # the server's by ``init_seed``: nothing to pull.
                self._compute_and_push(worker, 0, start)
            else:
                self._send_pull(worker)
        self.sim.run()
        result = TrainingResult.of(
            self,
            self.target if self.paced else self.server_updates,
            self.sim.now - start,
        )
        result.mean_staleness = self.staleness.mean
        result.max_staleness = self.staleness.max
        result.server_busy_time = self.server_cpu.busy_time
        if self.paced:
            result.worker_digests = dict(enumerate(self.worker_digests))
        return result

    # ------------------------------------------------------------------
    # Worker side: ingest weights -> compute -> push
    # ------------------------------------------------------------------
    def _send_pull(self, worker: SimWorker) -> None:
        worker.host.send(
            Packet(
                src=worker.name,
                dst=self.server.name,
                payload_size=PULL_REQUEST_BYTES,
                payload=worker.index,
                src_port=PULL_REQUEST_PORT,
                dst_port=PULL_REQUEST_PORT,
            )
        )

    def _loop_alive(self, worker: SimWorker) -> bool:
        """Checkpoint of a worker's loop: it dies here once the run is
        done, or while paused (``fault_restore_worker`` re-pulls)."""
        if self._done:
            return False
        if worker.index in self._paused:
            self._pause_dropped.add(worker.index)
            return False
        return True

    def _worker_on_weights(self, worker: SimWorker, weights, version) -> None:
        if not self._loop_alive(worker):
            return
        ingest = self.cost.worker_ingest(
            self.wire_bytes, self.profile.message_count
        )
        pulled_at = self.sim.now

        def ingested() -> None:
            if self.paced:
                self.worker_digests[worker.index].append(
                    _digest(weights, np.float64)
                )
            worker.algorithm.set_weights(weights)
            worker.algorithm.on_weights_pulled(version)
            if not self.paced or worker.iterations_done < self.target:
                self._compute_and_push(worker, version, pulled_at)

        self.sim.schedule(ingest, ingested)

    def _compute_and_push(
        self, worker: SimWorker, version: int, pulled_at: float
    ) -> None:
        """One cycle against the weights just ingested (``version``)."""

        def push(gradient: np.ndarray) -> None:
            telemetry = self.sim.telemetry
            if telemetry.enabled:
                # Async "iteration": one pull -> compute -> push cycle.
                telemetry.span_at(
                    "iteration",
                    pulled_at,
                    self.sim.now,
                    cat="training",
                    track=worker.name,
                    version=version,
                )
            cycle = worker.iterations_done
            worker.finish_iteration()
            self._push_seq += 1
            self.gather.submit(
                worker,
                self._push_seq,
                gradient,
                wire_bytes=self.wire_bytes,
                meta=(worker.index, cycle, version),
            )
            # Who asks for the next weights: the worker, unless the paced
            # server answers every applied push on its own.
            if not self.paced:
                self._send_pull(worker)

        worker.start_lgc(
            push, alive=lambda: self._loop_alive(worker), version=version
        )

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def fault_crash_worker(self, worker: SimWorker) -> bool:
        """Crash = stop this worker's pull->compute->push loop.

        The server keeps applying other workers' pushes (asynchrony is
        the whole point); this worker's in-flight cycle is dropped at its
        next checkpoint.
        """
        if len(self._paused) >= len(self.workers) - 1:
            return False  # keep at least one worker feeding the server
        self._paused.add(worker.index)
        return True

    def fault_restore_worker(self, worker: SimWorker) -> bool:
        if worker.index not in self._paused:
            return True
        self._paused.discard(worker.index)
        if worker.index in self._pause_dropped:
            # The loop actually died during the outage; restart it with a
            # fresh pull (which also resyncs weights from the server —
            # the PS architecture's built-in recovery).
            self._pause_dropped.discard(worker.index)
            if not self._done:
                self._send_pull(worker)
        return True

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _server_on_pull_request(self, packet) -> None:
        self.server_cpu.submit(
            self.cost.pull_serve(self.wire_bytes, self.profile.message_count),
            lambda: self._send_weights(packet.payload),
        )

    def _send_weights(self, worker_index: int) -> None:
        self.scatter.send_to(
            self.workers[worker_index],
            tag=("w", self.server_updates, worker_index),
            vector=self.replica.get_weights(),
            wire_bytes=self.wire_bytes,
            meta=self.server_updates,
        )

    def _gradient_arrived(self, src, tag, gradient, meta) -> None:
        """Fires when one push has finished its server CPU occupancy.

        Which push the server applies next: the one that just arrived —
        or, paced, every buffered one that is next in rank-cyclic order
        (a pure function of (cycle, rank), never of arrival timing).
        """
        if self._done:
            return
        worker_index, cycle, version = meta
        if not self.paced:
            self._apply(gradient, version)
            if self.server_updates >= self.target:
                self._done = True
            return
        self._order.offer(cycle, worker_index, (gradient, version))
        for _, rank, (gradient, version) in self._order.drain():
            self._apply(gradient, version)
            self._send_weights(rank)  # the pushing rank's personal pull

    def _apply(self, gradient: np.ndarray, version: int) -> None:
        staleness = self.server_updates - version
        self.staleness.record(staleness)
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.observe("server.staleness", float(staleness))
        self.replica.apply_update(np.asarray(gradient, dtype=np.float64))
        self.server_updates += 1


class _WindowedAsyncISwitch(SyncISwitch):
    """async-isw on a fixed schedule: sync-isw's own skeleton with the
    staleness window open (``create`` sets S).  What asynchronous training
    measures on top — commits, every applied gradient's version gap, the
    per-round digest live is compared on — hangs off the submit and apply
    steps, so no synchronous run pays for it."""

    name = "async-isw"

    def _setup(self) -> None:
        super()._setup()
        self.staleness = LatencyStats()
        self.sim.telemetry.watch(scrape.async_workers, self)
        #: Per worker: the rounds applied when gradient k was computed, by
        #: k, and the digest of every sum applied.
        self._versions: List[Dict[int, int]] = [{} for _ in self.workers]
        self._digests: List[List[str]] = [[] for _ in self.workers]

    def _submit_gradient(self, worker, gradient, iteration) -> None:
        self._versions[worker.index][iteration] = self._applied[worker.index]
        super()._submit_gradient(worker, gradient, iteration)

    def _resync(self, source, worker) -> None:
        super()._resync(source, worker)
        # ... and with it the stream of sums that made that replica.
        self._digests[worker.index] = list(self._digests[source.index])

    @property
    def worker_commits(self) -> List[int]:
        return [len(versions) for versions in self._versions]

    def _apply_sum(self, worker, summed, iteration) -> None:
        self._digests[worker.index].append(_digest(summed, np.float32))
        self.staleness.record(iteration - self._versions[worker.index][iteration])
        super()._apply_sum(worker, summed, iteration)

    def _finalize(self, result: TrainingResult) -> None:
        super()._finalize(result)
        result.mean_staleness = self.staleness.mean
        result.max_staleness = self.staleness.max
        result.commits = sum(self.worker_commits)
        result.skipped_commits = 0
        # Every replica applies the same broadcast stream, so the digest
        # lists must agree — surface rank 0's as the run's.
        result.round_digests = self._digests[0]
        result.worker_digests = dict(enumerate(self._digests))


@register_strategy(
    "async",
    "isw",
    requires_iswitch=True,
    supports_multijob=True,
    supports_live=True,
)
class AsyncISwitch:
    """Algorithm 1: decentralized asynchronous training through the switch,
    on a lossless fabric (``create`` sends every other run to the windowed
    schedule)."""

    name = "async-isw"

    def __init__(
        self,
        net: Network,
        workers: List[SimWorker],
        profile: WorkloadProfile,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        staleness_bound: int = 3,
        threshold: Optional[int] = None,
        job: int = 0,
        codec=None,
    ) -> None:
        self.net = net
        self.job = job
        self.codec = codec
        self.sim = net.sim
        self.workers = workers
        self.profile = profile
        self.cost = cost_model
        self.staleness_bound = staleness_bound
        self.wire_bytes = profile.model_bytes
        self.h = threshold if threshold is not None else len(workers)
        if self.h < 1:
            raise ValueError(f"aggregation threshold H must be >= 1, got {self.h}")
        self.target_updates = 0
        self.staleness = LatencyStats()
        #: Per worker: gradients committed, and commits past the staleness
        #: bound.
        self.worker_commits = [0 for _ in workers]
        self.worker_skipped_commits = [0 for _ in workers]
        self.sim.telemetry.watch(scrape.async_workers, self)
        self._done = False
        #: Per-worker shared iteration index ts (LWU-thread state).
        self._ts: List[int] = [0 for _ in workers]
        #: Per-worker simulated time of the last applied update (telemetry).
        self._last_update: List[float] = [self.sim.now for _ in workers]

        self.stream = ISwitchStream(
            net,
            workers,
            self.wire_bytes,
            on_round=lambda w, rnd, vec: self._lwu(w, vec),
            threshold=threshold,
            arrival_renumber=True,
            buffer_rounds=staleness_bound + 4,
            job=job,
            codec=codec,
        )
        self.plan = self.stream.plan
        self.clients = self.stream.clients

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, net: Network, workers: List[SimWorker], profile, config):
        """Registry hook: build a runner from an ExperimentConfig."""
        if (
            config.deterministic_aggregation
            or config.resolved_recovery_timeout() is not None
        ):
            # A run that can lose a packet, or must be reproducible, runs
            # the windowed schedule (module docstring).
            return _WindowedAsyncISwitch.create(
                net, workers, profile, config,
                staleness_bound=config.staleness_bound,
            )
        return cls(
            net,
            workers,
            profile,
            config.cost_model,
            staleness_bound=config.staleness_bound,
            job=getattr(config, "job_id", 0),
            codec=_resolve_codec(config),
        )

    def run(self, n_updates: int) -> TrainingResult:
        """Simulate until every worker has applied ``n_updates`` updates."""
        if n_updates < 1:
            raise ValueError(f"n_updates must be >= 1, got {n_updates}")
        self.target_updates = n_updates
        start = self.sim.now
        for worker in self.workers:
            self._start_lgc(worker)
        self.sim.run()
        result = TrainingResult.of(self, min(self._ts), self.sim.now - start)
        result.mean_staleness = self.staleness.mean
        result.max_staleness = self.staleness.max
        result.commits = sum(self.worker_commits)
        result.skipped_commits = sum(self.worker_skipped_commits)
        return result

    # ------------------------------------------------------------------
    # LGC thread
    # ------------------------------------------------------------------
    def _start_lgc(self, worker: SimWorker) -> None:
        if self._done:
            return
        index = worker.index
        tw = self._ts[index]

        def commit(gradient: np.ndarray) -> None:
            ts = self._ts[index]
            if ts - tw <= self.staleness_bound:
                self.staleness.record(ts - tw)
                self.worker_commits[index] += 1
                self.stream.submit(worker, gradient, ts)
            else:
                self.worker_skipped_commits[index] += 1
            self._start_lgc(worker)  # non-blocking commit: pipeline on

        # The gradient is computed against the weights the LGC thread copies
        # now, at iteration tw (Algorithm 1 line "copy updated weight").
        worker.start_lgc(
            commit,
            alive=lambda: not self._done,
            against=worker.algorithm.get_weights(),
            tw=tw,
        )

    # ------------------------------------------------------------------
    # LWU thread
    # ------------------------------------------------------------------
    def _lwu(self, worker: SimWorker, summed: np.ndarray) -> None:
        if self._done and self._ts[worker.index] >= self.target_updates:
            return
        ingest = self.cost.worker_ingest(
            self.wire_bytes, self.profile.message_count
        )
        lwu = worker.compute.lwu_duration()

        def apply() -> None:
            worker.algorithm.apply_update(
                np.divide(summed, self.h, dtype=np.float64)
            )
            self._ts[worker.index] += 1
            worker.finish_iteration()
            telemetry = self.sim.telemetry
            if telemetry.enabled:
                # Async "iteration": interval between consecutive weight
                # updates at this replica (the paper's §5.2 definition).
                telemetry.span_at(
                    "iteration",
                    self._last_update[worker.index],
                    self.sim.now,
                    cat="training",
                    track=worker.name,
                    ts=self._ts[worker.index],
                )
            self._last_update[worker.index] = self.sim.now
            if min(self._ts) >= self.target_updates:
                self._done = True

        self.sim.schedule(ingest + lwu, apply, name=f"lwu:w{worker.index}")
