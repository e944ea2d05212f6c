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

**Deterministic schedule** (``ExperimentConfig(deterministic_aggregation=True)``):
default async behaviour is emergent — staleness depends on event timing,
so two backends cannot be bit-compared.  The sim↔live conformance suite
(DESIGN.md §9.4) fixes the *schedule* while leaving the data path
untouched:

* async-isw has no schedule of its own here: :meth:`AsyncISwitch.create`
  hands the run to the synchronous template with its staleness window
  opened to S — :meth:`repro.distributed.sync.SyncStrategy._step`, the
  rule the live ``LiveWorkerBase.on_timer`` runs, and at S = 0 sync-isw
  itself.  Every applied gradient's version gap is ``min(r, S)``, which
  makes the bound tight and checkable.
* async-ps (``paced``): the server applies pushes in rank-cyclic order
  ``(cycle 0, w0) .. (cycle 0, wN-1), (cycle 1, w0) ..`` (buffering
  out-of-order arrivals in ``core.baselines.RankCyclicOrder``, the order
  the live server keeps too) and ships the post-apply weights straight back
  to the pushing worker, so worker ``w``'s cycle-``k`` pull is
  deterministically version ``(k-1)·N + w + 1`` and its staleness is
  exactly ``N - 1`` (``w`` on the cold-start cycle).  The worker loop is
  the emergent one; who asks for the pull and which buffered push the
  server applies next are all that differ.

Arrival jitter still exists in both backends — it just moves *when*
values land, never *which* values, so live processes under real
scheduling noise must reproduce the simulator bit for bit.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np

from ..core.baselines import RankCyclicOrder
from ..netsim.packets import Packet
from ..netsim.topology import Network
from ..netsim.trace import LatencyStats
from ..rl.base import Algorithm
from ..workloads.calibration import DEFAULT_COST_MODEL, CostModel
from ..workloads.profiles import WorkloadProfile
from .collectives import ISwitchStream, PsGather, PsScatter
from .config import resolve_codec as _resolve_codec
from .metrics import BusyQueue
from .registry import register_strategy
from .results import TrainingResult
from .sync import MAX_RECOVERY_ATTEMPTS, ISwitchResetFault, SyncISwitch
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
            # Paced mode redefines the schedule, and the fault hooks
            # assume the emergent pull loop — the two don't compose.
            paced=(
                config.deterministic_aggregation
                and getattr(config, "fault_plan", None) is None
            ),
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
            telemetry.inc("server.updates", 1)
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
        self.commits = 0
        #: Per worker: the rounds applied when gradient k was computed,
        #: and the digest of every sum applied.
        self._versions: List[List[int]] = [[] for _ in self.workers]
        self._digests: List[List[str]] = [[] for _ in self.workers]

    def _submit_gradient(self, worker, gradient, iteration) -> None:
        self._versions[worker.index].append(self._applied[worker.index])
        self.commits += 1
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("worker.commits", 1, worker=worker.name)
        super()._submit_gradient(worker, gradient, iteration)

    def _apply_sum(self, worker, summed, iteration) -> None:
        self._digests[worker.index].append(_digest(summed, np.float32))
        self.staleness.record(iteration - self._versions[worker.index][iteration])
        super()._apply_sum(worker, summed, iteration)

    def _finalize(self, result: TrainingResult) -> None:
        super()._finalize(result)
        result.mean_staleness = self.staleness.mean
        result.max_staleness = self.staleness.max
        result.commits = self.commits
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
class AsyncISwitch(ISwitchResetFault):
    """Algorithm 1: decentralized asynchronous training through the switch."""

    name = "async-isw"

    def __init__(
        self,
        net: Network,
        workers: List[SimWorker],
        profile: WorkloadProfile,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        staleness_bound: int = 3,
        threshold: Optional[int] = None,
        recovery_timeout: Optional[float] = None,
        max_recovery_attempts: Optional[int] = None,
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
        self.commits = 0
        self.skipped_commits = 0
        self._done = False
        #: Fault-injection state: crashed (left) worker indices.
        self._down: set = set()
        #: Per-worker shared iteration index ts (LWU-thread state).
        self._ts: List[int] = [0 for _ in workers]
        #: Per-worker simulated time of the last applied update (telemetry).
        self._last_update: List[float] = [self.sim.now for _ in workers]
        #: With no recovery armed nothing else bounds the wait for a lost
        #: broadcast: per worker, the gradients committed since it last
        #: applied an update (``MAX_RECOVERY_ATTEMPTS`` of them end the run).
        self._unanswered: Optional[List[int]] = (
            [0 for _ in workers] if recovery_timeout is None else None
        )

        self.stream = ISwitchStream(
            net,
            workers,
            self.wire_bytes,
            on_round=lambda w, rnd, vec: self._lwu(w, vec),
            threshold=threshold,
            arrival_renumber=True,
            buffer_rounds=staleness_bound + 4,
            recovery_timeout=recovery_timeout,
            max_recovery_attempts=max_recovery_attempts,
            on_round_abandoned=self._round_abandoned,
            job=job,
            codec=codec,
        )
        self.plan = self.stream.plan
        self.clients = self.stream.clients

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, net: Network, workers: List[SimWorker], profile, config):
        """Registry hook: build a runner from an ExperimentConfig."""
        fault_armed = getattr(config, "fault_plan", None) is not None
        if config.deterministic_aggregation and not fault_armed:
            # A fixed schedule is the synchronous template with S > 0
            # (module docstring) — and with it sync-isw's loss recovery.
            runner = _WindowedAsyncISwitch.create(net, workers, profile, config)
            runner.staleness_bound = config.staleness_bound
            return runner
        return cls(
            net,
            workers,
            profile,
            config.cost_model,
            staleness_bound=config.staleness_bound,
            # Loss recovery is only armed for fault-injected runs:
            # plain lossy async runs keep the historical behaviour
            # (renumbering + bounded buffers absorb drops), while a
            # switch Reset needs Help/retransmit with a finite retry
            # budget to refill the rounds it wiped.
            recovery_timeout=(
                config.resolved_recovery_timeout() if fault_armed else None
            ),
            max_recovery_attempts=12 if fault_armed else None,
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
        result.commits = self.commits
        result.skipped_commits = self.skipped_commits
        return result

    # ------------------------------------------------------------------
    # LGC thread
    # ------------------------------------------------------------------
    def _start_lgc(self, worker: SimWorker) -> None:
        if self._done or worker.index in self._down:
            return  # crashed: the loop restarts from fault_restore_worker
        index = worker.index
        tw = self._ts[index]

        def commit(gradient: np.ndarray) -> None:
            ts = self._ts[index]
            telemetry = self.sim.telemetry
            if ts - tw <= self.staleness_bound:
                self.staleness.record(ts - tw)
                self.commits += 1
                if telemetry.enabled:
                    telemetry.inc("worker.commits", 1, worker=worker.name)
                self.stream.submit(worker, gradient, ts)
                if self._unanswered is not None:
                    self._unanswered[index] += 1
                    if self._unanswered[index] >= MAX_RECOVERY_ATTEMPTS:
                        self._done = True  # run() reports the short replica
            else:
                self.skipped_commits += 1
                if telemetry.enabled:
                    telemetry.inc(
                        "worker.skipped_commits", 1, worker=worker.name
                    )
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
    # Fault hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def fault_crash_worker(self, worker: SimWorker) -> bool:
        """Crash = real ``Leave`` + stop the LGC/LWU pipeline.

        The switch re-derives H from the shrunk membership and sweeps
        stranded rounds; the survivors continue — asynchronous training's
        staleness-bounded continuation, with rounds now formed from one
        fewer contribution.
        """
        if len(self.workers) - len(self._down) <= 1:
            return False
        if worker.index in self._down:
            return False
        self._down.add(worker.index)
        self.clients[worker.index].leave()
        if self.h > 1:
            self.h -= 1  # future rounds sum one fewer gradient
        return True

    def fault_restore_worker(self, worker: SimWorker) -> bool:
        from ..faults.resync import clone_training_state

        if worker.index not in self._down:
            return True
        self._down.discard(worker.index)
        source = next(
            (
                peer
                for peer in self.workers
                if peer.index != worker.index and peer.index not in self._down
            ),
            None,
        )
        if source is not None:
            # Resync the replica to a live peer: weights, optimizer
            # moments and target nets, plus the shared-iteration counter
            # (the paper's decentralized weights only agree when every
            # member applied the same broadcast stream; a rejoiner must
            # adopt a live member's view wholesale).
            clone_training_state(source.algorithm, worker.algorithm)
            self._ts[worker.index] = self._ts[source.index]
        self._last_update[worker.index] = self.sim.now
        self.clients[worker.index].join()
        self.h = min(len(self.workers), self.h + 1)
        self._start_lgc(worker)
        return True

    def _round_abandoned(self, worker: SimWorker, round_index: int) -> None:
        """Liveness backstop: a round this replica can never assemble.

        The client exhausted ``max_recovery_attempts`` (Help went
        unanswered — e.g. the result aged out of the switch cache during
        a long loss burst).  Training termination is gated on
        ``min(ts)``, so count the permanently missed update and move on;
        the replica skips one broadcast (bounded divergence, same class
        as async staleness) instead of stalling the whole run.
        """
        if self._done or worker.index in self._down:
            return
        self._ts[worker.index] += 1
        self._last_update[worker.index] = self.sim.now
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("worker.updates_missed", 1, worker=worker.name)
        if min(self._ts) >= self.target_updates:
            self._done = True

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
            if self._unanswered is not None:
                self._unanswered[worker.index] = 0
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
