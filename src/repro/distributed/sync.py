"""Synchronous distributed training: PS, Ring-AllReduce, and iSwitch.

All strategies share the same iteration skeleton (the template in
:class:`SyncStrategy`): every worker runs LGC for its modelled duration,
the strategy performs gradient aggregation over the simulated network, and
each worker applies the identical mean gradient (LWU) before starting the
next iteration.  Because the numerics are identical, all synchronous
strategies produce the *same weight trajectory* — only their timing
differs, which is exactly the paper's Table 4 observation ("all
synchronous approaches train the same number of iterations to reach the
same level final average rewards").

Aggregation is delegated to the composable primitives in
:mod:`repro.distributed.collectives`; a strategy is a thin composition:

* **SyncParameterServer** (Figure 1a) — :class:`PsGather` (workers
  stream vectors to the PS host, whose CPU ingests and sums sequentially
  — the central bottleneck) + :class:`PsScatter` (single-link fan-out of
  the result): 4 network hops per iteration.
* **RingAllReduce** (Figure 1b) — :func:`ring_reduce_scatter` +
  :func:`ring_all_gather` over a :class:`RingExchange`: 2(N−1) steps of
  M/N bytes between ring neighbours (2 hops per step ⇒ 4N−4 hops) each
  paying the per-step framework overhead.
* **HalvingDoublingAllReduce** — the same :class:`RingExchange`
  machinery on hypercube schedules (:func:`hd_reduce_scatter` +
  :func:`hd_all_gather`): 2·log2(N) steps pairing ``i`` with
  ``i XOR 2^k``, trading per-step overheads for larger messages.
* **SyncISwitch** (Figure 1c) — :class:`ISwitchStream`: workers stream
  ToS-tagged segments to the in-switch accelerator, which aggregates
  *on the fly at packet granularity* and broadcasts completed segments
  immediately (2 hops, pipelined).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.baselines import RoundSums
from ..netsim.topology import Network
from ..workloads.calibration import DEFAULT_COST_MODEL, CostModel
from ..workloads.profiles import WorkloadProfile
from .collectives import (
    ISwitchStream,
    PsGather,
    PsScatter,
    RingExchange,
    RoundBarrier,
    hd_all_gather,
    hd_reduce_scatter,
    make_plan,
    ring_all_gather,
    ring_reduce_scatter,
)
from .collectives.iswitch import MAX_CHUNKS
from .config import resolve_codec as _resolve_codec
from .metrics import BusyQueue
from .registry import register_strategy
from .results import TrainingResult
from .worker import SimWorker

__all__ = [
    "SyncStrategy",
    "SyncParameterServer",
    "RingAllReduce",
    "HalvingDoublingAllReduce",
    "SyncISwitch",
    "make_plan",
    "MAX_CHUNKS",
]

#: Port HalvingDoublingAllReduce uses for its exchange steps (the ring
#: keeps its historical 7801).
HD_PORT = 7802

#: Watchdog firings after which a sync-isw worker gives a round up as
#: unsatisfiable, so no run can keep the event loop alive forever.  Far
#: above what recovery takes (the backoff reaches 256x the base timeout
#: by the ninth firing); ``run()`` turns the stall into a ``SimRunError``,
#: or a fault plan's ``FaultReport`` into the structured failure.
MAX_RECOVERY_ATTEMPTS = 64


class SyncStrategy:
    """Template for synchronous training over a simulated network.

    The iteration schedule is Algorithm 1's with a staleness window
    (:meth:`_step`); every synchronous strategy runs it with S = 0.
    """

    name = "sync-base"
    #: Algorithm 1's staleness bound S: how many rounds a worker's LGC may
    #: run ahead of the rounds it has applied.  0 is synchronous training.
    staleness_bound = 0

    def __init__(
        self,
        net: Network,
        workers: List[SimWorker],
        profile: WorkloadProfile,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker")
        self.net = net
        self.sim = net.sim
        self.workers = workers
        self.profile = profile
        self.cost = cost_model
        self.wire_bytes = profile.model_bytes
        self.n_iterations = 0
        #: Per worker: the next LGC's index, the rounds applied, whether an
        #: LGC or LWU is in progress, and the sums that landed early; per
        #: (worker, round) in flight, when its LGC began and ended.
        self._next_lgc = [0 for _ in workers]
        self._applied = [0 for _ in workers]
        self._busy = [False for _ in workers]
        self._inbox: List[Dict[int, tuple]] = [{} for _ in workers]
        self._in_flight: Dict[tuple, tuple] = {}
        #: Per round: the host-side fold of its gradients (in rank order,
        #: ``core.baselines``), then what every replica shares read-only
        #: (the fold, the mean) until the round barrier releases it.
        self._round_sums = RoundSums(len(workers))
        self._round_shared: Dict[int, Dict[str, np.ndarray]] = {}
        self._round_done = RoundBarrier(len(workers), self._round_release)
        self._result: Optional[TrainingResult] = None
        #: Fault-injection state: workers paused by a crash event.
        self._paused: set = set()
        self._setup()

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, net: Network, workers: List[SimWorker], profile, config
    ) -> "SyncStrategy":
        """Registry hook: build a runner from an ExperimentConfig."""
        return cls(net, workers, profile, config.cost_model)

    def _setup(self) -> None:
        """Strategy-specific wiring: compose collective primitives here."""

    def launch(self, n_iterations: int) -> TrainingResult:
        """Schedule every worker's first action; whoever owns the event loop
        (:meth:`run`, or a fabric shared by many runners) drains it."""
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        self.n_iterations = n_iterations
        self._result = result = TrainingResult.of(self, n_iterations)
        self._launched_at = self.sim.now
        for worker in self.workers:
            self._step(worker)
        return result

    def run(self, n_iterations: int) -> TrainingResult:
        """Simulate ``n_iterations`` training iterations."""
        result = self.launch(n_iterations)
        self.sim.run()
        # The run is over; keeping the result would pin it (and the
        # replicas it hands back) to this cluster's reference cycles.
        self._result = None
        self._finalize(result)
        return result

    def _finalize(self, result: TrainingResult) -> None:
        result.elapsed = self.sim.now - self._launched_at
        for worker in self.workers:
            for component, seconds in worker.breakdown.totals.items():
                result.breakdown.totals[component] += seconds
            result.breakdown.iterations += worker.breakdown.iterations

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def _fault_admit(self, worker: SimWorker, iteration: int) -> bool:
        """Gate on LGC start: False stops this worker's progression.

        The base (barrier) semantics of a crash are a *pause*: the worker
        defers its next iteration, the round barrier stalls every peer
        (exactly what a synchronous barrier does to a dead worker), and
        on restore the deferred iteration runs — no math changes, so the
        final weights are bit-identical to the fault-free run.
        """
        return worker.index not in self._paused

    def _round_divisor(self, iteration: int) -> int:
        """Contributor count the round's summed gradient is divided by.

        Constant for barrier strategies; :class:`SyncISwitch` overrides
        it to track membership changes from crash/rejoin events.
        """
        return len(self.workers)

    def fault_crash_worker(self, worker: SimWorker) -> bool:
        self._paused.add(worker.index)
        return True

    def fault_restore_worker(self, worker: SimWorker) -> bool:
        self._paused.discard(worker.index)
        self._step(worker)  # a no-op unless the pause held an LGC back
        return True

    # ------------------------------------------------------------------
    # Iteration skeleton
    # ------------------------------------------------------------------
    def _step(self, worker: SimWorker) -> None:
        """Advance one worker by at most one action — the windowed rule.

        LGC ``k`` starts once exactly ``max(0, k - S)`` rounds are applied
        (the live weights *are* the version the gradient must see) and
        nothing else is in progress; otherwise the next round in order is
        applied if its sum has landed.  Both re-enter here and draw their
        durations as they are scheduled.  ``S = 0`` alternates LGC ``k`` /
        LWU ``k``: synchronous training.
        """
        index = worker.index
        if self._busy[index]:
            return
        k = self._next_lgc[index]
        applied = self._applied[index]
        if k < self.n_iterations and applied == max(0, k - self.staleness_bound):
            if self._fault_admit(worker, k):
                self._busy[index] = True
                self._start_lgc(worker, k)
        elif applied in self._inbox[index]:
            self._busy[index] = True
            self._start_lwu(worker, applied)

    def _start_lgc(self, worker: SimWorker, iteration: int) -> None:
        index = worker.index
        started = self.sim.now

        def submit(gradient: np.ndarray) -> None:
            self._in_flight[(index, iteration)] = (started, self.sim.now)
            self._record_gradient(worker, gradient, iteration)
            self._submit_gradient(worker, gradient, iteration)
            self._next_lgc[index] = iteration + 1
            self._busy[index] = False
            self._step(worker)

        worker.start_lgc(submit, iteration=iteration)

    def _record_gradient(
        self, worker: SimWorker, gradient: np.ndarray, iteration: int
    ) -> None:
        self._round_sums.add(iteration, worker.index, gradient)

    def _round_release(self, iteration: int) -> None:
        self._round_sums.release(iteration)
        self._round_shared.pop(iteration, None)

    def _once_per_round(self, iteration: int, key: str, compute) -> np.ndarray:
        """What is identical on every replica: computed by the first worker
        to need it, shared read-only until the round barrier releases it."""
        shared = self._round_shared.setdefault(iteration, {})
        value = shared.get(key)
        if value is None:
            value = shared[key] = compute()
            value.flags.writeable = False
        return value

    def _round_sum(self, iteration: int) -> np.ndarray:
        """The round's rank-order sum, summed when its last gradient landed."""
        return self._round_sums.results[iteration]

    def _shared_round_sum(self, iteration: int) -> np.ndarray:
        return self._once_per_round(
            iteration, "sum", lambda: self._round_sum(iteration)
        )

    def _submit_gradient(
        self, worker: SimWorker, gradient: np.ndarray, iteration: int
    ) -> None:
        raise NotImplementedError

    def _deliver_sum(
        self, worker: SimWorker, summed: np.ndarray, iteration: int
    ) -> None:
        """Called when the summed gradient has fully arrived at a worker;
        it waits in the inbox until the worker's schedule reaches it."""
        started, submitted = self._in_flight.pop((worker.index, iteration))
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.span_at(
                "grad.aggregation",
                submitted,
                self.sim.now,
                cat="training",
                track=worker.name,
                iteration=iteration,
            )
        self._inbox[worker.index][iteration] = (
            summed, self.sim.now - submitted, started
        )
        self._step(worker)

    def _apply_sum(
        self, worker: SimWorker, summed: np.ndarray, iteration: int
    ) -> None:
        """The weight update itself: the round's mean gradient, applied."""
        divisor = self._round_divisor(iteration)
        if summed.dtype == np.float64:
            # The host-side fold every replica was handed: one mean.
            update = self._once_per_round(
                iteration, "mean", lambda: summed / divisor
            )
        else:
            # A client's float32 assembly: cast and divide in one pass,
            # so one float64 vector per worker is ever live.
            update = np.divide(summed, divisor, dtype=np.float64)
        worker.algorithm.apply_update(update)

    def _start_lwu(self, worker: SimWorker, iteration: int) -> None:
        index = worker.index
        summed, agg_time, started = self._inbox[index].pop(iteration)
        ingest = self.cost.worker_ingest(
            self.wire_bytes, self.profile.message_count
        )
        lwu = worker.compute.lwu_duration()
        worker.breakdown.add("grad_aggregation", agg_time + ingest)
        worker.breakdown.add("weight_update", lwu)

        def apply() -> None:
            self._apply_sum(worker, summed, iteration)
            worker.finish_iteration()
            telemetry = self.sim.telemetry
            if telemetry.enabled:
                telemetry.span_at(
                    "iteration",
                    started,
                    self.sim.now,
                    cat="training",
                    track=worker.name,
                    iteration=iteration,
                )
            if self._result is not None:
                self._result.aggregation_latency.record(agg_time + ingest)
            self._applied[index] = iteration + 1
            self._busy[index] = False
            self._round_done.arrive(iteration)
            self._step(worker)

        self.sim.schedule(ingest + lwu, apply, name=f"lwu:w{index}")


@register_strategy("sync", "ps", requires_server=True, supports_live=True)
class SyncParameterServer(SyncStrategy):
    """Figure 1a: centralized PS = ``ps_gather`` + ``ps_scatter``."""

    name = "sync-ps"

    def _setup(self) -> None:
        if self.net.server is None:
            raise ValueError("sync PS needs a topology built with a server host")
        self.server = self.net.server
        self.server_cpu = BusyQueue(self.sim, name="server")
        self.gather = PsGather(
            self.server,
            self.server_cpu,
            ingest_cost=self.cost.server_ingest(
                self.wire_bytes, self.profile.message_count
            ),
            threshold=len(self.workers),
            on_round=self._round_complete,
        )
        self.scatter = PsScatter(
            self.server,
            self.workers,
            on_deliver=lambda w, tag, vec, meta: self._deliver_sum(w, vec, tag),
        )

    def _submit_gradient(self, worker, gradient, iteration) -> None:
        self.gather.submit(
            worker, iteration, gradient, wire_bytes=self.wire_bytes
        )

    def _round_complete(self, iteration) -> None:
        # The Nth ingest finished: run the weight update on the PS CPU,
        # then fan the summed gradient out over its single link.
        update = self.cost.server_update(
            self.wire_bytes,
            self.profile.message_count,
            self.profile.update_cost_factor,
        )
        summed = self._shared_round_sum(iteration)
        self.server_cpu.submit(
            update,
            lambda: self.scatter.broadcast(
                iteration, summed, wire_bytes=self.wire_bytes
            ),
        )


class _ExchangeAllReduce(SyncStrategy):
    """Shared shape of the decentralized strategies: a chained exchange
    whose transfers are timing-only, folding the true sum at the end."""

    #: Subclasses build and return the :class:`RingExchange`.
    def _build_exchange(self) -> RingExchange:
        raise NotImplementedError

    def _setup(self) -> None:
        if len(self.workers) < 2:
            raise ValueError(f"{self.name} needs at least 2 workers")
        self.exchange = self._build_exchange()
        self.total_steps = self.exchange.total_steps

    def _submit_gradient(self, worker, gradient, iteration) -> None:
        self.exchange.start(worker, iteration)

    def _finish_exchange(self, worker, iteration) -> None:
        self._deliver_sum(worker, self._shared_round_sum(iteration), iteration)


@register_strategy("sync", "ar", supports_live=True)
class RingAllReduce(_ExchangeAllReduce):
    """Figure 1b: decentralized ring aggregation (reduce-scatter + all-gather)."""

    name = "sync-ar"

    def _build_exchange(self) -> RingExchange:
        n = len(self.workers)
        # One ring per exchanged tensor (DDPG runs two AllReduces).
        messages = self.profile.message_count
        self.chunk_bytes = max(1, self.wire_bytes // (n * messages))
        return RingExchange(
            self.sim,
            self.workers,
            phases=[
                ring_reduce_scatter(n, self.chunk_bytes, messages),
                ring_all_gather(n, self.chunk_bytes, messages),
            ],
            step_cost=self.cost.allreduce_step,
            on_complete=self._finish_exchange,
            name="ring",
        )


@register_strategy("sync", "ar-hd", supports_live=True)
class HalvingDoublingAllReduce(_ExchangeAllReduce):
    """Recursive-halving/doubling allreduce: 2·log2(N) hypercube steps.

    Versus the ring's 2(N−1) steps, far fewer per-step framework
    overheads — the latency-optimal choice for small models or moderate
    worker counts.  Requires a power-of-two worker count.
    """

    name = "sync-ar-hd"

    def _build_exchange(self) -> RingExchange:
        n = len(self.workers)
        messages = self.profile.message_count
        return RingExchange(
            self.sim,
            self.workers,
            phases=[
                hd_reduce_scatter(n, self.wire_bytes, messages),
                hd_all_gather(n, self.wire_bytes, messages),
            ],
            step_cost=self.cost.allreduce_step,
            on_complete=self._finish_exchange,
            port=HD_PORT,
            name="ar_hd",
        )


class ISwitchResetFault:
    """One copy for both iSwitch runners (``net``, ``clients``, ``_down``)."""

    def fault_reset_switch(self, switch) -> bool:
        # Prefer a real Reset control packet from a live member of that
        # switch; fall back to an out-of-band engine reset (models an
        # operator reset of a switch none of our members sit under).
        for index, tor in enumerate(self.net.tor_of_worker):
            if tor.name == switch.name and index not in self._down:
                self.clients[index].reset_switch()
                return True
        switch.engine.reset()
        return True


@register_strategy(
    "sync",
    "isw",
    requires_iswitch=True,
    supports_live=True,
    supports_multijob=True,
)
class SyncISwitch(ISwitchResetFault, SyncStrategy):
    """Figure 1c: in-switch aggregation = one ``iswitch_stream``.

    Fault behaviour (the paper's membership management, §3.4): a worker
    crash is a real ``Leave`` — the switch drops the member, re-derives
    the aggregation threshold H, and sweeps any round stranded at the
    old threshold; surviving workers keep iterating with N−1
    contributors (the per-round divisor tracks membership).  Rejoin is a
    real ``Join`` plus replica resynchronization (weights *and*
    optimizer state cloned from a live peer) before the worker re-enters
    the iteration loop.
    """

    name = "sync-isw"

    def __init__(
        self,
        net: Network,
        workers: List[SimWorker],
        profile: WorkloadProfile,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        recovery_timeout: Optional[float] = None,
        max_recovery_attempts: Optional[int] = None,
        job: int = 0,
        codec=None,
    ) -> None:
        # _setup() runs inside the base __init__, so the timeout must be
        # in place before delegating.
        self.recovery_timeout = recovery_timeout
        self.max_recovery_attempts = max_recovery_attempts
        self.job = job
        self.codec = codec
        #: Membership-fault state: crashes waiting to take effect at the
        #: target's next iteration boundary, currently-down workers, the
        #: queue of rejoin requests, and the append-only
        #: ``(first_iteration, contributor_count)`` divisor history.
        self._pending_crash: Dict[int, bool] = {}
        self._down: set = set()
        self._pending_rejoins: List[int] = []
        self._divisor_changes: List[tuple] = [(0, len(workers))]
        super().__init__(net, workers, profile, cost_model)

    @classmethod
    def create(cls, net, workers, profile, config) -> "SyncISwitch":
        return cls(
            net,
            workers,
            profile,
            config.cost_model,
            recovery_timeout=config.resolved_recovery_timeout(),
            max_recovery_attempts=MAX_RECOVERY_ATTEMPTS,
            job=getattr(config, "job_id", 0),
            codec=_resolve_codec(config),
        )

    def _setup(self) -> None:
        self.stream = ISwitchStream(
            self.net,
            self.workers,
            self.wire_bytes,
            on_round=lambda w, rnd, vec: self._deliver_sum(w, vec, rnd),
            recovery_timeout=self.recovery_timeout,
            max_recovery_attempts=self.max_recovery_attempts,
            job=self.job,
            codec=self.codec,
        )
        self.plan = self.stream.plan
        self.clients = self.stream.clients

    def _record_gradient(self, worker, gradient, iteration) -> None:
        """The switch sums; nothing host-side reads a gradient back."""

    def _submit_gradient(self, worker, gradient, iteration) -> None:
        self.stream.submit(worker, gradient, iteration)

    # ------------------------------------------------------------------
    # Fault hooks: real Leave/Join membership churn
    # ------------------------------------------------------------------
    def _fault_admit(self, worker, iteration: int) -> bool:
        # Rejoins are applied at the first *live* worker's iteration
        # boundary: at that instant every live worker is at iteration
        # `iteration` or awaiting `iteration - 1`'s broadcast (workers
        # are at most one round apart), so `iteration` is exactly the
        # first round the rejoined member contributes to.
        if self._pending_rejoins and worker.index not in self._down:
            self._apply_rejoin(worker, iteration)
        if worker.index in self._down:
            return False  # crashed replica: restarted explicitly on rejoin
        if self._pending_crash.pop(worker.index, None):
            # Consumed at the crashing worker's own boundary, before it
            # drew this round's LGC duration or streamed anything for
            # `iteration` — so the round completes cleanly with N−1.
            self._apply_crash(worker, iteration)
            return False
        return True

    def _round_divisor(self, iteration: int) -> int:
        divisor = self._divisor_changes[0][1]
        for since, value in self._divisor_changes:
            if since <= iteration:
                divisor = value
        return divisor

    def _active_count(self) -> int:
        return len(self.workers) - len(self._down)

    def fault_crash_worker(self, worker) -> bool:
        live = self._active_count() - sum(
            1 for flag in self._pending_crash.values() if flag
        )
        if live <= 1 or worker.index in self._down:
            return False
        self._pending_crash[worker.index] = True
        return True

    def fault_restore_worker(self, worker) -> bool:
        if self._pending_crash.pop(worker.index, None):
            return True  # restored before the crash ever took effect
        if worker.index in self._down:
            self._pending_rejoins.append(worker.index)
        return True

    def _apply_crash(self, worker, iteration: int) -> None:
        self._down.add(worker.index)
        self._divisor_changes.append((iteration, self._active_count()))
        self.clients[worker.index].leave()

    def _apply_rejoin(self, trigger, iteration: int) -> None:
        from ..faults.resync import clone_training_state

        rejoining, self._pending_rejoins = self._pending_rejoins, []
        for index in rejoining:
            self._down.discard(index)
        self._divisor_changes.append((iteration, self._active_count()))
        for index in rejoining:
            worker = self.workers[index]
            # The trigger just applied round `iteration - 1`, so its
            # replica holds exactly the weights round `iteration` starts
            # from; clone weights + optimizer state (+ target nets).
            clone_training_state(trigger.algorithm, worker.algorithm)
            # The Join lands at the switch in microseconds — long before
            # any live worker's ~ms LGC for `iteration` finishes — so H
            # is back at full strength before round `iteration` can
            # complete short.
            self.clients[index].join()
            self._next_lgc[index] = self._applied[index] = iteration
            self._inbox[index].clear()
            self._step(worker)
