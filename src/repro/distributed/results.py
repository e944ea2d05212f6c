"""Result records returned by the training strategies.

:class:`TrainingResult` carries typed optional fields for everything the
strategies and backends report (async staleness statistics, live-backend
artifacts such as final weights and round digests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..netsim.trace import LatencyStats
from ..telemetry.hub import TelemetrySnapshot
from .metrics import IterationBreakdown
from .worker import SimWorker

__all__ = ["TrainingResult"]


@dataclass
class TrainingResult:
    """Outcome of one simulated distributed-training run.

    ``per_iteration_time`` follows the paper's definitions (§5.2): for
    synchronous training it is the latency of one training iteration; for
    asynchronous training it is the mean interval between consecutive
    weight updates.
    """

    strategy: str
    workload: str
    n_workers: int
    iterations: int
    elapsed: float
    workers: List[SimWorker] = field(default_factory=list)
    breakdown: IterationBreakdown = field(default_factory=IterationBreakdown)
    aggregation_latency: LatencyStats = field(default_factory=LatencyStats)
    #: Which backend produced this result: ``"sim"`` or ``"live"``.
    backend: str = "sim"
    #: Sim backend, set by ``run()``: the transport that ran and why —
    #: ``"train"`` or ``"packet (<reason>)"``
    #: (:func:`repro.distributed.config.choose_transport`).
    transport: Optional[str] = None
    #: Sim iSwitch runs, set by ``run()``: how the switch engines took the
    #: trains they were offered — joins served as a ``view`` of the
    #: sender's vector or as a ``copy``, and trains that left the batched
    #: ingest by cause (``AggregationStats.batch_bails``); zeros omitted.
    #: Telemetry does not change it.
    ingest: Optional[Dict[str, int]] = None
    #: Async strategies: mean/max observed staleness (Algorithm 1's
    #: ``t - ts``) and cumulative PS CPU busy time, ``None`` elsewhere.
    mean_staleness: Optional[float] = None
    max_staleness: Optional[float] = None
    server_busy_time: Optional[float] = None
    #: Async iSwitch: committed vs. staleness-skipped aggregation rounds.
    commits: Optional[int] = None
    skipped_commits: Optional[int] = None
    #: Live backend: end-to-end wall time including process start-up
    #: (``elapsed`` is the slowest worker's training loop alone).
    wall_elapsed: Optional[float] = None
    #: Live backend: per-rank float64 final weights.
    final_weights: Optional[Dict[int, Any]] = None
    #: Live backend: per-round SHA-256 digests of the aggregated sums
    #: (identical across ranks by construction).
    round_digests: Optional[List[str]] = None
    #: Per-rank digest streams for strategies whose workers observe
    #: *different* aggregate trajectories (async-ps pulls post-apply
    #: weights, so each rank sees its own versions); ``None`` when all
    #: ranks share ``round_digests``.
    worker_digests: Optional[Dict[int, List[str]]] = None
    #: Live backend: per-rank final average rewards.
    rewards: Optional[Dict[int, float]] = None
    #: Live backend: per-rank protocol counters.
    worker_counters: Optional[Dict[int, Dict[str, int]]] = None
    #: Live backend: the aggregator process's counters.
    server_stats: Optional[Dict[str, int]] = None
    #: Frozen metrics/spans/events for the run, when the experiment was
    #: configured with ``telemetry=True`` (see :mod:`repro.telemetry`).
    telemetry: Optional[TelemetrySnapshot] = None
    #: Structured outcome of fault injection — a
    #: :class:`repro.faults.FaultReport` — when the experiment was
    #: configured with a ``fault_plan``; ``None`` otherwise.
    fault_report: Optional[Any] = None

    @classmethod
    def of(cls, runner, iterations: int, elapsed: float = 0.0) -> "TrainingResult":
        """A result labelled from the strategy object that produced it."""
        return cls(
            strategy=runner.name,
            workload=runner.profile.name,
            n_workers=len(runner.workers),
            iterations=iterations,
            elapsed=elapsed,
            workers=runner.workers,
        )

    @property
    def per_iteration_time(self) -> float:
        return self.elapsed / self.iterations if self.iterations else 0.0

    @property
    def final_average_reward(self) -> float:
        rewards = [w.algorithm.final_average_reward() for w in self.workers]
        finite = [r for r in rewards if r != float("-inf")]
        return sum(finite) / len(finite) if finite else float("-inf")

    def projected_hours(self, total_iterations: int) -> float:
        """End-to-end hours if run for ``total_iterations`` at this rate —
        the paper's own methodology (measured per-iteration × iterations)."""
        return self.per_iteration_time * total_iterations / 3600.0
