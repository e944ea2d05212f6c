"""Soak / load-generator mode: many small jobs hammering one fabric.

``repro jobs soak`` drives this: a seeded stream of synthetic jobs with
mixed model sizes and worker counts arrives over a short window, the
fabric schedules them through shared switch SRAM, and the
:class:`SoakReport` summarizes what happened — peak concurrency, queue
waits, and the hard invariant that *every* admissible job completed.

Synthetic workloads keep the numerics cheap (the point is scheduler and
switch-state churn, not RL training), so a 32-job soak runs in well under
a minute of wall clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .fabric import SwitchFabric
from .spec import JobSpec, JobStatus

__all__ = ["SoakReport", "generate_jobs", "run_soak"]

#: Mixed synthetic model sizes (floats): 1, 2, and 4 wire chunks.
DEFAULT_PARAM_CHOICES = (366, 732, 1464)
DEFAULT_WORKER_CHOICES = (2, 3)


@dataclass
class SoakReport:
    """What one soak run did."""

    n_jobs: int
    policy: str
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    peak_concurrent: int = 0
    sim_elapsed: float = 0.0
    #: Queue waits (simulated seconds) of jobs that had to wait.
    waits: List[float] = field(default_factory=list)
    tenants: int = 0
    #: The fabric's ``Simulator.transport``: which path ran, and why.
    transport: str = ""

    @property
    def queued_jobs(self) -> int:
        return sum(1 for w in self.waits if w > 0)

    @property
    def max_wait(self) -> float:
        return max(self.waits, default=0.0)

    @property
    def ok(self) -> bool:
        """The soak invariant: nothing admissible failed to finish."""
        return self.failed == 0 and self.completed + self.rejected == self.n_jobs

    def summary_lines(self) -> List[str]:
        lines = [
            f"soak: {self.n_jobs} jobs over {self.tenants} tenants "
            f"({self.policy} policy)",
            f"  completed:       {self.completed}",
            f"  rejected:        {self.rejected} (SRAM oversubscription)",
            f"  failed:          {self.failed}",
            f"  peak concurrent: {self.peak_concurrent}",
            f"  queued at least once: {self.queued_jobs} "
            f"(max wait {self.max_wait * 1e3:.2f} ms simulated)",
            f"  simulated time:  {self.sim_elapsed * 1e3:.2f} ms",
            f"  transport:       {self.transport}",
            f"  result:          {'OK' if self.ok else 'FAILED'}",
        ]
        return lines


def generate_jobs(
    n_jobs: int,
    seed: int = 0,
    arrival_window: float = 2e-3,
    iterations: int = 3,
    n_tenants: int = 4,
    param_choices: Tuple[int, ...] = DEFAULT_PARAM_CHOICES,
    worker_choices: Tuple[int, ...] = DEFAULT_WORKER_CHOICES,
) -> List[JobSpec]:
    """A reproducible stream of mixed-size synthetic jobs."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    rng = random.Random(seed)
    specs = []
    for index in range(n_jobs):
        n_params = rng.choice(param_choices)
        specs.append(
            JobSpec(
                name=f"soak-{index}",
                workload="synth",
                n_workers=rng.choice(worker_choices),
                iterations=iterations,
                seed=seed + index,
                priority=rng.randrange(3),
                tenant=f"tenant{index % n_tenants}",
                arrival_time=rng.uniform(0.0, arrival_window),
                algorithm_overrides={"n_params": n_params},
            )
        )
    return specs


def run_soak(
    n_jobs: int = 32,
    seed: int = 0,
    policy: str = "fair",
    n_racks: int = 4,
    sram_engines: int = 8,
    sram_segments_per_engine: int = 32,
    arrival_window: float = 2e-3,
    iterations: int = 3,
    n_tenants: int = 4,
    telemetry: bool = True,
    specs: Optional[List[JobSpec]] = None,
) -> Tuple[SwitchFabric, SoakReport]:
    """Generate, submit, and drain a soak load; return fabric + report."""
    fabric = SwitchFabric(
        n_racks=n_racks,
        sram_engines=sram_engines,
        sram_segments_per_engine=sram_segments_per_engine,
        policy=policy,
        telemetry=telemetry,
    )
    if specs is None:
        specs = generate_jobs(
            n_jobs,
            seed=seed,
            arrival_window=arrival_window,
            iterations=iterations,
            n_tenants=n_tenants,
        )
    for spec in specs:
        fabric.submit(spec)
    handles = fabric.run()
    report = SoakReport(
        n_jobs=len(specs),
        policy=fabric.scheduler.policy.name,
        peak_concurrent=fabric.peak_concurrent,
        sim_elapsed=fabric.sim.now,
        tenants=len({spec.tenant for spec in specs}),
        transport=fabric.sim.transport,
    )
    for handle in handles.values():
        if handle.status is JobStatus.COMPLETED:
            report.completed += 1
            wait = handle.wait_time
            report.waits.append(wait if wait is not None else 0.0)
        elif handle.status is JobStatus.REJECTED:
            report.rejected += 1
        else:
            report.failed += 1
    return fabric, report
