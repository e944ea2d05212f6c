"""Per-iteration timing accounting matching Figure 4's component taxonomy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..telemetry import scrape
from ..workloads.profiles import BREAKDOWN_COMPONENTS, WorkloadProfile

__all__ = ["IterationBreakdown", "BusyQueue", "split_compute_time"]


def split_compute_time(
    profile: WorkloadProfile, compute_time: float
) -> Dict[str, float]:
    """Distribute one iteration's LGC duration over Figure 4's compute
    components using the profile's calibrated fractions."""
    return {
        component: compute_time * fraction
        for component, fraction in profile.compute_breakdown.items()
    }


@dataclass
class IterationBreakdown:
    """Accumulated seconds per Figure 4 component, across iterations."""

    totals: Dict[str, float] = field(
        default_factory=lambda: {c: 0.0 for c in BREAKDOWN_COMPONENTS}
    )
    iterations: int = 0

    def add(self, component: str, seconds: float) -> None:
        if component not in self.totals:
            raise KeyError(
                f"unknown breakdown component {component!r}; "
                f"expected one of {BREAKDOWN_COMPONENTS}"
            )
        if seconds < 0:
            raise ValueError(f"negative duration for {component}: {seconds}")
        self.totals[component] += seconds

    def add_compute(self, profile: WorkloadProfile, compute_time: float) -> None:
        for component, seconds in split_compute_time(profile, compute_time).items():
            self.add(component, seconds)

    def finish_iteration(self) -> None:
        self.iterations += 1

    @property
    def total_time(self) -> float:
        return sum(self.totals.values())

    def percentages(self) -> Dict[str, float]:
        """Per-component share of total time (sums to 100)."""
        total = self.total_time
        if total <= 0:
            return {c: 0.0 for c in self.totals}
        return {c: 100.0 * v / total for c, v in self.totals.items()}

    def mean_per_iteration(self) -> Dict[str, float]:
        if self.iterations == 0:
            return {c: 0.0 for c in self.totals}
        return {c: v / self.iterations for c, v in self.totals.items()}

    @property
    def aggregation_share(self) -> float:
        """Fraction of time spent in gradient aggregation (Figure 4's
        headline number)."""
        total = self.total_time
        return self.totals["grad_aggregation"] / total if total > 0 else 0.0


class BusyQueue:
    """Sequential-processor model for a host CPU.

    Work items occupy the processor back to back; :meth:`submit` returns
    the completion time of the submitted item.  Used for the parameter
    server's ingest/update pipeline, where serialization of host work —
    not just the NIC — creates the central bottleneck the paper describes.
    """

    def __init__(self, sim, name: str = "cpu") -> None:
        self.sim = sim
        self.name = name
        self._busy_until = 0.0
        self.busy_time = 0.0
        #: The backlog a submission found ahead of it plus its own work:
        #: the latest (``None`` before the first) and the largest.
        self.backlog_at_submit: Optional[float] = None
        self.peak_backlog = 0.0
        sim.telemetry.watch(scrape.busy_queue, self)

    def submit(self, duration: float, callback=None) -> float:
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        start = max(self.sim.now, self._busy_until)
        finish = start + duration
        self._busy_until = finish
        self.busy_time += duration
        backlog = self.backlog_at_submit = finish - self.sim.now
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog
        if callback is not None:
            self.sim.schedule_at(finish, callback)
        return finish

    @property
    def backlog(self) -> float:
        """Seconds of queued work ahead of a new submission."""
        return max(0.0, self._busy_until - self.sim.now)
