"""Admission control against the modeled accelerator SRAM.

The paper's accelerator keeps every in-flight segment's partial sum in
on-chip SRAM, organized as aggregation engines with a fixed number of
segment slots each (§4).  A switch can therefore host at most
``engines × segments_per_engine`` concurrently-live segments across *all*
jobs.  The :class:`AdmissionController` books a job's worst-case segment
footprint (its segment-plan chunk count) on every switch the job touches;
jobs whose footprint can never fit are **rejected** outright, jobs that
merely don't fit *right now* are **queued** until running jobs release
their slots.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Tuple

__all__ = ["AdmissionController", "AdmissionDecision"]


class AdmissionDecision(enum.Enum):
    ADMIT = "admit"
    QUEUE = "queue"
    REJECT = "reject"


class AdmissionController:
    """Per-switch SRAM slot accounting for the whole fabric."""

    def __init__(
        self,
        switch_names: Iterable[str],
        engines: int = 8,
        segments_per_engine: int = 32,
    ) -> None:
        if engines < 1:
            raise ValueError(f"engines must be >= 1, got {engines}")
        if segments_per_engine < 1:
            raise ValueError(
                f"segments_per_engine must be >= 1, got {segments_per_engine}"
            )
        self.engines = engines
        self.segments_per_engine = segments_per_engine
        #: Live segment slots available on every switch.
        self.capacity = engines * segments_per_engine
        self._used: Dict[str, int] = {name: 0 for name in switch_names}
        self._reservations: Dict[int, Tuple[int, List[str]]] = {}
        self.rejections = 0

    # ------------------------------------------------------------------
    def used(self, switch_name: str) -> int:
        return self._used[switch_name]

    def utilization(self, switch_name: str) -> float:
        return self._used[switch_name] / self.capacity

    def decide(
        self, footprint: int, switch_names: Iterable[str]
    ) -> AdmissionDecision:
        """Classify a request: admit now, queue, or reject forever."""
        if footprint > self.capacity:
            return AdmissionDecision.REJECT
        if self.fits(footprint, switch_names):
            return AdmissionDecision.ADMIT
        return AdmissionDecision.QUEUE

    def fits(self, footprint: int, switch_names: Iterable[str]) -> bool:
        """Whether the footprint fits every named switch *right now*."""
        return all(
            self._used[name] + footprint <= self.capacity
            for name in switch_names
        )

    def reserve(
        self, job_id: int, footprint: int, switch_names: Iterable[str]
    ) -> None:
        names = list(switch_names)
        if job_id in self._reservations:
            raise ValueError(f"job {job_id} already holds a reservation")
        if not self.fits(footprint, names):
            raise RuntimeError(
                f"job {job_id} does not fit ({footprint} segments over "
                f"{names}); call fits() first"
            )
        for name in names:
            self._used[name] += footprint
        self._reservations[job_id] = (footprint, names)

    def release(self, job_id: int) -> bool:
        """Free a job's slots; returns False if it held none."""
        reservation = self._reservations.pop(job_id, None)
        if reservation is None:
            return False
        footprint, names = reservation
        for name in names:
            self._used[name] -= footprint
        return True
