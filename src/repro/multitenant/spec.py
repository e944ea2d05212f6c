"""Job descriptions and handles for the multi-tenant fabric.

A :class:`JobSpec` is everything a tenant supplies; a :class:`JobHandle`
is the fabric's receipt — it tracks the job through admission, execution,
and completion, and exposes the :class:`~repro.distributed.results.TrainingResult`
once the job finished.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["JobSpec", "JobStatus", "JobHandle", "WIRE_MAX_JOB_ID"]

#: The wire protocol carries the job id in 7 reserved bits (see
#: :mod:`repro.core.protocol`); fabric-assigned ids must fit it.
WIRE_MAX_JOB_ID = 127


class JobStatus(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"  # submitted, arrival time not reached yet
    QUEUED = "queued"  # arrived, waiting for switch SRAM
    RUNNING = "running"  # admitted; aggregation slots reserved
    COMPLETED = "completed"
    REJECTED = "rejected"  # can never fit the modeled SRAM
    FAILED = "failed"


@dataclass
class JobSpec:
    """One tenant's training-job request."""

    name: str
    workload: str = "synth"
    n_workers: int = 2
    iterations: int = 4
    seed: int = 0
    #: Only consulted by the strict-priority policy (higher runs first).
    priority: int = 0
    tenant: str = "default"
    #: Simulated time the job arrives at the fabric.
    arrival_time: float = 0.0
    #: Explicit job id (1..127); ``None`` lets the fabric assign one.
    job_id: Optional[int] = None
    algorithm_overrides: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job needs a non-empty name")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.arrival_time < 0:
            raise ValueError(
                f"arrival_time must be >= 0, got {self.arrival_time}"
            )
        if self.job_id is not None and not 1 <= self.job_id <= WIRE_MAX_JOB_ID:
            raise ValueError(
                f"job_id must be in [1, {WIRE_MAX_JOB_ID}], got {self.job_id}"
            )


@dataclass
class JobHandle:
    """The fabric's view of one submitted job."""

    spec: JobSpec
    job_id: int
    status: JobStatus = JobStatus.PENDING
    #: Aggregation-SRAM segments this job holds on each touched switch.
    footprint: int = 0
    #: Rack (ToR) indices the job's workers are striped across.
    racks: List[int] = field(default_factory=list)
    submitted_at: float = 0.0
    queued_at: Optional[float] = None
    admitted_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Training rounds the job's workers have all finished.
    rounds_completed: int = 0
    reject_reason: Optional[str] = None
    result: Optional[object] = None  # TrainingResult when COMPLETED

    @property
    def wait_time(self) -> Optional[float]:
        """Seconds of simulated time spent queued before admission."""
        if self.queued_at is None or self.admitted_at is None:
            return None
        return self.admitted_at - self.queued_at

    @property
    def run_time(self) -> Optional[float]:
        if self.admitted_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.admitted_at

    def summary(self) -> dict:
        """A JSON-friendly snapshot (used by ``repro jobs status``)."""
        return {
            "job_id": self.job_id,
            "name": self.spec.name,
            "tenant": self.spec.tenant,
            "workload": self.spec.workload,
            "n_workers": self.spec.n_workers,
            "iterations": self.spec.iterations,
            "priority": self.spec.priority,
            "status": self.status.value,
            "footprint": self.footprint,
            "racks": list(self.racks),
            "submitted_at": self.submitted_at,
            "queued_at": self.queued_at,
            "admitted_at": self.admitted_at,
            "completed_at": self.completed_at,
            "wait_time": self.wait_time,
            "run_time": self.run_time,
            "reject_reason": self.reject_reason,
        }
