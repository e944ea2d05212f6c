"""Multi-job support: several training jobs sharing one iSwitch.

The paper positions iSwitch as "an extension to the programmable switch
[that] does not affect its regular network functions"; a production switch
would also host *several* training jobs at once (different tenants,
different models).  :class:`JobTable` gives each job its own aggregation
engine, membership set, and threshold, keyed by a 16-bit job id carried in
the data/control payloads.

Job 0 always exists (the single-job default), so all single-tenant code
paths work unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .accelerator import AcceleratorTiming, AggregationEngine
from .control_plane import MembershipTable

__all__ = ["JobState", "JobTable", "DEFAULT_JOB"]

DEFAULT_JOB = 0
MAX_JOB_ID = 0xFFFF


class JobState:
    """Per-job switch state: engine + members."""

    def __init__(
        self,
        job_id: int,
        dedup: bool = False,
        timing: Optional[AcceleratorTiming] = None,
        canonical: bool = False,
        codec=None,
    ) -> None:
        if not 0 <= job_id <= MAX_JOB_ID:
            raise ValueError(f"job id must fit 16 bits, got {job_id}")
        self.job_id = job_id
        self.engine = AggregationEngine(
            threshold=1,
            dedup=dedup,
            timing=timing,
            canonical_order=canonical,
            codec=codec,
        )
        self.members = MembershipTable()


class JobTable:
    """All jobs registered on one switch, created on demand."""

    def __init__(
        self,
        dedup: bool = False,
        timing: Optional[AcceleratorTiming] = None,
        max_jobs: int = 64,
        canonical: bool = False,
        codec=None,
    ) -> None:
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self._dedup = dedup
        self._timing = timing
        self._canonical = canonical
        self._codec = codec
        self.max_jobs = max_jobs
        self._jobs: Dict[int, JobState] = {}
        self.get(DEFAULT_JOB)  # job 0 always exists

    @property
    def full(self) -> bool:
        """Whether creating one more job's state would overflow the table."""
        return len(self._jobs) >= self.max_jobs

    def get(self, job_id: int) -> JobState:
        """Fetch (or lazily create) a job's state."""
        state = self._jobs.get(job_id)
        if state is None:
            if self.full:
                raise RuntimeError(
                    f"switch job table full ({self.max_jobs} jobs); "
                    "Leave an existing job first"
                )
            state = JobState(
                job_id,
                dedup=self._dedup,
                timing=self._timing,
                canonical=self._canonical,
                codec=self._codec,
            )
            self._jobs[job_id] = state
        return state

    def register(self, job_id: int) -> JobState:
        """Create a job's state, rejecting duplicates.

        Unlike :meth:`get` (lazy creation for the datapath), ``register``
        is the control-plane spelling: submitting the same job id twice is
        a tenant error, not an idempotent lookup.
        """
        if job_id in self._jobs:
            raise ValueError(
                f"job {job_id} is already registered on this switch"
            )
        return self.get(job_id)

    def peek(self, job_id: int) -> Optional[JobState]:
        """Fetch without creating."""
        return self._jobs.get(job_id)

    def remove(self, job_id: int) -> bool:
        """Drop a job's state entirely (its last member left).

        Job 0 is never removed — it is the default-job anchor.
        """
        if job_id == DEFAULT_JOB:
            return False
        return self._jobs.pop(job_id, None) is not None

    def __iter__(self) -> Iterator[JobState]:
        return iter(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs
