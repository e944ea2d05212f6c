"""Structured outcomes of a fault-injected run.

Every :class:`~repro.faults.plan.FaultEvent` the injector processes gets
one :class:`FaultRecord` tracking its lifecycle::

    pending -> injected -> recovered
                      \\-> failed
            \\-> skipped

``skipped`` means the event could not apply (strategy without the needed
recovery machinery, unknown target, run ended first) — a *reported*
non-injection, per the contract that every strategy either recovers or
fails with a structured report.  ``failed`` means the fault was injected
but recovery was never observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .plan import FaultEvent

__all__ = ["FaultRecord", "FaultReport"]

#: Lifecycle states of a record.
STATUSES = ("pending", "injected", "recovered", "skipped", "failed")
#: Why a record the run never reached is skipped.
UNREACHED = "run ended before the event time"


@dataclass
class FaultRecord:
    """The lifecycle of one fault event through a run."""

    event: FaultEvent
    status: str = "pending"
    #: Human-readable explanation (why skipped/failed, what recovered).
    detail: str = ""
    injected_at: Optional[float] = None
    recovered_at: Optional[float] = None

    @property
    def reached(self) -> bool:
        """Whether the run reached the event's time."""
        return self.status != "pending" and self.detail != UNREACHED

    @property
    def recovery_latency(self) -> Optional[float]:
        if self.injected_at is None or self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at


@dataclass
class FaultReport:
    """All fault records of one run, plus summary helpers."""

    records: List[FaultRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no fault was injected without observed recovery."""
        return all(r.status in ("recovered", "skipped") for r in self.records)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.records:
            out[record.status] = out.get(record.status, 0) + 1
        return out

    def summary(self) -> List[str]:
        """One line per record, e.g. for the CLI."""
        lines = []
        for r in self.records:
            latency = r.recovery_latency
            tail = f" ({latency * 1e3:.2f} ms to recover)" if latency else ""
            detail = f" - {r.detail}" if r.detail else ""
            lines.append(
                f"[{r.status:>9}] t={r.event.time * 1e3:7.2f} ms "
                f"{r.event.kind} -> {r.event.target}{tail}{detail}"
            )
        return lines
