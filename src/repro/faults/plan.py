"""Fault plans: declarative schedules of timed fault events.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records —
``(time, kind, target, params)`` — describing *what goes wrong when*
during a simulated training run.  Plans are plain data: they can be
built in code, loaded from JSON (``FaultPlan.load`` /
``ExperimentConfig.fault_plan`` / ``repro train --fault-plan``), and
validated without any simulator present.  The
:class:`repro.faults.injector.FaultInjector` turns a plan into scheduled
simulator events against a live experiment.

Event kinds
-----------
``worker-crash``
    The target worker fails, stays down for ``down_for`` seconds, then
    rejoins.  iSwitch strategies drive real ``Leave``/``Join`` control
    traffic (the switch re-derives H); barrier strategies pause the
    worker at its next iteration boundary.
``switch-reset``
    A ``Reset`` control message clears the target switch's aggregation
    engine mid-round; workers recover via Help-driven retransmission.
    Only meaningful for iSwitch strategies (skipped elsewhere).
``link-burst``
    A Gilbert–Elliott burst-loss window of ``duration`` seconds with
    mean loss rate ``loss`` on the target link(s).  Requires a
    loss-tolerant (iSwitch) strategy; skipped elsewhere.
``link-degrade``
    The target link(s) run at ``1/factor`` of their bandwidth for
    ``duration`` seconds.  Applies to every strategy.
``straggler``
    The target worker computes ``slowdown``× slower for ``duration``
    seconds.  Applies to every strategy.

>>> plan = FaultPlan([FaultEvent(0.01, "worker-crash", "worker1",
...                              {"down_for": 0.02})])
>>> plan.validate()
>>> len(demo_plan(0.01))
3
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["FaultEvent", "FaultPlan", "KINDS", "demo_plan"]

#: The closed set of supported fault kinds.
KINDS = (
    "worker-crash",
    "switch-reset",
    "link-burst",
    "link-degrade",
    "straggler",
)

#: JSON schema version written/accepted by save/load.
PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: at ``time`` (simulated seconds), do ``kind``
    to ``target`` with ``params``."""

    time: float
    kind: str
    target: str
    params: Dict = field(default_factory=dict)

    def validate(self) -> None:
        """Raise ``ValueError`` if the event is malformed."""
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose one of {KINDS}"
            )
        if not self.target:
            raise ValueError("event target must be a non-empty string")
        p = self.params
        if self.kind == "worker-crash":
            down_for = p.get("down_for")
            if down_for is None or down_for <= 0:
                raise ValueError(
                    f"worker-crash needs params.down_for > 0, got {down_for}"
                )
        elif self.kind == "switch-reset":
            pass  # no parameters
        elif self.kind == "link-burst":
            loss = p.get("loss", 0.02)
            loss_bad = p.get("loss_bad", 0.5)
            if not 0.0 < loss < loss_bad <= 1.0:
                raise ValueError(
                    "link-burst needs 0 < params.loss < params.loss_bad <= 1,"
                    f" got loss={loss}, loss_bad={loss_bad}"
                )
            self._require_duration()
        elif self.kind == "link-degrade":
            factor = p.get("factor")
            if factor is None or factor <= 1.0:
                raise ValueError(
                    f"link-degrade needs params.factor > 1, got {factor}"
                )
            self._require_duration()
        elif self.kind == "straggler":
            slowdown = p.get("slowdown")
            if slowdown is None or slowdown <= 1.0:
                raise ValueError(
                    f"straggler needs params.slowdown > 1, got {slowdown}"
                )
            self._require_duration()

    def _require_duration(self) -> None:
        duration = self.params.get("duration")
        if duration is None or duration <= 0:
            raise ValueError(
                f"{self.kind} needs params.duration > 0, got {duration}"
            )

    def to_dict(self) -> Dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "target": self.target,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "FaultEvent":
        unknown = set(record) - {"time", "kind", "target", "params"}
        if unknown:
            raise ValueError(f"unknown fault-event keys: {sorted(unknown)}")
        return cls(
            time=float(record["time"]),
            kind=str(record["kind"]),
            target=str(record["target"]),
            params=dict(record.get("params", {})),
        )


class FaultPlan:
    """An ordered collection of fault events (sorted by time)."""

    def __init__(self, events: Optional[List[FaultEvent]] = None) -> None:
        self.events: List[FaultEvent] = sorted(
            events or [], key=lambda e: e.time
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def validate(self) -> None:
        """Validate every event; raises ``ValueError`` on the first bad one."""
        for event in self.events:
            event.validate()

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": PLAN_VERSION,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "FaultPlan":
        version = record.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(
                f"unsupported fault-plan version {version!r} "
                f"(this build reads version {PLAN_VERSION})"
            )
        plan = cls([FaultEvent.from_dict(e) for e in record.get("events", [])])
        plan.validate()
        return plan

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def demo_plan(base: float = 12e-3) -> FaultPlan:
    """The acceptance-criteria scenario, scaled by ``base`` (one ~iteration).

    One worker crash + rejoin, one switch Reset, and a 2 % burst-loss
    window — the three headline recovery paths, spread far enough apart
    that each resolves before the next begins.
    """
    if base <= 0:
        raise ValueError(f"base must be > 0, got {base}")
    return FaultPlan(
        [
            FaultEvent(
                2 * base, "worker-crash", "worker1", {"down_for": 3 * base}
            ),
            FaultEvent(7 * base, "switch-reset", "root", {}),
            FaultEvent(
                9 * base,
                "link-burst",
                "*",
                {"loss": 0.02, "duration": 2 * base},
            ),
        ]
    )
