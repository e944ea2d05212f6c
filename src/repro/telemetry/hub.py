"""The per-run telemetry hub: one registry, one tracer, the readers.

Every simulated component reaches telemetry through its simulator
(``self.sim.telemetry``), which defaults to the shared :data:`NULL_HUB` —
a disabled hub whose mutators return immediately.  Hot paths record
spans, events and histogram observations behind one ``enabled`` branch;
counts they keep themselves, and :meth:`TelemetryHub.snapshot` reads them
(:mod:`repro.telemetry.scrape`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .scrape import Tally
from .tracing import Span, SpanTracer, TraceEvent

__all__ = ["TelemetryHub", "TelemetrySnapshot", "NULL_HUB"]


@dataclass
class TelemetrySnapshot:
    """A frozen, export-ready view of one run's telemetry."""

    metrics: List[dict] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    clock_end: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    # -- convenience accessors -----------------------------------------
    def _find(self, name: str, labels: Optional[dict] = None) -> List[dict]:
        wanted = {k: str(v) for k, v in (labels or {}).items()}
        return [
            m
            for m in self.metrics
            if m["name"] == name
            and all(m["labels"].get(k) == v for k, v in wanted.items())
        ]

    def value(self, name: str, **labels) -> float:
        """Sum of a counter/gauge across all label sets matching ``labels``."""
        return sum(m.get("value", 0.0) for m in self._find(name, labels))

    def has_metric(self, name: str, **labels) -> bool:
        return bool(self._find(name, labels))

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def events_named(self, name: str) -> List[TraceEvent]:
        return [e for e in self.events if e.name == name]

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form (the JSON exporter's payload)."""
        return {
            "clock_end": self.clock_end,
            "meta": dict(self.meta),
            "metrics": self.metrics,
            "spans": [
                {
                    "name": s.name,
                    "cat": s.cat,
                    "track": s.track,
                    "start": s.start,
                    "end": s.end,
                    "args": s.args,
                }
                for s in self.spans
            ],
            "events": [
                {
                    "name": e.name,
                    "cat": e.cat,
                    "track": e.track,
                    "ts": e.ts,
                    "args": e.args,
                }
                for e in self.events
            ],
        }


class TelemetryHub:
    """Aggregation point for one run's metrics, spans, and events."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        max_trace_records: int = 200_000,
    ) -> None:
        self.enabled = enabled
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(self.now, max_records=max_trace_records)
        self._watched: List[Tuple[Callable[[Tally, Any], None], Any]] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the hub at a time source (the simulator binds itself)."""
        self._clock = clock

    # ------------------------------------------------------------------
    # Metric conveniences (no-ops while disabled)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        if self.enabled:
            self.metrics.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # Tracing conveniences (no-ops while disabled)
    # ------------------------------------------------------------------
    def begin_span(self, name: str, cat: str = "", track: str = "", **args) -> int:
        if not self.enabled:
            return -1
        return self.tracer.begin(name, cat=cat, track=track, **args)

    def end_span(self, handle: int, **args) -> None:
        if self.enabled and handle >= 0:
            self.tracer.end(handle, **args)

    def span_at(
        self, name: str, start: float, end: float, cat: str = "",
        track: str = "", **args,
    ) -> None:
        if self.enabled:
            self.tracer.span_at(name, start, end, cat=cat, track=track, **args)

    def event(self, name: str, cat: str = "", track: str = "", **args) -> None:
        if self.enabled:
            self.tracer.event(name, cat=cat, track=track, **args)

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def add_collector(self, fn: Callable[["TelemetryHub"], None]) -> None:
        """Run ``fn(hub)`` at every :meth:`snapshot`, with the readers."""
        self.watch(lambda _tally, hub: fn(hub), self)

    def watch(self, reader: Callable[[Tally, Any], None], source: Any) -> None:
        """Read ``source``'s counted series with ``reader`` at every
        :meth:`snapshot` (a reader of :mod:`repro.telemetry.scrape`)."""
        if self.enabled:
            self._watched.append((reader, source))

    def snapshot(self, meta: Optional[dict] = None) -> TelemetrySnapshot:
        """Read every watched component's counts and freeze the current
        state for export.

        ``meta`` entries are merged into the snapshot's metadata block
        (experiment identity: strategy, workload, seed, ...).
        """
        tally = Tally()
        for reader, source in self._watched:
            reader(tally, source)
        tally.write(self.metrics)
        kinds = [m.kind for m in self.metrics.collect()]
        merged = {
            "enabled": self.enabled,
            "n_metrics": len(self.metrics),
            "n_gauges": kinds.count("gauge"),
            "n_histograms": kinds.count("histogram"),
            "n_spans": len(self.tracer.spans),
            "n_events": len(self.tracer.events),
            "open_spans": self.tracer.open_spans,
            "trace_records_dropped": self.tracer.dropped,
        }
        if meta:
            merged.update(meta)
        return TelemetrySnapshot(
            metrics=self.metrics.as_dicts(),
            spans=list(self.tracer.spans),
            events=list(self.tracer.events),
            clock_end=self.now(),
            meta=merged,
        )


#: The shared disabled hub every simulator starts with.  All mutators
#: check ``enabled`` first, so this instance never accumulates state.
NULL_HUB = TelemetryHub(enabled=False)
