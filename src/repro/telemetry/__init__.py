"""Unified observability layer: metrics, spans/events, and exporters.

The paper's claims are all *measurements* — where iteration time goes
(Figure 4), how much traffic each strategy moves (Tables 4/5), how many
hops a gradient travels (§5) — so the reproduction carries a first-class
telemetry substrate:

* :class:`MetricsRegistry` — labelled counters, gauges, and histograms
  (``switch.packets_dropped{switch="tor0"}``);
* :class:`SpanTracer` — structured spans and instant events stamped with
  *simulated* time;
* :class:`TelemetryHub` — one per run, threaded to every component via
  ``Simulator.telemetry``; disabled (:data:`NULL_HUB`) by default so the
  hot paths pay only a branch;
* :mod:`repro.telemetry.scrape` — the readers that turn the counts each
  component keeps into counter and gauge series at snapshot time;
* exporters — JSON snapshot, Chrome ``chrome://tracing`` trace, and a
  Prometheus-style text dump.

Enable per run via :class:`repro.distributed.ExperimentConfig` (on by
default there) or the ``repro train --trace-out/--metrics-out`` CLI flags.
"""

from .exporters import (
    to_chrome_trace,
    to_json,
    to_prometheus,
    write_chrome_trace,
    write_json,
    write_prometheus,
)
from .hub import NULL_HUB, TelemetryHub, TelemetrySnapshot
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .tracing import Span, SpanTracer, TraceEvent

__all__ = [
    "TelemetryHub",
    "TelemetrySnapshot",
    "NULL_HUB",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "SpanTracer",
    "Span",
    "TraceEvent",
    "to_json",
    "write_json",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_prometheus",
    "write_prometheus",
]
