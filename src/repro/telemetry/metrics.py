"""Labelled metric instruments: counters, gauges, and histograms.

The registry follows the Prometheus data model — a metric is identified by
a *name* plus a set of key=value *labels*, e.g.
``switch.packets_dropped{switch="tor0"}`` — but stays dependency-free.
Instruments are created lazily on first use and hold plain Python
attributes: counters and gauges are written when a snapshot reads the
components' own counts (:mod:`repro.telemetry.scrape`), histograms where
their values arise.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, log-spaced for durations in seconds
#: (simulated latencies span ~1 µs switch hops to whole-second iterations).
DEFAULT_BUCKETS = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
    100.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, backlogs)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "max_value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        #: High-water mark since creation, for free peak statistics.
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.max_value:
            self.max_value = self.value


class Histogram:
    """A cumulative histogram over fixed upper-bound buckets.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; one extra
    overflow bucket (``+Inf``) catches the rest, Prometheus-style.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} has duplicate buckets: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out


class MetricsRegistry:
    """Get-or-create store for all instruments of one telemetry hub."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._kinds: Dict[str, str] = {}

    def _get(self, factory, kind: str, name: str, labels: Dict[str, object]):
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise TypeError(
                f"metric {name!r} already registered as a {known}, "
                f"cannot re-register as a {kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, "counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, "gauge", name, labels)

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        factory = lambda n, l: Histogram(n, l, buckets or DEFAULT_BUCKETS)  # noqa: E731
        return self._get(factory, "histogram", name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self) -> List[object]:
        """All instruments, ordered by (name, labels) for stable output."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def as_dicts(self) -> List[dict]:
        """JSON-ready description of every instrument."""
        out = []
        for metric in self.collect():
            entry = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry["sum"] = metric.sum
                entry["count"] = metric.count
                entry["buckets"] = [
                    {"le": bound, "count": cumulative}
                    for bound, cumulative in zip(
                        metric.bounds, metric.cumulative_counts()
                    )
                ]
                entry["buckets"].append(
                    {"le": "+Inf", "count": metric.count}
                )
            elif isinstance(metric, Gauge):
                entry["value"] = metric.value
                entry["max"] = metric.max_value
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out
