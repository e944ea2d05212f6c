"""Tests for the repro.telemetry subsystem: registry, tracer, exporters,
and the simulator/netsim instrumentation hooks."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    AggregationClient,
    SegmentPlan,
    configure_aggregation,
    iswitch_factory,
)
from repro.distributed import ExperimentConfig, run
from repro.netsim import Simulator, build_star
from repro.telemetry import (
    NULL_HUB,
    MetricsRegistry,
    SpanTracer,
    TelemetryHub,
    to_chrome_trace,
    to_json,
    to_prometheus,
)


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("pkts").inc()
        reg.counter("pkts").inc(2)
        assert reg.counter("pkts").value == 3.0

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("pkts", link="a").inc(1)
        reg.counter("pkts", link="b").inc(5)
        assert reg.counter("pkts", link="a").value == 1.0
        assert reg.counter("pkts", link="b").value == 5.0
        assert len(reg) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("m", a="1", b="2").inc()
        assert reg.counter("m", b="2", a="1").value == 1.0
        assert len(reg) == 1

    def test_negative_counter_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("m").inc(-1)

    def test_gauge_set_and_high_water(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.set(3)
        assert g.value == 3.0
        assert g.max_value == 7.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        # Cumulative counts: <=1: 1, <=10: 2, <=100: 3, +Inf: 4.
        assert h.cumulative_counts() == [1, 2, 3, 4]

    def test_histogram_as_dict_has_inf_bucket(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0,)).observe(2.0)
        [d] = reg.as_dicts()
        les = [b["le"] for b in d["buckets"]]
        assert les[-1] == "+Inf"
        assert d["buckets"][-1]["count"] == 1

    def test_as_dicts_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c", x="1").inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(0.5)
        json.dumps(reg.as_dicts())


class TestSpanTracer:
    def test_begin_end_records_duration(self):
        t = [0.0]
        tracer = SpanTracer(lambda: t[0])
        handle = tracer.begin("work", track="w0")
        t[0] = 2.5
        tracer.end(handle)
        [span] = tracer.spans
        assert span.name == "work"
        assert span.duration == pytest.approx(2.5)

    def test_span_at_rejects_negative_duration(self):
        tracer = SpanTracer(lambda: 0.0)
        with pytest.raises(ValueError):
            tracer.span_at("bad", 2.0, 1.0)

    def test_record_cap_counts_drops(self):
        tracer = SpanTracer(lambda: 0.0, max_records=2)
        for i in range(5):
            tracer.event(f"e{i}")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3


class TestTelemetryHub:
    def test_disabled_hub_is_inert(self):
        hub = TelemetryHub(enabled=False)
        hub.inc("m")
        hub.set_gauge("g", 1.0)
        hub.observe("h", 1.0)
        hub.event("e")
        handle = hub.begin_span("s")
        hub.end_span(handle)
        snap = hub.snapshot()
        assert snap.metrics == [] and snap.spans == [] and snap.events == []

    def test_null_hub_never_accumulates(self):
        NULL_HUB.inc("m")
        assert len(NULL_HUB.metrics) == 0

    def test_collector_runs_at_snapshot(self):
        hub = TelemetryHub()
        hub.add_collector(lambda h: h.metrics.counter("scraped").inc(9))
        snap = hub.snapshot()
        assert snap.value("scraped") == 9.0

    def test_snapshot_meta_merge(self):
        hub = TelemetryHub()
        snap = hub.snapshot(meta={"strategy": "isw"})
        assert snap.meta["strategy"] == "isw"
        assert "n_metrics" in snap.meta


class TestExporters:
    def _populated_hub(self):
        t = [0.0]
        hub = TelemetryHub(clock=lambda: t[0])
        hub.inc("pkts", 3, link="a")
        hub.observe("lat", 0.5)
        hub.span_at("agg", 0.0, 1.5e-3, cat="aggregation", track="tor0")
        t[0] = 2e-3
        hub.event("drop", track="tor0")
        return hub

    def test_chrome_trace_valid_and_monotone(self):
        doc = to_chrome_trace(self._populated_hub().snapshot())
        parsed = json.loads(json.dumps(doc))
        events = [e for e in parsed["traceEvents"] if e["ph"] != "M"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        phases = {e["ph"] for e in events}
        assert "X" in phases and "i" in phases
        # Spans carry microseconds of simulated time.
        [span] = [e for e in events if e["ph"] == "X"]
        assert span["dur"] == pytest.approx(1500.0)

    def test_chrome_trace_names_tracks(self):
        doc = to_chrome_trace(self._populated_hub().snapshot())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(m["args"]["name"] == "tor0" for m in meta)

    def test_prometheus_format(self):
        text = to_prometheus(self._populated_hub().snapshot())
        assert "# TYPE repro_pkts counter" in text
        assert 'repro_pkts{link="a"} 3.0' in text
        assert "repro_lat_count" in text and "repro_lat_sum" in text
        assert 'le="+Inf"' in text

    def test_json_round_trips(self):
        snap = self._populated_hub().snapshot()
        doc = json.loads(to_json(snap))
        assert doc["metrics"] and doc["spans"] and doc["events"]


class TestSimulatorIntegration:
    def _run_cluster(self, hub):
        sim = Simulator(telemetry=hub)
        net = build_star(sim, 3, switch_factory=iswitch_factory)
        configure_aggregation(net)
        plan = SegmentPlan(3000)
        clients = [AggregationClient(w, "tor0", plan) for w in net.workers]
        for client in clients:
            client.send_gradient(np.ones(3000, dtype=np.float32), 0)
        sim.run()
        return net

    def test_link_and_switch_metrics_recorded(self):
        hub = TelemetryHub()
        self._run_cluster(hub)
        snap = hub.snapshot()
        assert snap.value("link.tx_packets") > 0
        assert snap.value("switch.contributions", switch="tor0") > 0
        assert snap.value("switch.result_broadcasts") > 0
        assert len(snap.spans_named("segment.aggregate")) > 0

    def test_aggregate_spans_cover_first_arrival_to_complete(self):
        hub = TelemetryHub()
        self._run_cluster(hub)
        for span in hub.snapshot().spans_named("segment.aggregate"):
            assert span.end >= span.start >= 0.0

    def test_disabled_by_default(self):
        net = self._run_cluster(None)
        assert net.sim.telemetry is NULL_HUB
        assert len(NULL_HUB.metrics) == 0

    def test_event_counters_by_kind(self):
        hub = TelemetryHub()
        self._run_cluster(hub)
        snap = hub.snapshot()
        assert snap.value("sim.events_processed") > 0


#: The counters scraped from every switch engine at snapshot time.
ENGINE_SERIES = (
    "switch.duplicates_dropped", "switch.evictions",
    "switch.batch_bails", "switch.joins",
)


def engine_series(result):
    """Each engine counter by switch and kind or cause, summed over jobs."""
    totals = {}
    for metric in result.telemetry.metrics:
        if metric["name"] in ENGINE_SERIES:
            labels = tuple(
                sorted((k, v) for k, v in metric["labels"].items() if k != "job")
            )
            key = (metric["name"], labels)
            totals[key] = totals.get(key, 0) + metric["value"]
    return totals


class TestEngineSeriesOfEveryJob:
    @pytest.mark.parametrize("loss_rate", [0.0, 0.05])
    def test_a_tenant_job_reports_what_job_zero_does(self, loss_rate):
        # The same training under job id 5 sums in job 5's engine, not
        # job 0's: its counters must be scraped from there.
        runs = {
            job: run(ExperimentConfig(
                strategy="isw", workload="synth", n_workers=4, iterations=8,
                seed=7, loss_rate=loss_rate, job_id=job,
            ))
            for job in (0, 5)
        }
        assert engine_series(runs[5]) == engine_series(runs[0])
        snapshot = runs[5].telemetry
        if loss_rate:
            assert snapshot.value("switch.duplicates_dropped", job=5) > 0
        else:
            assert snapshot.value("switch.joins", kind="view", job=5) == (
                runs[5].ingest["view"]
            )


def test_no_component_counts_into_the_hub():
    """Every count is kept by its component and read when a snapshot is
    taken (``repro.telemetry.scrape``): nothing outside the telemetry
    package increments a hub counter or sets a hub gauge, so counting
    cannot grow back onto the hot paths."""
    package = Path(repro.__file__).parent
    telemetry = package / "telemetry"
    calls = []
    for path in sorted(package.rglob("*.py")):
        if telemetry in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("inc", "set_gauge")
            ):
                calls.append(f"{path.relative_to(package)}:{node.lineno}")
    assert calls == []
