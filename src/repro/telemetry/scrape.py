"""The counted series of a run, read off the components that keep them.

Every count is kept once, by the component that owns it (a link its
packets, a client its Help requests, a fault record its status); no hot
path calls the hub.  A component registers itself with one of these
readers through :meth:`~repro.telemetry.hub.TelemetryHub.watch`, and each
snapshot runs them all into one :class:`Tally` and writes it into the
registry, so a second snapshot reads the same values.  A reader reports
only series that moved — a hot-path counter never created one at zero —
except :func:`network`, the baseline of a simulated ``run``: every link's
drops and utilization and every job's engine counters, moved or not.
"""

from __future__ import annotations

from typing import Dict

from .metrics import MetricsRegistry, _label_key


class Tally:
    """One snapshot's series: counters summed over every reader that
    reports them, gauges as their component holds them."""

    def __init__(self) -> None:
        self._counters: Dict[tuple, list] = {}
        self._gauges: Dict[tuple, tuple] = {}

    def count(self, name: str, value: float, **labels) -> None:
        entry = self._counters.setdefault((name, _label_key(labels)), [labels, 0])
        entry[1] += value

    def gauge(self, name: str, value: float, peak: float, **labels) -> None:
        """A gauge's current ``value`` and its high-water mark ``peak``."""
        self._gauges[(name, _label_key(labels))] = (labels, value, peak)

    def write(self, registry: MetricsRegistry) -> None:
        for (name, _), (labels, value) in self._counters.items():
            registry.counter(name, **labels).value = float(value)
        for (name, _), (labels, value, peak) in self._gauges.items():
            gauge = registry.gauge(name, **labels)
            gauge.value, gauge.max_value = float(value), float(peak)


def _moved(tally: Tally, series: dict, **labels) -> None:
    for name, value in series.items():
        if value:
            tally.count(name, value, **labels)


def _job(job: int) -> dict:
    return {"job": job} if job else {}  # job 0 stays unlabelled


def simulator(tally: Tally, sim) -> None:
    for kind, n in sim.events_by_kind.items():
        tally.count("sim.events_processed", n, kind=kind)


def link(tally: Tally, link) -> None:
    """Both directions' packets and bytes, by tenant job (job 0's are the
    rest), the drops, and the deeper transmit queue with its peak."""
    packets = sum(end.tx_packets for end in link.ends)
    nbytes = sum(end.tx_bytes for end in link.ends)
    for job, job_packets in link.tenant_packets.items():
        job_bytes = link.tenant_bytes[job]
        tally.count("link.tx_packets", job_packets, link=link.name, job=job)
        tally.count("link.tx_bytes", job_bytes, link=link.name, job=job)
        packets, nbytes = packets - job_packets, nbytes - job_bytes
    _moved(tally, {
        "link.tx_packets": packets,
        "link.tx_bytes": nbytes,
        "link.packets_dropped": link.dropped_packets,
    }, link=link.name)
    peak = max(end.peak_queued for end in link.ends)
    if peak:
        depth = max(end.queued_packets for end in link.ends)
        tally.gauge("link.queue_depth", depth, peak, link=link.name)


def network(tally: Tally, net) -> None:
    for each in net.links:
        tally.count("link.packets_dropped", 0, link=each.name)
        for end in each.ends:
            busy = end.utilization(net.sim.now)
            device = end.device.name if end.device is not None else "?"
            tally.gauge(
                "link.utilization", busy, max(busy, 0.0),
                link=each.name, device=device,
            )
    for switch in net.switches:
        for state in getattr(switch, "jobs", ()):
            where = {"switch": switch.name, **_job(state.job_id)}
            stats = state.engine.stats
            tally.count("switch.duplicates_dropped", stats.duplicates_dropped, **where)
            tally.count("switch.evictions", stats.evictions, **where)
            for cause, n in stats.batch_bails.items():
                tally.count("switch.batch_bails", n, cause=cause, **where)
            for kind, n in stats.joins.items():
                tally.count("switch.joins", n, kind=kind, **where)


def iswitch(tally: Tally, switch) -> None:
    """Contributions and completions by job (kept while telemetry is on),
    results sent down by job (the job roles' counters, departed jobs'
    too) and control messages by action."""
    name = switch.name
    for job, n in switch.contributions_by_job.items():
        tally.count("switch.contributions", n, switch=name, **_job(job))
    for job, n in switch.completions_by_job.items():
        tally.count("switch.segments_completed", n, switch=name, **_job(job))
    for job, counters in switch.jobs.counters():
        sent = counters["results_broadcast"] + counters["parent_relays"]
        _moved(tally, {"switch.result_broadcasts": sent}, switch=name, **_job(job))
    for action, n in switch.controls_by_action.items():
        action = action.name.lower()
        tally.count("switch.control_messages", n, switch=name, action=action)


def client(tally: Tally, client) -> None:
    _moved(tally, {
        "client.help_requests": client.help_requests,
        "client.retransmissions": client.retransmissions,
        "client.rounds_completed": client.rounds_completed,
        "client.rounds_abandoned": len(client.abandoned_rounds),
    }, worker=client.host.name)


def busy_queue(tally: Tally, queue) -> None:
    if queue.backlog_at_submit is not None:
        tally.gauge(
            "busyqueue.backlog_seconds", queue.backlog_at_submit,
            queue.peak_backlog, queue=queue.name,
        )


def async_server(tally: Tally, strategy) -> None:
    _moved(tally, {"server.updates": strategy.server_updates})


def async_workers(tally: Tally, strategy) -> None:
    """An asynchronous iSwitch strategy's per-worker lists."""
    for name in ("commits", "skipped_commits", "updates_missed"):
        counts = getattr(strategy, f"worker_{name}", ())
        for worker, n in zip(strategy.workers, counts):
            _moved(tally, {f"worker.{name}": n}, worker=worker.name)


def faults(tally: Tally, injector) -> None:
    for record in injector.report.records:
        _moved(tally, {
            "fault.injected_total": record.injected_at is not None,
            "fault.recovered_total": record.recovered_at is not None,
            "fault.skipped_total": record.status == "skipped" and record.reached,
        }, kind=record.event.kind)


def fabric(tally: Tally, fabric) -> None:
    """Each job's way through a shared fabric, and how many ran at once."""
    for handle in fabric.handles.values():
        _moved(tally, {
            "job.submitted": 1,
            "job.rejected": handle.status.value == "rejected",
            "job.queued": handle.queued_at is not None,
            "job.admitted": handle.admitted_at is not None,
            "job.rounds_completed": handle.rounds_completed,
            "job.completed": handle.completed_at is not None,
        }, job=handle.job_id, job_name=handle.spec.name, tenant=handle.spec.tenant)
    if fabric.peak_concurrent:
        tally.gauge("job.concurrent", fabric.running, fabric.peak_concurrent)


def live(tally: Tally, nodes) -> None:
    """``(node, counters)`` of every process of a live run."""
    for node, counters in nodes:
        _moved(tally, {f"live.{k}": v for k, v in counters.items()}, node=node)
