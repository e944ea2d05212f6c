"""The fault injector: applies a FaultPlan to a live experiment.

A :class:`FaultInjector` is built by the distributed runner after the
network, workers and strategy exist but before the simulation starts.
:meth:`install` schedules one simulator event per plan entry;
:meth:`finalize` (called after ``sim.run()`` returns) settles every
record and returns the :class:`~repro.faults.report.FaultReport`.

Strategy coupling is deliberately thin and duck-typed: the injector
looks for optional hooks on the strategy object —

* ``fault_crash_worker(worker) -> bool`` / ``fault_restore_worker(worker)
  -> bool`` for worker crash + rejoin,
* ``fault_reset_switch(switch) -> bool`` for a mid-run accelerator Reset

— and falls back to a *skipped* record when a hook is missing or
declines (returns ``False``).  Link-level faults (burst loss, bandwidth
degradation) and stragglers need no strategy hook: they mutate the
:class:`~repro.netsim.link.Link` / ``ComputeModel`` state directly, for
a timed window.

Recovery detection is observational, not declared: after a crash's
restore (or a switch reset) the injector polls cheap monotonic progress
counters — ``worker.iterations_done``, ``engine.stats.completions`` —
at a small simulated-time interval, bounded by ``max_polls`` so an
unrecoverable run ends in a *failed* record instead of a livelock.
Telemetry: each record emits ``fault.injected`` / ``fault.recovered``
events and counters, plus a ``fault.recovery`` span covering
injection -> detected recovery.
"""

from __future__ import annotations

from typing import List, Optional

from ..netsim.link import GilbertElliott, Link
from .plan import FaultPlan
from .report import FaultRecord, FaultReport

__all__ = ["FaultInjector"]

#: Default polling period (simulated seconds) for recovery detection.
DEFAULT_POLL_INTERVAL = 2e-3
#: Default cap on recovery polls per record.
DEFAULT_MAX_POLLS = 400


class FaultInjector:
    """Schedules a plan's events against one experiment."""

    def __init__(
        self,
        net,
        workers: List,
        strategy,
        plan: FaultPlan,
        loss_tolerant: bool = False,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_polls: int = DEFAULT_MAX_POLLS,
    ) -> None:
        plan.validate()
        self.net = net
        self.sim = net.sim
        self.workers = workers
        self.strategy = strategy
        self.plan = plan
        #: Whether the running strategy survives packet loss (iSwitch
        #: data path + Help/retransmit).  Gates link-burst injection.
        self.loss_tolerant = loss_tolerant
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        self.poll_interval = poll_interval
        self.max_polls = max_polls
        self.report = FaultReport(
            records=[FaultRecord(event=e) for e in plan.events]
        )
        self._installed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every plan event; call once, before the run starts."""
        if self._installed:
            raise RuntimeError("injector already installed")
        if self.sim.batch_transport:
            # Under trains a crash abandons in-flight bursts as a unit and
            # can schedule into the past (DESIGN.md §11.2).
            raise ValueError(
                "fault injection needs the per-packet transport; clients "
                "burst packet trains only when no loss recovery is armed "
                "(build_cluster(recovery_armed=True), as run() does)"
            )
        self._installed = True
        for record in self.report.records:
            self.sim.schedule_at(
                record.event.time,
                lambda r=record: self._fire(r),
                name=f"fault:{record.event.kind}",
            )

    def finalize(self, result=None) -> FaultReport:
        """Settle still-open records after the run; attach to ``result``."""
        for record in self.report.records:
            if record.status == "pending":
                record.status = "skipped"
                record.detail = "run ended before the event time"
            elif record.status == "injected":
                record.status = "failed"
                record.detail = (
                    record.detail or "recovery not observed before run end"
                )
        if result is not None:
            result.fault_report = self.report
        return self.report

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _fire(self, record: FaultRecord) -> None:
        handler = {
            "worker-crash": self._fire_worker_crash,
            "switch-reset": self._fire_switch_reset,
            "link-burst": self._fire_link_burst,
            "link-degrade": self._fire_link_degrade,
            "straggler": self._fire_straggler,
        }[record.event.kind]
        handler(record)

    def _mark_injected(self, record: FaultRecord) -> None:
        record.status = "injected"
        record.injected_at = self.sim.now
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("fault.injected_total", 1, kind=record.event.kind)
            telemetry.event(
                "fault.injected",
                cat="fault",
                track="faults",
                kind=record.event.kind,
                target=record.event.target,
            )

    def _mark_skipped(self, record: FaultRecord, detail: str) -> None:
        record.status = "skipped"
        record.detail = detail
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("fault.skipped_total", 1, kind=record.event.kind)

    def _mark_recovered(self, record: FaultRecord, detail: str = "") -> None:
        record.status = "recovered"
        record.recovered_at = self.sim.now
        if detail:
            record.detail = detail
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.inc("fault.recovered_total", 1, kind=record.event.kind)
            telemetry.event(
                "fault.recovered",
                cat="fault",
                track="faults",
                kind=record.event.kind,
                target=record.event.target,
            )
            if record.injected_at is not None:
                telemetry.span_at(
                    "fault.recovery",
                    record.injected_at,
                    self.sim.now,
                    cat="fault",
                    track="faults",
                    kind=record.event.kind,
                    target=record.event.target,
                )

    def _poll_until(self, record: FaultRecord, predicate, detail: str) -> None:
        """Poll ``predicate`` until true (-> recovered) or budget exhausted."""
        polls = {"n": 0}

        def check() -> None:
            if record.status != "injected":
                return
            if predicate():
                self._mark_recovered(record, detail)
                return
            polls["n"] += 1
            if polls["n"] >= self.max_polls:
                record.status = "failed"
                record.detail = (
                    f"no recovery within {self.max_polls} polls of "
                    f"{self.poll_interval * 1e3:.2f} ms"
                )
                return
            self.sim.schedule(self.poll_interval, check, name="fault:poll")

        self.sim.schedule(self.poll_interval, check, name="fault:poll")

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _resolve_worker(self, target: str):
        for worker in self.workers:
            if worker.host.name == target or f"worker{worker.index}" == target:
                return worker
        return None

    def _resolve_switch(self, target: str):
        if target == "root":
            return self.net.root
        for switch in self.net.switches:
            if switch.name == target:
                return switch
        return None

    def _resolve_links(self, target: str) -> List[Link]:
        if target == "*":
            return list(self.net.links)
        matched = []
        for link in self.net.links:
            endpoints = [
                end.device.name for end in link.ends if end.device is not None
            ]
            if link.name == target or target in endpoints:
                matched.append(link)
        return matched

    # ------------------------------------------------------------------
    # Kind handlers
    # ------------------------------------------------------------------
    def _fire_worker_crash(self, record: FaultRecord) -> None:
        worker = self._resolve_worker(record.event.target)
        if worker is None:
            self._mark_skipped(
                record, f"no worker matches {record.event.target!r}"
            )
            return
        crash = getattr(self.strategy, "fault_crash_worker", None)
        restore = getattr(self.strategy, "fault_restore_worker", None)
        if crash is None or restore is None:
            self._mark_skipped(
                record, "strategy has no worker crash/restore hooks"
            )
            return
        if not crash(worker):
            self._mark_skipped(
                record, "strategy declined the crash (e.g. last live worker)"
            )
            return
        self._mark_injected(record)
        down_for = record.event.params["down_for"]

        def rejoin() -> None:
            restore(worker)
            iterations_at_restore = worker.iterations_done
            self._poll_until(
                record,
                lambda: worker.iterations_done > iterations_at_restore,
                detail="worker rejoined and iterated",
            )

        self.sim.schedule(down_for, rejoin, name="fault:rejoin")

    def _fire_switch_reset(self, record: FaultRecord) -> None:
        switch = self._resolve_switch(record.event.target)
        if switch is None:
            self._mark_skipped(
                record, f"no switch matches {record.event.target!r}"
            )
            return
        engine = getattr(switch, "engine", None)
        if engine is None:
            self._mark_skipped(
                record, "target switch has no aggregation engine"
            )
            return
        reset = getattr(self.strategy, "fault_reset_switch", None)
        if reset is None:
            self._mark_skipped(
                record, "strategy has no in-switch aggregation to reset"
            )
            return
        completions_before = engine.stats.completions
        if not reset(switch):
            self._mark_skipped(record, "strategy declined the reset")
            return
        self._mark_injected(record)
        self._poll_until(
            record,
            lambda: engine.stats.completions > completions_before,
            detail="aggregation completions resumed after reset",
        )

    def _fire_link_burst(self, record: FaultRecord) -> None:
        if not self.loss_tolerant:
            self._mark_skipped(
                record, "strategy has no loss recovery; burst loss not injected"
            )
            return
        links = self._resolve_links(record.event.target)
        if not links:
            self._mark_skipped(
                record, f"no link matches {record.event.target!r}"
            )
            return
        params = record.event.params
        model_args = dict(
            loss=params.get("loss", 0.02),
            loss_bad=params.get("loss_bad", 0.5),
            p_bad_to_good=params.get("p_bad_to_good", 0.25),
        )
        for link in links:
            link.loss_model = GilbertElliott.from_mean_loss(**model_args)
        self._mark_injected(record)

        def restore() -> None:
            for link in links:
                link.loss_model = None
            self._mark_recovered(record, detail="loss window ended")

        self.sim.schedule(params["duration"], restore, name="fault:burst-end")

    def _fire_link_degrade(self, record: FaultRecord) -> None:
        links = self._resolve_links(record.event.target)
        if not links:
            self._mark_skipped(
                record, f"no link matches {record.event.target!r}"
            )
            return
        params = record.event.params
        factor = params["factor"]
        originals = [(link, link.bandwidth) for link in links]
        for link in links:
            link.bandwidth = link.bandwidth / factor
        self._mark_injected(record)

        def restore() -> None:
            for link, bandwidth in originals:
                link.bandwidth = bandwidth
            self._mark_recovered(record, detail="bandwidth restored")

        self.sim.schedule(
            params["duration"], restore, name="fault:degrade-end"
        )

    def _fire_straggler(self, record: FaultRecord) -> None:
        worker = self._resolve_worker(record.event.target)
        if worker is None:
            self._mark_skipped(
                record, f"no worker matches {record.event.target!r}"
            )
            return
        params = record.event.params
        worker.compute.slowdown = params["slowdown"]
        self._mark_injected(record)

        def restore() -> None:
            worker.compute.slowdown = 1.0
            self._mark_recovered(record, detail="compute speed restored")

        self.sim.schedule(
            params["duration"], restore, name="fault:straggler-end"
        )
