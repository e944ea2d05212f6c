"""The shared switch tree: tens of training jobs over one fabric.

:class:`SwitchFabric` owns one discrete-event simulator, one root iSwitch,
and ``n_racks`` ToR iSwitches.  Tenants ``submit()`` :class:`JobSpec`\\ s;
each admitted job gets

* a fresh set of worker hosts (``j<id>w<i>``) striped across the racks,
* its own per-switch :class:`~repro.core.jobs.JobState` (engine +
  membership + SetH) keyed by a wire-carried job id,
* a private :class:`~repro.distributed.sync.SyncISwitch` runner whose
  numerics are exactly the single-tenant strategy's — same algorithm
  seeds, same compute-model seeds, same ``sum/N`` update rule.

Engines run canonical-order summation, so a job's aggregate is a pure
function of its contributions — independent of how other tenants' traffic
perturbs packet arrival order on the shared links.  That is what makes
the isolation guarantee *bit-exact*: the same spec run alone and run
among dozens of tenants produces identical final weights.

Admission control (:mod:`.admission`) books each job's segment footprint
against the modeled switch SRAM; the scheduler (:mod:`.scheduler`)
arbitrates which queued job gets freed slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.hierarchy import make_iswitch_factory
from ..distributed.collectives.iswitch import make_plan
from ..distributed.config import choose_transport
from ..distributed.runner import make_algorithm
from ..distributed.sync import SyncISwitch
from ..distributed.worker import ComputeModel, SimWorker
from ..netsim.events import make_simulator
from ..netsim.link import GBPS, Link
from ..netsim.node import Host
from ..netsim.topology import Network
from ..rl.base import Algorithm
from ..telemetry.hub import TelemetryHub
from ..workloads.profiles import get_profile
from .admission import AdmissionController, AdmissionDecision
from .scheduler import SlotScheduler
from .spec import JobHandle, JobSpec, JobStatus, WIRE_MAX_JOB_ID

__all__ = ["SwitchFabric", "Cluster"]


class _JobRunner(SyncISwitch):
    """A SyncISwitch on a simulator it does not own: the fabric
    ``launch()``es each runner and drains the event loop once for everyone.
    Completion is detected at the final round's barrier release."""

    def __init__(self, *args, on_complete=None, on_round=None, **kwargs):
        self._on_complete = on_complete
        self._on_round = on_round
        super().__init__(*args, **kwargs)

    def _round_release(self, iteration: int) -> None:
        super()._round_release(iteration)
        if self._on_round is not None:
            self._on_round(iteration)
        if iteration + 1 == self.n_iterations:
            self._finalize(self._result)
            if self._on_complete is not None:
                self._on_complete()


class SwitchFabric:
    """A two-layer iSwitch tree shared by many concurrent training jobs."""

    def __init__(
        self,
        n_racks: int = 4,
        sram_engines: int = 8,
        sram_segments_per_engine: int = 32,
        policy="fifo",
        telemetry: bool = True,
        host_bandwidth: float = 10 * GBPS,
        uplink_bandwidth: float = 40 * GBPS,
    ) -> None:
        if n_racks < 1:
            raise ValueError(f"n_racks must be >= 1, got {n_racks}")
        self.hub: Optional[TelemetryHub] = TelemetryHub() if telemetry else None
        self.sim = make_simulator(telemetry=self.hub)
        # Several jobs' bursts interleave on the rack uplinks: per-packet.
        self.sim.transport = choose_transport(shared_fabric=True)
        self.host_bandwidth = host_bandwidth
        # Canonical-order engines: the bit-exact isolation guarantee.
        factory = make_iswitch_factory(canonical=True)
        self.root = factory(self.sim, "root")
        self.tors = []
        self.links: List[Link] = []
        #: Root-side end of each rack uplink, for routing host names up top.
        self._uplink_at_root: Dict[str, object] = {}
        for rack in range(n_racks):
            tor = factory(self.sim, f"tor{rack}")
            uplink = Link(
                self.sim,
                bandwidth=uplink_bandwidth,
                name=f"{tor.name}<->{self.root.name}",
            )
            uplink.attach(tor, self.root)
            tor.set_default_route(uplink.ends[0])
            self.links.append(uplink)
            self._uplink_at_root[tor.name] = uplink.ends[1]
            self.tors.append(tor)
        self.switches = list(self.tors) + [self.root]
        self.admission = AdmissionController(
            (s.name for s in self.switches),
            engines=sram_engines,
            segments_per_engine=sram_segments_per_engine,
        )
        self.scheduler = SlotScheduler(policy)
        self.handles: Dict[int, JobHandle] = {}
        self._runners: Dict[int, _JobRunner] = {}
        #: Worker 0's algorithm of each job not yet started: the probe
        #: that sized the job's footprint, reused rather than rebuilt.
        self._first_replicas: Dict[int, Algorithm] = {}
        self._next_job_id = 1
        self.running = 0
        self.peak_concurrent = 0

    # ------------------------------------------------------------------
    # Submission and admission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Register a job; it arrives (and tries admission) at
        ``spec.arrival_time`` of simulated time."""
        job_id = self._assign_job_id(spec)
        profile = get_profile(spec.workload)
        first = make_algorithm(
            spec.workload, seed=spec.seed, **(spec.algorithm_overrides or {})
        )
        # Worst-case live SRAM segments: the job's segment-plan chunks.
        footprint = make_plan(first.n_params, profile.model_bytes).n_chunks
        handle = JobHandle(
            spec=spec,
            job_id=job_id,
            footprint=footprint,
            racks=self._racks_for(job_id, spec.n_workers),
            submitted_at=self.sim.now,
        )
        self.handles[job_id] = handle
        self._telemetry_inc("job.submitted", handle)
        if footprint > self.admission.capacity:
            handle.status = JobStatus.REJECTED
            handle.reject_reason = (
                f"needs {footprint} SRAM segments per switch; the modeled "
                f"accelerator holds {self.admission.capacity} "
                f"({self.admission.engines} engines x "
                f"{self.admission.segments_per_engine} segments)"
            )
            self.admission.rejections += 1
            self._telemetry_inc("job.rejected", handle)
            return handle
        self._first_replicas[job_id] = first
        delay = max(spec.arrival_time - self.sim.now, 0.0)
        self.sim.schedule(
            delay, lambda: self._arrive(handle), name=f"job-arrive:{job_id}"
        )
        return handle

    def _assign_job_id(self, spec: JobSpec) -> int:
        if spec.job_id is not None:
            if spec.job_id in self.handles:
                raise ValueError(
                    f"job id {spec.job_id} is already in use by "
                    f"{self.handles[spec.job_id].spec.name!r}"
                )
            return spec.job_id
        while self._next_job_id in self.handles:
            self._next_job_id += 1
        if self._next_job_id > WIRE_MAX_JOB_ID:
            raise RuntimeError(
                f"fabric exhausted the wire job-id space "
                f"(1..{WIRE_MAX_JOB_ID})"
            )
        job_id = self._next_job_id
        self._next_job_id += 1
        return job_id

    def _racks_for(self, job_id: int, n_workers: int) -> List[int]:
        """Stripe workers across racks, offset by job id to spread load.

        A pure function of (job_id, n_workers, n_racks) — a job lands on
        the same racks whether it runs alone or among other tenants,
        which the bit-identity guarantee depends on.
        """
        n_racks = len(self.tors)
        return [(job_id + i) % n_racks for i in range(n_workers)]

    def _touched_switches(self, handle: JobHandle) -> List:
        tors = sorted(set(handle.racks))
        return [self.tors[r] for r in tors] + [self.root]

    def _arrive(self, handle: JobHandle) -> None:
        handle.status = JobStatus.QUEUED
        handle.queued_at = self.sim.now
        self.scheduler.enqueue(handle)
        self._telemetry_inc("job.queued", handle)
        self._try_admit()

    def _try_admit(self) -> None:
        """Admit queued jobs in policy order until the head doesn't fit.

        Stopping at the first non-fitting candidate (head-of-line
        blocking) keeps large jobs from being starved by small ones.  A
        job fits when every switch it touches has both the SRAM slots
        and a free job-table entry; either frees up when a job completes.
        """
        while True:
            candidate = self.scheduler.next_candidate()
            if candidate is None:
                return
            switches = self._touched_switches(candidate)
            names = [s.name for s in switches]
            if not self.admission.fits(candidate.footprint, names) or any(
                s.jobs.full for s in switches
            ):
                return
            self.scheduler.admit(candidate)
            self.admission.reserve(candidate.job_id, candidate.footprint, names)
            self._start_job(candidate)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _start_job(self, handle: JobHandle) -> None:
        spec = handle.spec
        job_id = handle.job_id
        profile = get_profile(spec.workload)
        view = Network(sim=self.sim)
        view.root = self.root
        view.switches = self._touched_switches(handle)
        for index, rack in enumerate(handle.racks):
            tor = self.tors[rack]
            host = Host(self.sim, f"j{job_id}w{index}")
            link = Link(
                self.sim,
                bandwidth=self.host_bandwidth,
                name=f"{host.name}<->{tor.name}",
            )
            link.attach(host, tor)
            tor.add_route(host.name, link.ends[1])
            self.root.add_route(host.name, self._uplink_at_root[tor.name])
            self.links.append(link)
            view.links.append(link)
            view.hosts[host.name] = host
            view.workers.append(host)
            view.tor_of_worker.append(tor)
        first = self._first_replicas.pop(job_id)
        workers = []
        for index, host in enumerate(view.workers):
            algorithm = first if index == 0 else make_algorithm(
                spec.workload,
                seed=spec.seed + index,
                peer=first,
                **(spec.algorithm_overrides or {}),
            )
            compute = ComputeModel(profile, seed=spec.seed * 1000 + index)
            workers.append(SimWorker(index, host, algorithm, compute))
        runner = _JobRunner(
            view,
            workers,
            profile,
            job=job_id,
            on_complete=lambda: self._job_complete(handle),
            on_round=lambda it: self._job_round(handle, it),
        )
        self._runners[job_id] = runner
        handle.status = JobStatus.RUNNING
        handle.admitted_at = self.sim.now
        self.running += 1
        self.peak_concurrent = max(self.peak_concurrent, self.running)
        self._telemetry_inc("job.admitted", handle)
        if self.hub is not None:
            self.hub.set_gauge("job.concurrent", self.running)
        handle.result = runner.launch(spec.iterations)

    def _job_round(self, handle: JobHandle, iteration: int) -> None:
        self._telemetry_inc("job.rounds_completed", handle)

    def _job_complete(self, handle: JobHandle) -> None:
        job_id = handle.job_id
        handle.status = JobStatus.COMPLETED
        handle.completed_at = self.sim.now
        self.running -= 1
        # Tear down the job's per-switch state; the SetH slots and engine
        # SRAM go back to the pool and the next queued job can take them.
        for switch in self._touched_switches(handle):
            switch.jobs.remove(job_id)
        self.admission.release(job_id)
        self._telemetry_inc("job.completed", handle)
        if self.hub is not None:
            self.hub.set_gauge("job.concurrent", self.running)
            self.hub.span_at(
                "job.run",
                handle.admitted_at,
                self.sim.now,
                cat="jobs",
                track=f"job{job_id}",
                job=job_id,
                job_name=handle.spec.name,
                tenant=handle.spec.tenant,
            )
        self._try_admit()

    def _telemetry_inc(self, metric: str, handle: JobHandle) -> None:
        if self.hub is not None:
            self.hub.inc(
                metric,
                1,
                job=handle.job_id,
                job_name=handle.spec.name,
                tenant=handle.spec.tenant,
            )

    # ------------------------------------------------------------------
    def run(self) -> Dict[int, JobHandle]:
        """Drain the simulator: every admissible job runs to completion."""
        self.sim.run()
        stuck = [
            h
            for h in self.handles.values()
            if h.status in (JobStatus.QUEUED, JobStatus.RUNNING)
        ]
        for handle in stuck:
            handle.status = JobStatus.FAILED
            handle.reject_reason = "fabric drained before completion"
        return dict(self.handles)

    def job(self, job_id: int) -> JobHandle:
        return self.handles[job_id]

    def final_weights(self, job_id: int):
        """Worker 0's final weight vector for a completed job."""
        handle = self.handles[job_id]
        if handle.result is None:
            raise RuntimeError(
                f"job {job_id} has no result (status {handle.status.value})"
            )
        return handle.result.workers[0].algorithm.get_weights()


#: The deployment-facing alias: a fabric plus its jobs is "the cluster".
Cluster = SwitchFabric
