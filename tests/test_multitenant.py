"""Tests for the multi-tenant job manager (``repro.multitenant``).

The load-bearing guarantee: a job's final weights are **bit-identical**
whether it runs alone on the fabric or among dozens of other tenants —
canonical-order engines make each job's aggregate a pure function of its
own contributions.
"""

import numpy as np
import pytest

from repro.multitenant import (
    AdmissionController,
    AdmissionDecision,
    FairSharePolicy,
    FifoPolicy,
    JobSpec,
    JobStatus,
    SlotScheduler,
    StrictPriorityPolicy,
    SwitchFabric,
    generate_jobs,
    make_policy,
    run_soak,
)


def _spec(name="job", seed=0, n_workers=2, iterations=2, n_params=366, **kw):
    return JobSpec(
        name=name,
        workload="synth",
        n_workers=n_workers,
        iterations=iterations,
        seed=seed,
        algorithm_overrides={"n_params": n_params},
        **kw,
    )


def _run_solo(spec):
    """Run one spec alone on a fresh fabric; return its final weights."""
    solo = JobSpec(
        name=spec.name,
        workload=spec.workload,
        n_workers=spec.n_workers,
        iterations=spec.iterations,
        seed=spec.seed,
        priority=spec.priority,
        tenant=spec.tenant,
        job_id=spec.job_id,
        algorithm_overrides=spec.algorithm_overrides,
    )
    fabric = SwitchFabric(telemetry=False)
    handle = fabric.submit(solo)
    fabric.run()
    assert handle.status is JobStatus.COMPLETED
    return fabric.final_weights(handle.job_id)


class TestSpecValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            JobSpec(name="")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            JobSpec(name="x", n_workers=0)

    def test_rejects_out_of_range_job_id(self):
        with pytest.raises(ValueError):
            JobSpec(name="x", job_id=0)
        with pytest.raises(ValueError):
            JobSpec(name="x", job_id=128)


class TestAdmissionController:
    def test_capacity_is_engines_times_segments(self):
        ctl = AdmissionController(["s0"], engines=4, segments_per_engine=8)
        assert ctl.capacity == 32

    def test_decide_classifies(self):
        ctl = AdmissionController(["s0"], engines=1, segments_per_engine=4)
        assert ctl.decide(5, ["s0"]) is AdmissionDecision.REJECT
        assert ctl.decide(3, ["s0"]) is AdmissionDecision.ADMIT
        ctl.reserve(1, 3, ["s0"])
        assert ctl.decide(3, ["s0"]) is AdmissionDecision.QUEUE

    def test_release_frees_slots(self):
        ctl = AdmissionController(["s0", "s1"], engines=1, segments_per_engine=4)
        ctl.reserve(1, 4, ["s0", "s1"])
        assert not ctl.fits(1, ["s0"])
        assert ctl.release(1) is True
        assert ctl.fits(4, ["s0", "s1"])
        assert ctl.release(1) is False

    def test_double_reserve_rejected(self):
        ctl = AdmissionController(["s0"])
        ctl.reserve(1, 1, ["s0"])
        with pytest.raises(ValueError):
            ctl.reserve(1, 1, ["s0"])


class TestPolicies:
    def _handles(self):
        specs = [
            _spec("a", seed=1, tenant="ta", priority=0),
            _spec("b", seed=2, tenant="ta", priority=1),
            _spec("c", seed=3, tenant="tb", priority=9),
        ]
        from repro.multitenant.spec import JobHandle

        return [JobHandle(spec=s, job_id=i + 1) for i, s in enumerate(specs)]

    def test_fifo_picks_arrival_order(self):
        a, b, c = self._handles()
        assert FifoPolicy().select((a, b, c), {}) is a

    def test_priority_picks_highest(self):
        a, b, c = self._handles()
        assert StrictPriorityPolicy().select((a, b, c), {}) is c

    def test_fair_share_picks_least_served_tenant(self):
        a, b, c = self._handles()
        assert FairSharePolicy().select((a, b, c), {"ta": 2, "tb": 0}) is c
        # Ties break FIFO.
        assert FairSharePolicy().select((a, b, c), {}) is a

    def test_make_policy_resolves_names(self):
        assert isinstance(make_policy("fifo"), FifoPolicy)
        assert isinstance(make_policy("fair"), FairSharePolicy)
        assert isinstance(make_policy("priority"), StrictPriorityPolicy)
        with pytest.raises(KeyError):
            make_policy("round-robin")

    def test_scheduler_counts_served_per_tenant(self):
        sched = SlotScheduler("fair")
        a, b, c = self._handles()
        for h in (a, b, c):
            sched.enqueue(h)
        first = sched.next_candidate()
        sched.admit(first)
        assert first is a  # nothing served yet: FIFO tie-break
        assert sched.next_candidate() is c  # tb has fewer admissions
        assert len(sched) == 2


class TestFabricAdmission:
    def test_oversized_job_rejected_outright(self):
        fabric = SwitchFabric(
            sram_engines=1, sram_segments_per_engine=2, telemetry=False
        )
        handle = fabric.submit(_spec("huge", n_params=1464))  # 4 chunks
        assert handle.status is JobStatus.REJECTED
        assert "SRAM" in handle.reject_reason
        assert fabric.admission.rejections == 1
        fabric.run()
        assert handle.result is None

    def test_tight_sram_queues_and_caps_concurrency(self):
        fabric, report = run_soak(
            n_jobs=12,
            seed=2,
            sram_engines=1,
            sram_segments_per_engine=4,
            telemetry=False,
        )
        assert report.ok
        assert report.completed == 12
        assert report.queued_jobs > 0
        # 1x4 slots per switch: at most 4 one-chunk jobs live at once.
        assert report.peak_concurrent <= 4

    @pytest.mark.parametrize("n_jobs", [64, 96])
    def test_full_job_table_queues_instead_of_crashing(self, n_jobs):
        # A switch holds 64 job-table entries (job 0 included), so at most
        # 63 tenants fit; the 64th must wait for an entry like it would
        # for SRAM, not die inside configure_aggregation.
        fabric, report = run_soak(
            n_jobs=n_jobs, seed=7, iterations=6, telemetry=False
        )
        assert report.ok, report.summary_lines()
        assert report.completed == n_jobs and report.failed == 0
        assert report.peak_concurrent == fabric.root.jobs.max_jobs - 1
        assert report.queued_jobs > 0

    def test_explicit_duplicate_job_id_rejected(self):
        fabric = SwitchFabric(telemetry=False)
        fabric.submit(_spec("first", job_id=9))
        with pytest.raises(ValueError, match="job id 9"):
            fabric.submit(_spec("second", job_id=9))

    def test_auto_ids_skip_explicit_ones(self):
        fabric = SwitchFabric(telemetry=False)
        fabric.submit(_spec("pinned", job_id=1))
        auto = fabric.submit(_spec("auto"))
        assert auto.job_id == 2

    def test_queue_wait_recorded(self):
        fabric = SwitchFabric(
            sram_engines=1, sram_segments_per_engine=1, telemetry=False
        )
        first = fabric.submit(_spec("first", seed=1))
        second = fabric.submit(_spec("second", seed=2))
        fabric.run()
        assert first.status is JobStatus.COMPLETED
        assert second.status is JobStatus.COMPLETED
        assert second.wait_time > 0
        assert second.admitted_at >= first.completed_at


class TestBitExactIsolation:
    def test_job_unperturbed_by_ten_tenants(self):
        spec = _spec("probe", seed=7, n_workers=3, iterations=4, job_id=5)
        shared = SwitchFabric(telemetry=False)
        handle = shared.submit(spec)
        for i in range(10):
            shared.submit(
                _spec(f"bg-{i}", seed=100 + i, n_params=732, iterations=3)
            )
        shared.run()
        assert handle.status is JobStatus.COMPLETED
        assert np.array_equal(shared.final_weights(5), _run_solo(spec))

    def test_soak_sustains_32_concurrent_bit_identical_jobs(self):
        """The PR's acceptance bar: >= 32 concurrent jobs on one tree,
        every one bit-identical to the same job run alone."""
        fabric, report = run_soak(n_jobs=32, seed=1, telemetry=False)
        assert report.ok
        assert report.completed == 32
        assert report.peak_concurrent >= 32
        for handle in fabric.handles.values():
            pinned = JobSpec(
                name=handle.spec.name,
                workload=handle.spec.workload,
                n_workers=handle.spec.n_workers,
                iterations=handle.spec.iterations,
                seed=handle.spec.seed,
                job_id=handle.job_id,
                algorithm_overrides=handle.spec.algorithm_overrides,
            )
            assert np.array_equal(
                fabric.final_weights(handle.job_id), _run_solo(pinned)
            ), f"job {handle.job_id} diverged from its solo run"


class TestTelemetry:
    def test_every_tenant_distinguishable(self):
        fabric, report = run_soak(n_jobs=8, seed=3, telemetry=True)
        assert report.ok
        snap = fabric.hub.snapshot()
        assert snap.value("job.submitted") == 8
        assert snap.value("job.completed") == 8
        for job_id in fabric.handles:
            assert snap.has_metric("switch.contributions", job=job_id)
            assert snap.has_metric("job.rounds_completed", job=job_id)
        assert len(snap.spans_named("job.run")) == 8

    def test_job_labels_absent_for_single_tenant_runs(self):
        from repro.distributed import ExperimentConfig, run

        result = run(
            ExperimentConfig(
                strategy="isw",
                workload="synth",
                n_workers=2,
                iterations=2,
                seed=0,
                telemetry=True,
            )
        )
        snap = result.telemetry
        contributions = [
            m for m in snap.metrics if m["name"] == "switch.contributions"
        ]
        assert contributions
        assert all("job" not in m["labels"] for m in contributions)


class TestSoakReport:
    def test_generate_jobs_is_deterministic(self):
        a = generate_jobs(6, seed=9)
        b = generate_jobs(6, seed=9)
        assert [s.name for s in a] == [s.name for s in b]
        assert [s.arrival_time for s in a] == [s.arrival_time for s in b]
        assert [s.algorithm_overrides for s in a] == [
            s.algorithm_overrides for s in b
        ]

    def test_report_summary_mentions_outcome(self):
        _, report = run_soak(n_jobs=4, seed=0, telemetry=False)
        text = "\n".join(report.summary_lines())
        assert "completed:       4" in text
        assert "OK" in text

    def test_policies_all_drain_the_same_load(self):
        for policy in ("fifo", "fair", "priority"):
            _, report = run_soak(
                n_jobs=8,
                seed=4,
                policy=policy,
                sram_engines=1,
                sram_segments_per_engine=4,
                telemetry=False,
            )
            assert report.ok, policy
            assert report.policy == policy
