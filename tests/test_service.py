"""Unit and integration tests for repro.service internals.

Covers the pieces below the HTTP layer: the weighted round-robin
scheduler's fairness discipline, admission-control boundaries, chaos
compilation, and — with real processes — the shared worker pool's core
promises: PID stability across consecutive jobs, crash recovery via
respawn with pool self-healing, and cooperative cancellation.
"""

import time

import pytest

from repro.exec import RobustnessPolicy
from repro.exec.engine import ExecutionEngine, run_sequential
from repro.obs.live import LiveConfig
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    FairScheduler,
    TenantDirectory,
    WorkerPool,
    compile_chaos,
)
from repro.service.jobs import Job, JobState, build_spec, resolve_iterations

FAST_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01
)


def make_job(n, tenant="t"):
    return Job(
        job_id=f"j{n}", tenant=tenant, workload="synthetic",
        params={}, iterations=8, fault_plan=None,
    )


class TestFairScheduler:
    def test_fifo_within_tenant(self):
        sched = FairScheduler()
        jobs = [make_job(n) for n in range(4)]
        for job in jobs:
            sched.enqueue(job)
        order = [
            sched.take(lambda t: True, lambda t: 1) for _ in range(4)
        ]
        assert order == jobs
        assert sched.take(lambda t: True, lambda t: 1) is None

    def test_round_robin_alternates_tenants(self):
        sched = FairScheduler()
        a = [make_job(n, "a") for n in range(3)]
        b = [make_job(n + 10, "b") for n in range(3)]
        for job in a + b:
            sched.enqueue(job)
        taken = [
            sched.take(lambda t: True, lambda t: 1).tenant for _ in range(6)
        ]
        assert taken == ["a", "b", "a", "b", "a", "b"]

    def test_weights_give_proportional_turns(self):
        sched = FairScheduler()
        for n in range(6):
            sched.enqueue(make_job(n, "heavy"))
            sched.enqueue(make_job(n + 10, "light"))
        weights = {"heavy": 2, "light": 1}
        taken = [
            sched.take(lambda t: True, lambda t: weights[t]).tenant
            for _ in range(6)
        ]
        assert taken == ["heavy", "heavy", "light", "heavy", "heavy", "light"]

    def test_ineligible_tenant_is_skipped_without_starving(self):
        sched = FairScheduler()
        sched.enqueue(make_job(0, "busy"))
        sched.enqueue(make_job(1, "free"))
        job = sched.take(lambda t: t != "busy", lambda t: 1)
        assert job.tenant == "free"
        # once eligible again, the skipped tenant gets its turn
        job = sched.take(lambda t: True, lambda t: 1)
        assert job.tenant == "busy"

    def test_cancelled_queued_jobs_are_lazily_dropped(self):
        sched = FairScheduler()
        jobs = [make_job(n) for n in range(3)]
        for job in jobs:
            sched.enqueue(job)
        jobs[0].state = JobState.CANCELLED
        assert sched.depth() == 2
        assert sched.take(lambda t: True, lambda t: 1) is jobs[1]

    def test_push_front_preserves_order(self):
        sched = FairScheduler()
        jobs = [make_job(n) for n in range(2)]
        for job in jobs:
            sched.enqueue(job)
        first = sched.take(lambda t: True, lambda t: 1)
        sched.push_front(first)
        assert sched.take(lambda t: True, lambda t: 1) is first

    def test_empty_scheduler(self):
        sched = FairScheduler()
        assert sched.take(lambda t: True, lambda t: 1) is None
        assert sched.depth() == 0
        assert sched.depth("nobody") == 0


class TestTenantAccounting:
    def test_queue_wait_max_reads_the_histogram(self):
        """Waits are wall-clock differences, so a clock step can hand in a
        negative one: the histogram clamps it to 0, which cannot move a
        maximum that starts at 0 — so the histogram's max is the one
        ``queue_wait_max_s``."""
        tenant = TenantDirectory(
            pool_workers=2, capacity=8, batch_size=4
        ).get_or_create("t")
        assert tenant.to_json()["queue_wait_max_s"] == 0.0
        for seconds in (-0.25, 0.0):
            tenant.record_queue_wait(seconds)
        assert tenant.to_json()["queue_wait_max_s"] == 0.0
        for seconds in (0.0031234567, 0.5, -3.0, 0.0, 0.125):
            tenant.record_queue_wait(seconds)
        assert tenant.to_json()["queue_wait_max_s"] == 0.5
        assert tenant.queue_wait_hist.count == 7
        assert tenant.queue_wait_hist.total == pytest.approx(0.6281234567)
        tenant.record_queue_wait(1.23456789)
        assert tenant.to_json()["queue_wait_max_s"] == 1.234568


class TestAdmission:
    def controller(self, **kw):
        return AdmissionController(AdmissionConfig(**kw))

    def test_accepts_under_limits(self):
        decision = self.controller().admit(
            depth=0, tenant_queued=0, tenant_running=0
        )
        assert decision.accepted and decision.status == 202

    def test_draining_refuses_with_503(self):
        decision = self.controller().admit(
            depth=0, tenant_queued=0, tenant_running=0, draining=True
        )
        assert not decision.accepted
        assert decision.status == 503
        assert decision.retry_after is None

    def test_shedding_refuses_with_retry_after(self):
        decision = self.controller().admit(
            depth=3, tenant_queued=0, tenant_running=0, shedding=True
        )
        assert not decision.accepted
        assert decision.status == 429
        assert decision.retry_after >= 1

    def test_global_depth_bound(self):
        controller = self.controller(max_queued=4)
        ok = controller.admit(depth=3, tenant_queued=0, tenant_running=0)
        full = controller.admit(depth=4, tenant_queued=0, tenant_running=0)
        assert ok.accepted and not full.accepted
        assert full.status == 429 and "queue full" in full.reason

    def test_tenant_queued_quota(self):
        controller = self.controller(tenant_queued_quota=2)
        full = controller.admit(depth=2, tenant_queued=2, tenant_running=0)
        assert not full.accepted and "tenant queued quota" in full.reason

    def test_tenant_inflight_quota(self):
        controller = self.controller(
            tenant_queued_quota=2, tenant_running_quota=1
        )
        full = controller.admit(depth=1, tenant_queued=1, tenant_running=2)
        assert not full.accepted and "in-flight" in full.reason

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queued=0)
        with pytest.raises(ValueError):
            AdmissionConfig(tenant_running_quota=0)


class TestJobModel:
    def test_compile_chaos_reproducible(self):
        plan1 = compile_chaos({"conflicts": 4, "errors": 2, "seed": 7}, 32)
        plan2 = compile_chaos({"conflicts": 4, "errors": 2, "seed": 7}, 32)
        assert plan1.conflict_iterations == plan2.conflict_iterations
        assert plan1.error_iterations == plan2.error_iterations
        assert len(plan1.conflict_iterations) == 4
        assert not plan1.conflict_iterations & plan1.error_iterations

    def test_compile_chaos_validation(self):
        assert compile_chaos(None, 10) is None
        assert compile_chaos({}, 10) is None
        assert compile_chaos({"conflicts": 0}, 10) is None
        with pytest.raises(ValueError):
            compile_chaos({"bogus": 1}, 10)
        with pytest.raises(ValueError):
            compile_chaos({"conflicts": -1}, 10)
        with pytest.raises(ValueError):
            compile_chaos({"conflicts": 11}, 10)
        with pytest.raises(ValueError):
            compile_chaos({"crashes": 3}, 10)

    def test_resolve_iterations_synthetic(self):
        assert resolve_iterations("synthetic", {}) == 48
        assert resolve_iterations("synthetic", {"iterations": 5}) == 5
        with pytest.raises(ValueError):
            resolve_iterations("synthetic", {"iterations": 0})
        with pytest.raises(ValueError):
            resolve_iterations("synthetic", {"bogus": 1})
        with pytest.raises(ValueError):
            resolve_iterations("no-such-workload", {})

    def test_synthetic_spec_deterministic(self):
        spec = build_spec("synthetic", {"iterations": 16, "spin": 100})
        out1, _ = run_sequential(spec)
        out2, _ = run_sequential(
            build_spec("synthetic", {"iterations": 16, "spin": 100})
        )
        assert out1 == out2
        assert out1["items"] == 16


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(
        workers=2, slots=2, capacity=8, batch_size=4, policy=FAST_POLICY
    ).start()
    yield pool
    pool.shutdown()


def run_on_pool(pool, spec, fault_plan=None, live=None):
    lease = pool.try_lease()
    assert lease is not None
    try:
        engine = ExecutionEngine(
            workers=len(lease.worker_ids), capacity=8, batch_size=4,
            policy=FAST_POLICY, fault_plan=fault_plan, live=live,
            runtime=lease,
        )
        return engine.run(spec), lease
    finally:
        pool.release(lease)


class TestWorkerPool:
    def test_pids_stable_across_three_jobs(self, pool):
        """The tentpole reuse claim: three consecutive jobs, zero forks."""
        reference_pids = pool.worker_pids()
        spec_params = {"iterations": 24, "spin": 200}
        expected, _ = run_sequential(build_spec("synthetic", spec_params))
        for _ in range(3):
            result, _lease = run_on_pool(
                pool, build_spec("synthetic", spec_params)
            )
            assert result.output == expected
            assert pool.worker_pids() == reference_pids
        assert pool.stats()["spawned_total"] == 2

    def test_crash_respawn_replaces_worker(self, pool):
        """A worker crash mid-job: the job still commits bit-identically,
        and the pool heals back to full size for the next job."""
        spec_params = {"iterations": 24, "spin": 200}
        expected, _ = run_sequential(build_spec("synthetic", spec_params))
        plan = compile_chaos({"crashes": 1, "seed": 3}, 24)
        result, _lease = run_on_pool(
            pool, build_spec("synthetic", spec_params), fault_plan=plan
        )
        assert result.output == expected
        assert result.metrics.worker_crashes == 1
        assert result.metrics.respawns == 1
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            stats = pool.stats()
            if stats["alive"] == 2 and stats["idle"] == 2:
                break
            time.sleep(0.05)
        assert pool.stats()["alive"] == 2
        # and the healed pool still produces correct output
        result, _lease = run_on_pool(
            pool, build_spec("synthetic", spec_params)
        )
        assert result.output == expected

    def test_cancel_mid_job(self, pool):
        import threading

        lease = pool.try_lease()
        assert lease is not None
        threading.Timer(0.3, lease.cancel).start()
        try:
            engine = ExecutionEngine(
                workers=len(lease.worker_ids), capacity=8, batch_size=4,
                policy=FAST_POLICY, runtime=lease,
            )
            result = engine.run(
                build_spec("synthetic", {"iterations": 50_000, "spin": 2000})
            )
        finally:
            pool.release(lease)
        assert result.metrics.cancelled
        assert result.metrics.commits < 50_000
        # pool survives a cancelled job
        expected, _ = run_sequential(
            build_spec("synthetic", {"iterations": 8, "spin": 50})
        )
        result, _lease = run_on_pool(
            pool, build_spec("synthetic", {"iterations": 8, "spin": 50})
        )
        assert result.output == expected

    def test_lease_exhaustion_and_return(self, pool):
        leases = []
        while pool.can_lease():
            lease = pool.try_lease(workers=1)
            if lease is None:
                break
            leases.append(lease)
        assert leases
        assert pool.try_lease() is None
        for lease in leases:
            pool.release(lease)
        assert pool.can_lease()

    def test_producer_crash_rejected(self, pool):
        from repro.exec import FaultPlan

        lease = pool.try_lease()
        assert lease is not None
        try:
            engine = ExecutionEngine(
                workers=len(lease.worker_ids), capacity=8, batch_size=4,
                policy=FAST_POLICY,
                fault_plan=FaultPlan(producer_crash_at=3),
                runtime=lease,
            )
            with pytest.raises(ValueError):
                engine.run(build_spec("synthetic", {"iterations": 8}))
        finally:
            pool.release(lease)
