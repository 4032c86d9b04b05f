"""HTTP-level tests for the job server, including the two acceptance
stories: graceful drain on shutdown, and tenant isolation under a seeded
misspeculation storm (the noisy tenant throttles and degrades; the quiet
tenant's concurrent jobs stay bit-identical with bounded queue wait).
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.exec import RobustnessPolicy
from repro.exec.engine import run_sequential
from repro.service import PipelineService, ServiceConfig
from repro.service.jobs import build_spec

FAST_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01
)


def request(method, url, body=None, timeout=15):
    """(status, parsed json, headers) — errors unwrapped, not raised."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"{}"), resp.headers
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}"), err.headers


def get_text(url, timeout=15):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode()


def wait_terminal(base, job_id, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body, _ = request("GET", f"{base}/jobs/{job_id}")
        if body.get("state") in ("done", "failed", "cancelled"):
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished: {body}")


@pytest.fixture(scope="module")
def service():
    svc = PipelineService(
        ServiceConfig(
            pool_workers=2, slots=2, capacity=8, batch_size=4,
            policy=FAST_POLICY, live_interval=0.05,
        )
    ).start()
    yield svc
    svc.stop()


@pytest.fixture(scope="module")
def base(service):
    return f"http://127.0.0.1:{service.port}"


SMALL = {"iterations": 16, "spin": 200}


def submit(base, tenant, params=SMALL, workload="synthetic"):
    status, body, headers = request(
        "POST", f"{base}/jobs",
        {"tenant": tenant, "workload": workload, "params": params},
    )
    return status, body, headers


class TestApi:
    def test_submit_run_result_roundtrip(self, base):
        status, job, _ = submit(base, "acme")
        assert status == 202 and job["state"] == "queued"
        final = wait_terminal(base, job["id"])
        assert final["state"] == "done"
        status, result, _ = request("GET", f"{base}/jobs/{job['id']}/result")
        assert status == 200
        expected, _seconds = run_sequential(build_spec("synthetic", SMALL))
        assert result["output"] == expected
        assert result["metrics"]["commits"] == SMALL["iterations"]

    def test_status_includes_metrics_and_wait(self, base):
        _, job, _ = submit(base, "acme")
        wait_terminal(base, job["id"])
        _, body, _ = request("GET", f"{base}/jobs/{job['id']}")
        assert body["queue_wait_s"] is not None
        assert body["metrics"]["commits"] == SMALL["iterations"]
        assert body["params"] == SMALL

    def test_list_jobs_filters_by_tenant(self, base):
        _, job, _ = submit(base, "list-tenant")
        wait_terminal(base, job["id"])
        _, body, _ = request("GET", f"{base}/jobs?tenant=list-tenant")
        assert [j["tenant"] for j in body["jobs"]] == ["list-tenant"]
        _, everything, _ = request("GET", f"{base}/jobs")
        assert len(everything["jobs"]) > len(body["jobs"])

    def test_validation_errors(self, base):
        status, body, _ = request(
            "POST", f"{base}/jobs", {"workload": "synthetic"}
        )
        assert status == 400 and "tenant" in body["error"]
        status, body, _ = request("POST", f"{base}/jobs", {"tenant": "t"})
        assert status == 400 and "workload" in body["error"]
        status, body, _ = submit(base, "t", workload="no-such")
        assert status == 400
        status, body, _ = submit(base, "t", params={"iterations": -3})
        assert status == 400
        status, body, _ = submit(base, "t", params={"chaos": {"bogus": 1}})
        assert status == 400

    def test_unknown_job_and_routes(self, base):
        status, _, _ = request("GET", f"{base}/jobs/nope")
        assert status == 404
        status, _, _ = request("GET", f"{base}/jobs/nope/result")
        assert status == 404
        status, _, _ = request("POST", f"{base}/jobs/nope/cancel")
        assert status == 404
        status, _, _ = request("GET", f"{base}/bogus")
        assert status == 404

    def test_result_conflict_while_running(self, base):
        _, job, _ = submit(
            base, "slow", params={"iterations": 50_000, "spin": 2000}
        )
        status, body, _ = request("GET", f"{base}/jobs/{job['id']}/result")
        assert status == 409
        status, body, _ = request("POST", f"{base}/jobs/{job['id']}/cancel")
        assert status == 202
        final = wait_terminal(base, job["id"])
        assert final["state"] == "cancelled"
        status, body, _ = request("GET", f"{base}/jobs/{job['id']}/result")
        assert status == 410

    def test_bottleneck_verdict_of_an_untraced_job(self, base):
        """The verdict is served per job, not embedded in its metrics: 409
        until the job is terminal, then the metrics-only estimate; 404 for
        an unknown job or one that ended without metrics."""
        from repro.obs.analyze import estimate_bottleneck, validate_bottleneck

        _, slow, _ = submit(
            base, "slow", params={"iterations": 50_000, "spin": 2000}
        )
        status, _, _ = request("GET", f"{base}/jobs/{slow['id']}/bottleneck")
        assert status == 409
        request("POST", f"{base}/jobs/{slow['id']}/cancel")
        wait_terminal(base, slow["id"])

        _, job, _ = submit(base, "acme")
        final = wait_terminal(base, job["id"])
        assert final["state"] == "done"
        assert final["metrics"]["bottleneck"] is None
        status, verdict, _ = request(
            "GET", f"{base}/jobs/{job['id']}/bottleneck"
        )
        assert status == 200
        assert validate_bottleneck(verdict) == []
        assert verdict["source"] == "metrics"
        assert verdict == json.loads(
            json.dumps(estimate_bottleneck(final["metrics"]))
        )

        status, _, _ = request("GET", f"{base}/jobs/nope/bottleneck")
        assert status == 404
        _, poisoned, _ = submit(
            base, "acme", params={"iterations": 8, "spin": 10, "fail_at": 3}
        )
        assert wait_terminal(base, poisoned["id"])["state"] == "failed"
        status, _, _ = request(
            "GET", f"{base}/jobs/{poisoned['id']}/bottleneck"
        )
        assert status == 404

    def test_cancel_queued_job(self, base):
        # fill both slots with long jobs from two tenants, then queue one
        blockers = []
        for tenant in ("cq-a", "cq-b"):
            _, job, _ = submit(
                base, tenant, params={"iterations": 50_000, "spin": 2000}
            )
            blockers.append(job["id"])
        _, queued, _ = submit(base, "cq-c")
        status, body, _ = request(
            "POST", f"{base}/jobs/{queued['id']}/cancel"
        )
        assert status == 202
        _, body, _ = request("GET", f"{base}/jobs/{queued['id']}")
        assert body["state"] == "cancelled"
        for job_id in blockers:
            request("POST", f"{base}/jobs/{job_id}/cancel")
            wait_terminal(base, job_id)

    def test_health_and_metrics_endpoints(self, base):
        status, health, _ = request("GET", f"{base}/health")
        assert status == 200
        assert health["status"] == "ok"
        assert "acme" in health["tenants"]
        text = get_text(f"{base}/metrics")
        assert 'repro_service_jobs_total{tenant="acme",event="completed"}' in text
        assert "repro_service_pool_workers_idle" in text
        assert "repro_service_queue_wait_seconds_sum" in text
        _, snapshot, _ = request("GET", f"{base}/snapshot")
        assert snapshot["pool"]["size"] == 2

    def test_worker_pids_stable_across_jobs(self, service, base):
        pids = service.pool.worker_pids()
        for _ in range(3):
            _, job, _ = submit(base, "stable")
            final = wait_terminal(base, job["id"])
            assert final["state"] == "done"
            assert service.pool.worker_pids() == pids


class TestIsolationUnderStorm:
    def test_quiet_tenant_unaffected_by_storm(self, base, service):
        """Satellite 4 / acceptance: tenant A runs seeded misspec storms,
        tenant B's concurrent jobs stay bit-identical with bounded queue
        wait, and /health degrades A only."""
        storm_params = {
            "iterations": 64, "spin": 400,
            "chaos": {"conflicts": 32, "seed": 11},
        }
        quiet_params = {"iterations": 48, "spin": 400}
        expected, _seconds = run_sequential(
            build_spec("synthetic", quiet_params)
        )

        storm_ids, quiet_ids = [], []
        for _ in range(2):
            status, job, _ = submit(base, "storm", params=storm_params)
            assert status == 202
            storm_ids.append(job["id"])
            status, job, _ = submit(base, "quiet", params=quiet_params)
            assert status == 202
            quiet_ids.append(job["id"])

        for job_id in quiet_ids:
            final = wait_terminal(base, job_id)
            assert final["state"] == "done"
            # bounded wait: the fair scheduler interleaves tenants, so a
            # quiet job never sits behind the storm tenant's whole backlog
            assert final["queue_wait_s"] < 30
            _, result, _ = request("GET", f"{base}/jobs/{job_id}/result")
            assert result["output"] == expected
            assert result["metrics"]["conflicts"] == 0
            assert result["metrics"]["serial_reexecutions"] == 0
        for job_id in storm_ids:
            final = wait_terminal(base, job_id)
            assert final["state"] == "done"
            _, result, _ = request("GET", f"{base}/jobs/{job_id}/result")
            # injected conflicts on a non-speculative spec surface as
            # serial re-executions (misspeculation-as-re-execution)
            assert result["metrics"]["serial_reexecutions"] >= 32

        # degradation is tenant-scoped: storm degraded, quiet ok, service ok
        status, health, _ = request("GET", f"{base}/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["tenants"]["storm"]["status"] == "degraded"
        assert health["tenants"]["quiet"]["status"] == "ok"
        assert health["tenants"]["storm"]["storms"] >= 1

        # the storm tenant's persistent throttle carries into its next job
        storm_window = service.tenants.get("storm").throttle.window
        quiet_window = service.tenants.get("quiet").throttle.window
        assert storm_window < quiet_window

        text = get_text(f"{base}/metrics")
        assert 'repro_service_tenant_degraded{tenant="storm"} 1' in text
        assert 'repro_service_tenant_degraded{tenant="quiet"} 0' in text


class TestAdmissionOverHttp:
    @pytest.fixture()
    def tight_service(self):
        svc = PipelineService(
            ServiceConfig(
                pool_workers=1, slots=1, capacity=8, batch_size=4,
                policy=FAST_POLICY, max_queued=2, tenant_queued_quota=1,
                tenant_running_quota=1,
            )
        ).start()
        yield svc
        svc.stop()

    def test_429_on_quota_and_503_on_drain(self, tight_service):
        base = f"http://127.0.0.1:{tight_service.port}"
        # occupy the single slot (wait for dispatch so the queue is empty)
        _, running, _ = submit(
            base, "t1", params={"iterations": 50_000, "spin": 2000}
        )
        deadline = time.monotonic() + 10
        while tight_service.get_job(running["id"]).state.value == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # one queued job fits the tenant quota...
        status, queued, _ = submit(base, "t1")
        assert status == 202
        # ...the next one exceeds it, with a Retry-After hint
        status, body, headers = submit(base, "t1")
        assert status == 429
        assert "quota" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        # other tenants fill the global bound
        status, _, _ = submit(base, "t2")
        assert status == 202
        status, body, headers = submit(base, "t3")
        assert status == 429 and "queue full" in body["error"]
        # draining flips every submission to 503
        tight_service.request_drain()
        status, body, _ = submit(base, "t-late")
        assert status == 503
        request("POST", f"{base}/jobs/{running['id']}/cancel")


class TestGracefulDrain:
    def test_drain_finishes_running_rejects_new(self, job_gate):
        """Satellite 3: drain lets running jobs finish, cancels queued
        ones, refuses new submissions, and stops cleanly."""
        svc = PipelineService(
            ServiceConfig(
                pool_workers=2, slots=2, capacity=8, batch_size=4,
                policy=FAST_POLICY,
            )
        ).start()
        try:
            base = f"http://127.0.0.1:{svc.port}"
            running = []
            for tenant in ("d1", "d2"):
                _, job, _ = submit(base, tenant)
                running.append(job["id"])
            # a queued job behind d1's running quota
            _, queued, _ = submit(base, "d1")
            deadline = time.monotonic() + 10
            while any(
                svc.get_job(job_id).state.value != "running"
                for job_id in running
            ):
                assert time.monotonic() < deadline
                time.sleep(0.02)

            # both jobs are held open by the gate: drain finds them running
            svc.request_drain()
            assert submit(base, "d3")[0] == 503
            assert svc.get_job(queued["id"]).state.value == "cancelled"
            for job_id in running:
                assert svc.get_job(job_id).state.value == "running"
            job_gate.set()
            clean = svc.drain_and_stop(timeout=30)
            assert clean

            for job_id in running:
                job = svc.get_job(job_id)
                assert job.state.value == "done", (job_id, job.state)
            # pool fully torn down
            assert svc.pool.stats()["alive"] == 0
        finally:
            svc.stop()

    def test_drain_timeout_cancels_stragglers(self):
        svc = PipelineService(
            ServiceConfig(
                pool_workers=1, slots=1, capacity=8, batch_size=4,
                policy=FAST_POLICY,
            )
        ).start()
        try:
            base = f"http://127.0.0.1:{svc.port}"
            _, job, _ = submit(
                base, "t", params={"iterations": 100_000, "spin": 3000}
            )
            deadline = time.monotonic() + 10
            while svc.get_job(job["id"]).state.value == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            clean = svc.drain_and_stop(timeout=0.5)
            assert not clean
            assert svc.get_job(job["id"]).state.value == "cancelled"
        finally:
            svc.stop()
