"""CI smoke for repro.service: the job server driven exactly like an
operator would, as a real subprocess over real HTTP.

1. launch ``python -m repro serve`` on an ephemeral port and parse the
   bound address from its banner line;
2. run three consecutive jobs and assert the pool's worker PIDs never
   change — the shared-pool reuse claim, scraped from ``/snapshot``;
3. submit concurrent jobs from two tenants — tenant ``storm`` with a
   seeded misspeculation storm (``chaos.conflicts``), tenant ``quiet``
   clean — and assert the quiet tenant's outputs are bit-identical to a
   solo run of the same spec while ``/health`` degrades only ``storm``;
4. cancel one job mid-flight and assert it lands ``cancelled``;
5. scrape ``/metrics`` for the per-tenant counters;
6. run one *traced* job (``params.trace``) under seeded chaos, fetch
   ``GET /jobs/<id>/trace`` + ``/timeline``, validate the Chrome trace
   structurally, and assert the service stages are present — the merged
   trace is saved as a CI artifact;
7. SIGTERM the server and assert a clean drain (exit 0, "drained
   cleanly" on stdout);
8. kill-and-recover: a *durable* server (``--state-dir``) is SIGKILLed
   mid-job on a seeded :func:`repro.resilience.server_kill_plan`
   schedule (replay with ``SMOKE_KILL_SEED``), restarted on the same
   state dir, and must resume the interrupted job from its checkpoint to
   a bit-identical result, honor the idempotency key from before the
   crash, and dead-letter a poison job after bounded retries — the
   journal (``journal.log``), its decoded dump (``journal-dump.jsonl``,
   one JSON object per record, an output shown by its place and byte
   length) and a recovery ``/metrics`` snapshot are saved as CI
   artifacts.

Usage: ``PYTHONPATH=src python benchmarks/service_smoke.py [artifact_dir]``
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

DEADLINE_S = 420.0
QUIET_PARAMS = {"iterations": 48, "spin": 400}
STORM_PARAMS = {
    "iterations": 64, "spin": 400,
    "chaos": {"conflicts": 32, "seed": 11},
}

_deadline = time.monotonic() + DEADLINE_S


def remaining() -> float:
    left = _deadline - time.monotonic()
    if left <= 0:
        raise SystemExit("smoke deadline exceeded")
    return left


def request(method, url, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=min(15, remaining())) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read() or b"{}")


def submit(base, tenant, params):
    status, body = request(
        "POST", f"{base}/jobs",
        {"tenant": tenant, "workload": "synthetic", "params": params},
    )
    assert status == 202, f"submit for {tenant} refused: {status} {body}"
    return body["id"]


def wait_done(base, job_id, expect="done"):
    while True:
        _, body = request("GET", f"{base}/jobs/{job_id}")
        if body["state"] in ("done", "failed", "cancelled", "dead_letter"):
            assert body["state"] == expect, f"{job_id}: {body}"
            return body
        remaining()
        time.sleep(0.1)


def pool_pids(base):
    _, snapshot = request("GET", f"{base}/snapshot")
    return snapshot["pool"]["pids"]


def launch(extra_args=()):
    """Start ``python -m repro serve`` and parse the banner for the base
    URL (skipping any recovery summary a durable restart prints first)."""
    # src goes first; what PYTHONPATH already holds (a sitecustomize, say)
    # stays after it
    inherited = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", *inherited]),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workers", "2", "--slots", "2", "--drain-timeout", "30",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    while True:
        remaining()
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before its banner (rc={proc.poll()})"
            )
        match = re.search(r"serving on (http://[\d.]+:\d+)", line)
        if match:
            return proc, match.group(1)
        print(f"  server: {line.strip()}")


def kill_and_recover(artifact_dir: str) -> None:
    """Phase 7: SIGKILL a durable server mid-job, restart, lose nothing."""
    from repro.exec.engine import run_sequential
    from repro.resilience import Checkpoint, CheckpointError, server_kill_plan
    from repro.service.jobs import build_spec

    seed = int(os.environ.get("SMOKE_KILL_SEED", "0")) or int.from_bytes(
        os.urandom(4), "big"
    )
    plan = server_kill_plan(seed)
    print(f"{plan.format_summary()}  (replay with SMOKE_KILL_SEED={seed})")

    params = {"iterations": 400, "spin": 30000}
    expected, _seconds = run_sequential(build_spec("synthetic", params))
    state_dir = os.path.join(artifact_dir, "state")
    # A stale journal from a previous smoke run would replay its jobs (and
    # claim this phase's idempotency key) — this phase assumes fresh state.
    shutil.rmtree(state_dir, ignore_errors=True)
    interval = 4
    serve_args = ("--state-dir", state_dir,
                  "--checkpoint-interval", str(interval), "--retry-max", "1")

    # -- incarnation 1: submit, wait for an appended checkpoint, SIGKILL -
    proc, base = launch(serve_args)
    try:
        status, body = request(
            "POST", f"{base}/jobs",
            {"tenant": "acme", "workload": "synthetic", "params": params,
             "idempotency_key": "smoke-kill-1"},
        )
        assert status == 202, (status, body)
        job_id = body["id"]
        checkpoint = os.path.join(
            state_dir, "artifacts", job_id, "checkpoint.pkl"
        )
        # The first cut is an atomic rename; wait for one appended after
        # it, so the kill lands on a log the append path wrote.
        covered = 0
        while covered < 2 * interval:
            assert proc.poll() is None, "server died before the kill"
            remaining()
            time.sleep(0.02)
            try:
                covered = Checkpoint.load(checkpoint).next_commit
            except CheckpointError:
                pass
        time.sleep(min(plan.delays[0], 0.5))
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=remaining())
        print(f"SIGKILLed server mid-job ({job_id} had a checkpoint "
              f"covering {covered} iterations)")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)

    # -- incarnation 2: recover, resume, finish bit-identical ------------
    proc, base = launch(serve_args)
    try:
        # the client's crash-retry resubmit hits the idempotency key
        status, body = request(
            "POST", f"{base}/jobs",
            {"tenant": "acme", "workload": "synthetic", "params": params,
             "idempotency_key": "smoke-kill-1"},
        )
        assert status == 200 and body["id"] == job_id, (status, body)
        assert body.get("deduplicated") is True, body

        # a poison job rides along: bounded retries, then dead-letter,
        # while the recovered job keeps making progress
        status, body = request(
            "POST", f"{base}/jobs",
            {"tenant": "evil", "workload": "synthetic",
             "params": {"iterations": 48, "fail_at": 5,
                        "retry": {"max_attempts": 2,
                                  "backoff_base": 0.05}}},
        )
        assert status == 202, (status, body)
        poison_id = body["id"]

        final = wait_done(base, job_id)
        assert final.get("recovered") is True, final
        assert final.get("resumed_from", 0) > 0, final
        _, result = request("GET", f"{base}/jobs/{job_id}/result")
        assert result["output"] == expected, "recovered output diverged"
        poison = wait_done(base, poison_id, expect="dead_letter")
        assert poison["attempts"] == 2, poison

        with urllib.request.urlopen(f"{base}/metrics", timeout=15) as resp:
            metrics = resp.read().decode()
        for needle in (
            "repro_service_durable 1",
            'repro_service_recovery_total{outcome="resumed"} 1',
            'repro_service_jobs_total{tenant="evil",event="dead_letter"} 1',
        ):
            assert needle in metrics, f"missing from /metrics: {needle}"

        # the CI artifacts: recovery metrics snapshot + the journal itself
        with open(os.path.join(artifact_dir, "recovery-metrics.prom"),
                  "w") as handle:
            handle.write(metrics)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=remaining())
        assert proc.returncode == 0, f"exit {proc.returncode}:\n{out}"
        from repro.service.durability import JOURNAL_NAME, JobJournal

        journal = os.path.join(state_dir, JOURNAL_NAME)
        shutil.copy(journal, os.path.join(artifact_dir, JOURNAL_NAME))
        records = JobJournal.read(journal)
        assert any("output" in record for record in records), records
        with open(os.path.join(artifact_dir, "journal-dump.jsonl"),
                  "w") as handle:
            for record in records:
                handle.write(json.dumps(record, default=str) + "\n")
        print("kill-and-recover ok: checkpoint resume, bit-identical "
              "output, idempotent resubmit, poison dead-lettered")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


def main() -> int:
    # the solo-run reference the quiet tenant is compared against
    from repro.exec.engine import run_sequential
    from repro.service.jobs import build_spec

    expected_quiet, _seconds = run_sequential(
        build_spec("synthetic", QUIET_PARAMS)
    )

    artifact_dir = sys.argv[1] if len(sys.argv) > 1 else "/tmp/service-smoke"
    os.makedirs(artifact_dir, exist_ok=True)

    proc, base = launch()
    try:
        print(f"server up at {base}")

        # -- shared-pool reuse: 3 consecutive jobs, PIDs frozen ----------
        pids = pool_pids(base)
        assert len(pids) == 2, pids
        for round_number in range(3):
            job_id = submit(base, "reuse", QUIET_PARAMS)
            wait_done(base, job_id)
            now = pool_pids(base)
            assert now == pids, f"round {round_number}: {now} != {pids}"
        print(f"pool PIDs stable across 3 jobs: {pids}")

        # -- two tenants, one storming; quiet stays bit-identical --------
        storm_ids = [submit(base, "storm", STORM_PARAMS) for _ in range(2)]
        quiet_ids = [submit(base, "quiet", QUIET_PARAMS) for _ in range(2)]
        for job_id in quiet_ids:
            wait_done(base, job_id)
            _, result = request("GET", f"{base}/jobs/{job_id}/result")
            assert result["output"] == expected_quiet, result
            assert result["metrics"]["serial_reexecutions"] == 0
        for job_id in storm_ids:
            final = wait_done(base, job_id)
            _, result = request("GET", f"{base}/jobs/{job_id}/result")
            assert result["metrics"]["serial_reexecutions"] >= 32, result
        status, health = request("GET", f"{base}/health")
        assert status == 200 and health["status"] == "ok", health
        assert health["tenants"]["storm"]["status"] == "degraded", health
        assert health["tenants"]["quiet"]["status"] == "ok", health
        print("storm isolated: quiet bit-identical, only storm degraded")

        # -- cancel one mid-flight ---------------------------------------
        job_id = submit(
            base, "cancels", {"iterations": 100_000, "spin": 3000}
        )
        while True:
            _, body = request("GET", f"{base}/jobs/{job_id}")
            if body["state"] != "queued":
                break
            time.sleep(0.05)
        status, body = request("POST", f"{base}/jobs/{job_id}/cancel")
        assert status == 202, (status, body)
        wait_done(base, job_id, expect="cancelled")
        print("mid-flight cancel ok")

        # -- per-tenant counters on /metrics -----------------------------
        with urllib.request.urlopen(f"{base}/metrics", timeout=15) as resp:
            text = resp.read().decode()
        for needle in (
            'repro_service_jobs_total{tenant="quiet",event="completed"} 2',
            'repro_service_jobs_total{tenant="storm",event="completed"} 2',
            'repro_service_jobs_total{tenant="cancels",event="cancelled"} 1',
            'repro_service_tenant_degraded{tenant="storm"} 1',
            'repro_service_tenant_degraded{tenant="quiet"} 0',
            "repro_service_pool_spawned_total 2",
        ):
            assert needle in text, f"missing from /metrics: {needle}"
        print("per-tenant /metrics counters ok")

        # -- traced job: fetch + validate the merged Chrome trace --------
        from repro.obs.export import validate_chrome_trace

        traced_params = dict(STORM_PARAMS, trace=True)
        traced_id = submit(base, "traced", traced_params)
        wait_done(base, traced_id)
        # The merge runs just after the terminal transition; a 409 here
        # means "merge in flight — retry", so poll briefly.
        deadline = time.monotonic() + 15.0
        while True:
            status, trace = request("GET", f"{base}/jobs/{traced_id}/trace")
            if status != 409 or time.monotonic() >= deadline:
                break
            time.sleep(0.1)
        assert status == 200, (status, trace)
        problems = validate_chrome_trace(trace)
        assert problems == [], problems
        span_names = {
            event["name"] for event in trace["traceEvents"]
            if event.get("ph") == "X"
        }
        for needle in ("admit", "queue_wait", "sched_pick",
                       "lease_dispatch", "A", "B", "C"):
            assert needle in span_names, f"missing span {needle}"
        status, timeline = request(
            "GET", f"{base}/jobs/{traced_id}/timeline"
        )
        assert status == 200 and timeline["job"] == traced_id, timeline
        stages = [phase["stage"] for phase in timeline["phases"]]
        assert stages[0] == "admit", stages
        with urllib.request.urlopen(f"{base}/metrics", timeout=15) as resp:
            text = resp.read().decode()
        needle = 'repro_service_queue_wait_seconds_bucket{tenant="traced"'
        assert needle in text, "queue-wait histogram missing from /metrics"
        with open(os.path.join(artifact_dir, "traced-job.trace.json"),
                  "w") as handle:
            json.dump(trace, handle)
        print(f"traced job ok: {len(trace['traceEvents'])} events, "
              f"stages {stages}")

        # -- SIGTERM => clean drain --------------------------------------
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=remaining())
        assert proc.returncode == 0, f"exit {proc.returncode}:\n{out}"
        assert "drained cleanly" in out, out
        print("SIGTERM drained cleanly")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)

    # -- durable server: SIGKILL mid-job, restart, lose nothing ----------
    kill_and_recover(artifact_dir)
    print("SERVICE SMOKE PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
