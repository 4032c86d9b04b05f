"""Job-plane causal tracing: end-to-end timelines, trace artifacts, and
the post-mortem flight recorder (PR 9).

The expensive fixtures run *one* durable traced server shared by the
whole module — two tenants submit concurrently (one of them with seeded
chaos), and every assertion family (stitching, nesting, schema validity,
metrics consistency, artifacts, report CLI) reads from that single run.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exec.faults import RobustnessPolicy
from repro.obs.events import EventKind, SERVICE_KINDS, TraceConfig
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.jobtrace import (
    FlightRecorder,
    JobTrace,
    TraceContext,
    aggregate_report,
    build_timeline,
    format_report,
    open_job_trace,
    run_report,
)
from repro.obs.merge import merge_spool_dir
from repro.service import PipelineService, ServiceConfig
from repro.service.jobs import JobState

FAST_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01
)

TERMINAL = ("done", "failed", "cancelled", "dead_letter")


def _wait_terminal(service, job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        # A live job.trace after the terminal transition means the trace
        # merge is still in flight in the runner thread — wait it out so
        # tests can fetch artifacts immediately.
        if job.state.value in TERMINAL and job.trace is None:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job.id} stuck in {job.state.value}")


@pytest.fixture(scope="module")
def traced_service(tmp_path_factory):
    state_dir = str(tmp_path_factory.mktemp("trace-state"))
    service = PipelineService(
        ServiceConfig(
            pool_workers=2,
            slots=2,
            capacity=8,
            batch_size=4,
            policy=FAST_POLICY,
            live_interval=0.05,
            state_dir=state_dir,
            trace_jobs=True,
        )
    ).start(serve_http=True)
    yield service
    service.drain_and_stop(10.0)


@pytest.fixture(scope="module")
def traced_jobs(traced_service):
    """Two tenants, submitted concurrently; beta runs under seeded chaos."""
    service = traced_service
    jobs = {}

    def submit(key, tenant, params):
        job, decision = service.submit(tenant, "synthetic", params)
        assert job is not None, decision.reason
        jobs[key] = job

    threads = [
        threading.Thread(
            target=submit,
            args=("alpha", "alpha", {"iterations": 48, "spin": 400}),
        ),
        threading.Thread(
            target=submit,
            args=(
                "beta", "beta",
                {"iterations": 48, "spin": 400,
                 "chaos": {"conflicts": 16, "seed": 11}},
            ),
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for job in jobs.values():
        _wait_terminal(service, job)
    return jobs


def _spans(trace, name):
    return [
        event for event in trace["traceEvents"]
        if event.get("ph") == "X" and event.get("name") == name
    ]


class TestTraceStitching:
    def test_both_tenants_complete(self, traced_jobs):
        for job in traced_jobs.values():
            assert job.state is JobState.DONE, job.error

    def test_chrome_trace_is_schema_valid(self, traced_service, traced_jobs):
        for job in traced_jobs.values():
            trace = traced_service.job_trace_json(job)
            assert trace is not None
            assert validate_chrome_trace(trace) == []

    def test_trace_spans_admission_to_persist(
        self, traced_service, traced_jobs
    ):
        """One trace carries service stages AND engine phases: the full
        admission -> sched pick -> lease -> A/B/C -> persist causal chain."""
        trace = traced_service.job_trace_json(traced_jobs["alpha"])
        names = {
            event["name"] for event in trace["traceEvents"]
            if event.get("ph") == "X"
        }
        for required in (
            "admit", "queue_wait", "sched_pick", "lease_dispatch",
            "artifact_persist", "A", "B", "C",
        ):
            assert required in names, f"missing {required} in {sorted(names)}"

    def test_service_spans_nest_inside_admit(
        self, traced_service, traced_jobs
    ):
        """ADMIT is the job-root span: QUEUE_WAIT, SCHED_PICK, and every
        engine phase fall inside [admit.start, admit.end]."""
        for job in traced_jobs.values():
            trace = traced_service.job_trace_json(job)
            (admit,) = _spans(trace, "admit")
            admit_end = admit["ts"] + admit["dur"]
            for name in ("queue_wait", "sched_pick", "lease_dispatch",
                         "artifact_persist", "A", "B", "C"):
                for span in _spans(trace, name):
                    assert span["ts"] >= admit["ts"] - 1, name
                    assert span["ts"] + span["dur"] <= admit_end + 1, name

    def test_queue_wait_contains_no_engine_work(
        self, traced_service, traced_jobs
    ):
        """Engine phases start only after QUEUE_WAIT ended — the queue
        wait precedes the lease by construction."""
        trace = traced_service.job_trace_json(traced_jobs["alpha"])
        (queue_wait,) = _spans(trace, "queue_wait")
        wait_end = queue_wait["ts"] + queue_wait["dur"]
        engine_starts = [
            span["ts"] for name in ("A", "B", "C")
            for span in _spans(trace, name)
        ]
        assert engine_starts
        assert min(engine_starts) >= wait_end - 1

    def test_traces_are_separate_per_job(self, traced_service, traced_jobs):
        """Concurrent tenants do not bleed into each other's timeline."""
        alpha = traced_service.job_timeline_json(traced_jobs["alpha"])
        beta = traced_service.job_timeline_json(traced_jobs["beta"])
        assert alpha["job"] == traced_jobs["alpha"].id
        assert beta["job"] == traced_jobs["beta"].id
        assert alpha["tenant"] == "alpha"
        assert beta["tenant"] == "beta"
        stages = [p["stage"] for p in alpha["phases"]]
        assert stages.count("admit") == 1
        assert stages.count("queue_wait") == 1

    def test_chaos_job_reports_reexec_series(
        self, traced_service, traced_jobs
    ):
        """Seeded conflicts show up as serial re-executions in the traced
        timeline's engine section."""
        beta = traced_service.job_timeline_json(traced_jobs["beta"])
        assert beta["engine"].get("task_b", {}).get("count", 0) > 0
        metrics = traced_jobs["beta"].metrics
        assert metrics["conflicts"] + metrics["serial_reexecutions"] > 0

    def test_timeline_durations_match_metrics_histograms(
        self, traced_service, traced_jobs
    ):
        """The QUEUE_WAIT span duration is the same measurement the
        per-tenant /metrics histogram observed — sums agree per tenant."""
        text = traced_service.metrics_text()
        for key, job in traced_jobs.items():
            timeline = traced_service.job_timeline_json(job)
            waits = [
                p["duration_s"] for p in timeline["phases"]
                if p["stage"] == "queue_wait"
            ]
            needle = (
                'repro_service_queue_wait_seconds_sum{tenant="%s"}' % key
            )
            (line,) = [l for l in text.splitlines() if l.startswith(needle)]
            scraped = float(line.split()[-1])
            assert scraped == pytest.approx(sum(waits), rel=1e-6, abs=1e-9)

    def test_sched_pick_histogram_counts_dispatches(
        self, traced_service, traced_jobs
    ):
        text = traced_service.metrics_text()
        needle = 'repro_service_sched_pick_seconds_count{tenant="alpha"}'
        (line,) = [l for l in text.splitlines() if l.startswith(needle)]
        assert int(line.split()[-1]) >= 1

    def test_queue_wait_buckets_are_cumulative(self, traced_service):
        text = traced_service.metrics_text()
        buckets = [
            int(line.split()[-1]) for line in text.splitlines()
            if line.startswith(
                'repro_service_queue_wait_seconds_bucket{tenant="alpha"'
            )
        ]
        assert buckets, "histogram buckets missing"
        assert buckets == sorted(buckets), "buckets must be cumulative"


class TestTraceHttp:
    def _get(self, service, path):
        url = f"http://127.0.0.1:{service.port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_trace_roundtrip_is_valid(self, traced_service, traced_jobs):
        job = traced_jobs["alpha"]
        status, trace = self._get(traced_service, f"/jobs/{job.id}/trace")
        assert status == 200
        assert validate_chrome_trace(trace) == []

    def test_timeline_roundtrip(self, traced_service, traced_jobs):
        job = traced_jobs["beta"]
        status, timeline = self._get(
            traced_service, f"/jobs/{job.id}/timeline"
        )
        assert status == 200
        assert timeline["job"] == job.id
        assert [p["stage"] for p in timeline["phases"]][0] == "admit"

    def test_bottleneck_roundtrip_is_schema_valid(
        self, traced_service, traced_jobs
    ):
        from repro.obs.analyze import validate_bottleneck

        job = traced_jobs["alpha"]
        status, analysis = self._get(
            traced_service, f"/jobs/{job.id}/bottleneck"
        )
        assert status == 200
        assert validate_bottleneck(analysis) == []
        assert analysis["source"] == "trace"
        assert analysis["iterations"] == 48
        # The verdict is also persisted beside the trace artifacts.
        path = os.path.join(
            traced_service.config.state_dir, "artifacts", job.id,
            "bottleneck.json",
        )
        assert os.path.exists(path)
        with open(path) as handle:
            assert json.load(handle)["top"] == analysis["top"]

    def test_unknown_job_404(self, traced_service, traced_jobs):
        status, body = self._get(traced_service, "/jobs/zzz/trace")
        assert status == 404
        status, body = self._get(traced_service, "/jobs/zzz/bottleneck")
        assert status == 404

    def test_untraced_job_404(self, traced_service):
        """A job that opted out of tracing has no trace artifact."""
        # trace_jobs=True traces everything in this fixture, so exercise
        # the 404 through a job whose artifacts were never written:
        status, body = self._get(traced_service, "/jobs/nope/timeline")
        assert status == 404


class TestPostmortem:
    def test_dead_letter_leaves_retrievable_bundle(self, traced_service):
        """A poison job's retries exhaust -> dead-letter -> a post-mortem
        bundle lands in the artifact store and is retrievable over HTTP."""
        service = traced_service
        job, decision = service.submit(
            "gamma", "synthetic",
            {"iterations": 24, "spin": 200, "fail_at": 5,
             "retry": {"max_attempts": 2, "backoff_base": 0.05}},
        )
        assert job is not None, decision.reason
        _wait_terminal(service, job)
        assert job.state is JobState.DEAD_LETTER
        # The bundle is snapshotted just after the trace merge, in the
        # runner thread — give it a beat to land.
        deadline = time.monotonic() + 5.0
        bundle = service.job_postmortem_json(job)
        while bundle is None and time.monotonic() < deadline:
            time.sleep(0.02)
            bundle = service.job_postmortem_json(job)
        assert bundle is not None
        assert bundle["reason"] == "dead_letter"
        assert bundle["job"]["id"] == job.id
        assert bundle["throttle"]["window"] >= 1
        events = {e["event"] for e in bundle["flight_recorder"]}
        assert "admitted" in events
        assert "retry_scheduled" in events
        tail_events = {r["event"] for r in bundle["journal_tail"]}
        assert "dead_letter" in tail_events
        # retrievable over HTTP too
        url = (
            f"http://127.0.0.1:{service.port}/jobs/{job.id}/postmortem"
        )
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == 200
            assert json.loads(response.read())["reason"] == "dead_letter"

    def test_retry_backoff_span_in_timeline(self, traced_service):
        jobs = [
            job for job in traced_service.list_jobs("gamma")
            if job.state is JobState.DEAD_LETTER
        ]
        assert jobs
        timeline = traced_service.job_timeline_json(jobs[0])
        stages = [p["stage"] for p in timeline["phases"]]
        assert "retry_backoff" in stages
        assert stages.count("queue_wait") == 2  # one per attempt

    def test_postmortem_counter_on_metrics(self, traced_service):
        text = traced_service.metrics_text()
        needle = 'repro_service_postmortem_total{tenant="gamma"}'
        (line,) = [l for l in text.splitlines() if l.startswith(needle)]
        assert int(line.split()[-1]) >= 1

    def test_postmortem_retention_lru(self, tmp_path):
        """Per-tenant bundles are capped LRU-by-mtime at write time."""
        from repro.service.durability import ArtifactStore

        store = ArtifactStore(str(tmp_path / "artifacts"))
        for index in range(6):
            store.put_postmortem(
                "acme", f"j{index:05d}-a1-failed",
                {"reason": "failed", "index": index}, keep=3,
            )
            time.sleep(0.01)  # distinct mtimes at fs granularity
        kept = store.list_postmortems("acme")
        assert len(kept) == 3
        survivors = {os.path.basename(p) for p in kept}
        assert survivors == {
            "j00005-a1-failed.json", "j00004-a1-failed.json",
            "j00003-a1-failed.json",
        }

    def test_postmortem_tenant_name_is_sanitized(self, tmp_path):
        from repro.service.durability import ArtifactStore

        store = ArtifactStore(str(tmp_path / "artifacts"))
        path = store.put_postmortem(
            "../../evil", "j00001-a1-failed", {"reason": "failed"}
        )
        assert os.path.realpath(path).startswith(
            os.path.realpath(str(tmp_path / "artifacts"))
        )


class TestObsReport:
    def test_report_aggregates_stored_traces(self, traced_service, traced_jobs):
        text, code = run_report(traced_service.config.state_dir)
        assert code == 0
        assert "tenant alpha:" in text
        assert "queue_wait" in text
        assert "task_b" in text

    def test_report_tenant_filter(self, traced_service, traced_jobs):
        text, code = run_report(
            traced_service.config.state_dir, tenant="beta"
        )
        assert code == 0
        assert "tenant beta:" in text
        assert "tenant alpha:" not in text

    def test_report_missing_dir(self, tmp_path):
        text, code = run_report(str(tmp_path / "nope"))
        assert code == 2

    def test_report_empty_dir(self, tmp_path):
        text, code = run_report(str(tmp_path))
        assert code == 1

    def test_cli_entry_point(self, traced_service, traced_jobs, capsys):
        from repro.__main__ import main

        code = main(["obs", "report", traced_service.config.state_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs with trace artifacts:" in out

    def test_analyze_reads_a_stored_jobs_metrics_from_the_journal(
        self, traced_service, traced_jobs, tmp_path, monkeypatch
    ):
        """``obs analyze JOB --state-dir DIR`` analyzes the stored trace
        with the metrics the job's completion record carries."""
        import repro.obs.analyze as analyze
        from repro.__main__ import main

        seen = []
        real_analyze_trace = analyze.analyze_trace

        def recording_analyze_trace(merged, metrics=None, **kwargs):
            seen.append(metrics)
            return real_analyze_trace(merged, metrics=metrics, **kwargs)

        monkeypatch.setattr(analyze, "analyze_trace", recording_analyze_trace)
        job = traced_jobs["alpha"]
        out = tmp_path / "report.json"
        code = main([
            "obs", "analyze", job.id,
            "--state-dir", traced_service.config.state_dir,
            "--json", str(out),
        ])
        assert code == 0
        assert seen == [json.loads(json.dumps(job.metrics, default=str))]
        assert json.loads(out.read_text())["iterations"] == 48

    def test_corrupt_timeline_warns_but_keeps_other_jobs(self, tmp_path):
        """One damaged job's artifacts must not take down the report —
        skip it loudly, aggregate the rest, exit 0."""
        good = tmp_path / "j-good"
        good.mkdir()
        (good / "timeline.json").write_text(json.dumps({
            "job": "j-good", "tenant": "acme", "attempts": 1,
            "phases": [
                {"stage": "admit", "start_s": 0.0, "duration_s": 0.001},
            ],
        }))
        bad = tmp_path / "j-bad"
        bad.mkdir()
        (bad / "timeline.json").write_text("{not json")
        text, code = run_report(str(tmp_path))
        assert code == 0
        assert "tenant acme:" in text
        assert "warning: job j-bad: unreadable timeline.json" in text

    def test_corrupt_trace_falls_back_to_timeline(self, tmp_path):
        job_dir = tmp_path / "j-halftraced"
        job_dir.mkdir()
        (job_dir / "timeline.json").write_text(json.dumps({
            "job": "j-halftraced", "tenant": "acme", "attempts": 1,
            "phases": [
                {"stage": "admit", "start_s": 0.0, "duration_s": 0.001},
            ],
        }))
        (job_dir / "trace.json").write_text("\x00garbage")
        text, code = run_report(str(tmp_path))
        assert code == 0
        assert "tenant acme:" in text
        assert "falling back to timeline summaries" in text

    def test_all_jobs_corrupt_is_nonzero(self, tmp_path):
        for name in ("j-1", "j-2"):
            job_dir = tmp_path / name
            job_dir.mkdir()
            (job_dir / "timeline.json").write_text("{not json")
        text, code = run_report(str(tmp_path))
        assert code == 1
        assert text.count("warning:") == 2


class TestJobTraceUnit:
    def test_cross_thread_marks(self, tmp_path):
        trace = open_job_trace("j1", "t", str(tmp_path / "spool"))
        assert trace.enabled
        trace.begin("admit")
        done = threading.Event()

        def closer():
            time.sleep(0.01)
            duration = trace.end("admit", EventKind.ADMIT, arg=1)
            assert duration > 0.0
            done.set()

        thread = threading.Thread(target=closer)
        thread.start()
        thread.join()
        assert done.is_set()
        trace.close()
        merged = merge_spool_dir(str(tmp_path / "spool"))
        assert [span.kind for span in merged.spans] == [EventKind.ADMIT]

    def test_end_without_begin_is_zero(self, tmp_path):
        trace = open_job_trace("j1", "t", str(tmp_path / "spool"))
        assert trace.end("never", EventKind.QUEUE_WAIT) == 0.0
        trace.close()

    def test_disabled_trace_is_noop(self):
        trace = JobTrace(
            TraceContext("j1", "t", config=TraceConfig(
                spool_dir="/nonexistent/x", enabled=False,
            ))
        )
        assert not trace.enabled
        trace.begin("admit")
        assert trace.end("admit", EventKind.ADMIT) == 0.0
        trace.close()

    def test_service_spans_reach_chrome_export(self, tmp_path):
        trace = open_job_trace("j1", "t", str(tmp_path / "spool"))
        t0 = 1_000_000
        for offset, kind in enumerate(sorted(SERVICE_KINDS)):
            trace.span(kind, t0 + offset * 10, t0 + offset * 10 + 5)
        trace.close()
        merged = merge_spool_dir(str(tmp_path / "spool"))
        chrome = to_chrome_trace(merged)
        assert validate_chrome_trace(chrome) == []
        names = {
            event["name"] for event in chrome["traceEvents"]
            if event.get("ph") == "X"
        }
        assert names == {
            "admit", "queue_wait", "sched_pick", "lease_dispatch",
            "artifact_persist", "retry_backoff",
        }

    def test_build_timeline_excludes_service_from_engine(self, tmp_path):
        trace = open_job_trace("j1", "t", str(tmp_path / "spool"))
        trace.span(EventKind.ADMIT, 1000, 2000, arg=1)
        trace.close()
        merged = merge_spool_dir(str(tmp_path / "spool"))
        timeline = build_timeline(merged, "j1", "t", attempts=1)
        assert [p["stage"] for p in timeline["phases"]] == ["admit"]
        assert "admit" not in timeline["engine"]

    def test_flight_recorder_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.note("event", f"j{index}", "t", index=index)
        snapshot = recorder.snapshot()
        assert len(snapshot) == 4
        assert [e["seq"] for e in snapshot] == [7, 8, 9, 10]
        assert recorder.events_noted == 10

    def test_flight_recorder_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_aggregate_report_handles_missing_trace(self):
        timeline = {
            "tenant": "t",
            "phases": [{"stage": "queue_wait", "duration_s": 0.5}],
            "engine": {"task_b": {"mean": 0.001}},
        }
        aggregate = aggregate_report([("j1", timeline, None)])
        assert aggregate["jobs"] == 1
        stages = aggregate["tenants"]["t"]
        assert stages["queue_wait"].count == 1
        assert stages["task_b"].count == 1
        assert "tenant t:" in format_report(aggregate)


class TestUntracedPath:
    def test_untraced_service_has_no_artifacts(self):
        """Default config: no trace flag, no params.trace — the lease must
        carry trace=None to the pool and no artifacts appear."""
        service = PipelineService(
            ServiceConfig(
                pool_workers=2, slots=1, capacity=8, batch_size=4,
                policy=FAST_POLICY, live_interval=0.05,
            )
        ).start(serve_http=False)
        try:
            job, decision = service.submit(
                "acme", "synthetic", {"iterations": 24, "spin": 200}
            )
            assert job is not None, decision.reason
            _wait_terminal(service, job)
            assert job.state is JobState.DONE, job.error
            assert job.trace is None
            assert service.job_trace_json(job) is None
            assert service.job_timeline_json(job) is None
        finally:
            service.drain_and_stop(10.0)

    def test_params_trace_opts_in_per_job(self):
        """params.trace traces one job on an otherwise untraced in-memory
        server (ephemeral spool dir, merged trace kept in memory)."""
        service = PipelineService(
            ServiceConfig(
                pool_workers=2, slots=1, capacity=8, batch_size=4,
                policy=FAST_POLICY, live_interval=0.05,
            )
        ).start(serve_http=False)
        try:
            job, decision = service.submit(
                "acme", "synthetic",
                {"iterations": 24, "spin": 200, "trace": True},
            )
            assert job is not None, decision.reason
            _wait_terminal(service, job)
            assert job.state is JobState.DONE, job.error
            trace = service.job_trace_json(job)
            assert trace is not None
            assert validate_chrome_trace(trace) == []
            # the ephemeral spool dir is cleaned up after the merge
            assert not os.path.exists(job.trace_dir)
        finally:
            service.drain_and_stop(10.0)

    def test_trace_param_must_be_boolean(self):
        service = PipelineService(
            ServiceConfig(
                pool_workers=2, slots=1, capacity=8, batch_size=4,
                policy=FAST_POLICY, live_interval=0.05,
            )
        )
        with pytest.raises(ValueError):
            service.submit("acme", "synthetic", {"trace": "yes"})
