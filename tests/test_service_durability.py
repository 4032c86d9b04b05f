"""Tests for the durable job plane (repro.service.durability + wiring).

Three layers:

- unit: the write-ahead journal's crash discipline (torn-tail truncation,
  damaged-interior skip, seq-gap audit, compaction, a cut anywhere in a
  completion record), the artifact store, and journal-replay folding;
- in-process service: restart recovery (terminal reload, queued re-admit,
  idempotent resubmit across restart), bounded retry with checkpoint
  resume, poison-job dead-lettering, deadlines, eager quota release on
  cancel, and the rate-derived ``Retry-After``;
- subprocess: SIGKILL the real server mid-job, restart on the same
  ``--state-dir``, and assert the job resumes from its checkpoint and
  finishes bit-identical to a sequential run.
"""

import json
import os
import pickle
import re
import shutil
import stat
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.exec import RobustnessPolicy
from repro.exec.engine import run_sequential
from repro.resilience import recordlog, server_kill_plan
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    ArtifactStore,
    JobJournal,
    PipelineService,
    ServiceConfig,
    fold_records,
    retry_delay,
)
from repro.obs.serve import Request
from repro.service.api import handle_api
from repro.service.durability import (
    JOURNAL_NAME,
    LEGACY_JOURNAL_NAME,
    JournalError,
)
from repro.service.jobs import JobState, TERMINAL_STATES, build_spec

FAST_POLICY = RobustnessPolicy(
    task_timeout=5.0, stall_timeout=10.0, poll_interval=0.01
)


def wait_terminal(jobs, timeout=90.0):
    jobs = jobs if isinstance(jobs, list) else [jobs]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(j.state in TERMINAL_STATES for j in jobs):
            return
        time.sleep(0.05)
    states = {j.id: j.state.value for j in jobs}
    raise AssertionError(f"jobs never finished: {states}")


def count_directory_fsyncs(monkeypatch):
    """Patch ``os.fsync`` to count calls on directory descriptors."""
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def get_result(service, job_id):
    """``GET /jobs/<id>/result`` through the job API, in process."""
    path = f"/jobs/{job_id}/result"
    status, _, body, _ = handle_api(
        service, Request("GET", path, path.strip("/").split("/"), {}, {}, {})
    )
    return status, json.loads(body)


def durable_service(state_dir, **overrides):
    kwargs = dict(
        pool_workers=2, slots=2, capacity=8, batch_size=4,
        policy=FAST_POLICY, state_dir=str(state_dir),
        checkpoint_interval=4,
    )
    kwargs.update(overrides)
    return PipelineService(ServiceConfig(**kwargs)).start(serve_http=False)


class TestJobJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        journal, records = JobJournal.open(path)
        assert records == []
        journal.append("submitted", "j1", {"tenant": "t"}, fsync=True)
        journal.append("queued", "j1")
        journal.append("completed", "j1", fsync=True)
        journal.close()
        journal2, records = JobJournal.open(path)
        assert [(r["seq"], r["event"]) for r in records] == [
            (0, "submitted"), (1, "queued"), (2, "completed"),
        ]
        assert records[0]["data"] == {"tenant": "t"}
        assert journal2.stats.records == 3
        assert journal2.stats.torn_tail == 0
        # appends continue the sequence, never reuse it
        assert journal2.append("submitted", "j2") == 3
        journal2.close()

    def test_torn_tail_truncated_in_place(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        journal, _ = JobJournal.open(path)
        journal.append("submitted", "j1")
        journal.append("queued", "j1")
        journal.close()
        intact_size = os.path.getsize(path)
        with open(path, "ab") as handle:  # crash mid-record
            handle.write(recordlog.frame(b'{"seq":2,"event":"leased"}')[:20])
        journal2, records = JobJournal.open(path)
        assert len(records) == 2
        assert journal2.stats.torn_tail == 1
        # truncated *in place*: the next append starts on a clean line
        assert os.path.getsize(path) == intact_size
        journal2.append("leased", "j1")
        journal2.close()
        _, records = JobJournal.open(path)
        assert [r["event"] for r in records] == [
            "submitted", "queued", "leased",
        ]

    def test_corrupt_interior_line_skipped_and_gap_counted(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        journal, _ = JobJournal.open(path)
        journal.append("submitted", "j1")
        journal.append("queued", "j1")
        journal.append("completed", "j1")
        journal.close()
        raw = bytearray(open(path, "rb").read())
        start, stop = recordlog.scan(bytes(raw)).records[1]
        raw[start:stop] = b"#" * (stop - start)
        with open(path, "wb") as handle:
            handle.write(raw)
        journal2, records = JobJournal.open(path)
        assert [r["event"] for r in records] == ["submitted", "completed"]
        assert journal2.stats.corrupt_records == 1
        assert journal2.stats.seq_gaps == 1
        journal2.close()

    def test_truncation_at_every_byte_replays_the_complete_prefix(
        self, tmp_path
    ):
        """A kill at any byte of an append: replay keeps exactly the
        records that were whole, truncates the file to them, and the next
        append replays cleanly after them."""
        source = str(tmp_path / "source.log")
        journal, _ = JobJournal.open(source)
        events = ["submitted", "queued", "leased", "running", "completed"]
        ends = []
        for event in events:
            journal.append(event, "j1", {"attempt": 1})
            ends.append(os.path.getsize(source))
        journal.close()
        raw = open(source, "rb").read()
        path = tmp_path / JOURNAL_NAME
        for cut in range(len(raw) + 1):
            path.write_bytes(raw[:cut])
            whole = sum(end <= cut for end in ends)
            durable = ends[whole - 1] if whole else 0
            journal, records = JobJournal.open(str(path))
            assert [r["event"] for r in records] == events[:whole]
            assert journal.stats.torn_tail == int(cut > durable)
            assert journal.stats.corrupt_records == 0
            assert os.path.getsize(path) == durable
            assert journal.append("submitted", "j2") == whole
            journal.close()
            journal, records = JobJournal.open(str(path))
            assert [r["seq"] for r in records] == list(range(whole + 1))
            assert records[-1]["job"] == "j2"
            assert journal.stats.torn_tail == 0
            assert journal.stats.seq_gaps == 0
            journal.close()

    def test_compaction_fsyncs_the_directory(self, tmp_path, monkeypatch):
        journal, _ = JobJournal.open(str(tmp_path / JOURNAL_NAME))
        journal.append("submitted", "j1", {"tenant": "t"})
        directory_fsyncs = count_directory_fsyncs(monkeypatch)
        journal.compact([("submitted", "j1", {"tenant": "t"})])
        assert len(directory_fsyncs) == 1
        journal.close()

    def test_unknown_event_rejected(self, tmp_path):
        journal, _ = JobJournal.open(str(tmp_path / "j.log"))
        with pytest.raises(JournalError):
            journal.append("exploded", "j1")
        journal.close()
        with pytest.raises(JournalError):
            journal.append("submitted", "j1")

    def test_compaction_preserves_replay_state(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        journal, _ = JobJournal.open(path)
        for _ in range(3):
            journal.append("submitted", "j1", {"tenant": "t"})
            journal.append("queued", "j1")
        journal.compact([
            ("submitted", "j1", {"tenant": "t"}),
            ("completed", "j1", {}),
        ])
        journal.append("submitted", "j2", {"tenant": "t"})
        journal.close()
        journal2, records = JobJournal.open(path)
        folded = fold_records(records)
        assert [(j.job_id, j.last_event) for j in folded] == [
            ("j1", "completed"), ("j2", "submitted"),
        ]
        assert journal2.stats.seq_gaps == 0
        journal2.close()


    def test_result_roundtrip(self, tmp_path):
        """The completed record carries the metrics and the output; replay
        folds the one and the offset index loads the other, across a
        reopen."""
        path = str(tmp_path / JOURNAL_NAME)
        journal, _ = JobJournal.open(path)
        output = {"sum": 123, "items": [1, 2, 3]}
        journal.append("submitted", "j1", {"tenant": "t"})
        journal.append("completed", "j1", {"metrics": {"committed": 3}},
                       output=pickle.dumps(output))
        journal.append("submitted", "j2", {"tenant": "t"})
        assert journal.load_output("j1") == output
        journal.close()
        journal, records = JobJournal.open(path)
        assert journal.load_output("j1") == output
        j1, j2 = fold_records(records)
        assert j1.metrics == {"committed": 3}
        assert j2.metrics is None
        with pytest.raises(KeyError):
            journal.load_output("j2")
        journal.close()

    def completion_log(self, tmp_path):
        """A journal whose last record is a completion; returns its path,
        bytes, the record's ``(start, stop)`` and the output."""
        path = str(tmp_path / "source.log")
        journal, _ = JobJournal.open(path)
        output = {"digest": bytes(range(256)), "items": list(range(64))}
        journal.append("submitted", "j1", {"tenant": "t"}, fsync=True)
        journal.append("leased", "j1", {"attempt": 1})
        journal.append("completed", "j1",
                       {"attempt": 1, "metrics": {"commits": 64}},
                       fsync=True, output=pickle.dumps(output))
        journal.close()
        raw = open(path, "rb").read()
        start, stop = recordlog.scan(raw).records[-1]
        return raw, start - recordlog.HEADER.size, stop, output

    def test_a_cut_anywhere_in_a_completion_record_reruns_or_loads(
        self, tmp_path
    ):
        """A kill at any byte of the completion append: the job is either
        still running (it re-runs) or completed with its output whole."""
        raw, record_start, record_end, output = self.completion_log(tmp_path)
        path = tmp_path / JOURNAL_NAME
        for cut in range(record_start, record_end + 1):
            path.write_bytes(raw[:cut])
            journal, records = JobJournal.open(str(path))
            (job,) = fold_records(records)
            if cut < record_end:
                assert job.interrupted and job.metrics is None
                assert journal.stats.torn_tail == int(cut > record_start)
                assert "j1" not in journal.outputs
            else:
                assert job.last_event == "completed"
                assert job.metrics == {"commits": 64}
                assert journal.load_output("j1") == output
            assert os.path.getsize(path) == (
                record_end if cut == record_end else record_start
            )
            journal.close()

    def test_interior_damage_loses_only_the_damaged_record(self, tmp_path):
        """Flip any byte of an interior record, header included: the scan
        resyncs on the next whole record, so every later record replays
        and nothing is truncated but a torn tail after the last one."""
        raw, _, _, output = self.completion_log(tmp_path)
        start, stop = recordlog.scan(raw).records[1]  # the ``leased`` one
        torn = recordlog.frame(b'{"seq":3}')[:-2]
        path = tmp_path / JOURNAL_NAME
        for offset in range(start - recordlog.HEADER.size, stop):
            damaged = bytearray(raw)
            damaged[offset] ^= 0xFF
            path.write_bytes(bytes(damaged) + torn)
            journal, records = JobJournal.open(str(path))
            assert [r["event"] for r in records] == ["submitted", "completed"]
            assert journal.stats.corrupt_records == 1
            assert journal.stats.seq_gaps == 1
            assert journal.stats.torn_tail == 1
            assert os.path.getsize(path) == len(raw)
            assert journal.load_output("j1") == output
            journal.close()

    def test_compaction_keeps_a_completed_jobs_output(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        journal, _ = JobJournal.open(path)
        journal.append("submitted", "j1", {"tenant": "t"})
        journal.append("leased", "j1", {"attempt": 1})
        journal.append("completed", "j1", {"metrics": {"commits": 2}},
                       output=pickle.dumps([1, 2]))
        journal.compact([
            ("submitted", "j1", {"tenant": "t"}),
            ("completed", "j1", {"metrics": {"commits": 2}}, 1234.5),
        ])
        assert journal.load_output("j1") == [1, 2]
        journal.close()
        journal, records = JobJournal.open(path)
        assert journal.load_output("j1") == [1, 2]
        (job,) = fold_records(records)
        assert job.finished_unix == 1234.5
        assert job.metrics == {"commits": 2}
        journal.close()


class TestArtifactStore:
    def test_checkpoint_lifecycle(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "artifacts"))
        path = store.checkpoint_path("j1")
        assert not store.has_checkpoint("j1")
        with open(path, "wb") as handle:
            handle.write(b"checkpoint")
        assert store.has_checkpoint("j1")
        store.discard_checkpoint("j1")
        assert not store.has_checkpoint("j1")
        # the job directory goes with its last file
        assert os.listdir(tmp_path / "artifacts") == []
        store.discard_checkpoint("j1")  # idempotent

    def test_path_traversal_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "artifacts"))
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.checkpoint_path(bad)

    def test_stats_counts_jobs_and_bytes(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "artifacts"))
        store.put_trace("j1", {"x": 1}, {})
        store.put_trace("j2", {"x": 2}, {})
        stats = store.stats()
        assert stats["jobs"] == 2 and stats["bytes"] > 0


class TestFoldRecords:
    def test_last_event_wins_in_submission_order(self):
        records = [
            {"seq": 0, "event": "submitted", "job": "a", "data": {"t": 1}},
            {"seq": 1, "event": "submitted", "job": "b", "data": {"t": 2}},
            {"seq": 2, "event": "leased", "job": "b", "data": {"attempt": 1}},
            {"seq": 3, "event": "queued", "job": "a"},
            {"seq": 4, "event": "completed", "job": "b"},
        ]
        folded = fold_records(records)
        assert [j.job_id for j in folded] == ["a", "b"]
        a, b = folded
        assert a.queued and not a.terminal
        assert b.terminal and b.attempts == 1
        assert a.payload == {"t": 1}

    def test_orphaned_records_dropped(self):
        folded = fold_records([
            {"seq": 0, "event": "queued", "job": "ghost"},
            {"seq": 1, "event": "submitted", "job": "real", "data": {}},
        ])
        assert [j.job_id for j in folded] == ["real"]

    def test_interrupted_detection(self):
        folded = fold_records([
            {"seq": 0, "event": "submitted", "job": "a", "data": {}},
            {"seq": 1, "event": "leased", "job": "a",
             "data": {"attempt": 1}},
        ])
        assert folded[0].interrupted


class TestRetryDelay:
    def test_bounded_exponential_with_deterministic_jitter(self):
        d1 = retry_delay("j1", 1, 0.2)
        d2 = retry_delay("j1", 2, 0.2)
        d3 = retry_delay("j1", 1, 0.2)
        assert d1 == d3  # same job + attempt -> same jitter
        assert d2 > d1  # exponential growth
        assert retry_delay("j1", 30, 0.2) <= 30.0 * 1.5  # capped
        assert retry_delay("j2", 1, 0.2) != d1  # jitter decorrelates jobs


class TestRetryAfterFromRate:
    """Satellite: 429 Retry-After derived from the observed dispatch rate."""

    def controller(self):
        return AdmissionController(AdmissionConfig(max_queued=4))

    def test_rate_turns_backlog_into_seconds(self):
        decision = self.controller().admit(
            depth=4, tenant_queued=0, tenant_running=0, dispatch_rate=2.0
        )
        assert decision.status == 429
        assert decision.retry_after == pytest.approx(2.0)  # 4 jobs / 2 per s

    def test_rate_estimate_clamped(self):
        fast = self.controller().admit(
            depth=4, tenant_queued=0, tenant_running=0, dispatch_rate=100.0
        )
        assert fast.retry_after == 1.0
        slow = self.controller().admit(
            depth=4, tenant_queued=0, tenant_running=0, dispatch_rate=0.01
        )
        assert slow.retry_after == 60.0

    def test_no_rate_falls_back_to_backlog_heuristic(self):
        decision = self.controller().admit(
            depth=4, tenant_queued=0, tenant_running=0, dispatch_rate=None
        )
        assert decision.retry_after == 4.0


class TestDurableRestart:
    def test_terminal_jobs_and_idempotency_survive_restart(self, tmp_path):
        svc = durable_service(tmp_path / "state")
        try:
            job, decision = svc.submit(
                "acme", "synthetic", {"iterations": 16, "spin": 100},
                idempotency_key="req-1",
            )
            assert decision.status == 202
            dup, dedup = svc.submit(
                "acme", "synthetic", {"iterations": 16, "spin": 100},
                idempotency_key="req-1",
            )
            assert dedup.deduplicated and dup is job
            wait_terminal(job)
            assert job.state is JobState.DONE
            expected = svc.job_output(job)
        finally:
            svc.drain_and_stop()

        svc2 = durable_service(tmp_path / "state")
        try:
            reloaded = svc2.get_job(job.id)
            assert reloaded is not None
            assert reloaded.state is JobState.DONE
            assert svc2.job_output(reloaded) == expected
            assert svc2.recovery.terminal == 1
            assert svc2.recovery.errors == 0
            # the idempotency key still points at the finished job
            dup, dedup = svc2.submit(
                "acme", "synthetic", {"iterations": 16, "spin": 100},
                idempotency_key="req-1",
            )
            assert dedup.deduplicated and dup.id == job.id
        finally:
            svc2.drain_and_stop()

    @pytest.mark.parametrize("traced", [True, False],
                             ids=["traced", "untraced"])
    def test_bottleneck_verdict_survives_restart(self, tmp_path, traced):
        """A traced job's critical-path analysis is persisted beside its
        trace artifacts; an untraced job's metrics carry no verdict and its
        metrics-only estimate is served from its durable metrics.  Both
        stay retrievable after a restart."""
        from repro.obs.analyze import estimate_bottleneck, validate_bottleneck

        svc = durable_service(tmp_path / "state", trace_jobs=traced)
        try:
            job, _ = svc.submit(
                "acme", "synthetic", {"iterations": 24, "spin": 200}
            )
            wait_terminal(job)
            assert job.state is JobState.DONE
            # The trace (and the analysis riding on it) merges in the
            # runner thread just after the terminal transition.
            deadline = time.monotonic() + 10.0
            while job.trace is not None and time.monotonic() < deadline:
                time.sleep(0.02)
            original = svc.job_bottleneck_json(job)
            assert original is not None
            assert validate_bottleneck(original) == []
            timeline = svc.job_timeline_json(job)
            trace = svc.job_trace_json(job)
            assert (timeline is not None) == (trace is not None) == traced
            if not traced:
                assert job.metrics["bottleneck"] is None
                assert original["source"] == "metrics"
                assert original == estimate_bottleneck(job.metrics)
        finally:
            svc.drain_and_stop()

        svc2 = durable_service(tmp_path / "state", trace_jobs=traced)
        try:
            reloaded = svc2.get_job(job.id)
            assert reloaded is not None
            # Nothing in memory for a recovered job: this exercises the
            # artifact-store fallback.
            assert reloaded.bottleneck_data is None
            recovered = svc2.job_bottleneck_json(reloaded)
            assert recovered is not None
            assert validate_bottleneck(recovered) == []
            assert recovered["top"] == original["top"]
            assert recovered["iterations"] == 24
            # the trace artifacts come back from the store, not memory
            assert reloaded.timeline_data is None
            assert svc2.job_timeline_json(reloaded) == timeline
            assert svc2.job_trace_json(reloaded) == trace
            if not traced:
                assert reloaded.metrics["bottleneck"] is None
                assert recovered == original
                assert recovered == estimate_bottleneck(reloaded.metrics)
        finally:
            svc2.drain_and_stop()

    def test_queued_jobs_requeued_in_order_after_restart(
        self, tmp_path, job_gate
    ):
        svc = durable_service(tmp_path / "state", slots=1)
        try:
            # dispatched before the drain, then held open by the gate, so
            # the one slot stays taken however loaded the host is
            running, _ = svc.submit(
                "acme", "synthetic", {"iterations": 64, "spin": 2000}
            )
            deadline = time.monotonic() + 15
            while running.state is JobState.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            # these two never dispatch: one slot, and we drain right away
            q1, _ = svc.submit("acme", "synthetic", {"iterations": 8})
            q2, _ = svc.submit("acme", "synthetic", {"iterations": 8})
            svc.request_drain()  # durable drain keeps queued jobs
            job_gate.set()
            wait_terminal(running)
        finally:
            svc.drain_and_stop()
        assert q1.state is JobState.QUEUED
        assert q2.state is JobState.QUEUED

        svc2 = durable_service(tmp_path / "state", slots=1)
        try:
            assert svc2.recovery.requeued == 2
            r1, r2 = svc2.get_job(q1.id), svc2.get_job(q2.id)
            assert r1.recovered and r2.recovered
            wait_terminal([r1, r2])
            assert r1.state is JobState.DONE and r2.state is JobState.DONE
            # original submission order preserved
            assert r1.started_unix <= r2.started_unix
            tenant = svc2.tenants.get("acme")
            assert tenant.recovered == 2
        finally:
            svc2.drain_and_stop()

    def test_startup_compaction_replays_the_same_jobs_and_keys(self, tmp_path):
        """A journal past 256 records is rewritten as a snapshot at
        startup; replaying the snapshot must give back every job's state
        and every idempotency key the long journal gave."""
        state = tmp_path / "state"
        svc = durable_service(state)
        try:
            jobs = [
                svc.submit(
                    "acme", "synthetic", {"iterations": 8 + n},
                    idempotency_key=f"req-{n}",
                )[0]
                for n in range(3)
            ]
            wait_terminal(jobs)
            outputs = {job.id: svc.job_output(job) for job in jobs}
        finally:
            svc.drain_and_stop()
        # a poison job bounced through 150 retries: 302 more records
        journal, _ = JobJournal.open(str(state / JOURNAL_NAME))
        journal.append("submitted", "j900", {
            "tenant": "acme", "workload": "synthetic",
            "params": {"iterations": 8}, "idempotency_key": "req-poison",
        })
        for attempt in range(1, 151):
            journal.append("leased", "j900", {"attempt": attempt})
            journal.append("retry_scheduled", "j900", {"attempt": attempt})
        journal.append("dead_letter", "j900", {"error": "poison"})
        journal.close()

        def replayed(service):
            keys = {
                key: service.submit(
                    "acme", "synthetic", {"iterations": 8}, idempotency_key=key
                )[0].id
                for key in ("req-0", "req-1", "req-2", "req-poison")
            }
            states = {
                job.id: (job.state, job.error)
                for job in service.jobs.values()
            }
            # a DONE job's result stays loadable from the compacted log
            assert {
                job.id: service.job_output(service.get_job(job.id))
                for job in jobs
            } == outputs
            return states, keys

        expected_states = {job.id: (JobState.DONE, None) for job in jobs}
        expected_states["j900"] = (JobState.DEAD_LETTER, "poison")
        expected_keys = {f"req-{n}": job.id for n, job in enumerate(jobs)}
        expected_keys["req-poison"] = "j900"

        svc2 = durable_service(state)
        try:
            assert svc2.recovery.journal.records > 256
            assert replayed(svc2) == (expected_states, expected_keys)
        finally:
            svc2.drain_and_stop()
        _, records = JobJournal.open(str(state / JOURNAL_NAME))
        assert len(records) < 20  # the snapshot, not the 300-record history

        svc3 = durable_service(state)
        try:
            assert svc3.recovery.journal.records == len(records)
            assert svc3.recovery.errors == 0
            assert replayed(svc3) == (expected_states, expected_keys)
        finally:
            svc3.drain_and_stop()


    def test_recovered_jobs_keep_their_finish_time(self, tmp_path):
        svc = durable_service(tmp_path / "state")
        try:
            job, _ = svc.submit(
                "acme", "synthetic", {"iterations": 24, "spin": 2000}
            )
            wait_terminal(job)
            assert job.state is JobState.DONE
        finally:
            svc.drain_and_stop()
        svc2 = durable_service(tmp_path / "state")
        try:
            reloaded = svc2.get_job(job.id)
            # the completed record's ts, stamped to the millisecond
            assert reloaded.finished_unix == pytest.approx(
                job.finished_unix, abs=1e-3
            )
            assert reloaded.finished_unix > reloaded.submitted_unix
        finally:
            svc2.drain_and_stop()

    def test_finished_jobs_leave_nothing_in_the_artifact_store(
        self, tmp_path
    ):
        """An untraced job's checkpoint log and its directory go when it
        ends: the result lives in the journal."""
        svc = durable_service(tmp_path / "state")
        try:
            jobs = [
                svc.submit("acme", "synthetic", {"iterations": 24})[0]
                for _ in range(3)
            ]
            wait_terminal(jobs)
            assert all(job.state is JobState.DONE for job in jobs)
            assert all(job.metrics["checkpoints_taken"] for job in jobs)
            assert os.listdir(tmp_path / "state" / "artifacts") == []
            assert svc.health_json()[1]["durability"]["artifacts"] == {
                "jobs": 0, "bytes": 0,
            }
        finally:
            svc.drain_and_stop()

    def test_outputs_stay_spilled(self, tmp_path):
        expected, _ = run_sequential(
            build_spec("synthetic", {"iterations": 24})
        )
        svc = durable_service(tmp_path / "state")
        try:
            job, _ = svc.submit("acme", "synthetic", {"iterations": 24})
            wait_terminal(job)
            assert job.state is JobState.DONE
            assert job.output is None and job.output_spilled
            status, body = get_result(svc, job.id)
            assert status == 200
            assert body["output"] == expected
        finally:
            svc.drain_and_stop()

    def test_a_json_lines_state_dir_is_refused(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        legacy = state / LEGACY_JOURNAL_NAME
        legacy.write_bytes(b'{"seq":0,"event":"submitted","job":"j1"}\n')
        with pytest.raises(JournalError, match=re.escape(str(legacy))):
            durable_service(state)
        assert legacy.read_bytes().startswith(b'{"seq":0')
        assert not (state / JOURNAL_NAME).exists()


class TestCompletionRecord:
    def test_completion_fsyncs_twice_and_renames_nothing(
        self, tmp_path, monkeypatch
    ):
        """Submit to terminal: one fsync for ``submitted``, one for the
        completion record that carries metrics and output; no directory
        fsync, and no rename but the one that starts a checkpoint log."""
        fsyncs = {"file": 0, "directory": 0}
        replaced = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            fsyncs[kind] += 1
            real_fsync(fd)

        def replace(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        svc = durable_service(tmp_path / "state", checkpoint_interval=8)
        try:
            monkeypatch.setattr(os, "fsync", fsync)
            monkeypatch.setattr(os, "replace", replace)
            job, _ = svc.submit(
                "acme", "synthetic", {"iterations": 48, "spin": 100}
            )
            wait_terminal(job)
            monkeypatch.undo()
            assert job.state is JobState.DONE
        finally:
            svc.drain_and_stop()
        assert job.metrics["checkpoints_taken"] >= 2
        assert fsyncs == {"file": 2, "directory": 0}
        assert replaced == [ArtifactStore.CHECKPOINT]

    def test_a_job_reads_finished_only_once_its_result_is_on_disk(
        self, tmp_path
    ):
        """Readers outside the service lock take ``finished_unix`` (and
        the state) to mean terminal: neither moves before the completion
        record is appended."""
        svc = durable_service(tmp_path / "state")
        seen = []
        real_append = svc.journal.append

        def append(event, job_id, *args, **kwargs):
            if event == "completed":
                job = svc.jobs[job_id]
                seen.append((job.state, job.finished_unix, job.output_spilled))
            return real_append(event, job_id, *args, **kwargs)

        svc.journal.append = append
        try:
            job, _ = svc.submit("acme", "synthetic", {"iterations": 16})
            wait_terminal(job)
        finally:
            svc.drain_and_stop()
        assert seen == [(JobState.RUNNING, None, False)]
        assert job.state is JobState.DONE and job.output_spilled
        assert job.finished_unix is not None

    @pytest.mark.parametrize("where", ["header", "body", "one-short"])
    def test_a_restart_on_a_cut_completion_record(self, tmp_path, where):
        """The server dies while appending a completion: restarted, the job
        re-runs to the sequential output (or, had the record been whole,
        serves it)."""
        params = {"iterations": 32, "spin": 200}
        expected, _ = run_sequential(build_spec("synthetic", params))
        state = tmp_path / "state"
        svc = durable_service(state)
        try:
            job, _ = svc.submit("acme", "synthetic", params)
            wait_terminal(job)
            assert job.state is JobState.DONE
        finally:
            svc.drain_and_stop()
        log = state / JOURNAL_NAME
        raw = log.read_bytes()
        start, stop = recordlog.scan(raw).records[-1]
        assert json.loads(raw[start:raw.index(b"\n", start)])["event"] \
            == "completed"
        cut = {
            "header": start - recordlog.HEADER.size // 2,
            "body": (start + stop) // 2,
            "one-short": stop - 1,
        }[where]
        for name, size in (("cut", cut), ("whole", len(raw))):
            copy = tmp_path / name
            shutil.copytree(state, copy)
            with open(copy / JOURNAL_NAME, "r+b") as handle:
                handle.truncate(size)
            svc2 = durable_service(copy)
            try:
                rerun = svc2.get_job(job.id)
                assert rerun.recovered == (name == "cut")
                wait_terminal(rerun)
                assert rerun.state is JobState.DONE
                assert svc2.job_output(rerun) == expected
                status, body = get_result(svc2, job.id)
                assert status == 200
                assert body["output"] == expected
            finally:
                svc2.drain_and_stop()


class TestOneFraming:
    def test_the_journal_and_the_checkpoint_log_share_one_framing(self):
        """Neither log frames or scans records itself: no header struct,
        no crc, only :mod:`repro.resilience.recordlog`."""
        import ast

        from repro.resilience import checkpoint
        from repro.service import durability

        for module in (checkpoint, durability):
            tree = ast.parse(open(module.__file__).read())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module)
            names = {
                node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
            } | {
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
            }
            assert not {"struct", "zlib", "binascii"} & imported, module
            assert not {"crc32", "unpack_from", "Struct"} & names, module
            used = {
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "recordlog"
            }
            assert {"frame", "scan"} <= used, (module, used)


class TestCheckpointLogRatchet:
    def test_a_job_renames_its_checkpoint_once_per_log(
        self, tmp_path, monkeypatch
    ):
        """A running job's later checkpoints append to its log: a rename
        only starts the log, at most once per ``LOG_RECORDS`` cuts."""
        from repro.resilience.checkpoint import LOG_RECORDS

        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        svc = durable_service(tmp_path / "state", checkpoint_interval=8)
        try:
            job, decision = svc.submit(
                "acme", "synthetic", {"iterations": 64, "spin": 100}
            )
            assert decision.status == 202
            wait_terminal(job)
        finally:
            svc.drain_and_stop()
        assert job.state is JobState.DONE
        cuts = job.metrics["checkpoints_taken"]
        assert cuts >= 2
        renames = replaced.count(ArtifactStore.CHECKPOINT)
        assert 1 <= renames <= 1 + cuts // LOG_RECORDS


class TestHistoryRecords:
    def test_every_finished_job_appends_one_history_record(self, tmp_path):
        """``serve --history PATH``: each job that ends DONE appends one
        record to the cross-run history, labelled with its job id."""
        from repro.obs.history import load_history

        path = tmp_path / "history.jsonl"
        svc = PipelineService(ServiceConfig(
            pool_workers=2, slots=2, capacity=8, batch_size=4,
            policy=FAST_POLICY, history_path=str(path),
        )).start(serve_http=False)
        try:
            jobs = [
                svc.submit(tenant, "synthetic", {"iterations": 8})[0]
                for tenant in ("acme", "globex")
            ]
            wait_terminal(jobs)
        finally:
            svc.drain_and_stop()
        assert all(job.state is JobState.DONE for job in jobs)
        records = sorted(load_history(str(path)), key=lambda r: r["label"])
        assert [
            (r["label"], r["name"], r["ok"], r["iterations"],
             r["tenant"], r["job_state"])
            for r in records
        ] == [
            (job.id, "service:synthetic", True, 8, job.tenant, "done")
            for job in sorted(jobs, key=lambda j: j.id)
        ]

    def test_history_record_keeps_the_compact_verdict(self, tmp_path):
        """A job's metrics carry no verdict; its history record still does,
        resolved after the job is terminal."""
        from repro.obs.history import load_history

        path = tmp_path / "history.jsonl"
        svc = PipelineService(ServiceConfig(
            pool_workers=1, slots=1, capacity=8, batch_size=4,
            policy=FAST_POLICY, history_path=str(path),
        )).start(serve_http=False)
        try:
            job, _ = svc.submit("acme", "synthetic", {"iterations": 8})
            wait_terminal(job)
        finally:
            svc.drain_and_stop()
        assert job.state is JobState.DONE
        assert job.metrics["bottleneck"] is None
        (record,) = load_history(str(path))
        verdict = svc.job_bottleneck_json(job)
        assert record["bottleneck"]["top"] == verdict["top"]
        assert record["bottleneck"]["source"] == "metrics"


class TestRetryDeadlineDeadLetter:
    def test_transient_retry_resumes_and_poison_dead_letters(self, tmp_path):
        svc = durable_service(tmp_path / "state")
        try:
            ref, _ = svc.submit("acme", "synthetic", {"iterations": 48})
            transient, _ = svc.submit("acme", "synthetic", {
                "iterations": 48, "fail_at": 20, "fail_attempts": 1,
                "retry": {"max_attempts": 3, "backoff_base": 0.05},
            })
            poison, _ = svc.submit("evil", "synthetic", {
                "iterations": 48, "fail_at": 5,
                "retry": {"max_attempts": 3, "backoff_base": 0.05},
            })
            wait_terminal([ref, transient, poison])

            assert ref.state is JobState.DONE
            # transient: failed once, resumed from the checkpointed prefix
            assert transient.state is JobState.DONE
            assert transient.attempts == 2
            assert transient.resumed_from > 0
            assert svc.job_output(transient) == svc.job_output(ref)
            # poison: bounded attempts, then dead-lettered (not retried
            # forever, not reported as a plain failure)
            assert poison.state is JobState.DEAD_LETTER
            assert poison.attempts == 3
            assert svc.tenants.get("evil").dead_letter == 1
            assert svc.tenants.get("acme").retries == 1
        finally:
            svc.drain_and_stop()

    def test_deadline_cancels_running_job(self, tmp_path):
        svc = durable_service(tmp_path / "state")
        try:
            job, _ = svc.submit("slow", "synthetic", {
                "iterations": 20000, "spin": 50000, "deadline_s": 1.0,
            })
            wait_terminal(job, timeout=30.0)
            assert job.state is JobState.CANCELLED
            assert job.deadline_fired
            assert svc.tenants.get("slow").deadline_cancelled == 1
        finally:
            svc.drain_and_stop()

    def test_default_max_attempts_config_applies(self, tmp_path):
        svc = durable_service(
            tmp_path / "state", default_max_attempts=2
        )
        try:
            job, _ = svc.submit("acme", "synthetic", {
                "iterations": 32, "fail_at": 4, "fail_attempts": 1,
            })
            wait_terminal(job)
            assert job.state is JobState.DONE
            assert job.attempts == 2
        finally:
            svc.drain_and_stop()


class TestEagerQuotaRelease:
    """Satellite: cancelling a queued job frees the tenant's queued quota
    immediately — the next submit must not 429 against a ghost entry."""

    def test_cancel_then_resubmit_within_quota(self, tmp_path, job_gate):
        svc = durable_service(
            tmp_path / "state", slots=1, tenant_queued_quota=1,
        )
        try:
            # held open by the gate, so the slot stays taken throughout
            running, _ = svc.submit(
                "acme", "synthetic", {"iterations": 64, "spin": 2000}
            )
            deadline = time.monotonic() + 15
            while running.state is JobState.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            queued, decision = svc.submit(
                "acme", "synthetic", {"iterations": 8}
            )
            assert decision.status == 202
            refused, decision = svc.submit(
                "acme", "synthetic", {"iterations": 8}
            )
            assert refused is None and decision.status == 429
            assert svc.cancel(queued.id) == "cancelled"
            # quota released eagerly: the very next submit is admitted
            replacement, decision = svc.submit(
                "acme", "synthetic", {"iterations": 8}
            )
            assert decision.status == 202, decision.reason
            job_gate.set()
            wait_terminal([running, replacement])
        finally:
            svc.drain_and_stop()


KILL_PARAMS = {"iterations": 400, "spin": 30000}


def _start_server(state_dir, env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--workers", "2", "--slots", "2",
         "--state-dir", str(state_dir), "--checkpoint-interval", "4",
         "--drain-timeout", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"serving on (http://[\d.]+:\d+)", line)
        if match:
            return proc, match.group(1)
    proc.kill()
    raise AssertionError("server banner never appeared")


def _request(method, url, body=None, timeout=15):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read() or b"{}")


class TestKillAndRecover:
    """The acceptance story: SIGKILL the real server mid-job, restart on
    the same ``--state-dir``, and no acknowledged work is lost."""

    def test_sigkill_mid_job_resumes_bit_identical(self, tmp_path):
        expected, _ = run_sequential(build_spec("synthetic", KILL_PARAMS))
        state_dir = tmp_path / "state"
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        inherited = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([os.path.abspath(src), *inherited]),
            PYTHONUNBUFFERED="1",
        )
        plan = server_kill_plan(1234, kills=1)

        proc, base = _start_server(state_dir, env)
        try:
            status, body = _request(
                "POST", f"{base}/jobs",
                {"tenant": "acme", "workload": "synthetic",
                 "params": KILL_PARAMS, "idempotency_key": "kill-1"},
            )
            assert status == 202, body
            job_id = body["id"]
            # wait until at least one checkpoint is durable, then let the
            # seeded plan decide how much longer the server lives
            checkpoint = state_dir / "artifacts" / job_id / "checkpoint.pkl"
            deadline = time.monotonic() + 30
            while not checkpoint.exists():
                assert time.monotonic() < deadline, "no checkpoint appeared"
                assert proc.poll() is None, "server died on its own"
                time.sleep(0.02)
            time.sleep(min(plan.delays[0], 0.5))
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

        proc, base = _start_server(state_dir, env)
        try:
            # idempotent resubmit after the crash: same job, no duplicate
            status, body = _request(
                "POST", f"{base}/jobs",
                {"tenant": "acme", "workload": "synthetic",
                 "params": KILL_PARAMS, "idempotency_key": "kill-1"},
            )
            assert status == 200 and body["id"] == job_id, body
            assert body.get("deduplicated") is True

            deadline = time.monotonic() + 90
            while True:
                status, body = _request("GET", f"{base}/jobs/{job_id}")
                if body["state"] in ("done", "failed", "cancelled",
                                     "dead_letter"):
                    break
                assert time.monotonic() < deadline, body
                time.sleep(0.1)
            assert body["state"] == "done", body
            assert body.get("recovered") is True
            assert body.get("resumed_from", 0) > 0, body

            status, result = _request("GET", f"{base}/jobs/{job_id}/result")
            assert status == 200
            assert result["output"] == expected

            with urllib.request.urlopen(f"{base}/metrics", timeout=15) as r:
                metrics = r.read().decode()
            assert 'repro_service_recovery_total{outcome="resumed"} 1' \
                in metrics, metrics
            assert "repro_service_durable 1" in metrics
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.communicate(timeout=60)
