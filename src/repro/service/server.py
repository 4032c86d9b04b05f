"""The job server: queue, fair dispatch, shared pool, drain, telemetry.

:class:`PipelineService` is the long-lived object behind ``python -m repro
serve``.  One dispatcher thread pulls jobs from the weighted round-robin
scheduler whenever the pool can lease, and each dispatched job runs in its
own runner thread: lease workers, run the engine against the lease, release
the lease, settle the books.  Admission, per-tenant state, and job records
all live under one lock + condition; the pool has its own lock (always
acquired *after* the service lock — that ordering is the no-deadlock rule).

Telemetry is three-layered, matching the rest of the repo:

- ``/metrics`` — service-level Prometheus exposition (per-tenant job
  counters, queue depth, pool occupancy, throttle windows) written through
  the same :class:`~repro.obs.serve.Exposition` as the engine's;
- ``/health`` — per-tenant verdicts: a tenant is ``degraded`` while its
  persistent throttle sits at the serial floor, its last job stormed, or a
  *running* job's watchdog is currently storming/stalled; other tenants
  stay ``ok`` — tenant-scoped degradation, never service-wide panic;
- the watchdog's stall verdict on running jobs doubles as the admission
  controller's load-shedding input (429 + Retry-After while stalled).

Graceful shutdown (``request_drain``): new submissions get 503, queued
jobs are cancelled (kept, when durable — the journal will re-admit them),
running jobs get up to ``drain_timeout`` seconds to finish (then
cooperative cancellation), history is flushed, the pool and HTTP server
stop.  SIGTERM/SIGINT wiring lives in the CLI.

With ``state_dir`` set the service is *durable*
(:mod:`repro.service.durability`): every job transition is journaled
(submissions fsynced before the 202 is acknowledged), a job completes
with one fsynced journal record carrying its metrics and output, engine
checkpoints spill to an on-disk artifact store, and ``start()`` replays
the journal — re-admitting queued jobs in submission order and restarting
interrupted jobs from their committed-prefix checkpoint, bit-identical to
an uninterrupted run.  The durability plane also carries per-job retry
policy (bounded attempts, exponential backoff + deterministic jitter,
dead-letter for poison jobs), per-job deadlines cancelled through the
engine's cooperative path, and idempotency keys making client resubmits
after a crash exactly-once.
"""

from __future__ import annotations

import functools
import logging
import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.exec.engine import ExecutionEngine
from repro.exec.faults import RobustnessPolicy
from repro.obs.clock import now_ns
from repro.obs.events import EventKind
from repro.obs.jobtrace import FlightRecorder, build_timeline, open_job_trace
from repro.obs.live import LiveConfig
from repro.obs.serve import Exposition, HttpServer
from repro.resilience.checkpoint import CheckpointConfig, CheckpointError
from repro.service.api import handle_api
from repro.service.durability import (
    ARTIFACT_DIR,
    ArtifactStore,
    JOURNAL_NAME,
    JobJournal,
    JournalError,
    LEGACY_JOURNAL_NAME,
    RecoveryReport,
    fold_records,
)
from repro.service.jobs import (
    Job,
    JobState,
    TERMINAL_STATES,
    resolve_iterations,
    compile_chaos,
    retry_delay,
)
from repro.service.pool import LeaseRuntime, WorkerPool
from repro.service.queue import (
    Admission,
    AdmissionConfig,
    AdmissionController,
    DEDUPLICATED,
)
from repro.service.scheduler import FairScheduler
from repro.service.tenants import TenantDirectory, TenantState

logger = logging.getLogger(__name__)


def _trace_plane():
    """The modules that seal a traced job: merger, exporter, analyzer.

    They load on the first traced job rather than at server start, and
    never under the service lock: :meth:`PipelineService.submit` loads
    them before taking it, so sealing a trace under the lock (a queued
    job's cancel) finds them loaded.
    """
    from repro.obs import analyze, export, merge

    return analyze, export, merge


#: How often the dispatcher re-checks for runnable work when idle.
_DISPATCH_POLL = 0.05

#: The journal event that ends a job in each terminal state; a tenant's
#: count of such jobs is named after the event.
_TERMINAL_EVENT = {
    JobState.DONE: "completed",
    JobState.FAILED: "failed",
    JobState.CANCELLED: "cancelled",
    JobState.DEAD_LETTER: "dead_letter",
}


@dataclass
class ServiceConfig:
    """Everything ``python -m repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0
    pool_workers: int = 2
    slots: int = 2
    capacity: int = 16
    batch_size: int = 8
    max_queued: int = 16
    tenant_queued_quota: int = 8
    tenant_running_quota: int = 1
    #: Scheduling weight per tenant name; an unnamed tenant weighs 1.
    weights: Dict[str, int] = field(default_factory=dict)
    drain_timeout: float = 10.0
    history_path: Optional[str] = None
    live_interval: float = 0.05
    policy: Optional[RobustnessPolicy] = None
    start_method: Optional[str] = None
    #: Channel wire backend for every slot: "pipe" or "shm" (pool workers
    #: are processes, so the in-process thread transport is rejected).
    transport: str = "pipe"
    #: Durability root (``--state-dir``).  None = the pre-durability
    #: in-memory server: no journal, no artifact spill, no recovery.
    state_dir: Optional[str] = None
    #: Commits between engine checkpoints for durable jobs; the committed
    #: prefix a restart can resume is at most this many commits stale.
    checkpoint_interval: int = 8
    #: Default ``max_attempts`` for jobs that do not set ``params.retry``
    #: (1 = a failure is terminal, the pre-durability behavior).
    default_max_attempts: int = 1
    #: Trace *every* job end to end (``--trace-jobs``).  Off by default —
    #: spools cost a file per role per job; individual jobs opt in with
    #: ``params.trace`` regardless of this flag.
    trace_jobs: bool = False
    #: Post-mortem bundles retained per tenant (LRU by mtime).
    postmortem_keep: int = 8


class PipelineService:
    """The multi-tenant pipeline-as-a-service core.  Its HTTP face is
    :func:`repro.service.api.handle_api`, served by
    :class:`repro.obs.serve.HttpServer` from :meth:`start`."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.policy = cfg.policy or RobustnessPolicy()
        self.pool = WorkerPool(
            workers=cfg.pool_workers,
            slots=cfg.slots,
            capacity=cfg.capacity,
            batch_size=cfg.batch_size,
            policy=self.policy,
            start_method=cfg.start_method,
            transport=cfg.transport,
        )
        self.scheduler = FairScheduler()
        self.admission = AdmissionController(
            AdmissionConfig(
                max_queued=cfg.max_queued,
                tenant_queued_quota=cfg.tenant_queued_quota,
                tenant_running_quota=cfg.tenant_running_quota,
            )
        )
        self.tenants = TenantDirectory(
            pool_workers=cfg.pool_workers,
            capacity=cfg.capacity,
            batch_size=cfg.batch_size,
            weights=cfg.weights,
        )
        #: Workers leased per job: an even split of the pool across the job
        #: slots (so concurrent jobs actually run concurrently); the pool
        #: clamps to what is idle either way.
        self.workers_per_job = max(1, cfg.pool_workers // max(1, cfg.slots))
        self.jobs: Dict[str, Job] = {}
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._job_seq = 0
        self._draining = False
        self._stopping = False
        self._drained = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._runners: List[threading.Thread] = []
        self._api_server = None
        self.started_unix: Optional[float] = None
        # -- durability plane ----------------------------------------------
        self.durable = cfg.state_dir is not None
        self.journal: Optional[JobJournal] = None
        self.artifacts: Optional[ArtifactStore] = None
        self.recovery = RecoveryReport()
        #: ``(tenant, key) -> job_id`` — rebuilt from the journal on start.
        self._idempotency: Dict[Tuple[str, str], str] = {}
        #: Retry waits: ``(eta_unix, job)``; promoted into the scheduler by
        #: the dispatcher once the backoff elapses.
        self._retries: List[Tuple[float, Job]] = []
        #: Recent dispatch instants (monotonic) → observed dispatch rate
        #: feeding Retry-After on 429.
        self._dispatch_times: Deque[float] = deque(maxlen=32)
        # -- tracing plane -------------------------------------------------
        #: Bounded ring of the last 256 job-plane events; snapshotted into
        #: every post-mortem bundle.
        self.flight = FlightRecorder()
        #: Recent journal records (mirrored even when not durable) — the
        #: "journal tail" a post-mortem bundle carries.
        self._journal_tail: Deque[dict] = deque(maxlen=64)

    # -- lifecycle ----------------------------------------------------------------

    def start(self, serve_http: bool = True) -> "PipelineService":
        if self.durable:
            self._open_state()  # replay before anything can dispatch
        self.pool.start()
        self.started_unix = time.time()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="service-dispatch", daemon=True
        )
        self._dispatcher.start()
        if serve_http:
            self._api_server = HttpServer(
                functools.partial(handle_api, self),
                host=self.config.host, port=self.config.port,
                name="repro-service-api",
            ).start()
        return self

    @property
    def port(self) -> Optional[int]:
        return self._api_server.port if self._api_server else None

    def request_drain(self) -> None:
        """Flip into draining: refuse new work, let running jobs finish.
        Queued jobs are cancelled in the in-memory server (they would be
        lost anyway); a durable server *keeps* them — they are safe in the
        journal and the next start re-admits them in order.  Idempotent,
        signal-handler safe."""
        with self._wake:
            if self._draining:
                return
            self._draining = True
            if not self.durable:
                for job in self.scheduler.queued_jobs():
                    self._finish_cancelled_queued(
                        job, reason="server draining"
                    )
            self._wake.notify_all()
        logger.info("drain requested: rejecting new submissions")

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every running job has finished (True) or the drain
        timeout passed (False) — in which case stragglers are cancelled
        cooperatively and given a short grace period."""
        self.request_drain()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.config.drain_timeout
        )
        clean = self._await_idle(deadline)
        if not clean:
            # Not clean — jobs had to be cancelled.  Still wait out the
            # cancellations so teardown never races running leases.
            with self._wake:
                for job in self._running_jobs():
                    logger.warning(
                        "drain timeout: cancelling running job %s", job.id
                    )
                    job.cancel_requested = True
                    if job.lease is not None:
                        job.lease.cancel()
            self._await_idle(time.monotonic() + 5.0)
        return clean

    def _await_idle(self, deadline: float) -> bool:
        with self._wake:
            while self._running_jobs():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wake.wait(min(remaining, 0.1))
            return True

    def stop(self) -> None:
        """Stop everything (after a drain for graceful paths).  Idempotent."""
        with self._wake:
            if self._stopping:
                return
            self._stopping = True
            self._wake.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        for runner in list(self._runners):
            runner.join(timeout=5.0)
        if self._api_server is not None:
            self._api_server.stop()
            self._api_server = None
        self.pool.shutdown()
        if self.journal is not None:
            self.journal.close()
        self._drained.set()

    def drain_and_stop(self, timeout: Optional[float] = None) -> bool:
        clean = self.drain(timeout)
        self.stop()
        return clean

    # -- durability: open + recover ---------------------------------------------

    def _open_state(self) -> None:
        """Open the journal + artifact store and replay prior state.

        Runs before the dispatcher exists, so no lock games: queued and
        interrupted jobs land back in the scheduler in their original
        submission order, interrupted jobs carrying a checkpoint resume
        from their committed prefix at next dispatch.
        """
        state_dir = self.config.state_dir
        legacy = os.path.join(state_dir, LEGACY_JOURNAL_NAME)
        if os.path.exists(legacy):
            raise JournalError(f"{legacy}: a JSON-lines journal is not read")
        os.makedirs(state_dir, exist_ok=True)
        self.artifacts = ArtifactStore(os.path.join(state_dir, ARTIFACT_DIR))
        self.journal, records = JobJournal.open(
            os.path.join(state_dir, JOURNAL_NAME)
        )
        self.recovery.journal = self.journal.stats
        replayed = fold_records(records)
        for entry in replayed:
            try:
                self._recover_one(entry)
            except Exception:
                self.recovery.errors += 1
                logger.exception(
                    "recovery: could not rebuild job %s", entry.job_id
                )
        if self.recovery.recovered or self.recovery.terminal:
            logger.info(
                "recovery: %d requeued, %d resumable, %d restarted, "
                "%d terminal reloaded, %d errors",
                self.recovery.requeued, self.recovery.resumed,
                self.recovery.restarted, self.recovery.terminal,
                self.recovery.errors,
            )
        # Compact once the journal holds more records than a snapshot of
        # the live jobs would (at least 256).
        if self.journal.stats.records > max(256, 8 * max(1, len(self.jobs))):
            self._compact_journal()

    def _recover_one(self, entry) -> None:
        """Rebuild one journaled job into live state."""
        payload = entry.payload
        tenant_name = payload["tenant"]
        workload = payload["workload"]
        params = payload.get("params") or {}
        iterations = resolve_iterations(workload, params)
        job = Job(
            job_id=entry.job_id,
            tenant=tenant_name,
            workload=workload,
            params=params,
            iterations=iterations,
            fault_plan=compile_chaos(params.get("chaos"), iterations),
            idempotency_key=payload.get("idempotency_key"),
            submitted_unix=payload.get("submitted_unix"),
        )
        self._apply_default_retry(job)
        job.attempts = entry.attempts
        self._job_seq = max(self._job_seq, self._parse_seq(entry.job_id))
        tenant = self.tenants.get_or_create(tenant_name)
        tenant.submitted += 1
        if job.idempotency_key:
            self._idempotency[(tenant_name, job.idempotency_key)] = job.id
        self.jobs[job.id] = job
        if entry.terminal:
            self._recover_terminal(job, tenant, entry)
            return
        # Queued or interrupted: both go back into the scheduler, in the
        # order this method is called (= original submission order).
        job.recovered = True
        tenant.recovered += 1
        interrupted = entry.interrupted
        if job.deadline_exceeded:
            self._journal(
                "cancelled", job.id,
                {"reason": "deadline exceeded during downtime"}, fsync=True,
            )
            job.deadline_fired = True
            self._finish_cancelled_queued(
                job, reason="deadline exceeded during downtime",
                journal=False,
            )
            tenant.deadline_cancelled += 1
            return
        if interrupted:
            if self.artifacts.has_checkpoint(job.id):
                self.recovery.resumed += 1
            else:
                self.recovery.restarted += 1
        else:
            self.recovery.requeued += 1
        self._journal(
            "queued", job.id,
            {"recovered": True, "interrupted": interrupted,
             "attempt": job.attempts},
        )
        self._maybe_open_trace(job)
        self.flight.note(
            "recovered", job.id, tenant_name, interrupted=interrupted
        )
        self.scheduler.enqueue(job)

    def _recover_terminal(self, job: Job, tenant: TenantState, entry) -> None:
        """Reload a finished job's record so status/result survive restarts."""
        event = entry.last_event
        job.state = next(
            state for state, name in _TERMINAL_EVENT.items() if name == event
        )
        job.error = entry.error
        job.finished_unix = entry.finished_unix
        job.resumed_from = entry.resumed_from or 0
        if job.state is JobState.DONE:
            # The completed record carried the output; the log serves it.
            job.output_spilled = True
            job.metrics = entry.metrics
        setattr(tenant, event, getattr(tenant, event) + 1)
        self.recovery.terminal += 1

    def _compact_journal(self) -> None:
        """Rewrite the journal as a snapshot of current job state."""
        snapshot: List[tuple] = []
        for job in self.jobs.values():
            snapshot.append(("submitted", job.id, self._journal_payload(job)))
            if job.state in TERMINAL_STATES:
                data = {}
                if job.error:
                    data["error"] = job.error
                if job.resumed_from:
                    data["resumed_from"] = job.resumed_from
                if job.metrics is not None:
                    data["metrics"] = job.metrics
                snapshot.append((
                    _TERMINAL_EVENT[job.state], job.id, data,
                    job.finished_unix,
                ))
            elif job.state is JobState.RUNNING or job.attempts:
                snapshot.append(
                    ("queued", job.id,
                     {"recovered": True, "attempt": job.attempts})
                )
        self.journal.compact(snapshot)
        logger.info(
            "journal compacted to %d record(s)", len(snapshot)
        )

    @staticmethod
    def _parse_seq(job_id: str) -> int:
        try:
            return int(job_id.lstrip("j"))
        except ValueError:
            return 0

    @staticmethod
    def _journal_payload(job: Job) -> dict:
        payload = {
            "tenant": job.tenant,
            "workload": job.workload,
            "params": job.params,
            "submitted_unix": job.submitted_unix,
        }
        if job.idempotency_key:
            payload["idempotency_key"] = job.idempotency_key
        return payload

    def _apply_default_retry(self, job: Job) -> None:
        if "retry" not in job.params and self.config.default_max_attempts > 1:
            job.max_attempts = self.config.default_max_attempts

    def _journal(
        self, event: str, job_id: str, data: dict, fsync: bool = False,
        output: Optional[bytes] = None,
    ) -> float:
        """Append one journal record (when durable) and mirror it, less
        metrics and output, into the in-memory tail that post-mortem
        bundles capture — so even the in-memory server has a transition
        history to bundle.  Returns the record's timestamp."""
        now = time.time()
        record = {"event": event, "job": job_id, "unix_s": round(now, 3)}
        if data:
            record["data"] = {k: v for k, v in data.items() if k != "metrics"}
        self._journal_tail.append(record)
        if self.journal is not None:
            self.journal.append(
                event, job_id, data, fsync=fsync, output=output, ts=now
            )
        return now

    # -- tracing plane ------------------------------------------------------------

    #: ADMIT span ``detail`` codes — how the traced job ended.
    _ADMIT_DETAIL = {
        JobState.DONE: 0,
        JobState.FAILED: 1,
        JobState.CANCELLED: 2,
        JobState.DEAD_LETTER: 3,
    }

    def _trace_requested(self, params: dict) -> bool:
        return bool(params.get("trace", False)) or self.config.trace_jobs

    def _maybe_open_trace(self, job: Job) -> None:
        """Open the job's service spool at admission.  Tracing is strictly
        best-effort: any failure logs and leaves the job untraced rather
        than failing the submission."""
        if not self._trace_requested(job.params):
            return
        _trace_plane()  # what seals the trace, perhaps under the lock
        try:
            if self.artifacts is not None:
                spool_dir = self.artifacts.trace_spool_dir(job.id)
                ephemeral = False
            else:
                spool_dir = tempfile.mkdtemp(prefix=f"repro-{job.id}-trace-")
                ephemeral = True
            trace = open_job_trace(job.id, job.tenant, spool_dir)
            if not trace.enabled:
                return
            job.trace = trace
            job.trace_dir = spool_dir
            job.trace_ephemeral = ephemeral
            # ADMIT is the job-root span (admission -> terminal); each
            # attempt's QUEUE_WAIT nests inside it, engine phases inside
            # the lease window.
            trace.begin("admit")
            trace.begin("queue_wait")
        except Exception:
            logger.exception("job %s: trace setup failed", job.id)

    def _finalize_trace(self, job: Job) -> None:
        """Close the job's service spool and merge every spool in its
        trace directory — service stages stitched onto engine phases —
        into the Chrome trace + compact timeline artifacts."""
        trace = job.trace
        if trace is None:
            return
        try:
            trace.end(
                "admit", EventKind.ADMIT, arg=max(1, job.attempts),
                detail=self._ADMIT_DETAIL.get(job.state, 0),
            )
            trace.close()
            analyze, export, merge = _trace_plane()
            merged = merge.merge_spool_dir(job.trace_dir)
            chrome = export.to_chrome_trace(merged)
            timeline = build_timeline(
                merged, job_id=job.id, tenant=job.tenant,
                attempts=job.attempts,
            )
            job.timeline_data = timeline
            try:
                analysis = analyze.analyze_trace(merged, metrics=job.metrics)
                job.bottleneck_data = analysis.to_json()
            except Exception:
                # Diagnosis is best-effort; the trace itself still ships.
                logger.exception("job %s: bottleneck analysis failed", job.id)
            if self.artifacts is not None:
                self.artifacts.put_trace(job.id, chrome, timeline)
                if job.bottleneck_data is not None:
                    self.artifacts.put_bottleneck(job.id, job.bottleneck_data)
                # The artifact store owns the (large) Chrome trace now;
                # only the compact timeline stays resident.
                job.trace_data = None
            else:
                job.trace_data = chrome
        except Exception:
            logger.exception("job %s: trace finalize failed", job.id)
        finally:
            # Spool dir first (the merge already consumed it), then clear
            # ``job.trace`` last: readers treat a live ``job.trace`` as
            # "merge in flight" (the API answers 409) until artifacts —
            # and the cleanup — are ready.
            if job.trace_ephemeral and job.trace_dir:
                shutil.rmtree(job.trace_dir, ignore_errors=True)
            job.trace = None

    def _snapshot_postmortem(
        self, job: Job, tenant: TenantState, reason: str
    ) -> None:
        """Bundle the crash context — flight-recorder ring, journal tail,
        job + tenant snapshots, throttle state, pool occupancy, the job's
        timeline — and persist it per tenant (LRU-capped)."""
        throttle = tenant.throttle
        with self._lock:
            bundle = {
                "reason": reason,
                "captured_unix": round(time.time(), 3),
                "job": job.to_json(full=True),
                "tenant": tenant.to_json(),
                "throttle": {
                    "window": throttle.window,
                    "max_window": throttle.max_window,
                    "shrinks": throttle.shrinks,
                    "grows": throttle.grows,
                    "min_window_seen": throttle.min_window_seen,
                    "at_floor": throttle.at_floor,
                },
                "flight_recorder": self.flight.snapshot(),
                "journal_tail": list(self._journal_tail),
                "queue_depth": self.scheduler.depth(),
                "pool": self.pool.stats(),
                "timeline": job.timeline_data,
                "bottleneck": job.bottleneck_data,
            }
            tenant.postmortems += 1
        if self.artifacts is None:
            job.postmortem_data = bundle
            self.flight.note("postmortem", job.id, tenant.name, reason=reason)
            return
        try:
            name = f"{job.id}-a{max(1, job.attempts)}-" + reason.replace(" ", "-")
            job.postmortem_path = self.artifacts.put_postmortem(
                tenant.name, name, bundle, keep=self.config.postmortem_keep
            )
            self.flight.note("postmortem", job.id, tenant.name, reason=reason)
        except Exception:
            logger.exception("job %s: post-mortem snapshot failed", job.id)

    def job_trace_json(self, job: Job) -> Optional[dict]:
        """The job's merged Chrome trace (None until finalized)."""
        if job.trace_data is not None:
            return job.trace_data
        if self.artifacts is not None:
            return self.artifacts.load_trace(job.id)
        return None

    def job_timeline_json(self, job: Job) -> Optional[dict]:
        """The job's compact timeline (None until finalized)."""
        if job.timeline_data is not None:
            return job.timeline_data
        if self.artifacts is not None:
            return self.artifacts.load_timeline(job.id)
        return None

    def job_bottleneck_json(self, job: Job) -> Optional[dict]:
        """The job's bottleneck verdict: a traced job's critical-path
        analysis (persisted beside its trace, so it survives restarts);
        for any other job the metrics-only estimate over its durable
        metrics, computed on first request and cached.  None while the
        job has no metrics (not finished, or failed)."""
        if job.bottleneck_data is not None:
            return job.bottleneck_data
        if self.artifacts is not None:
            analysis = self.artifacts.load_bottleneck(job.id)
            if analysis is not None:
                return analysis
        # A recovered job's metrics came from its completed record.
        if not job.metrics or not job.metrics.get("wall_seconds"):
            return None
        try:
            from repro.obs.analyze import estimate_bottleneck

            job.bottleneck_data = estimate_bottleneck(job.metrics)
        except Exception:
            # Diagnosis must never turn a finished job into a 500.
            logger.exception("job %s: bottleneck estimate failed", job.id)
        return job.bottleneck_data

    def job_postmortem_json(self, job: Job) -> Optional[dict]:
        """The job's post-mortem bundle, if one was snapshotted."""
        if job.postmortem_data is not None:
            return job.postmortem_data
        if job.postmortem_path and self.artifacts is not None:
            return self.artifacts.load_postmortem(job.postmortem_path)
        return None

    # -- submissions ----------------------------------------------------------------

    def submit(
        self,
        tenant_name: str,
        workload: str,
        params: Optional[dict] = None,
        idempotency_key: Optional[str] = None,
    ) -> Tuple[Optional[Job], Admission]:
        """Admit one job (or refuse it).  Raises ``ValueError`` on a
        malformed request — the API layer maps that to 400.

        ``idempotency_key`` makes the submission exactly-once per tenant:
        a resubmit with the same key (e.g. a client retrying after a
        server crash) returns the existing job instead of a duplicate —
        the key→job mapping survives restarts via the journal.
        """
        params = params or {}
        if not tenant_name or not isinstance(tenant_name, str):
            raise ValueError("tenant must be a non-empty string")
        if idempotency_key is not None and (
            not isinstance(idempotency_key, str)
            or not idempotency_key or len(idempotency_key) > 256
        ):
            raise ValueError(
                "idempotency_key must be a non-empty string (<= 256 chars)"
            )
        iterations = resolve_iterations(workload, params)
        fault_plan = compile_chaos(params.get("chaos"), iterations)
        if self._trace_requested(params):
            _trace_plane()  # loaded here, so never under the lock below
        with self._wake:
            if idempotency_key is not None:
                existing_id = self._idempotency.get(
                    (tenant_name, idempotency_key)
                )
                if existing_id is not None:
                    return self.jobs[existing_id], DEDUPLICATED
            tenant = self.tenants.get_or_create(tenant_name)
            decision = self.admission.admit(
                depth=self.scheduler.depth(),
                tenant_queued=self.scheduler.depth(tenant_name),
                tenant_running=tenant.running,
                draining=self._draining or self._stopping,
                shedding=self._shedding(),
                dispatch_rate=self._dispatch_rate(),
            )
            if not decision.accepted:
                tenant.rejected += 1
                self.flight.note(
                    "rejected", tenant=tenant_name,
                    status=decision.status, reason=decision.reason,
                )
                return None, decision
            self._job_seq += 1
            job = Job(
                job_id=f"j{self._job_seq:05d}",
                tenant=tenant_name,
                workload=workload,
                params=params,
                iterations=iterations,
                fault_plan=fault_plan,
                idempotency_key=idempotency_key,
            )
            self._apply_default_retry(job)
            # WAL: the submission is on stable storage before the
            # client sees its 202 — a crash one instruction after the
            # acknowledgment loses nothing.
            self._journal(
                "submitted", job.id, self._journal_payload(job), fsync=True
            )
            self.jobs[job.id] = job
            if idempotency_key is not None:
                self._idempotency[(tenant_name, idempotency_key)] = job.id
            tenant.submitted += 1
            self._maybe_open_trace(job)
            self.flight.note(
                "admitted", job.id, tenant_name,
                workload=workload, traced=job.trace is not None,
            )
            self.scheduler.enqueue(job)
            self._wake.notify_all()
            return job, decision

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job: queued jobs die immediately, running jobs get the
        cooperative flag (the committer observes it at its next poll).
        Returns the resulting state string, or None for an unknown id."""
        with self._wake:
            job = self.jobs.get(job_id)
            if job is None:
                return None
            if job.state is JobState.QUEUED:
                self._finish_cancelled_queued(job, reason="cancelled by client")
                self._wake.notify_all()
                return job.state.value
            if job.state is JobState.RUNNING:
                job.cancel_requested = True
                if job.lease is not None:
                    job.lease.cancel()
                return "cancelling"
            return job.state.value

    def get_job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self.jobs.get(job_id)

    def list_jobs(self, tenant: Optional[str] = None) -> List[Job]:
        with self._lock:
            return [
                job for job in self.jobs.values()
                if tenant is None or job.tenant == tenant
            ]

    def job_output(self, job: Job):
        """A finished job's output, read back from the journal if it was
        spilled out of memory."""
        if job.output_spilled and self.journal is not None:
            try:
                return self.journal.load_output(job.id)
            except Exception:
                logger.exception("job %s: journal output read failed", job.id)
                return None
        return job.output

    # -- dispatch ----------------------------------------------------------------

    def _eligible(self, tenant_name: str) -> bool:
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            return False
        return tenant.running < self.config.tenant_running_quota

    def _weight_of(self, tenant_name: str) -> int:
        tenant = self.tenants.get(tenant_name)
        return tenant.weight if tenant is not None else 1

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                if self._stopping:
                    return
                self._tick()
                job = None
                pick_t0 = now_ns()
                if not self._draining and self.pool.can_lease():
                    job = self.scheduler.take(self._eligible, self._weight_of)
                pick_t1 = now_ns()
                if job is None:
                    self._wake.wait(_DISPATCH_POLL)
                    continue
                depth = self.scheduler.depth()
            lease_t0 = now_ns()
            lease = self.pool.try_lease(self.workers_per_job)
            with self._wake:
                if lease is None:
                    # Lost the race for the last slot; retry shortly.
                    self.scheduler.push_front(job)
                    self._wake.wait(_DISPATCH_POLL)
                    continue
                if job.cancel_requested or job.state is not JobState.QUEUED:
                    self.pool.release(lease)
                    continue
                tenant = self.tenants.get_or_create(job.tenant)
                job.state = JobState.RUNNING
                job.started_unix = time.time()
                job.lease = lease
                job.attempts += 1
                tenant.running += 1
                tenant.record_sched_pick((pick_t1 - pick_t0) / 1e9)
                wait_s = job.queue_wait_s or 0.0
                if job.trace is not None:
                    job.trace.span(
                        EventKind.SCHED_PICK, pick_t0, pick_t1,
                        arg=job.attempts, arg2=depth,
                    )
                    # QUEUE_WAIT ends exactly where SCHED_PICK begins —
                    # contiguous stages, no overlap on the timeline.
                    span_s = job.trace.end(
                        "queue_wait", EventKind.QUEUE_WAIT,
                        arg=job.attempts, at_ns=pick_t0,
                    )
                    if span_s > 0.0:
                        # The same measurement feeds the trace span and
                        # the /metrics histogram, so the two agree.
                        wait_s = span_s
                tenant.record_queue_wait(wait_s)
                self._dispatch_times.append(time.monotonic())
                self._journal(
                    "leased", job.id,
                    {"workers": list(lease.worker_ids),
                     "attempt": job.attempts},
                )
                if job.trace is not None:
                    job.trace.span(
                        EventKind.LEASE_DISPATCH, lease_t0, now_ns(),
                        arg=job.attempts, arg2=len(lease.worker_ids),
                    )
                    job.trace.flush()
                self.flight.note(
                    "leased", job.id, job.tenant,
                    attempt=job.attempts, workers=list(lease.worker_ids),
                )
                runner = threading.Thread(
                    target=self._run_job, args=(job, lease),
                    name=f"service-{job.id}", daemon=True,
                )
                self._runners.append(runner)
                self._runners = [t for t in self._runners if t.is_alive()]
            runner.start()

    def _tick(self) -> None:
        """Dispatcher housekeeping, under the lock: promote retries whose
        backoff elapsed, enforce deadlines on queued and running jobs."""
        now = time.time()
        if self._retries:
            due = [(eta, job) for eta, job in self._retries if eta <= now]
            if due:
                self._retries = [
                    entry for entry in self._retries if entry[0] > now
                ]
                for _, job in due:
                    if job.state is JobState.QUEUED and not job.cancel_requested:
                        if job.trace is not None:
                            job.trace.end(
                                "retry_backoff", EventKind.RETRY_BACKOFF,
                                arg=job.attempts,
                            )
                            job.trace.begin("queue_wait")
                        self.scheduler.enqueue(job)
        for job in list(self.jobs.values()):
            if job.deadline_unix is None or now <= job.deadline_unix:
                continue
            if job.state is JobState.QUEUED and not job.cancel_requested:
                job.deadline_fired = True
                self._finish_cancelled_queued(job, reason="deadline exceeded")
                self.tenants.get_or_create(job.tenant).deadline_cancelled += 1
            elif job.state is JobState.RUNNING and not job.cancel_requested:
                # Cooperative: the committer observes the cancel at its
                # next poll and the job finishes CANCELLED, not killed.
                logger.info("job %s passed its deadline; cancelling", job.id)
                job.deadline_fired = True
                job.cancel_requested = True
                if job.lease is not None:
                    job.lease.cancel()

    def _dispatch_rate(self) -> Optional[float]:
        """Observed dispatches/second over the recent window (None until
        at least two dispatches landed within the last 30 s)."""
        now = time.monotonic()
        recent = [t for t in self._dispatch_times if now - t <= 30.0]
        if len(recent) < 2:
            return None
        span = now - recent[0]
        if span <= 0.0:
            return None
        return len(recent) / span

    def _run_engine(
        self, job: Job, lease: LeaseRuntime, allow_resume: bool = True
    ):
        """One engine attempt for a job.  Durable servers checkpoint the
        committed prefix into the job's artifact directory and resume from
        an existing checkpoint (a prior attempt's, or a prior *server's*)."""
        checkpoints = None
        resume_from = None
        if self.durable:
            path = self.artifacts.checkpoint_path(job.id)
            checkpoints = CheckpointConfig(
                interval=self.config.checkpoint_interval, path=path, keep=1
            )
            if allow_resume and os.path.exists(path):
                resume_from = path
        trace_config = None
        if job.trace is not None and job.trace.enabled:
            trace_config = job.trace.context.config
        # Two consumers: the engine opens the in-server producer/committer
        # spools from ``trace=``; the lease carries the config across the
        # process boundary so pool workers spool into the same directory.
        lease.trace_config = trace_config
        engine = ExecutionEngine(
            workers=max(1, len(lease.worker_ids)),
            capacity=self.config.capacity,
            batch_size=self.config.batch_size,
            policy=self.policy,
            fault_plan=job.fault_plan,
            live=LiveConfig(interval=self.config.live_interval),
            checkpoints=checkpoints,
            trace=trace_config,
            runtime=lease,
        )
        job.engine = engine
        return engine.run(job.build_spec(), resume_from=resume_from)

    def _run_job(self, job: Job, lease: LeaseRuntime) -> None:
        tenant = self.tenants.get_or_create(job.tenant)
        lease.job_throttle = tenant.throttle
        error: Optional[str] = None
        result = None
        output = None  # the pickled output a durable completion journals
        try:
            try:
                result = self._run_engine(job, lease)
            except CheckpointError as exc:
                # A stale or incompatible checkpoint must cost one fresh
                # run, never wedge the job.
                logger.warning(
                    "job %s: checkpoint unusable (%s); running fresh",
                    job.id, exc,
                )
                self.artifacts.discard_checkpoint(job.id)
                result = self._run_engine(job, lease, allow_resume=False)
            if self.durable and not result.metrics.cancelled:
                persist_t0 = now_ns()
                output = pickle.dumps(
                    result.output, protocol=pickle.HIGHEST_PROTOCOL
                )
        except BaseException as exc:  # a job must never kill the server
            logger.exception("job %s failed", job.id)
            error = repr(exc)
        finally:
            self.pool.release(lease)
        metrics_json = None
        if error is None:
            # The verdict is served per job by ``job_bottleneck_json``, off
            # the completion path: the metrics document carries ``null``.
            result.metrics.bottleneck = None
            metrics_json = result.metrics.to_json()
        with self._wake:
            # ``finished_unix`` is set last, with the terminal record's
            # ``ts``: readers outside the lock take it to mean "terminal".
            job.lease = None
            job.engine = None
            tenant.running -= 1
            was_degraded = tenant.degraded
            if error is not None:
                self._finish_failed(job, tenant, error)
            else:
                metrics = result.metrics
                job.metrics = metrics_json
                job.resumed_from = getattr(metrics, "resumed_from", 0) or 0
                if metrics.cancelled or job.cancel_requested:
                    job.state = JobState.CANCELLED
                    tenant.cancelled += 1
                    if job.deadline_fired:
                        tenant.deadline_cancelled += 1
                    job.finished_unix = self._journal(
                        "cancelled", job.id,
                        {"reason": "deadline exceeded"
                         if job.deadline_fired else "cancelled by client"},
                        fsync=True,
                    )
                    if self.artifacts is not None:
                        self.artifacts.discard_checkpoint(job.id)
                else:
                    # One append, one fsync: the result is on disk before
                    # the job reads DONE, and the log, not memory, keeps it.
                    finished = self._journal(
                        "completed", job.id,
                        {"attempt": job.attempts,
                         "resumed_from": job.resumed_from,
                         "metrics": metrics_json},
                        fsync=True, output=output,
                    )
                    if output is None:
                        job.output = result.output
                    else:
                        job.output_spilled = True
                        if job.trace is not None:
                            job.trace.span(
                                EventKind.ARTIFACT_PERSIST, persist_t0,
                                now_ns(), arg=job.attempts,
                            )
                    job.state = JobState.DONE
                    job.finished_unix = finished
                    tenant.completed += 1
                    if self.artifacts is not None:
                        self.artifacts.discard_checkpoint(job.id)
                tenant.committed += metrics.commits
                tenant.conflicts += metrics.conflicts
                tenant.serial_reexec += metrics.serial_reexecutions
                watchdog = metrics.watchdog or {}
                # A storm is either what the live watchdog flagged or a
                # job whose end-to-end misspeculation rate crossed the
                # storm threshold (short jobs can finish between watchdog
                # samples — the rate check is sampling-independent).
                misspec = metrics.conflicts + metrics.serial_reexecutions
                storm_rate = (
                    metrics.commits > 0
                    and misspec >= max(4, metrics.commits // 3)
                )
                stormed = watchdog.get("storms", 0) > 0 or storm_rate
                if stormed:
                    tenant.storms += 1
                # Tenant-scoped degradation: sticky while storms continue
                # or the throttle is pinned serial; cleared by a clean job.
                tenant.degraded = stormed or tenant.throttle.at_floor
            self._wake.notify_all()
        # -- trace + post-mortem, outside the lock (merging spools and
        # writing bundles must never block admission or dispatch) --------
        terminal = job.state in TERMINAL_STATES
        if terminal:
            self._finalize_trace(job)
            self.flight.note(
                "finished", job.id, job.tenant,
                state=job.state.value, attempt=job.attempts,
                error=(job.error or "")[:200],
            )
        if job.state in (JobState.FAILED, JobState.DEAD_LETTER):
            self._snapshot_postmortem(job, tenant, reason=job.state.value)
        elif tenant.degraded and not was_degraded:
            self._snapshot_postmortem(job, tenant, reason="tenant degraded")
        if error is None and self.config.history_path:
            self._append_history(job, result)

    def _finish_failed(
        self, job: Job, tenant: TenantState, error: str
    ) -> None:
        """Route a failed attempt: retry (bounded, backed off), dead-letter
        (retries exhausted), or plain FAILED (no retry policy).  Caller
        holds the lock."""
        job.error = error
        retryable = (
            not job.cancel_requested
            and not job.deadline_exceeded
            and job.attempts < job.max_attempts
        )
        if retryable:
            delay = retry_delay(job.id, job.attempts, job.retry_backoff)
            job.state = JobState.QUEUED
            job.started_unix = None
            job.finished_unix = None
            tenant.retries += 1
            self._journal(
                "retry_scheduled", job.id,
                {"attempt": job.attempts, "delay_s": round(delay, 3),
                 "error": error},
            )
            if job.trace is not None:
                job.trace.begin("retry_backoff")
            self.flight.note(
                "retry_scheduled", job.id, tenant.name,
                attempt=job.attempts, delay_s=round(delay, 3),
                error=error[:200],
            )
            # The checkpoint (if any) is deliberately kept: the retry
            # resumes from the committed prefix, it does not redo work.
            self._retries.append((time.time() + delay, job))
            logger.info(
                "job %s: attempt %d/%d failed; retrying in %.2fs",
                job.id, job.attempts, job.max_attempts, delay,
            )
            return
        if job.max_attempts > 1:
            job.state = JobState.DEAD_LETTER
            tenant.dead_letter += 1
            job.finished_unix = self._journal(
                "dead_letter", job.id,
                {"attempt": job.attempts, "error": error}, fsync=True,
            )
            logger.warning(
                "job %s: poison — %d attempt(s) exhausted, dead-lettered",
                job.id, job.attempts,
            )
        else:
            job.state = JobState.FAILED
            tenant.failed += 1
            job.finished_unix = self._journal(
                "failed", job.id, {"error": error}, fsync=True
            )
        if self.artifacts is not None:
            self.artifacts.discard_checkpoint(job.id)

    def _finish_cancelled_queued(
        self, job: Job, reason: str, journal: bool = True
    ) -> None:
        """Terminal bookkeeping for a job cancelled before dispatch.
        Caller holds the lock.  The job is removed from the scheduler
        *eagerly* so its tenant's queued quota frees immediately — a
        tenant at quota can resubmit the moment its cancel returns."""
        self.scheduler.remove(job)
        self._retries = [(eta, j) for eta, j in self._retries if j is not job]
        job.state = JobState.CANCELLED
        job.finished_unix = time.time()
        job.error = reason
        tenant = self.tenants.get_or_create(job.tenant)
        tenant.cancelled += 1
        if journal:
            job.finished_unix = self._journal(
                "cancelled", job.id, {"reason": reason}, fsync=True
            )
        if self.artifacts is not None:
            self.artifacts.discard_checkpoint(job.id)
        self.flight.note("cancelled", job.id, job.tenant, reason=reason)
        # Cancelled-while-queued is terminal: seal the (service-only)
        # trace here — a handful of spans, cheap under the lock.
        self._finalize_trace(job)

    def _running_jobs(self) -> List[Job]:
        return [
            job for job in self.jobs.values()
            if job.state is JobState.RUNNING
        ]

    def _shedding(self) -> bool:
        """Load-shedding input: is any running job's watchdog stalled?"""
        for job in self._running_jobs():
            engine = job.engine
            monitor = engine.live_monitor if engine is not None else None
            if monitor is not None and monitor.watchdog.stalled:
                return True
        return False

    def _append_history(self, job: Job, result) -> None:
        from repro.obs.history import append_record, make_record

        try:
            # The record keeps its compact verdict; resolved here, after
            # the job is terminal, rather than on the completion path.
            result.metrics.bottleneck = self.job_bottleneck_json(job)
            record = make_record(
                name=f"service:{job.workload}",
                metrics=result.metrics,
                label=job.id,
                ok=job.state is JobState.DONE,
                watchdog=result.metrics.watchdog,
                extra={"tenant": job.tenant, "job_state": job.state.value},
            )
            append_record(self.config.history_path, record)
        except Exception:
            logger.exception("history append failed for job %s", job.id)

    # -- telemetry ----------------------------------------------------------------

    def health_json(self) -> Tuple[int, dict]:
        """``(http_status, body)`` for ``/health``: per-tenant verdicts,
        degradation scoped to the tenant that earned it."""
        with self._lock:
            live_degraded = self._live_degraded_tenants()
            tenants = {}
            any_degraded = False
            for name, tenant in sorted(self.tenants.all().items()):
                degraded = tenant.degraded or name in live_degraded
                any_degraded = any_degraded or degraded
                tenants[name] = {
                    "status": "degraded" if degraded else "ok",
                    "running": tenant.running,
                    "queued": self.scheduler.depth(name),
                    "window": tenant.throttle.window,
                    "storms": tenant.storms,
                }
            pool = self.pool.stats()
            if self._draining or self._stopping:
                status = "draining"
            elif pool["alive"] == 0:
                status = "failed"  # service-wide: nothing can run
            elif self._shedding():
                status = "shedding"
            else:
                # Tenant degradation is tenant-scoped by design: the
                # service stays "ok" so healthy tenants keep submitting.
                status = "ok"
            body = {
                "status": status,
                "draining": self._draining,
                "queue_depth": self.scheduler.depth(),
                "running": len(self._running_jobs()),
                "tenants": tenants,
                "pool": pool,
            }
            durability = {"enabled": self.durable}
            if self.durable:
                durability.update(
                    {
                        "state_dir": self.config.state_dir,
                        "recovery": self.recovery.to_json(),
                        "journal_appended": (
                            self.journal.appended if self.journal else 0
                        ),
                        "retries_pending": len(self._retries),
                        "artifacts": (
                            self.artifacts.stats() if self.artifacts else {}
                        ),
                    }
                )
            body["durability"] = durability
            http = 200 if status in ("ok", "shedding") else 503
            return http, body

    def _live_degraded_tenants(self) -> set:
        flagged = set()
        for job in self._running_jobs():
            engine = job.engine
            monitor = engine.live_monitor if engine is not None else None
            if monitor is None:
                continue
            watchdog = monitor.watchdog
            if watchdog.storming or watchdog.stalled:
                flagged.add(job.tenant)
        return flagged

    def snapshot_json(self) -> dict:
        with self._lock:
            return {
                "jobs": [
                    job.to_json() for job in self.jobs.values()
                ],
                "tenants": {
                    name: tenant.to_json()
                    for name, tenant in sorted(self.tenants.all().items())
                },
                "pool": self.pool.stats(),
                "queue_depth": self.scheduler.depth(),
                "draining": self._draining,
            }

    def metrics_text(self) -> str:
        """Service-level Prometheus exposition (per-tenant labels), written
        through the same :class:`repro.obs.serve.Exposition` as the
        engine's ``/metrics``."""
        with self._lock:
            out = Exposition()
            tenants = [
                ((("tenant", name),), tenant)
                for name, tenant in sorted(self.tenants.all().items())
            ]
            out.family(
                "repro_service_jobs_total", "counter",
                "Job lifecycle events per tenant.",
            )
            for labels, tenant in tenants:
                for event in ("submitted", "rejected", "completed", "failed",
                              "cancelled", "dead_letter"):
                    out.sample(
                        "repro_service_jobs_total",
                        labels + (("event", event),), getattr(tenant, event),
                    )
            # One sample per tenant.  The two job-plane latencies are
            # histograms on the engine's power-of-two ``le`` bounds, so
            # job-plane and engine-plane latencies share one axis.
            for metric, kind, help_text, value in (
                ("repro_service_committed_total", "counter",
                 "Iterations committed across a tenant's finished jobs.",
                 lambda t: t.committed),
                ("repro_service_conflicts_total", "counter",
                 "Misspeculations across a tenant's finished jobs.",
                 lambda t: t.conflicts),
                ("repro_service_serial_reexec_total", "counter",
                 "Serial re-executions across a tenant's finished jobs.",
                 lambda t: t.serial_reexec),
                ("repro_service_storms_total", "counter",
                 "Finished jobs whose watchdog flagged a storm.",
                 lambda t: t.storms),
                ("repro_service_retries_total", "counter",
                 "Retry attempts scheduled after failed runs.",
                 lambda t: t.retries),
                ("repro_service_deadline_cancelled_total", "counter",
                 "Jobs cancelled because their deadline passed.",
                 lambda t: t.deadline_cancelled),
                ("repro_service_recovered_jobs_total", "counter",
                 "Jobs re-admitted or resumed by crash recovery.",
                 lambda t: t.recovered),
                ("repro_service_queue_wait_seconds", "histogram",
                 "Admission-to-dispatch wait per tenant.",
                 lambda t: t.queue_wait_hist),
                ("repro_service_sched_pick_seconds", "histogram",
                 "One FairScheduler.take decision per dispatched job.",
                 lambda t: t.sched_pick_hist),
                ("repro_service_postmortem_total", "counter",
                 "Post-mortem bundles snapshotted per tenant.",
                 lambda t: t.postmortems),
                ("repro_service_tenant_running", "gauge",
                 "Running jobs per tenant.", lambda t: t.running),
                ("repro_service_tenant_queued", "gauge",
                 "Queued jobs per tenant.",
                 lambda t: self.scheduler.depth(t.name)),
                ("repro_service_tenant_window", "gauge",
                 "Current speculative window of the tenant's throttle.",
                 lambda t: t.throttle.window),
                ("repro_service_tenant_degraded", "gauge",
                 "1 while the tenant is degraded (storming or serialized).",
                 lambda t: 1 if t.degraded else 0),
            ):
                out.family(metric, kind, help_text)
                write = out.histogram if kind == "histogram" else out.sample
                for labels, tenant in tenants:
                    write(metric, labels, value(tenant))
            pool = self.pool.stats()
            for metric, kind, help_text, value in (
                ("repro_service_queue_depth", "gauge",
                 "Live queued jobs.", self.scheduler.depth()),
                ("repro_service_running_jobs", "gauge",
                 "Jobs currently running.", len(self._running_jobs())),
                ("repro_service_draining", "gauge",
                 "1 while the server is draining.",
                 1 if self._draining else 0),
                ("repro_service_pool_workers_idle", "gauge",
                 "Idle pool workers.", pool["idle"]),
                ("repro_service_pool_workers_leased", "gauge",
                 "Leased pool workers.", pool["leased"]),
                ("repro_service_pool_slots_free", "gauge",
                 "Free job slots.", pool["slots_free"]),
                ("repro_service_pool_spawned_total", "counter",
                 "Pool worker processes spawned since start "
                 "(respawns included).", pool["spawned_total"]),
                ("repro_service_flight_events_total", "counter",
                 "Job-plane events noted by the flight recorder.",
                 self.flight.events_noted),
                ("repro_service_durable", "gauge",
                 "1 when the server runs with a durable state dir.",
                 1 if self.durable else 0),
            ):
                out.family(metric, kind, help_text)
                out.sample(metric, (), value)
            if self.durable:
                recovery = self.recovery
                out.family(
                    "repro_service_recovery_total", "counter",
                    "Jobs handled by the last restart's journal replay.",
                )
                for outcome in ("requeued", "resumed", "restarted",
                                "terminal", "errors"):
                    out.sample(
                        "repro_service_recovery_total",
                        (("outcome", outcome),), getattr(recovery, outcome),
                    )
                journal_stats = recovery.journal
                for metric, help_text, value in (
                    ("repro_service_journal_records",
                     "Journal records replayed at the last start.",
                     journal_stats.records),
                    ("repro_service_journal_appended_total",
                     "Journal records appended since start.",
                     self.journal.appended if self.journal else 0),
                    ("repro_service_journal_torn_tail",
                     "1 if the last replay truncated a torn tail.",
                     journal_stats.torn_tail),
                    ("repro_service_journal_corrupt_records",
                     "Corrupt journal records skipped at the last replay.",
                     journal_stats.corrupt_records),
                    ("repro_service_journal_seq_gaps",
                     "Sequence gaps seen at the last replay.",
                     journal_stats.seq_gaps),
                    ("repro_service_retries_pending",
                     "Jobs waiting out a retry backoff.",
                     len(self._retries)),
                ):
                    out.family(metric, "gauge", help_text)
                    out.sample(metric, (), value)
            return out.text()
