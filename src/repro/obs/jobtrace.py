"""Job-plane causal tracing: one Perfetto timeline per service job.

PR 4 made a single engine run observable — per-process ring spools merged
onto one wall-clock axis.  The job server in front of that engine was
dark: a job's life *before* ``ExecutionEngine.run`` (admission, quota
wait, the scheduler's pick, lease dispatch) and *after* it (artifact
persist, retry backoff) happened between timestamps nobody recorded.
This module closes the gap with the same machinery, not a parallel one:

- :class:`TraceContext` is minted at ``POST /jobs`` — job id, tenant,
  attempt, and a per-job spool directory — journaled with the submission
  and carried through scheduler → pool lease → engine;
- :class:`JobTrace` is the server-side spool for that job: a
  :class:`~repro.obs.spool.SpoolWriter` under the ``service`` role writing
  ADMIT / QUEUE_WAIT / SCHED_PICK / LEASE_DISPATCH / ARTIFACT_PERSIST /
  RETRY_BACKOFF spans into the *same* directory the engine's producer,
  workers, and committer spool into, so the existing merger stitches
  service stages onto A/B/C spans with zero new merge logic.  Unlike the
  engine spools (one writer per process), service spans come from the
  HTTP handler, the dispatcher, the retry sweep, and the job's runner
  thread — so this writer is lock-wrapped; the job plane records a few
  dozen events per job, not one per item, and can afford it;
- :func:`build_timeline` reduces a merged trace to the compact JSON
  phase view served by ``GET /jobs/<id>/timeline`` and stored next to
  the Chrome trace in the artifact store;
- :class:`FlightRecorder` is the post-mortem side: a bounded ring of
  recent service events (admissions, leases, failures, throttle moves)
  that the server snapshots into a bundle whenever a job fails,
  dead-letters, or a tenant degrades — the crash context that a
  request-scoped trace alone cannot carry;
- :func:`aggregate_report` / :func:`format_report` back the
  ``python -m repro obs report`` CLI: per-tenant, per-stage latency
  percentiles across every stored trace artifact.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.obs.clock import now_ns
from repro.obs.events import EventKind, SERVICE_KINDS, TraceConfig
from repro.obs.hist import LatencyHistogram
from repro.obs.spool import open_tracer

if TYPE_CHECKING:
    from repro.obs.merge import MergedTrace

#: The spool role the server writes under (engine roles are ``producer``,
#: ``worker-N``, ``committer``; the merger treats them all alike).
SERVICE_ROLE = "service"

#: Name of the per-job spool directory under the artifact store job dir.
TRACE_DIR_NAME = "trace"

#: Stage names (timeline/report vocabulary) for the service span kinds.
STAGE_NAMES = {
    EventKind.ADMIT: "admit",
    EventKind.QUEUE_WAIT: "queue_wait",
    EventKind.SCHED_PICK: "sched_pick",
    EventKind.LEASE_DISPATCH: "lease_dispatch",
    EventKind.ARTIFACT_PERSIST: "artifact_persist",
    EventKind.RETRY_BACKOFF: "retry_backoff",
}

#: Engine-side histogram series surfaced in the compact timeline.
ENGINE_SERIES = (
    "task_a", "task_b", "task_c", "serial_reexec", "gate_wait", "commit_lag",
)


@dataclass(frozen=True)
class TraceContext:
    """The causal identity a traced job carries end to end.

    Picklable plain data: it rides in journal records (as JSON via
    :meth:`to_json`) and its :attr:`config` crosses the process boundary
    to pool workers inside the lease message.
    """

    job_id: str
    tenant: str
    attempt: int = 0
    config: Optional[TraceConfig] = None

    def for_attempt(self, attempt: int) -> "TraceContext":
        return replace(self, attempt=attempt)

    def to_json(self) -> dict:
        return {
            "job": self.job_id,
            "tenant": self.tenant,
            "attempt": self.attempt,
            "spool_dir": self.config.spool_dir if self.config else None,
        }


class JobTrace:
    """The server-side spool for one job, plus cross-thread span marks.

    A service stage often *begins* on one thread and *ends* on another
    (QUEUE_WAIT opens in the HTTP handler after the journal fsync and
    closes in the dispatcher at scheduler pick), so open spans are kept as
    named marks and closed with :meth:`end`.  All methods are safe to call
    concurrently and degrade to no-ops when the spool could not be opened
    — tracing must never take down the job it observes.
    """

    def __init__(self, context: TraceContext) -> None:
        self.context = context
        self._writer = open_tracer(context.config, SERVICE_ROLE)
        self._lock = threading.Lock()
        self._marks: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self._writer is not None

    @property
    def spool_dir(self) -> Optional[str]:
        return self.context.config.spool_dir if self.context.config else None

    def span(
        self,
        kind: EventKind,
        t0_ns: int,
        t1_ns: int,
        arg: int = 0,
        arg2: int = 0,
        detail: int = 0,
    ) -> None:
        if self._writer is None:
            return
        with self._lock:
            self._writer.record(int(kind), t0_ns, t1_ns, arg, arg2, detail)

    def instant(
        self, kind: EventKind, arg: int = 0, arg2: int = 0, detail: int = 0
    ) -> None:
        ts = now_ns()
        self.span(kind, ts, ts, arg, arg2, detail)

    # -- cross-thread span marks -------------------------------------------------

    def begin(self, name: str, at_ns: Optional[int] = None) -> None:
        """Open the named span (idempotent: a re-begin moves the mark)."""
        if self._writer is None:
            return
        with self._lock:
            self._marks[name] = at_ns if at_ns is not None else now_ns()

    def end(
        self,
        name: str,
        kind: EventKind,
        arg: int = 0,
        arg2: int = 0,
        detail: int = 0,
        at_ns: Optional[int] = None,
    ) -> float:
        """Close the named span; returns its duration in seconds (0.0 when
        the mark was never opened or tracing is off)."""
        if self._writer is None:
            return 0.0
        t1 = at_ns if at_ns is not None else now_ns()
        with self._lock:
            t0 = self._marks.pop(name, None)
            if t0 is None:
                return 0.0
            self._writer.record(int(kind), t0, t1, arg, arg2, detail)
        return (t1 - t0) / 1e9

    def flush(self) -> None:
        if self._writer is None:
            return
        with self._lock:
            self._writer.flush()

    def close(self) -> None:
        if self._writer is None:
            return
        with self._lock:
            self._writer.close()


def open_job_trace(
    job_id: str,
    tenant: str,
    spool_dir: str,
    max_events: int = 1 << 16,
) -> JobTrace:
    """Mint a :class:`TraceContext` and open the service spool for it."""
    os.makedirs(spool_dir, exist_ok=True)
    config = TraceConfig(spool_dir=spool_dir, max_events=max_events)
    return JobTrace(TraceContext(job_id=job_id, tenant=tenant, config=config))


# -- compact timeline ----------------------------------------------------------------


def build_timeline(
    merged: MergedTrace,
    job_id: str = "",
    tenant: str = "",
    attempts: int = 0,
) -> dict:
    """The compact phase view of one job's merged trace.

    Service stages keep every span verbatim (a job has a handful); engine
    phases are summarized through the merger's per-series histograms.
    This is both the ``GET /jobs/<id>/timeline`` response and the
    ``timeline.json`` artifact the ``obs report`` CLI aggregates.
    """
    phases: List[dict] = []
    for span in merged.spans:
        if span.kind not in SERVICE_KINDS:
            continue
        phases.append(
            {
                "stage": STAGE_NAMES[span.kind],
                "start_us": round(span.start_ns / 1000.0, 3),
                "duration_s": round(span.seconds, 9),
                "attempt": span.arg,
            }
        )
    phases.sort(key=lambda p: (p["start_us"], p["stage"]))
    service_series = frozenset(STAGE_NAMES.values())
    engine = {
        name: hist.summary()
        for name, hist in sorted(merged.histograms.items())
        if hist.count and name not in service_series
    }
    return {
        "job": job_id,
        "tenant": tenant,
        "attempts": attempts,
        "origin_wall_ns": merged.origin_wall_ns,
        "phases": phases,
        "engine": engine,
        "span_count": merged.span_count,
        "dropped_events": merged.dropped_events,
        "aborted_spans": merged.aborted_spans,
    }


# -- flight recorder -----------------------------------------------------------------


class FlightRecorder:
    """A bounded ring of recent job-plane events for post-mortem bundles.

    The server notes every consequential transition (admission, lease,
    completion, failure, retry, degrade) here; when something goes wrong
    the last ``capacity`` events are snapshotted into the bundle — the
    service-level answer to "what was happening right before".  Append is
    O(1) under a lock; this is the control plane, not the item hot path.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    def note(self, event: str, job_id: str = "", tenant: str = "", **details) -> None:
        with self._lock:
            self._seq += 1
            self._events.append(
                {
                    "seq": self._seq,
                    "unix_s": round(time.time(), 6),
                    "event": event,
                    "job": job_id,
                    "tenant": tenant,
                    **({"details": details} if details else {}),
                }
            )

    def snapshot(self) -> List[dict]:
        with self._lock:
            return list(self._events)

    @property
    def events_noted(self) -> int:
        with self._lock:
            return self._seq


# -- cross-job report (``python -m repro obs report``) -------------------------------


def iter_job_traces(
    artifact_root: str, warnings: Optional[List[str]] = None
) -> Iterable[Tuple[str, dict, Optional[dict]]]:
    """Yield ``(job_id, timeline, chrome_trace_or_None)`` for every stored
    trace artifact under an artifact-store root.

    Untraced jobs (no timeline *and* no trace artifact) are skipped
    silently — they share the artifact root.  A job whose artifacts exist
    but cannot be read is skipped *loudly*: a message is appended to
    ``warnings`` (when given) so ``obs report`` can surface per-job
    corruption without aborting the whole aggregation.  A corrupt Chrome
    trace next to a readable timeline degrades to timeline-only (warned).
    """
    try:
        entries = sorted(os.scandir(artifact_root), key=lambda e: e.name)
    except OSError:
        return

    def warn(message: str) -> None:
        if warnings is not None:
            warnings.append(message)

    for entry in entries:
        if not entry.is_dir() or entry.name.startswith("."):
            continue
        timeline_path = os.path.join(entry.path, "timeline.json")
        trace_path = os.path.join(entry.path, "trace.json")
        has_timeline = os.path.exists(timeline_path)
        has_trace = os.path.exists(trace_path)
        if not has_timeline and not has_trace:
            continue  # untraced job
        timeline = None
        if has_timeline:
            try:
                with open(timeline_path) as handle:
                    timeline = json.load(handle)
            except (OSError, ValueError) as error:
                warn(f"job {entry.name}: unreadable timeline.json ({error})")
        if not isinstance(timeline, dict):
            if has_timeline and timeline is not None:
                warn(f"job {entry.name}: timeline.json is not an object")
            elif not has_timeline:
                warn(
                    f"job {entry.name}: trace.json present but "
                    "timeline.json missing"
                )
            continue
        trace = None
        if has_trace:
            try:
                with open(trace_path) as handle:
                    trace = json.load(handle)
            except (OSError, ValueError) as error:
                warn(
                    f"job {entry.name}: unreadable trace.json ({error}); "
                    "falling back to timeline summaries"
                )
                trace = None
        yield entry.name, timeline, trace


def aggregate_report(
    traces: Iterable[Tuple[str, dict, Optional[dict]]],
    tenant_filter: Optional[str] = None,
) -> dict:
    """Fold stored trace artifacts into per-tenant per-stage histograms.

    Service-stage samples come from the timeline's verbatim phase spans
    (exact).  Engine-stage samples come from the Chrome trace's ``X``
    events when present (exact over retained spans), falling back to the
    timeline's per-job means when the trace artifact is missing.
    """
    tenants: Dict[str, Dict[str, LatencyHistogram]] = {}
    jobs = 0

    def series(tenant: str, stage: str) -> LatencyHistogram:
        stages = tenants.setdefault(tenant, {})
        hist = stages.get(stage)
        if hist is None:
            hist = stages[stage] = LatencyHistogram()
        return hist

    engine_names = {"A": "task_a", "B": "task_b", "C": "task_c",
                    "reexec": "serial_reexec", "wait:gate": "gate_wait"}
    for job_id, timeline, trace in traces:
        tenant = timeline.get("tenant") or "unknown"
        if tenant_filter is not None and tenant != tenant_filter:
            continue
        jobs += 1
        for phase in timeline.get("phases", ()):
            stage = phase.get("stage")
            duration = phase.get("duration_s")
            if isinstance(stage, str) and isinstance(duration, (int, float)):
                series(tenant, stage).add(float(duration))
        if trace is not None:
            for event in trace.get("traceEvents", ()):
                if event.get("ph") != "X":
                    continue
                stage = engine_names.get(event.get("name"))
                if stage is None:
                    continue
                duration = event.get("dur")
                if isinstance(duration, (int, float)):
                    series(tenant, stage).add(duration / 1e6)
        else:
            for name, summary in timeline.get("engine", {}).items():
                mean = summary.get("mean")
                if isinstance(mean, (int, float)):
                    series(tenant, name).add(float(mean))
    return {"jobs": jobs, "tenants": tenants}


#: Report row order: job-plane stages first, in causal order, then engine.
_STAGE_ORDER = (
    "admit", "queue_wait", "sched_pick", "lease_dispatch",
    "artifact_persist", "retry_backoff",
    "task_a", "task_b", "task_c", "serial_reexec", "gate_wait",
)


def format_report(aggregate: dict) -> str:
    """Human-readable per-tenant per-stage percentile table."""
    lines = [f"jobs with trace artifacts: {aggregate['jobs']}"]
    if not aggregate["tenants"]:
        lines.append("(no trace artifacts found — run jobs with tracing on)")
        return "\n".join(lines)

    def stage_rank(name: str) -> Tuple[int, str]:
        try:
            return (_STAGE_ORDER.index(name), name)
        except ValueError:
            return (len(_STAGE_ORDER), name)

    for tenant in sorted(aggregate["tenants"]):
        lines.append(f"tenant {tenant}:")
        stages = aggregate["tenants"][tenant]
        width = max(len(name) for name in stages)
        for name in sorted(stages, key=stage_rank):
            hist = stages[name]
            lines.append(f"  {name:<{width}}  {hist.format_line()}")
    return "\n".join(lines)


def run_report(
    state_dir: str, tenant: Optional[str] = None
) -> Tuple[str, int]:
    """The ``obs report`` entry point: returns (text, exit_code).

    Accepts either a service ``--state-dir`` (artifacts live under
    ``artifacts/``) or an artifact root directly.  Per-job artifact
    corruption is reported as a warning, not an abort: the exit code is
    nonzero only when *no* job could be aggregated (1), or the directory
    itself is missing (2).
    """
    root = state_dir
    nested = os.path.join(state_dir, "artifacts")
    if os.path.isdir(nested):
        root = nested
    if not os.path.isdir(root):
        return (f"obs report: no such directory: {state_dir}", 2)
    warnings: List[str] = []
    aggregate = aggregate_report(
        iter_job_traces(root, warnings), tenant_filter=tenant
    )
    text = format_report(aggregate)
    if warnings:
        text += "\n" + "\n".join(
            f"warning: {message}" for message in warnings
        )
    return (text, 0 if aggregate["jobs"] else 1)
