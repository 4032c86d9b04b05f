"""The durable job plane: write-ahead journal, artifact store, recovery.

The paper's discipline — speculative work is only *real* once the in-order
committer retires it — previously stopped at the engine boundary: the job
server kept every queued job, running lease, and finished result in memory,
so a server crash silently discarded all tenant work even though the engine
could already resume a committed prefix.  This module extends the
commit-is-truth rule to the service layer:

- :class:`JobJournal` — the write-ahead log of every job state transition
  (``submitted -> queued -> leased -> running -> completed | failed |
  cancelled | retry_scheduled | dead_letter``), in the framed record
  format the checkpoint log uses too (:mod:`repro.resilience.recordlog`):
  each body is one JSON object with a strictly increasing ``seq``.  A
  ``completed`` record carries the job's metrics, and its pickled output
  after the JSON, so a job completes with one append and one fsync and no
  acknowledged result is ever off disk; replay indexes where the outputs
  are, and a result is read back from the log when asked for.  A
  submission is ``fsync``\\ ed before the HTTP 202 leaves the server.

- :class:`ArtifactStore` — per-job files off the write-ahead path under
  ``artifacts/<job>/``: a running job's committed-prefix checkpoint log
  (dropped, with the directory, once the job is terminal) and a traced
  job's trace artifacts, plus per-tenant post-mortem bundles.

- :func:`fold_records` — replay: fold the journal into one
  :class:`ReplayedJob` per job (last state wins, payload from the
  ``submitted`` record, attempt counters, metrics and finish time
  preserved), in original submission order, so the restarting server
  re-admits queued jobs in the order clients submitted them.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience import recordlog

logger = logging.getLogger(__name__)

JOURNAL_NAME = "journal.log"
#: The journal's name when it was JSON lines; a state dir holding one is
#: refused rather than read.
LEGACY_JOURNAL_NAME = "journal.jsonl"
ARTIFACT_DIR = "artifacts"

#: Journal events that mark a job as waiting for dispatch.
QUEUED_EVENTS = frozenset({"submitted", "queued", "retry_scheduled"})
#: Journal events that mark a job as having been handed to a lease —
#: a crash while one of these is the last word means the job was
#: interrupted mid-run and must be restarted (from its checkpoint if one
#: was persisted).
RUNNING_EVENTS = frozenset({"leased", "running"})
#: Journal events after which a job never moves again.
TERMINAL_EVENTS = frozenset(
    {"completed", "failed", "cancelled", "dead_letter"}
)
#: Everything the journal will accept; anything else is a programming
#: error, caught at append time rather than at the next recovery.
KNOWN_EVENTS = QUEUED_EVENTS | RUNNING_EVENTS | TERMINAL_EVENTS


class JournalError(RuntimeError):
    """The journal cannot be opened, appended to, or replayed."""


@dataclass
class JournalStats:
    """What one replay found — exposed on ``/metrics`` and ``/health``."""

    records: int = 0
    torn_tail: int = 0  # 0 or 1: a partial last record was truncated away
    corrupt_records: int = 0  # damaged records skipped
    seq_gaps: int = 0  # missing sequence numbers (corrupt or lost records)
    next_seq: int = 0
    compacted: bool = False


def _decode(raw: bytes, found: recordlog.Scan) -> Tuple[List[dict], int]:
    """The journal records among a log's whole records, plus how many
    bodies were not one.  A body is a JSON object, then — in a
    ``completed`` record — a newline and the pickled output, which the
    record names by its place: ``"output": {"offset": .., "bytes": ..}``.
    """
    records: List[dict] = []
    for start, stop in found.records:
        split = raw.find(b"\n", start, stop)
        try:
            record = json.loads(raw[start:stop if split < 0 else split])
            if not (record["event"] in KNOWN_EVENTS
                    and isinstance(record["seq"], int)
                    and isinstance(record["job"], str)):
                continue
        except (ValueError, KeyError, TypeError):
            continue
        if split >= 0:
            record["output"] = {"offset": split + 1, "bytes": stop - split - 1}
        records.append(record)
    return records, len(found.records) - len(records)


def _outputs(records: List[dict]) -> Dict[str, dict]:
    """Job id -> where its latest ``completed`` record's output is."""
    return {r["job"]: r["output"] for r in records if "output" in r}


class JobJournal:
    """The write-ahead log of job state transitions.  ``open()`` replays
    it; ``append`` is called under the service lock — one writer,
    strictly increasing ``seq``."""

    def __init__(self, log: recordlog.RecordLog) -> None:
        self.log = log
        self.path = log.path
        self._next_seq = 0
        self.appended = 0
        self.stats = JournalStats()
        #: job id -> where its pickled output is: ``{"offset", "bytes"}``
        self.outputs: Dict[str, dict] = {}

    @classmethod
    def open(cls, path: str) -> Tuple["JobJournal", List[dict]]:
        """Open (creating if absent) and replay; returns the journal ready
        for appends plus every surviving record in file order."""
        log, raw, found = recordlog.RecordLog.open(path)
        journal = cls(log)
        records, bad = _decode(raw, found)
        stats = journal.stats
        stats.records = len(records)
        stats.torn_tail = int(found.torn)
        stats.corrupt_records = found.damaged + bad
        stats.seq_gaps = sum(
            after["seq"] != before["seq"] + 1
            for before, after in zip(records, records[1:])
        )
        if stats.corrupt_records or stats.seq_gaps:
            logger.warning(
                "journal %s: skipped %d damaged record(s), %d seq gap(s)",
                path, stats.corrupt_records, stats.seq_gaps,
            )
        stats.next_seq = journal._next_seq = (
            records[-1]["seq"] + 1 if records else 0
        )
        journal.outputs = _outputs(records)
        return journal, records

    @staticmethod
    def read(path: str) -> List[dict]:
        """Every whole record of the journal at ``path``, without opening it
        for appends or repairing it (safe beside a running server)."""
        raw = recordlog.read(path)
        return _decode(raw, recordlog.scan(raw))[0]

    def close(self) -> None:
        self.log.close()

    @staticmethod
    def _head(seq: int, event: str, job_id: str, data: Optional[dict],
              ts: Optional[float] = None) -> bytes:
        ts = round(time.time() if ts is None else ts, 3)
        record = {"seq": seq, "ts": ts, "event": event, "job": job_id}
        if data:
            record["data"] = data
        return json.dumps(record, separators=(",", ":"), default=str).encode()

    def append(
        self,
        event: str,
        job_id: str,
        data: Optional[dict] = None,
        fsync: bool = False,
        output: Optional[bytes] = None,
        ts: Optional[float] = None,
    ) -> int:
        """One state transition, flushed to the OS before returning.

        ``fsync=True`` forces the record to stable storage — used for
        submissions (the 202 acknowledgment must survive anything) and
        terminal transitions (a completed job must never re-run).
        ``output`` (pickled) rides after the JSON; ``ts`` defaults to now.
        """
        if self.log.handle.closed:
            raise JournalError("journal is closed")
        if event not in KNOWN_EVENTS:
            raise JournalError(f"unknown journal event {event!r}")
        seq = self._next_seq
        head = self._head(seq, event, job_id, data, ts)
        if output is None:
            self.log.append(head, fsync=fsync)
        else:
            start = self.log.append(head, b"\n", output, fsync=fsync)
            self.outputs[job_id] = {
                "offset": start + len(head) + 1, "bytes": len(output),
            }
        self._next_seq += 1
        self.appended += 1
        return seq

    def load_output(self, job_id: str) -> Any:
        """A completed job's output, read from the log."""
        output = self.outputs[job_id]
        with open(self.path, "rb") as handle:
            handle.seek(output["offset"])
            return pickle.loads(handle.read(output["bytes"]))

    def compact(self, snapshot_records: List[tuple]) -> None:
        """Rewrite the journal as one compact snapshot (atomic rename).

        ``snapshot_records`` is ``[(event, job_id, data[, ts]), ...]`` —
        the caller (the service, after recovery) serializes its live state:
        one ``submitted`` record per job followed by that job's latest
        state, so a replay of the compacted journal reconstructs exactly
        the state the compactor saw.  A ``completed`` record keeps its
        job's output.  Sequence numbers restart at 0.
        """
        def records():
            with open(self.path, "rb") as old:
                for seq, (event, job_id, data, *ts) in enumerate(
                    snapshot_records
                ):
                    head = self._head(seq, event, job_id, data, *ts)
                    output = self.outputs.get(job_id)
                    if event != "completed" or output is None:
                        yield recordlog.frame(head)
                        continue
                    old.seek(output["offset"])
                    blob = old.read(output["bytes"])
                    yield recordlog.frame(head, b"\n", blob)

        self.log.rewrite(records())
        self.outputs = _outputs(self.read(self.path))
        self._next_seq = len(snapshot_records)
        self.stats.compacted = True


def stored_metrics(state_dir: str, job_id: str) -> Optional[dict]:
    """A finished job's metrics, from the journal of ``state_dir`` (a
    ``serve --state-dir``, or the ``artifacts/`` directory inside one)."""
    path = os.path.join(state_dir, JOURNAL_NAME)
    if not os.path.exists(path):
        path = os.path.join(state_dir, os.pardir, JOURNAL_NAME)
    for job in fold_records(JobJournal.read(path)):
        if job.job_id == job_id:
            return job.metrics
    return None


# -- artifact store -------------------------------------------------------------


class ArtifactStore:
    """Per-job on-disk artifacts under ``<state_dir>/artifacts/<job>/``:
    the checkpoint log of a job not yet terminal, a traced job's trace,
    timeline and bottleneck analysis (each JSON file written atomically).
    """

    CHECKPOINT = "checkpoint.pkl"
    TRACE = "trace.json"
    TIMELINE = "timeline.json"
    BOTTLENECK = "bottleneck.json"
    #: Per-job spool directory (the engine's and the service's ring spools
    #: for one traced job live here until they are merged and exported).
    TRACE_SPOOL_DIR = "trace"
    #: Post-mortem bundles, grouped per tenant.  Dot-prefixed so the name
    #: can never collide with a job directory (job ids reject dots).
    POSTMORTEM_DIR = ".postmortem"

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _job_dir(self, job_id: str, create: bool = False) -> str:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ValueError(f"bad job id {job_id!r}")
        path = os.path.join(self.root, job_id)
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    @staticmethod
    def _write_json(path: str, payload: dict, **options) -> None:
        """Atomically (fsynced temp file, rename)."""
        recordlog.replace(
            path, [json.dumps(payload, default=str, **options).encode()],
            durable=True,
        )

    # -- trace artifacts ----------------------------------------------------------

    def trace_spool_dir(self, job_id: str) -> str:
        """The per-job spool directory every traced stage writes into."""
        path = os.path.join(
            self._job_dir(job_id, create=True), self.TRACE_SPOOL_DIR
        )
        os.makedirs(path, exist_ok=True)
        return path

    def put_trace(self, job_id: str, trace: dict, timeline: dict) -> None:
        """Persist a job's merged Chrome trace and compact timeline."""
        directory = self._job_dir(job_id, create=True)
        self._write_json(os.path.join(directory, self.TRACE), trace)
        self._write_json(os.path.join(directory, self.TIMELINE), timeline)

    def load_trace(self, job_id: str) -> Optional[dict]:
        return self._load_json(os.path.join(self._job_dir(job_id), self.TRACE))

    def load_timeline(self, job_id: str) -> Optional[dict]:
        return self._load_json(
            os.path.join(self._job_dir(job_id), self.TIMELINE)
        )

    def put_bottleneck(self, job_id: str, analysis: dict) -> None:
        """Persist a traced job's critical-path bottleneck analysis."""
        self._write_json(
            os.path.join(self._job_dir(job_id, create=True), self.BOTTLENECK),
            analysis,
        )

    def load_bottleneck(self, job_id: str) -> Optional[dict]:
        return self._load_json(
            os.path.join(self._job_dir(job_id), self.BOTTLENECK)
        )

    @staticmethod
    def _load_json(path: str) -> Optional[dict]:
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- post-mortem bundles -------------------------------------------------------

    @staticmethod
    def _safe_tenant(tenant: str) -> str:
        """A filesystem-safe tenant directory name.  Dots are dropped too,
        so a hostile tenant string can never traverse out of the store."""
        safe = "".join(
            c if c.isalnum() or c in "-_" else "_" for c in tenant
        )
        return safe or "_"

    def _postmortem_dir(self, tenant: str, create: bool = False) -> str:
        path = os.path.join(
            self.root, self.POSTMORTEM_DIR, self._safe_tenant(tenant)
        )
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    def put_postmortem(
        self, tenant: str, name: str, payload: dict, keep: int = 8
    ) -> str:
        """Write one post-mortem bundle; enforce the per-tenant LRU cap.

        ``keep`` bounds how many bundles a tenant retains (oldest by mtime
        evicted first) so a crash-looping tenant cannot fill the store.
        """
        directory = self._postmortem_dir(tenant, create=True)
        safe_name = "".join(
            c if c.isalnum() or c in "-_" else "_" for c in name
        ) or "bundle"
        path = os.path.join(directory, f"{safe_name}.json")
        self._write_json(path, payload, indent=1)
        for stale in self._bundles(directory)[max(1, keep):]:
            try:
                os.unlink(stale)
            except OSError:
                pass
        return path

    def list_postmortems(self, tenant: str) -> List[str]:
        """Bundle paths for one tenant, newest first."""
        return self._bundles(self._postmortem_dir(tenant))

    @staticmethod
    def _bundles(directory: str) -> List[str]:
        try:
            with os.scandir(directory) as entries:
                bundles = [
                    (entry.stat().st_mtime, entry.path)
                    for entry in entries
                    if entry.is_file() and entry.name.endswith(".json")
                ]
        except OSError:
            return []
        bundles.sort(reverse=True)
        return [path for _, path in bundles]

    def load_postmortem(self, path: str) -> Optional[dict]:
        real = os.path.realpath(path)
        store = os.path.realpath(os.path.join(self.root, self.POSTMORTEM_DIR))
        if not real.startswith(store + os.sep):
            return None
        return self._load_json(real)

    # -- checkpoints --------------------------------------------------------------

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(
            self._job_dir(job_id, create=True), self.CHECKPOINT
        )

    def has_checkpoint(self, job_id: str) -> bool:
        return os.path.exists(
            os.path.join(self._job_dir(job_id), self.CHECKPOINT)
        )

    def discard_checkpoint(self, job_id: str) -> None:
        """Drop a terminal job's checkpoint — only interrupted or retrying
        jobs need one, and a stale checkpoint must never leak into a
        *different* job's resume — and its directory, once that is empty."""
        directory = self._job_dir(job_id)
        try:
            os.unlink(os.path.join(directory, self.CHECKPOINT))
        except OSError:
            pass
        try:
            os.rmdir(directory)
        except OSError:
            pass  # absent, or it holds trace artifacts

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict:
        """Jobs with files on disk (a finished untraced job has none), and
        the bytes directly in their directories."""
        jobs = total_bytes = 0
        with os.scandir(self.root) as entries:
            for entry in entries:
                if not entry.is_dir() or entry.name.startswith("."):
                    continue
                jobs += 1
                try:
                    with os.scandir(entry.path) as files:
                        total_bytes += sum(f.stat().st_size for f in files)
                except OSError:
                    pass  # removed as its job finished
        return {"jobs": jobs, "bytes": total_bytes}


# -- replay folding --------------------------------------------------------------


@dataclass
class ReplayedJob:
    """One job folded out of the journal: its submission payload plus the
    last word the journal has on it."""

    job_id: str
    payload: dict = field(default_factory=dict)
    last_event: str = "submitted"
    attempts: int = 0
    error: Optional[str] = None
    submitted_seq: int = 0
    #: ``resumed_from`` of the last completed attempt (informational).
    resumed_from: Optional[int] = None
    #: the ``completed`` record's engine metrics
    metrics: Optional[dict] = None
    #: the terminal record's ``ts``
    finished_unix: Optional[float] = None

    @property
    def interrupted(self) -> bool:
        """Was the job mid-run when the journal stopped?"""
        return self.last_event in RUNNING_EVENTS

    @property
    def queued(self) -> bool:
        return self.last_event in QUEUED_EVENTS

    @property
    def terminal(self) -> bool:
        return self.last_event in TERMINAL_EVENTS


def fold_records(records: List[dict]) -> List[ReplayedJob]:
    """Fold journal records into per-job replay state, in submission order.

    Records for a job that has no ``submitted`` record (its submission was
    lost to corruption) are dropped — without the payload the job cannot
    be rebuilt, and half a job is worse than an honest loss count.
    """
    jobs: Dict[str, ReplayedJob] = {}
    orphaned = 0
    for record in records:
        job_id = record["job"]
        event = record["event"]
        data = record.get("data") or {}
        replayed = jobs.get(job_id)
        if replayed is None:
            if event != "submitted":
                orphaned += 1
                continue
            replayed = ReplayedJob(
                job_id=job_id,
                payload=dict(data),
                submitted_seq=record["seq"],
            )
            jobs[job_id] = replayed
            continue
        replayed.last_event = event
        if event in TERMINAL_EVENTS:
            replayed.finished_unix = record.get("ts")
        if "attempt" in data:
            replayed.attempts = max(replayed.attempts, int(data["attempt"]))
        if "error" in data:
            replayed.error = data["error"]
        if "resumed_from" in data:
            replayed.resumed_from = data["resumed_from"]
        if "metrics" in data:
            replayed.metrics = data["metrics"]
    if orphaned:
        logger.warning(
            "journal replay: dropped %d record(s) for jobs whose submission "
            "record was lost", orphaned,
        )
    return sorted(jobs.values(), key=lambda j: j.submitted_seq)


@dataclass
class RecoveryReport:
    """What one restart recovered — exposed on ``/metrics`` and ``/health``
    so operators can see that a restart lost nothing."""

    requeued: int = 0  # jobs that were queued (or retry-waiting) at crash
    resumed: int = 0  # interrupted jobs restarted from a checkpoint
    restarted: int = 0  # interrupted jobs restarted from iteration 0
    terminal: int = 0  # finished jobs whose records were reloaded
    errors: int = 0  # journal jobs that could not be rebuilt
    journal: JournalStats = field(default_factory=JournalStats)

    @property
    def recovered(self) -> int:
        return self.requeued + self.resumed + self.restarted

    def to_json(self) -> dict:
        return asdict(self)
