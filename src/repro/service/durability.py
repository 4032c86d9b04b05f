"""The durable job plane: write-ahead journal, artifact store, recovery.

The paper's discipline — speculative work is only *real* once the in-order
committer retires it — previously stopped at the engine boundary: the job
server kept every queued job, running lease, and finished result in memory,
so a server crash silently discarded all tenant work even though the engine
could already resume a committed prefix.  This module extends the
commit-is-truth rule to the service layer:

- :class:`JobJournal` — an append-only JSONL write-ahead log of every job
  state transition (``submitted -> queued -> leased -> running ->
  completed | failed | cancelled | retry_scheduled | dead_letter``), one
  record per line, each carrying a strictly increasing ``seq`` number.
  The recovery discipline is the one proven by :mod:`repro.obs.spool`:
  embedded sequence numbers, a torn tail (a record cut mid-write by a
  crash) detected and *truncated in place* before the journal is appended
  to again, corrupt interior lines skipped loudly and counted, gaps
  audited.  An acknowledged submission is ``fsync``\\ ed before the HTTP
  202 leaves the server, so a SIGKILL one instruction later loses nothing.

- :class:`ArtifactStore` — per-job on-disk artifacts
  (``artifacts/<job>/output.pkl``, ``metrics.json``, ``checkpoint.pkl``).
  Outputs and metrics are written atomically (fsynced temp file + rename,
  then one fsync of the job directory so the renames survive power loss).
  Job outputs spill here the moment they are produced, and the server
  drops its in-memory copy — results survive restarts and the resident set
  no longer grows with job history.  The engine's committed-prefix
  checkpoints for a running job land here too, as one append-only record
  log (:mod:`repro.resilience.checkpoint`), which is what lets a restarted
  server resume an interrupted job instead of re-running it.

- :func:`fold_records` — replay: fold the journal into one
  :class:`ReplayedJob` per job (last state wins, payload from the
  ``submitted`` record, attempt counters preserved), in original
  submission order, so the restarting server re-admits queued jobs in the
  order clients submitted them.

The WAL ordering rule: durable side effects land *before* the journal
record that acknowledges them.  A ``completed`` record is only appended
after the output artifact is on disk, so replay never points at a result
that does not exist.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)

JOURNAL_NAME = "journal.jsonl"
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


def fsync_directory(path: str) -> None:
    """Make the renames inside ``path`` durable: ``os.replace`` changes the
    directory, and only an fsync of the directory itself persists that."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JournalError(RuntimeError):
    """The journal cannot be opened, appended to, or replayed."""


@dataclass
class JournalStats:
    """What one replay found — exposed on ``/metrics`` and ``/health``."""

    records: int = 0
    torn_tail: int = 0  # 0 or 1: a partial last record was truncated away
    corrupt_records: int = 0  # interior lines that failed to parse
    seq_gaps: int = 0  # missing sequence numbers (corrupt or lost records)
    next_seq: int = 0
    compacted: bool = False

    def to_json(self) -> dict:
        return {
            "records": self.records,
            "torn_tail": self.torn_tail,
            "corrupt_records": self.corrupt_records,
            "seq_gaps": self.seq_gaps,
            "next_seq": self.next_seq,
            "compacted": self.compacted,
        }


class JobJournal:
    """Append-only JSONL write-ahead log of job state transitions.

    ``open()`` replays the existing file (truncating any torn tail so
    later appends cannot fuse with a partial record) and positions the
    writer after the last durable byte.  ``append`` is called under the
    service lock — one writer, strictly increasing ``seq``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self._next_seq = 0
        self.appended = 0
        self.fsyncs = 0
        self.stats = JournalStats()

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def open(cls, path: str) -> Tuple["JobJournal", List[dict]]:
        """Open (creating if absent) and replay; returns the journal ready
        for appends plus every surviving record in file order."""
        journal = cls(path)
        records = journal._replay_and_repair()
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        journal._handle = open(path, "ab")
        return journal, records

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
            self._handle.close()
            self._handle = None

    # -- writing ------------------------------------------------------------------

    def append(
        self,
        event: str,
        job_id: str,
        data: Optional[dict] = None,
        fsync: bool = False,
    ) -> int:
        """One state transition, flushed to the OS before returning.

        ``fsync=True`` forces the record to stable storage — used for
        submissions (the 202 acknowledgment must survive anything) and
        terminal transitions (a completed job must never re-run).
        """
        if self._handle is None:
            raise JournalError("journal is closed")
        if event not in KNOWN_EVENTS:
            raise JournalError(f"unknown journal event {event!r}")
        record = {"seq": self._next_seq, "ts": round(time.time(), 3),
                  "event": event, "job": job_id}
        if data:
            record["data"] = data
        line = json.dumps(record, separators=(",", ":"), default=str)
        self._handle.write(line.encode() + b"\n")
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())
            self.fsyncs += 1
        self._next_seq += 1
        self.appended += 1
        return record["seq"]

    # -- replay -------------------------------------------------------------------

    def _replay_and_repair(self) -> List[dict]:
        """Parse every durable record; truncate a torn tail in place.

        A record is durable iff its line is newline-terminated and parses
        as a JSON object with a ``seq``.  The file is truncated back to
        the end of the last durable record so the next append starts on a
        clean line — without this, a crash-torn fragment and the next
        append would fuse into one unparseable line and a *second* crash
        would lose both.
        """
        stats = self.stats
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            raw = handle.read()
        records: List[dict] = []
        durable_end = 0  # byte offset just past the last good record
        expected_seq: Optional[int] = None
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                stats.torn_tail = 1
                logger.warning(
                    "journal %s: torn tail (%d bytes) truncated",
                    self.path, len(raw) - offset,
                )
                break
            line = raw[offset:newline]
            offset = newline + 1
            record = self._parse(line)
            if record is None:
                stats.corrupt_records += 1
                logger.warning(
                    "journal %s: skipping corrupt record at byte %d",
                    self.path, offset - len(line) - 1,
                )
                # The line was newline-terminated, so appends after it are
                # intact; keep scanning rather than discarding the suffix.
                durable_end = offset
                continue
            seq = record["seq"]
            if expected_seq is not None and seq != expected_seq:
                stats.seq_gaps += 1
                logger.warning(
                    "journal %s: seq gap (expected %d, found %d)",
                    self.path, expected_seq, seq,
                )
            expected_seq = seq + 1
            records.append(record)
            durable_end = offset
        if durable_end < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(durable_end)
        stats.records = len(records)
        stats.next_seq = (records[-1]["seq"] + 1) if records else 0
        self._next_seq = stats.next_seq
        return records

    @staticmethod
    def _parse(line: bytes) -> Optional[dict]:
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict):
            return None
        if not isinstance(record.get("seq"), int):
            return None
        if record.get("event") not in KNOWN_EVENTS:
            return None
        if not isinstance(record.get("job"), str):
            return None
        return record

    # -- compaction ---------------------------------------------------------------

    def compact(self, snapshot_records: List[Tuple[str, str, dict]]) -> None:
        """Rewrite the journal as one compact snapshot (atomic rename).

        ``snapshot_records`` is ``[(event, job_id, data), ...]`` — the
        caller (the service, after recovery) serializes its live state:
        one ``submitted`` record per job followed by that job's latest
        state, so a replay of the compacted journal reconstructs exactly
        the state the compactor saw.  Sequence numbers restart at 0.
        """
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        handle, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".journal-", suffix=".tmp"
        )
        was_open = self._handle is not None
        try:
            with os.fdopen(handle, "wb") as stream:
                for seq, (event, job_id, data) in enumerate(snapshot_records):
                    record = {"seq": seq, "ts": round(time.time(), 3),
                              "event": event, "job": job_id}
                    if data:
                        record["data"] = data
                    stream.write(
                        json.dumps(
                            record, separators=(",", ":"), default=str
                        ).encode() + b"\n"
                    )
                stream.flush()
                os.fsync(stream.fileno())
            if was_open:
                self._handle.close()
            os.replace(temp_path, self.path)
            fsync_directory(directory)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        finally:
            if was_open:
                self._handle = open(self.path, "ab")
        self._next_seq = len(snapshot_records)
        self.stats.compacted = True


# -- artifact store -------------------------------------------------------------


class ArtifactStore:
    """Per-job on-disk artifacts under ``<state_dir>/artifacts/<job>/``.

    Outputs are pickled (full Python-object fidelity — the result endpoint
    serves exactly what the engine produced), metrics are JSON (small,
    greppable, loaded alone during recovery), and the engine's
    committed-prefix checkpoint log shares the directory.  Every artifact
    write is atomic, so a crash mid-write leaves the previous version or
    nothing; the checkpoint log is appended to, and its reader skips a
    torn tail.
    """

    OUTPUT = "output.pkl"
    METRICS = "metrics.json"
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
    def _atomic_write(path: str, payload: bytes) -> None:
        directory = os.path.dirname(path)
        handle, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".artifact-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(payload)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    # -- outputs ------------------------------------------------------------------

    def put_result(self, job_id: str, output: Any, metrics: dict) -> None:
        """Persist a finished job's output and metrics (output first, so a
        crash between the two leaves a loadable output either way)."""
        directory = self._job_dir(job_id, create=True)
        self._atomic_write(
            os.path.join(directory, self.OUTPUT),
            pickle.dumps(output, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._atomic_write(
            os.path.join(directory, self.METRICS),
            json.dumps(metrics, default=str).encode(),
        )
        # Both renames reach the disk before the caller journals
        # ``completed`` (the WAL rule).
        fsync_directory(directory)

    def has_result(self, job_id: str) -> bool:
        return os.path.exists(
            os.path.join(self._job_dir(job_id), self.OUTPUT)
        )

    def load_output(self, job_id: str) -> Any:
        with open(os.path.join(self._job_dir(job_id), self.OUTPUT), "rb") as f:
            return pickle.load(f)

    def load_metrics(self, job_id: str) -> Optional[dict]:
        path = os.path.join(self._job_dir(job_id), self.METRICS)
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

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
        self._atomic_write(
            os.path.join(directory, self.TRACE),
            json.dumps(trace, default=str).encode(),
        )
        self._atomic_write(
            os.path.join(directory, self.TIMELINE),
            json.dumps(timeline, default=str).encode(),
        )

    def load_trace(self, job_id: str) -> Optional[dict]:
        return self._load_json(os.path.join(self._job_dir(job_id), self.TRACE))

    def load_timeline(self, job_id: str) -> Optional[dict]:
        return self._load_json(
            os.path.join(self._job_dir(job_id), self.TIMELINE)
        )

    def put_bottleneck(self, job_id: str, analysis: dict) -> None:
        """Persist a traced job's critical-path bottleneck analysis."""
        self._atomic_write(
            os.path.join(self._job_dir(job_id, create=True), self.BOTTLENECK),
            json.dumps(analysis, default=str).encode(),
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
        self._atomic_write(
            path, json.dumps(payload, default=str, indent=1).encode()
        )
        self._prune_postmortems(directory, max(1, keep))
        return path

    @staticmethod
    def _prune_postmortems(directory: str, keep: int) -> int:
        """Evict oldest-by-mtime bundles beyond ``keep``; returns evictions."""
        try:
            with os.scandir(directory) as entries:
                bundles = [
                    (entry.stat().st_mtime, entry.path)
                    for entry in entries
                    if entry.is_file() and entry.name.endswith(".json")
                ]
        except OSError:
            return 0
        bundles.sort(reverse=True)
        evicted = 0
        for _, path in bundles[keep:]:
            try:
                os.unlink(path)
                evicted += 1
            except OSError:
                pass
        return evicted

    def list_postmortems(self, tenant: str) -> List[str]:
        """Bundle paths for one tenant, newest first."""
        directory = self._postmortem_dir(tenant)
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
        *different* job's resume."""
        try:
            os.unlink(os.path.join(self._job_dir(job_id), self.CHECKPOINT))
        except OSError:
            pass

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict:
        jobs = 0
        total_bytes = 0
        try:
            entries = os.scandir(self.root)
        except OSError:
            return {"jobs": 0, "bytes": 0}
        with entries:
            for entry in entries:
                if not entry.is_dir() or entry.name.startswith("."):
                    continue
                jobs += 1
                try:
                    with os.scandir(entry.path) as files:
                        for item in files:
                            try:
                                total_bytes += item.stat().st_size
                            except OSError:
                                pass
                except OSError:
                    pass
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
        if "attempt" in data:
            replayed.attempts = max(replayed.attempts, int(data["attempt"]))
        if "error" in data:
            replayed.error = data["error"]
        if "resumed_from" in data:
            replayed.resumed_from = data["resumed_from"]
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
        return {
            "requeued": self.requeued,
            "resumed": self.resumed,
            "restarted": self.restarted,
            "terminal": self.terminal,
            "errors": self.errors,
            "journal": self.journal.to_json(),
        }
