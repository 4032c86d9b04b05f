"""The trace vocabulary: event kinds, record shapes, and trace config.

Every process in the execution stack (phase-A producer, phase-B workers,
the committer) emits fixed-size binary records into its own spool
(:mod:`repro.obs.spool`).  A record is either an **instant** (one
timestamp) or a **span** (begin and end); :class:`EventKind` enumerates
what can happen, and the merger (:mod:`repro.obs.merge`) turns raw records
back into typed :class:`Span`/:class:`Instant` objects on the shared
wall-clock axis.

Span begin/end markers: a worker writes :attr:`EventKind.TASK_B_BEGIN`
*before* executing a task and the full ``TASK_B`` span after.  If the
process dies mid-task (a real crash, an injected ``os._exit``, a kill
after a hang) the spool ends with a begin that has no matching span — the
merger recovers it as an **aborted span** instead of corrupting the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional


class EventKind(IntEnum):
    """Everything the execution stack can put on a timeline."""

    # -- task execution (spans) ------------------------------------------------
    TASK_A = 1          # producer ran one produce() call       (arg=iteration)
    TASK_B = 2          # worker executed one task              (arg=iteration, arg2=worker)
    TASK_C = 3          # committer ran one commit() callback   (arg=iteration)
    TASK_B_BEGIN = 4    # instant marker written before TASK_B  (arg=iteration, arg2=worker)
    SERIAL_REEXEC = 5   # committer re-executed a task serially (arg=iteration)

    # -- communication (spans) -------------------------------------------------
    QUEUE_PUT_WAIT = 10  # blocked acquiring item credit  (detail=channel)
    QUEUE_GET_WAIT = 11  # blocked waiting for an item    (detail=channel)
    GATE_WAIT = 12       # throttle-gated before executing (arg=iteration)

    # -- the committer's ordered view (instants) --------------------------------
    CLAIM = 20           # claim message arrived  (arg=iteration, arg2=worker)
    COMMIT = 21          # iteration committed    (arg=iteration; arg2=1 on misspeculation)
    CONFLICT = 22        # commit-time validation failed (arg=iteration)

    # -- robustness / resilience (instants) -------------------------------------
    SOFT_FAULT = 30      # worker reported a fault        (arg=iteration, arg2=worker)
    WORKER_CRASH = 31    # nonzero worker exit detected   (arg=worker)
    WORKER_TIMEOUT = 32  # hung worker killed             (arg=iteration, arg2=worker)
    RESPAWN = 33         # replacement worker spawned     (arg=new worker id)
    PRODUCER_CRASH = 34  # producer died mid-stream
    DEGRADE = 35         # engine fell back to sequential (arg=next_commit)
    CHECKPOINT = 36      # committed prefix checkpointed  (arg=next_commit)
    THROTTLE = 37        # window changed (detail: 0=shrink 1=grow, arg=new window)
    CHAOS = 38           # an injection fired (detail=ChaosCode, arg=iteration/index)

    # -- job-plane service stages (spans; arg=attempt unless noted) --------------
    ADMIT = 40            # POST /jobs validate + journal + enqueue
    QUEUE_WAIT = 41       # admission fsync -> scheduler pick (arg=attempt)
    SCHED_PICK = 42       # one FairScheduler.take decision   (arg=queue depth)
    LEASE_DISPATCH = 43   # pool lease -> engine construction (arg=attempt, arg2=workers)
    ARTIFACT_PERSIST = 44 # result -> journal append + fsync  (arg=attempt)
    RETRY_BACKOFF = 45    # failure -> next attempt's enqueue (arg=attempt)


class ChaosCode(IntEnum):
    """``detail`` values for :attr:`EventKind.CHAOS` records."""

    CRASH = 1
    HANG = 2
    SOFT_FAULT = 3
    FORCED_CONFLICT = 4
    RESULT_LATENCY = 5
    RESULT_DUPLICATE = 6
    RESULT_DROP = 7
    CHANNEL_LATENCY = 8
    CHANNEL_DUPLICATE = 9
    CHANNEL_DROP = 10


#: Kinds that are spans (both timestamps meaningful); everything else is an
#: instant whose ``t0 == t1``.
SPAN_KINDS = frozenset(
    {
        EventKind.TASK_A,
        EventKind.TASK_B,
        EventKind.TASK_C,
        EventKind.SERIAL_REEXEC,
        EventKind.QUEUE_PUT_WAIT,
        EventKind.QUEUE_GET_WAIT,
        EventKind.GATE_WAIT,
        EventKind.ADMIT,
        EventKind.QUEUE_WAIT,
        EventKind.SCHED_PICK,
        EventKind.LEASE_DISPATCH,
        EventKind.ARTIFACT_PERSIST,
        EventKind.RETRY_BACKOFF,
    }
)

#: The job-plane stages the service spool records around an engine run —
#: the vocabulary :mod:`repro.obs.jobtrace` stitches onto A/B/C spans.
SERVICE_KINDS = frozenset(
    {
        EventKind.ADMIT,
        EventKind.QUEUE_WAIT,
        EventKind.SCHED_PICK,
        EventKind.LEASE_DISPATCH,
        EventKind.ARTIFACT_PERSIST,
        EventKind.RETRY_BACKOFF,
    }
)

#: Robustness instants — the events the acceptance criteria count next to
#: commits when sizing a trace.
ROBUSTNESS_KINDS = frozenset(
    {
        EventKind.SOFT_FAULT,
        EventKind.WORKER_CRASH,
        EventKind.WORKER_TIMEOUT,
        EventKind.RESPAWN,
        EventKind.PRODUCER_CRASH,
        EventKind.DEGRADE,
        EventKind.CHAOS,
        EventKind.CONFLICT,
    }
)

#: Chrome-trace category per kind family (Perfetto groups/filters by these).
CATEGORY_BY_KIND = {
    EventKind.TASK_A: "task",
    EventKind.TASK_B: "task",
    EventKind.TASK_C: "task",
    EventKind.SERIAL_REEXEC: "recovery",
    EventKind.QUEUE_PUT_WAIT: "queue",
    EventKind.QUEUE_GET_WAIT: "queue",
    EventKind.GATE_WAIT: "throttle",
    EventKind.CLAIM: "commit",
    EventKind.COMMIT: "commit",
    EventKind.CONFLICT: "speculation",
    EventKind.SOFT_FAULT: "robustness",
    EventKind.WORKER_CRASH: "robustness",
    EventKind.WORKER_TIMEOUT: "robustness",
    EventKind.RESPAWN: "robustness",
    EventKind.PRODUCER_CRASH: "robustness",
    EventKind.DEGRADE: "robustness",
    EventKind.CHECKPOINT: "resilience",
    EventKind.THROTTLE: "throttle",
    EventKind.CHAOS: "chaos",
    EventKind.ADMIT: "service",
    EventKind.QUEUE_WAIT: "service",
    EventKind.SCHED_PICK: "service",
    EventKind.LEASE_DISPATCH: "service",
    EventKind.ARTIFACT_PERSIST: "service",
    EventKind.RETRY_BACKOFF: "service",
}

#: ``detail`` channel ids for queue-wait records.
CHANNEL_IDS = {"work": 0, "done": 1}
CHANNEL_NAMES = {index: name for name, index in CHANNEL_IDS.items()}


@dataclass(frozen=True)
class TraceConfig:
    """How one engine run is traced.  Picklable: it crosses the process
    boundary to every producer/worker at spawn.

    ``spool_dir``   — directory the per-process spool files are written to;
    ``max_events``  — ring capacity per process (oldest records are
    overwritten beyond it and counted as ``dropped_events`` — bounded,
    never silent);
    ``enabled``     — master switch; a disabled config is inert everywhere.
    """

    spool_dir: str
    max_events: int = 1 << 18
    enabled: bool = True

    def __post_init__(self):
        if self.max_events < 16:
            raise ValueError("max_events must be at least 16")


@dataclass(frozen=True)
class RawRecord:
    """One decoded spool record, still on the process-local perf clock."""

    seq: int
    kind: int
    detail: int
    arg: int
    arg2: int
    t0_ns: int
    t1_ns: int


@dataclass(frozen=True)
class Span:
    """A merged interval on the shared wall-clock axis (trace-relative ns)."""

    kind: EventKind
    role: str           # spool role: "producer", "worker-3", "committer"
    pid: int
    start_ns: int
    duration_ns: int
    arg: int = 0
    arg2: int = 0
    detail: int = 0
    aborted: bool = False

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    @property
    def seconds(self) -> float:
        return self.duration_ns / 1e9


@dataclass(frozen=True)
class Instant:
    """A merged point event on the shared wall-clock axis."""

    kind: EventKind
    role: str
    pid: int
    ts_ns: int
    arg: int = 0
    arg2: int = 0
    detail: int = 0
