"""Job model and request resolution for the service.

A job is one pipeline run requested over the API: a workload name plus
parameters, owned by a tenant, moving through ``queued -> running ->
done | failed | cancelled``.  Two workload families are accepted:

- any suite benchmark that declares its loop as a ``spec`` (``164.gzip``,
  ``197.parser``, ``256.bzip2``, ...) — the paper's analogs on the engine;
- ``synthetic`` — a deterministic spin-work pipeline whose ``iterations``
  and ``spin`` parameters make it the natural load/chaos generator for
  tests and smoke scripts.

``params.chaos`` (``{"conflicts": k, "errors": m, "crashes": c, "seed": s}``)
is drawn by :func:`~repro.resilience.chaos.chaos_plan`.  Storm seeding
is the point: forced conflicts/errors drive the serial-re-execution rate up
until the tenant's watchdog flags a misspeculation storm and its persistent
throttle clamps the window — all without changing the job's *output*, which
stays bit-identical to a sequential run (the isolation tests depend on
exactly this property).  ``producer_crash_at`` is structurally impossible
here: phase A runs as a thread in the server process (see
:mod:`repro.service.pool`), so requests cannot express it and the lease
runtime rejects it defensively.
"""

from __future__ import annotations

import random
import time
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.exec.engine import PipelineSpec
from repro.exec.faults import FaultPlan
from repro.workloads.suite import SUITE, exec_names

#: The non-benchmark workload: parameterized deterministic spin work.
SYNTHETIC = "synthetic"

_MAX_ITERATIONS = 200_000
_MAX_SPIN = 1_000_000
#: Crash injections per job are capped below the engine's default respawn
#: budget so a single chaotic job cannot push itself into degradation.
_MAX_CRASHES = 2


class JobState(str, Enum):
    """Lifecycle of a submitted job; the string values are the API's."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: A poison job: its bounded retries exhausted without a clean run.
    #: Terminal like FAILED, but distinguishable so operators can see
    #: "this job was *retried* and still failed" at a glance.
    DEAD_LETTER = "dead_letter"


#: States a job can never leave.
TERMINAL_STATES = (
    JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.DEAD_LETTER,
)

#: Retry policy bounds: attempts are bounded (a poison job must land in
#: dead-letter, not loop forever) and backoff is capped.
_MAX_ATTEMPTS_LIMIT = 10
_MAX_BACKOFF_S = 30.0
_MAX_DEADLINE_S = 24 * 3600.0


def _synthetic_produce(i: int) -> int:
    return i


class _SpinWork:
    """Deterministic LCG spin — CPU-bound, value-dependent, picklable."""

    def __init__(self, spin: int) -> None:
        self.spin = spin

    def __call__(self, i: int, value: int) -> int:
        acc = 0
        for k in range(self.spin):
            acc = (acc * 1664525 + value + k + 1013904223) % (1 << 32)
        return acc


def _synthetic_spec(
    iterations: int,
    spin: int,
    fail_at: Optional[int] = None,
    fail_attempts: Optional[int] = None,
    attempt: int = 1,
) -> PipelineSpec:
    """The synthetic spin pipeline, optionally poisoned.

    ``fail_at`` makes the *commit* of that iteration raise — the in-order
    committer dies exactly there, so everything before it is committed
    (checkpointable) and nothing after it is.  ``fail_attempts`` bounds the
    poison to the first k attempts (a *transient* fault: retry k+1 resumes
    from the checkpoint and completes); None poisons every attempt, which
    is how a job earns its way into dead-letter.  Deterministic by
    construction — the retry/dead-letter tests replay these exactly.
    """
    inject = fail_at is not None and (
        fail_attempts is None or attempt <= fail_attempts
    )

    def commit(i: int, result: int, acc: dict) -> None:
        if inject and i == fail_at:
            raise RuntimeError(
                f"injected commit failure at iteration {i} "
                f"(attempt {attempt})"
            )
        acc["checksum"] = (acc.get("checksum", 0) * 31 + result) % (1 << 32)
        acc["items"] = acc.get("items", 0) + 1

    return PipelineSpec(
        iterations=iterations,
        produce=_synthetic_produce,
        work=_SpinWork(spin),
        commit=commit,
    )


def known_workloads() -> list:
    """Workload names the service accepts."""
    return [SYNTHETIC] + exec_names()


def compile_chaos(
    chaos: Optional[Dict[str, Any]], iterations: int
) -> Optional[FaultPlan]:
    """A seeded fault plan from request parameters (None = clean run),
    drawn by :func:`~repro.resilience.chaos.chaos_plan` — disjoint
    iterations from one seeded stream, so a given ``(chaos, iterations)``
    pair always injects the same schedule: reproducible storms.
    """
    if not chaos:
        return None
    if not isinstance(chaos, dict):
        raise ValueError("chaos must be an object")
    conflicts = int(chaos.get("conflicts", 0))
    errors = int(chaos.get("errors", 0))
    crashes = int(chaos.get("crashes", 0))
    seed = int(chaos.get("seed", 0))
    unknown = set(chaos) - {"conflicts", "errors", "crashes", "seed"}
    if unknown:
        raise ValueError(f"unknown chaos keys: {sorted(unknown)}")
    if min(conflicts, errors, crashes) < 0:
        raise ValueError("chaos counts cannot be negative")
    if crashes > _MAX_CRASHES:
        raise ValueError(f"at most {_MAX_CRASHES} crash injections per job")
    if conflicts + errors > iterations:
        raise ValueError("more chaos injections than iterations")
    if conflicts + errors + crashes == 0:
        return None
    from repro.resilience.chaos import ChaosConfig, chaos_plan

    config = ChaosConfig.only(
        crashes=crashes, soft_faults=errors, conflicts=conflicts
    )
    return chaos_plan(iterations, seed, config)


def resolve_retry(params: Dict[str, Any]) -> Tuple[int, float]:
    """``(max_attempts, backoff_base_s)`` from ``params.retry``.

    Default is ``(1, 0)`` — a failure is terminal, exactly the pre-retry
    behavior; jobs opt in explicitly.  Raises ``ValueError`` (→ 400) on
    anything malformed.
    """
    retry = params.get("retry")
    if retry is None:
        return 1, 0.0
    if not isinstance(retry, dict):
        raise ValueError("retry must be an object")
    unknown = set(retry) - {"max_attempts", "backoff_base"}
    if unknown:
        raise ValueError(f"unknown retry keys: {sorted(unknown)}")
    max_attempts = int(retry.get("max_attempts", 3))
    if not 1 <= max_attempts <= _MAX_ATTEMPTS_LIMIT:
        raise ValueError(
            f"retry.max_attempts must be in [1, {_MAX_ATTEMPTS_LIMIT}]"
        )
    backoff = float(retry.get("backoff_base", 0.2))
    if not 0.0 <= backoff <= _MAX_BACKOFF_S:
        raise ValueError(
            f"retry.backoff_base must be in [0, {_MAX_BACKOFF_S}]"
        )
    return max_attempts, backoff


def resolve_deadline(params: Dict[str, Any]) -> Optional[float]:
    """``params.deadline_s`` validated (None = no deadline)."""
    deadline = params.get("deadline_s")
    if deadline is None:
        return None
    deadline = float(deadline)
    if not 0.0 < deadline <= _MAX_DEADLINE_S:
        raise ValueError(f"deadline_s must be in (0, {_MAX_DEADLINE_S}]")
    return deadline


def retry_delay(job_id: str, attempt: int, backoff_base: float) -> float:
    """Exponential backoff with deterministic jitter.

    Jitter is seeded from ``(job_id, attempt)`` so a replayed recovery
    schedules the same waits — the service keeps the engine's discipline
    that randomness is always replayable from its seed.
    """
    if backoff_base <= 0.0:
        return 0.0
    base = min(_MAX_BACKOFF_S, backoff_base * (2 ** (attempt - 1)))
    jitter = random.Random(f"{job_id}/retry/{attempt}").uniform(0.0, 0.5)
    return min(_MAX_BACKOFF_S, base * (1.0 + jitter))


class Job:
    """One submitted pipeline run.  Field mutation happens only under the
    service lock; ``lease``/``engine`` are live-run handles (never
    serialized) used for cancellation and live health."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        workload: str,
        params: Dict[str, Any],
        iterations: int,
        fault_plan: Optional[FaultPlan],
        idempotency_key: Optional[str] = None,
        submitted_unix: Optional[float] = None,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.workload = workload
        self.params = params
        self.iterations = iterations
        self.fault_plan = fault_plan
        self.idempotency_key = idempotency_key
        self.state = JobState.QUEUED
        self.submitted_unix = (
            submitted_unix if submitted_unix is not None else time.time()
        )
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        self.cancel_requested = False
        self.output: Any = None
        self.metrics: Optional[dict] = None
        self.error: Optional[str] = None
        self.lease = None
        self.engine = None
        # -- durability plane ----------------------------------------------
        self.max_attempts, self.retry_backoff = resolve_retry(params)
        deadline_s = resolve_deadline(params)
        self.deadline_unix: Optional[float] = (
            self.submitted_unix + deadline_s if deadline_s else None
        )
        #: Attempts *started* (1 on the first dispatch).
        self.attempts = 0
        #: Committed-prefix iteration the last run resumed from (0 = fresh).
        self.resumed_from = 0
        #: True once the output lives in the journal, not in memory.
        self.output_spilled = False
        #: True if this job object was rebuilt from the journal at startup.
        self.recovered = False
        #: True when the deadline (not a client) requested the cancel.
        self.deadline_fired = False
        # -- tracing plane (repro.obs.jobtrace) -----------------------------
        #: Live :class:`~repro.obs.jobtrace.JobTrace` while the job is
        #: traced and in flight; dropped once the trace is finalized.
        self.trace = None
        #: Per-job spool directory (service + engine spools).
        self.trace_dir: Optional[str] = None
        #: True when ``trace_dir`` is a temp dir (in-memory server) that
        #: must be deleted after the merge.
        self.trace_ephemeral = False
        #: Merged Chrome trace / compact timeline.  Durable servers drop
        #: the (large) Chrome trace after spilling it to the artifact
        #: store; the in-memory server keeps both here.
        self.trace_data: Optional[dict] = None
        self.timeline_data: Optional[dict] = None
        #: Critical-path bottleneck analysis (``repro.obs.analyze``) for a
        #: traced job; durable servers also persist it as an artifact.
        self.bottleneck_data: Optional[dict] = None
        #: Post-mortem bundle: artifact path when durable, the bundle
        #: itself when the server has no artifact store.
        self.postmortem_path: Optional[str] = None
        self.postmortem_data: Optional[dict] = None

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Seconds between admission and dispatch (None while queued)."""
        if self.started_unix is not None:
            return self.started_unix - self.submitted_unix
        if self.state is JobState.CANCELLED and self.finished_unix is not None:
            return self.finished_unix - self.submitted_unix
        return None

    @property
    def deadline_exceeded(self) -> bool:
        return (
            self.deadline_unix is not None
            and time.time() > self.deadline_unix
        )

    def build_spec(self) -> PipelineSpec:
        """A fresh spec for this job — fresh, because suite producers are
        stateful and must start from their initial state every run.
        ``attempts`` feeds the synthetic fault injection so transient
        poisons stop firing after their configured attempt."""
        return build_spec(self.workload, self.params, attempt=max(1, self.attempts))

    def to_json(self, full: bool = False) -> dict:
        data = {
            "id": self.id,
            "tenant": self.tenant,
            "workload": self.workload,
            "state": self.state.value,
            "iterations": self.iterations,
            "submitted_unix": round(self.submitted_unix, 3),
            "started_unix": (
                round(self.started_unix, 3) if self.started_unix else None
            ),
            "finished_unix": (
                round(self.finished_unix, 3) if self.finished_unix else None
            ),
            "cancel_requested": self.cancel_requested,
            "error": self.error,
        }
        wait = self.queue_wait_s
        data["queue_wait_s"] = round(wait, 6) if wait is not None else None
        if self.attempts > 1 or self.max_attempts > 1:
            data["attempts"] = self.attempts
            data["max_attempts"] = self.max_attempts
        if self.deadline_unix is not None:
            data["deadline_unix"] = round(self.deadline_unix, 3)
            data["deadline_fired"] = self.deadline_fired
        if self.idempotency_key is not None:
            data["idempotency_key"] = self.idempotency_key
        if self.recovered:
            data["recovered"] = True
        if self.resumed_from:
            data["resumed_from"] = self.resumed_from
        if (
            self.trace is not None
            or self.trace_data is not None
            or self.timeline_data is not None
        ):
            data["traced"] = True
        if self.postmortem_path or self.postmortem_data:
            data["postmortem"] = True
        if full:
            data["params"] = self.params
            data["metrics"] = self.metrics
        return data


def resolve_iterations(workload: str, params: Dict[str, Any]) -> int:
    """Validate a request and return its iteration count (raises
    ``ValueError`` on anything malformed — the API maps that to 400)."""
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    # Durability-plane params, valid for every workload; validated for
    # side effects (each raises ValueError on malformed input).
    resolve_retry(params)
    resolve_deadline(params)
    if not isinstance(params.get("trace", False), bool):
        raise ValueError("trace must be a boolean")
    common = {"chaos", "retry", "deadline_s", "trace"}
    if workload == SYNTHETIC:
        iterations = int(params.get("iterations", 48))
        spin = int(params.get("spin", 2000))
        if not 1 <= iterations <= _MAX_ITERATIONS:
            raise ValueError(
                f"iterations must be in [1, {_MAX_ITERATIONS}]"
            )
        if not 1 <= spin <= _MAX_SPIN:
            raise ValueError(f"spin must be in [1, {_MAX_SPIN}]")
        fail_at = params.get("fail_at")
        if fail_at is not None and not 0 <= int(fail_at) < iterations:
            raise ValueError("fail_at must be in [0, iterations)")
        fail_attempts = params.get("fail_attempts")
        if fail_attempts is not None and int(fail_attempts) < 1:
            raise ValueError("fail_attempts must be >= 1")
        unknown = set(params) - common - {
            "iterations", "spin", "fail_at", "fail_attempts",
        }
        if unknown:
            raise ValueError(f"unknown params: {sorted(unknown)}")
        return iterations
    if workload not in exec_names():
        raise ValueError(
            f"unknown workload {workload!r}; known: {known_workloads()}"
        )
    unknown = set(params) - common
    if unknown:
        raise ValueError(f"unknown params: {sorted(unknown)}")
    return SUITE[workload]().exec_spec().iterations


def build_spec(
    workload: str, params: Dict[str, Any], attempt: int = 1
) -> PipelineSpec:
    if workload == SYNTHETIC:
        fail_at = params.get("fail_at")
        fail_attempts = params.get("fail_attempts")
        return _synthetic_spec(
            int(params.get("iterations", 48)),
            int(params.get("spin", 2000)),
            fail_at=int(fail_at) if fail_at is not None else None,
            fail_attempts=(
                int(fail_attempts) if fail_attempts is not None else None
            ),
            attempt=attempt,
        )
    return SUITE[workload]().exec_spec()
