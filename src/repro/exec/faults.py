"""Fault injection and the engine's robustness policy.

Real multiprocess pipelines fail in ways the threaded runtime never could:
a worker segfaults, hangs, or the producer dies mid-stream.  The engine
treats every such event as a *misspeculation of the scheduling kind* — the
lost task is re-executed serially by the committer and committed exactly
once, in order.

:class:`FaultPlan` describes deliberate failures.  Seeded plans all come
from one sampler, :func:`repro.resilience.chaos.chaos_plan`: ``exec
--chaos``, ``exec --inject-faults`` (one crash, one soft fault) and the
service's ``params.chaos`` differ only in the counts of the
:class:`~repro.resilience.chaos.ChaosConfig` they hand it.  Every stage
that fires an injection says so through :func:`announce`.
:class:`RobustnessPolicy` bounds how patient and how forgiving the engine
is (per-task timeout, respawn budget, and the stall deadline after which
it degrades to sequential execution).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional

from repro.obs.events import ChaosCode, EventKind

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FaultPlan:
    """Deliberate failures, keyed by the iteration a worker picks up.

    ``crash_iterations``  — the worker hard-exits (``os._exit``) after
    claiming the task: a real process death, detected by the engine through
    the exit code, never through an exception.
    ``error_iterations``  — the worker raises; it reports the fault and
    survives (a soft fault).
    ``hang_iterations``   — the worker sleeps past the policy's task
    timeout, forcing the engine to declare it hung and kill it.
    ``producer_crash_at`` — the producer hard-exits before dispatching this
    iteration, exercising the sequential-fallback path.

    The chaos-harness extensions (:mod:`repro.resilience.chaos`) inject
    misbehaviour *between* healthy execution and hard failure:

    ``conflict_iterations``  — the worker poisons its reported read set so
    commit-time validation fails (a forced misspeculation; on
    non-speculative specs it degenerates to a soft fault);
    ``latency_iterations``   — the worker sleeps ``latency_seconds`` before
    reporting its result (a channel latency spike);
    ``duplicate_result_iterations`` — the result message is sent twice,
    exercising the committer's exactly-once dedup;
    ``drop_result_iterations``      — the result message is silently lost;
    recovery rides the hung-task timeout path.

    Crashes fire at most once per iteration by construction: a claimed
    iteration is retried *serially* by the committer, where no injection
    applies.
    """

    crash_iterations: FrozenSet[int] = field(default_factory=frozenset)
    error_iterations: FrozenSet[int] = field(default_factory=frozenset)
    hang_iterations: FrozenSet[int] = field(default_factory=frozenset)
    hang_seconds: float = 60.0
    producer_crash_at: Optional[int] = None
    conflict_iterations: FrozenSet[int] = field(default_factory=frozenset)
    latency_iterations: FrozenSet[int] = field(default_factory=frozenset)
    latency_seconds: float = 0.02
    duplicate_result_iterations: FrozenSet[int] = field(
        default_factory=frozenset
    )
    drop_result_iterations: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        for name in (
            "crash_iterations",
            "error_iterations",
            "hang_iterations",
            "conflict_iterations",
            "latency_iterations",
            "duplicate_result_iterations",
            "drop_result_iterations",
        ):
            object.__setattr__(self, name, frozenset(getattr(self, name)))

    @property
    def injected_fault_count(self) -> int:
        """Total distinct injections this plan will attempt."""
        return (
            len(self.crash_iterations)
            + len(self.error_iterations)
            + len(self.hang_iterations)
            + len(self.conflict_iterations)
            + len(self.latency_iterations)
            + len(self.duplicate_result_iterations)
            + len(self.drop_result_iterations)
            + (1 if self.producer_crash_at is not None else 0)
        )

    def clamped_to(self, policy: "RobustnessPolicy") -> "FaultPlan":
        """Bound ``hang_seconds`` by the policy's task timeout (plus a grace
        margin so the hang is still *detected* as a hang).

        A misconfigured ``hang_seconds`` of minutes against a sub-second
        ``task_timeout`` would otherwise stall teardown paths toward CI's
        job ceiling; the engine applies this clamp at start.
        """
        ceiling = policy.task_timeout + max(1.0, 4 * policy.poll_interval)
        if self.hang_seconds <= ceiling:
            return self
        return replace(self, hang_seconds=ceiling)


def announce(
    code: ChaosCode,
    i: int,
    where: str,
    tracer=None,
    *,
    worker: int = 0,
    registry=None,
    writer: int = 0,
    flush: bool = False,
) -> None:
    """Say that injection ``code`` fired at ``i`` (an iteration, or a
    put index for the channel codes) in ``where``: one log line, the
    ``chaos_injections`` counter when a live ``registry`` is given, and
    one :attr:`EventKind.CHAOS` instant (``arg2`` = ``worker``) on the
    stage's spool.  ``flush`` pushes the spool to disk at once — for an
    injection the process may not survive (a crash, a hang that ends in
    a kill)."""
    logger.info("injected %s at %d in %s", code.name.lower(), i, where)
    if registry is not None:
        registry.add(writer, "chaos_injections")
    if tracer is not None:
        tracer.instant(EventKind.CHAOS, arg=i, arg2=worker, detail=int(code))
        if flush:
            tracer.flush()


class InjectedFault(RuntimeError):
    """The soft fault a worker raises for ``error_iterations``."""


@dataclass(frozen=True)
class RobustnessPolicy:
    """How patient and forgiving the engine is.

    ``task_timeout``  — seconds a claimed task may run before its worker is
    presumed hung and killed;
    ``stall_timeout`` — seconds without any commit progress before the
    engine abandons the pipeline and finishes sequentially;
    ``max_respawns``  — total replacement workers across the run; beyond
    this budget dead workers stay dead (graceful degradation);
    ``poll_interval`` — the committer's channel-poll granularity, which is
    also the health-check and occupancy-sampling cadence;
    ``join_timeout``  — seconds to wait for clean child exit at teardown
    before resorting to ``terminate``.
    """

    task_timeout: float = 30.0
    stall_timeout: float = 60.0
    max_respawns: int = 3
    poll_interval: float = 0.05
    join_timeout: float = 5.0

    def __post_init__(self):
        if self.task_timeout <= 0 or self.stall_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        if self.max_respawns < 0:
            raise ValueError("respawn budget cannot be negative")
