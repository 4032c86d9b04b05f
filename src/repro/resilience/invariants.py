"""Cross-layer invariant checking: what must hold after *any* run.

The resilience argument is only as strong as its checkable contract.  After
every chaos run (and in ordinary tests) the engine's observable record is
audited against the invariants the paper's execution model promises:

- **exactly-once commit** — every expected iteration committed exactly once
  (``commits == expected``), with no duplicate commit hidden in the stream;
- **in-order commit** — the committed sequence was the iteration order
  (``in_order_commits == commits``; the sequential-equivalence contract of
  observationally cooperative multithreading);
- **output fidelity** — bit-identical output to the sequential oracle;
- **bounded queues** — no channel ever observed above its occupancy bound
  (the paper's full/empty-blocking discipline: capacity, plus a frame per
  producer that passed its credit check at the same instant as another);
- **monotone checkpoints** — checkpoint indices strictly increase and the
  covered prefix never regresses;
- **metric consistency** — internal counters agree with each other (every
  conflict produced a serial re-execution, etc.).

A violation is never a bare assert: it is taxonomized
(:class:`InvariantKind`), carries a structured detail, and the batch raises
one :class:`InvariantError` naming everything that broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, List, Optional, Sequence


class InvariantKind(Enum):
    """The violation taxonomy."""

    EXACTLY_ONCE_COMMIT = "exactly-once-commit"
    IN_ORDER_COMMIT = "in-order-commit"
    OUTPUT_DIVERGENCE = "output-divergence"
    QUEUE_OCCUPANCY = "queue-occupancy-bound"
    CHECKPOINT_MONOTONICITY = "checkpoint-monotonicity"
    METRIC_CONSISTENCY = "metric-consistency"


@dataclass(frozen=True)
class InvariantViolation:
    kind: InvariantKind
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind.value}] {self.detail}"


class InvariantError(RuntimeError):
    """One or more invariants failed; carries the full taxonomized list."""

    def __init__(self, violations: Sequence[InvariantViolation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {violation}" for violation in self.violations]
        super().__init__("\n".join(lines))


_UNSET = object()


def check_run(
    result,
    *,
    expected_commits: Optional[int] = None,
    sequential_output: Any = _UNSET,
) -> List[InvariantViolation]:
    """Audit one :class:`~repro.exec.engine.EngineResult`.

    ``expected_commits`` defaults to the run's iteration count minus any
    resumed prefix; pass ``sequential_output`` to also check output
    fidelity against the oracle.
    """
    metrics = result.metrics
    violations: List[InvariantViolation] = []

    if expected_commits is None:
        expected_commits = metrics.iterations - (metrics.resumed_from or 0)
    if metrics.commits != expected_commits:
        violations.append(
            InvariantViolation(
                InvariantKind.EXACTLY_ONCE_COMMIT,
                f"expected {expected_commits} commits, saw {metrics.commits}",
            )
        )
    if metrics.in_order_commits != metrics.commits:
        violations.append(
            InvariantViolation(
                InvariantKind.IN_ORDER_COMMIT,
                f"{metrics.commits} commits but only "
                f"{metrics.in_order_commits} landed in iteration order",
            )
        )
    if sequential_output is not _UNSET and result.output != sequential_output:
        violations.append(
            InvariantViolation(
                InvariantKind.OUTPUT_DIVERGENCE,
                f"engine output {result.output!r} != sequential oracle "
                f"{sequential_output!r}",
            )
        )
    for name, stats in metrics.channel_stats.items():
        # ``ProcessChannel.occupancy_bound``: capacity plus a frame per
        # producer past the first.  Phase A and every worker may put on
        # either channel (a crashing worker hands its chunk back to
        # ``work``), so at most ``workers + 1`` producers at once.
        bound = (
            stats.get("capacity", 0)
            + metrics.workers * stats.get("batch_size", 1)
        )
        if stats.get("max_occupancy", 0) > bound:
            violations.append(
                InvariantViolation(
                    InvariantKind.QUEUE_OCCUPANCY,
                    f"channel {name!r} observed occupancy "
                    f"{stats['max_occupancy']} > its bound {bound} "
                    f"(capacity {stats['capacity']})",
                )
            )
        if stats.get("consumes", 0) > stats.get("produces", 0):
            violations.append(
                InvariantViolation(
                    InvariantKind.METRIC_CONSISTENCY,
                    f"channel {name!r} consumed {stats['consumes']} items "
                    f"but only {stats['produces']} were produced",
                )
            )
        if stats.get("flushes", 0) > stats.get("produces", 0):
            violations.append(
                InvariantViolation(
                    InvariantKind.METRIC_CONSISTENCY,
                    f"channel {name!r} recorded {stats['flushes']} frame "
                    f"flushes for only {stats['produces']} produced items",
                )
            )
    violations.extend(check_checkpoints(getattr(result, "checkpoints", [])))
    if metrics.serial_reexecutions < metrics.conflicts:
        violations.append(
            InvariantViolation(
                InvariantKind.METRIC_CONSISTENCY,
                f"{metrics.conflicts} conflicts but only "
                f"{metrics.serial_reexecutions} serial re-executions",
            )
        )
    if metrics.commits > metrics.iterations:
        violations.append(
            InvariantViolation(
                InvariantKind.METRIC_CONSISTENCY,
                f"{metrics.commits} commits exceed "
                f"{metrics.iterations} iterations",
            )
        )
    return violations


def check_checkpoints(checkpoints: Sequence) -> List[InvariantViolation]:
    """Monotonicity over a run's retained checkpoints."""
    violations: List[InvariantViolation] = []
    previous_index = None
    previous_cover = None
    for checkpoint in checkpoints:
        if previous_index is not None and checkpoint.index <= previous_index:
            violations.append(
                InvariantViolation(
                    InvariantKind.CHECKPOINT_MONOTONICITY,
                    f"checkpoint index {checkpoint.index} does not advance "
                    f"past {previous_index}",
                )
            )
        if previous_cover is not None and checkpoint.next_commit < previous_cover:
            violations.append(
                InvariantViolation(
                    InvariantKind.CHECKPOINT_MONOTONICITY,
                    f"checkpoint covers prefix {checkpoint.next_commit}, "
                    f"regressing from {previous_cover}",
                )
            )
        previous_index = checkpoint.index
        previous_cover = checkpoint.next_commit
    return violations


def assert_run(
    result,
    *,
    expected_commits: Optional[int] = None,
    sequential_output: Any = _UNSET,
) -> None:
    """:func:`check_run`, raising :class:`InvariantError` on any violation."""
    violations = check_run(
        result,
        expected_commits=expected_commits,
        sequential_output=sequential_output,
    )
    if violations:
        raise InvariantError(violations)
