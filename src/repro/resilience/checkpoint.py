"""Checkpoint/resume for the execution engine's committed prefix.

The committer is the single point of truth: everything before ``next_commit``
is final — the committed :class:`~repro.exec.rollback.CommittedStore` state,
the user accumulator, and the run counters.  A :class:`Checkpoint` freezes
exactly that prefix; :class:`CheckpointManager` takes one every
``interval`` commits (in the committer, never in a worker) and optionally
persists it to disk with an atomic write.

Resume (:meth:`repro.exec.engine.ExecutionEngine.run` with ``resume_from=``)
rebuilds the store and accumulator from the checkpoint and starts committing
at ``next_commit`` — phase A is replayed from iteration 0 so stateful
producers evolve deterministically, but no pre-checkpoint iteration executes
phase B or C again.  This is what turns a producer death, respawn-budget
exhaustion, or an engine-level crash from a cold sequential re-run into an
incremental restart.

Checkpoint indices are monotone by construction and checked again by
:mod:`repro.resilience.invariants`; a regression is a structured
taxonomized error, never silent corruption.
"""

from __future__ import annotations

import copy
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # runtime import would be circular: engine imports us
    from repro.exec.metrics import EngineMetrics
    from repro.exec.rollback import CommittedStore, Location


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken, loaded, or resumed from."""


def spec_fingerprint(spec) -> str:
    """A cheap compatibility stamp: resume only into the same-shaped run."""
    return f"iterations={spec.iterations}|speculative={int(spec.speculative)}"


@dataclass
class Checkpoint:
    """One frozen committed prefix of a run.

    ``index`` is the monotone sequence number of this checkpoint within (and
    across resumed segments of) one logical run; ``next_commit`` is the
    first iteration *not* covered — resume re-executes from there.
    """

    index: int
    next_commit: int
    store_values: Dict[Location, Any]
    store_versions: Dict[Location, int]
    store_commit_counter: int
    accumulator: Any
    metrics: dict
    fingerprint: str

    def restore_store(self) -> "CommittedStore":
        from repro.exec.rollback import CommittedStore

        return CommittedStore.restore(
            self.store_values, self.store_versions, self.store_commit_counter
        )

    def restore_accumulator(self) -> Any:
        # Deep copy so a resumed run never mutates the checkpoint in place —
        # the same checkpoint must support repeated resume attempts.
        return copy.deepcopy(self.accumulator)

    def save(self, path: str) -> None:
        """Atomic persist: write to a temp file, then rename into place."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        handle, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".checkpoint-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(self, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    @staticmethod
    def load(path: str) -> "Checkpoint":
        try:
            with open(path, "rb") as stream:
                checkpoint = pickle.load(stream)
        except (OSError, pickle.UnpicklingError, EOFError) as error:
            raise CheckpointError(
                f"cannot load checkpoint from {path!r}: {error}"
            ) from error
        if not isinstance(checkpoint, Checkpoint):
            raise CheckpointError(
                f"{path!r} does not contain a Checkpoint "
                f"(got {type(checkpoint).__name__})"
            )
        return checkpoint


@dataclass(frozen=True)
class CheckpointConfig:
    """How often to checkpoint and where.

    ``interval`` — commits between checkpoints;
    ``path``     — optional file the latest checkpoint is persisted to
    (atomically; the file always holds one complete checkpoint);
    ``keep``     — how many checkpoints stay resident in memory.
    """

    interval: int = 8
    path: Optional[str] = None
    keep: int = 8

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if self.keep < 1:
            raise ValueError("must keep at least one checkpoint")


@dataclass
class CheckpointManager:
    """Takes and records checkpoints for one engine run.

    Lives entirely in the committer.  ``indices`` keeps every index ever
    issued (cheap ints) so the monotonicity invariant can be audited even
    after old checkpoint payloads have been evicted from the ``keep`` ring.
    """

    config: CheckpointConfig
    fingerprint: str
    next_index: int = 0
    checkpoints: List[Checkpoint] = field(default_factory=list)
    indices: List[int] = field(default_factory=list)
    taken: int = 0
    _last_marked_commit: int = 0

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def due(self, next_commit: int) -> bool:
        """Have ``interval`` commits landed since the last checkpoint?  Lets
        the committer bring ``metrics`` up to date only when it takes one."""
        return next_commit - self._last_marked_commit >= self.config.interval

    def take(
        self,
        next_commit: int,
        store: CommittedStore,
        accumulator: Any,
        metrics: EngineMetrics,
    ) -> Checkpoint:
        latest = self.latest
        if latest is not None and next_commit < latest.next_commit:
            raise CheckpointError(
                f"checkpoint regression: next_commit {next_commit} < "
                f"already-checkpointed {latest.next_commit}"
            )
        values, versions, counter = store.export_state()
        checkpoint = Checkpoint(
            index=self.next_index,
            next_commit=next_commit,
            store_values=copy.deepcopy(values),
            store_versions=dict(versions),
            store_commit_counter=counter,
            accumulator=copy.deepcopy(accumulator),
            metrics=metrics.to_json(),
            fingerprint=self.fingerprint,
        )
        self.next_index += 1
        self.taken += 1
        self._last_marked_commit = next_commit
        self.indices.append(checkpoint.index)
        self.checkpoints.append(checkpoint)
        if len(self.checkpoints) > self.config.keep:
            del self.checkpoints[: -self.config.keep]
        if self.config.path:
            checkpoint.save(self.config.path)
        return checkpoint
