"""Checkpoint/resume for the execution engine's committed prefix.

The committer is the single point of truth: everything before ``next_commit``
is final — the committed :class:`~repro.exec.rollback.CommittedStore` state,
the user accumulator, and the run counters.  A :class:`Checkpoint` freezes
exactly that prefix; :class:`CheckpointManager` takes one every
``interval`` commits (in the committer, never in a worker) and optionally
persists it to disk.

On disk a run's checkpoints form one append-only record log
(:mod:`repro.resilience.recordlog`), each record's body a pickled
:class:`Checkpoint`.  A run's first cut replaces the file atomically (temp
file + rename), so the file's existence still means "at least one complete
checkpoint"; each later cut is one append, until the log holds
:data:`LOG_RECORDS` records and the next cut starts it over with only
itself.  :meth:`Checkpoint.load` returns the newest record that checks out,
so a tail torn by a crash mid-append costs only that record.

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
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.resilience import recordlog

if TYPE_CHECKING:  # runtime import would be circular: engine imports us
    from repro.exec.metrics import EngineMetrics
    from repro.exec.rollback import CommittedStore, Location


#: A log holding this many records is rewritten with only the next one, so
#: the file never grows past this many records.
LOG_RECORDS = 8


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
    #: :meth:`~repro.exec.metrics.EngineMetrics.counters` at the cut
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

    def _record(self) -> bytes:
        """This checkpoint as one framed log record."""
        return recordlog.frame(
            pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def save(self, path: str) -> None:
        """Atomic persist: start the log at ``path`` over with this record."""
        recordlog.replace(path, [self._record()], durable=False)

    def append(self, path: str) -> None:
        """Append one record to the log at ``path`` (no rename)."""
        with open(path, "ab") as stream:
            stream.write(self._record())

    @staticmethod
    def load(path: str) -> "Checkpoint":
        """The newest whole record of the log at ``path``."""
        try:
            with open(path, "rb") as stream:
                raw = stream.read()
            records = recordlog.scan(raw).records
            checkpoint = records and pickle.loads(raw[slice(*records[-1])])
        except Exception as error:
            raise CheckpointError(
                f"cannot load checkpoint from {path!r}: {error}"
            ) from error
        if not records:
            raise CheckpointError(
                f"{path!r} holds no complete checkpoint record"
            )
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
    ``path``     — optional record log the run's checkpoints are persisted
    to (once it exists it holds at least one complete checkpoint, and at
    most :data:`LOG_RECORDS` of them);
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
    #: records this run has written to the log at ``config.path``
    _logged: int = 0

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
            metrics=metrics.counters(),
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
            # Reset first: a write that fails part-way leaves a log the
            # next cut must start over rather than append to.
            logged, self._logged = self._logged, 0
            if 0 < logged < LOG_RECORDS:
                checkpoint.append(self.config.path)
            else:
                checkpoint.save(self.config.path)
                logged = 0
            self._logged = logged + 1
        return checkpoint
