"""Executable versioned memory (Vachharajani et al. [33], Section 3.1).

The paper's simulator "assumes a versioned memory hardware subsystem,
allowing for privatization of data and memory alias speculation".  This
module makes the subsystem executable so its invariants can be tested
directly (and property-tested with hypothesis):

- every speculative *epoch* (one loop iteration / one task) sees its own
  private version of each location, seeded from the latest committed state
  and from *eagerly forwarded* values of earlier uncommitted epochs;
- a write is buffered in the epoch's version (privatization);
- conflict detection: when epoch *e* commits, any younger epoch that read a
  location *e* wrote — and read a value other than *e*'s — has
  misspeculated and must be squashed;
- *silent stores* ([15], Section 2.1) are detected at write time: a write of
  the already-visible value is recorded but never triggers conflicts;
- commit strictly in epoch order; rollback discards the version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Hashable, List, Set, Tuple

Location = Tuple[str, Hashable]


class EpochState(Enum):
    """Lifecycle of a speculative epoch."""

    RUNNING = "running"
    COMMITTED = "committed"
    SQUASHED = "squashed"


class ConflictError(RuntimeError):
    """Raised when commit order or version discipline is violated."""


@dataclass
class Epoch:
    """One speculative execution context (a loop iteration / task).

    ``reads`` maps each location to ``(value, source_epoch_number)`` — the
    version the read observed.  Conflict detection is version-based: a read
    is stale only if a committing older epoch wrote the location *and* the
    read's source version is older than the committer (the read bypassed the
    committer's write).
    """

    number: int
    state: EpochState = EpochState.RUNNING
    reads: Dict[Location, Tuple[Any, int]] = field(default_factory=dict)
    writes: Dict[Location, Any] = field(default_factory=dict)
    silent_writes: Set[Location] = field(default_factory=set)

    def __hash__(self) -> int:
        return hash(self.number)


class VersionedMemory:
    """The versioned memory subsystem.

    Epochs are created with :meth:`begin_epoch`, numbered in program order.
    :meth:`read`/:meth:`write` operate on an epoch's private version.
    :meth:`commit` must be called in epoch order; it returns the set of
    younger epochs that misspeculated and were squashed.  Squashed epochs
    must be re-executed in a fresh epoch via :meth:`reissue`.
    """

    def __init__(self, eager_forwarding: bool = True) -> None:
        #: committed architectural state
        self._memory: Dict[Location, Any] = {}
        #: epoch number that committed each location's current value
        self._committed_version: Dict[Location, int] = {}
        self._epochs: Dict[int, Epoch] = {}
        self._next_commit = 0
        self._next_number = 0
        self.eager_forwarding = eager_forwarding
        self.conflicts_detected = 0
        self.silent_stores_suppressed = 0

    # -- epoch lifecycle --------------------------------------------------------

    def begin_epoch(self) -> Epoch:
        epoch = Epoch(self._next_number)
        self._epochs[epoch.number] = epoch
        self._next_number += 1
        return epoch

    def reissue(self, squashed: Epoch) -> Epoch:
        """Create a fresh epoch to re-execute a squashed one's work.

        The fresh epoch takes the squashed epoch's *commit slot* so commit
        order matches original iteration order.
        """
        if squashed.state is not EpochState.SQUASHED:
            raise ConflictError(f"epoch {squashed.number} is not squashed")
        fresh = Epoch(squashed.number)
        fresh.state = EpochState.RUNNING
        self._epochs[squashed.number] = fresh
        return fresh

    # -- accesses -------------------------------------------------------------------

    def read(self, epoch: Epoch, obj: str, key: Hashable = None) -> Any:
        self._check_running(epoch)
        location: Location = (obj, key)
        value, source = self._visible_value(epoch, location)
        # The read *set* keeps the first observation per location: later
        # reads may be satisfied by the epoch's own write, but the epoch's
        # fate still hinges on the version it originally speculated on.
        if location not in epoch.reads:
            epoch.reads[location] = (value, source)
        return value

    def write(self, epoch: Epoch, obj: str, key: Hashable, value: Any) -> None:
        self._check_running(epoch)
        location: Location = (obj, key)
        visible, _ = self._visible_value(epoch, location)
        if visible == value and location not in epoch.writes:
            # Silent store: record for completeness, never a conflict source.
            epoch.silent_writes.add(location)
            self.silent_stores_suppressed += 1
        epoch.writes[location] = value

    def _visible_value(self, epoch: Epoch, location: Location) -> Tuple[Any, int]:
        """(value, source epoch number) visible to ``epoch`` at ``location``."""
        # Own version first.
        if location in epoch.writes:
            return epoch.writes[location], epoch.number
        # Eager forwarding: newest write of the closest older running epoch
        # (Section 2.1: "stored values should be eagerly forwarded to later
        # threads to avoid misspeculation" [10]).
        if self.eager_forwarding:
            for number in range(epoch.number - 1, self._next_commit - 1, -1):
                older = self._epochs.get(number)
                if older is None or older.state is not EpochState.RUNNING:
                    continue
                if location in older.writes:
                    return older.writes[location], number
        return self._memory.get(location), self._committed_version.get(location, -1)

    # -- commit / rollback -----------------------------------------------------------

    def commit(self, epoch: Epoch) -> List[Epoch]:
        """Commit ``epoch``; squash and return misspeculated younger epochs."""
        self._check_running(epoch)
        if epoch.number != self._next_commit:
            raise ConflictError(
                f"epoch {epoch.number} cannot commit before epoch {self._next_commit}"
            )
        squashed: List[Epoch] = []
        effective_writes = {
            location: value
            for location, value in epoch.writes.items()
            if location not in epoch.silent_writes
        }
        for number in sorted(self._epochs):
            if number <= epoch.number:
                continue
            younger = self._epochs[number]
            if younger.state is not EpochState.RUNNING:
                continue
            for location, (seen, source) in younger.reads.items():
                if location not in effective_writes:
                    continue
                # Version check: the read is stale only if it bypassed this
                # commit's write (its source version is older than us).
                if source < epoch.number and seen != effective_writes[location]:
                    younger.state = EpochState.SQUASHED
                    self.conflicts_detected += 1
                    squashed.append(younger)
                    break
        # Cascade: an epoch that forwarded a value out of a now-squashed
        # epoch read a version that will never commit — squash it too.
        frontier = list(squashed)
        while frontier:
            bad = frontier.pop()
            for number in sorted(self._epochs):
                if number <= bad.number:
                    continue
                younger = self._epochs[number]
                if younger.state is not EpochState.RUNNING:
                    continue
                if any(source == bad.number for _, source in younger.reads.values()):
                    younger.state = EpochState.SQUASHED
                    self.conflicts_detected += 1
                    squashed.append(younger)
                    frontier.append(younger)
        self._memory.update(epoch.writes)
        for location in epoch.writes:
            self._committed_version[location] = epoch.number
        epoch.state = EpochState.COMMITTED
        self._next_commit += 1
        return squashed

    def rollback(self, epoch: Epoch) -> None:
        """Discard an epoch's version without committing."""
        if epoch.state is EpochState.COMMITTED:
            raise ConflictError(f"epoch {epoch.number} already committed")
        epoch.state = EpochState.SQUASHED
        epoch.writes.clear()
        epoch.silent_writes.clear()

    # -- queries -----------------------------------------------------------------------

    def committed_value(self, obj: str, key: Hashable = None) -> Any:
        return self._memory.get((obj, key))

    def architectural_state(self) -> Dict[Location, Any]:
        return dict(self._memory)

    @property
    def next_commit_number(self) -> int:
        return self._next_commit

    def _check_running(self, epoch: Epoch) -> None:
        current = self._epochs.get(epoch.number)
        if current is not epoch:
            raise ConflictError(
                f"epoch {epoch.number} was reissued; stale handle used"
            )
        if epoch.state is not EpochState.RUNNING:
            raise ConflictError(f"epoch {epoch.number} is {epoch.state.value}")
