"""The tracer the workload analogs run under.

A workload's sequential execution is decomposed into *tasks* — dynamic
instances of statically marked phase regions (Section 3.1).  The workload
brackets each region with :meth:`Tracer.task`, accumulates deterministic
abstract work units with :meth:`Tracer.work`, and reports shared-state
accesses with :meth:`Tracer.load` / :meth:`Tracer.store`.  The result is a
:class:`TraceResult`: the task list plus raw event logs that the profile
classes condense.

Example::

    tracer = Tracer()
    for iteration, block in enumerate(blocks):
        with tracer.task("A", iteration):
            data = read_block(block)
            tracer.work(len(data))
        with tracer.task("B", iteration):
            out = compress(data)
            tracer.work(10 * len(data))
        with tracer.task("C", iteration):
            write(out)
            tracer.work(len(out))
    trace = tracer.finish()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.profiling.events import (
    AccessEvent,
    AccessKind,
    BranchEvent,
    Location,
    TaskRecord,
    ValueEvent,
)

_LOAD = AccessKind.LOAD
_STORE = AccessKind.STORE


@dataclass
class TraceResult:
    """Everything one sequential run produced.

    ``section_costs`` maps ``(task index, commutative group)`` to the work
    units spent inside that group's functions by that task — the duration of
    the atomic section the runtime must serialize against other group
    members (Section 2.3.2: Commutative functions "execute atomically").
    """

    tasks: List[TaskRecord] = field(default_factory=list)
    accesses: List[AccessEvent] = field(default_factory=list)
    values: List[ValueEvent] = field(default_factory=list)
    branches: List[BranchEvent] = field(default_factory=list)
    section_costs: Dict[Tuple[int, str], int] = field(default_factory=dict)

    @property
    def total_cost(self) -> int:
        """Single-threaded execution time in abstract work units."""
        return sum(task.cost for task in self.tasks)

    @property
    def iteration_count(self) -> int:
        if not self.tasks:
            return 0
        return max(task.iteration for task in self.tasks) + 1

    def tasks_in_phase(self, phase: str) -> List[TaskRecord]:
        return [task for task in self.tasks if task.phase == phase]

    def task_by_key(self, phase: str, iteration: int) -> TaskRecord:
        for task in self.tasks:
            if task.phase == phase and task.iteration == iteration:
                return task
        raise KeyError(f"no task {phase}{iteration}")


class _TaskScope:
    """What :meth:`Tracer.task` returns: opens the task on entry and closes
    it on exit, with no generator behind it."""

    __slots__ = ("tracer", "phase", "iteration")

    def __init__(self, tracer: "Tracer", phase: str, iteration: int) -> None:
        self.tracer = tracer
        self.phase = phase
        self.iteration = iteration

    def __enter__(self) -> TaskRecord:
        return self.tracer._open(self.phase, self.iteration)

    def __exit__(self, *exc_info) -> None:
        self.tracer._current = None


class _CommutativeScope:
    """What :meth:`Tracer.commutative` returns: pushes the group on entry
    and pops it on exit."""

    __slots__ = ("stack", "group")

    def __init__(self, stack: List[str], group: str) -> None:
        self.stack = stack
        self.group = group

    def __enter__(self) -> None:
        self.stack.append(self.group)

    def __exit__(self, *exc_info) -> None:
        self.stack.pop()


class Tracer:
    """Records tasks, work, memory accesses and profile events.

    The tracer is strictly sequential: at most one task is open at a time
    (tasks are regions of *one* loop iteration and the profiled run is the
    single-threaded original).  Accesses outside any task are attributed to
    the most recently closed task, matching the paper's treatment of
    non-region code (it rides with the preceding phase).
    """

    def __init__(self) -> None:
        self._tasks: List[TaskRecord] = []
        self._accesses: List[AccessEvent] = []
        self._values: List[ValueEvent] = []
        self._branches: List[BranchEvent] = []
        self._current: Optional[TaskRecord] = None
        self._commutative_stack: List[str] = []
        self._section_costs: Dict[Tuple[int, str], int] = {}
        self._last_written: Dict[Location, Hashable] = {}
        self._finished = False

    # -- task bracketing ---------------------------------------------------------

    def task(self, phase: str, iteration: int) -> _TaskScope:
        """Open a task for ``phase`` within ``iteration``; closes on exit."""
        return _TaskScope(self, phase, iteration)

    def _open(self, phase: str, iteration: int) -> TaskRecord:
        if self._finished:
            raise RuntimeError("tracer already finished")
        if phase not in ("A", "B", "C"):
            raise ValueError(f"phase must be A, B or C, got {phase!r}")
        if self._current is not None:
            raise RuntimeError(
                f"task {self._current!r} still open; tasks cannot nest"
            )
        record = TaskRecord(index=len(self._tasks), phase=phase, iteration=iteration)
        self._tasks.append(record)
        self._current = record
        return record

    def _attribution_index(self) -> int:
        if self._current is not None:
            return self._current.index
        if self._tasks:
            return self._tasks[-1].index
        raise RuntimeError("event recorded before any task was opened")

    # -- cost ---------------------------------------------------------------------

    def work(self, units: int = 1) -> None:
        """Charge ``units`` abstract work units to the open task."""
        if units < 0:
            raise ValueError("work units cannot be negative")
        if self._current is None:
            raise RuntimeError("work() outside any task")
        self._current.cost += units
        if self._commutative_stack:
            key = (self._current.index, self._commutative_stack[-1])
            self._section_costs[key] = self._section_costs.get(key, 0) + units

    # -- memory accesses -------------------------------------------------------------

    def load(self, obj: str, key: Hashable = None) -> None:
        current, groups = self._current, self._commutative_stack
        self._accesses.append((
            current.index if current is not None else self._attribution_index(),
            _LOAD, (obj, key), groups[-1] if groups else None, False,
        ))

    def store(self, obj: str, key: Hashable = None, value: Hashable = None) -> None:
        """Record a store; when ``value`` is given, silent stores are detected.

        A store is *silent* when it writes back the value already present
        (Lepak & Lipasti); the speculation layer exempts silent stores from
        alias-misspeculation accounting (Section 2.1).
        """
        location: Location = (obj, key)
        silent = False
        if value is not None:
            silent = self._last_written.get(location) == value
            self._last_written[location] = value
        current, groups = self._current, self._commutative_stack
        self._accesses.append((
            current.index if current is not None else self._attribution_index(),
            _STORE, location, groups[-1] if groups else None, silent,
        ))

    # -- Commutative context ------------------------------------------------------------

    def commutative(self, group: str) -> _CommutativeScope:
        """Accesses inside this context belong to Commutative group ``group``."""
        return _CommutativeScope(self._commutative_stack, group)

    # -- value / branch sites --------------------------------------------------------------

    def value(self, site: str, value: Hashable) -> None:
        """Record the observed ``value`` at profiling site ``site``."""
        self._values.append(
            ValueEvent(self._attribution_index(), site, value)
        )

    def branch(self, site: str, taken: bool, is_ybranch: bool = False) -> None:
        self._branches.append(
            BranchEvent(self._attribution_index(), site, taken, is_ybranch)
        )

    # -- completion ----------------------------------------------------------------------

    def finish(self) -> TraceResult:
        if self._current is not None:
            raise RuntimeError(f"task {self._current!r} still open at finish()")
        self._finished = True
        return TraceResult(
            tasks=self._tasks,
            accesses=self._accesses,
            values=self._values,
            branches=self._branches,
            section_costs=self._section_costs,
        )
