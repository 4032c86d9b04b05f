"""Frozen reference profile path the allocation-light one is diffed against.

Test-only: nothing in ``src/`` imports this module.  It holds the trace →
memory profile → plan → task graph → misspeculation path as it was when
every access was an ``AccessEvent`` dataclass, ``Tracer.task`` was a
generator context manager, ``MemoryProfile`` deduplicated through an
``emit`` closure and per-location sets, every dependence was a frozen
dataclass asked ``cross_iteration(tasks)``, and ``from_trace`` went through
``Phase(str)`` and ``add_edge`` per edge.  ``tests/test_profile_differential.py``
asserts the shipped path produces the same profile, plan, edges and report.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.tasks import Phase, SerializationEdge, Task, TaskGraph
from repro.profiling.events import (
    AccessKind,
    BranchEvent,
    Location,
    TaskRecord,
    ValueEvent,
)
from repro.profiling.tracer import TraceResult
from repro.speculation.base import SpeculationDecision, SpeculationKind, SynchronizationDecision
from repro.speculation.manager import SpeculationPlan
from repro.speculation.misspec import MisspeculationReport


@dataclass
class ReferenceAccessEvent:
    task_index: int
    kind: AccessKind
    location: Location
    commutative_group: Optional[str] = None
    silent: bool = False


class ReferenceTracer:
    def __init__(self) -> None:
        self._tasks: List[TaskRecord] = []
        self._accesses: List[ReferenceAccessEvent] = []
        self._values: List[ValueEvent] = []
        self._branches: List[BranchEvent] = []
        self._current: Optional[TaskRecord] = None
        self._commutative_stack: List[str] = []
        self._section_costs: Dict[Tuple[int, str], int] = {}
        self._last_written: Dict[Location, Hashable] = {}
        self._finished = False

    @contextmanager
    def task(self, phase: str, iteration: int):
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
        try:
            yield record
        finally:
            self._current = None

    def _attribution_index(self) -> int:
        if self._current is not None:
            return self._current.index
        if self._tasks:
            return self._tasks[-1].index
        raise RuntimeError("event recorded before any task was opened")

    def work(self, units: int = 1) -> None:
        if units < 0:
            raise ValueError("work units cannot be negative")
        if self._current is None:
            raise RuntimeError("work() outside any task")
        self._current.cost += units
        if self._commutative_stack:
            key = (self._current.index, self._commutative_stack[-1])
            self._section_costs[key] = self._section_costs.get(key, 0) + units

    def load(self, obj: str, key: Hashable = None) -> None:
        self._accesses.append(
            ReferenceAccessEvent(
                task_index=self._attribution_index(),
                kind=AccessKind.LOAD,
                location=(obj, key),
                commutative_group=self._active_group(),
            )
        )

    def store(self, obj: str, key: Hashable = None, value: Hashable = None) -> None:
        location: Location = (obj, key)
        silent = False
        if value is not None:
            silent = self._last_written.get(location) == value
            self._last_written[location] = value
        self._accesses.append(
            ReferenceAccessEvent(
                task_index=self._attribution_index(),
                kind=AccessKind.STORE,
                location=location,
                commutative_group=self._active_group(),
                silent=silent,
            )
        )

    @contextmanager
    def commutative(self, group: str):
        self._commutative_stack.append(group)
        try:
            yield
        finally:
            self._commutative_stack.pop()

    def _active_group(self) -> Optional[str]:
        return self._commutative_stack[-1] if self._commutative_stack else None

    def value(self, site: str, value: Hashable) -> None:
        self._values.append(ValueEvent(self._attribution_index(), site, value))

    def branch(self, site: str, taken: bool, is_ybranch: bool = False) -> None:
        self._branches.append(
            BranchEvent(self._attribution_index(), site, taken, is_ybranch)
        )

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


@dataclass(frozen=True)
class ReferenceDependence:
    source_index: int
    target_index: int
    kind: str
    location: Location

    def cross_iteration(self, tasks: List[TaskRecord]) -> bool:
        return tasks[self.source_index].iteration != tasks[self.target_index].iteration


class ReferenceMemoryProfile:
    def __init__(self, trace: TraceResult, honor_commutative: bool = True) -> None:
        self.trace = trace
        self.honor_commutative = honor_commutative
        self.dependences: List[ReferenceDependence] = []
        self.commutative_sections: Dict[str, List[int]] = defaultdict(list)
        self.location_accessors: Dict[Location, List[int]] = defaultdict(list)
        self._build()

    def _build(self) -> None:
        last_store: Dict[Location, int] = {}
        last_effective_store: Dict[Location, int] = {}
        loads_since_store: Dict[Location, List[int]] = defaultdict(list)
        seen_deps: Set[Tuple[int, int, str, Location]] = set()
        seen_sections: Dict[str, Set[int]] = defaultdict(set)
        seen_accessors: Dict[Location, Set[int]] = defaultdict(set)

        def emit(source: int, target: int, kind: str, location: Location) -> None:
            if source == target:
                return
            key = (source, target, kind, location)
            if key in seen_deps:
                return
            seen_deps.add(key)
            self.dependences.append(ReferenceDependence(source, target, kind, location))

        for event in self.trace.accesses:
            if event.commutative_group is not None and self.honor_commutative:
                group = event.commutative_group
                if event.task_index not in seen_sections[group]:
                    seen_sections[group].add(event.task_index)
                    self.commutative_sections[group].append(event.task_index)
                continue

            location = event.location
            if event.task_index not in seen_accessors[location]:
                seen_accessors[location].add(event.task_index)
                self.location_accessors[location].append(event.task_index)
            if event.kind is AccessKind.LOAD:
                source = last_effective_store.get(location)
                if source is not None:
                    emit(source, event.task_index, "raw", location)
                readers = loads_since_store[location]
                if not readers or readers[-1] != event.task_index:
                    readers.append(event.task_index)
            else:
                prior = last_store.get(location)
                if prior is not None:
                    emit(prior, event.task_index, "waw", location)
                for reader in loads_since_store[location]:
                    emit(reader, event.task_index, "war", location)
                loads_since_store[location] = []
                last_store[location] = event.task_index
                if not event.silent:
                    last_effective_store[location] = event.task_index

    def cross_iteration_dependences(self) -> List[ReferenceDependence]:
        tasks = self.trace.tasks
        return [d for d in self.dependences if d.cross_iteration(tasks)]


def reference_from_trace(
    trace: TraceResult,
    profile: Optional[ReferenceMemoryProfile] = None,
    plan: Optional[SpeculationPlan] = None,
) -> TaskGraph:
    tasks = [
        Task(
            index=record.index,
            phase=Phase(record.phase),
            iteration=record.iteration,
            cost=record.cost,
        )
        for record in trace.tasks
    ]
    for (task_index, group), cost in trace.section_costs.items():
        tasks[task_index].section_costs[group] = (
            tasks[task_index].section_costs.get(group, 0) + cost
        )

    graph = TaskGraph(tasks)
    if profile is None:
        return graph

    if plan is None:
        for dependence in profile.dependences:
            if dependence.source_index < dependence.target_index:
                graph.add_edge(
                    SerializationEdge(
                        dependence.source_index,
                        dependence.target_index,
                        reason="synchronization",
                        location=dependence.location,
                    )
                )
        return graph

    seen = set()
    for dependence in profile.dependences:
        if dependence.source_index >= dependence.target_index:
            continue
        if dependence.kind != "raw":
            continue
        if dependence.location in plan.speculated:
            reason = "misspeculation"
        elif dependence.location in plan.synchronized:
            reason = "synchronization"
        else:
            continue
        key = (dependence.source_index, dependence.target_index)
        if key in seen:
            continue
        seen.add(key)
        graph.add_edge(
            SerializationEdge(
                dependence.source_index,
                dependence.target_index,
                reason=reason,
                location=dependence.location,
            )
        )
    return graph


def reference_plan_from_profile(
    profile: ReferenceMemoryProfile,
    *,
    synchronize_rate_threshold: float = 0.6,
    forced_synchronized: Sequence[Location] = (),
    forced_speculated: Sequence[Location] = (),
) -> SpeculationPlan:
    plan = SpeculationPlan()
    plan.commutative_groups = sorted(profile.commutative_sections)

    iterations = max(profile.trace.iteration_count, 1)
    by_location: Dict[Location, List[ReferenceDependence]] = defaultdict(list)
    for dependence in profile.cross_iteration_dependences():
        by_location[dependence.location].append(dependence)

    forced_sync = set(forced_synchronized)
    forced_spec = set(forced_speculated)

    for location in sorted(by_location, key=str):
        dependences = by_location[location]
        conflicting_iterations = {
            profile.trace.tasks[d.target_index].iteration for d in dependences
        }
        rate = len(conflicting_iterations) / iterations
        if location in forced_sync:
            plan.synchronized.add(location)
            plan.synchronizations.append(
                SynchronizationDecision(str(location), reason="forced by case study", to_phase="A")
            )
        elif location in forced_spec or rate < synchronize_rate_threshold:
            plan.speculated.add(location)
            plan.decisions.append(
                SpeculationDecision(
                    SpeculationKind.ALIAS,
                    target=str(location),
                    expected_rate=rate,
                    note=f"{len(dependences)} dynamic dependences across "
                         f"{len(conflicting_iterations)} iterations",
                )
            )
        else:
            plan.synchronized.add(location)
            plan.synchronizations.append(
                SynchronizationDecision(
                    str(location),
                    reason=f"conflict rate {rate:.2%} >= threshold; "
                           "speculation would be excessive",
                )
            )
    return plan


def _reference_misspeculation_events(
    plan: SpeculationPlan, profile: ReferenceMemoryProfile
) -> List[ReferenceDependence]:
    tasks = profile.trace.tasks
    return [
        d for d in profile.dependences
        if d.kind == "raw"
        and d.location in plan.speculated
        and d.cross_iteration(tasks)
    ]


def reference_analyze_misspeculation(
    profile: ReferenceMemoryProfile, plan: SpeculationPlan, window: int = 32
) -> MisspeculationReport:
    tasks = profile.trace.tasks
    events = [
        e for e in _reference_misspeculation_events(plan, profile)
        if tasks[e.target_index].iteration - tasks[e.source_index].iteration <= window
    ]
    iterations_hit = sorted({tasks[e.target_index].iteration for e in events})
    by_location: Dict[Location, int] = defaultdict(int)
    for event in events:
        by_location[event.location] += 1
    report = MisspeculationReport(
        total_iterations=profile.trace.iteration_count,
        misspeculated_iterations=len(iterations_hit),
        events=events,
        by_location=dict(by_location),
    )
    report._iterations_hit = iterations_hit
    return report
