"""Condense an access log into dynamic task-to-task dependences.

This is the paper's "memory profiling pass run prior to simulation"
(Section 3.1): the simulator is informed of the dynamic dependences that
actually occurred, which models serialization due to misspeculation without
charging an extra misspeculation penalty.

Rules:

- RAW: a load sees a dependence from the most recent store to its location.
- WAW: a store depends on the most recent prior store to its location.
- WAR: a store depends on loads of the location since the last store.
- Accesses within the same *Commutative* group never depend on each other —
  the annotation declares all orders legal (Section 2.3.2).  They are instead
  collected as *atomic sections* so the runtime can enforce that group
  members execute atomically with respect to one another.
- Silent stores do not create RAW/WAW sources (Section 2.1, [15]): a reader
  after a silent store reads the same value the previous store produced, so
  the dependence is charged to that earlier store.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Set, Tuple

from repro.profiling.events import AccessKind, Location, TaskRecord
from repro.profiling.tracer import TraceResult

_LOAD = AccessKind.LOAD


class DynamicDependence(NamedTuple):
    """A dependence observed between two dynamic tasks.

    ``location`` names the shared state responsible; ``kind`` is
    RAW/WAR/WAW.  Self-dependences (same task) are never reported.
    """

    source_index: int
    target_index: int
    kind: str
    location: Location

    def cross_iteration(self, tasks: List[TaskRecord]) -> bool:
        return tasks[self.source_index].iteration != tasks[self.target_index].iteration


class MemoryProfile:
    """Dynamic dependences plus Commutative atomic-section bookkeeping."""

    def __init__(self, trace: TraceResult, honor_commutative: bool = True) -> None:
        """``honor_commutative=False`` treats Commutative-tagged accesses as
        ordinary accesses — the ablation that shows what the annotation buys
        (the paper's gcc/crafty/twolf case studies describe exactly this
        failure mode: alias speculation alone drowns in misspeculation)."""
        self.trace = trace
        self.honor_commutative = honor_commutative
        self.dependences: List[DynamicDependence] = []
        #: group name -> ordered list of task indices that entered the group;
        #: the runtime must serialize these pairwise (atomicity), though in
        #: any order.
        self.commutative_sections: Dict[str, List[int]] = defaultdict(list)
        #: location -> task indices that touched it (first-touch order,
        #: commutative accesses excluded).  Synchronization chains all
        #: accessors of a location in this order.
        self.location_accessors: Dict[Location, List[int]] = defaultdict(list)
        self._build()

    def _build(self) -> None:
        # Task indices never decrease along the access list, so "task t is
        # already recorded" is "t was recorded last", and neither a WAW nor
        # a WAR pair can repeat (its reader or prior store would have to
        # come after the store that reset it).  A task can reach the same
        # RAW source again across its own silent store: ``seen_raw``.
        honor_commutative = self.honor_commutative
        sections = self.commutative_sections
        accessors = self.location_accessors
        append = self.dependences.append
        seen_raw: Set[Tuple[int, int, Location]] = set()
        # location -> [last store, last non-silent store, tasks that
        # loaded since the last store, the location's accessor list]
        states: Dict[Location, list] = {}
        for task, kind, location, group, silent in self.trace.accesses:
            if group is not None and honor_commutative:
                members = sections[group]
                if not members or members[-1] != task:
                    members.append(task)
                continue
            state = states.get(location)
            if state is None:
                state = states[location] = [None, None, [], accessors[location]]
            touched = state[3]
            if not touched or touched[-1] != task:
                touched.append(task)
            readers = state[2]
            if kind is _LOAD:
                if readers and readers[-1] == task:
                    continue  # same source as this task's last load here
                readers.append(task)
                source = state[1]
                if source is not None and source != task:
                    key = (source, task, location)
                    if key not in seen_raw:
                        seen_raw.add(key)
                        append(DynamicDependence(source, task, "raw", location))
            else:
                prior = state[0]
                if prior is not None and prior != task:
                    append(DynamicDependence(prior, task, "waw", location))
                for reader in readers:
                    if reader != task:
                        append(DynamicDependence(reader, task, "war", location))
                state[0] = task
                state[2] = []
                if not silent:
                    state[1] = task

    # -- queries --------------------------------------------------------------------

    def cross_iteration_dependences(self) -> List[DynamicDependence]:
        tasks = self.trace.tasks
        return [d for d in self.dependences if d.cross_iteration(tasks)]

    def cross_iteration_raw(self) -> List[DynamicDependence]:
        return [d for d in self.cross_iteration_dependences() if d.kind == "raw"]

    def dependences_between_phases(self, source_phase: str, target_phase: str) -> List[DynamicDependence]:
        tasks = self.trace.tasks
        return [
            d for d in self.dependences
            if tasks[d.source_index].phase == source_phase
            and tasks[d.target_index].phase == target_phase
        ]

    def locations(self) -> Set[Location]:
        return {d.location for d in self.dependences}

    def dependence_count_by_location(self) -> Dict[Location, int]:
        counts: Dict[Location, int] = defaultdict(int)
        for dependence in self.dependences:
            counts[dependence.location] += 1
        return dict(counts)
