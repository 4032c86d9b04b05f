"""Tasks, phases and the task dependence graph (Sections 3.1-3.2).

The paper decomposes every studied loop into three phases:

    "Ignoring dependences that were speculated, the tasks from the first
    phase of each application depended only on prior tasks from the first
    phase.  Tasks from the second phase depended on the corresponding task
    from the first phase.  Finally, tasks from the third phase depended on
    the corresponding task from the second phase as well as prior tasks
    from the third phase."

:class:`TaskGraph` holds the dynamic tasks plus the *extra* dependences the
structural pattern does not imply: serialization edges from speculated
dependences that actually occurred, synchronization chains, and Commutative
atomic-section costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:  # the profiling and speculation stacks load on their own
    from repro.profiling.memory_profile import MemoryProfile
    from repro.profiling.tracer import TraceResult
    from repro.speculation.manager import SpeculationPlan

Location = Tuple[str, Hashable]


class Phase(Enum):
    """The three pipeline phases of Section 3.2."""

    A = "A"  # sequential produce stage (one core)
    B = "B"  # replicated parallel stage (dynamically assigned cores)
    C = "C"  # sequential consume stage (one core)

    @property
    def sequential(self) -> bool:
        return self is not Phase.B


@dataclass
class Task:
    """One dynamic task.

    Attributes:
        index: position in original sequential execution order.
        phase: which pipeline phase the task's static region belongs to.
        iteration: originating loop iteration.
        cost: execution time in abstract work units.
        section_costs: work spent inside Commutative groups, by group name;
            these slices execute under the group's mutual exclusion.
    """

    index: int
    phase: Phase
    iteration: int
    cost: int
    section_costs: Dict[str, int] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"Task({self.phase.value}{self.iteration}, cost={self.cost})"


@dataclass(frozen=True)
class SerializationEdge:
    """An extra ordering constraint between two tasks.

    ``reason`` is ``"misspeculation"`` for a speculated dependence that
    actually occurred (the simulator serializes it, charging no extra cost,
    per Section 3.1) or ``"synchronization"`` for a dependence the plan chose
    to synchronize.  ``location`` names the responsible shared state.
    """

    source: int
    target: int
    reason: str
    location: Optional[Location] = None


#: One task as the pipeline recurrence reads it: ``(index, cost, indices of
#: its serialization sources, its Commutative (group, section cost) pairs
#: sorted by group — always empty for a phase A task)``.
CompiledTask = Tuple[int, int, Tuple[int, ...], Tuple[Tuple[str, int], ...]]
#: One iteration's A, B and C task; ``None`` where the phase has no task.
IterationRow = Tuple[Optional[CompiledTask], Optional[CompiledTask], Optional[CompiledTask]]

_PHASE_SLOT = {Phase.A: 0, Phase.B: 1, Phase.C: 2}
_PHASE_OF = {phase.value: phase for phase in Phase}
_EMPTY_ROW: IterationRow = (None, None, None)


@dataclass(frozen=True)
class CompiledGraph:
    """Everything the simulators ask of a :class:`TaskGraph`, from one pass.

    A graph is simulated once per core count (16 times per evaluation), and
    none of this depends on the machine, so it is computed once per graph
    and kept until :meth:`TaskGraph.add_edge` changes the graph.
    """

    total_cost: int
    iterations: int
    by_phase: Dict[Phase, Tuple[Task, ...]]
    incoming: Dict[int, Tuple[SerializationEdge, ...]]
    #: ``rows[i]`` is iteration ``i``; ``None`` when ``invalid`` says why the
    #: graph does not fit the one-task-per-phase pipeline model.
    rows: Optional[Tuple[IterationRow, ...]]
    invalid: Optional[str]


class TaskGraph:
    """Tasks in sequential order plus extra ordering constraints.

    Queries are answered from a :class:`CompiledGraph` built on first use.
    Adding an edge discards it; tasks must not be mutated once the graph
    has been queried.
    """

    def __init__(self, tasks: Sequence[Task], edges: Sequence[SerializationEdge] = ()) -> None:
        self.tasks = list(tasks)
        for position, task in enumerate(self.tasks):
            if task.index != position:
                raise ValueError(
                    f"task at position {position} has index {task.index}; "
                    "tasks must be supplied in sequential order"
                )
        self.edges: List[SerializationEdge] = []
        self._compiled: Optional[CompiledGraph] = None
        for edge in edges:
            self.add_edge(edge)

    def add_edge(self, edge: SerializationEdge) -> None:
        if edge.source >= edge.target:
            raise ValueError(
                f"serialization edge {edge.source}->{edge.target} is not "
                "forward in sequential order"
            )
        if edge.target >= len(self.tasks) or edge.source < 0:
            raise ValueError(f"edge {edge.source}->{edge.target} out of range")
        self.edges.append(edge)
        self._compiled = None

    # -- the compiled view ---------------------------------------------------------

    def compiled(self) -> CompiledGraph:
        """The cached view, built on the first query after any ``add_edge``."""
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def pipeline_rows(self) -> Tuple[IterationRow, ...]:
        """Per-iteration rows for the pipeline recurrence.

        Raises ``ValueError`` unless tasks are in iteration order with at
        most one task per phase per iteration.
        """
        compiled = self.compiled()
        if compiled.rows is None:
            raise ValueError(compiled.invalid)
        return compiled.rows

    def _compile(self) -> CompiledGraph:
        incoming: Dict[int, List[SerializationEdge]] = {}
        for edge in self.edges:
            incoming.setdefault(edge.target, []).append(edge)

        by_phase: Dict[Phase, List[Task]] = {phase: [] for phase in Phase}
        table: Dict[int, List[Optional[CompiledTask]]] = {}
        total_cost = 0
        iterations = 0
        out_of_order = duplicate = None
        previous_iteration = -1
        for task in self.tasks:
            total_cost += task.cost
            by_phase[task.phase].append(task)
            if task.iteration >= iterations:
                iterations = task.iteration + 1
            if task.iteration < previous_iteration and out_of_order is None:
                # Serialization sources must be processed before their
                # targets; tasks arriving out of iteration order would let a
                # later-indexed source be scheduled after its target.
                out_of_order = (
                    "tasks must be supplied in iteration order "
                    f"(task {task.index} is iteration {task.iteration} after "
                    f"iteration {previous_iteration})"
                )
            previous_iteration = task.iteration
            row = table.setdefault(task.iteration, [None, None, None])
            slot = _PHASE_SLOT[task.phase]
            if row[slot] is not None and duplicate is None:
                duplicate = (
                    f"iteration {task.iteration} has two {task.phase.value} tasks; "
                    "the pipeline model expects at most one task per phase per iteration"
                )
            row[slot] = (
                task.index,
                task.cost,
                tuple(edge.source for edge in incoming.get(task.index, ())),
                # The serial producer takes no Commutative lock.  Its tasks
                # never overlap each other; that one may overlap a B or C
                # section of the same group is a known limitation
                # (docs/performance_model.md).
                () if task.phase is Phase.A else tuple(sorted(task.section_costs.items())),
            )

        invalid = out_of_order or duplicate
        return CompiledGraph(
            total_cost=total_cost,
            iterations=iterations,
            by_phase={phase: tuple(tasks) for phase, tasks in by_phase.items()},
            incoming={target: tuple(edges) for target, edges in incoming.items()},
            rows=None if invalid else tuple(
                tuple(table[i]) if i in table else _EMPTY_ROW
                for i in range(iterations)
            ),
            invalid=invalid,
        )

    # -- queries -------------------------------------------------------------------

    def incoming(self, task_index: int) -> Tuple[SerializationEdge, ...]:
        return self.compiled().incoming.get(task_index, ())

    def tasks_in_phase(self, phase: Phase) -> Tuple[Task, ...]:
        return self.compiled().by_phase[phase]

    def iterations(self) -> int:
        return self.compiled().iterations

    def total_cost(self) -> int:
        """Single-threaded time: the sum of all task costs."""
        return self.compiled().total_cost

    def phase_cost(self, phase: Phase) -> int:
        return sum(task.cost for task in self.tasks_in_phase(phase))

    def misspeculation_edges(self) -> List[SerializationEdge]:
        return [edge for edge in self.edges if edge.reason == "misspeculation"]

    def commutative_groups(self) -> List[str]:
        groups = set()
        for task in self.tasks:
            groups.update(task.section_costs)
        return sorted(groups)

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:
        return f"TaskGraph({len(self.tasks)} tasks, {len(self.edges)} extra edges)"

    # -- construction from a trace --------------------------------------------------

    @classmethod
    def from_trace(
        cls,
        trace: TraceResult,
        profile: Optional[MemoryProfile] = None,
        plan: Optional[SpeculationPlan] = None,
    ) -> "TaskGraph":
        """Build the graph the simulator needs from one profiled run.

        Without a plan, every cross-task dynamic dependence is honored
        (fully conservative).  With a plan:

        - speculated locations contribute their actual dynamic dependences
          as ``misspeculation`` edges — a speculated dependence that really
          occurred serializes the dependent task, with no additional cost
          (Section 3.1);
        - synchronized locations contribute the same actual dependences as
          ``synchronization`` edges — the value flows through a queue at a
          known program point instead of through rollback hardware, but the
          serialization it imposes is identical (reads never conflict with
          reads, so only true RAW/WAR/WAW pairs are ordered);
        - other locations' dependences are dropped: they were proven
          iteration-private (versioned-memory privatization) or erased by a
          Commutative annotation.
        """
        tasks = [
            Task(
                index=record.index,
                phase=_PHASE_OF[record.phase],
                iteration=record.iteration,
                cost=record.cost,
            )
            for record in trace.tasks
        ]
        for (task_index, group), cost in trace.section_costs.items():
            tasks[task_index].section_costs[group] = (
                tasks[task_index].section_costs.get(group, 0) + cost
            )

        graph = cls(tasks)
        if profile is None:
            return graph

        # Every edge below is forward (source < target) between tasks of
        # this trace, which is all ``add_edge`` checks: append in one go.
        if plan is None:
            graph.edges.extend(
                SerializationEdge(source, target, "synchronization", location)
                for source, target, _, location in profile.dependences
                if source < target
            )
            return graph

        speculated, synchronized = plan.speculated, plan.synchronized
        seen = set()
        for source, target, kind, location in profile.dependences:
            if source >= target:
                continue
            if kind != "raw":
                # The versioned memory subsystem ([33], Section 3.1)
                # privatizes anti and output dependences: each task writes
                # its own version and commits in order, so only true (RAW)
                # dependences ever serialize execution.
                continue
            if location in speculated:
                reason = "misspeculation"
            elif location in synchronized:
                reason = "synchronization"
            else:
                continue
            key = (source, target)
            if key in seen:
                continue
            seen.add(key)
            graph.edges.append(SerializationEdge(source, target, reason, location))
        return graph
