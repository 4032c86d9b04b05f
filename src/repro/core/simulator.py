"""The multi-core performance simulator (Section 3.1).

One deterministic, event-free recurrence, :func:`schedule`, is the paper's
pipeline model: because every sequential stage is a serial chain and every
extra constraint points forward in sequential order, the whole schedule is
computable in a single in-order pass — each task's start time is the max of
its core's free time, its queue hand-off, its serialization sources, and its
Commutative lock waits.  :class:`PipelineSimulator` runs a task graph's A, B
and C rows on it; :class:`~repro.dswp.multistage.MultiStageSimulator` and the
analyzer's what-if replay (:func:`repro.obs.analyze.replay`) are plans over
the same function.

Modelled, per the paper:

- tasks communicate through bounded core-to-core queues, one per (producer
  core, consumer core) pair; a producer stalls, holding its core, while its
  queue is full, and a consumer waits while it is empty;
- replicated-stage tasks are dynamically assigned to the least-loaded core;
- a speculated dependence that actually occurred serializes the dependent
  task behind its source but costs nothing extra (misspeculation-as-
  serialization);
- Commutative groups execute atomically: each task's in-group section
  acquires a per-group lock (Section 2.3.2 — calls may happen in any order
  but must be atomic with respect to the group);
- microarchitectural effects are not modelled (no caches, no bandwidth),
  matching the paper's stated scope.

Not modelled (also per the paper): rollback cost beyond serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.plan import ExecutionPlan
from repro.core.tasks import CompiledTask, Phase, TaskGraph
from repro.hw.machine import MachineConfig

#: Simulated time: abstract work units for the simulators, seconds for the
#: analyzer's replay of measured costs.
Time = Union[int, float]


class QueueFullError(RuntimeError):
    """A queue that can never take a token: the schedule deadlocks."""


@dataclass
class SimulationResult:
    """Outcome of simulating one task graph on one machine."""

    machine: MachineConfig
    plan: ExecutionPlan
    makespan: int
    sequential_time: int
    task_end_times: List[int] = field(default_factory=list)
    #: Start times and core assignments, parallel to the task list; enough
    #: to independently re-validate the whole schedule (see
    #: tests/test_schedule_validity.py).
    task_start_times: List[int] = field(default_factory=list)
    task_cores: List[int] = field(default_factory=list)
    queue_stall_time: int = 0
    serialization_wait_time: int = 0
    lock_wait_time: int = 0
    core_busy_time: Dict[int, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.makespan == 0:
            return 1.0
        return self.sequential_time / self.makespan

    @property
    def utilization(self) -> float:
        capacity = self.makespan * self.machine.cores
        if capacity == 0:
            return 1.0
        return sum(self.core_busy_time.values()) / capacity

    def __repr__(self) -> str:
        return (
            f"SimulationResult(cores={self.machine.cores}, "
            f"makespan={self.makespan}, speedup={self.speedup:.2f})"
        )


class PipelineSimulator:
    """Simulates a :class:`TaskGraph` under an :class:`ExecutionPlan`."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    def simulate(self, graph: TaskGraph, plan: Optional[ExecutionPlan] = None) -> SimulationResult:
        if plan is None:
            plan = ExecutionPlan.for_machine(
                self.machine,
                has_a=bool(graph.tasks_in_phase(Phase.A)),
                has_c=bool(graph.tasks_in_phase(Phase.C)),
            )

        if plan.is_sequential:
            return self._simulate_sequential(graph, plan)
        return self._simulate_pipeline(graph, plan)

    # -- one-core: the single-threaded baseline --------------------------------------

    def _simulate_sequential(self, graph: TaskGraph, plan: ExecutionPlan) -> SimulationResult:
        time = 0
        starts: List[int] = []
        ends: List[int] = []
        for task in graph.tasks:
            starts.append(time)
            time += task.cost
            ends.append(time)
        return SimulationResult(
            machine=self.machine,
            plan=plan,
            makespan=time,
            sequential_time=graph.total_cost(),
            task_end_times=ends,
            task_start_times=starts,
            task_cores=[0] * len(graph.tasks),
            core_busy_time={0: time},
        )

    # -- pipelined execution ------------------------------------------------------------

    def _simulate_pipeline(self, graph: TaskGraph, plan: ExecutionPlan) -> SimulationResult:
        """The graph's compiled rows on the A, B and C stages of ``plan``."""
        machine = self.machine
        queues_needed = 2 * len(plan.b_cores)
        if queues_needed > machine.queue_count:
            raise ValueError(
                f"plan needs {queues_needed} queues but the machine has "
                f"{machine.queue_count}"
            )
        rows = graph.pipeline_rows()
        for phase, core in ((Phase.A, plan.a_core), (Phase.C, plan.c_core)):
            if core is None and graph.tasks_in_phase(phase):
                raise ValueError(
                    f"the graph has phase {phase.value} tasks but the plan gives them no core"
                )
        a_stage = () if plan.a_core is None else (plan.a_core,)
        c_stage = () if plan.c_core is None else (plan.c_core,)
        # Ties between equally loaded B cores go to the lowest core id.
        stages = (a_stage, tuple(sorted(plan.b_cores)), c_stage)
        run = schedule(
            rows,
            stages,
            (machine.queue_capacity,) * 2,
            (machine.communication_latency,) * 2,
            len(graph.tasks),
        )
        # Cores in the order the result reports them; A and C may share a
        # core with each other (2-core plans) or, in a hand-made plan, with B.
        cores_used = [
            core for core in dict.fromkeys((*plan.b_cores, plan.a_core, plan.c_core))
            if core is not None
        ]
        return SimulationResult(
            machine=machine,
            plan=plan,
            makespan=max(run.ends) if run.ends else 0,
            sequential_time=graph.total_cost(),
            task_end_times=run.ends,
            task_start_times=run.starts,
            task_cores=run.cores,
            queue_stall_time=run.queue_stall,
            serialization_wait_time=run.serialization_wait,
            lock_wait_time=run.lock_wait,
            core_busy_time={core: run.busy[core] for core in cores_used},
        )


class Schedule(NamedTuple):
    """What :func:`schedule` computed, per task index and per core id."""

    starts: List[Time]
    ends: List[Time]
    cores: List[int]
    #: Work (task cost, without lock or queue waits) done on each core id.
    busy: List[Time]
    queue_stall: Time
    serialization_wait: Time
    lock_wait: Time


def schedule(
    rows: Iterable[Sequence[Optional[CompiledTask]]],
    stages: Sequence[Tuple[int, ...]],
    capacities: Sequence[int],
    latencies: Sequence[Time],
    tasks: int,
) -> Schedule:
    """Schedule ``rows`` of per-stage tasks on a pipeline of ``stages``.

    ``rows[i][s]`` is iteration ``i``'s task in stage ``s`` (``None`` when it
    has none), a :data:`~repro.core.tasks.CompiledTask` whose index is below
    ``tasks``.  ``stages[s]`` is the tuple of core ids stage ``s`` runs on;
    hop ``h`` joins stage ``h`` to stage ``h + 1`` with ``capacities[h]``
    slots and ``latencies[h]`` time units of transfer.  Times may be ints or
    floats.  The rules, applied in one in-order pass:

    - a task goes to the lowest-numbered core of its stage that is idle by
      the moment the previous stage's task of its row finished computing
      (the end of that stage's latest task, if the row has none), else to
      the earliest-free core;
    - each (producer core, consumer core) pair has one queue: produce *k*
      completes no earlier than consume *k - capacity*, and the producer's
      core is held until it does; a task consumes its row's token when it
      starts, no earlier than ``latency`` after the produce;
    - a task starts no earlier than the end of each serialization source;
    - a task's Commutative sections run under their group's lock, acquired
      in group order, and push its end back by the time spent waiting.
    """
    for hop, capacity in enumerate(capacities):
        if capacity < 1:
            raise QueueFullError(
                f"hop {hop}: a queue of capacity {capacity} never takes a "
                "token — deadlocked schedule"
            )
    slots = max(core for stage in stages for core in stage) + 1
    free: List[Time] = [0] * slots
    busy: List[Time] = [0] * slots
    # consumed[producer * slots + consumer]: the indices of the tasks that
    # took that queue's tokens, so consume k happened at starts[consumed[k]].
    # Each token is produced and consumed within its row: the list's length
    # is also the queue's produce count.
    consumed: List[Optional[List[int]]] = [None] * (slots * slots)
    for producers, consumers in zip(stages, stages[1:]):
        for producer in producers:
            for consumer in consumers:
                consumed[producer * slots + consumer] = []
    # Per stage: its first core, the others, and the hop feeding it.
    layout = [
        (stage[0] if stage else None, stage[1:],
         capacities[s - 1] if s else 0, latencies[s - 1] if s else 0)
        for s, stage in enumerate(stages)
    ]
    # latest[s]: end of the latest task of stage s - 1 (latest[0] stays 0).
    latest: List[Time] = [0] * (len(stages) + 1)
    starts: List[Time] = [0] * tasks
    ends: List[Time] = [0] * tasks
    cores: List[int] = [-1] * tasks
    lock_free: Dict[str, Time] = {}
    queue_stall = serialization_wait = lock_wait = 0

    for row in rows:
        # The previous stage's task of this row, held back until its
        # consumer's core is known: its core (-1: none), index and end.  With
        # no such task, held_end is the previous stage's latest end instead:
        # either way, the moment the pick below is made at.
        held = -1
        held_index = held_end = 0
        for s, task in enumerate(row):
            if task is None:
                if held >= 0:
                    ends[held_index] = free[held] = latest[s] = held_end
                    held = -1
                held_end = latest[s + 1]
                continue
            index, cost, sources, sections = task
            first, others, capacity, latency = layout[s]
            core = first
            least = free[core]
            if least > held_end and others:
                for candidate in others:
                    if free[candidate] < least:
                        core = candidate
                        least = free[candidate]
                        if least <= held_end:
                            break
            ready = least
            if held >= 0:
                queue = consumed[held * slots + core]
                backlog = len(queue) - capacity
                if backlog >= 0:
                    freed = starts[queue[backlog]]
                    if freed > held_end:
                        queue_stall += freed - held_end
                        held_end = freed
                queue.append(index)
                ends[held_index] = free[held] = latest[s] = held_end
                if held_end + latency > ready:
                    ready = held_end + latency
            start = ready
            if sources:
                for source in sources:
                    if ends[source] > start:
                        start = ends[source]
                serialization_wait += start - ready
            end = start + cost
            if sections:
                acquired = start
                for group, section in sections:
                    held_until = lock_free.get(group, 0)
                    if held_until > acquired:
                        acquired = held_until
                    lock_free[group] = acquired + section
                lock_wait += acquired - start
                end += acquired - start
            busy[core] += cost
            starts[index] = start
            cores[index] = core
            held, held_index, held_end = core, index, end
        if held >= 0:
            ends[held_index] = free[held] = latest[len(row)] = held_end

    return Schedule(starts, ends, cores, busy, queue_stall, serialization_wait, lock_wait)
