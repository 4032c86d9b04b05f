"""The multi-core performance simulator (Section 3.1).

Deterministic, event-free implementation: because phase A and phase C are
serial chains and every extra constraint points forward in sequential order,
the whole schedule is computable in a single in-order pass of recurrences —
each task's start time is the max of its structural predecessors, its queue
availability, its core's free time, its serialization sources, and its
Commutative lock waits.

Modelled, per the paper:

- tasks communicate through bounded core-to-core queues (the recurrences of
  :class:`~repro.hw.queues.TimedQueueModel`); a producer stalls when its
  queue is full, a consumer waits while it is empty;
- phase B tasks are dynamically assigned to the least-loaded B core;
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
from typing import Dict, List, Optional

from repro.core.plan import ExecutionPlan
from repro.core.tasks import Phase, TaskGraph
from repro.hw.machine import MachineConfig
from repro.hw.queues import QueueEmptyError, QueueFullError


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
        """One in-order pass over the graph's compiled rows.

        Runs once per task per core count, so everything per-task is a list
        index or a local: core state lives in lists indexed by core id, a
        queue is its two lists of produce and consume times, and the
        serialization-edge max and the Commutative lock walk read the
        tuples :meth:`TaskGraph.pipeline_rows` precomputed.
        """
        latency = self.machine.communication_latency
        capacity = self.machine.queue_capacity
        a_core, c_core = plan.a_core, plan.c_core
        # Ties between equally loaded B cores go to the lowest core id.
        b_cores = sorted(plan.b_cores)

        queues_needed = 2 * len(b_cores)
        if queues_needed > self.machine.queue_count:
            raise ValueError(
                f"plan needs {queues_needed} queues but the machine has "
                f"{self.machine.queue_count}"
            )
        rows = graph.pipeline_rows()
        for phase, core in ((Phase.A, a_core), (Phase.C, c_core)):
            if core is None and graph.tasks_in_phase(phase):
                raise ValueError(
                    f"the graph has phase {phase.value} tasks but the plan gives them no core"
                )

        # Cores in the order the result reports them; A and C may share a
        # core with each other (2-core plans) or, in a hand-made plan, with B.
        cores_used = [
            core for core in dict.fromkeys((*plan.b_cores, a_core, c_core))
            if core is not None
        ]
        core_slots = max(cores_used) + 1
        free = [0] * core_slots
        busy = [0] * core_slots
        # The bounded queues feeding and draining each B core: produce k may
        # not complete before consume k - capacity, consume k not before
        # produce k (the recurrences of repro.hw.queues.TimedQueueModel).
        a_to_b_produced: List[List[int]] = [[] for _ in range(core_slots)]
        a_to_b_consumed: List[List[int]] = [[] for _ in range(core_slots)]
        b_to_c_produced: List[List[int]] = [[] for _ in range(core_slots)]
        b_to_c_consumed: List[List[int]] = [[] for _ in range(core_slots)]
        queue_stall = 0
        lock_free: Dict[str, int] = {}

        task_end: List[int] = [0] * len(graph.tasks)
        task_start: List[int] = [0] * len(graph.tasks)
        task_core: List[int] = [-1] * len(graph.tasks)
        serialization_wait = 0
        lock_wait = 0

        first_b_core = b_cores[0]
        other_b_cores = b_cores[1:]
        a_prev_end = 0

        for a_task, b_task, c_task in rows:
            # ---- phase A: serial chain on the A core -------------------------------
            a_end = a_prev_end
            if a_task is not None:
                a_index, cost, sources, _ = a_task
                # A's core may be shared with C (2-core plans), so it is the
                # core's availability that counts; that is never earlier than
                # the end of the A chain.
                ready = start = free[a_core]
                for source in sources:
                    if task_end[source] > start:
                        start = task_end[source]
                serialization_wait += start - ready
                a_end = start + cost
                busy[a_core] += cost
                task_start[a_index] = start
                task_core[a_index] = a_core

            if b_task is not None:
                # B-core selection happens when the producing A task
                # completes: the least-loaded B core at that moment, i.e. the
                # minimum of (max(free, a_end), core id).  Every core idle by
                # a_end ties at a_end, so that is the lowest-numbered idle
                # core if there is one and the earliest-free core otherwise.
                b_core = first_b_core
                least = free[b_core]
                if least > a_end:
                    for core in other_b_cores:
                        if free[core] < least:
                            b_core = core
                            least = free[core]
                            if least <= a_end:
                                break

            if a_task is not None:
                if b_task is not None:
                    # Produce the iteration token; a full queue stalls the A core.
                    produced = a_to_b_produced[b_core]
                    backlog = len(produced) - capacity
                    if backlog >= 0:
                        consumed = a_to_b_consumed[b_core]
                        if backlog >= len(consumed):
                            raise QueueFullError(
                                f"queue A->B{b_core}: produce {len(produced)} needs "
                                f"consume {backlog} which has not been recorded — "
                                "deadlocked schedule"
                            )
                        if consumed[backlog] > a_end:
                            queue_stall += consumed[backlog] - a_end
                            a_end = consumed[backlog]
                    produced.append(a_end)
                task_end[a_index] = a_end
                a_prev_end = a_end
                if a_end > free[a_core]:
                    free[a_core] = a_end

            # ---- phase B: replicated parallel stage ----------------------------------
            b_end = a_end
            if b_task is not None:
                b_index, cost, sources, sections = b_task
                ready = free[b_core]
                if a_task is not None and a_end + latency > ready:
                    ready = a_end + latency
                start = ready
                for source in sources:
                    if task_end[source] > start:
                        start = task_end[source]
                serialization_wait += start - ready
                if a_task is not None:
                    consumed = a_to_b_consumed[b_core]
                    produced = a_to_b_produced[b_core]
                    if len(consumed) >= len(produced):
                        raise QueueEmptyError(
                            f"queue A->B{b_core}: consume {len(consumed)} precedes "
                            f"produce {len(consumed)} — deadlocked schedule"
                        )
                    if produced[len(consumed)] > start:
                        start = produced[len(consumed)]
                    consumed.append(start)
                b_end = start + cost
                if sections:
                    # Commutative sections run under their group's lock,
                    # acquired in group order.
                    acquired = start
                    for group, section in sections:
                        held_until = lock_free.get(group, 0)
                        if held_until > acquired:
                            acquired = held_until
                        lock_free[group] = acquired + section
                    lock_wait += acquired - start
                    b_end += acquired - start
                busy[b_core] += cost
                if c_task is not None:
                    produced = b_to_c_produced[b_core]
                    backlog = len(produced) - capacity
                    if backlog >= 0:
                        consumed = b_to_c_consumed[b_core]
                        if backlog >= len(consumed):
                            raise QueueFullError(
                                f"queue B{b_core}->C: produce {len(produced)} needs "
                                f"consume {backlog} which has not been recorded — "
                                "deadlocked schedule"
                            )
                        if consumed[backlog] > b_end:
                            queue_stall += consumed[backlog] - b_end
                            b_end = consumed[backlog]
                    produced.append(b_end)
                free[b_core] = b_end
                task_end[b_index] = b_end
                task_start[b_index] = start
                task_core[b_index] = b_core

            # ---- phase C: serial chain on the C core -----------------------------------
            if c_task is not None:
                c_index, cost, sources, sections = c_task
                ready = free[c_core]  # never earlier than the end of the C chain
                if b_task is not None and b_end + latency > ready:
                    ready = b_end + latency
                start = ready
                for source in sources:
                    if task_end[source] > start:
                        start = task_end[source]
                serialization_wait += start - ready
                if b_task is not None:
                    consumed = b_to_c_consumed[b_core]
                    produced = b_to_c_produced[b_core]
                    if len(consumed) >= len(produced):
                        raise QueueEmptyError(
                            f"queue B{b_core}->C: consume {len(consumed)} precedes "
                            f"produce {len(consumed)} — deadlocked schedule"
                        )
                    if produced[len(consumed)] > start:
                        start = produced[len(consumed)]
                    consumed.append(start)
                c_end = start + cost
                if sections:
                    acquired = start
                    for group, section in sections:
                        held_until = lock_free.get(group, 0)
                        if held_until > acquired:
                            acquired = held_until
                        lock_free[group] = acquired + section
                    lock_wait += acquired - start
                    c_end += acquired - start
                busy[c_core] += cost
                task_end[c_index] = c_end
                task_start[c_index] = start
                task_core[c_index] = c_core
                if c_end > free[c_core]:
                    free[c_core] = c_end

        return SimulationResult(
            machine=self.machine,
            plan=plan,
            makespan=max(task_end) if task_end else 0,
            sequential_time=graph.total_cost(),
            task_end_times=task_end,
            task_start_times=task_start,
            task_cores=task_core,
            queue_stall_time=queue_stall,
            serialization_wait_time=serialization_wait,
            lock_wait_time=lock_wait,
            core_busy_time={core: busy[core] for core in cores_used},
        )
