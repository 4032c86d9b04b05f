"""Frozen reference implementations the shipped simulators are diffed against.

Test-only: nothing in ``src/`` imports this module, and it imports nothing
``src/`` has deleted.  It holds

- the pipeline recurrence exactly as ``repro.core.simulator`` computed it
  before the task graph was compiled once per graph (ISSUE 20) — dict-keyed
  core state, ``min(..., key=...)`` least-loaded pick, one
  :class:`TimedQueueModel` per queue, per-run ``_index_by_iteration``;
- the multi-stage loop as ``repro.dswp.multistage`` had it;
- :class:`TimedQueueModel`, the queue model both of them stand on;
- :func:`reference_replay`, the analyzer's discrete-event what-if replay as
  ``repro.obs.analyze`` had it before it became a plan over
  ``repro.core.simulator.schedule``.

All are slow and obviously their own rules;
``tests/test_simulator_differential.py`` asserts the shipped code produces
the same result, field for field, or lists where and why it does not.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.plan import ExecutionPlan
from repro.core.simulator import QueueFullError, SimulationResult
from repro.core.tasks import Phase, Task, TaskGraph
from repro.dswp.partition import Stage, StageKind
from repro.hw.machine import MachineConfig


class QueueEmptyError(RuntimeError):
    """Non-blocking consume on an empty queue."""


class TimedQueueModel:
    """Occupancy-over-time model of one bounded queue.

    The performance simulator records the time of each produce and each
    consume.  The capacity bound means produce *k* (0-based) may not complete
    before consume *k - capacity* has happened: the producer stalls on a full
    queue.  Symmetrically consume *k* may not happen before produce *k*.

    The model is intentionally order-strict (FIFO tokens); the DSWP execution
    plans produce and consume iteration tokens in order per queue.
    """

    def __init__(self, capacity: int = 32, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._produce_times: List[int] = []
        self._consume_times: List[int] = []
        self.stall_time = 0

    def earliest_produce_completion(self, ready_time: int) -> int:
        """When the next produce may complete, given it is ready at ``ready_time``."""
        k = len(self._produce_times)
        blocked_until = ready_time
        backlog_index = k - self.capacity
        if backlog_index >= 0:
            if backlog_index >= len(self._consume_times):
                raise QueueFullError(
                    f"queue {self.name}: produce {k} needs consume {backlog_index} "
                    "which has not been recorded — deadlocked schedule"
                )
            blocked_until = max(blocked_until, self._consume_times[backlog_index])
        return blocked_until

    def record_produce(self, ready_time: int) -> int:
        """Record a produce that became ready at ``ready_time``; return its completion time."""
        completion = self.earliest_produce_completion(ready_time)
        self.stall_time += completion - ready_time
        self._produce_times.append(completion)
        return completion

    def earliest_consume(self, ready_time: int) -> int:
        """When the next consume may happen, given the consumer is ready then."""
        k = len(self._consume_times)
        if k >= len(self._produce_times):
            raise QueueEmptyError(
                f"queue {self.name}: consume {k} precedes produce {k} — "
                "deadlocked schedule"
            )
        return max(ready_time, self._produce_times[k])

    def record_consume(self, ready_time: int) -> int:
        moment = self.earliest_consume(ready_time)
        self._consume_times.append(moment)
        return moment

    @property
    def produced(self) -> int:
        return len(self._produce_times)

    @property
    def consumed(self) -> int:
        return len(self._consume_times)

    def occupancy_at_end(self) -> int:
        return self.produced - self.consumed

    def __repr__(self) -> str:
        return (
            f"TimedQueueModel({self.name!r}, produced={self.produced}, "
            f"consumed={self.consumed}, capacity={self.capacity})"
        )


def reference_simulate(
    graph: TaskGraph, machine: MachineConfig, plan: Optional[ExecutionPlan] = None
) -> SimulationResult:
    has_a = any(task.phase is Phase.A for task in graph.tasks)
    has_c = any(task.phase is Phase.C for task in graph.tasks)
    if plan is None:
        plan = ExecutionPlan.for_machine(machine, has_a=has_a, has_c=has_c)
    if plan.is_sequential:
        return _simulate_sequential(graph, machine, plan)
    return _simulate_pipeline(graph, machine, plan)


def _incoming_sources(graph: TaskGraph) -> Dict[int, List[int]]:
    sources: Dict[int, List[int]] = {}
    for edge in graph.edges:
        sources.setdefault(edge.target, []).append(edge.source)
    return sources


def _simulate_sequential(
    graph: TaskGraph, machine: MachineConfig, plan: ExecutionPlan
) -> SimulationResult:
    time = 0
    starts: List[int] = []
    ends: List[int] = []
    for task in graph.tasks:
        starts.append(time)
        time += task.cost
        ends.append(time)
    return SimulationResult(
        machine=machine,
        plan=plan,
        makespan=time,
        sequential_time=sum(task.cost for task in graph.tasks),
        task_end_times=ends,
        task_start_times=starts,
        task_cores=[0] * len(graph.tasks),
        core_busy_time={0: time},
    )


def _simulate_pipeline(
    graph: TaskGraph, machine: MachineConfig, plan: ExecutionPlan
) -> SimulationResult:
    latency = machine.communication_latency
    capacity = machine.queue_capacity
    b_cores = plan.b_cores

    queues_needed = 2 * len(b_cores)
    if queues_needed > machine.queue_count:
        raise ValueError(
            f"plan needs {queues_needed} queues but the machine has "
            f"{machine.queue_count}"
        )

    a_to_b: Dict[int, TimedQueueModel] = {
        core: TimedQueueModel(capacity, name=f"A->B{core}") for core in b_cores
    }
    b_to_c: Dict[int, TimedQueueModel] = {
        core: TimedQueueModel(capacity, name=f"B{core}->C") for core in b_cores
    }

    core_free: Dict[int, int] = {core: 0 for core in b_cores}
    if plan.a_core is not None:
        core_free.setdefault(plan.a_core, 0)
    if plan.c_core is not None:
        core_free.setdefault(plan.c_core, 0)
    busy: Dict[int, int] = {core: 0 for core in core_free}
    lock_free: Dict[str, int] = {}

    task_end: List[int] = [0] * len(graph.tasks)
    task_start: List[int] = [0] * len(graph.tasks)
    task_core: List[int] = [-1] * len(graph.tasks)
    serialization_wait = 0
    lock_wait_total = 0

    incoming = _incoming_sources(graph)
    by_iteration = _index_by_iteration(graph)
    a_prev_end = 0
    c_prev_end = 0
    iterations = max((task.iteration for task in graph.tasks), default=-1) + 1

    for iteration in range(iterations):
        a_task, b_task, c_task = by_iteration.get(iteration, (None, None, None))

        # ---- phase A: serial chain on the A core -------------------------------
        a_end = a_prev_end
        if a_task is not None:
            # A's core may be shared with C (2-core plans): respect the
            # core's actual availability, not just the A chain.
            a_ready = max(a_prev_end, core_free.get(plan.a_core, 0))
            ready, wait = _constrained_start(incoming, a_task, a_ready, task_end)
            serialization_wait += wait
            finish = ready + a_task.cost
            busy[plan.a_core] = busy.get(plan.a_core, 0) + a_task.cost
            a_end = finish
            task_start[a_task.index] = ready
            task_core[a_task.index] = plan.a_core
        # B-core selection happens when the producing A task completes:
        # pick the least-loaded B core at that moment.
        b_core = min(b_cores, key=lambda core: (max(core_free[core], a_end), core))

        if a_task is not None and b_task is not None:
            # Produce the iteration token; a full queue stalls the A core.
            a_end = a_to_b[b_core].record_produce(a_end)
            task_end[a_task.index] = a_end
            a_prev_end = a_end
            core_free[plan.a_core] = max(core_free.get(plan.a_core, 0), a_end)
        elif a_task is not None:
            task_end[a_task.index] = a_end
            a_prev_end = a_end
            core_free[plan.a_core] = max(core_free.get(plan.a_core, 0), a_end)

        # ---- phase B: replicated parallel stage ----------------------------------
        b_end = a_end
        if b_task is not None:
            ready = max(core_free[b_core], a_end + latency if a_task is not None else 0)
            ready, wait = _constrained_start(incoming, b_task, ready, task_end)
            serialization_wait += wait
            if a_task is not None:
                ready = a_to_b[b_core].record_consume(ready)
            start = ready
            lock_delay = _acquire_locks(b_task, start, lock_free)
            lock_wait_total += lock_delay
            b_end = start + b_task.cost + lock_delay
            busy[b_core] = busy.get(b_core, 0) + b_task.cost
            if c_task is not None:
                b_end = b_to_c[b_core].record_produce(b_end)
            core_free[b_core] = b_end
            task_end[b_task.index] = b_end
            task_start[b_task.index] = start
            task_core[b_task.index] = b_core

        # ---- phase C: serial chain on the C core -----------------------------------
        if c_task is not None:
            ready = max(
                c_prev_end,
                core_free.get(plan.c_core, 0),
                (b_end + latency) if b_task is not None else 0,
            )
            ready, wait = _constrained_start(incoming, c_task, ready, task_end)
            serialization_wait += wait
            if b_task is not None:
                ready = b_to_c[b_core].record_consume(ready)
            lock_delay = _acquire_locks(c_task, ready, lock_free)
            lock_wait_total += lock_delay
            c_end = ready + c_task.cost + lock_delay
            busy[plan.c_core] = busy.get(plan.c_core, 0) + c_task.cost
            c_prev_end = c_end
            task_end[c_task.index] = c_end
            task_start[c_task.index] = ready
            task_core[c_task.index] = plan.c_core
            core_free[plan.c_core] = max(core_free.get(plan.c_core, 0), c_end)

    makespan = max(task_end) if task_end else 0
    queue_stall = sum(q.stall_time for q in a_to_b.values())
    queue_stall += sum(q.stall_time for q in b_to_c.values())
    return SimulationResult(
        machine=machine,
        plan=plan,
        makespan=makespan,
        sequential_time=sum(task.cost for task in graph.tasks),
        task_end_times=task_end,
        task_start_times=task_start,
        task_cores=task_core,
        queue_stall_time=queue_stall,
        serialization_wait_time=serialization_wait,
        lock_wait_time=lock_wait_total,
        core_busy_time=busy,
    )


def _index_by_iteration(
    graph: TaskGraph,
) -> Dict[int, Tuple[Optional[Task], Optional[Task], Optional[Task]]]:
    table: Dict[int, List[Optional[Task]]] = {}
    previous_iteration = -1
    for task in graph.tasks:
        if task.iteration < previous_iteration:
            # Serialization sources must be processed before their
            # targets; tasks arriving out of iteration order would let a
            # later-indexed source be scheduled after its target.
            raise ValueError(
                "tasks must be supplied in iteration order "
                f"(task {task.index} is iteration {task.iteration} after "
                f"iteration {previous_iteration})"
            )
        previous_iteration = task.iteration
    for task in graph.tasks:
        slot = {"A": 0, "B": 1, "C": 2}[task.phase.value]
        row = table.setdefault(task.iteration, [None, None, None])
        if row[slot] is not None:
            raise ValueError(
                f"iteration {task.iteration} has two {task.phase.value} tasks; "
                "the pipeline model expects at most one task per phase per iteration"
            )
        row[slot] = task
    return {i: tuple(row) for i, row in table.items()}  # type: ignore[return-value]


def _constrained_start(
    incoming: Dict[int, List[int]],
    task: Task,
    ready: int,
    task_end: List[int],
) -> Tuple[int, int]:
    """Apply serialization edges; return (start time, wait attributable)."""
    start = ready
    for source in incoming.get(task.index, ()):
        start = max(start, task_end[source])
    return start, start - ready


def _acquire_locks(task: Task, start: int, lock_free: Dict[str, int]) -> int:
    """Serialize the task's Commutative sections; return total lock wait."""
    wait_total = 0
    for group in sorted(task.section_costs):
        section = task.section_costs[group]
        acquire_at = max(start + wait_total, lock_free.get(group, 0))
        wait_total += acquire_at - (start + wait_total)
        lock_free[group] = acquire_at + section
    return wait_total


def reference_multistage_makespan(
    stages: List[Stage], allocation: List[int], machine: MachineConfig, iterations: int
) -> int:
    """The multi-stage loop with its per-iteration queue construction and
    ``min(pool, key=...)`` least-loaded pick, for ``allocation`` cores per stage."""
    capacity = machine.queue_capacity
    latency = machine.communication_latency

    chain_end = [0] * len(stages)
    pools: List[Dict[int, int]] = []
    for index, stage in enumerate(stages):
        pools.append({c: 0 for c in range(allocation[index])})
    queues: List[Dict[int, TimedQueueModel]] = [{} for _ in range(len(stages))]

    makespan = 0
    for iteration in range(iterations):
        previous_end = 0
        for index, stage in enumerate(stages):
            cost = stage.cost
            if stage.kind is StageKind.SEQUENTIAL:
                ready = max(chain_end[index], previous_end + (latency if index else 0))
                if index > 0:
                    queue = queues[index].setdefault(
                        0, TimedQueueModel(capacity, name=f"q{index}")
                    )
                    queue.record_produce(previous_end)
                    ready = max(ready, queue.record_consume(ready))
                end = ready + cost
                chain_end[index] = end
            else:
                pool = pools[index]
                core = min(pool, key=lambda c: (pool[c], c))
                ready = max(pool[core], previous_end + (latency if index else 0))
                if index > 0:
                    queue = queues[index].setdefault(
                        core, TimedQueueModel(capacity, name=f"q{index}.{core}")
                    )
                    queue.record_produce(previous_end)
                    ready = max(ready, queue.record_consume(ready))
                end = ready + cost
                pool[core] = end
            previous_end = end
        makespan = max(makespan, previous_end)
    return makespan


def reference_replay(
    costs,
    workers: int,
    capacity: int = 0,
    *,
    extra_workers: int = 0,
    serialization_scale: float = 1.0,
    capacity_scale: float = 1.0,
    drop_misspeculation: bool = False,
) -> float:
    """Discrete-event replay of the measured costs through the pipeline
    model: a serial producer, ``workers`` replicated B stages behind a
    bounded work queue, and an in-order committer.  Returns the projected
    wall clock in seconds."""
    n = len(costs)
    if n == 0:
        return 0.0
    count = max(1, workers + extra_workers)
    bound = max(1, int(round(capacity * capacity_scale))) if capacity else n + 1
    worker_free = [0.0] * count
    producer_t = 0.0
    commit_free = 0.0
    dequeue: List[float] = []
    for i in range(n):
        credit = dequeue[i - bound] if i >= bound else 0.0
        produced = (
            max(producer_t, credit)
            + costs.a[i]
            + costs.s_prod[i] * serialization_scale
        )
        producer_t = produced
        slot = min(range(count), key=worker_free.__getitem__)
        start_b = max(worker_free[slot], produced)
        dequeue.append(start_b)
        gate = 0.0 if drop_misspeculation else costs.gate[i]
        end_b = start_b + gate + costs.b[i]
        worker_free[slot] = end_b
        arrival = end_b + costs.s_done[i] * serialization_scale
        start_c = max(commit_free, arrival)
        reexec = 0.0 if drop_misspeculation else costs.reexec[i]
        commit_free = start_c + costs.c[i] + reexec
    return commit_free
