"""Differential oracle: the shipped simulators against their frozen references.

``tests/reference_simulator.py`` holds the pipeline recurrence, the
multi-stage loop and the analyzer's what-if replay as they were before all
three became plans over :func:`repro.core.simulator.schedule`.  Every
:class:`SimulationResult` field must come out equal — not just the
makespan: start/end/core per task and every stall counter.  Where the one
queue rule moves a multi-stage makespan or an analyzer wall on purpose, the
case is pinned below with the reason.
"""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import DEFAULT_THREAD_COUNTS
from repro.core.plan import ExecutionPlan
from repro.core.simulator import PipelineSimulator
from repro.core.tasks import Phase, SerializationEdge, Task, TaskGraph
from repro.dswp.multistage import MultiStageSimulator
from repro.dswp.partition import Stage, StageKind
from repro.hw.machine import MachineConfig
from repro.obs.analyze import ChainCosts, default_what_ifs, replay
from repro.pdg.scc import SCC
from tests.reference_simulator import (
    reference_multistage_makespan,
    reference_replay,
    reference_simulate,
)

GROUPS = ("alloc", "rng", "stats")


@st.composite
def pipeline_graphs(draw):
    """Graphs with missing phases, forward edges of both reasons and
    Commutative section costs on B and C tasks."""
    iterations = draw(st.integers(min_value=1, max_value=20))
    # Whole phases may be absent (B-only, A+B, B+C loops) ...
    phases = draw(st.sets(st.sampled_from("ABC"), min_size=1))
    tasks = []
    for iteration in range(iterations):
        for phase in "ABC":
            # ... and any single task may be missing from its iteration.
            if phase not in phases or draw(st.integers(0, 9)) == 0:
                continue
            cost = draw(st.integers(min_value=0, max_value=40))
            sections = {}
            if phase != "A":
                for group in draw(st.sets(st.sampled_from(GROUPS), max_size=2)):
                    sections[group] = draw(st.integers(min_value=0, max_value=cost))
            tasks.append(Task(len(tasks), Phase(phase), iteration, cost, sections))
    graph = TaskGraph(tasks)
    if len(tasks) >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            target = draw(st.integers(min_value=1, max_value=len(tasks) - 1))
            source = draw(st.integers(min_value=0, max_value=target - 1))
            reason = draw(st.sampled_from(["misspeculation", "synchronization"]))
            graph.add_edge(SerializationEdge(source, target, reason))
    return graph


def hand_made_plan(machine, graph, shape):
    """Plans ``ExecutionPlan.for_machine`` never builds: B cores listed
    high-to-low, and phase A sharing a core with phase B."""
    if shape == "for_machine":
        return None
    has_a = bool(graph.tasks_in_phase(Phase.A))
    has_c = bool(graph.tasks_in_phase(Phase.C))
    plan = ExecutionPlan.for_machine(machine, has_a=has_a, has_c=has_c)
    if shape == "b_cores_reversed":
        return dataclasses.replace(plan, b_cores=plan.b_cores[::-1])
    return dataclasses.replace(
        plan, a_core=plan.b_cores[0] if has_a else None
    )


@given(
    graph=pipeline_graphs(),
    cores=st.integers(min_value=2, max_value=8),
    capacity=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=0, max_value=3),
    shape=st.sampled_from(["for_machine", "b_cores_reversed", "a_shares_b_core"]),
)
@settings(max_examples=400, deadline=None)
def test_pipeline_matches_reference_field_for_field(graph, cores, capacity, latency, shape):
    machine = MachineConfig(
        cores=cores, queue_capacity=capacity, communication_latency=latency
    )
    plan = hand_made_plan(machine, graph, shape)
    shipped = PipelineSimulator(machine).simulate(graph, plan)
    reference = reference_simulate(graph, machine, plan)
    assert dataclasses.asdict(shipped) == dataclasses.asdict(reference)


@pytest.mark.parametrize("name", ["253.perlbmk", "256.bzip2"])
def test_workload_graphs_match_reference(name):
    """Real analog graphs (Commutative sections, misspeculation edges) at
    every core count of the paper's figures."""
    from repro.core.framework import ParallelizationFramework
    from repro.workloads.suite import make_workload

    framework = ParallelizationFramework()
    evaluation = framework.evaluate(make_workload(name))
    assert tuple(evaluation.simulations) == DEFAULT_THREAD_COUNTS
    for threads, shipped in evaluation.simulations.items():
        reference = reference_simulate(evaluation.graph, shipped.machine)
        assert dataclasses.asdict(shipped) == dataclasses.asdict(reference), threads


def test_plan_without_a_core_for_a_phase_is_rejected():
    graph = TaskGraph([Task(0, Phase.A, 0, 1), Task(1, Phase.B, 0, 1)])
    machine = MachineConfig(cores=4)
    plan = ExecutionPlan.for_machine(machine, has_a=False, has_c=False)
    with pytest.raises(ValueError, match="phase A"):
        PipelineSimulator(machine).simulate(graph, plan)


def stage_chain(stages):
    """``(parallel, cost)`` pairs as a partition's stage list."""
    return [
        Stage(
            StageKind.PARALLEL if parallel else StageKind.SEQUENTIAL,
            f"{'P' if parallel else 'S'}{index}",
            [SCC(index, frozenset(), cost, parallel)],
        )
        for index, (parallel, cost) in enumerate(stages)
    ]


def multistage_makespans(stages, spare_cores, capacity, latency, iterations):
    """(shipped, reference) makespan of one chain."""
    chain = stage_chain(stages)
    machine = MachineConfig(
        cores=len(chain) + spare_cores,
        queue_capacity=capacity,
        communication_latency=latency,
    )
    result = MultiStageSimulator(machine).simulate(
        SimpleNamespace(stages=chain), iterations
    )
    return result.makespan, reference_multistage_makespan(
        chain, result.core_allocation, machine, iterations
    )


@given(
    data=st.data(),
    stages=st.lists(st.booleans(), min_size=1, max_size=6),
    spare_cores=st.integers(min_value=1, max_value=10),
    capacity=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=0, max_value=3),
    iterations=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_multistage_matches_reference(
    data, stages, spare_cores, capacity, latency, iterations
):
    """Any stage chain, including neighbouring parallel stages the
    partitioner would have merged.  A token in flight holds its slot, so a
    queue of capacity k whose hop takes L carries at most k tokens per L;
    the old loop had no such limit.  Stage costs of at least L keep every
    queue under it, and there the two agree."""
    costs = st.integers(min_value=latency, max_value=60)
    chain = [(parallel, data.draw(costs)) for parallel in stages]
    shipped, reference = multistage_makespans(
        chain, spare_cores, capacity, latency, iterations
    )
    assert shipped == reference


@pytest.mark.parametrize(
    "stages, spare_cores, capacity, latency, iterations, shipped, reference",
    [
        ([(False, 0), (False, 0)], 2, 1, 1, 2, 2, 1),
        ([(True, 0), (False, 0)], 1, 2, 3, 10, 12, 3),
    ],
)
def test_multistage_full_queue_holds_the_producer(
    stages, spare_cores, capacity, latency, iterations, shipped, reference
):
    """Where the one queue rule moves a makespan, on purpose.  The old loop
    dropped the producer's stall: a full queue delayed the consumer but
    never the producing stage, and the hop latency ran from the produce's
    pre-stall end.  Under the rule ``PipelineSimulator`` always had, the
    producer's core is held until a slot frees and the token crosses the
    hop after that.  In the first chain token 1 is produced at 0 but the
    single slot frees only when token 0 is consumed at 1, so token 1
    arrives at 2."""
    assert multistage_makespans(
        stages, spare_cores, capacity, latency, iterations
    ) == (shipped, reference)


@pytest.mark.parametrize("capacity", [1, 2, 3, 4, 32])
@pytest.mark.parametrize("latency", [0, 1, 2, 3])
@given(
    costs=st.tuples(*[st.integers(min_value=0, max_value=40)] * 3),
    cores=st.integers(min_value=4, max_value=12),
    iterations=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=15, deadline=None)
def test_three_stage_chain_matches_pipeline_simulator(
    capacity, latency, costs, cores, iterations
):
    """A seq/par/seq chain is the A/B/C pipeline: the water-filled
    allocation is 1 / cores - 2 / 1, which is ``ExecutionPlan.for_machine``,
    so both simulators must give the same makespan exactly."""
    machine = MachineConfig(
        cores=cores, queue_capacity=capacity, communication_latency=latency
    )
    chain = stage_chain([(False, costs[0]), (True, costs[1]), (False, costs[2])])
    multi = MultiStageSimulator(machine).simulate(
        SimpleNamespace(stages=chain), iterations
    )
    graph = TaskGraph([
        Task(3 * iteration + slot, Phase("ABC"[slot]), iteration, cost)
        for iteration in range(iterations)
        for slot, cost in enumerate(costs)
    ])
    pipeline = PipelineSimulator(machine).simulate(graph)
    assert multi.makespan == pipeline.makespan
    assert multi.core_allocation == [1, cores - 2, 1]


def test_gcc_producer_sections_take_no_lock():
    """All of 176.gcc's A tasks carry Commutative sections, and no version
    of the simulator has locked them: compiled A rows carry none, so the
    one recurrence (which locks sections wherever they appear) keeps the
    curve the frozen reference draws."""
    from repro.core.framework import ParallelizationFramework
    from repro.workloads.suite import make_workload

    evaluation = ParallelizationFramework().evaluate(make_workload("176.gcc"))
    graph = evaluation.graph
    a_tasks = graph.tasks_in_phase(Phase.A)
    assert len(a_tasks) == 60 and all(task.section_costs for task in a_tasks)
    assert all(a_task[3] == () for a_task, _, _ in graph.pipeline_rows())
    for threads in (4, 32):
        shipped = evaluation.simulations[threads]
        reference = reference_simulate(graph, shipped.machine)
        assert dataclasses.asdict(shipped) == dataclasses.asdict(reference)


# -- the analyzer's what-if replay ------------------------------------------------


@st.composite
def chain_costs(draw, items):
    """Measured-looking per-item costs: serialization is one per-run
    constant per channel, as ``costs_from_chains`` makes it."""
    seconds = st.floats(min_value=0.0, max_value=0.02, allow_nan=False)
    sometimes = st.one_of(st.just(0.0), seconds)

    def column(values):
        return draw(st.lists(values, min_size=items, max_size=items))

    return ChainCosts(
        a=column(seconds), b=column(seconds), c=column(seconds),
        reexec=column(sometimes), gate=column(sometimes),
        s_prod=[draw(sometimes)] * items, s_done=[draw(sometimes)] * items,
    )


@given(data=st.data(), capacity=st.sampled_from([0, 16, 32, 64]),
       workers=st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_replay_matches_reference(data, capacity, workers):
    """The base projection and every standard edit.  The two queue rules
    differ only once the work channel fills, and with at most ``capacity``
    items it cannot (capacity 0 is unbounded), so stage costs, edits,
    worker pick and the done-channel latency must agree to 1e-9."""
    items = data.draw(st.integers(min_value=1, max_value=capacity or 64))
    costs = data.draw(chain_costs(items))
    for _, _, edits in [("base", "", {})] + default_what_ifs(workers, capacity):
        assert replay(costs, workers, capacity, **edits) == pytest.approx(
            reference_replay(costs, workers, capacity, **edits), abs=1e-9
        )


def test_replay_full_work_channel_differs_from_reference():
    """A full work channel, on purpose.  The old replay took the credit
    *before* running A, on one queue all workers shared; the one rule runs
    A, then stalls its hand-off (what ``work.put`` does) on the queue to the
    worker it picked.  Here the channel holds 4 items, so item 5 needs the
    slot item 1 frees when its B starts at 4 ms.  The old replay waits for
    it before running A's 4 ms (hand-off at 8 ms); the one rule runs A from
    3 ms and only needs the slot at the hand-off, at 7 ms."""
    ms = 0.001
    costs = ChainCosts(
        a=[0, 0, 2 * ms, 1 * ms, 0, 4 * ms],
        b=[4 * ms, 0, 2 * ms, 0, 0, 4 * ms],
        c=[1 * ms] * 6,
        reexec=[0.0] * 6, gate=[0.0] * 6, s_prod=[0.0] * 6, s_done=[0.0] * 6,
    )
    assert replay(costs, 1, 4) == pytest.approx(12 * ms, abs=1e-9)
    assert reference_replay(costs, 1, 4) == pytest.approx(13 * ms, abs=1e-9)
    # Unbounded, the two agree.
    assert replay(costs, 1) == pytest.approx(reference_replay(costs, 1), abs=1e-9)
