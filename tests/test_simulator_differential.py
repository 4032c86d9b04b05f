"""Differential oracle: the shipped simulators against their frozen references.

``tests/reference_simulator.py`` holds the pipeline recurrence and the
multi-stage loop as they were before the task graph was compiled once per
graph.  Every :class:`SimulationResult` field must come out equal — not just
the makespan: start/end/core per task and every stall counter.
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
from repro.pdg.scc import SCC
from tests.reference_simulator import (
    reference_multistage_makespan,
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


@given(
    stages=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=60)),
        min_size=1,
        max_size=6,
    ),
    spare_cores=st.integers(min_value=1, max_value=10),
    capacity=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=0, max_value=3),
    iterations=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_multistage_matches_reference(stages, spare_cores, capacity, latency, iterations):
    """Any stage chain, including neighbouring parallel stages the
    partitioner would have merged."""
    chain = [
        Stage(
            StageKind.PARALLEL if parallel else StageKind.SEQUENTIAL,
            f"{'P' if parallel else 'S'}{index}",
            [SCC(index, frozenset(), cost, parallel)],
        )
        for index, (parallel, cost) in enumerate(stages)
    ]
    machine = MachineConfig(
        cores=len(chain) + spare_cores,
        queue_capacity=capacity,
        communication_latency=latency,
    )
    result = MultiStageSimulator(machine).simulate(
        SimpleNamespace(stages=chain), iterations
    )
    assert result.makespan == reference_multistage_makespan(
        chain, result.core_allocation, machine, iterations
    )
