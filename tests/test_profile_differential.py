"""Differential oracle: the trace → profile → plan → graph path against its
frozen reference.

``tests/reference_profile.py`` holds the path as it was when every access
and every dependence was a dataclass.  Random event scripts (A/B/C tasks,
loads, stores, silent stores, nested Commutative groups, accesses between
tasks) and all eleven analogs under three configurations must give the
same dependences in the same order, the same accessor and section lists,
the same plan, the same edges and the same misspeculation report.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.framework as framework_module
from repro.core.framework import FrameworkConfig, ParallelizationFramework
from repro.core.tasks import TaskGraph
from repro.profiling.memory_profile import MemoryProfile
from repro.profiling.tracer import Tracer
from repro.speculation.manager import plan_from_profile
from repro.speculation.misspec import analyze_misspeculation
from repro.workloads.suite import SUITE
from tests.reference_profile import (
    ReferenceMemoryProfile,
    ReferenceTracer,
    reference_analyze_misspeculation,
    reference_from_trace,
    reference_plan_from_profile,
)

OBJECTS = ("x", "y")
KEYS = (0, 1, 2)
GROUPS = ("alloc", "rng")
LOCATIONS = [(obj, key) for obj in OBJECTS for key in KEYS]

_leaf = st.one_of(
    st.tuples(st.just("load"), st.sampled_from(OBJECTS), st.sampled_from(KEYS)),
    st.tuples(
        st.just("store"), st.sampled_from(OBJECTS), st.sampled_from(KEYS),
        st.one_of(st.none(), st.integers(0, 2)),  # small values: silent stores
    ),
    st.tuples(st.just("work"), st.integers(0, 5)),
)
_ops = st.recursive(
    _leaf,
    lambda inner: st.tuples(
        st.just("group"), st.sampled_from(GROUPS), st.lists(inner, max_size=4)
    ),
    max_leaves=10,
)
_body = st.lists(_ops, max_size=8)


@st.composite
def scripts(draw):
    """Iterations of A/B/C tasks in order, some followed by accesses made
    between tasks (charged to the task that just closed)."""
    script = []
    for iteration in range(draw(st.integers(1, 6))):
        for phase in sorted(draw(st.sets(st.sampled_from("ABC"), min_size=1))):
            script.append(("task", phase, iteration, draw(_body)))
            if draw(st.integers(0, 3)) == 0:
                script.append(("between", draw(_body)))
    return script


def play_ops(tracer, ops, in_task):
    for op in ops:
        if op[0] == "load":
            tracer.load(op[1], op[2])
        elif op[0] == "store":
            tracer.store(op[1], op[2], value=op[3])
        elif op[0] == "work":
            if in_task:
                tracer.work(op[1])
        else:
            with tracer.commutative(op[1]):
                play_ops(tracer, op[2], in_task)


def play(tracer, script):
    for step in script:
        if step[0] == "task":
            with tracer.task(step[1], step[2]):
                play_ops(tracer, step[3], in_task=True)
        else:
            play_ops(tracer, step[1], in_task=False)
    return tracer.finish()


def access_view(trace):
    return [
        access if isinstance(access, tuple) else (
            access.task_index, access.kind, access.location,
            access.commutative_group, access.silent,
        )
        for access in trace.accesses
    ]


def dependence_view(dependences):
    return [(d.source_index, d.target_index, d.kind, d.location) for d in dependences]


def profile_view(profile):
    return (
        dependence_view(profile.dependences),
        list(profile.location_accessors.items()),
        list(profile.commutative_sections.items()),
    )


def plan_view(plan):
    return (
        plan.speculated, plan.synchronized, plan.commutative_groups,
        plan.decisions, plan.synchronizations,
    )


def graph_view(graph):
    return graph.tasks, graph.edges


def report_view(report):
    return (
        report.total_iterations, report.misspeculated_iterations,
        dependence_view(report.events), report.by_location,
        report._iterations_hit, report.windowed_rates(2),
    )


@given(
    script=scripts(),
    honor_commutative=st.booleans(),
    threshold=st.sampled_from([-1.0, 0.25, 0.6, 2.0]),
    forced_synchronized=st.sets(st.sampled_from(LOCATIONS), max_size=2),
    forced_speculated=st.sets(st.sampled_from(LOCATIONS), max_size=2),
    window=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_event_scripts_match_reference(
    script, honor_commutative, threshold, forced_synchronized, forced_speculated, window
):
    reference_trace = play(ReferenceTracer(), script)
    trace = play(Tracer(), script)
    assert trace.tasks == reference_trace.tasks
    assert trace.section_costs == reference_trace.section_costs
    assert access_view(trace) == access_view(reference_trace)

    reference = ReferenceMemoryProfile(reference_trace, honor_commutative)
    profile = MemoryProfile(trace, honor_commutative)
    assert profile_view(profile) == profile_view(reference)

    options = dict(
        synchronize_rate_threshold=threshold,
        forced_synchronized=sorted(forced_synchronized),
        forced_speculated=sorted(forced_speculated),
    )
    reference_plan = reference_plan_from_profile(reference, **options)
    plan = plan_from_profile(profile, **options)
    assert plan_view(plan) == plan_view(reference_plan)

    for with_profile, with_plan in ((True, True), (True, False), (False, False)):
        expected = reference_from_trace(
            reference_trace,
            reference if with_profile else None,
            reference_plan if with_plan else None,
        )
        shipped = TaskGraph.from_trace(
            trace, profile if with_profile else None, plan if with_plan else None
        )
        assert graph_view(shipped) == graph_view(expected)

    assert report_view(analyze_misspeculation(profile, plan, window)) == report_view(
        reference_analyze_misspeculation(reference, reference_plan, window)
    )


#: Each analog small enough that the 33 reference/shipped pairs below stay
#: a few seconds; the same classes and code path as the full-size suite.
SMALL_SIZES = {
    "164.gzip": {"size": 24 * 1024},
    "175.vpr": {"outer_iterations": 3, "moves_per_iteration": 40},
    "176.gcc": {"function_count": 12},
    "181.mcf": {"nodes": 40, "max_rounds": 40},
    "186.crafty": {"max_depth": 4},
    "197.parser": {"sentence_count": 120, "command_every": 40},
    "253.perlbmk": {"statements": 200},
    "254.gap": {"statement_count": 200},
    "255.vortex": {"transactions": 150},
    "256.bzip2": {"block_size": 4096},
    "300.twolf": {"outer_iterations": 3, "moves_per_iteration": 40},
}

CONFIGS = {
    "default": FrameworkConfig(thread_counts=(1, 4, 32)),
    "no-speculation": FrameworkConfig(thread_counts=(1, 4, 32), enable_speculation=False),
    "no-commutative": FrameworkConfig(thread_counts=(1, 4, 32), enable_commutative=False),
}


def evaluation_view(evaluation):
    return (
        evaluation.parallel_trace.tasks,
        access_view(evaluation.parallel_trace),
        profile_view(evaluation.profile),
        plan_view(evaluation.plan),
        graph_view(evaluation.graph),
        report_view(evaluation.misspeculation),
        evaluation.report.curve,
    )


def test_small_sizes_cover_the_suite():
    assert set(SMALL_SIZES) == set(SUITE)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", sorted(SMALL_SIZES))
def test_analogs_match_reference(name, config, monkeypatch):
    def evaluate():
        workload = SUITE[name](**SMALL_SIZES[name])
        return ParallelizationFramework(CONFIGS[config]).evaluate(workload)

    shipped = evaluate()
    monkeypatch.setattr(framework_module, "Tracer", ReferenceTracer)
    monkeypatch.setattr(framework_module, "MemoryProfile", ReferenceMemoryProfile)
    monkeypatch.setattr(framework_module, "plan_from_profile", reference_plan_from_profile)
    monkeypatch.setattr(
        framework_module, "analyze_misspeculation", reference_analyze_misspeculation
    )
    monkeypatch.setattr(
        framework_module, "TaskGraph", SimpleNamespace(from_trace=reference_from_trace)
    )
    reference = evaluate()
    assert evaluation_view(shipped) == evaluation_view(reference)
