"""Differential oracle: each analog's traced run against the program it stands for.

256.bzip2 and 197.parser declare their loop once, as ``spec(rec)``; their
traced run is :meth:`Workload.run` driving that spec.  Against the frozen
inline loops of ``tests/reference_workloads.py``, under both Y-branch
policies, every trace field (tasks and their costs, accesses with their
silent-store flags, values, branches, section costs), the output and every
:class:`SimulationResult` field at all 16 core counts must come out equal —
at the default sizes and at the sizes the benchmark runs.

164.gzip keeps its own traced run (the Y-branch heuristic, not a pipeline);
its engine spec is the interval policy made concrete, held to that run by
block count and ``compare_outputs``.
"""

import dataclasses

import pytest

from repro.core.framework import DEFAULT_THREAD_COUNTS, ParallelizationFramework
from repro.exec import run_sequential
from repro.profiling.tracer import TraceResult
from repro.workloads.gzip_w import GzipWorkload
from repro.workloads.suite import SUITE
from tests.reference_workloads import reference_bzip2_run, reference_parser_run

REFERENCE_RUNS = {
    "256.bzip2": reference_bzip2_run,
    "197.parser": reference_parser_run,
}

#: Default sizes, then the sizes ``bench/inputs.py:ANALOG_SIZES`` runs.
SIZES = {
    "256.bzip2": [{}, {"block_size": 4096}],
    "197.parser": [{}, {"sentence_count": 240, "command_every": 80}],
}

CASES = [(name, sizes) for name in REFERENCE_RUNS for sizes in SIZES[name]]


def frozen(name, sizes):
    """The analog with its frozen inline loop in place of the derived run."""
    cls = SUITE[name]
    reference = type(f"Reference{cls.__name__}", (cls,), {"run": REFERENCE_RUNS[name]})
    return reference(**sizes)


def view(workload):
    framework = ParallelizationFramework()
    runs = [framework.profile_workload(workload, policy) for policy in (False, True)]
    return runs, framework.evaluate(workload).simulations


@pytest.mark.parametrize(
    "name, sizes", CASES,
    ids=[f"{name}-{'bench' if sizes else 'default'}" for name, sizes in CASES],
)
def test_derived_run_matches_frozen_loop(name, sizes):
    shipped_runs, shipped_sims = view(SUITE[name](**sizes))
    reference_runs, reference_sims = view(frozen(name, sizes))

    for (trace, output), (reference_trace, reference_output) in zip(
        shipped_runs, reference_runs
    ):
        assert output == reference_output
        for field in dataclasses.fields(TraceResult):
            assert getattr(trace, field.name) == getattr(reference_trace, field.name), \
                field.name

    assert list(shipped_sims) == list(DEFAULT_THREAD_COUNTS)
    assert len(shipped_sims) == 16
    for threads, result in shipped_sims.items():
        for field in dataclasses.fields(result):
            assert getattr(result, field.name) == \
                getattr(reference_sims[threads], field.name), (threads, field.name)


@pytest.mark.parametrize("sizes", [{}, {"size": 96 * 1024}], ids=["default", "bench"])
def test_gzip_spec_is_the_interval_policy_made_concrete(sizes):
    workload = GzipWorkload(**sizes)
    _, traced = ParallelizationFramework().profile_workload(
        workload, parallel_policy=True
    )
    executed, _ = run_sequential(workload.exec_spec())
    assert executed["blocks"] == traced["blocks"]
    assert workload.compare_outputs(traced, executed).acceptable
