"""Where one ``suite-simulate`` pass spends its time, stage by stage.

Runs each stage of ``ParallelizationFramework.evaluate`` on its own for the
11 SPEC analogs at the benchmark's sizes (``bench/inputs.py``), takes the
best of ``--repeat`` readings per analog and prints the per-pass sum::

    PYTHONPATH=src python benchmarks/suite_stages.py [--repeat 5]

"tracer hooks" is the traced run minus the untraced one (the same run under
a tracer whose hooks do nothing); "mem2reg" is the time 176.gcc's traced run
spends in ``promote_memory_to_registers``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import inputs  # noqa: E402

import repro.ir.ssa as ssa  # noqa: E402
from repro.annotations.registry import global_registry  # noqa: E402
from repro.core.framework import ParallelizationFramework  # noqa: E402
from repro.core.tasks import TaskGraph  # noqa: E402
from repro.profiling.context import activate  # noqa: E402
from repro.profiling.memory_profile import MemoryProfile  # noqa: E402
from repro.profiling.tracer import Tracer  # noqa: E402
from repro.speculation.misspec import analyze_misspeculation  # noqa: E402


class NullTracer(Tracer):
    """A tracer whose hooks cost a call and nothing else."""

    def task(self, phase, iteration):
        return nullcontext()

    def commutative(self, group):
        return nullcontext()

    def work(self, units=1):
        pass

    def load(self, obj, key=None):
        pass

    def store(self, obj, key=None, value=None):
        pass

    def value(self, site, value):
        pass

    def branch(self, site, taken, is_ybranch=False):
        pass


def timed(function):
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def untraced_run(workload):
    global_registry().restore_sequential_policies()
    tracer = NullTracer()
    with activate(tracer):
        workload.run(tracer)


def plan_and_misspeculation(framework, workload, profile):
    plan = framework._choose_speculation(workload, profile)
    analyze_misspeculation(profile, plan)
    return plan


class Mem2regClock:
    """Accumulates the time spent in ``promote_memory_to_registers``."""

    def __init__(self):
        self.seconds = 0.0
        self._inner = ssa.promote_memory_to_registers

    def __call__(self, function):
        elapsed, promoted = timed(lambda: self._inner(function))
        self.seconds += elapsed
        return promoted


def stage_times(framework, name, clock):
    """One reading of every stage for analog ``name``, in seconds."""
    times = {}
    times["analog construction"], workload = timed(lambda: inputs.analog(name))
    clock.seconds = 0.0
    times["traced run (= ref_wall_s)"], (trace, _) = timed(
        lambda: framework.profile_workload(workload, parallel_policy=False)
    )
    times["mem2reg (176.gcc)"] = clock.seconds
    times["untraced run"], _ = timed(lambda: untraced_run(workload))
    times["Y-branch second trace"] = 0.0
    if workload.uses_ybranch:
        times["Y-branch second trace"], (trace, _) = timed(
            lambda: framework.profile_workload(workload, parallel_policy=True)
        )
    times["MemoryProfile"], profile = timed(lambda: MemoryProfile(trace))
    times["plan + misspeculation"], plan = timed(
        lambda: plan_and_misspeculation(framework, workload, profile)
    )
    times["TaskGraph.from_trace"], graph = timed(
        lambda: TaskGraph.from_trace(trace, profile, plan)
    )
    times["compiled()"], _ = timed(graph.compiled)
    times["16 simulations"], _ = timed(lambda: [
        framework.simulate_graph(graph, threads)
        for threads in framework.config.thread_counts
    ])
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    framework = ParallelizationFramework()
    clock = Mem2regClock()
    ssa.promote_memory_to_registers = clock
    best = {}
    for name in inputs.ANALOG_SIZES:
        for _ in range(args.repeat):
            for stage, seconds in stage_times(framework, name, clock).items():
                key = (stage, name)
                best[key] = min(best.get(key, seconds), seconds)
    totals = {}
    for (stage, _), seconds in best.items():
        totals[stage] = totals.get(stage, 0.0) + seconds
    print(f"{'stage':<28} ms per pass  (best of {args.repeat} per analog, "
          f"{len(inputs.ANALOG_SIZES)} analogs)")
    for stage, seconds in totals.items():
        if stage == "untraced run":
            stage = "tracer hooks"
            seconds = totals["traced run (= ref_wall_s)"] - seconds
        print(f"{stage:<28} {seconds * 1000:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
