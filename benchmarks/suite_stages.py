"""Where one ``suite-simulate`` pass spends its time, stage by stage.

Runs each stage of ``ParallelizationFramework.evaluate`` on its own for the
11 SPEC analogs at the benchmark's sizes (``bench/inputs.py``), takes the
best of ``--repeat`` readings per analog and prints the per-pass sum::

    PYTHONPATH=src python benchmarks/suite_stages.py [--repeat 5]

"tracer hooks" is the traced run minus the untraced one (the same run under
a tracer whose hooks do nothing).  Four rows are the analogs' own kernels,
each the time spent inside it: "text generation" is ``generate_text``
inside the construction of 164.gzip and 256.bzip2; "mem2reg" is
``promote_memory_to_registers`` inside 176.gcc's traced run; "bzip2
compress_block" is the traced run's block compressions; "gzip deflate" is
``GzipWorkload._deflate_block`` inside both of 164.gzip's traced runs.
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
import repro.workloads.bzip2_w as bzip2_w  # noqa: E402
import repro.workloads.gzip_w as gzip_w  # noqa: E402
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


class Clock:
    """Accumulates the time spent in the functions it is installed on."""

    def __init__(self, *targets):
        self.seconds = 0.0
        for owner, attribute in targets:
            self._install(owner, attribute)

    def _install(self, owner, attribute):
        inner = getattr(owner, attribute)

        def clocked(*args, **kwargs):
            started = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started

        setattr(owner, attribute, clocked)


def install_clocks():
    """Kernel clocks, each named by the stage row it prints as."""
    return {
        "text generation": Clock(
            (gzip_w, "generate_text"), (bzip2_w, "generate_text")
        ),
        "mem2reg (176.gcc)": Clock((ssa, "promote_memory_to_registers")),
        "bzip2 compress_block": Clock((bzip2_w, "compress_block")),
        "gzip deflate (both traces)": Clock((gzip_w.GzipWorkload, "_deflate_block")),
    }


def clocked_stage(clocks, function):
    """(seconds, result, {clock name: seconds inside it}) of one stage."""
    for clock in clocks.values():
        clock.seconds = 0.0
    seconds, result = timed(function)
    return seconds, result, {name: clock.seconds for name, clock in clocks.items()}


def stage_times(framework, name, clocks):
    """One reading of every stage for analog ``name``, in seconds."""
    times = {}
    times["analog construction"], workload, inside = clocked_stage(
        clocks, lambda: inputs.analog(name)
    )
    times["text generation"] = inside["text generation"]
    times["traced run (= ref_wall_s)"], (trace, _), inside = clocked_stage(
        clocks, lambda: framework.profile_workload(workload, parallel_policy=False)
    )
    for kernel in ("mem2reg (176.gcc)", "bzip2 compress_block",
                   "gzip deflate (both traces)"):
        times[kernel] = inside[kernel]
    times["untraced run"], _ = timed(lambda: untraced_run(workload))
    times["Y-branch second trace"] = 0.0
    if workload.uses_ybranch:
        times["Y-branch second trace"], (trace, _), inside = clocked_stage(
            clocks, lambda: framework.profile_workload(workload, parallel_policy=True)
        )
        times["gzip deflate (both traces)"] += inside["gzip deflate (both traces)"]
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
    clocks = install_clocks()
    best = {}
    for name in inputs.ANALOG_SIZES:
        for _ in range(args.repeat):
            for stage, seconds in stage_times(framework, name, clocks).items():
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
