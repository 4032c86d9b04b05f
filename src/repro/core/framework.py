"""The parallelization framework orchestrator.

Two front doors:

- :meth:`ParallelizationFramework.evaluate` — the **trace route** used for
  the paper's evaluation: run a workload analog sequentially under the
  tracer, build the memory profile, choose speculation, construct the task
  graph, and simulate it across thread counts (Sections 3.1-3.2);
- :meth:`ParallelizationFramework.parallelize_loop` — the **IR route**: take
  a whole program and a loop, build the PDG, apply profile-guided
  speculation, partition with speculative PS-DSWP, and return the stage
  assignment plus a synthetic task graph for simulation (Sections 2.1-2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.annotations.registry import global_registry
from repro.core.plan import ExecutionPlan
from repro.core.report import SpeedupReport
from repro.core.simulator import PipelineSimulator, SimulationResult
from repro.core.tasks import Phase, TaskGraph
from repro.hw.machine import MachineConfig
from repro.profiling.context import activate
from repro.profiling.branch_profile import BranchProfile, BranchSummary
from repro.profiling.loop_profile import LoopProfile
from repro.profiling.memory_profile import MemoryProfile
from repro.profiling.tracer import Tracer, TraceResult
from repro.profiling.value_profile import SiteSummary, ValueProfile
from repro.speculation.manager import SpeculationPlan, plan_from_profile
from repro.speculation.misspec import MisspeculationReport, analyze_misspeculation
from repro.workloads.base import OutputComparison, Workload

#: Thread counts matching the paper's figures (1 to 32 cores); the grid
#: includes every best-threads value Table 2 reports (5, 8, 10, 12, 15, 16, 32).
DEFAULT_THREAD_COUNTS: Tuple[int, ...] = (
    1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 15, 16, 20, 24, 28, 32
)


@dataclass(frozen=True)
class FrameworkConfig:
    """Knobs of the framework; the defaults reproduce the paper's setup.

    The booleans are the ablation switches benchmarked in
    ``benchmarks/test_ablations.py``:

    - ``enable_speculation=False`` synchronizes every conflicting location
      (no alias/value speculation at all);
    - ``enable_commutative=False`` ignores Commutative annotations (their
      accesses become ordinary dependences);
    - ``engage_ybranch=False`` leaves Y-branches on sequential policy.
    """

    machine: MachineConfig = field(default_factory=MachineConfig)
    thread_counts: Tuple[int, ...] = DEFAULT_THREAD_COUNTS
    enable_speculation: bool = True
    enable_commutative: bool = True
    engage_ybranch: bool = True

    def with_(self, **overrides) -> "FrameworkConfig":
        return replace(self, **overrides)


@dataclass
class WorkloadEvaluation:
    """Everything :meth:`ParallelizationFramework.evaluate` produces.

    ``warnings`` collects correctness caveats the framework detected — most
    importantly Commutative groups used under speculation without a
    registered rollback function, which Section 2.3.2 requires ("a rollback
    function existed to undo the effects of calls to the Commutative
    function").
    """

    workload: Workload
    report: SpeedupReport
    sequential_trace: TraceResult
    parallel_trace: TraceResult
    profile: MemoryProfile
    plan: SpeculationPlan
    graph: TaskGraph
    misspeculation: MisspeculationReport
    simulations: Dict[int, SimulationResult]
    output_comparison: OutputComparison
    warnings: List[str] = field(default_factory=list)
    #: Value sites the profile proved predictable enough to speculate
    #: (Section 4.1.3's PL_stack_sp discovery, crafty's search state, ...).
    value_speculations: List[SiteSummary] = field(default_factory=list)
    #: Branch sites biased enough for control speculation (crafty's
    #: next_time_check).  Y-branches are excluded — they need no bias.
    control_speculations: List[BranchSummary] = field(default_factory=list)

    @property
    def sequential_cost(self) -> int:
        return self.sequential_trace.total_cost

    def speedup_at(self, threads: int) -> float:
        return self.report.curve[threads]


class ParallelizationFramework:
    """Ties profiling, annotation, speculation, planning and simulation together."""

    def __init__(self, config: Optional[FrameworkConfig] = None) -> None:
        self.config = config or FrameworkConfig()

    # ----------------------------------------------------------------------------
    # Trace route
    # ----------------------------------------------------------------------------

    def profile_workload(self, workload: Workload, parallel_policy: bool) -> Tuple[TraceResult, Any]:
        """Run ``workload`` once under the tracer; returns (trace, output).

        ``parallel_policy`` engages Y-branch interval firing; sequential
        policy reproduces the original program bit-for-bit.
        """
        registry = global_registry()
        if parallel_policy and self.config.engage_ybranch:
            registry.engage_parallel_policies()
        else:
            registry.restore_sequential_policies()
        try:
            tracer = Tracer()
            with activate(tracer):
                output = workload.run(tracer)
            return tracer.finish(), output
        finally:
            registry.restore_sequential_policies()

    def evaluate(self, workload: Workload) -> WorkloadEvaluation:
        """Full pipeline: profile → speculate → plan → simulate → report."""
        sequential_trace, sequential_output = self.profile_workload(
            workload, parallel_policy=False
        )
        if workload.uses_ybranch and self.config.engage_ybranch:
            parallel_trace, parallel_output = self.profile_workload(
                workload, parallel_policy=True
            )
        else:
            parallel_trace, parallel_output = sequential_trace, sequential_output

        profile = MemoryProfile(
            parallel_trace, honor_commutative=self.config.enable_commutative
        )
        plan = self._choose_speculation(workload, profile)
        graph = TaskGraph.from_trace(parallel_trace, profile, plan)
        misspeculation = analyze_misspeculation(profile, plan)

        # The single-threaded baseline is the *sequential-policy* run: the
        # paper reports MT speedup over the original single-threaded program.
        st_cost = sequential_trace.total_cost
        simulations: Dict[int, SimulationResult] = {}
        curve: Dict[int, float] = {}
        for threads in self.config.thread_counts:
            result = self.simulate_graph(graph, threads)
            simulations[threads] = result
            curve[threads] = st_cost / result.makespan if result.makespan else 1.0

        warnings: List[str] = []
        if self.config.enable_speculation and plan.commutative_groups:
            registry = global_registry()
            known = set(registry.commutative_groups())
            for group in registry.validate_rollbacks(
                [g for g in plan.commutative_groups if g in known]
            ):
                warnings.append(
                    f"Commutative group {group!r} is used under speculation "
                    "but registers no rollback function (Section 2.3.2)"
                )

        value_speculations: List[SiteSummary] = []
        control_speculations: List[BranchSummary] = []
        if self.config.enable_speculation:
            value_speculations = ValueProfile(parallel_trace).speculation_candidates()
            control_speculations = [
                summary
                for summary in BranchProfile(parallel_trace).speculation_candidates()
                if not summary.is_ybranch
            ]

        report = SpeedupReport(name=workload.name, curve=curve)
        comparison = workload.compare_outputs(sequential_output, parallel_output)
        return WorkloadEvaluation(
            workload=workload,
            report=report,
            sequential_trace=sequential_trace,
            parallel_trace=parallel_trace,
            profile=profile,
            plan=plan,
            graph=graph,
            misspeculation=misspeculation,
            simulations=simulations,
            output_comparison=comparison,
            warnings=warnings,
            value_speculations=value_speculations,
            control_speculations=control_speculations,
        )

    def _choose_speculation(self, workload: Workload, profile: MemoryProfile) -> SpeculationPlan:
        if not self.config.enable_speculation:
            # Ablation: synchronize every conflicting location.
            plan = plan_from_profile(
                profile,
                synchronize_rate_threshold=-1.0,  # everything >= threshold
                forced_synchronized=(),
                forced_speculated=(),
            )
            return plan
        return plan_from_profile(
            profile,
            synchronize_rate_threshold=workload.synchronize_rate_threshold,
            forced_synchronized=workload.forced_synchronized(),
            forced_speculated=workload.forced_speculated(),
        )

    # ----------------------------------------------------------------------------
    # IR route
    # ----------------------------------------------------------------------------

    def parallelize_loop(self, program, loop, *, branch_profile=None,
                         value_profile=None, memory_conflict_rates=None,
                         iterations: int = 64, inline_calls: bool = False,
                         profile_arguments: Optional[Sequence[int]] = None,
                         profile_entry: Optional[str] = None):
        """Speculative PS-DSWP on an IR loop; see :mod:`repro.dswp`.

        With ``inline_calls=True`` the whole-program scope of Section 2.2 is
        applied first: eligible call sites inside the loop are inlined so
        deeply nested code becomes visible to the partitioner.  With
        ``profile_arguments`` (a list of integers for the entry function),
        the program is first *executed* through the interpreter and the
        branch/value/conflict profiles are collected from that run — the
        profile-guided speculation of Section 2.1, end to end.  Returns a
        :class:`repro.dswp.partition.Partition` whose synthetic task graph
        can be fed straight to :class:`PipelineSimulator`.
        """
        from repro.analysis.callgraph import compute_side_effects
        from repro.dswp.partition import partition_loop
        from repro.ir.inline import inline_loop_calls

        if inline_calls:
            loop = inline_loop_calls(program, loop)
        if profile_arguments is not None:
            from repro.ir.profile_collector import collect_profiles

            profiles = collect_profiles(
                program, loop, entry=profile_entry, arguments=profile_arguments
            )
            branch_profile = branch_profile or profiles.branch_profile
            value_profile = value_profile or profiles.value_profile
            if memory_conflict_rates is None:
                memory_conflict_rates = profiles.memory_conflict_rates
        compute_side_effects(program)
        return partition_loop(
            program,
            loop,
            branch_profile=branch_profile,
            value_profile=value_profile,
            memory_conflict_rates=memory_conflict_rates,
            iterations=iterations,
        )

    def simulate_graph(self, graph: TaskGraph, threads: int) -> SimulationResult:
        simulator = PipelineSimulator(self.config.machine.with_cores(threads))
        return simulator.simulate(graph)
