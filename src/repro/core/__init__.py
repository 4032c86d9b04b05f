"""The parallelization framework: the paper's primary contribution.

- :mod:`repro.core.tasks` — tasks, phases and the task dependence graph the
  simulator consumes (Section 3.1-3.2 methodology);
- :mod:`repro.core.plan` — execution plans: which cores run which phases;
- :mod:`repro.core.simulator` — the multi-core performance simulator with
  queue backpressure, dynamic least-loaded B-core assignment, Commutative
  atomic sections and misspeculation-as-serialization;
- :mod:`repro.core.framework` — the orchestrator tying profiling,
  annotations, speculation, partitioning, planning and simulation together
  for both the IR route and the trace route;
- :mod:`repro.core.report` — speedup curves, Table 2's Moore's-law
  comparison, and suite-level aggregation.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.framework": (
        "FrameworkConfig", "ParallelizationFramework", "WorkloadEvaluation",
    ),
    "repro.core.gantt": ("render_gantt",),
    "repro.core.plan": ("ExecutionPlan",),
    "repro.core.report": (
        "SpeedupReport", "SuiteReport", "moores_law_speedup",
    ),
    "repro.core.simulator": ("PipelineSimulator", "SimulationResult"),
    "repro.core.tasks": ("Phase", "SerializationEdge", "Task", "TaskGraph"),
})
