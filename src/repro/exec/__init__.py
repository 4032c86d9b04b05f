"""repro.exec — the real multiprocess pipeline execution engine.

The simulator (:mod:`repro.core.simulator`) predicts; this package
*executes*: the paper's A/B/C pipeline on real OS processes (or, with
``transport="thread"``, on threads of the calling process) with
bounded full/empty-blocking channels, speculative write buffers with
commit-time validation and rollback, bounded crash/hang recovery with
graceful degradation to sequential execution, and per-run metrics that
calibrate the simulator against measured wall clock.

- :mod:`repro.exec.engine`   — :class:`ExecutionEngine`, :class:`PipelineSpec`,
  the sequential reference, and TaskGraph replay;
- :mod:`repro.exec.committer` — :class:`Committer`, phase C as a process-free
  state machine: the reorder buffer and the in-order commit;
- :mod:`repro.exec.runtime`  — the :class:`Runtime` protocol (who owns the
  stages of a run) and :class:`LocalRuntime`, a process tree per run;
- :mod:`repro.exec.workers`  — producer/worker entry points;
- :mod:`repro.exec.channels` — bounded blocking inter-process channels;
- :mod:`repro.exec.rollback` — write buffers, version validation, commit;
- :mod:`repro.exec.faults`   — fault injection and the robustness policy;
- :mod:`repro.exec.metrics`  — the observability record of one run.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.exec.channels": (
        "ChannelChaos", "ChannelTimeout", "ProcessChannel", "decode_frame",
        "encode_frame",
    ),
    "repro.exec.committer": ("Committer",),
    "repro.exec.engine": (
        "EngineResult", "ExecutionEngine", "PipelineSpec", "run_sequential",
        "spec_from_task_graph",
    ),
    "repro.exec.faults": ("FaultPlan", "InjectedFault", "RobustnessPolicy"),
    "repro.exec.metrics": ("EngineMetrics",),
    "repro.exec.rollback": ("CommittedStore", "WriteBuffer"),
    "repro.exec.runtime": ("LocalRuntime", "Runtime"),
})
