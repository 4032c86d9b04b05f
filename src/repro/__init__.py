"""repro — a reproduction of *Revisiting the Sequential Programming Model for
Multi-Core* (Bridges, Vachharajani, Zhang, Jablin, August — MICRO 2007).

The package implements, from scratch, the full system the paper describes:

- a compiler intermediate representation with whole-program scope
  (:mod:`repro.ir`) and the static analyses the framework needs
  (:mod:`repro.analysis`);
- profiling infrastructure that stands in for the paper's pfmon-based native
  measurement (:mod:`repro.profiling`);
- the program dependence graph and its SCC condensation (:mod:`repro.pdg`);
- alias / value / control / silent-store speculation (:mod:`repro.speculation`);
- the paper's two sequential-model extensions, *Y-branch* and *Commutative*
  (:mod:`repro.annotations`);
- Decoupled Software Pipelining with speculation and parallel-stage
  replication (:mod:`repro.dswp`) plus a TLS baseline (:mod:`repro.tls`);
- the multicore hardware model: machine description and versioned memory
  (:mod:`repro.hw`);
- the parallelization framework itself — tasks, phases, execution plans,
  simulation, and reporting (:mod:`repro.core`);
- executable analogs of the eleven SPEC CINT2000 C benchmarks
  (:mod:`repro.workloads`).

The most common entry points are re-exported lazily here, so ``import repro``
stays cheap and subpackages can be used in isolation.
"""

__version__ = "1.0.0"

_EXPORTS = {
    "FrameworkConfig": ("repro.core.framework", "FrameworkConfig"),
    "ParallelizationFramework": ("repro.core.framework", "ParallelizationFramework"),
    "SpeedupReport": ("repro.core.report", "SpeedupReport"),
    "moores_law_speedup": ("repro.core.report", "moores_law_speedup"),
    "Phase": ("repro.core.tasks", "Phase"),
    "Task": ("repro.core.tasks", "Task"),
    "TaskGraph": ("repro.core.tasks", "TaskGraph"),
    "commutative": ("repro.annotations.commutative", "commutative"),
    "ybranch": ("repro.annotations.ybranch", "ybranch"),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value
