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


def _lazy_exports(package, exports):
    """PEP 562 hooks that re-export a package's public names lazily.

    ``exports`` maps a module to the names it defines; a name is imported
    from its module on first access and cached in the package, so
    importing a package compiles only the modules its caller touches.
    Returns ``(__all__, __getattr__, __dir__)``.
    """
    import importlib
    import sys

    owner = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(owner))

    return sorted(owner), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.framework": ("FrameworkConfig", "ParallelizationFramework"),
    "repro.core.report": ("SpeedupReport", "moores_law_speedup"),
    "repro.core.tasks": ("Phase", "Task", "TaskGraph"),
    "repro.annotations.commutative": ("commutative",),
    "repro.annotations.ybranch": ("ybranch",),
})
__all__ += ["__version__"]
