"""Executable analogs of the SPEC CINT2000 C benchmarks.

The paper evaluates on the eleven C benchmarks of SPEC CINT2000, measured
natively on an Itanium 2.  Neither the suite nor the hardware is available
here, so each benchmark is replaced by a *real, runnable* Python program of
the same algorithm family, decomposed around the same loop the paper names
into the same A/B/C phases, and instrumented with the tracer.  DESIGN.md §4
documents every substitution.

Use :data:`repro.workloads.suite.SUITE` to get all eleven, or import one:

- :mod:`repro.workloads.gzip_w` — LZ77 compressor (Y-branch blocks)
- :mod:`repro.workloads.bzip2_w` — BWT+MTF+RLE/Huffman block compressor
- :mod:`repro.workloads.vpr_w` — annealing FPGA placer (Commutative RNG)
- :mod:`repro.workloads.twolf_w` — annealing standard-cell placer
- :mod:`repro.workloads.mcf_w` — network-simplex min-cost-flow solver
- :mod:`repro.workloads.crafty_w` — alpha-beta game-tree search
- :mod:`repro.workloads.parser_w` — CYK grammar checker (Commutative arena)
- :mod:`repro.workloads.perlbmk_w` — stack-machine interpreter
- :mod:`repro.workloads.gap_w` — algebra interpreter with copying GC
- :mod:`repro.workloads.vortex_w` — B-tree object database
- :mod:`repro.workloads.gcc_w` — mini-C compiler over :mod:`repro.ir`
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workloads.base": ("OutputComparison", "Workload", "WorkloadInfo"),
})
