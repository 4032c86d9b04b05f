"""176.gcc analog: a per-function parallel compile of a mini-C unit.

Section 4.2.1: gcc's parse loop hands each finished function to
``rest_of_compilation``, whose optimization sequence dominates runtime
(80-90%) and is superlinear in function size.  Since no interprocedural
optimization runs, functions can compile in parallel — once four
dependences are dealt with, each reproduced here:

- the **global symbol table** (a hash table updated with local symbols just
  before printing): alias speculation drowns in misspeculation, so its
  lookup/insert function is annotated *Commutative*;
- the **obstack allocators**: the ``permanent_obstack`` functions are
  Commutative too; other obstack pointers are value-predicted to return to
  their pre-function value after phase B (a value site the profile proves);
- **bit-flag fields** sharing a byte (``common.public_flag`` vs
  ``common.static_flag``): the analog's IR uses field-split memory objects
  (:class:`repro.ir.values.MemoryObject` with ``field=``), the same fix;
- **label_num**: made *(function, number)* so label numbering is private
  per function; the emitted assembly differs from a sequential compile only
  in label spelling — "semantically, though not syntactically, equivalent".

The compiler is real: :mod:`repro.workloads.gcc_compiler` lexes, parses,
lowers to :mod:`repro.ir`, runs the :mod:`repro.ir.transforms` pass
pipeline, and emits assembly text.
"""

from __future__ import annotations

import zlib
from typing import Dict, List

from repro.annotations.commutative import commutative
from repro.profiling.context import current_tracer
from repro.profiling.tracer import Tracer
from repro.workloads.base import Workload, WorkloadInfo
from repro.workloads.gcc_compiler import (
    Parser,
    compile_function,
    generate_source,
    tokenize,
)

_symbol_table: Dict[str, int] = {}


def _reset_symbol_table() -> None:
    _symbol_table.clear()


def symtab_remove(name: str) -> None:
    """Rollback partner of :func:`symtab_insert`."""
    _symbol_table.pop(name, None)


@commutative(group="gcc.symtab", rollback=symtab_remove)
def symtab_insert(name: str, value: int) -> None:
    """Insert into the global symbol table (Commutative, Section 4.2.1)."""
    tracer = current_tracer()
    # A stable fold: ``hash(str)`` varies with PYTHONHASHSEED.
    bucket = zlib.crc32(name.encode()) % 64
    if tracer is not None:
        tracer.load("symtab", bucket)
    _symbol_table[name] = value
    if tracer is not None:
        tracer.store("symtab", bucket, value=value)
        tracer.work(1)


@commutative(group="gcc.obstack", rollback=lambda: None)
def obstack_alloc(size: int) -> int:
    """permanent_obstack allocation (Commutative)."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.load("obstack", "next_free")
        tracer.store("obstack", "next_free", value=size)
        tracer.work(1)
    return size


class GccWorkload(Workload):
    """yyparse: one iteration per function reaching rest_of_compilation."""

    info = WorkloadInfo(
        name="176.gcc",
        loops=("yyparse (c-parse.c:1396-3380)",),
        exec_time_pct="95%",
        lines_changed_all=18,
        lines_changed_model=8,
        techniques=(
            "Commutative", "Alias & Control Speculation", "TLS Memory", "DSWP",
        ),
    )

    def __init__(self, seed: int = 176, function_count: int = 60) -> None:
        self.source = generate_source(seed, function_count)

    def run(self, tracer: Tracer):
        _reset_symbol_table()
        tokens = tokenize(self.source)
        unit = Parser(tokens).parse_unit()
        assembly: List[str] = []
        total_folds = 0

        for iteration, function_ast in enumerate(unit):
            name = function_ast[1]
            with tracer.task("A", iteration):
                # The parse actions for this function: linear in its tokens.
                token_share = sum(
                    _ast_size(node) for node in function_ast[3]
                )
                symtab_insert(name, iteration)
                tracer.work(4 + 2 * token_share)

            with tracer.task("B", iteration):
                obstack_alloc(16)
                lines, stats, work = compile_function(function_ast, iteration)
                # Other obstack pointers return to their pre-function value
                # after the function is compiled: the value-prediction site.
                tracer.value("obstack.saved_pointers", 0)
                for local in ("x", "y", "z", "t"):
                    symtab_insert(f"{name}.{local}", iteration)
                tracer.store("asm.out", iteration, value=len(lines))
                tracer.work(work)
                total_folds += stats["constant_fold"]

            with tracer.task("C", iteration):
                tracer.load("asm.out", iteration)
                assembly.extend(lines)
                tracer.work(1 + len(lines) // 4)

        return {
            "assembly_lines": len(assembly),
            "functions": len(unit),
            "constant_folds": total_folds,
            "digest": sum(map(len, assembly)) % (1 << 32),
        }


def _ast_size(node) -> int:
    if not isinstance(node, tuple):
        return 1
    return 1 + sum(_ast_size(child) for child in node)
