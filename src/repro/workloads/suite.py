"""The full benchmark suite: all eleven SPEC CINT2000 C analogs.

``SUITE`` maps the SPEC name to a zero-argument factory; factories (rather
than instances) keep benchmark runs independent — each evaluation gets a
fresh workload with freshly seeded inputs.

``PAPER_TABLE2`` records the paper's Table 2 for comparison in
EXPERIMENTS.md and the table-2 benchmark: (best speedup, min threads at
which it occurs).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.workloads.base import Workload
from repro.workloads.bzip2_w import Bzip2Workload
from repro.workloads.crafty_w import CraftyWorkload
from repro.workloads.gap_w import GapWorkload
from repro.workloads.gcc_w import GccWorkload
from repro.workloads.gzip_w import GzipWorkload
from repro.workloads.mcf_w import McfWorkload
from repro.workloads.parser_w import ParserWorkload
from repro.workloads.perlbmk_w import PerlbmkWorkload
from repro.workloads.twolf_w import TwolfWorkload
from repro.workloads.vortex_w import VortexWorkload
from repro.workloads.vpr_w import VprWorkload

SUITE: Dict[str, Callable[[], Workload]] = {
    "164.gzip": GzipWorkload,
    "175.vpr": VprWorkload,
    "176.gcc": GccWorkload,
    "181.mcf": McfWorkload,
    "186.crafty": CraftyWorkload,
    "197.parser": ParserWorkload,
    "253.perlbmk": PerlbmkWorkload,
    "254.gap": GapWorkload,
    "255.vortex": VortexWorkload,
    "256.bzip2": Bzip2Workload,
    "300.twolf": TwolfWorkload,
}

#: Figure membership, as in the paper's evaluation section.
FIGURE4 = ["181.mcf", "253.perlbmk", "255.vortex", "256.bzip2"]
FIGURE5 = ["176.gcc", "254.gap"]
FIGURE6 = ["186.crafty", "197.parser", "300.twolf", "175.vpr"]
FIGURE7 = ["164.gzip"]

#: Table 2 of the paper: benchmark -> (# threads, speedup).
PAPER_TABLE2: Dict[str, Tuple[int, float]] = {
    "164.gzip": (32, 29.91),
    "175.vpr": (15, 3.59),
    "176.gcc": (16, 5.06),
    "181.mcf": (32, 2.84),
    "186.crafty": (32, 25.18),
    "197.parser": (32, 24.50),
    "253.perlbmk": (5, 1.21),
    "254.gap": (10, 1.94),
    "255.vortex": (32, 4.92),
    "256.bzip2": (12, 6.72),
    "300.twolf": (8, 2.06),
}


def suite_names() -> List[str]:
    return list(SUITE)


def exec_names() -> List[str]:
    """Benchmarks that can run for real on the multiprocess engine: those
    that declare their loop as a ``spec``."""
    return [name for name, factory in SUITE.items() if hasattr(factory, "spec")]


def make_workload(name: str) -> Workload:
    try:
        return SUITE[name]()
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(SUITE)}") from None
