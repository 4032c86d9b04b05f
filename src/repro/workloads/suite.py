"""The full benchmark suite: all eleven SPEC CINT2000 C analogs.

``SUITE`` maps the SPEC name to a zero-argument factory; factories (rather
than instances) keep benchmark runs independent — each evaluation gets a
fresh workload with freshly seeded inputs.  An analog's module is imported
the first time its factory is looked up.

``PAPER_TABLE2`` records the paper's Table 2 for comparison in
EXPERIMENTS.md and the table-2 benchmark: (best speedup, min threads at
which it occurs).
"""

from __future__ import annotations

import importlib
import threading
from collections.abc import Mapping
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

if TYPE_CHECKING:
    from repro.workloads.base import Workload

#: SPEC name -> the module (under :mod:`repro.workloads`) and class of its
#: analog.
_ANALOGS: Dict[str, Tuple[str, str]] = {
    "164.gzip": ("gzip_w", "GzipWorkload"),
    "175.vpr": ("vpr_w", "VprWorkload"),
    "176.gcc": ("gcc_w", "GccWorkload"),
    "181.mcf": ("mcf_w", "McfWorkload"),
    "186.crafty": ("crafty_w", "CraftyWorkload"),
    "197.parser": ("parser_w", "ParserWorkload"),
    "253.perlbmk": ("perlbmk_w", "PerlbmkWorkload"),
    "254.gap": ("gap_w", "GapWorkload"),
    "255.vortex": ("vortex_w", "VortexWorkload"),
    "256.bzip2": ("bzip2_w", "Bzip2Workload"),
    "300.twolf": ("twolf_w", "TwolfWorkload"),
}

#: The analogs whose class declares its loop as a ``spec``, so listing
#: them loads none (``tests/test_import_ratchet.py`` holds it to the
#: classes).
_EXEC_NAMES = ("164.gzip", "197.parser", "256.bzip2")

#: Held while an analog's module is imported.  A process forked while
#: another thread is half-way through that import inherits its module lock
#: held and hangs the moment it imports the analog itself (a pool worker
#: unpickling the analog's work), so :class:`repro.service.pool.WorkerPool`
#: forks under this lock too.
LOAD_LOCK = threading.RLock()


class _Suite(Mapping):
    """SPEC name -> analog class; a class's module is imported the first
    time the class is looked up, so naming the suite compiles no analog."""

    def __getitem__(self, name: str) -> Callable[[], "Workload"]:
        module, cls = _ANALOGS[name]
        with LOAD_LOCK:
            return getattr(
                importlib.import_module(f"repro.workloads.{module}"), cls
            )

    def __iter__(self):
        return iter(_ANALOGS)

    def __len__(self) -> int:
        return len(_ANALOGS)


SUITE: Mapping[str, Callable[[], "Workload"]] = _Suite()

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
    return list(_ANALOGS)


def exec_names() -> List[str]:
    """Benchmarks that can run for real on the multiprocess engine: those
    that declare their loop as a ``spec``."""
    return list(_EXEC_NAMES)


def make_workload(name: str) -> "Workload":
    try:
        return SUITE[name]()
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(SUITE)}") from None
