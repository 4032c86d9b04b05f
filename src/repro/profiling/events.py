"""Event records produced by the tracer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Optional, Tuple

#: A memory location at profiling granularity: (object name, key).  The key
#: is whatever the workload chooses — an array index, a dictionary key, a
#: node id — so one workload can be profiled coarsely and another finely.
Location = Tuple[str, Hashable]


class AccessKind(Enum):
    """Memory access direction."""

    LOAD = "load"
    STORE = "store"


@dataclass
class TaskRecord:
    """One dynamic task: an instance of a statically marked phase region.

    The paper's terminology (Section 3.1): "*phases* refer to statically
    selected regions and *tasks* refer [to] dynamic instances of a phase."

    Attributes:
        index: global sequence number in sequential execution order.
        phase: the phase letter, ``"A"``, ``"B"``, or ``"C"``.
        iteration: the loop iteration this task belongs to.
        cost: accumulated abstract work units (the pfmon-time stand-in).
    """

    index: int
    phase: str
    iteration: int
    cost: int = 0

    @property
    def key(self) -> Tuple[str, int]:
        return (self.phase, self.iteration)

    def __repr__(self) -> str:
        return f"TaskRecord({self.phase}{self.iteration}, cost={self.cost})"


#: One dynamic memory access, attributed to the task that made it, as a plain
#: tuple ``(task_index, kind, location, commutative_group, silent)``: a run
#: records tens of thousands.  ``commutative_group`` is non-None inside a
#: *Commutative* function; such accesses never create cross-task dependences
#: within the group (Section 2.3.2).  ``silent`` marks a store that wrote back
#: the value already there.  ``task_index`` never decreases along a trace.
AccessEvent = Tuple[int, AccessKind, Location, Optional[str], bool]


@dataclass
class ValueEvent:
    """One observation of a value at a named profiling site."""

    task_index: int
    site: str
    value: Hashable


@dataclass
class BranchEvent:
    """One dynamic outcome of a named branch site."""

    task_index: int
    site: str
    taken: bool
    is_ybranch: bool = False
