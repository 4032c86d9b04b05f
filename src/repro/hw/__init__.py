"""The hardware substrate the paper's simulator assumes (Section 3.1).

"The model assumes that tasks communicate via shared memory and core-to-core
communication queues.  It further assumes a versioned memory hardware
subsystem, allowing for privatization of data and memory alias speculation.
... the simulator accurately modeled full and empty conditions on 256
32-entry queues."

- :mod:`repro.hw.machine` — the machine description (cores, queues, latency);
- :mod:`repro.hw.queues` — bounded core-to-core queues with full/empty
  blocking semantics, executable for the runtimes and their tests (the
  performance simulator applies the same rule to times, in
  :func:`repro.core.simulator.schedule`);
- :mod:`repro.hw.versioned_memory` — an executable versioned-memory model:
  per-epoch speculative versions, privatization, conflict detection, eager
  forwarding, silent-store suppression, in-order commit and rollback;
- :mod:`repro.hw.events` — a small deterministic discrete-event kernel.
"""

from repro.hw.events import EventKernel
from repro.hw.machine import MachineConfig
from repro.hw.queues import (
    BlockingBoundedQueue,
    BoundedQueue,
    QueueEmptyError,
    QueueFullError,
)
from repro.hw.versioned_memory import (
    ConflictError,
    Epoch,
    EpochState,
    VersionedMemory,
)

__all__ = [
    "BlockingBoundedQueue",
    "BoundedQueue",
    "ConflictError",
    "Epoch",
    "EpochState",
    "EventKernel",
    "MachineConfig",
    "QueueEmptyError",
    "QueueFullError",
    "VersionedMemory",
]
