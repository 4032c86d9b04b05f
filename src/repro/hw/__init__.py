"""The hardware substrate the paper's simulator assumes (Section 3.1).

"The model assumes that tasks communicate via shared memory and core-to-core
communication queues.  It further assumes a versioned memory hardware
subsystem, allowing for privatization of data and memory alias speculation.
... the simulator accurately modeled full and empty conditions on 256
32-entry queues."

- :mod:`repro.hw.machine` — the machine description (cores, queues, latency);
  the queues' full/empty rule is applied to times by
  :func:`repro.core.simulator.schedule` and to real items by the engine's
  channels (:mod:`repro.exec.channels`);
- :mod:`repro.hw.versioned_memory` — an executable versioned-memory model:
  per-epoch speculative versions, privatization, conflict detection, eager
  forwarding, silent-store suppression, in-order commit and rollback.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.hw.machine": ("MachineConfig",),
    "repro.hw.versioned_memory": (
        "ConflictError", "Epoch", "EpochState", "VersionedMemory",
    ),
})
