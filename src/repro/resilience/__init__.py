"""repro.resilience — survive arbitrary fault timing, recover incrementally.

PR 1's engine made misspeculation survivable; this package makes it
*resumable*, *adaptive*, and *auditable*:

- :mod:`repro.resilience.checkpoint` — the committer periodically freezes
  the committed prefix (iteration index, committed store, accumulator,
  counters) so producer death, budget exhaustion, or an engine-level crash
  resumes from the last checkpoint instead of a cold sequential re-run;
- :mod:`repro.resilience.recordlog`  — the crc-framed append-only record
  log that checkpoints and the job server's journal are written in;
- :mod:`repro.resilience.throttle`   — an AIMD feedback controller over the
  speculative window: exponential backoff under misspeculation storms,
  additive probing back up when they pass — the live-runtime analog of the
  paper's profile-driven misspeculation-as-serialization;
- :mod:`repro.resilience.chaos`      — seeded, reproducible randomized
  fault schedules (crash/hang/soft-fault/forced-conflict/latency/
  duplicate/drop, worker- and channel-side, plus whole-server SIGKILL
  schedules for the durable job plane), every run replayable from its
  printed seed;
- :mod:`repro.resilience.invariants` — cross-layer checkers (exactly-once
  in-order commit, sequential-oracle output fidelity, bounded queue
  occupancy, monotone checkpoints, metric consistency) that turn any
  violation into a structured, taxonomized error.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.resilience.checkpoint": (
        "Checkpoint", "CheckpointConfig", "CheckpointError",
        "CheckpointManager", "spec_fingerprint",
    ),
    "repro.resilience.chaos": (
        "CHAOS_POLICY", "ChaosConfig", "ChaosReport", "ServerKillPlan",
        "chaos_channel_plan", "chaos_plan", "run_chaos", "server_kill_plan",
    ),
    "repro.resilience.invariants": (
        "InvariantError", "InvariantKind", "InvariantViolation", "assert_run",
        "check_checkpoints", "check_run",
    ),
    "repro.resilience.throttle": (
        "SpeculationThrottle", "ThrottleConfig", "max_window_for",
    ),
})
