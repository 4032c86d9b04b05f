"""Correctness gate, applied to every repetition.

Each function returns the reasons an operation counts as failed (empty =
passed): the parallel run must be observationally equivalent to the
sequential one, and must have got there without falling back, respawning
or leaking.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.exec.transport import orphaned_segments, wait_for_reclaim

EXPECTED_SIM = os.path.join(os.path.dirname(__file__), "expected_sim.json")
DIGITS = 9


def engine_failures(result, expected: Any) -> List[str]:
    """An ``EngineResult`` against the ``run_sequential`` output."""
    reasons = []
    metrics = result.metrics
    if result.output != expected:
        reasons.append("output differs from run_sequential")
    if metrics.degraded_to_sequential:
        reasons.append("degraded_to_sequential")
    if metrics.respawns:
        reasons.append(f"respawns={metrics.respawns}")
    return reasons


def job_failures(status: dict, output: Any, expected: Any) -> List[str]:
    """A finished job (its ``GET /jobs/<id>`` body and result output)
    against ``run_sequential(build_spec(...))``."""
    if status.get("state") != "done":
        return [f"job ended {status.get('state')}: {status.get('error')}"]
    if output != expected:
        return ["job output differs from run_sequential"]
    return []


def curve_of(evaluation) -> Dict[str, float]:
    """A ``WorkloadEvaluation``'s simulated speedup curve, JSON-shaped."""
    return {
        str(threads): round(speedup, DIGITS)
        for threads, speedup in sorted(evaluation.report.curve.items())
    }


def load_expected_sim() -> Dict[str, Dict[str, float]]:
    with open(EXPECTED_SIM) as handle:
        return json.load(handle)


def write_expected_sim(curves: Dict[str, Dict[str, float]]) -> None:
    with open(EXPECTED_SIM, "w") as handle:
        json.dump(curves, handle, indent=1, sort_keys=True)
        handle.write("\n")


def sim_failures(
    name: str, evaluation, expected: Dict[str, Dict[str, float]]
) -> List[str]:
    """Simulated statistics must match the committed reference exactly."""
    reasons = []
    if curve_of(evaluation) != expected.get(name):
        reasons.append(f"{name}: simulated curve differs from expected_sim")
    if not evaluation.output_comparison.acceptable:
        reasons.append(f"{name}: parallel-policy output not acceptable")
    return reasons


def leak_failures(timeout: float = 5.0) -> List[str]:
    """Shared-memory rings still in ``/dev/shm`` once the last engine run
    is over: a leak is a failed operation, not a silent pass."""
    leaked = wait_for_reclaim(timeout)
    return [f"leaked shm segment {name}" for name in leaked]


def stale_state() -> List[str]:
    """What a previous run left behind that would perturb this one."""
    found = [f"/dev/shm/{name}" for name in orphaned_segments()]
    try:
        pids = [entry for entry in os.listdir("/proc") if entry.isdigit()]
    except OSError:
        return found
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if b"repro" in argv and b"serve" in argv:
            found.append(f"repro serve (pid {pid})")
    return found
