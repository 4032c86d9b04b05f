"""The seeded chaos harness: randomized, reproducible fault schedules.

Real speculative runtimes must survive *arbitrary* fault timing.
:func:`chaos_plan` draws a randomized :class:`FaultPlan` from one integer
seed and a :class:`ChaosConfig` of counts — worker crashes, hangs, soft
faults, forced conflicts, result-latency spikes, duplicated results,
dropped results — and :func:`chaos_channel_plan` the work-channel
latency/duplicate/drop schedule for the same seed; every run is replayable
bit-for-bit from its printed seed.  It is the only sampler: ``exec
--inject-faults`` (:data:`INJECT_FAULTS`) and the service's
``params.chaos`` are configs handed to it.

:func:`run_chaos` is the harness proper: it times the sequential oracle,
runs the engine under the seeded schedule (with checkpointing and adaptive
throttling live), then audits the run with the cross-layer invariant
checkers (:mod:`repro.resilience.invariants`).  Any violation surfaces as a
structured, taxonomized :class:`~repro.resilience.invariants.InvariantError`
— never a silent divergence.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional

from repro.exec.channels import ChannelChaos
from repro.exec.faults import FaultPlan, RobustnessPolicy
from repro.obs.events import TraceConfig
from repro.resilience.checkpoint import CheckpointConfig
from repro.resilience.invariants import (
    InvariantError,
    InvariantViolation,
    check_run,
)
from repro.resilience.throttle import ThrottleConfig

logger = logging.getLogger(__name__)

#: Fast-recovery policy for chaos runs: sub-second hang detection, a respawn
#: budget sized for the default injection mix, tight polling.
CHAOS_POLICY = RobustnessPolicy(
    task_timeout=1.0,
    stall_timeout=20.0,
    max_respawns=8,
    poll_interval=0.01,
)


#: :class:`ChaosConfig`'s injection counts: worker-side (in the order
#: :func:`chaos_plan` draws them), then work-channel side.
_WORKER_COUNTS = (
    "crashes", "hangs", "soft_faults", "conflicts", "latencies",
    "duplicates", "drops",
)
_CHANNEL_COUNTS = ("channel_latencies", "channel_duplicates", "channel_drops")


@dataclass(frozen=True)
class ChaosConfig:
    """How much of each misbehaviour one chaos run injects.

    Worker-side counts are iterations (disjointly sampled); channel-side
    counts are put indices on the phase-A work channel.  ``drops`` lose a
    worker's *result* message (recovered via the hung-task timeout);
    ``channel_drops`` lose a work item entirely, which forces graceful
    degradation — off by default, enabled for degradation-path tests.
    """

    crashes: int = 2
    hangs: int = 1
    soft_faults: int = 5
    conflicts: int = 5
    latencies: int = 4
    duplicates: int = 3
    drops: int = 1
    producer_crash: bool = False
    channel_latencies: int = 2
    channel_duplicates: int = 1
    channel_drops: int = 0
    latency_seconds: float = 0.02
    hang_seconds: float = 30.0

    @property
    def worker_total(self) -> int:
        return sum(getattr(self, name) for name in _WORKER_COUNTS)

    @property
    def total(self) -> int:
        return (
            self.worker_total
            + sum(getattr(self, name) for name in _CHANNEL_COUNTS)
            + (1 if self.producer_crash else 0)
        )

    @classmethod
    def only(cls, **counts: int) -> "ChaosConfig":
        """A mix of just ``counts``: every injection not named is off."""
        return cls(
            **{**dict.fromkeys(_WORKER_COUNTS + _CHANNEL_COUNTS, 0), **counts}
        )

    @classmethod
    def sized(cls, total: int) -> "ChaosConfig":
        """Scale the default mix to roughly ``total`` injections."""
        base = cls()
        factor = total / base.total
        scaled = {
            name: max(0, round(getattr(base, name) * factor))
            for name in _WORKER_COUNTS + _CHANNEL_COUNTS
        }
        if sum(scaled.values()) == 0:
            scaled["soft_faults"] = max(1, total)
        return replace(base, **scaled)

    def fitted(self, iterations: int) -> "ChaosConfig":
        """Scale counts down so worker-side injections fit the run.

        At most half the iterations carry a worker-side injection, keeping
        disjoint sampling possible and the run recognizably a pipeline
        rather than pure fault traffic.
        """
        budget = max(1, iterations // 2)
        if self.worker_total <= budget:
            return self
        scale = budget / self.worker_total
        scaled = {
            name: int(getattr(self, name) * scale) for name in _WORKER_COUNTS
        }
        if sum(scaled.values()) == 0:
            scaled["soft_faults"] = 1
        return replace(self, **scaled)


#: ``exec --inject-faults``: one worker crash and one soft fault.
INJECT_FAULTS = ChaosConfig.only(crashes=1, soft_faults=1)


def chaos_plan(
    iterations: int, seed: int, config: Optional[ChaosConfig] = None
) -> FaultPlan:
    """A reproducible randomized :class:`FaultPlan` for one run.

    With no ``config`` the default mix, :meth:`ChaosConfig.fitted` to the
    run; an explicit ``config`` is drawn as given (counts past
    ``iterations`` truncated, in draw order: crashes first).
    """
    config = config or ChaosConfig().fitted(iterations)
    rng = random.Random(seed)
    picks = rng.sample(
        range(iterations), min(iterations, config.worker_total)
    )
    cursor = 0

    def draw(count: int) -> frozenset:
        nonlocal cursor
        chunk = frozenset(picks[cursor : cursor + count])
        cursor += len(chunk)
        return chunk

    crash = draw(config.crashes)
    hang = draw(config.hangs)
    error = draw(config.soft_faults)
    conflict = draw(config.conflicts)
    latency = draw(config.latencies)
    duplicate = draw(config.duplicates)
    drop = draw(config.drops)
    producer_crash_at = (
        rng.randrange(iterations) if config.producer_crash else None
    )
    return FaultPlan(
        crash_iterations=crash,
        error_iterations=error,
        hang_iterations=hang,
        hang_seconds=config.hang_seconds,
        producer_crash_at=producer_crash_at,
        conflict_iterations=conflict,
        latency_iterations=latency,
        latency_seconds=config.latency_seconds,
        duplicate_result_iterations=duplicate,
        drop_result_iterations=drop,
    )


@dataclass(frozen=True)
class ServerKillPlan:
    """A seeded schedule of hard server kills (SIGKILL — no drain, no
    goodbye) for the durable job plane.  Each entry in :attr:`delays` is
    how long one server incarnation runs before the harness kills it; the
    incarnation after the last kill runs to completion.  The plan only
    *times* the kills — recovery correctness (journal replay, checkpoint
    resume, bit-identical output) is asserted by the harness that consumes
    it (``benchmarks/service_smoke.py``, the durability tests)."""

    seed: int
    #: Seconds each doomed server incarnation lives after jobs land.
    delays: tuple
    #: Floor each delay waits for at least one engine checkpoint to hit
    #: disk before killing (harnesses poll for ``checkpoint.pkl`` first).
    min_delay: float

    def format_summary(self) -> str:
        spaced = ", ".join(f"{d:.2f}s" for d in self.delays)
        return (
            f"server-kill plan (seed {self.seed}): "
            f"{len(self.delays)} kill(s) at [{spaced}] after submit"
        )

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "delays": list(self.delays),
            "min_delay": self.min_delay,
        }


def server_kill_plan(
    seed: int,
    kills: int = 1,
    min_delay: float = 0.4,
    max_delay: float = 1.5,
) -> ServerKillPlan:
    """Draw a reproducible :class:`ServerKillPlan` from ``seed`` (distinct
    stream offset, so the same seed's worker/channel chaos is unchanged)."""
    if kills < 1:
        raise ValueError("kills must be >= 1")
    if not 0 < min_delay <= max_delay:
        raise ValueError("need 0 < min_delay <= max_delay")
    rng = random.Random(f"{seed}/server-kill")
    delays = tuple(
        round(rng.uniform(min_delay, max_delay), 3) for _ in range(kills)
    )
    return ServerKillPlan(seed=seed, delays=delays, min_delay=min_delay)


def chaos_channel_plan(
    iterations: int, seed: int, config: Optional[ChaosConfig] = None
) -> Optional[ChannelChaos]:
    """Work-channel chaos for the same seed (distinct stream offset); a
    ``config`` is taken as in :func:`chaos_plan`."""
    config = config or ChaosConfig().fitted(iterations)
    total = (
        config.channel_latencies
        + config.channel_duplicates
        + config.channel_drops
    )
    if total == 0 or iterations == 0:
        return None
    rng = random.Random(f"{seed}/channel")
    picks = rng.sample(range(iterations), min(iterations, total))
    latencies = picks[: config.channel_latencies]
    duplicates = picks[
        config.channel_latencies : config.channel_latencies
        + config.channel_duplicates
    ]
    drops = picks[config.channel_latencies + config.channel_duplicates :]
    return ChannelChaos(
        latency_by_index={
            index: config.latency_seconds for index in latencies
        },
        duplicate_indices=frozenset(duplicates),
        drop_indices=frozenset(drops),
    )


@dataclass
class ChaosReport:
    """One audited chaos run: the seed, what was injected, what held."""

    seed: int
    injected_faults: int
    channel_injections: int
    result: Any  # EngineResult
    sequential_output: Any
    violations: List[InvariantViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def output_identical(self) -> bool:
        return self.result.output == self.sequential_output

    def raise_on_violation(self) -> None:
        if self.violations:
            raise InvariantError(self.violations)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "injected_faults": self.injected_faults,
            "channel_injections": self.channel_injections,
            "ok": self.ok,
            "output_identical": self.output_identical,
            "violations": [str(violation) for violation in self.violations],
            "metrics": self.result.metrics.to_json(),
        }

    def format_summary(self) -> str:
        status = "OK" if self.ok else "INVARIANT VIOLATIONS"
        lines = [
            f"chaos: seed {self.seed}, {self.injected_faults} worker-side + "
            f"{self.channel_injections} channel-side injections -> {status}",
            f"output            "
            + (
                "bit-identical to sequential oracle"
                if self.output_identical
                else "DIVERGED from sequential oracle"
            ),
        ]
        lines += [f"  {violation}" for violation in self.violations]
        return "\n".join(lines)


def run_chaos(
    spec_factory: Callable[[], Any],
    seed: int,
    *,
    workers: int = 3,
    capacity: int = 8,
    config: Optional[ChaosConfig] = None,
    policy: Optional[RobustnessPolicy] = None,
    checkpoint_config: Optional[CheckpointConfig] = None,
    throttle_config: Optional[ThrottleConfig] = None,
    start_method: Optional[str] = None,
    batch_size: Optional[int] = None,
    flush_interval: Optional[float] = None,
    transport: Optional[str] = None,
    trace: Optional[TraceConfig] = None,
    live=None,
) -> ChaosReport:
    """One seeded chaos run, audited end to end.

    ``spec_factory`` must build a fresh :class:`PipelineSpec` per call
    (stateful phase-A producers!); the sequential oracle and the engine
    each get their own.  ``trace`` attaches the :mod:`repro.obs` tracing
    layer — the chaos harness is its hardest customer (crashed workers
    leave truncated spools; the merger must still produce a timeline).
    ``live`` (a :class:`repro.obs.LiveConfig`) attaches the real-time
    telemetry plane the same way: injected hangs freeze the commit
    frontier, which is exactly what the live watchdog exists to flag.
    """
    # Imported here: repro.exec.engine imports this package at module load.
    from repro.exec.engine import ExecutionEngine, run_sequential

    oracle_output, oracle_seconds = run_sequential(spec_factory())
    spec = spec_factory()
    config = (config or ChaosConfig()).fitted(spec.iterations)
    plan = chaos_plan(spec.iterations, seed, config)
    channel_chaos = chaos_channel_plan(spec.iterations, seed, config)
    logger.info(
        "chaos run: seed %d, %d worker-side + %d channel-side injections",
        seed,
        plan.injected_fault_count,
        channel_chaos.injection_count if channel_chaos else 0,
    )
    engine_kwargs = {}
    if batch_size is not None:
        engine_kwargs["batch_size"] = batch_size
    if flush_interval is not None:
        engine_kwargs["flush_interval"] = flush_interval
    if transport is not None:
        engine_kwargs["transport"] = transport
    engine = ExecutionEngine(
        workers=workers,
        capacity=capacity,
        policy=policy or CHAOS_POLICY,
        fault_plan=plan,
        start_method=start_method,
        throttle=throttle_config or ThrottleConfig(),
        checkpoints=checkpoint_config or CheckpointConfig(),
        channel_chaos=channel_chaos,
        trace=trace,
        live=live,
        **engine_kwargs,
    )
    result = engine.run(spec)
    result.metrics.sequential_seconds = oracle_seconds
    violations = check_run(result, sequential_output=oracle_output)
    return ChaosReport(
        seed=seed,
        injected_faults=plan.injected_fault_count,
        channel_injections=(
            channel_chaos.injection_count if channel_chaos else 0
        ),
        result=result,
        sequential_output=oracle_output,
        violations=violations,
    )
