"""Per-tenant state: fairness weight, quotas, a *persistent* speculation
throttle, and tenant-scoped degradation.

The isolation story of the service lives here.  Each tenant owns one
:class:`TenantThrottle` — a thread-safe AIMD controller (PR 2's
:class:`~repro.resilience.throttle.SpeculationThrottle`) that survives
across the tenant's jobs and is handed to each of its leases as
``job_throttle``.  A misspeculation storm in one tenant's job shrinks *that
tenant's* window (so its next job starts throttled, near-serial if the
storm was bad), while every other tenant's controller — and therefore its
speculation depth, its workers, its latency — is untouched.  Degradation is
reported the same way: a storming tenant shows ``degraded`` in ``/health``
while its neighbours stay ``ok``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.obs.registry import BUCKET_BOUNDS, bucket_index
from repro.resilience.throttle import (
    SpeculationThrottle,
    ThrottleConfig,
    max_window_for,
)


class StageHistogram:
    """A fixed-bucket latency histogram for one job-plane stage.

    Same power-of-two bucket bounds as the engine registry
    (:data:`repro.obs.registry.BUCKET_BOUNDS`), so ``/metrics`` exposes
    job-plane and engine-plane latencies on one comparable axis — and the
    per-job trace spans can be checked against the scrape within sampling
    error.  Mutated under the service lock; no locking of its own.
    """

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)
        self.total = 0.0
        self.count = 0
        self.max_value = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        self.buckets[bucket_index(seconds)] += 1
        self.total += seconds
        self.count += 1
        self.max_value = max(self.max_value, seconds)


class TenantThrottle:
    """A lock-wrapped :class:`SpeculationThrottle` shared by all of one
    tenant's jobs — concurrent same-tenant committers may record into it
    from different threads, and it persists across jobs so a storm's
    shrunken window carries into the tenant's next lease.

    Exposes exactly the attribute surface the engine reads (``window``,
    ``record``, ``shrinks``, ``grows``, ``min_window_seen``)."""

    def __init__(self, config: ThrottleConfig, max_window: int) -> None:
        self._throttle = SpeculationThrottle(config, max_window)
        self._lock = threading.Lock()

    def record(self, misspeculated: bool, commits: int = 1) -> Optional[int]:
        with self._lock:
            return self._throttle.record(misspeculated, commits)

    @property
    def window(self) -> int:
        return self._throttle.window

    @property
    def max_window(self) -> int:
        return self._throttle.max_window

    @property
    def min_window(self) -> int:
        return self._throttle.config.min_window

    @property
    def shrinks(self) -> int:
        return self._throttle.shrinks

    @property
    def grows(self) -> int:
        return self._throttle.grows

    @property
    def min_window_seen(self) -> int:
        return self._throttle.min_window_seen

    @property
    def at_floor(self) -> bool:
        """The window is pinned at the serial floor — the tenant is being
        executed (near-)sequentially until its storm passes."""
        return self._throttle.window <= self._throttle.config.min_window


class TenantState:
    """Everything the service tracks about one tenant.  Mutated only under
    the service lock; read for ``/metrics`` and ``/health``."""

    def __init__(self, name: str, weight: int, throttle: TenantThrottle) -> None:
        self.name = name
        self.weight = max(1, weight)
        self.throttle = throttle
        # lifecycle counters
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.running = 0
        # durability-plane counters
        #: retry attempts scheduled after a failed run
        self.retries = 0
        #: jobs whose bounded retries exhausted (poison jobs)
        self.dead_letter = 0
        #: jobs cancelled because their deadline passed
        self.deadline_cancelled = 0
        #: jobs re-admitted or resumed by crash recovery
        self.recovered = 0
        # aggregated engine counters across finished jobs
        self.committed = 0
        self.conflicts = 0
        self.serial_reexec = 0
        #: finished jobs whose watchdog flagged a misspeculation storm
        self.storms = 0
        #: tenant-scoped degradation: set while the tenant's last finished
        #: job stormed or its throttle window sits at the serial floor;
        #: cleared by a clean job.  ``/health`` also folds in the *live*
        #: watchdog verdicts of the tenant's running jobs.
        self.degraded = False
        #: queue-wait (admission -> dispatch) distribution: cumulative
        #: ``le`` buckets on /metrics, its max as ``queue_wait_max_s``
        self.queue_wait_hist = StageHistogram()
        #: scheduler pick latency (one ``FairScheduler.take`` decision)
        self.sched_pick_hist = StageHistogram()
        #: post-mortem bundles snapshotted for this tenant
        self.postmortems = 0

    def record_queue_wait(self, seconds: float) -> None:
        self.queue_wait_hist.observe(seconds)

    def record_sched_pick(self, seconds: float) -> None:
        self.sched_pick_hist.observe(seconds)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "weight": self.weight,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "running": self.running,
            "retries": self.retries,
            "dead_letter": self.dead_letter,
            "deadline_cancelled": self.deadline_cancelled,
            "recovered": self.recovered,
            "committed": self.committed,
            "conflicts": self.conflicts,
            "serial_reexec": self.serial_reexec,
            "storms": self.storms,
            "degraded": self.degraded,
            "window": self.throttle.window,
            "queue_wait_max_s": round(self.queue_wait_hist.max_value, 6),
            "postmortems": self.postmortems,
        }


class TenantDirectory:
    """Create-on-first-use tenant registry.  The throttle's ceiling is
    sized for the pool (``workers * batch + capacity`` — the widest window
    a lease could ever use), its floor is the serial window of 1."""

    def __init__(
        self,
        pool_workers: int,
        capacity: int,
        batch_size: int,
        weights: Optional[Dict[str, int]] = None,
        throttle_config: Optional[ThrottleConfig] = None,
    ) -> None:
        self._max_window = max_window_for(pool_workers, capacity, batch_size)
        self._weights = dict(weights or {})
        self._throttle_config = throttle_config or ThrottleConfig()
        self._tenants: Dict[str, TenantState] = {}

    def get_or_create(self, name: str) -> TenantState:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = TenantState(
                name,
                self._weights.get(name, 1),
                TenantThrottle(self._throttle_config, self._max_window),
            )
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Optional[TenantState]:
        return self._tenants.get(name)

    def all(self) -> Dict[str, TenantState]:
        return dict(self._tenants)
