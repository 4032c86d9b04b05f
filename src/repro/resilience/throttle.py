"""Adaptive speculation throttling: the runtime feedback analog of the
paper's profile-driven misspeculation-as-serialization.

The simulator *predicts* misspeculation cost from profiles and serializes
accordingly; the live engine cannot see the future, so it watches the
committed stream instead.  :class:`SpeculationThrottle` observes, per
commit, whether the commit required a rollback (conflict) or a fault-driven
serial retry, and controls the **speculative window** — how many iterations
past the commit frontier workers may execute.  Under a misspeculation storm
the window shrinks multiplicatively (exponential backoff toward serial
execution, window 1 = the sequential model); when the storm passes it
probes back up additively.  Classic AIMD, applied to speculation depth.

Enforcement is cooperative and cheap: the engine publishes the commit
watermark and the current window in shared memory; a worker holding
iteration ``i`` waits while ``i - watermark >= window`` before executing.
Gated claims are exempted from the hung-task timeout (the engine refreshes
their claim clocks), so throttling can never be mistaken for a hang.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

logger = logging.getLogger(__name__)


def max_window_for(workers: int, capacity: int, batch_size: int = 1) -> int:
    """The in-flight ceiling the controller starts from.

    With chunked dispatch every worker can hold a full chunk of
    ``batch_size`` claimed-but-uncommitted iterations on top of a full work
    channel, so the uncontrolled speculation depth is
    ``workers * batch_size + capacity`` — the window the throttle opens to
    when the pipeline is clean, and backs off from under misspeculation.
    """
    return workers * max(1, batch_size) + capacity


@dataclass(frozen=True)
class ThrottleConfig:
    """Controller constants.

    ``observation``    — commits per decision epoch;
    ``high_watermark`` — misspeculation rate at/above which the window
    backs off multiplicatively (``backoff`` factor);
    ``low_watermark``  — rate at/below which the window probes up by
    ``probe_step``;
    ``min_window``     — the serial floor (1 = one in-flight iteration,
    i.e. no speculation beyond the commit frontier).
    """

    enabled: bool = True
    observation: int = 8
    high_watermark: float = 0.5
    low_watermark: float = 0.125
    backoff: float = 0.5
    probe_step: int = 1
    min_window: int = 1

    def __post_init__(self):
        if self.observation < 1:
            raise ValueError("observation epoch must be >= 1")
        if not 0.0 < self.backoff < 1.0:
            raise ValueError("backoff must be in (0, 1)")
        if self.min_window < 1:
            raise ValueError("min_window must be >= 1")
        if self.probe_step < 1:
            raise ValueError("probe_step must be >= 1")
        if not 0.0 <= self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 <= low_watermark <= high_watermark <= 1"
            )


class SpeculationThrottle:
    """AIMD controller over the speculative window.

    ``record(misspeculated, commits)`` is called by the committer for every
    run of like commits; it returns the new window when an epoch's
    decision changed it, else ``None`` — the engine publishes changes to
    the workers' shared value.
    """

    def __init__(self, config: ThrottleConfig, max_window: int) -> None:
        if max_window < config.min_window:
            raise ValueError("max_window must be >= min_window")
        self.config = config
        self.max_window = max_window
        self.window = max_window
        self.min_window_seen = max_window
        self.shrinks = 0
        self.grows = 0
        self._epoch_events = 0
        self._epoch_bad = 0

    def record(self, misspeculated: bool, commits: int = 1) -> "int | None":
        """``commits`` consecutive commits that all went the same way.
        Epochs end where they would have, one call per commit; the return
        value is the window after the last decision that changed it."""
        if not self.config.enabled:
            return None
        changed = None
        observation = self.config.observation
        while commits > 0:
            if (
                not misspeculated and not self._epoch_events
                and self.window == self.max_window
                and self.config.high_watermark > 0
            ):
                # A clean epoch at the ceiling decides nothing (unless a
                # high watermark of 0 backs off on every epoch): skip the
                # whole ones, so a clean run costs O(1), not one per epoch.
                commits %= observation
                if not commits:
                    break
            step = min(commits, observation - self._epoch_events)
            commits -= step
            self._epoch_events += step
            if misspeculated:
                self._epoch_bad += step
            if self._epoch_events >= observation:
                changed = self._decide() or changed
        return changed

    def _decide(self) -> "int | None":
        """Close the epoch: the new window if it moved."""
        rate = self._epoch_bad / self._epoch_events
        self._epoch_events = 0
        self._epoch_bad = 0
        new_window = self.window
        if rate >= self.config.high_watermark:
            new_window = max(
                self.config.min_window, int(self.window * self.config.backoff)
            )
        elif rate <= self.config.low_watermark:
            new_window = min(
                self.max_window, self.window + self.config.probe_step
            )
        if new_window == self.window:
            return None
        if new_window < self.window:
            self.shrinks += 1
        else:
            self.grows += 1
        logger.debug(
            "throttle %s: window %d -> %d (epoch misspeculation rate %.2f)",
            "shrink" if new_window < self.window else "grow",
            self.window, new_window, rate,
        )
        self.window = new_window
        self.min_window_seen = min(self.min_window_seen, new_window)
        return new_window
