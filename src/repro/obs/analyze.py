"""Critical-path analysis & what-if causal profiling over merged traces.

The paper's whole argument is quantitative: pipeline speedup is bounded by
the slowest stage plus the cost of misspeculation (§3.1).  PR 4 made runs
*recordable* (per-process span spools merged onto one wall-clock axis) and
PR 9 stitched the job plane on top — but nothing *interpreted* the result.
This module closes that gap:

- :func:`extract_chains` reconstructs each item's causal chain from the
  merged span stream: produce -> queue wait -> claim -> exec -> reorder
  wait -> commit (plus throttle gates and serial re-execution);
- :func:`compute_critical_path` walks backward from the final commit,
  always following the *binding* predecessor (the latest-finishing
  dependency), producing a gap-free segment cover of the run's wall clock;
- blame is attributed per segment across five categories — ``compute``
  (split per stage, so "stage-B compute" can be named outright),
  ``queue_wait`` (backpressure/starvation), ``serialization`` (transport
  and frame cost), ``commit_lag`` (the in-order commit discipline), and
  ``misspeculation`` (re-execution, conflicts, throttle gates);
- :func:`replay` projects *what-if virtual speedups* ("+1 B replica",
  "batch N -> 2N", "pipe -> shm", "no misspeculation") by turning the
  measured per-item costs, with the edited parameter, into rows for the
  simulator's own pipeline recurrence
  (:func:`repro.core.simulator.schedule`): a serial producer, replicated
  workers, an in-order committer.
  Projections are replay-relative (edited replay vs baseline replay), so
  model bias cancels; every projection is cross-checked against the §3.1
  analytic bound ``max(A_total, B_total/W, C_total)`` — the same
  slowest-stage model :mod:`repro.obs.compare` lines up against the
  simulator (:func:`crosscheck_with_graph` reuses ``compare_phases``
  directly when a task graph is at hand);
- :class:`BottleneckReport` is the machine-readable verdict: top blame
  category, blame fractions, and ranked what-if recommendations — the
  block ``EngineMetrics.to_json()`` embeds, ``history.jsonl`` records,
  ``GET /jobs/<id>/bottleneck`` serves, and the future autoscaler
  consumes.

Everything degrades gracefully: an empty trace, a service-only trace, or
a metrics JSON without any trace at all (:func:`estimate_bottleneck`, the
coarse aggregate-only estimator ``EngineMetrics.bottleneck`` falls back
to) all produce a valid — if less precise — report, never an exception.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.simulator import schedule
from repro.obs.events import CHANNEL_IDS, EventKind, Instant, Span
from repro.obs.merge import MergedTrace, _build_histograms

#: Bumped on any change to the ``bottleneck`` block's shape.
BOTTLENECK_SCHEMA = 1

#: The five blame categories of the coarse rollup.
CATEGORIES = (
    "compute", "queue_wait", "serialization", "commit_lag", "misspeculation",
)

#: Detailed blame keys (compute split per stage; ``other`` = startup and
#: scheduling slack the five categories cannot claim).
BLAME_KEYS = (
    "compute:A", "compute:B", "compute:C",
    "queue_wait", "serialization", "commit_lag", "misspeculation", "other",
)

#: Measured shm-vs-batched-pipe wire-speed gate is >=5x (PR 8): the
#: ``pipe -> shm`` what-if scales serialization/transport cost by 1/5.
SHM_SERIALIZATION_SCALE = 0.2

#: Span-end matching slack (ns) when pairing reorder-buffer events.
_EPS_NS = 1_000


# -- per-item causal chains ----------------------------------------------------------


@dataclass
class ItemChain:
    """One iteration's reconstructed causal chain."""

    iteration: int
    produce: Optional[Span] = None      # TASK_A
    work: Optional[Span] = None         # the committed TASK_B attempt
    commit_span: Optional[Span] = None  # TASK_C
    reexec: Optional[Span] = None       # SERIAL_REEXEC
    gate: Optional[Span] = None         # GATE_WAIT
    claim_ns: Optional[int] = None
    commit_ns: Optional[int] = None
    #: Extra (non-committed) TASK_B attempts — wasted speculation.
    wasted_work: List[Span] = field(default_factory=list)


def extract_chains(merged: MergedTrace) -> Dict[int, ItemChain]:
    """Rebuild per-iteration chains from the merged span/instant stream."""
    chains: Dict[int, ItemChain] = {}

    def chain(iteration: int) -> ItemChain:
        found = chains.get(iteration)
        if found is None:
            found = chains[iteration] = ItemChain(iteration)
        return found

    work_attempts: Dict[int, List[Span]] = {}
    for span in merged.spans:
        if span.kind == EventKind.TASK_A:
            ch = chain(span.arg)
            if ch.produce is None or span.start_ns < ch.produce.start_ns:
                ch.produce = span
        elif span.kind == EventKind.TASK_B:
            if not span.aborted:
                work_attempts.setdefault(span.arg, []).append(span)
            else:
                chain(span.arg).wasted_work.append(span)
        elif span.kind == EventKind.TASK_C:
            ch = chain(span.arg)
            if ch.commit_span is None or span.end_ns > ch.commit_span.end_ns:
                ch.commit_span = span
        elif span.kind == EventKind.SERIAL_REEXEC:
            chain(span.arg).reexec = span
        elif span.kind == EventKind.GATE_WAIT:
            chain(span.arg).gate = span
    for instant in merged.instants:
        if instant.kind == EventKind.CLAIM:
            ch = chain(instant.arg)
            if ch.claim_ns is None:
                ch.claim_ns = instant.ts_ns
        elif instant.kind == EventKind.COMMIT:
            ch = chain(instant.arg)
            if ch.commit_ns is None:
                ch.commit_ns = instant.ts_ns
    # The committed attempt is the last one finishing at or before the
    # claim (a re-speculated item leaves earlier, wasted attempts behind).
    for iteration, attempts in work_attempts.items():
        attempts.sort(key=lambda s: s.end_ns)
        ch = chain(iteration)
        committed = None
        if ch.claim_ns is not None:
            for span in attempts:
                if span.end_ns <= ch.claim_ns + _EPS_NS:
                    committed = span
        if committed is None:
            committed = attempts[-1]
        ch.work = committed
        ch.wasted_work.extend(s for s in attempts if s is not committed)
    return chains


# -- critical path -------------------------------------------------------------------


@dataclass(frozen=True)
class PathSegment:
    """One attributed interval of the critical path."""

    blame: str
    role: str
    iteration: int
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _wait_blame(span: Span) -> str:
    if span.kind == EventKind.GATE_WAIT:
        return "misspeculation"
    return "queue_wait"


def _waits_by_role(merged: MergedTrace) -> Dict[str, List[Span]]:
    waits: Dict[str, List[Span]] = {}
    for span in merged.spans:
        if span.kind in (
            EventKind.QUEUE_PUT_WAIT,
            EventKind.QUEUE_GET_WAIT,
            EventKind.GATE_WAIT,
        ):
            waits.setdefault(span.role, []).append(span)
    for spans in waits.values():
        spans.sort(key=lambda s: s.end_ns)
    return waits


def compute_critical_path(
    merged: MergedTrace, chains: Optional[Dict[int, ItemChain]] = None
) -> List[PathSegment]:
    """The run's critical path as a gap-free backward walk from the last
    commit, each interval attributed to a blame key.

    At every step the walk follows the *binding* predecessor — the
    dependency that actually finished last: the previous in-order commit,
    the claimed result's worker chain, the same worker's previous item, or
    the producer's serial chain.  Idle gaps are classified through the
    wait spans the blocked role recorded over that interval (queue put/get
    waits, throttle gates), with the structural fallback of the jump kind.
    """
    if chains is None:
        chains = extract_chains(merged)
    order = sorted(
        (it for it, ch in chains.items() if ch.commit_ns is not None),
        key=lambda it: chains[it].commit_ns,
    )
    if not order:
        return []
    waits = _waits_by_role(merged)
    segments: List[PathSegment] = []

    def emit(blame: str, role: str, iteration: int, start: int, end: int) -> None:
        start = max(0, start)
        if end > start:
            segments.append(PathSegment(blame, role, iteration, start, end))

    def emit_gap(
        role: str, iteration: int, g0: int, g1: int, fallback: str
    ) -> None:
        """Cover [g0, g1) with the role's recorded waits; the remainder
        takes the structural fallback blame."""
        g0 = max(0, g0)
        if g1 <= g0:
            return
        cursor_hi = g1
        for wait in reversed(waits.get(role, ())):
            if wait.end_ns <= g0:
                break
            lo = max(g0, wait.start_ns)
            hi = min(cursor_hi, wait.end_ns)
            if hi <= lo:
                continue
            if hi < cursor_hi:
                emit(fallback, role, iteration, hi, cursor_hi)
            emit(_wait_blame(wait), role, iteration, lo, hi)
            cursor_hi = lo
            if cursor_hi <= g0:
                break
        if cursor_hi > g0:
            emit(fallback, role, iteration, g0, cursor_hi)

    # Non-aborted B spans per role, sorted by end: the "previous item on
    # this worker" lookup for resource (not data) dependencies.
    b_by_role: Dict[str, List[Span]] = {}
    for span in merged.spans:
        if span.kind == EventKind.TASK_B and not span.aborted:
            b_by_role.setdefault(span.role, []).append(span)
    for spans in b_by_role.values():
        spans.sort(key=lambda s: s.end_ns)

    def previous_on_worker(span: Span) -> Optional[Span]:
        best = None
        for candidate in b_by_role.get(span.role, ()):
            if candidate is span:
                continue
            if candidate.end_ns <= span.start_ns + _EPS_NS:
                best = candidate
            else:
                break
        return best

    pos = len(order) - 1
    iteration = order[pos]
    cursor = chains[iteration].commit_ns
    mode = "commit"
    b_span: Optional[Span] = None
    budget = 4 * len(merged.spans) + 4 * len(order) + 64
    while cursor > 0 and budget > 0:
        budget -= 1
        ch = chains.get(iteration)
        if mode == "commit":
            c = ch.commit_span if ch else None
            role = c.role if c is not None else "committer"
            if c is not None:
                start_c = min(c.start_ns, cursor)
                emit("compute:C", c.role, iteration, start_c, cursor)
                cursor = start_c
            if (
                ch is not None
                and ch.reexec is not None
                and ch.reexec.end_ns <= cursor + _EPS_NS
            ):
                emit(
                    "misspeculation", ch.reexec.role, iteration,
                    min(ch.reexec.start_ns, cursor),
                    min(ch.reexec.end_ns, cursor),
                )
                cursor = min(cursor, ch.reexec.start_ns)
            prev_end = 0
            if pos > 0:
                prev_ch = chains[order[pos - 1]]
                prev_end = (
                    prev_ch.commit_span.end_ns
                    if prev_ch.commit_span is not None
                    else (prev_ch.commit_ns or 0)
                )
            # Workers claim *before* executing (crash-recovery discipline),
            # so the claim instant is not the result's arrival — execution
            # end is the earliest the result can reach the committer.
            arrival = (
                ch.work.end_ns
                if ch is not None and ch.work is not None
                else (ch.claim_ns if ch else None)
            )
            if (
                arrival is not None
                and arrival > prev_end
                and ch is not None
                and ch.work is not None
            ):
                # The committer idled for *this* item: the hop from
                # execution end to commit dispatch is the done channel's
                # flush/deserialize latency, and the chain continues on
                # the worker that executed it.
                emit(
                    "serialization", ch.work.role, iteration,
                    min(arrival, cursor), cursor,
                )
                cursor = min(cursor, arrival)
                mode, b_span = "worker", ch.work
            elif pos > 0:
                # Back-to-back commits: item sat ready in the reorder
                # buffer while the committer worked through predecessors —
                # the in-order discipline itself is the constraint.
                emit_gap(role, iteration, prev_end, cursor, "commit_lag")
                cursor = min(cursor, prev_end)
                pos -= 1
                iteration = order[pos]
            else:
                emit_gap(role, iteration, 0, cursor, "other")
                break
        elif mode == "worker":
            b = b_span
            start_b = min(b.start_ns, cursor)
            emit("compute:B", b.role, iteration, start_b, cursor)
            cursor = start_b
            produce = ch.produce if ch else None
            a_end = produce.end_ns if produce is not None else None
            prev_b = previous_on_worker(b)
            if prev_b is not None and (a_end is None or prev_b.end_ns >= a_end):
                # The worker, not the item's input, was the constraint:
                # follow the worker's previous task (resource chain).
                emit_gap(
                    b.role, iteration, min(prev_b.end_ns, cursor), cursor,
                    "other",
                )
                cursor = min(cursor, prev_b.end_ns)
                iteration = prev_b.arg
                ch = chains.get(iteration)
                b_span = prev_b
            elif produce is not None:
                # The worker starved waiting for this item: the gap is the
                # recorded get-wait plus the work-channel transport.
                emit_gap(
                    b.role, iteration, min(a_end, cursor), cursor,
                    "serialization",
                )
                cursor = min(cursor, a_end)
                mode = "producer"
            else:
                emit_gap(b.role, iteration, 0, cursor, "other")
                break
        else:  # producer
            produce = ch.produce if ch else None
            if produce is None:
                emit("other", "producer", iteration, 0, cursor)
                break
            start_a = min(produce.start_ns, cursor)
            emit("compute:A", produce.role, iteration, start_a, cursor)
            cursor = start_a
            prev = chains.get(iteration - 1)
            prev_a = prev.produce if prev is not None else None
            if iteration > 0 and prev_a is not None:
                # Between produce calls the producer serializes and
                # flushes frames (and blocks on backpressure, which its
                # recorded put-waits reclassify).
                emit_gap(
                    produce.role, iteration, min(prev_a.end_ns, cursor),
                    cursor, "serialization",
                )
                cursor = min(cursor, prev_a.end_ns)
                iteration -= 1
            else:
                emit_gap(produce.role, iteration, 0, cursor, "other")
                break
    segments.reverse()
    return segments


# -- measured per-item costs & the what-if replay ------------------------------------


@dataclass
class ChainCosts:
    """Measured per-item costs (seconds), in committed order — the input
    :func:`replay` re-schedules under edited parameters."""

    a: List[float]
    b: List[float]
    c: List[float]
    reexec: List[float]
    gate: List[float]
    #: Producer-side serialization/transport cost per item (work channel).
    s_prod: List[float]
    #: Committer-side serialization/transport cost per item (done channel).
    s_done: List[float]

    def __len__(self) -> int:
        return len(self.a)


def _channel_serialization(metrics: Optional[dict]) -> Tuple[float, float]:
    """(work-channel, done-channel) total serialize+deserialize seconds."""
    if not metrics:
        return 0.0, 0.0
    channels = metrics.get("channels") or {}
    totals = {}
    for name, stats in channels.items():
        if not isinstance(stats, dict):
            continue
        totals[name] = float(stats.get("serialize_seconds") or 0.0) + float(
            stats.get("deserialize_seconds") or 0.0
        )
    work = totals.get("work", 0.0)
    done = totals.get("done", 0.0)
    if not totals:
        return 0.0, 0.0
    if "work" not in totals and "done" not in totals:
        # Unknown channel names: split the total evenly.
        combined = sum(totals.values())
        return combined / 2.0, combined / 2.0
    return work, done


def costs_from_chains(
    chains: Dict[int, ItemChain], metrics: Optional[dict] = None
) -> ChainCosts:
    """Per-item measured costs for every committed iteration."""
    order = sorted(
        (it for it, ch in chains.items() if ch.commit_ns is not None),
        key=lambda it: chains[it].commit_ns,
    )
    n = len(order)
    costs = ChainCosts([], [], [], [], [], [], [])
    s_work, s_done = _channel_serialization(metrics)
    per_item_work = s_work / n if n else 0.0
    per_item_done = s_done / n if n else 0.0
    for it in order:
        ch = chains[it]
        costs.a.append(ch.produce.seconds if ch.produce else 0.0)
        costs.b.append(ch.work.seconds if ch.work else 0.0)
        costs.c.append(ch.commit_span.seconds if ch.commit_span else 0.0)
        costs.reexec.append(ch.reexec.seconds if ch.reexec else 0.0)
        costs.gate.append(ch.gate.seconds if ch.gate else 0.0)
        costs.s_prod.append(per_item_work)
        costs.s_done.append(per_item_done)
    return costs


def replay(
    costs: ChainCosts,
    workers: int,
    capacity: int = 0,
    *,
    extra_workers: int = 0,
    serialization_scale: float = 1.0,
    capacity_scale: float = 1.0,
    drop_misspeculation: bool = False,
) -> float:
    """The projected wall clock, in seconds, of the measured costs under one
    edit, scheduled by the simulator's own recurrence
    (:func:`repro.core.simulator.schedule`): a serial producer running
    A + the work channel's serialization, ``workers`` replicated B stages
    running gate + B behind a work channel of ``capacity`` slots per worker
    (0: unbounded), and an in-order committer running C + re-execution.
    The done channel's serialization is the B -> C hop latency: it is one
    per-run constant (:func:`costs_from_chains` spreads the channel total
    evenly), its mean when hand-built costs vary."""
    n = len(costs)
    if n == 0:
        return 0.0
    count = max(1, workers + extra_workers)
    gate = [0.0] * n if drop_misspeculation else costs.gate
    reexec = [0.0] * n if drop_misspeculation else costs.reexec
    rows = [
        (
            (3 * i, a + s_prod * serialization_scale, (), ()),
            (3 * i + 1, g + b, (), ()),
            (3 * i + 2, c + r, (), ()),
        )
        for i, (a, s_prod, g, b, c, r) in enumerate(
            zip(costs.a, costs.s_prod, gate, costs.b, costs.c, reexec)
        )
    ]
    run = schedule(
        rows,
        ((0,), tuple(range(1, count + 1)), (count + 1,)),
        (max(1, round(capacity * capacity_scale)) if capacity else n, n),
        (0.0, sum(costs.s_done) / n * serialization_scale),
        3 * n,
    )
    return max(run.ends)


def analytic_wall(
    costs: ChainCosts,
    workers: int,
    *,
    extra_workers: int = 0,
    serialization_scale: float = 1.0,
    capacity_scale: float = 1.0,
    drop_misspeculation: bool = False,
) -> float:
    """The §3.1 slowest-stage bound for the same edit: the pipeline can go
    no faster than its busiest stage, ``max(A, B/W, C)`` with each stage's
    serialization and misspeculation overhead folded in.  It takes every
    edit :func:`replay` takes; the bound has no queue, so ``capacity_scale``
    leaves it where it is."""
    count = max(1, workers + extra_workers)
    gate = 0.0 if drop_misspeculation else sum(costs.gate)
    reexec = 0.0 if drop_misspeculation else sum(costs.reexec)
    a_total = sum(costs.a) + sum(costs.s_prod) * serialization_scale
    b_total = (sum(costs.b) + gate) / count
    c_total = sum(costs.c) + reexec + sum(costs.s_done) * serialization_scale
    return max(a_total, b_total, c_total)


def default_what_ifs(
    workers: int,
    capacity: int,
    batch_size: int = 1,
    transport: str = "pipe",
    has_misspeculation: bool = True,
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The standard edit set: ``(name, label, replay edits)`` triples."""
    edits: List[Tuple[str, str, Dict[str, Any]]] = [
        (
            "add_worker",
            f"+1 B replica ({workers} -> {workers + 1} workers)",
            {"extra_workers": 1},
        ),
    ]
    if batch_size:
        edits.append(
            (
                "double_batch",
                f"batch {batch_size} -> {batch_size * 2}",
                {"serialization_scale": 0.5},
            )
        )
    if transport == "pipe":
        edits.append(
            (
                "shm_transport",
                "pipe -> shm transport",
                {"serialization_scale": SHM_SERIALIZATION_SCALE},
            )
        )
    if has_misspeculation:
        edits.append(
            (
                "no_misspeculation",
                "no misspeculation (re-executions and gates removed)",
                {"drop_misspeculation": True},
            )
        )
    if capacity:
        edits.append(
            (
                "double_capacity",
                f"channel capacity {capacity} -> {capacity * 2}",
                {"capacity_scale": 2.0},
            )
        )
    return edits


def _project_what_ifs(
    costs: ChainCosts,
    workers: int,
    capacity: int,
    batch_size: int,
    transport: str,
    measured_wall: Optional[float] = None,
) -> Tuple[List[dict], float, float]:
    """Every standard edit replayed and cross-checked; returns
    ``(ranked what-ifs, baseline replay wall, baseline analytic wall)``.

    Projections are anchored to the *measured* wall, not the raw replay:
    the gap between them (the engine's startup and teardown, which
    :func:`_model_block` names, plus scheduling slack the per-item model
    cannot see) is carried as a fixed cost into every edited schedule —
    an edit can shrink the modeled pipeline, never the overhead outside
    it.  When the replay overshoots the measurement the gap flips to a
    proportional correction instead.  Either way the baseline and edited
    walls share the same bias, so it cancels in the reported speedup.
    """
    baseline = replay(costs, workers, capacity)
    baseline_analytic = analytic_wall(costs, workers)
    wall = (
        measured_wall
        if measured_wall is not None and measured_wall > 0
        else baseline
    )
    residual = wall - baseline
    has_misspec = any(costs.reexec) or any(costs.gate)
    what_ifs = []
    for name, label, edits in default_what_ifs(
        workers, capacity, batch_size, transport, has_misspec
    ):
        edited = replay(costs, workers, capacity, **edits)
        if residual >= 0:
            projected = edited + residual
        elif baseline > 0:
            projected = edited * (wall / baseline)
        else:
            projected = edited
        analytic = analytic_wall(costs, workers, **edits)
        speedup = wall / projected if projected > 0 else 1.0
        analytic_speedup = (
            baseline_analytic / analytic if analytic > 0 else 1.0
        )
        what_ifs.append(
            {
                "name": name,
                "label": label,
                "projected_wall_s": round(projected, 6),
                "projected_speedup": round(speedup, 4),
                "analytic_speedup": round(analytic_speedup, 4),
                "agreement": round(
                    speedup / analytic_speedup if analytic_speedup else 1.0, 4
                ),
            }
        )
    what_ifs.sort(key=lambda w: -w["projected_speedup"])
    return what_ifs, baseline, baseline_analytic


def _model_block(
    baseline: float, baseline_analytic: float, wall: float, metrics: dict
) -> Dict[str, Any]:
    """The ``model`` block of a verdict: how the replay compares with the
    measured wall, and what the gap is made of.  The engine's measured
    fixed costs (``startup_seconds``/``teardown_seconds`` in its metrics)
    are named; ``residual_s`` is only what is left of ``wall - replay``
    once they are taken out (negative when they overlap the replay's own
    pipeline fill)."""
    fidelity = (baseline - wall) / wall if wall > 0 else None
    startup = float(metrics.get("startup_seconds") or 0.0)
    teardown = float(metrics.get("teardown_seconds") or 0.0)
    return {
        "replay_wall_s": round(baseline, 6),
        "analytic_wall_s": round(baseline_analytic, 6),
        "measured_wall_s": round(wall, 6),
        "fidelity_error": round(fidelity, 4) if fidelity is not None else None,
        "startup_s": round(startup, 6),
        "teardown_s": round(teardown, 6),
        "residual_s": round(wall - baseline - startup - teardown, 6),
    }


# -- the report ----------------------------------------------------------------------


@dataclass
class BottleneckReport:
    """The analyzer's machine-readable verdict for one run."""

    source: str                       # "trace" or "metrics"
    wall_s: float
    workers: int
    capacity: int
    iterations: int
    batch_size: int = 1
    transport: str = "pipe"
    blame_seconds: Dict[str, float] = field(default_factory=dict)
    #: Total busy seconds per stage across *all* spans (not just the
    #: path) — the share vocabulary ``repro.obs.compare`` cross-checks.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    segments: List[PathSegment] = field(default_factory=list)
    what_ifs: List[dict] = field(default_factory=list)
    model: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def path_seconds(self) -> float:
        return sum(self.blame_seconds.values())

    @property
    def fractions(self) -> Dict[str, float]:
        total = self.path_seconds
        if total <= 0:
            return {key: 0.0 for key in self.blame_seconds}
        return {
            key: seconds / total
            for key, seconds in self.blame_seconds.items()
        }

    @property
    def categories(self) -> Dict[str, float]:
        """The coarse five-way rollup of :attr:`fractions`."""
        fractions = self.fractions
        rollup = {category: 0.0 for category in CATEGORIES}
        for key, value in fractions.items():
            category = key.split(":")[0]
            if category in rollup:
                rollup[category] += value
        return rollup

    @property
    def top(self) -> str:
        """The top blame key (``compute`` split per stage) — ``"other"``
        only when nothing else claimed any time at all."""
        candidates = {
            key: seconds
            for key, seconds in self.blame_seconds.items()
            if key != "other" and seconds > 0
        }
        if not candidates:
            return "other"
        return max(candidates, key=candidates.get)

    @property
    def recommendation(self) -> Optional[str]:
        return self.what_ifs[0]["name"] if self.what_ifs else None

    def to_json(self) -> dict:
        return {
            "schema": BOTTLENECK_SCHEMA,
            "source": self.source,
            "top": self.top,
            "wall_s": round(self.wall_s, 6),
            "path_s": round(self.path_seconds, 6),
            "fractions": {
                key: round(value, 4)
                for key, value in self.fractions.items()
            },
            "categories": {
                key: round(value, 4)
                for key, value in self.categories.items()
            },
            "stage_seconds": {
                key: round(value, 6)
                for key, value in self.stage_seconds.items()
            },
            "what_ifs": self.what_ifs,
            "recommendation": self.recommendation,
            "model": self.model,
            "workers": self.workers,
            "capacity": self.capacity,
            "iterations": self.iterations,
            "batch_size": self.batch_size,
            "transport": self.transport,
            "notes": list(self.notes),
        }

    def format_summary(self) -> str:
        """Human-readable verdict for the CLI."""
        fractions = self.fractions
        lines = [
            f"bottleneck: {self.top} "
            f"({fractions.get(self.top, 0.0):.0%} of the critical path) "
            f"over {self.wall_s:.3f}s wall "
            f"[{self.source}-based, {self.iterations} items, "
            f"{self.workers} worker(s)]",
        ]
        blame_bits = ", ".join(
            f"{key} {fractions[key]:.0%}"
            for key in BLAME_KEYS
            if fractions.get(key, 0.0) >= 0.005
        )
        if blame_bits:
            lines.append(f"blame             {blame_bits}")
        if self.segments:
            roles = {segment.role for segment in self.segments}
            lines.append(
                f"critical path     {len(self.segments)} segment(s) across "
                f"{len(roles)} role(s), {self.path_seconds:.3f}s attributed"
            )
        for what_if in self.what_ifs:
            lines.append(
                f"what-if           {what_if['label']:<44} "
                f"-> {what_if['projected_speedup']:.2f}x projected "
                f"(analytic {what_if['analytic_speedup']:.2f}x)"
            )
        model = self.model
        if model.get("replay_wall_s") is not None:
            error = model.get("fidelity_error")
            error_text = f" ({error:+.1%} vs measured)" if error is not None else ""
            lines.append(
                f"model             replay {model['replay_wall_s']:.3f}s, "
                f"analytic bound {model.get('analytic_wall_s', 0.0):.3f}s"
                f"{error_text}"
            )
            lines.append(
                f"fixed costs       startup {model.get('startup_s', 0.0):.3f}s, "
                f"teardown {model.get('teardown_s', 0.0):.3f}s "
                f"(unexplained residual {model.get('residual_s', 0.0):+.3f}s)"
            )
        for note in self.notes:
            lines.append(f"note              {note}")
        return "\n".join(lines)


def _stage_busy_seconds(merged: MergedTrace) -> Dict[str, float]:
    stages = {"A": 0.0, "B": 0.0, "C": 0.0}
    kinds = {
        EventKind.TASK_A: "A", EventKind.TASK_B: "B", EventKind.TASK_C: "C",
    }
    for span in merged.spans:
        stage = kinds.get(span.kind)
        if stage is not None and not span.aborted:
            stages[stage] += span.seconds
    return stages


def analyze_trace(
    merged: MergedTrace,
    metrics: Optional[dict] = None,
    workers: Optional[int] = None,
    capacity: Optional[int] = None,
) -> BottleneckReport:
    """The tentpole entry point: causal chains -> critical path -> blame
    -> what-if projections, from one merged trace (``metrics`` — an
    ``EngineMetrics.to_json()`` dict — sharpens serialization costs and
    pipeline geometry when available)."""
    metrics = metrics or {}
    chains = extract_chains(merged)
    committed = [ch for ch in chains.values() if ch.commit_ns is not None]
    worker_roles = {
        span.role for span in merged.spans if span.kind == EventKind.TASK_B
    }
    if workers is None:
        workers = int(metrics.get("workers") or 0) or len(worker_roles) or 1
    if capacity is None:
        capacity = int(metrics.get("capacity") or 0)
    batch_size = int(metrics.get("batch_size") or 1)
    transport = str(metrics.get("transport") or "pipe")
    wall = float(metrics.get("wall_seconds") or 0.0) or (
        merged.duration_ns() / 1e9
    )
    report = BottleneckReport(
        source="trace",
        wall_s=wall,
        workers=workers,
        capacity=capacity,
        iterations=len(committed),
        batch_size=batch_size,
        transport=transport,
        stage_seconds=_stage_busy_seconds(merged),
    )
    if not committed:
        report.notes.append(
            "no committed iterations in the trace — nothing to analyze "
            "(service-only or empty trace)"
        )
        report.blame_seconds = {key: 0.0 for key in BLAME_KEYS}
        return report

    segments = compute_critical_path(merged, chains)
    blame = {key: 0.0 for key in BLAME_KEYS}
    for segment in segments:
        blame[segment.blame] = blame.get(segment.blame, 0.0) + segment.seconds
    report.blame_seconds = blame
    report.segments = segments

    costs = costs_from_chains(chains, metrics)
    if not metrics.get("channels"):
        report.notes.append(
            "no channel stats available — serialization costs estimated "
            "as zero (pass the run's metrics JSON for transport blame)"
        )
    what_ifs, baseline, baseline_analytic = _project_what_ifs(
        costs, workers, capacity, batch_size, transport, measured_wall=wall
    )
    report.what_ifs = what_ifs
    report.model = _model_block(baseline, baseline_analytic, wall, metrics)
    wasted = sum(
        span.seconds for ch in chains.values() for span in ch.wasted_work
    )
    if wasted > 0:
        report.notes.append(
            f"{wasted * 1e3:.1f}ms of wasted speculative work off the "
            "critical path"
        )
    return report


def crosscheck_with_graph(report: BottleneckReport, graph) -> List:
    """Line the analyzer's per-stage busy seconds up against a simulator
    :class:`~repro.core.tasks.TaskGraph` through the *same* share
    comparison ``repro.obs.compare`` uses for predicted-vs-measured — the
    §3.1 cost model validated from a third direction."""
    from repro.obs.compare import compare_phases

    return compare_phases(graph, report.stage_seconds)


# -- metrics-only estimation (no trace recorded) -------------------------------------


def estimate_bottleneck(metrics) -> dict:
    """A coarse bottleneck block from aggregate :class:`EngineMetrics`
    alone — what ``EngineMetrics.bottleneck`` resolves to, on first read,
    for a run nobody analyzed a trace of.

    Per-item costs are synthesized uniformly from stage totals, so the
    same replay/what-if machinery runs; blame comes from wall-clock
    apportionment (B busy time divided across workers) rather than a real
    critical path, and ``commit_lag`` is not separable without spans.
    Accepts an :class:`EngineMetrics` object or its ``to_json()`` dict.
    """
    data = metrics.to_json() if hasattr(metrics, "to_json") else dict(metrics)
    workers = max(1, int(data.get("workers") or 1))
    capacity = int(data.get("capacity") or 0)
    commits = int(data.get("commits") or 0)
    wall = float(data.get("wall_seconds") or 0.0)
    stage = data.get("stage_seconds") or {}
    a_total = float(stage.get("A") or 0.0)
    b_total = float(stage.get("B") or 0.0)
    c_total = float(stage.get("C") or 0.0)
    s_work, s_done = _channel_serialization(data)
    latency = data.get("latency_histograms") or {}

    def series_total(name: str) -> float:
        summary = latency.get(name) or {}
        return float(summary.get("count") or 0) * float(
            summary.get("mean") or 0.0
        )

    queue_wait = series_total("queue_wait")
    reexec_total = int(data.get("serial_reexecutions") or 0) * (
        (latency.get("task_b") or {}).get("mean") or 0.0
    )
    report = BottleneckReport(
        source="metrics",
        wall_s=wall,
        workers=workers,
        capacity=capacity,
        iterations=commits,
        batch_size=int(data.get("batch_size") or 1),
        transport=str(data.get("transport") or "pipe"),
        stage_seconds={"A": a_total, "B": b_total, "C": c_total},
    )
    blame = {key: 0.0 for key in BLAME_KEYS}
    blame["compute:A"] = a_total
    blame["compute:B"] = b_total / workers
    blame["compute:C"] = c_total
    blame["serialization"] = s_work + s_done
    blame["queue_wait"] = queue_wait
    blame["misspeculation"] = float(reexec_total)
    accounted = sum(blame.values())
    if wall > accounted:
        blame["other"] = wall - accounted
    report.blame_seconds = blame
    report.notes.append(
        "estimated from aggregate metrics (no trace): commit lag not "
        "separable, B compute averaged across workers"
    )
    if commits > 0:
        n = commits
        costs = ChainCosts(
            a=[a_total / n] * n,
            b=[b_total / n] * n,
            c=[c_total / n] * n,
            reexec=[float(reexec_total) / n] * n,
            gate=[0.0] * n,
            s_prod=[s_work / n] * n,
            s_done=[s_done / n] * n,
        )
        what_ifs, baseline, baseline_analytic = _project_what_ifs(
            costs, workers, capacity, report.batch_size, report.transport,
            measured_wall=wall,
        )
        report.what_ifs = what_ifs
        report.model = _model_block(baseline, baseline_analytic, wall, data)
    return report.to_json()


# -- bottleneck block schema check (tests + CI) --------------------------------------

_WHAT_IF_KEYS = {"name", "label", "projected_speedup"}


def validate_bottleneck(data: Any) -> List[str]:
    """Structural validation of a ``bottleneck`` JSON block; returns a
    list of problems (empty = valid).  The CI perf job runs this against
    the analysis artifact it uploads."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["bottleneck block must be an object"]
    if data.get("schema") != BOTTLENECK_SCHEMA:
        problems.append(
            f"schema must be {BOTTLENECK_SCHEMA}, got {data.get('schema')!r}"
        )
    if data.get("source") not in ("trace", "metrics"):
        problems.append(f"bad source {data.get('source')!r}")
    if not isinstance(data.get("top"), str):
        problems.append("top must be a string blame key")
    for field_name in ("fractions", "categories"):
        fractions = data.get(field_name)
        if not isinstance(fractions, dict):
            problems.append(f"{field_name} must be an object")
            continue
        for key, value in fractions.items():
            if not isinstance(value, (int, float)) or value < 0 or value > 1.001:
                problems.append(f"{field_name}[{key}] out of [0, 1]: {value!r}")
        total = sum(
            v for v in fractions.values() if isinstance(v, (int, float))
        )
        if fractions and total > 1.02:
            problems.append(f"{field_name} sum to {total:.3f} > 1")
    what_ifs = data.get("what_ifs")
    if not isinstance(what_ifs, list):
        problems.append("what_ifs must be a list")
    else:
        for index, what_if in enumerate(what_ifs):
            if not isinstance(what_if, dict):
                problems.append(f"what_ifs[{index}] not an object")
                continue
            missing = _WHAT_IF_KEYS - what_if.keys()
            if missing:
                problems.append(
                    f"what_ifs[{index}] missing keys {sorted(missing)}"
                )
            speedup = what_if.get("projected_speedup")
            if not isinstance(speedup, (int, float)) or speedup <= 0:
                problems.append(
                    f"what_ifs[{index}].projected_speedup bad: {speedup!r}"
                )
        speedups = [
            w.get("projected_speedup", 0)
            for w in what_ifs
            if isinstance(w, dict)
        ]
        if speedups != sorted(speedups, reverse=True):
            problems.append("what_ifs not ranked by projected_speedup")
    for key in ("wall_s", "path_s"):
        value = data.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{key} must be a non-negative number")
    return problems


# -- Chrome-trace ingestion (``obs analyze TRACE.json``) -----------------------------

#: Inverse of the exporter's span naming.
_SPAN_KIND_BY_NAME = {
    "A": EventKind.TASK_A,
    "B": EventKind.TASK_B,
    "C": EventKind.TASK_C,
    "reexec": EventKind.SERIAL_REEXEC,
    "wait:gate": EventKind.GATE_WAIT,
    "admit": EventKind.ADMIT,
    "queue_wait": EventKind.QUEUE_WAIT,
    "sched_pick": EventKind.SCHED_PICK,
    "lease_dispatch": EventKind.LEASE_DISPATCH,
    "artifact_persist": EventKind.ARTIFACT_PERSIST,
    "retry_backoff": EventKind.RETRY_BACKOFF,
}

_INSTANT_KIND_BY_NAME = {
    kind.name.lower(): kind for kind in EventKind
}


def merged_from_chrome_trace(trace: dict) -> MergedTrace:
    """Rebuild a :class:`MergedTrace` from an exported Chrome trace file —
    the exporter preserves kind names, iteration args, and timestamps, so
    a stored ``trace.json`` artifact is a complete analyzer input."""
    merged = MergedTrace()
    process_names: Dict[int, str] = {}
    thread_names: Dict[Tuple[int, int], str] = {}
    events = trace.get("traceEvents") or []
    for event in events:
        if event.get("ph") != "M":
            continue
        args = event.get("args") or {}
        if event.get("name") == "process_name":
            process_names[event.get("pid", 0)] = args.get("name", "")
        elif event.get("name") == "thread_name":
            thread_names[(event.get("pid", 0), event.get("tid", 0))] = (
                args.get("name", "")
            )

    def role_of(event: dict) -> str:
        pid = event.get("pid", 0)
        tid = event.get("tid", 0)
        return (
            thread_names.get((pid, tid))
            or process_names.get(pid)
            or f"pid{pid}"
        )

    for event in events:
        phase = event.get("ph")
        pid = event.get("pid", 0)
        if phase == "X":
            if pid == 0:
                continue  # the synthetic committed-order track
            name = event.get("name", "")
            args = event.get("args") or {}
            kind = _SPAN_KIND_BY_NAME.get(name)
            detail = 0
            if kind is None and name.startswith("wait:"):
                parts = name.split(":")
                if len(parts) == 3:
                    kind = (
                        EventKind.QUEUE_PUT_WAIT
                        if parts[1] == "put"
                        else EventKind.QUEUE_GET_WAIT
                    )
                    detail = CHANNEL_IDS.get(parts[2], 0)
            if kind is None:
                continue
            merged.spans.append(
                Span(
                    kind=kind,
                    role=role_of(event),
                    pid=pid,
                    start_ns=int(round(event.get("ts", 0) * 1000.0)),
                    duration_ns=int(round(event.get("dur", 0) * 1000.0)),
                    arg=int(args.get("iter") or 0),
                    arg2=int(args.get("worker") or 0),
                    detail=detail,
                    aborted=bool(args.get("aborted")),
                )
            )
        elif phase == "i":
            name = event.get("name", "")
            args = event.get("args") or {}
            if name.startswith("chaos"):
                kind = EventKind.CHAOS
            elif name.startswith("throttle"):
                kind = EventKind.THROTTLE
            else:
                kind = _INSTANT_KIND_BY_NAME.get(name)
            if kind is None:
                continue
            merged.instants.append(
                Instant(
                    kind=kind,
                    role=role_of(event),
                    pid=pid,
                    ts_ns=int(round(event.get("ts", 0) * 1000.0)),
                    arg=int(args.get("arg") or 0),
                    arg2=int(args.get("arg2") or 0),
                )
            )
    merged.spans.sort(key=lambda span: (span.start_ns, span.role))
    merged.instants.sort(key=lambda instant: (instant.ts_ns, instant.role))
    _build_histograms(merged)
    return merged


# -- CLI entry point (``python -m repro obs analyze``) -------------------------------


def run_analyze(
    target: Optional[str] = None,
    state_dir: Optional[str] = None,
    metrics_path: Optional[str] = None,
    workers: Optional[int] = None,
    capacity: Optional[int] = None,
    json_out: Optional[str] = None,
    metrics: Optional[dict] = None,
) -> Tuple[str, int]:
    """The ``obs analyze`` entry point: returns ``(text, exit_code)``.

    Two input modes: a Chrome trace file (``obs analyze trace.json
    [--metrics m.json]``), or a stored job artifact (``obs analyze JOB_ID
    --state-dir DIR`` — the job's ``trace.json`` is read from the artifact
    store; the caller passes its journaled metrics as ``metrics``).
    """
    from repro.obs.export import validate_chrome_trace

    if state_dir is not None:
        if not target:
            return ("obs analyze: a JOB_ID is required with --state-dir", 2)
        root = state_dir
        nested = os.path.join(state_dir, "artifacts")
        if os.path.isdir(nested):
            root = nested
        job_dir = os.path.join(root, target)
        trace_path = os.path.join(job_dir, "trace.json")
        if not os.path.isfile(trace_path):
            return (
                f"obs analyze: no trace artifact for job {target!r} under "
                f"{root} (submit with params.trace or serve with "
                "--trace-jobs)",
                2,
            )
    elif target:
        trace_path = target
        if not os.path.isfile(trace_path):
            return (f"obs analyze: no such trace file: {target}", 2)
    else:
        return (
            "obs analyze: pass a trace file, or JOB_ID with --state-dir", 2,
        )
    if metrics_path:
        metrics = _load_json_file(metrics_path)
        if metrics is None:
            return (f"obs analyze: unreadable metrics JSON: {metrics_path}", 2)

    trace = _load_json_file(trace_path)
    if trace is None:
        return (f"obs analyze: unreadable trace JSON: {trace_path}", 2)
    problems = validate_chrome_trace(trace)
    if problems:
        return (
            f"obs analyze: {trace_path} is not a valid Chrome trace: "
            + "; ".join(problems[:5]),
            2,
        )
    merged = merged_from_chrome_trace(trace)
    report = analyze_trace(
        merged, metrics=metrics, workers=workers, capacity=capacity
    )
    text = report.format_summary()
    if json_out:
        parent = os.path.dirname(os.path.abspath(json_out))
        os.makedirs(parent, exist_ok=True)
        with open(json_out, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        text += f"\nwrote {json_out}"
    return (text, 0)


def _load_json_file(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        return None
    return loaded if isinstance(loaded, dict) else None
