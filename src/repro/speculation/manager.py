"""Speculation selection for both framework routes.

IR route — :func:`speculate_pdg` walks a loop PDG and marks edges speculated:

- **control speculation** on branches whose profile bias exceeds a threshold
  (and on every Y-branch, whose edges the PDG builder already omits);
- **value speculation** on register edges whose defining site's value profile
  is highly predictable;
- **alias speculation** on loop-carried memory edges whose dynamic conflict
  rate is low;
- **silent-store exemption** on memory edges sourced at stores flagged
  ``maybe_silent``.

Trace route — :func:`plan_from_profile` decides, per profiled memory
location with cross-iteration conflicts, whether to *speculate* it (only the
actual dynamic dependences serialize), *synchronize* it (all accesses keep
sequential order — chosen when misspeculation would be excessive), or note
that a *Commutative* annotation already erased it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.pdg.graph import PDG, PDGEdge
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.memory_profile import DynamicDependence, MemoryProfile
from repro.profiling.value_profile import ValueProfile
from repro.speculation.base import (
    Location,
    SpeculationDecision,
    SpeculationKind,
    SynchronizationDecision,
)


# --------------------------------------------------------------------------------
# IR route
# --------------------------------------------------------------------------------

@dataclass
class PdgSpeculationConfig:
    """Thresholds controlling how aggressive the IR-route speculation is."""

    control_bias_threshold: float = 0.99
    value_predictability_threshold: float = 0.95
    alias_conflict_rate_threshold: float = 0.05
    speculate_carried_memory_without_profile: bool = False


def speculate_pdg(
    pdg: PDG,
    branch_profile: Optional[BranchProfile] = None,
    value_profile: Optional[ValueProfile] = None,
    memory_conflict_rates: Optional[Dict[Tuple[int, int], float]] = None,
    config: Optional[PdgSpeculationConfig] = None,
) -> List[SpeculationDecision]:
    """Mark breakable PDG edges as speculated; return the decision list.

    ``memory_conflict_rates`` maps (source id, target id) to the observed
    fraction of iterations on which the memory dependence actually occurred;
    pairs absent from the map are treated per
    ``config.speculate_carried_memory_without_profile``.
    """
    config = config or PdgSpeculationConfig()
    decisions: List[SpeculationDecision] = []

    for edge in list(pdg.effective_edges()):
        if edge.kind == "control":
            decision = _try_control(edge, branch_profile, config)
        elif edge.kind == "register":
            decision = _try_value(edge, value_profile, config)
        elif edge.kind == "memory":
            decision = _try_alias(edge, pdg, memory_conflict_rates, config)
        else:
            decision = None
        if decision is not None:
            pdg.speculate_edge(edge, decision.kind.value)
            decisions.append(decision)
    return decisions


def _try_control(
    edge: PDGEdge,
    profile: Optional[BranchProfile],
    config: PdgSpeculationConfig,
) -> Optional[SpeculationDecision]:
    if profile is None:
        return None
    site = edge.detail  # PDG builder stores the branch block name here
    try:
        summary = profile.summary(site)
    except KeyError:
        return None
    if summary.bias >= config.control_bias_threshold:
        return SpeculationDecision(
            SpeculationKind.CONTROL,
            target=f"branch {site}",
            expected_rate=1.0 - summary.bias,
            note=f"bias {summary.bias:.4f}",
        )
    return None


def _try_value(
    edge: PDGEdge,
    profile: Optional[ValueProfile],
    config: PdgSpeculationConfig,
) -> Optional[SpeculationDecision]:
    if profile is None or not edge.loop_carried:
        return None
    site = edge.detail  # register name doubles as the value site
    predictability = profile.predictability(site)
    if predictability >= config.value_predictability_threshold:
        return SpeculationDecision(
            SpeculationKind.VALUE,
            target=f"register {site}",
            expected_rate=1.0 - predictability,
            note=f"predictability {predictability:.4f}",
        )
    return None


def _try_alias(
    edge: PDGEdge,
    pdg: PDG,
    rates: Optional[Dict[Tuple[int, int], float]],
    config: PdgSpeculationConfig,
) -> Optional[SpeculationDecision]:
    if not edge.loop_carried:
        return None
    source_instruction = pdg.node(edge.source).instruction
    if getattr(source_instruction, "maybe_silent", False):
        return SpeculationDecision(
            SpeculationKind.SILENT_STORE,
            target=f"store {edge.source}",
            expected_rate=0.0,
            note="silent store never triggers alias misspeculation",
        )
    if rates is not None:
        rate = rates.get((edge.source, edge.target))
        if rate is not None and rate <= config.alias_conflict_rate_threshold:
            return SpeculationDecision(
                SpeculationKind.ALIAS,
                target=f"{edge.source}->{edge.target}",
                expected_rate=rate,
                note=f"profiled conflict rate {rate:.4f}",
            )
        return None
    if config.speculate_carried_memory_without_profile:
        return SpeculationDecision(
            SpeculationKind.ALIAS,
            target=f"{edge.source}->{edge.target}",
            expected_rate=0.0,
            note="no profile; speculated by configuration",
        )
    return None


# --------------------------------------------------------------------------------
# Trace route
# --------------------------------------------------------------------------------

@dataclass
class SpeculationPlan:
    """What the parallelization does about each conflicting memory location.

    Attributes:
        speculated: locations whose static dependence is broken; the
            simulator serializes only their *actual* dynamic dependences.
        synchronized: locations kept in sequential order (every pair of
            accessing tasks is ordered as in the original program).
        commutative: locations erased by a Commutative annotation, by group.
        decisions / synchronizations: the human-readable audit trail.
    """

    speculated: Set[Location] = field(default_factory=set)
    synchronized: Set[Location] = field(default_factory=set)
    commutative_groups: List[str] = field(default_factory=list)
    decisions: List[SpeculationDecision] = field(default_factory=list)
    synchronizations: List[SynchronizationDecision] = field(default_factory=list)

    def is_speculated(self, location: Location) -> bool:
        return location in self.speculated

    def serialization_dependences(self, profile: MemoryProfile) -> List[DynamicDependence]:
        """The dynamic dependences the simulator must honor.

        Speculated locations contribute their actual occurrences (the
        misspeculation-as-serialization model); synchronized locations also
        contribute their actual occurrences, *plus* the plan records that
        accessing tasks may not be reordered — the execution plan handles
        that by pinning them to a sequential phase.
        """
        keep = self.speculated | self.synchronized
        return [d for d in profile.dependences if d.location in keep]

    def misspeculation_events(self, profile: MemoryProfile) -> List[DynamicDependence]:
        """Actual occurrences of speculated true dependences, cross-iteration.

        Only RAW counts: the versioned memory renames anti/output
        dependences away, so they can never cause a squash.
        """
        iteration = [task.iteration for task in profile.trace.tasks]
        speculated = self.speculated
        return [
            d for d in profile.dependences
            if d.kind == "raw"
            and d.location in speculated
            and iteration[d.source_index] != iteration[d.target_index]
        ]


def plan_from_profile(
    profile: MemoryProfile,
    *,
    synchronize_rate_threshold: float = 0.6,
    forced_synchronized: Sequence[Location] = (),
    forced_speculated: Sequence[Location] = (),
) -> SpeculationPlan:
    """Build a :class:`SpeculationPlan` from the memory profile.

    Per location with cross-iteration dependences, compute the conflict
    rate — conflicting iteration pairs over total iterations.  Speculate
    below ``synchronize_rate_threshold``; synchronize at or above it (the
    paper: "some dependences must be synchronized, rather than speculated,
    to avoid excessive misspeculation").  ``forced_*`` lets case studies
    override, exactly as the paper's authors did by hand.
    """
    plan = SpeculationPlan()
    plan.commutative_groups = sorted(profile.commutative_sections)

    iterations = max(profile.trace.iteration_count, 1)
    iteration = [task.iteration for task in profile.trace.tasks]
    by_location: Dict[Location, List[DynamicDependence]] = defaultdict(list)
    for dependence in profile.dependences:
        if iteration[dependence.source_index] != iteration[dependence.target_index]:
            by_location[dependence.location].append(dependence)

    forced_sync = set(forced_synchronized)
    forced_spec = set(forced_speculated)

    for location in sorted(by_location, key=str):
        dependences = by_location[location]
        conflicting_iterations = {iteration[d.target_index] for d in dependences}
        rate = len(conflicting_iterations) / iterations
        if location in forced_sync:
            plan.synchronized.add(location)
            plan.synchronizations.append(
                SynchronizationDecision(str(location), reason="forced by case study", to_phase="A")
            )
        elif location in forced_spec or rate < synchronize_rate_threshold:
            plan.speculated.add(location)
            plan.decisions.append(
                SpeculationDecision(
                    SpeculationKind.ALIAS,
                    target=str(location),
                    expected_rate=rate,
                    note=f"{len(dependences)} dynamic dependences across "
                         f"{len(conflicting_iterations)} iterations",
                )
            )
        else:
            plan.synchronized.add(location)
            plan.synchronizations.append(
                SynchronizationDecision(
                    str(location),
                    reason=f"conflict rate {rate:.2%} >= threshold; "
                           "speculation would be excessive",
                )
            )
    return plan
