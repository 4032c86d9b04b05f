"""Generalized multi-stage PS-DSWP (an extension beyond the paper).

The paper's evaluation uses exactly three phases: one sequential producer,
one replicated parallel stage, one sequential consumer (Section 3.2).  That
shape loses when a loop has *two* heavy DOALL regions separated by a
sequential recurrence — the 3-phase plan must leave one of them in a
sequential stage.  This module generalizes both halves:

- :func:`partition_loop_multistage` emits an alternating chain of
  sequential / parallel stages directly from the SCC-DAG's topological
  order (every maximal doall run becomes its own parallel stage);
- :class:`MultiStageSimulator` schedules any such chain: sequential stages
  get one dedicated core each, parallel stages share the remaining cores
  (allocated proportionally to stage cost), and the 3-phase simulator's own
  recurrence, :func:`repro.core.simulator.schedule`, runs the chain with
  its bounded core-to-core queues between adjacent stages.

The ablation benchmark shows where this wins and verifies it reduces to the
paper's model on 3-phase shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from repro.core.simulator import schedule
from repro.dswp.partition import Partition, Stage, StageKind
from repro.hw.machine import MachineConfig
from repro.ir.loops import Loop
from repro.ir.program import Program
from repro.pdg.scc import SCC, condense
from repro.speculation.manager import PdgSpeculationConfig, speculate_pdg


def partition_loop_multistage(
    program: Program,
    loop: Loop,
    *,
    branch_profile=None,
    value_profile=None,
    memory_conflict_rates=None,
    speculation_config: Optional[PdgSpeculationConfig] = None,
    min_stage_cost: int = 1,
) -> Partition:
    """Partition ``loop`` into an alternating seq/par stage chain.

    Consecutive doall SCCs merge into one parallel stage; consecutive
    non-doall SCCs merge into one sequential stage.  Stage phases are
    numbered ``S0, P1, S2, ...`` in pipeline order.
    """
    from repro.pdg.builder import build_loop_pdg

    pdg = build_loop_pdg(program, loop)
    decisions = speculate_pdg(
        pdg,
        branch_profile=branch_profile,
        value_profile=value_profile,
        memory_conflict_rates=memory_conflict_rates,
        config=speculation_config,
    )
    dag = condense(pdg)
    topo = dag.topological_order()

    stages: List[Stage] = []
    for scc in topo:
        kind = StageKind.PARALLEL if scc.doall else StageKind.SEQUENTIAL
        if stages and stages[-1].kind is kind:
            stages[-1].sccs.append(scc)
        else:
            prefix = "P" if kind is StageKind.PARALLEL else "S"
            stages.append(Stage(kind, f"{prefix}{len(stages)}", [scc]))

    partition = Partition(loop=loop, pdg=pdg, dag=dag, stages=stages,
                          decisions=decisions)
    # The 3-phase validator keys off phase names; multi-stage order is the
    # list order, checked here directly.
    _validate_multistage(partition)
    return partition


def _validate_multistage(partition: Partition) -> None:
    placement: Dict[int, int] = {}
    for position, stage in enumerate(partition.stages):
        for node_id in stage.node_ids:
            placement[node_id] = position
    for edge in partition.pdg.effective_edges():
        if edge.loop_carried:
            continue
        if placement[edge.source] > placement[edge.target]:
            raise ValueError(f"backward inter-stage dependence {edge.describe()}")


@dataclass
class MultiStageResult:
    """Outcome of a multi-stage pipeline simulation."""

    machine: MachineConfig
    makespan: int
    sequential_time: int
    core_allocation: List[int] = field(default_factory=list)  # cores per stage

    @property
    def speedup(self) -> float:
        if self.makespan == 0:
            return 1.0
        return self.sequential_time / self.makespan


class MultiStageSimulator:
    """Schedules an alternating seq/par stage chain over ``iterations``."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    def allocate_cores(self, stages: Sequence[Stage]) -> List[int]:
        """One core per sequential stage; parallel stages split the rest.

        Distribution is water-filling: every parallel stage starts with one
        core, then each spare core goes to the stage with the highest
        remaining per-core cost — the allocation that minimizes the pipeline
        bottleneck for fixed integer shares.
        """
        allocation = [1] * len(stages)
        parallel_indices = [
            i for i, stage in enumerate(stages) if stage.kind is StageKind.PARALLEL
        ]
        spare = self.machine.cores - len(stages)
        for _ in range(max(spare, 0)):
            if not parallel_indices:
                break
            best = max(
                parallel_indices,
                key=lambda i: (stages[i].cost / allocation[i], -i),
            )
            allocation[best] += 1
        return allocation

    def simulate(self, partition: Partition, iterations: int) -> MultiStageResult:
        stages = partition.stages
        sequential_time = sum(stage.cost for stage in stages) * iterations
        if self.machine.cores <= len(stages):
            # Not enough cores to pipeline: sequential baseline.
            return MultiStageResult(
                self.machine, sequential_time, sequential_time, [1] * len(stages)
            )

        allocation = self.allocate_cores(stages)
        # Stage s runs on the next allocation[s] core ids, in stage order.
        first_core = list(accumulate(allocation, initial=0))
        cores = [tuple(range(lo, hi)) for lo, hi in zip(first_core, first_core[1:])]
        width = len(stages)
        rows = [
            tuple((i * width + s, stage.cost, (), ()) for s, stage in enumerate(stages))
            for i in range(iterations)
        ]
        hops = width - 1
        run = schedule(
            rows,
            cores,
            (self.machine.queue_capacity,) * hops,
            (self.machine.communication_latency,) * hops,
            width * iterations,
        )
        return MultiStageResult(
            self.machine, max(run.ends, default=0), sequential_time, allocation
        )
