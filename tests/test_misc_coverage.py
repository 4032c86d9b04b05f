"""Coverage for the smaller public APIs not exercised elsewhere."""

import pytest

from repro.core.framework import FrameworkConfig
from repro.ir.builder import ProgramBuilder
from repro.ir.printer import format_program
from repro.ir.region import form_loop_region
from repro.profiling.memory_profile import MemoryProfile
from repro.profiling.tracer import Tracer
from repro.speculation.base import SpeculationDecision, SpeculationKind
from repro.speculation.misspec import analyze_misspeculation
from repro.speculation.manager import plan_from_profile


class TestFrameworkConfig:
    def test_with_overrides(self):
        config = FrameworkConfig()
        tweaked = config.with_(enable_speculation=False, thread_counts=(1, 4))
        assert not tweaked.enable_speculation
        assert tweaked.thread_counts == (1, 4)
        assert config.enable_speculation  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            FrameworkConfig().enable_speculation = False


class TestSpeculationDecisionFormatting:
    def test_str_with_rate(self):
        decision = SpeculationDecision(
            SpeculationKind.ALIAS, target="('net', 3)", expected_rate=0.02
        )
        text = str(decision)
        assert "alias" in text
        assert "2.00%" in text

    def test_str_without_rate(self):
        decision = SpeculationDecision(SpeculationKind.CONTROL, target="branch x")
        assert "misspec" not in str(decision)


class TestPrinterEdgeCases:
    def test_program_with_external_and_commutative(self):
        pb = ProgramBuilder("printer")
        pb.global_variable("g")
        external = pb.external_function("read")
        rng = pb.function("rng")
        rng.block("entry")
        rng.ret(0)
        rng.function.mark_commutative(group="rng", rollback="unrng")
        text = format_program(pb.program)
        assert "; program printer" in text
        assert "external" in text
        assert "commutative(rng)" in text
        assert "rollback=unrng" in text


class TestRegionQueries:
    def test_contains_and_cost(self, counter_program, counter_loop):
        region = form_loop_region(counter_program, counter_loop)
        instruction = next(iter(counter_loop.instructions()))
        assert region.contains(instruction)
        outside = next(
            i for i in counter_program.function("main").instructions()
            if i.block.name == "exit"
        )
        assert not region.contains(outside)
        assert region.total_cost() > 0
        assert "Region" in repr(region)


class TestTraceResultQueries:
    def make_trace(self):
        tracer = Tracer()
        with tracer.task("A", 0):
            tracer.work(1)
        with tracer.task("B", 0):
            tracer.work(5)
            tracer.load("x", 0)
            tracer.store("x", 0, value=1)
        return tracer.finish()

    def test_task_by_key(self):
        trace = self.make_trace()
        assert trace.task_by_key("B", 0).cost == 5
        with pytest.raises(KeyError):
            trace.task_by_key("C", 9)

    def test_dependence_counts(self):
        trace = self.make_trace()
        profile = MemoryProfile(trace)
        counts = profile.dependence_count_by_location()
        assert all(count >= 1 for count in counts.values())
        assert profile.locations() == set(counts)


class TestMisspecWindowedErrors:
    def test_zero_window_rejected(self):
        tracer = Tracer()
        with tracer.task("B", 0):
            tracer.work(1)
        profile = MemoryProfile(tracer.finish())
        report = analyze_misspeculation(profile, plan_from_profile(profile))
        with pytest.raises(ValueError):
            report.windowed_rates(0)

    def test_windowed_rates_partition_iterations(self):
        tracer = Tracer()
        for i in range(10):
            with tracer.task("B", i):
                tracer.work(1)
                tracer.load("hot", 0)
                tracer.store("hot", 0, value=i)
        profile = MemoryProfile(tracer.finish())
        plan = plan_from_profile(profile, forced_speculated=[("hot", 0)])
        report = analyze_misspeculation(profile, plan)
        rates = report.windowed_rates(4)
        assert len(rates) == 3  # windows of 4, 4, 2
        assert all(0.0 <= r <= 1.0 for r in rates)


class TestMultiStageLatency:
    def test_latency_slows_chain(self):
        from repro.dswp.multistage import MultiStageSimulator, partition_loop_multistage
        from repro.hw.machine import MachineConfig
        from repro.testing import build_two_hump_loop

        program, loop = build_two_hump_loop()
        partition = partition_loop_multistage(program, loop)
        fast = MultiStageSimulator(MachineConfig(cores=16)).simulate(partition, 64)
        slow = MultiStageSimulator(
            MachineConfig(cores=16, communication_latency=25)
        ).simulate(partition, 64)
        assert slow.makespan > fast.makespan
