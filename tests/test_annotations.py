"""Tests for the Y-branch and Commutative annotations and their registry."""

import pytest

from repro.annotations.commutative import CommutativeFunction, commutative
from repro.annotations.registry import AnnotationRegistry, global_registry
from repro.annotations.ybranch import YBranchPolicy, YBranchSite, ybranch
from repro.profiling.context import activate
from repro.profiling.tracer import Tracer


class TestYBranchSite:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            YBranchSite("bad", 0.0)
        with pytest.raises(ValueError):
            YBranchSite("bad", 1.5)

    def test_sequential_policy_honors_condition(self):
        site = YBranchSite("s", 0.25)
        assert site.decide(True) is True
        assert site.decide(False) is False

    def test_interval_policy_fires_on_schedule(self):
        site = YBranchSite("s", 0.25)  # interval 4
        site.use_interval_policy()
        decisions = [site.decide(False) for _ in range(8)]
        assert decisions == [False, False, False, True] * 2

    def test_interval_policy_still_honors_true_condition(self):
        """Taking the true path is always legal — including when the
        condition itself demands it off-schedule."""
        site = YBranchSite("s", 0.1)
        site.use_interval_policy()
        assert site.decide(True) is True

    def test_interval_computation(self):
        assert YBranchSite("s", 0.00001).interval == 100000  # Figure 1
        assert YBranchSite("s", 1.0).interval == 1

    def test_reset_restarts_schedule(self):
        site = YBranchSite("s", 0.5)
        site.use_interval_policy()
        first = [site.decide(False) for _ in range(4)]
        site.reset()
        second = [site.decide(False) for _ in range(4)]
        assert first == second

    def test_decisions_recorded_in_trace(self):
        site = YBranchSite("traced", 0.5)
        tracer = Tracer()
        with activate(tracer):
            with tracer.task("B", 0):
                tracer.work(1)
                site.decide(True)
        trace = tracer.finish()
        assert trace.branches[0].site == "traced"
        assert trace.branches[0].is_ybranch


class TestCommutativeDecorator:
    def test_passthrough_without_tracer(self):
        @commutative(group="g1")
        def add_one(x):
            return x + 1

        assert add_one(41) == 42
        assert add_one.call_count == 1
        assert isinstance(add_one, CommutativeFunction)

    def test_group_defaults_to_function_name(self):
        @commutative()
        def my_rng():
            return 4

        assert my_rng.group == "my_rng"

    def test_accesses_tagged_under_tracer(self):
        @commutative(group="tagged")
        def touch():
            from repro.profiling.context import current_tracer

            current_tracer().store("state", 0, value=1)

        tracer = Tracer()
        with activate(tracer):
            with tracer.task("B", 0):
                tracer.work(1)
                touch()
        trace = tracer.finish()
        _, _, _, group, _ = trace.accesses[0]
        assert group == "tagged"

    def test_set_rollback(self):
        @commutative(group="alloc2")
        def grab():
            return 1

        @grab.set_rollback
        def release():
            pass

        assert grab.rollback is release

    def test_method_decoration_binds(self):
        class Pool:
            def __init__(self):
                self.taken = 0

            @commutative(group="pool")
            def take(self):
                self.taken += 1
                return self.taken

        pool = Pool()
        assert pool.take() == 1
        assert pool.take() == 2


class TestRegistry:
    def test_rollback_validation(self):
        registry = AnnotationRegistry()

        @commutative(group="no_rollback")
        def orphan():
            pass

        registry.register_commutative(orphan)
        assert registry.validate_rollbacks() == ["no_rollback"]

        orphan.rollback = lambda: None
        assert registry.validate_rollbacks() == []

    def test_engage_and_restore_policies(self):
        registry = AnnotationRegistry()
        site = YBranchSite("swing", 0.5)
        registry.register_ybranch(site)
        registry.engage_parallel_policies()
        assert site.policy is YBranchPolicy.INTERVAL
        registry.restore_sequential_policies()
        assert site.policy is YBranchPolicy.SEQUENTIAL

    def test_global_registry_collects_factory_sites(self):
        site = ybranch("registered_site_test", 0.5)
        assert global_registry().ybranch("registered_site_test") is site

    def test_group_members(self):
        registry = AnnotationRegistry()

        @commutative(group="shared")
        def f():
            pass

        @commutative(group="shared")
        def g():
            pass

        registry.register_commutative(f)
        registry.register_commutative(g)
        assert len(registry.group_members("shared")) == 2
        assert "shared" in registry.commutative_groups()
