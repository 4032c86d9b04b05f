"""Tests for the vpr/twolf annealers and the vortex B-tree database."""

import pytest

from repro.core.framework import FrameworkConfig, ParallelizationFramework
from repro.profiling.tracer import Tracer
from repro.workloads.rng import AcmRandom
from repro.workloads.twolf_w import TwolfWorkload
from repro.workloads.vortex_w import BTree, VortexWorkload, _ORDER, _Node
from repro.workloads.vpr_w import VprWorkload


class TestAcmRandom:
    def test_lehmer_sequence(self):
        rng = AcmRandom(1, commutative=False)
        assert rng.next() == 16807
        assert rng.next() == 282475249

    def test_snapshot_restore(self):
        rng = AcmRandom(99)
        saved = rng.snapshot()
        first = [rng.next() for _ in range(5)]
        rng.restore(saved)
        assert [rng.next() for _ in range(5)] == first

    def test_commutative_accesses_tagged(self):
        from repro.profiling.context import activate

        tracer = Tracer()
        rng = AcmRandom(7, commutative=True)
        with activate(tracer):
            with tracer.task("B", 0):
                tracer.work(1)
                rng.next()
        trace = tracer.finish()
        seed_groups = [
            group for _, _, location, group, _ in trace.accesses
            if location == ("Yacm_random", "seed")
        ]
        assert seed_groups
        assert all(group == "Yacm_random" for group in seed_groups)

    def test_unannotated_accesses_untagged(self):
        from repro.profiling.context import activate

        tracer = Tracer()
        rng = AcmRandom(7, commutative=False)
        with activate(tracer):
            with tracer.task("B", 0):
                tracer.work(1)
                rng.next()
        trace = tracer.finish()
        seed_groups = [
            group for _, _, location, group, _ in trace.accesses
            if location == ("Yacm_random", "seed")
        ]
        assert all(group is None for group in seed_groups)

    def test_below_bounds(self):
        rng = AcmRandom(3)
        assert all(0 <= rng.below(10) < 10 for _ in range(100))


class TestAnnealers:
    def test_vpr_improves_placement(self):
        output = ParallelizationFramework().profile_workload(VprWorkload(), False)[1]
        assert output["final_cost"] < output["initial_cost"]

    def test_vpr_acceptance_declines_with_temperature(self):
        evaluation = ParallelizationFramework().evaluate(VprWorkload())
        windows = evaluation.misspeculation.windowed_rates(
            2 * 130  # two outer iterations per window
        )
        assert windows[0] > 0.6          # hot: most moves accepted & conflict
        assert windows[-1] < windows[0]  # cold: conflicts thin out

    def test_vpr_moderate_speedup(self):
        evaluation = ParallelizationFramework().evaluate(VprWorkload())
        assert 2.5 < evaluation.report.best_speedup < 7.0   # paper: 3.59
        assert evaluation.report.best_threads <= 20         # paper: 15

    def test_twolf_low_plateau(self):
        evaluation = ParallelizationFramework().evaluate(TwolfWorkload())
        assert 1.4 < evaluation.report.best_speedup < 3.0   # paper: 2.06
        assert evaluation.report.best_threads <= 14         # paper: 8

    def test_twolf_improves_wirelength(self):
        output = ParallelizationFramework().profile_workload(TwolfWorkload(), False)[1]
        assert output["wirelength"] < output["initial_wirelength"]

    def test_commutative_rng_is_load_bearing(self):
        """Figure 2's point: without the annotation the RNG serializes all."""
        with_annotation = ParallelizationFramework().evaluate(TwolfWorkload())
        without = ParallelizationFramework(
            FrameworkConfig(enable_commutative=False)
        ).evaluate(TwolfWorkload())
        assert without.report.best_speedup < 1.3
        assert with_annotation.report.best_speedup > 1.5

    def test_deterministic(self):
        fw = ParallelizationFramework()
        assert (
            fw.profile_workload(VprWorkload(), False)[1]
            == fw.profile_workload(VprWorkload(), False)[1]
        )


class TestBTree:
    def make_tree(self, keys):
        tree = BTree(tracer=None)
        for i, key in enumerate(keys):
            tree.insert(key, i)
        return tree

    def test_insert_lookup(self):
        tree = self.make_tree(range(0, 200, 3))
        assert tree.lookup(99) == 33
        assert tree.lookup(100) is None

    def test_duplicates_rejected(self):
        tree = BTree(tracer=None)
        assert tree.insert(5, 0)
        assert not tree.insert(5, 1)
        assert tree.size == 1

    def test_splits_occur(self):
        tree = self.make_tree(range(100))
        assert tree.splits > 0
        assert not tree.root.leaf

    def test_sorted_key_invariant(self):
        tree = self.make_tree([(i * 7919) % 1000 for i in range(300)])
        self._check_sorted(tree.root)

    def _check_sorted(self, node, lower=None, upper=None):
        keys = node.keys
        assert keys == sorted(keys)
        if lower is not None:
            assert all(k > lower for k in keys)
        if upper is not None:
            assert all(k < upper for k in keys)
        if not node.leaf:
            assert len(node.children) == len(keys) + 1
            for i, child in enumerate(node.children):
                child_lower = keys[i - 1] if i > 0 else lower
                child_upper = keys[i] if i < len(keys) else upper
                self._check_sorted(child, child_lower, child_upper)

    def test_node_capacity_respected(self):
        tree = self.make_tree(range(500))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert len(node.keys) <= _ORDER
            stack.extend(node.children)

    def test_delete_removes(self):
        tree = self.make_tree(range(50))
        assert tree.delete(25)
        assert tree.lookup(25) is None
        assert tree.size == 49

    def test_delete_missing_returns_false(self):
        tree = self.make_tree(range(10))
        assert not tree.delete(999)

    def test_interior_delete_preserves_order(self):
        tree = self.make_tree(range(100))
        interior_key = tree.root.keys[0]
        assert tree.delete(interior_key)
        assert tree.lookup(interior_key) is None
        self._check_sorted(tree.root)


class TestVortexWorkload:
    def test_status_overwhelmingly_normal(self):
        output = ParallelizationFramework().profile_workload(VortexWorkload(), False)[1]
        assert output["status_normal"] > 10 * output["status_failed"]

    def test_transactions_do_real_work(self):
        output = ParallelizationFramework().profile_workload(VortexWorkload(), False)[1]
        assert output["creates"] > 100
        assert output["deletes"] > 50
        assert output["hits"] >= 0
        assert output["splits"] > 5

    def test_moderate_scalability(self):
        evaluation = ParallelizationFramework().evaluate(VortexWorkload())
        assert 3.0 < evaluation.report.best_speedup < 8.5  # paper: 4.92
