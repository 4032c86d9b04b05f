"""Seed-robustness: the reproduced shapes must not be one-seed accidents.

For each benchmark family with meaningful randomness, re-run the evaluation
under two alternative seeds and check the qualitative claim still holds.
These are the cheapest guards against over-tuning the analogs to a single
input — the paper's conclusions are about the *programs*, not one dataset.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.framework import ParallelizationFramework
from repro.workloads.bzip2_w import Bzip2Workload
from repro.workloads.crafty_w import CraftyWorkload
from repro.workloads.gap_w import GapWorkload
from repro.workloads.parser_w import ParserWorkload
from repro.workloads.perlbmk_w import PerlbmkWorkload
from repro.workloads.twolf_w import TwolfWorkload
from repro.workloads.vpr_w import VprWorkload


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 1234])
class TestSeedRobustness:
    def test_perlbmk_stays_low(self, seed):
        evaluation = ParallelizationFramework().evaluate(
            PerlbmkWorkload(seed=seed, statements=300)
        )
        assert evaluation.report.best_speedup < 2.0

    def test_parser_stays_scalable(self, seed):
        evaluation = ParallelizationFramework().evaluate(
            ParserWorkload(seed=seed, sentence_count=300)
        )
        assert evaluation.report.best_speedup > 12

    def test_crafty_stays_scalable(self, seed):
        evaluation = ParallelizationFramework().evaluate(CraftyWorkload(seed=seed))
        assert evaluation.report.best_speedup > 12

    def test_twolf_stays_bounded(self, seed):
        evaluation = ParallelizationFramework().evaluate(TwolfWorkload(seed=seed))
        assert 1.3 < evaluation.report.best_speedup < 3.5

    def test_vpr_saturates_midrange(self, seed):
        evaluation = ParallelizationFramework().evaluate(VprWorkload(seed=seed))
        assert 2.0 < evaluation.report.best_speedup < 8.0

    def test_bzip2_capped_by_blocks(self, seed):
        evaluation = ParallelizationFramework().evaluate(
            Bzip2Workload(seed=seed, block_size=8 * 1024, blocks=5)
        )
        assert evaluation.report.best_speedup <= 5.2

    def test_gap_gc_bound(self, seed):
        evaluation = ParallelizationFramework().evaluate(GapWorkload(seed=seed))
        assert 1.2 < evaluation.report.best_speedup < 3.5


_ABLATION_CURVE = """
import json
from repro.core.framework import FrameworkConfig, ParallelizationFramework
from repro.workloads.gcc_w import GccWorkload
framework = ParallelizationFramework(FrameworkConfig(enable_commutative=False))
curve = framework.evaluate(GccWorkload(function_count=24)).report.curve
print(json.dumps(sorted(curve.items())))
"""


def test_gcc_ablation_is_independent_of_hash_seed():
    """The no-Commutative gcc curve reads the symbol-table slots as ordinary
    locations, so their keys must not depend on ``PYTHONHASHSEED``."""
    source = str(Path(__file__).parent.parent / "src")
    curves = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", _ABLATION_CURVE],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        curves.append(json.loads(result.stdout))
    assert curves[0] == curves[1]
