"""Tests for the gzip and bzip2 workload analogs (the real algorithms)."""

import pytest

from repro.core.framework import FrameworkConfig, ParallelizationFramework
from repro.profiling.tracer import Tracer
from repro.workloads.bzip2_w import (
    Bzip2Workload,
    burrows_wheeler_transform,
    huffman_cost,
    move_to_front,
    rle_huffman_bits,
)
from repro.workloads.generators import generate_text
from repro.workloads.gzip_w import GzipWorkload


def inverse_bwt(last_column):
    """Reference inverse transform (LF mapping) used to prove invertibility."""
    n = len(last_column)
    sorted_pairs = sorted(range(n), key=lambda i: (last_column[i], i))
    # next_row[i]: row of the sorted matrix that follows row i
    result = []
    row = last_column.index(-1)
    for _ in range(n - 1):
        row = sorted_pairs[row]
        symbol = last_column[row]
        result.append(symbol)
    return bytes(result)


class TestBWTChain:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bwt_is_invertible(self, seed):
        block = generate_text(seed, 512)
        last, _ = burrows_wheeler_transform(block)
        assert inverse_bwt(last) == block

    def test_bwt_groups_symbols(self):
        block = b"abracadabra" * 40
        last, _ = burrows_wheeler_transform(block)
        mtf = move_to_front(last)
        # BWT of repetitive text must be highly MTF-compressible:
        # most MTF codes should be small.
        small = sum(1 for s in mtf if s <= 2)
        assert small / len(mtf) > 0.7

    def test_bwt_work_superlinear(self):
        _, work_small = burrows_wheeler_transform(generate_text(1, 256))
        _, work_large = burrows_wheeler_transform(generate_text(1, 1024))
        assert work_large > 3.5 * work_small  # ~n log n

    def test_mtf_roundtrip_alphabet(self):
        symbols = [-1, 65, 66, 65, 65, 66, -1]
        # hand-check: first occurrence indices then locality
        out = move_to_front(symbols)
        assert out[0] == 0          # -1 starts in front
        assert out[3] == 1          # 65 is one behind the just-moved 66
        assert out[4] == 0          # immediately repeated symbol codes 0
        assert len(out) == len(symbols)

    def test_huffman_cost_bounds(self):
        histogram = {0: 60, 1: 25, 2: 10, 3: 5}
        total_symbols = sum(histogram.values())
        bits = huffman_cost(histogram)
        # Huffman can't beat entropy, can't exceed fixed 2-bit code here.
        import math

        entropy = -sum(
            c / total_symbols * math.log2(c / total_symbols)
            for c in histogram.values()
        )
        assert entropy * total_symbols <= bits <= 2 * total_symbols

    def test_huffman_degenerate_cases(self):
        assert huffman_cost({}) == 0
        assert huffman_cost({7: 100}) == 100  # one symbol: one bit each

    def test_rle_compresses_zero_runs(self):
        long_runs = [0] * 100 + [5] + [0] * 100
        no_runs = list(range(1, 202))
        assert rle_huffman_bits(long_runs) < rle_huffman_bits(no_runs)


class TestBzip2Workload:
    @pytest.fixture(scope="class")
    def evaluation(self):
        workload = Bzip2Workload(block_size=4 * 1024, blocks=5)
        return ParallelizationFramework().evaluate(workload)

    def test_block_count_caps_speedup(self, evaluation):
        # 5 blocks: more than ~5x is impossible.
        assert evaluation.report.best_speedup <= 5.2
        assert evaluation.report.best_speedup > 3.0

    def test_no_cross_block_dependences(self, evaluation):
        assert evaluation.misspeculation.rate == 0.0

    def test_deterministic_output(self):
        workload = Bzip2Workload(block_size=2048, blocks=3)
        fw = ParallelizationFramework()
        first = fw.profile_workload(workload, False)[1]
        second = fw.profile_workload(Bzip2Workload(block_size=2048, blocks=3), False)[1]
        assert first == second

    def test_output_identical_under_parallel_policy(self, evaluation):
        assert evaluation.output_comparison.equivalent

    @pytest.mark.parametrize("args", [
        dict(block_size=0), dict(block_size=-4), dict(blocks=0), dict(blocks=-1),
    ])
    def test_non_positive_sizes_rejected_at_construction(self, args):
        with pytest.raises(ValueError):
            Bzip2Workload(**args)


def inflate(tokens):
    """Decode an LZ77 token stream back to bytes (the decompressor)."""
    output = bytearray()
    for token in tokens:
        if isinstance(token, tuple):
            distance, length = token
            for _ in range(length):
                output.append(output[-distance])
        else:
            output.append(token)
    return bytes(output)


class TestLZ77Lossless:
    def test_block_roundtrip(self):
        workload = GzipWorkload(size=16 * 1024, block_interval=4096)
        tokens = []
        end, bits, checksum, work, _ = workload._deflate_block(
            workload.text, 0, tokens=tokens
        )
        assert inflate(tokens) == workload.text[:end]

    def test_whole_input_roundtrip_under_interval_policy(self):
        workload = GzipWorkload(size=32 * 1024, block_interval=4096)
        workload.ybranch.use_interval_policy()
        position = 0
        recovered = bytearray()
        while position < len(workload.text):
            tokens = []
            end, *_ = workload._deflate_block(workload.text, position, tokens=tokens)
            recovered.extend(inflate(tokens))
            position = end
        workload.ybranch.use_sequential_policy()
        assert bytes(recovered) == workload.text

    def test_matches_reference_far_back_rejected(self):
        """Matches never reach before the block start (independent blocks)."""
        workload = GzipWorkload(size=32 * 1024, block_interval=4096)
        workload.ybranch.use_interval_policy()
        position = 0
        while position < len(workload.text):
            tokens = []
            end, *_ = workload._deflate_block(workload.text, position, tokens=tokens)
            offset = 0
            for token in tokens:
                if isinstance(token, tuple):
                    distance, length = token
                    assert distance <= offset  # stays inside the block
                    offset += length
                else:
                    offset += 1
            position = end
        workload.ybranch.use_sequential_policy()


class TestGzipWorkload:
    @pytest.fixture(scope="class")
    def evaluation(self):
        return ParallelizationFramework().evaluate(
            GzipWorkload(size=128 * 1024, block_interval=4096)
        )

    def test_sequential_policy_is_one_block_heavy(self):
        workload = GzipWorkload(size=64 * 1024, block_interval=4096)
        trace, _ = ParallelizationFramework().profile_workload(workload, False)
        # The staleness heuristic rarely fires on compressible text: the
        # sequential run uses few, data-dependent blocks.
        assert trace.iteration_count <= 4

    def test_interval_policy_fixes_boundaries(self, evaluation):
        blocks = evaluation.parallel_trace.iteration_count
        assert blocks == 128 * 1024 // 4096

    def test_compression_loss_within_paper_bound(self):
        evaluation = ParallelizationFramework().evaluate(GzipWorkload())
        assert not evaluation.output_comparison.equivalent
        assert evaluation.output_comparison.acceptable, evaluation.output_comparison.note

    def test_scales_with_threads(self, evaluation):
        curve = evaluation.report.curve
        assert curve[32] > curve[16] > curve[8] > 2

    def test_ybranch_disabled_kills_parallelism(self):
        config = FrameworkConfig(engage_ybranch=False)
        evaluation = ParallelizationFramework(config).evaluate(
            GzipWorkload(size=64 * 1024, block_interval=4096)
        )
        assert evaluation.report.best_speedup < 1.5

    @pytest.mark.parametrize("args", [
        dict(block_interval=0), dict(block_interval=-512), dict(block_interval=100),
        dict(size=0), dict(size=-1),
    ])
    def test_invalid_sizes_rejected_at_construction(self, args):
        with pytest.raises(ValueError):
            GzipWorkload(**args)

    def test_compression_actually_compresses(self):
        workload = GzipWorkload(size=64 * 1024, block_interval=4096)
        _, output = ParallelizationFramework().profile_workload(workload, False)
        assert output["compressed_bits"] < output["input_bytes"] * 8
