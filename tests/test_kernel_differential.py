"""Differential oracle: the analogs' hot kernels against their frozen
references.

``tests/reference_kernels.py`` holds the xorshift generator, the text
generator, the BWT and both LZ77 match loops as they were before they were
tuned.  The shipped kernels must give the same xorshift streams, the same
text bytes, the same BWT last column and work units, the same deflate bits,
checksums, boundaries and token streams, and every generator and analog
built on them the same output.
"""

import itertools
from contextlib import ExitStack
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.ir.instructions as ir_instructions
import repro.ir.values as ir_values
import repro.workloads.bzip2_w as bzip2_w
import repro.workloads.gap_w as gap_w
import repro.workloads.gcc_compiler as gcc_compiler
import repro.workloads.generators as generators
import repro.workloads.gzip_w as gzip_w
import repro.workloads.parser_w as parser_w
import repro.workloads.perlbmk_w as perlbmk_w
import repro.workloads.vortex_w as vortex_w
from repro.annotations.ybranch import YBranchSite
from repro.core.framework import ParallelizationFramework
from repro.exec.engine import run_sequential
from repro.workloads.bzip2_w import burrows_wheeler_transform
from repro.workloads.generators import Xorshift, generate_text
from repro.workloads.gzip_w import GzipWorkload, deflate_fixed_block
from repro.workloads.suite import SUITE
from tests.reference_kernels import (
    ReferenceXorshift,
    reference_burrows_wheeler_transform,
    reference_deflate_block,
    reference_deflate_fixed_block,
    reference_generate_text,
)
from tests.test_profile_differential import SMALL_SIZES

seeds = st.one_of(
    st.sampled_from([0, 1, -1, 2 ** 64, 2 ** 64 + 1, -(2 ** 63)]),
    st.integers(-(2 ** 70), 2 ** 70),
)


@given(seed=seeds, bounds=st.lists(st.integers(1, 2 ** 66), min_size=1, max_size=8),
       probability=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_xorshift_streams_match_reference(seed, bounds, probability):
    shipped, reference = Xorshift(seed), ReferenceXorshift(seed)
    assert shipped.state == reference.state
    for bound in bounds:
        assert [shipped.next() for _ in range(4)] == [reference.next() for _ in range(4)]
        assert shipped.below(bound) == reference.below(bound)
        assert shipped.chance(probability) == reference.chance(probability)
        assert shipped.choice(bounds) == reference.choice(bounds)
        assert shipped.state == reference.state


@given(seed=seeds, size=st.integers(0, 64 * 1024))
@example(seed=0, size=0)
@example(seed=-1, size=1)
@example(seed=164, size=96 * 1024)
@settings(max_examples=40, deadline=None)
def test_generate_text_matches_reference(seed, size):
    assert generate_text(seed, size) == reference_generate_text(seed, size)


@st.composite
def blocks(draw, max_size=600):
    """Bytes over an alphabet of 1, 2, 4 or 256 symbols."""
    count = draw(st.sampled_from([1, 2, 4, 256]))
    if count == 256:
        alphabet = list(range(256))
    else:
        alphabet = draw(st.lists(st.integers(0, 255), min_size=count,
                                 max_size=count, unique=True))
    return bytes(draw(st.lists(st.sampled_from(alphabet), max_size=max_size)))


@given(block=blocks())
@example(block=b"")
@example(block=bytes([255, 0, 255, 1, 255]))
@example(block=bytes(range(255, -1, -1)))
@settings(max_examples=300, deadline=None)
def test_bwt_matches_reference(block):
    assert burrows_wheeler_transform(block) == reference_burrows_wheeler_transform(block)


@pytest.mark.parametrize("block", [
    b"a" * 4096,  # all equal: the most doubling rounds
    generate_text(256, 4096),
    b"\xff\xfe" * 100,
], ids=["all-equal-4KiB", "text-4KiB", "high-bytes"])
def test_bwt_matches_reference_on_fixed_blocks(block):
    assert burrows_wheeler_transform(block) == reference_burrows_wheeler_transform(block)


@st.composite
def streams(draw):
    """Inputs for the LZ77 loops: text, text with noise, or bytes over a
    small or full alphabet (the full one keeps the staleness heuristic
    firing past its warm-up)."""
    size = draw(st.integers(0, 20 * 1024))
    rng = Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["text", "noisy", "alphabet"]))
    if kind == "alphabet":
        alphabet = rng.sample(range(256), draw(st.sampled_from([1, 2, 4, 256])))
        return bytes(rng.choice(alphabet) for _ in range(size))
    data = bytearray(generate_text(rng.randrange(1000), size))
    if kind == "noisy":
        for _ in range(size // 16):
            data[rng.randrange(size)] = rng.randrange(256)
    return bytes(data)


@given(data=streams())
@example(data=b"abcabc")
@example(data=b"aaaa")
@example(data=Random(1).randbytes(16 * 1024))
@settings(max_examples=150, deadline=None)
def test_deflate_fixed_block_matches_reference(data):
    assert deflate_fixed_block(data) == reference_deflate_fixed_block(data)


@given(data=streams(), interval=st.sampled_from([512, 1024, 4096, 16384]),
       interval_policy=st.booleans())
@example(data=b"abcabc", interval=512, interval_policy=False)
@example(data=Random(1).randbytes(16 * 1024), interval=16384, interval_policy=False)
@example(data=generate_text(164, 20 * 1024), interval=4096, interval_policy=True)
@settings(max_examples=150, deadline=None)
def test_deflate_block_matches_reference(data, interval, interval_policy):
    """Block by block over the whole stream, as ``GzipWorkload.run`` walks
    it: the same boundaries, bits, checksums, work and tokens, with two
    Y-branch sites that see the same decisions."""
    workload = GzipWorkload(size=1, block_interval=interval)
    workload.ybranch = YBranchSite("shipped", workload.ybranch.probability)
    reference_site = YBranchSite("reference", workload.ybranch.probability)
    if interval_policy:
        workload.ybranch.use_interval_policy()
        reference_site.use_interval_policy()
    position = 0
    while True:
        shipped_tokens, reference_tokens = [], []
        shipped = workload._deflate_block(data, position, tokens=shipped_tokens)
        reference = reference_deflate_block(
            reference_site, data, position, tokens=reference_tokens
        )
        assert shipped == reference
        assert shipped_tokens == reference_tokens
        position = shipped[0]
        if position >= len(data):
            break


GENERATORS = {
    "sentences": (generators, lambda seed: generators.generate_sentences(seed, 30)),
    "flow network": (generators, lambda seed: generators.generate_flow_network(seed, 24, 3)),
    "netlist": (generators, lambda seed: generators.generate_netlist(seed, 64, 40)),
    "gcc source": (gcc_compiler, lambda seed: gcc_compiler.generate_source(seed, 6)),
    "gap statements": (gap_w, lambda seed: gap_w.generate_statements(seed, 60)),
    "perlbmk program": (perlbmk_w, lambda seed: perlbmk_w.generate_program(seed, 60)),
}


@pytest.mark.parametrize("name", GENERATORS)
@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_generators_match_reference(name, seed):
    module, generate = GENERATORS[name]
    shipped = generate(seed)
    with mock.patch.object(module, "Xorshift", ReferenceXorshift):
        assert generate(seed) == shipped


def _reference_deflate_method(self, data, start, tokens=None):
    return reference_deflate_block(self.ybranch, data, start, tokens)


def reference_kernels():
    """Every analog module with the frozen kernels in place of its own."""
    stack = ExitStack()
    for module in (generators, gcc_compiler, gap_w, parser_w, perlbmk_w, vortex_w):
        stack.enter_context(mock.patch.object(module, "Xorshift", ReferenceXorshift))
    for module in (bzip2_w, gzip_w):
        stack.enter_context(
            mock.patch.object(module, "generate_text", reference_generate_text)
        )
    stack.enter_context(mock.patch.object(
        bzip2_w, "burrows_wheeler_transform", reference_burrows_wheeler_transform
    ))
    stack.enter_context(mock.patch.object(
        gzip_w, "deflate_fixed_block", reference_deflate_fixed_block
    ))
    stack.enter_context(mock.patch.object(
        GzipWorkload, "_deflate_block", _reference_deflate_method
    ))
    return stack


def analog_view(name):
    """Output and every task's cost under both Y-branch policies, plus the
    ``run_sequential`` output of the analog's exec spec.

    IR register names come from process-wide id counters and 176.gcc's
    digest sums the lengths of its assembly lines, so the counters restart
    here.
    """
    workload = SUITE[name](**SMALL_SIZES[name])
    framework = ParallelizationFramework()
    view = []
    with mock.patch.object(ir_values, "_value_ids", itertools.count()), \
            mock.patch.object(ir_instructions, "_instruction_ids", itertools.count()):
        for parallel_policy in (False, True):
            trace, output = framework.profile_workload(workload, parallel_policy)
            view.append((output, [(task.index, task.phase, task.iteration, task.cost)
                                  for task in trace.tasks]))
    if hasattr(workload, "spec"):
        view.append(run_sequential(workload.exec_spec())[0])
    return view


@pytest.mark.parametrize("name", sorted(SMALL_SIZES))
def test_analogs_match_reference_kernels(name):
    shipped = analog_view(name)
    with reference_kernels():
        assert analog_view(name) == shipped
