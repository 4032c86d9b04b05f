"""164.gzip analog: an LZ77 (deflate_fast-style) compressor.

Section 4.4.1: gzip compresses in blocks, but "the choice of when to end
compression of the current block and begin a new block is made based on
various factors related to the compression achieved on the current block",
which "makes it impossible to compress blocks in parallel as it is very hard
to predict the point at which a new block will begin".  Manually parallelized
gzips (pigz) force fixed block boundaries; the Y-branch expresses the same
freedom declaratively (Figure 1).

This analog implements a real LZ77 compressor with a hash-head match finder
and a block-restart heuristic driven by the running match rate.  The restart
decision goes through a Y-branch site:

- **sequential policy** — only the heuristic decides; each boundary is then
  data-dependent on the block's own compression, so the next block's read
  (phase A) carries a dependence on the previous compression (phase B) —
  the serialization that makes stock gzip unparallelizable;
- **interval policy** — the Y-branch fires on the compiler-chosen fixed
  interval; those boundaries are predictable, no dependence, and blocks
  compress in parallel.  Boundaries the *heuristic* forces (rare) stay
  data-dependent and are speculated.

Output is the compressed token stream's bit size plus a checksum; fixed
blocking costs a little compression (smaller dictionaries), which
``compare_outputs`` verifies stays under the paper's observed 1%.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.annotations.ybranch import ybranch
from repro.profiling.tracer import Tracer
from repro.workloads.base import OutputComparison, Workload, WorkloadInfo
from repro.workloads.generators import generate_text

_WINDOW = 1024
_MIN_MATCH = 3
_MAX_MATCH = 64
_LITERAL_BITS = 9
_MATCH_BITS = 24
#: The restart decision is evaluated once per this many input symbols.
_DECIDE_GRANULARITY = 512
#: The staleness heuristic only engages after this much block content —
#: a cold dictionary always looks "stale", so young blocks are exempt.
_HEURISTIC_WARMUP = 6 * 1024


class GzipWorkload(Workload):
    """Deflate-style block compression with a Y-branch block restart."""

    info = WorkloadInfo(
        name="164.gzip",
        loops=(
            "deflate_fast (deflate.c:583-655)",
            "deflate (deflate.c:664-762)",
        ),
        exec_time_pct=("30%", "70%"),
        lines_changed_all=26,
        lines_changed_model=2,
        techniques=("Y-branch", "TLS Memory", "DSWP"),
    )

    def __init__(self, seed: int = 164, size: int = 960 * 1024,
                 block_interval: int = 16384) -> None:
        if block_interval <= 0 or block_interval % _DECIDE_GRANULARITY != 0:
            raise ValueError(
                f"block_interval must be a positive multiple of "
                f"{_DECIDE_GRANULARITY}, got {block_interval}"
            )
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.text = generate_text(seed, size)
        self.block_interval = block_interval
        # The site's probability is per *decision instance*; decisions happen
        # every _DECIDE_GRANULARITY symbols, so the per-symbol rate matches
        # Figure 1's "once per block_interval characters".
        self.ybranch = ybranch(
            "gzip.deflate.new_block", _DECIDE_GRANULARITY / block_interval
        )

    @property
    def uses_ybranch(self) -> bool:
        return True

    def spec(self, rec):
        """Fixed-boundary deflate: A slices the input at ``block_interval``
        boundaries, B compresses a block with a fresh dictionary, C
        accumulates bits and the rolling checksum.

        This is the interval policy made concrete — exactly the pigz
        transformation Section 4.4.1 describes: forcing predictable block
        starts removes the boundary dependence, so blocks compress in
        parallel with no speculation.  The Y-branch's staleness heuristic is
        *not* consulted (its rare firings are what the simulator-side run
        speculates on); the cost is the same slightly smaller dictionaries
        ``compare_outputs`` bounds at 1%.  ``rec`` records nothing: the
        traced program is :meth:`run`, whose next block start depends on the
        previous phase B — not a pipeline of pure phase-B tasks.
        """
        from repro.exec.engine import PipelineSpec

        interval = self.block_interval
        iterations = (len(self.text) + interval - 1) // interval
        return PipelineSpec(
            iterations=iterations,
            produce=partial(_exec_produce, self.text, interval),
            work=_exec_work,
            init=_exec_init,
            commit=_exec_commit,
        )

    def run(self, tracer: Tracer):
        self.ybranch.reset()
        data = self.text
        position = 0
        iteration = 0
        total_bits = 0
        checksum = 0
        blocks: List[int] = []

        while position < len(data):
            with tracer.task("A", iteration):
                # Phase A consumes the previous block's boundary.  When that
                # boundary was heuristic-driven it was stored by the previous
                # phase B: a cross-iteration dependence.
                tracer.load("deflate", "block_boundary")
                start = position
                tracer.work(4)

            with tracer.task("B", iteration):
                end, bits, block_checksum, work, data_dependent = (
                    self._deflate_block(data, start)
                )
                tracer.work(work)
                if data_dependent:
                    # Heuristic boundary: unpredictable, the next read
                    # depends on this compression's outcome.
                    tracer.store("deflate", "block_boundary", value=end)
                tracer.store("deflate.out", iteration, value=bits)

            with tracer.task("C", iteration):
                tracer.load("deflate.out", iteration)
                total_bits += bits
                checksum = (checksum * 31 + block_checksum) % (1 << 32)
                tracer.work(max(1, bits // 4096))

            blocks.append(end - start)
            position = end
            iteration += 1

        return {
            "compressed_bits": total_bits,
            "checksum": checksum,
            "blocks": len(blocks),
            "input_bytes": len(data),
        }

    # -- the actual compressor -------------------------------------------------------

    def _deflate_block(self, data: bytes, start: int,
                       tokens: Optional[List] = None) -> Tuple[int, int, int, int, bool]:
        """Compress one block starting at ``start``.

        Returns (end, output bits, checksum, work units, data_dependent):
        ``data_dependent`` is True when the boundary came from the staleness
        heuristic (condition-true), False for interval firings and end-of-
        input — the predictable cases.  When ``tokens`` is given, the token
        stream (literal ints and (distance, length) pairs) is appended to it
        so tests can decode and verify losslessness.
        """
        heads: Dict[bytes, int] = {}
        lookup = heads.get
        decide = self.ybranch.decide
        end = len(data)
        last_key = end - _MIN_MATCH  # the last position with a whole key
        position = start
        bits = 0
        checksum = 0
        work = 0
        matched_since_decision = 0
        next_decision = _DECIDE_GRANULARITY

        while position < end:
            work += 1
            if position <= last_key:
                key = data[position:position + _MIN_MATCH]
                candidate = lookup(key, -1)
                heads[key] = position
            else:
                candidate = -1

            length = 0
            if candidate >= start and position - candidate <= _WINDOW:
                limit = end - position
                if limit > _MAX_MATCH:
                    limit = _MAX_MATCH
                length = _MIN_MATCH  # the candidate shares this position's key
                while (
                    length < limit
                    and data[candidate + length] == data[position + length]
                ):
                    length += 1
                work += length // 4 + 1

            if length >= _MIN_MATCH:
                bits += _MATCH_BITS
                checksum = (checksum * 131 + length) & 0xFFFFFFFF
                if tokens is not None:
                    tokens.append((position - candidate, length))
                position += length
                matched_since_decision += 1
            else:
                bits += _LITERAL_BITS
                checksum = (checksum * 131 + data[position]) & 0xFFFFFFFF
                if tokens is not None:
                    tokens.append(data[position])
                position += 1

            consumed = position - start
            if consumed >= next_decision:
                stale = (
                    consumed >= _HEURISTIC_WARMUP
                    and matched_since_decision < _DECIDE_GRANULARITY // 40
                )
                matched_since_decision = 0
                next_decision += _DECIDE_GRANULARITY
                if decide(stale):
                    return position, bits, checksum, work, stale

        return end, bits, checksum, work, False

    def compare_outputs(self, sequential, parallel) -> OutputComparison:
        return compare_gzip_outputs(sequential, parallel)


# -- picklable pipeline stages for repro.exec --------------------------------------


def deflate_fixed_block(block: bytes) -> Tuple[int, int]:
    """(output bits, checksum) for one fixed-boundary block.

    Same match finder and token costs as :meth:`GzipWorkload._deflate_block`
    but with the dictionary scoped to the block and no restart decisions —
    the whole point of fixed boundaries is that nothing mid-block can move
    the boundary, so phase B is a pure function of its slice.
    """
    heads: Dict[bytes, int] = {}
    lookup = heads.get
    end = len(block)
    last_key = end - _MIN_MATCH  # the last position with a whole key
    position = 0
    bits = 0
    checksum = 0
    while position < end:
        if position <= last_key:
            key = block[position:position + _MIN_MATCH]
            candidate = lookup(key, -1)
            heads[key] = position
        else:
            candidate = -1

        length = 0
        if candidate >= 0 and position - candidate <= _WINDOW:
            limit = end - position
            if limit > _MAX_MATCH:
                limit = _MAX_MATCH
            length = _MIN_MATCH  # the candidate shares this position's key
            while (
                length < limit
                and block[candidate + length] == block[position + length]
            ):
                length += 1

        if length >= _MIN_MATCH:
            bits += _MATCH_BITS
            checksum = (checksum * 131 + length) & 0xFFFFFFFF
            position += length
        else:
            bits += _LITERAL_BITS
            checksum = (checksum * 131 + block[position]) & 0xFFFFFFFF
            position += 1
    return bits, checksum


def _exec_produce(text: bytes, interval: int, i: int) -> bytes:
    return text[i * interval:(i + 1) * interval]


def _exec_work(i: int, block: bytes) -> Tuple[int, int]:
    return deflate_fixed_block(block)


def _exec_init() -> dict:
    return {"compressed_bits": 0, "checksum": 0, "blocks": 0}


def _exec_commit(i: int, result: Tuple[int, int], acc: dict) -> None:
    bits, block_checksum = result
    acc["compressed_bits"] += bits
    acc["checksum"] = (acc["checksum"] * 31 + block_checksum) % (1 << 32)
    acc["blocks"] += 1


def compare_gzip_outputs(sequential, parallel) -> OutputComparison:
    if sequential == parallel:
        return OutputComparison(True, True, "bit-identical")
    seq_bits = sequential["compressed_bits"]
    par_bits = parallel["compressed_bits"]
    loss = (par_bits - seq_bits) / seq_bits
    note = f"compression loss {loss:.2%} (paper observed < 1%)"
    return OutputComparison(
        equivalent=False,
        acceptable=loss < 0.01,
        note=note,
    )
