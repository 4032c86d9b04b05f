"""256.bzip2 analog: Burrows-Wheeler block compression.

Section 4.1.1: bzip2 compresses "in independent blocks of the same size"
(100-900 KB depending on level); the DSWP parallelization reads blocks in
phase A, runs ``doReversibleTransformation`` + ``moveToFrontCodeAndSend`` in
replicated phase B, and buffers writes "until the position of the writes are
known in phase C".  "The only limitation to performance is the input file's
size ... only a few independent blocks exist to compress in parallel."

The analog implements the real algorithm chain:

1. **BWT** via a prefix-doubling suffix array (O(n log² n), no external
   libraries) over the block plus a unique sentinel;
2. **move-to-front** coding;
3. **run-length + Huffman** sizing: RLE of MTF zeros, then an exact Huffman
   tree over the symbol histogram gives the output bit count.

No cross-block dependences exist at all — the parallelism cap comes purely
from the block count, exactly as in the paper.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Dict, List, Tuple

from repro.workloads.base import Workload, WorkloadInfo
from repro.workloads.generators import generate_text


class Bzip2Workload(Workload):
    """compressStream over a handful of independent blocks."""

    info = WorkloadInfo(
        name="256.bzip2",
        loops=("compressStream (bzip2.c:2870-2919)",),
        exec_time_pct="100%",
        lines_changed_all=0,
        lines_changed_model=0,
        techniques=("TLS Memory", "DSWP"),
    )

    def __init__(self, seed: int = 256, block_size: int = 24 * 1024,
                 blocks: int = 7) -> None:
        if block_size <= 0 or blocks <= 0:
            raise ValueError(
                f"block_size and blocks must be positive, got {block_size} and {blocks}"
            )
        self.block_size = block_size
        self.text = generate_text(seed, block_size * blocks)

    def spec(self, rec):
        """The block loop: A slices, B compresses, C commits.

        No cross-block state exists, so phase B is pure — the first genuine
        wall-clock-parallel target, exactly as Section 4.1.1 predicts.
        """
        from repro.exec.engine import PipelineSpec

        iterations = (len(self.text) + self.block_size - 1) // self.block_size
        return PipelineSpec(
            iterations=iterations,
            produce=partial(_read_block, rec, self.text, self.block_size),
            work=partial(_compress, rec),
            init=_empty_stream,
            commit=partial(_write_block, rec),
        )


def compress_block(block: bytes) -> Tuple[int, int, int]:
    """(output bits, checksum, work units) for one block."""
    bwt, bwt_work = burrows_wheeler_transform(block)
    mtf = move_to_front(bwt)
    bits = rle_huffman_bits(mtf)
    checksum = 0
    for symbol in mtf[:256]:
        checksum = (checksum * 131 + symbol) % (1 << 32)
    work = bwt_work + len(mtf) + len(mtf) // 2
    return bits, checksum, work


# -- the pipeline stages (picklable: they cross process boundaries) ----------------


def _read_block(rec, text: bytes, block_size: int, i: int) -> bytes:
    block = text[i * block_size:(i + 1) * block_size]
    # The block variable is privatized by the TLS memory subsystem (Section
    # 4.1.1) — each iteration's copy is its own; only the read cost appears
    # here.
    rec.store("block", i, value=i * block_size)
    rec.work(max(1, len(block) // 512))
    return block


def _compress(rec, i: int, block: bytes) -> Tuple[int, int]:
    rec.load("block", i)
    bits, checksum, work = compress_block(block)
    rec.store("outbuf", i, value=bits)
    rec.work(work)
    return bits, checksum


def _empty_stream() -> dict:
    return {"compressed_bits": 0, "checksum": 0, "blocks": 0}


def _write_block(rec, i: int, result: Tuple[int, int], acc: dict) -> None:
    # Writes land in the output stream once positions are known.
    rec.load("outbuf", i)
    bits, block_checksum = result
    acc["compressed_bits"] += bits
    acc["checksum"] = (acc["checksum"] * 37 + block_checksum) % (1 << 32)
    acc["blocks"] += 1
    rec.work(max(1, bits // 8192))


def burrows_wheeler_transform(block: bytes) -> Tuple[List[int], int]:
    """BWT of ``block`` + sentinel via prefix-doubling suffix sorting.

    Returns (last-column symbols with the sentinel encoded as -1, work
    units ∝ n log n, the real asymptotic cost of the transform).
    """
    n = len(block) + 1  # sentinel at the end, smaller than every byte
    rank = [byte + 1 for byte in block]
    rank.append(0)
    temp = [0] * n
    order = sorted(range(n), key=rank.__getitem__)
    work = n
    # Each round sorts suffixes by the pair (rank[i], rank[i + k]), with -1
    # past the end, packed into one integer.  Ranks stay below
    # max(n, 257): byte ranks reach 256 before the first re-rank.
    width = max(n, 257) + 1
    k = 1
    while k < n:
        keys = [first * width + second + 1
                for first, second in zip(rank, rank[k:])]
        keys += [first * width for first in rank[n - k:]]
        order.sort(key=keys.__getitem__)
        work += n
        current = 0
        previous = keys[order[0]]
        for suffix in order:
            key = keys[suffix]
            if key != previous:
                current += 1
                previous = key
            temp[suffix] = current
        rank, temp = temp, rank
        if current == n - 1:
            break
        k *= 2

    # before[suffix] is the symbol preceding the suffix: -1 (the sentinel)
    # for the whole block.
    before = [-1, *block]
    return [before[suffix] for suffix in order], work


def move_to_front(symbols: List[int]) -> List[int]:
    """MTF over the BWT alphabet (sentinel -1 plus bytes 0..255)."""
    alphabet = [-1] + list(range(256))
    output: List[int] = []
    for symbol in symbols:
        index = alphabet.index(symbol)
        output.append(index)
        if index:
            alphabet.pop(index)
            alphabet.insert(0, symbol)
    return output


def rle_huffman_bits(mtf: List[int]) -> int:
    """Exact output size: RLE of zero runs, Huffman over the histogram."""
    histogram: Dict[int, int] = {}
    zero_run = 0

    def bump(symbol: int) -> None:
        histogram[symbol] = histogram.get(symbol, 0) + 1

    for symbol in mtf:
        if symbol == 0:
            zero_run += 1
            continue
        if zero_run:
            bump(257)  # RUNA/RUNB-style run marker
            zero_run = 0
        bump(symbol)
    if zero_run:
        bump(257)

    return huffman_cost(histogram)


def huffman_cost(histogram: Dict[int, int]) -> int:
    """Total bits of a Huffman code for ``histogram`` (ties deterministic)."""
    if not histogram:
        return 0
    if len(histogram) == 1:
        return sum(histogram.values())  # one symbol: one bit each
    heap: List[Tuple[int, int]] = [
        (count, symbol) for symbol, count in histogram.items()
    ]
    heapify(heap)
    total = 0
    while len(heap) > 1:
        count_a, _ = heappop(heap)
        count_b, symbol = heappop(heap)
        total += count_a + count_b
        heappush(heap, (count_a + count_b, symbol))
    return total
