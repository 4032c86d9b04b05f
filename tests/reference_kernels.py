"""Frozen reference analog kernels the shipped ones are diffed against.

Test-only: nothing in ``src/`` imports this module.  It holds the input
generator, the BWT and the LZ77 match loops as they were when every
xorshift step masked each shift, ``generate_text`` went through
``Xorshift.below`` / ``chance`` and encoded each word as it drew it, the
BWT sorted by a tuple-returning closure (called again per element to
re-rank) and the LZ77 loops looked up ``len(data)`` and ``heads.get`` per
symbol.  ``tests/test_kernel_differential.py`` asserts the shipped kernels
give the same bytes, last columns, tokens, bits, checksums and work units.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.workloads.generators import _WORD_STEMS

_WINDOW = 1024
_MIN_MATCH = 3
_MAX_MATCH = 64
_LITERAL_BITS = 9
_MATCH_BITS = 24
_DECIDE_GRANULARITY = 512
_HEURISTIC_WARMUP = 6 * 1024


class ReferenceXorshift:
    """A tiny, portable PRNG (xorshift64*), independent of ``random``."""

    def __init__(self, seed: int) -> None:
        self.state = (seed or 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        x = self.state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= (x >> 27) & 0xFFFFFFFFFFFFFFFF
        self.state = x & 0xFFFFFFFFFFFFFFFF
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next() % bound

    def chance(self, probability: float) -> bool:
        return self.next() % 1_000_000 < probability * 1_000_000

    def choice(self, items):
        return items[self.below(len(items))]


def reference_generate_text(seed: int, size: int) -> bytes:
    """English-like byte text of exactly ``size`` bytes (Zipf-ish words)."""
    rng = ReferenceXorshift(seed)
    pieces: List[bytes] = []
    produced = 0
    vocabulary = len(_WORD_STEMS)
    while produced < size:
        draw = rng.below(vocabulary * vocabulary)
        index = (draw * draw) // (vocabulary ** 3)
        word = _WORD_STEMS[min(index, vocabulary - 1)].encode()
        if rng.chance(0.08):
            word = word.capitalize()
        pieces.append(word)
        produced += len(word)
        if rng.chance(0.12):
            pieces.append(b".\n" if rng.chance(0.3) else b", ")
            produced += 2
        else:
            pieces.append(b" ")
            produced += 1
    return b"".join(pieces)[:size]


def reference_burrows_wheeler_transform(block: bytes) -> Tuple[List[int], int]:
    """BWT of ``block`` + sentinel via prefix-doubling suffix sorting."""
    n = len(block) + 1
    rank = [block[i] + 1 for i in range(len(block))] + [0]
    temp = [0] * n
    order = sorted(range(n), key=rank.__getitem__)
    work = n
    k = 1
    while k < n:
        def sort_key(i: int) -> Tuple[int, int]:
            second = rank[i + k] if i + k < n else -1
            return (rank[i], second)

        order.sort(key=sort_key)
        work += n
        temp[order[0]] = 0
        for j in range(1, n):
            temp[order[j]] = temp[order[j - 1]]
            if sort_key(order[j]) != sort_key(order[j - 1]):
                temp[order[j]] += 1
        rank, temp = temp, rank
        if rank[order[-1]] == n - 1:
            break
        k *= 2

    last_column: List[int] = []
    for suffix in order:
        if suffix == 0:
            last_column.append(-1)
        else:
            last_column.append(block[suffix - 1])
    return last_column, work


def reference_deflate_block(ybranch, data: bytes, start: int,
                            tokens: Optional[List] = None) -> Tuple[int, int, int, int, bool]:
    """``GzipWorkload._deflate_block`` with the site passed in for ``self``."""
    heads: Dict[bytes, int] = {}
    position = start
    bits = 0
    checksum = 0
    work = 0
    matched_since_decision = 0
    next_decision = _DECIDE_GRANULARITY

    while position < len(data):
        work += 1
        if position + _MIN_MATCH <= len(data):
            key = data[position:position + _MIN_MATCH]
            candidate = heads.get(key, -1)
            heads[key] = position
        else:
            candidate = -1

        length = 0
        if candidate >= start and position - candidate <= _WINDOW:
            limit = min(_MAX_MATCH, len(data) - position)
            while (
                length < limit
                and data[candidate + length] == data[position + length]
            ):
                length += 1
            work += length // 4 + 1

        if length >= _MIN_MATCH:
            bits += _MATCH_BITS
            checksum = (checksum * 131 + length) % (1 << 32)
            if tokens is not None:
                tokens.append((position - candidate, length))
            position += length
            matched_since_decision += 1
        else:
            bits += _LITERAL_BITS
            checksum = (checksum * 131 + data[position]) % (1 << 32)
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
            if ybranch.decide(stale):
                return position, bits, checksum, work, stale

    return len(data), bits, checksum, work, False


def reference_deflate_fixed_block(block: bytes) -> Tuple[int, int]:
    """(output bits, checksum) for one fixed-boundary block."""
    heads: Dict[bytes, int] = {}
    position = 0
    bits = 0
    checksum = 0
    while position < len(block):
        if position + _MIN_MATCH <= len(block):
            key = block[position:position + _MIN_MATCH]
            candidate = heads.get(key, -1)
            heads[key] = position
        else:
            candidate = -1

        length = 0
        if candidate >= 0 and position - candidate <= _WINDOW:
            limit = min(_MAX_MATCH, len(block) - position)
            while (
                length < limit
                and block[candidate + length] == block[position + length]
            ):
                length += 1

        if length >= _MIN_MATCH:
            bits += _MATCH_BITS
            checksum = (checksum * 131 + length) % (1 << 32)
            position += length
        else:
            bits += _LITERAL_BITS
            checksum = (checksum * 131 + block[position]) % (1 << 32)
            position += 1
    return bits, checksum
