"""Deterministic input generators shared by the workload analogs.

All generators are pure functions of their seed, so every workload run —
on any machine, any Python — sees identical input and produces an identical
trace.  The text generator produces English-like byte streams with enough
repetition that LZ77/BWT compression behaves realistically.
"""

from __future__ import annotations

from typing import List, Tuple

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULTIPLIER = 0x2545F4914F6CDD1D


class Xorshift:
    """A tiny, portable PRNG (xorshift64*), independent of ``random``."""

    def __init__(self, seed: int) -> None:
        self.state = (seed or 0x9E3779B9) & _MASK64

    def next(self) -> int:
        # The state is below 2**64, so only the left shift needs a mask.
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULTIPLIER) & _MASK64

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next() % bound

    def chance(self, probability: float) -> bool:
        return self.next() % 1_000_000 < probability * 1_000_000

    def choice(self, items):
        return items[self.below(len(items))]


_WORD_STEMS = [
    "the", "of", "and", "to", "in", "that", "it", "was", "for", "on",
    "are", "with", "as", "his", "they", "be", "at", "one", "have", "this",
    "from", "or", "had", "by", "word", "but", "what", "some", "we", "can",
    "out", "other", "were", "all", "there", "when", "up", "use", "your",
    "how", "said", "an", "each", "she", "which", "do", "their", "time",
    "if", "will", "way", "about", "many", "then", "them", "write", "would",
    "like", "so", "these", "her", "long", "make", "thing", "see", "him",
    "two", "has", "look", "more", "day", "could", "go", "come", "did",
    "number", "sound", "no", "most", "people", "my", "over", "know",
    "water", "than", "call", "first", "who", "may", "down", "side",
    "been", "now", "find", "any", "new", "work", "part", "take", "get",
    "place", "made", "live", "where", "after", "back", "little", "only",
    "round", "man", "year", "came", "show", "every", "good", "me",
]


_WORDS = tuple(stem.encode() for stem in _WORD_STEMS)
_CAPITALISED = tuple(word.capitalize() for word in _WORDS)
#: ``Xorshift.chance(p)`` thresholds, the same floats ``p * 1_000_000``.
_CAPITAL_BELOW = 0.08 * 1_000_000
_PUNCTUATE_BELOW = 0.12 * 1_000_000
_FULL_STOP_BELOW = 0.3 * 1_000_000


def generate_text(seed: int, size: int) -> bytes:
    """English-like byte text of exactly ``size`` bytes (Zipf-ish words).

    The draws are ``Xorshift(seed)``'s: ``below(vocabulary ** 2)`` for the
    word, then ``chance(0.08)`` to capitalise it, ``chance(0.12)`` for
    punctuation and ``chance(0.3)`` for a full stop, with the xorshift64*
    step written out in the loop.
    """
    mask = _MASK64
    multiplier = _MULTIPLIER
    words = _WORDS
    capitalised = _CAPITALISED
    capital_below = _CAPITAL_BELOW
    punctuate_below = _PUNCTUATE_BELOW
    full_stop_below = _FULL_STOP_BELOW
    vocabulary = len(words)
    square = vocabulary * vocabulary
    cube = vocabulary ** 3
    x = Xorshift(seed).state
    pieces: List[bytes] = []
    append = pieces.append
    produced = 0
    while produced < size:
        # Zipf-like: squaring a uniform fraction concentrates mass on the
        # low indices (P(index <= k) = sqrt(k/n)), so common words dominate.
        # draw < square, so the index is below the vocabulary size.
        x ^= x >> 12
        x ^= (x << 25) & mask
        x ^= x >> 27
        draw = ((x * multiplier) & mask) % square
        x ^= x >> 12
        x ^= (x << 25) & mask
        x ^= x >> 27
        index = (draw * draw) // cube
        if ((x * multiplier) & mask) % 1_000_000 < capital_below:
            word = capitalised[index]
        else:
            word = words[index]
        append(word)
        produced += len(word)
        x ^= x >> 12
        x ^= (x << 25) & mask
        x ^= x >> 27
        if ((x * multiplier) & mask) % 1_000_000 < punctuate_below:
            x ^= x >> 12
            x ^= (x << 25) & mask
            x ^= x >> 27
            if ((x * multiplier) & mask) % 1_000_000 < full_stop_below:
                append(b".\n")
            else:
                append(b", ")
            produced += 2
        else:
            append(b" ")
            produced += 1
    return b"".join(pieces)[:size]


def generate_sentences(seed: int, count: int,
                       min_words: int = 4, max_words: int = 18) -> List[List[str]]:
    """Token lists for the parser workload (terminals of its grammar)."""
    rng = Xorshift(seed)
    determiners = ["the", "a"]
    nouns = ["dog", "cat", "bird", "tree", "house", "river", "cloud", "stone"]
    verbs = ["sees", "likes", "chases", "finds", "watches"]
    adjectives = ["big", "small", "old", "quick", "quiet"]
    prepositions = ["near", "under", "over"]
    sentences: List[List[str]] = []
    for _ in range(count):
        length_budget = min_words + rng.below(max_words - min_words + 1)
        words: List[str] = [rng.choice(determiners), rng.choice(nouns), rng.choice(verbs)]
        while len(words) < length_budget:
            tail = rng.below(3)
            if tail == 0:
                words.extend([rng.choice(determiners), rng.choice(adjectives), rng.choice(nouns)])
            elif tail == 1:
                words.extend([rng.choice(prepositions), rng.choice(determiners), rng.choice(nouns)])
            else:
                words.extend([rng.choice(verbs), rng.choice(determiners), rng.choice(nouns)])
        sentences.append(words[:max_words])
    return sentences


def generate_flow_network(seed: int, nodes: int, arcs_per_node: int) -> Tuple[List[int], List[Tuple[int, int, int, int]]]:
    """A feasible min-cost-flow instance: (supplies, arcs).

    Arcs are (tail, head, capacity, cost).  Supplies sum to zero: the first
    quarter of nodes are sources, the last quarter sinks, balanced exactly.
    A chain of high-capacity arcs guarantees feasibility.
    """
    rng = Xorshift(seed)
    supplies = [0] * nodes
    quarter = max(1, nodes // 4)
    unit = 5
    for i in range(quarter):
        supplies[i] = unit
        supplies[nodes - 1 - i] = -unit
    arcs: List[Tuple[int, int, int, int]] = []
    for tail in range(nodes - 1):  # feasibility chain
        arcs.append((tail, tail + 1, unit * quarter, 50 + rng.below(20)))
    for tail in range(nodes):
        for _ in range(arcs_per_node):
            head = rng.below(nodes)
            if head == tail:
                head = (head + 1) % nodes
            arcs.append((tail, head, 1 + rng.below(10), 1 + rng.below(40)))
    return supplies, arcs


def generate_netlist(seed: int, cells: int, nets: int,
                     max_pins: int = 4) -> List[List[int]]:
    """Nets (cell-index lists) for the placement workloads."""
    rng = Xorshift(seed)
    netlist: List[List[int]] = []
    for _ in range(nets):
        pins = 2 + rng.below(max_pins - 1)
        members = []
        anchor = rng.below(cells)
        members.append(anchor)
        while len(members) < pins:
            # Locality: most connections are to nearby cell indices.
            offset = rng.below(cells // 8 + 1) - cells // 16
            candidate = (anchor + offset) % cells
            if candidate not in members:
                members.append(candidate)
        netlist.append(members)
    return netlist
