"""197.parser analog: a CYK grammar checker over generated sentences.

Section 4.3.2: "As each sentence is grammatically independent of every other
sentence, parsing can occur in parallel for each sentence."  Two obstacles,
both reproduced here:

- a sentence may be a *command* (toggling echo mode, etc.); the paper places
  command handling in the phase A thread so no speculation is needed;
- the 60 MB up-front memory pool: "to avoid dependences from the memory
  allocator interfering with parallelization, it is marked with Commutative
  annotation".  The analog's arena allocator is a module-level bump
  allocator annotated ``@commutative``; un-annotated (the ablation), every
  parse serializes on the arena top pointer.

The parser itself is a real CYK recognizer over a small CNF grammar —
O(n³·|rules|) per sentence, so task costs vary realistically with sentence
length, and the longest sentence caps the speedup exactly as the paper notes
("limited only by the time it takes to parse the longest sentence").
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Set, Tuple

from repro.annotations.commutative import commutative
from repro.profiling.context import current_tracer
from repro.workloads.base import Workload, WorkloadInfo
from repro.workloads.generators import Xorshift, generate_sentences

# -- the Commutative arena allocator (the paper's 60MB pool) ---------------------------

_ARENA_TOP = [0]


def xfree_all() -> None:
    """Rollback partner of :func:`xalloc` (releases the whole parse arena)."""
    _ARENA_TOP[0] = 0


@commutative(group="parser.xalloc", rollback=xfree_all)
def xalloc(size: int) -> int:
    """Bump-allocate ``size`` cells from the shared pool.

    The internal dependence on the arena top pointer is real — and invisible
    to the parallelizer thanks to the Commutative annotation.
    """
    tracer = current_tracer()
    if tracer is not None:
        tracer.load("xalloc", "top")
    offset = _ARENA_TOP[0]
    _ARENA_TOP[0] = offset + size
    if tracer is not None:
        tracer.store("xalloc", "top", value=_ARENA_TOP[0])
        tracer.work(1)
    return offset


# -- the grammar (Chomsky normal form) ---------------------------------------------------

_TERMINALS: Dict[str, Set[str]] = {
    "Det": {"the", "a"},
    "N": {"dog", "cat", "bird", "tree", "house", "river", "cloud", "stone"},
    "V": {"sees", "likes", "chases", "finds", "watches"},
    "Adj": {"big", "small", "old", "quick", "quiet"},
    "P": {"near", "under", "over"},
}

_BINARY_RULES: List[Tuple[str, str, str]] = [
    ("S", "NP", "VP"),
    ("NP", "Det", "N"),
    ("NP", "Det", "AP"),
    ("AP", "Adj", "N"),
    ("VP", "V", "NP"),
    ("VP", "VP", "PP"),
    ("VP", "VP", "NP"),
    ("PP", "P", "NP"),
    ("NP", "NP", "PP"),
]


class ParserWorkload(Workload):
    """batch_process over a file of sentences and interspersed commands."""

    info = WorkloadInfo(
        name="197.parser",
        loops=("batch_process (main.c:1522-1779)",),
        exec_time_pct="100%",
        lines_changed_all=3,
        lines_changed_model=3,
        techniques=("Commutative", "TLS Memory", "DSWP"),
    )

    def __init__(self, seed: int = 197, sentence_count: int = 480,
                 command_every: int = 160) -> None:
        self.sentences = generate_sentences(seed, sentence_count, 4, 12)
        # Sprinkle a few ungrammatical sentences so the checker has real work
        # to reject (shuffled word order).
        rng = Xorshift(seed * 7 + 1)
        for index in range(0, sentence_count, 9):
            words = self.sentences[index]
            i, j = rng.below(len(words)), rng.below(len(words))
            words[i], words[j] = words[j], words[i]
        self.command_every = command_every

    def forced_synchronized(self):
        # Command handling lives in phase A; the echo-mode flag is the
        # dependence the paper synchronizes rather than speculates.
        return [("parser", "echo_mode")]

    def spec(self, rec):
        """batch_process: per-sentence CYK parses in phase B.

        Commands (and the echo-mode flag they toggle) stay in the stateful
        phase-A producer, exactly where Section 4.3.2 puts them, so phase B
        is pure per-sentence work.
        """
        from repro.exec.engine import PipelineSpec

        return PipelineSpec(
            iterations=len(self.sentences),
            produce=_ReadSentence(rec, self.sentences, self.command_every),
            work=partial(_parse, rec),
            init=_start_batch,
            commit=partial(_tally, rec, self.sentences),
        )


# -- the pipeline stages (picklable: they cross process boundaries) ----------------


class _ReadSentence:
    """Stateful phase A: tokenize, handle commands, track echo mode."""

    def __init__(self, rec, sentences: List[List[str]], command_every: int) -> None:
        self.rec = rec
        self.sentences = sentences
        self.command_every = command_every
        self.echo_mode = False

    def __call__(self, i: int) -> Tuple[List[str], bool, bool]:
        words = self.sentences[i]
        is_command = bool(
            self.command_every and i % self.command_every == self.command_every - 1
        )
        # Tokenize; commands are handled here, in the sequential phase, per
        # Section 4.3.2.
        self.rec.work(len(words))
        if is_command:
            self.echo_mode = not self.echo_mode
            self.rec.store("parser", "echo_mode", value=self.echo_mode)
        return words, is_command, self.echo_mode


def _parse(rec, i: int, payload: Tuple[List[str], bool, bool]) -> Tuple[bool, int]:
    words, is_command, echo_mode = payload
    if is_command:
        rec.work(1)
        grammatical, echoed = True, 0
    else:
        rec.load("parser", "echo_mode")
        grammatical, work = cyk_parse(words)
        rec.work(work)
        echoed = 1 if echo_mode else 0
    rec.store("parse.result", i, value=grammatical)
    return grammatical, echoed


def _start_batch() -> dict:
    xfree_all()
    return {"accepted": 0, "rejected": 0, "echoed": 0}


def _tally(rec, sentences: List[List[str]], i: int, result: Tuple[bool, int],
           acc: dict) -> None:
    rec.load("parse.result", i)
    grammatical, echoed = result
    if grammatical:
        acc["accepted"] += 1
    else:
        acc["rejected"] += 1
    acc["echoed"] += echoed
    rec.work(1 + len(sentences[i]) // 8)


def cyk_parse(words: List[str]) -> Tuple[bool, int]:
    """CYK recognition; returns (grammatical, work units).

    The chart rows are arena-allocated through the Commutative ``xalloc``,
    exactly where 197.parser hits its internal memory manager.
    """
    n = len(words)
    xalloc(n * n)  # the chart
    chart: List[List[Set[str]]] = [[set() for _ in range(n)] for _ in range(n)]
    work = n

    for i, word in enumerate(words):
        for category, members in _TERMINALS.items():
            work += 1
            if word in members:
                chart[0][i].add(category)

    for span in range(2, n + 1):
        xalloc(n - span + 1)  # per-row scratch, as the real parser does
        for start in range(n - span + 1):
            cell = chart[span - 1][start]
            for split in range(1, span):
                left = chart[split - 1][start]
                right = chart[span - split - 1][start + split]
                if not left or not right:
                    work += 1
                    continue
                for head, lhs, rhs in _BINARY_RULES:
                    work += 1
                    if lhs in left and rhs in right:
                        cell.add(head)
    return "S" in chart[n - 1][0], work
