"""Seeded synthetic workloads for the benchmark.

Every workload is drawn from one seed and written as plain two-column TSV
files, so the program under test sees nothing but its documented input
format. The vocabulary mixes accented and plain letters and follows a
Zipf-like frequency curve, because the hashed character n-gram embedding,
and with it inverted-list balance and recall, depend on both properties.

A stated share of the query segments are near-duplicates of one context
(translation-memory) entry: a copy with a fixed set of word edits applied
to the aligned source and target alike. The rest are fresh segments from a
disjoint vocabulary, so they share no words with any context entry.

TER compares tokens only for equality, so its shift-search cost follows
from which tokens of the two sides are equal. No word repeats within a
segment, and each query slot's edit positions depend on the slot alone.
The equality pattern, and with it the TER cost, is therefore the same for
every seed; with repeated words and shared vocabulary the long-segment
timings varied by a quarter from seed to seed.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from pathlib import Path

SOURCE_ONSETS = ["b", "c", "ch", "d", "f", "g", "j", "l", "ll", "m", "n", "ñ", "p", "qu", "r", "rr", "s", "t", "v", "z"]
SOURCE_VOWELS = ["a", "e", "i", "o", "u", "á", "é", "í", "ó", "ú", "ue", "ie"]
TARGET_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "sh", "st", "t", "th", "w", "y"]
TARGET_VOWELS = ["a", "e", "i", "o", "u", "ea", "oo", "ou", "y"]
VOCAB_SIZE = 6000
ZIPF_EXPONENT = 1.05

EDIT_SUB = "sub"
EDIT_INS = "ins"
EDIT_DEL = "del"
EDIT_MOVE = "move"


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes and shape of one generated workload.

    ``queries`` are test segments for a run job and training pairs for an
    export job; ``edits`` is the exact edit list applied to every
    near-duplicate.
    """

    name: str
    job: str  # "run" | "export"
    context_pairs: int
    queries: int
    min_words: int
    max_words: int
    near_dup_share: float
    edits: tuple[str, ...]
    why: str


@dataclass
class Workload:
    spec: WorkloadSpec
    seed: int
    context_path: Path
    queries_path: Path
    parents: list[int | None]  # context id each query was edited from, per query row
    stats: dict


class _Lexicon:
    """Aligned source/target vocabularies with Zipf-like word frequencies.

    Word ids fall in two bands of VOCAB_SIZE words with the same frequency
    curve: context entries and their near-duplicates draw from band 0,
    fresh queries from band 1, so a fresh query shares no word with the
    context corpus and has no fuzzy match in it.
    """

    def __init__(self, rng: random.Random):
        self.source = _unique_words(rng, SOURCE_ONSETS, SOURCE_VOWELS, 2 * VOCAB_SIZE)
        self.target = _unique_words(rng, TARGET_ONSETS, TARGET_VOWELS, 2 * VOCAB_SIZE)
        weights = [1.0 / (rank + 2.7) ** ZIPF_EXPONENT for rank in range(VOCAB_SIZE)]
        total = 0.0
        self.cum_weights = []
        for w in weights:
            total += w
            self.cum_weights.append(total)

    def new_word(self, rng: random.Random, taken: list[int], band: int = 0) -> int:
        """A Zipf-drawn word id from ``band`` that is not already in ``taken``."""
        while True:
            rank = rng.choices(range(VOCAB_SIZE), cum_weights=self.cum_weights)[0]
            if band * VOCAB_SIZE + rank not in taken:
                return band * VOCAB_SIZE + rank

    def render(self, words: list[int]) -> tuple[str, str]:
        """Source and target text for one word-id sequence."""
        return (
            " ".join(self.source[w] for w in words) + ".",
            " ".join(self.target[w] for w in words) + ".",
        )


def _unique_words(rng: random.Random, onsets: list[str], vowels: list[str], n: int) -> list[str]:
    seen: set[str] = set()
    words = []
    while len(words) < n:
        syllables = rng.choice((1, 2, 2, 3, 3, 4))
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(syllables))
        if rng.random() < 0.3:
            word += rng.choice("nsrl")
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _segment(lex: _Lexicon, rng: random.Random, length: int, band: int = 0) -> list[int]:
    words: list[int] = []
    while len(words) < length:
        words.append(lex.new_word(rng, words, band))
    return words


def _apply_edit(
    lex: _Lexicon, rng: random.Random, where: random.Random, words: list[int], kind: str
) -> list[int]:
    """One edit: ``where`` picks positions and block sizes, ``rng`` picks new words."""
    out = list(words)
    if kind == EDIT_SUB:
        out[where.randrange(len(out))] = lex.new_word(rng, out)
    elif kind == EDIT_INS:
        out.insert(where.randrange(len(out) + 1), lex.new_word(rng, out))
    elif kind == EDIT_DEL:
        del out[where.randrange(len(out))]
    elif kind == EDIT_MOVE:
        size = where.randint(2, min(4, len(out) - 1))
        start = where.randrange(len(out) - size + 1)
        block = out[start : start + size]
        rest = out[:start] + out[start + size :]
        dest = where.choice([d for d in range(len(rest) + 1) if d != start])
        out = rest[:dest] + block + rest[dest:]
    else:
        raise ValueError(f"unknown edit kind {kind!r}")
    return out


def _lengths(spec: WorkloadSpec, n: int) -> list[int]:
    # stratified rather than independent draws: every seed gets the same
    # length histogram, so run time varies little between seeds
    span = spec.max_words - spec.min_words + 1
    return [spec.min_words + (i * span) // n for i in range(n)]


def _quantiles(values: list[int]) -> dict:
    p = statistics.quantiles(values, n=10, method="inclusive")
    return {"p10": p[0], "p50": statistics.median(values), "p90": p[8]}


def _write_tsv(path: Path, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for source, target in pairs:
            fh.write(f"{source}\t{target}\n")


def generate(spec: WorkloadSpec, seed: int, out_dir: Path) -> Workload:
    """Write ``context.tsv`` and ``queries.tsv`` for one seed; same seed, same bytes."""
    rng = random.Random(f"{spec.name}/{seed}")
    lex = _Lexicon(rng)
    out_dir.mkdir(parents=True, exist_ok=True)

    context_words: list[list[int]] = []
    seen: set[str] = set()
    for length in _lengths(spec, spec.context_pairs):
        while True:
            words = _segment(lex, rng, length)
            source, _ = lex.render(words)
            if source not in seen:
                break
        seen.add(source)
        context_words.append(words)
    rng.shuffle(context_words)
    by_length: dict[int, list[int]] = {}
    for idx, words in enumerate(context_words):
        by_length.setdefault(len(words), []).append(idx)

    # Query slots are stratified like lengths: which slots are near-duplicates,
    # and where each slot's edits fall, depend on the slot alone. The seed
    # picks the words, the parents and the order. TER cost depends mostly
    # on edit geometry, so every seed gets the same cost profile.
    n_near = round(spec.queries * spec.near_dup_share)
    query_words: list[list[int]] = []
    parents: list[int | None] = []
    for slot, length in enumerate(_lengths(spec, spec.queries)):
        near = (slot + 1) * n_near // spec.queries > slot * n_near // spec.queries
        while True:
            if near:
                # the parent has the slot's length, so the length histogram
                # stays the same whatever share is near-duplicate
                parent = rng.choice(by_length[length])
                where = random.Random(f"{spec.name}/slot{slot}")
                words = context_words[parent]
                for kind in spec.edits:
                    words = _apply_edit(lex, rng, where, words, kind)
            else:
                parent = None
                words = _segment(lex, rng, length, band=1)
            source, _ = lex.render(words)
            # a query must never equal a context pair: the leakage check
            # rejects that, and it would not be a fuzzy match
            if source not in seen:
                break
        seen.add(source)
        query_words.append(words)
        parents.append(parent)
    order = list(range(spec.queries))
    rng.shuffle(order)
    query_words = [query_words[i] for i in order]
    parents = [parents[i] for i in order]

    context_path = out_dir / "context.tsv"
    queries_path = out_dir / "queries.tsv"
    _write_tsv(context_path, [lex.render(w) for w in context_words])
    _write_tsv(queries_path, [lex.render(w) for w in query_words])
    stats = {
        "context_pairs": spec.context_pairs,
        "queries": spec.queries,
        "near_dup_share": n_near / spec.queries,
        "near_dup_edits": list(spec.edits),
        "context_words": _quantiles([len(w) for w in context_words]),
        "query_words": _quantiles([len(w) for w in query_words]),
    }
    return Workload(spec, seed, context_path, queries_path, parents, stats)


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="tm-build",
            job="run",
            context_pairs=1500,
            queries=500,
            min_words=4,
            max_words=12,
            near_dup_share=0.7,
            edits=(EDIT_SUB, EDIT_INS),
            why="context-store build (embedding + k-means) dominates a short-segment run; scoring stays cheap",
        ),
        WorkloadSpec(
            name="long-segments",
            job="run",
            context_pairs=500,
            queries=32,
            min_words=15,
            max_words=40,
            near_dup_share=0.8,
            edits=(EDIT_SUB, EDIT_INS, EDIT_DEL, EDIT_MOVE),
            why="TER shift search on 15-40 word near-duplicates dominates; build and search are small",
        ),
        WorkloadSpec(
            name="finetune-export",
            job="export",
            context_pairs=2000,
            queries=3600,
            min_words=4,
            max_words=12,
            near_dup_share=0.7,
            edits=(EDIT_SUB, EDIT_INS),
            why="mixed-shot export reads a prebuilt store with 1.8k top-1 lookups; no endpoint, no scoring",
        ),
    )
}
