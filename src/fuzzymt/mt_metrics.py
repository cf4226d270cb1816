"""Corpus-level BLEU, chrF++, and TER.

Each metric reduces every pair to integer statistics, sums them over the
corpus, and applies one float formula to the sums (the sacreBLEU design,
arXiv:1804.08771). An ``EvalPair`` tokenizes its two sides once; BLEU, TER
and the check that every reference holds a token all read those tokens.

BLEU and chrF++ share one n-gram counter, which counts the whole corpus in
one numpy pass per order. Units become integers (a character its code
point, a token a dense id). An n-gram's key is the id of its (n-1)-gram
prefix times a base above every unit, plus its last unit; a unigram's
prefix is its pair index, so a key names one gram of one pair.
``np.unique`` re-densifies the keys at each order, which keeps them far
inside int64, and a pair's matches are clipped as min(hypothesis count,
reference count) per key. Fixed settings, chosen to match dominant
community defaults:

* BLEU: n-gram orders 1..4 pooled over the corpus, geometric mean, brevity
  penalty exp(1 - r/c) for c < r with c, r the pooled unigram counts,
  13a-style tokenization, exponential smoothing of zero n-gram precisions.
* chrF++: character n-grams 1..6 (whitespace removed), word n-grams 1..2
  (whitespace tokens), beta = 2, F-scores averaged over the orders present
  in either side of the pooled corpus.
* TER: word edits (insert/delete/substitute, cost 1) plus block shifts
  (cost 1), greedy shift search capped at 50 iterations per segment,
  case-sensitive, 13a-style tokenization, divided by total reference words.
  Each shift iteration computes the hypothesis's integer DP table once (for
  its edit distance and the misaligned-word backtrace), then scores every
  candidate move (a reference-matching block of at most 10 words with a
  misaligned word, moved at most 50 positions) in one batched DP that starts
  each candidate at the table row where its prefix shared with the
  hypothesis ends. The move with the largest edit-distance gain is applied
  if that gain is positive; of equal gains the first in (start, length,
  destination) order wins.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError

BLEU_ORDER = 4
CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 2
CHRF_BETA = 2.0
TER_MAX_SHIFT_ITERS = 50
TER_MAX_SHIFT_SIZE = 10
TER_MAX_SHIFT_DIST = 50


@dataclass(frozen=True)
class MetricScore:
    name: str
    value: float


@dataclass(frozen=True)
class EvalPair:
    hypothesis: str
    reference: str

    @cached_property
    def tokens(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The 13a tokens of the hypothesis and of the reference."""
        return tuple(tokenize_13a(self.hypothesis)), tuple(tokenize_13a(self.reference))


def _require_pairs(pairs: Sequence[EvalPair]) -> None:
    if not pairs:
        raise ArgumentError("metric requires a non-empty corpus")
    for i, pair in enumerate(pairs):
        if not pair.tokens[1]:
            raise ArgumentError(f"pair {i}: reference must hold at least one token")


# -- tokenization ---------------------------------------------------------------

_13A_RULES = [
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
]


def tokenize_13a(line: str) -> list[str]:
    """Minimal international tokenization: split punctuation from words,
    keeping digit-internal periods/commas attached (WMT '13a' behaviour)."""
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = (
        norm.replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    norm = f" {norm} "
    for pattern, repl in _13A_RULES:
        norm = pattern.sub(repl, norm)
    return norm.split()


def _pooled_ngram_stats(sides: Iterable[tuple[Sequence, Sequence]], orders: range) -> list[list[int]]:
    """[hypothesis n-grams, reference n-grams, clipped matches] for each n in
    ``orders``, a range 1..k, summed over the (hypothesis, reference) sides,
    which are all strings (units are characters) or all token sequences.

    All hypotheses, then all references, become one array of unit ids
    (``_unit_ids``). The gram of size n at position i has a key: its pair
    index (for n = 1) or the id of the (n-1)-gram at i (for n > 1), times
    ``base``, plus the unit at i + n - 1, where ``base`` exceeds every
    unit. ``np.unique`` maps the keys of an order to dense ids, so two
    grams share an id exactly when they are the same gram of the same
    pair, and a pair's grams never meet another pair's. With N the number
    of pairs plus units, ids and pair indices are below N and ``base`` is
    at most max(N, 0x110000), so a key stays far inside int64 for any
    corpus that fits in memory. The clipped matches of an order are the
    sum over ids of min(hypothesis count, reference count), each side
    counted with ``np.bincount``.
    """
    hyps, refs = zip(*sides)
    units, lengths = _unit_ids(hyps + refs)
    pairs = len(hyps)
    segment = np.repeat(np.arange(2 * pairs), lengths)
    end = np.cumsum(lengths)[segment]
    base = int(units.max(initial=0)) + 1
    starts = np.arange(len(units))
    ids = segment % pairs
    stats = []
    for n in orders:
        keep = starts + (n - 1) < end[starts]
        starts = starts[keep]
        distinct, ids = np.unique(ids[keep] * base + units[starts + (n - 1)], return_inverse=True)
        in_hyp = segment[starts] < pairs
        hyp_counts = np.bincount(ids[in_hyp], minlength=len(distinct))
        ref_counts = np.bincount(ids[~in_hyp], minlength=len(distinct))
        hyp_total = int(np.count_nonzero(in_hyp))
        matches = int(np.minimum(hyp_counts, ref_counts).sum())
        stats.append([hyp_total, len(starts) - hyp_total, matches])
    return stats


def _unit_ids(segments: Sequence[Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """The int64 unit ids of all ``segments``, concatenated, and each one's length.

    A character's id is its code point (a lone surrogate's too); a token's
    is its index among the distinct tokens of ``segments``.
    """
    lengths = np.fromiter(map(len, segments), dtype=np.intp, count=len(segments))
    if isinstance(segments[0], str):
        points = "".join(segments).encode("utf-32-le", "surrogatepass")
        return np.frombuffer(points, dtype="<u4").astype(np.int64), lengths
    tokens = list(chain.from_iterable(segments))
    vocab = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
    return np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens)), lengths


# -- BLEU -----------------------------------------------------------------------


def bleu(pairs: Sequence[EvalPair]) -> MetricScore:
    """Corpus BLEU in [0, 100]."""
    _require_pairs(pairs)
    stats = _pooled_ngram_stats((pair.tokens for pair in pairs), range(1, BLEU_ORDER + 1))
    if any(total == 0 for total, _, _ in stats):
        return MetricScore("BLEU", 0.0)

    smooth = 1.0
    log_sum = 0.0
    for total, _, correct in stats:
        if correct == 0:
            # exponential smoothing: halve the floor at each empty order
            smooth *= 2.0
            precision = 1.0 / (smooth * total)
        else:
            precision = correct / total
        log_sum += math.log(precision)

    hyp_len, ref_len, _ = stats[0]
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = 100.0 * brevity * math.exp(log_sum / BLEU_ORDER)
    return MetricScore("BLEU", score)


# -- chrF++ ---------------------------------------------------------------------


def chrf_pp(pairs: Sequence[EvalPair]) -> MetricScore:
    """Corpus chrF++ in [0, 100]."""
    _require_pairs(pairs)
    words = [(tuple(pair.hypothesis.split()), tuple(pair.reference.split())) for pair in pairs]
    stats = _pooled_ngram_stats(
        (("".join(hyp), "".join(ref)) for hyp, ref in words), range(1, CHRF_CHAR_ORDER + 1)
    ) + _pooled_ngram_stats(words, range(1, CHRF_WORD_ORDER + 1))

    eps = 1e-16
    beta_sq = CHRF_BETA * CHRF_BETA
    f_sum = 0.0
    present = 0
    for hyp_total, ref_total, matches in stats:
        if hyp_total == 0 and ref_total == 0:
            continue
        precision = matches / hyp_total if hyp_total > 0 else eps
        recall = matches / ref_total if ref_total > 0 else eps
        denom = beta_sq * precision + recall
        f_sum += ((1 + beta_sq) * precision * recall / denom) if denom > 0 else eps
        present += 1
    if present == 0:
        return MetricScore("chrF++", 0.0)
    return MetricScore("chrF++", 100.0 * f_sum / present)


# -- TER ------------------------------------------------------------------------


def _dp_step(prev: np.ndarray, tokens: np.ndarray, step_cost: np.ndarray, out: np.ndarray) -> None:
    """The next edit-distance DP row of each batch entry, after one more token.

    Row i is kept as F[j] = D[j] - i - j, so that the uniform-cost recurrence
    D[j] = min(D'[j-1] + cost, D'[j] + 1, D[j-1] + 1) becomes
    F[j] = min(F'[j-1] + cost - 2, F'[j], F[j-1]) with F[0] = 0: the insertion
    chain is a running minimum. ``step_cost[t]`` holds cost - 2 of token id t
    against each reference word. ``out`` may be ``prev``; its column 0
    must already hold 0.
    """
    np.minimum(prev[:, :-1] + step_cost[tokens], prev[:, 1:], out=out[:, 1:])
    np.minimum.accumulate(out, axis=1, out=out)


def _dp_table(hyp: np.ndarray, step_cost: np.ndarray) -> np.ndarray:
    """The (n+1, m+1) DP table of ``hyp`` against the reference, rows as in ``_dp_step``."""
    table = np.zeros((len(hyp) + 1, step_cost.shape[1] + 1), dtype=np.int32)
    for i in range(len(hyp)):
        _dp_step(table[i : i + 1], hyp[i : i + 1], step_cost, table[i + 1 : i + 2])
    return table


def _misaligned_positions(hyp: list[int], ref: list[int], table: np.ndarray) -> list[bool]:
    """Per-hypothesis-word error flags from one deterministic DP backtrace.

    Ties prefer a diagonal step, then a hypothesis-side deletion.
    """
    n, m = len(hyp), len(ref)
    dp = (table + np.arange(n + 1)[:, None] + np.arange(m + 1)).tolist()
    herr = [True] * n
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1]):
            if hyp[i - 1] == ref[j - 1]:
                herr[i - 1] = False
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            i -= 1
        else:
            j -= 1
    return herr


def _ref_spans(ref: Sequence[int], max_size: int) -> set[tuple[int, ...]]:
    spans = set()
    for length in range(1, min(max_size, len(ref)) + 1):
        for start in range(len(ref) - length + 1):
            spans.add(tuple(ref[start : start + length]))
    return spans


def _shift_candidates(hyp: list[int], herr: list[bool], spans: set) -> np.ndarray:
    """(start, length, dest) of every allowed block move, in greedy visit order."""
    n = len(hyp)
    out = []
    for start in range(n):
        for length in range(1, min(TER_MAX_SHIFT_SIZE, n - start) + 1):
            if tuple(hyp[start : start + length]) not in spans:
                # longer blocks only shrink the candidate set
                break
            if not any(herr[start : start + length]):
                continue
            out.extend(
                (start, length, dest)
                for dest in range(n - length + 1)
                if dest != start and abs(dest - start) <= TER_MAX_SHIFT_DIST
            )
    return np.array(out, dtype=np.int32).reshape(-1, 3)


def _best_shift(hyp: np.ndarray, ref: list[int], table: np.ndarray, spans: set,
                step_cost: np.ndarray) -> np.ndarray | None:
    """The block move that most reduces edit distance, or None if none does.

    Every candidate's DP runs in one batch: a candidate shares its first
    min(start, dest) words with ``hyp``, so it starts from that row of
    ``table``. Of equal gains the first candidate in visit order wins.
    """
    n, m = len(hyp), len(ref)
    hyp_list = hyp.tolist()
    cands = _shift_candidates(hyp_list, _misaligned_positions(hyp_list, ref, table), spans)
    if len(cands) == 0:
        return None
    start, length, dest = (col[:, None] for col in cands.T)
    k = np.arange(n)
    lo = np.minimum(start, dest)
    # position in hyp of each candidate's k-th word: the block lands at dest,
    # and the words it passes over move by its length
    displaced = np.where(dest < start, k - length, k + length)
    moved_at = np.where((k >= lo) & (k < np.maximum(start, dest) + length), displaced, k)
    moved_at = np.where((k >= dest) & (k < dest + length), start + k - dest, moved_at)
    moved = hyp[moved_at]

    # candidates in order of shared prefix; each joins once the batch reaches its row
    order = np.argsort(lo[:, 0], kind="stable")
    batch = moved[order].T.copy()
    joined = np.searchsorted(lo[order, 0], np.arange(n), side="right")
    rows = np.empty((len(cands), m + 1), dtype=np.int32)
    active = 0
    for i in range(int(lo.min()), n):
        rows[active : joined[i]] = table[i]
        active = joined[i]
        _dp_step(rows[:active], batch[i, :active], step_cost, rows[:active])

    gain = np.empty(len(cands), dtype=np.int32)
    gain[order] = table[n, m] - rows[:, m]
    best = int(np.argmax(gain))
    return moved[best] if gain[best] > 0 else None


def ter_segment_edits(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> int:
    """Greedy-shift TER edit count for a single tokenized segment."""
    vocab: dict[str, int] = {}
    hyp = np.array([vocab.setdefault(t, len(vocab)) for t in hyp_tokens], dtype=np.int32)
    ref = [vocab.setdefault(t, len(vocab)) for t in ref_tokens]
    step_cost = (np.arange(len(vocab))[:, None] != np.array(ref, dtype=np.int32)).astype(np.int32) - 2
    spans = _ref_spans(ref, TER_MAX_SHIFT_SIZE)
    shifts = 0
    while True:
        table = _dp_table(hyp, step_cost)
        edits = int(table[-1, -1]) + len(hyp) + len(ref)
        if edits == 0 or shifts == TER_MAX_SHIFT_ITERS:
            return shifts + edits
        shifted = _best_shift(hyp, ref, table, spans, step_cost)
        if shifted is None:
            return shifts + edits
        hyp = shifted
        shifts += 1


def ter(pairs: Sequence[EvalPair]) -> MetricScore:
    """Corpus TER: 100 * total edits / total reference words."""
    _require_pairs(pairs)
    total_edits = sum(ter_segment_edits(*pair.tokens) for pair in pairs)
    total_ref_words = sum(len(pair.tokens[1]) for pair in pairs)
    return MetricScore("TER", 100.0 * total_edits / total_ref_words)


def score_all(pairs: Sequence[EvalPair]) -> list[MetricScore]:
    """BLEU, chrF++, and TER for one corpus, in that order."""
    return [bleu(pairs), chrf_pp(pairs), ter(pairs)]
