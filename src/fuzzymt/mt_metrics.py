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
reference count) per key.

TER runs the greedy shift search of every pair of the corpus in lockstep
rounds. Hypotheses are padded on the left to one length and references on
the right, and each hypothesis word has a cost row against its own
reference, so one int32 DP table holds every unfinished pair. Each round
computes that table, walks one backtrace per pair to flag its misaligned
words, lists every allowed block move of every pair as one batch, and
scores the moves in one DP that runs in blocks of bounded size; a move's DP
starts at the table row where the prefix it shares with its hypothesis
ends. Each pair then applies its largest positive gain or drops out. Pairs
never mix, so each pair's edit count is that of a search run on it alone;
a corpus whose table would exceed the byte bound runs as two halves.

Fixed settings, chosen to match dominant community defaults:

* BLEU: n-gram orders 1..4 pooled over the corpus, geometric mean, brevity
  penalty exp(1 - r/c) for c < r with c, r the pooled unigram counts,
  13a-style tokenization, exponential smoothing of zero n-gram precisions.
* chrF++: character n-grams 1..6 (whitespace removed), word n-grams 1..2
  (whitespace tokens), beta = 2, F-scores averaged over the orders present
  in either side of the pooled corpus.
* TER: word edits (insert/delete/substitute, cost 1) plus block shifts
  (cost 1), greedy shift search capped at 50 shifts per segment,
  case-sensitive, 13a-style tokenization, divided by total reference words.
  A shift moves a block of at most 10 words that is found in the reference
  and holds a misaligned word, at most 50 positions; the move with the
  largest edit-distance gain is applied if that gain is positive, and of
  equal gains the first in (start, length, destination) order wins.
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
# the first rule pads single ASCII characters, which one translate table does in C
_13A_PAD = str.maketrans({c: f" {c} " for c in map(chr, range(128)) if _13A_RULES[0][0].fullmatch(c)})


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
    norm = f" {norm} ".translate(_13A_PAD)
    for pattern, repl in _13A_RULES[1:]:
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

# bound in bytes on a chunk of pairs' DP table and on the working arrays of a
# block of shift candidates
_TER_BLOCK_BYTES = 1 << 18


def _dp_step(prev: np.ndarray, cost: np.ndarray, out: np.ndarray) -> None:
    """The next edit-distance DP row of each batch entry, after one more word.

    Row i is kept as F[j] = D[j] - i - j, so that the uniform-cost recurrence
    D[j] = min(D'[j-1] + cost, D'[j] + 1, D[j-1] + 1) becomes
    F[j] = min(F'[j-1] + cost - 2, F'[j], F[j-1]) with F[0] = 0: the insertion
    chain is a running minimum, so F is non-increasing and a ``cost`` row of
    zeros (a padding word) leaves it unchanged. ``cost`` holds cost - 2 of
    each entry's word against each reference word. ``out`` may be ``prev``;
    its column 0 must already hold 0.
    """
    np.minimum(prev[:, :-1] + cost, prev[:, 1:], out=out[:, 1:])
    np.minimum.accumulate(out, axis=1, out=out)


def _block_moves(table: np.ndarray, costs: np.ndarray, n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every allowed block move of every pair, in (pair, start, length, dest) order.

    ``costs`` are the (depth, pairs, width) cost rows of the left-padded
    hypotheses, so a pair's words sit in its last ``n`` rows. A block of
    1..TER_MAX_SHIFT_SIZE words holds a misaligned word and is found in the
    reference; it moves at most TER_MAX_SHIFT_DIST positions. A word is
    misaligned unless its pair's one DP backtrace, from the last row and
    column m, aligns it with an equal reference word; all walks step
    together over the flattened table, ties preferring a diagonal step, then
    a hypothesis-side deletion. A move is returned as int32 (pair, lo, span,
    turn): it turns the words lo..lo + span - 1 left by ``turn``.
    """
    match = costs == -2
    diag = table[1:, :, 1:] == table[:-1, :, :-1] + costs
    plane = table[0].size
    back = np.full(table.shape, -1, dtype=np.int32)
    back[1:][table[1:] == table[:-1]] = -plane
    back[1:, :, 1:][diag] = -plane - 1
    back[0, :, 0] = 0
    path = np.empty((int((n + m).max()) + 1, len(n)), dtype=np.intp)
    path[0], back = (len(table) - 1) * plane + np.arange(len(n)) * table.shape[2] + m, back.ravel()
    for k in range(len(path) - 1):
        np.add(path[k], back[path[k]], out=path[k + 1])
    seen = np.zeros(table.size, dtype=bool)
    seen[path] = True
    herr = ~(seen.reshape(table.shape)[1:, :, 1:] & diag & match).any(axis=2)
    depth = match.shape[0]
    valid = np.zeros((match.shape[1], depth, TER_MAX_SHIFT_SIZE), dtype=bool)
    block, err = match, herr
    for size in range(min(TER_MAX_SHIFT_SIZE, depth, match.shape[2])):
        if size:
            block, err = block[:-1, :, :-1] & match[size:, :, size:], err[:-1] | herr[size:]
        found = block.any(axis=2)
        if not found.any():
            break
        valid[:, : depth - size, size] = (found & err).T
    pair, start, length = np.array(np.nonzero(valid), dtype=np.int32)
    length += 1
    lo = np.maximum(start - TER_MAX_SHIFT_DIST, depth - n[pair])
    count = np.minimum(depth - length, start + TER_MAX_SHIFT_DIST) - lo
    move = np.repeat(np.arange(len(pair), dtype=np.int32), count)
    dest = np.arange(len(move), dtype=np.int32) - np.repeat((np.cumsum(count) - count - lo).astype(np.int32), count)
    pair, start, length = pair[move], start[move], length[move]
    dest += dest >= start
    return pair, np.minimum(start, dest), np.abs(dest - start) + length, np.where(dest > start, length, start - dest)


def _rotated(lo: np.ndarray, span: np.ndarray, turn: np.ndarray, width: int) -> np.ndarray:
    """The (moves, width) position in the hypothesis of each word of each move's result."""
    t = np.arange(width, dtype=np.int32) - lo[:, None]
    # t < 0 reads as unsigned above every span
    inside = t.view(np.uint32) < span[:, None].view(np.uint32)
    return np.where(inside, (t + turn[:, None]) % span[:, None], t) + lo[:, None]


def _moved_distances(table: np.ndarray, cost: np.ndarray, hyp: np.ndarray, m: np.ndarray,
                     moves: tuple[np.ndarray, ...]) -> np.ndarray:
    """F at the last row and column m of each move's result, as in ``_dp_step``.

    A move's result shares its first lo rows with its hypothesis, so its DP
    starts from that row of ``table``. Moves run in blocks, bounded by
    ``_TER_BLOCK_BYTES``, in order of that row, each joining once its block
    reaches the row.
    """
    pair, lo, span, turn = moves
    order = np.argsort(lo, kind="stable")
    out = np.empty(len(order), dtype=np.int32)
    step = max(1, _TER_BLOCK_BYTES // (4 * (4 * hyp.shape[1] + 3 * table.shape[2])))
    for sel in (order[b : b + step] for b in range(0, len(order), step)):
        words = hyp[pair[sel, None], _rotated(lo[sel], span[sel], turn[sel], hyp.shape[1])].T.copy()
        joined = np.searchsorted(lo[sel], np.arange(hyp.shape[1]), side="right").tolist()
        rows = table[lo[sel], pair[sel]]
        for i in range(int(lo[sel[0]]), hyp.shape[1]):
            _dp_step(rows[: joined[i]], cost.take(words[i, : joined[i]], axis=0), rows[: joined[i]])
        out[sel] = rows[np.arange(len(sel)), m[pair[sel]]]
    return out


def _ter_edits(sides: Sequence[tuple[Sequence[str], Sequence[str]]]) -> np.ndarray:
    """Greedy-shift TER edit count of each of a non-empty list of
    (hypothesis, reference) token pairs, every unfinished pair one round at
    a time.

    Pairs whose padded DP table exceeds ``_TER_BLOCK_BYTES`` run as two
    halves. A padding word's cost row is zeros, so every pair's DP ends in
    the table's last row. Every live pair has made ``shifts`` shifts, and
    rows up to ``redo`` of its table still hold from the round before. An
    empty hypothesis has no block to move.
    """
    hyps, refs = zip(*sides)
    units, lengths = _unit_ids(hyps + refs)
    n, m = lengths.reshape(2, -1)
    pairs, words, width, depth = len(n), int(n.sum()), int(m.max()), int(n.max())
    if pairs > 1 and 4 * pairs * (depth + 1) * (width + 1) > _TER_BLOCK_BYTES:
        return np.concatenate([_ter_edits(sides[: pairs // 2]), _ter_edits(sides[pairs // 2 :])])
    ref = np.full((pairs, width), -1)
    ref[np.arange(width) < m[:, None]] = units[words:]
    # cost - 2 of every hypothesis word against its reference; the last row pads
    cost = np.zeros((words + 1, width), dtype=np.int32)
    cost[:-1] = (units[:words, None] != ref[np.repeat(np.arange(pairs), n)]) - 2
    hyp = np.full((pairs, depth), words, dtype=np.int32)
    hyp[np.arange(depth) >= depth - n[:, None]] = np.arange(words)
    edits, live, shifts, redo = np.zeros(pairs, dtype=np.int64), np.arange(pairs), 0, 0
    table = np.zeros((depth + 1, pairs, width + 1), dtype=np.int32)
    while True:
        n_live, m_live, hyp_live = n[live], m[live], hyp[live]
        for i in range(redo, depth):
            _dp_step(table[i], cost.take(hyp_live[:, i], axis=0), table[i + 1])
        final = table[depth, np.arange(len(live)), m_live]
        edits[live] = shifts + final + n_live + m_live
        if shifts == TER_MAX_SHIFT_ITERS:
            return edits
        moves = _block_moves(table, cost.take(hyp_live.T, axis=0), n_live, m_live)
        if not len(moves[0]):
            return edits
        gain = final[moves[0]] - _moved_distances(table, cost, hyp_live, m_live, moves)
        # each pair's first largest gain in (start, length, dest) order, if positive
        best = np.lexsort((-gain, moves[0]))[np.concatenate(([True], moves[0][1:] != moves[0][:-1]))]
        pair, lo, span, turn = (col[best[gain[best] > 0]] for col in moves)
        if not len(pair):
            return edits
        hyp[live[pair]] = hyp_live[pair[:, None], _rotated(lo, span, turn, depth)]
        live, table, shifts, redo = live[pair], table[:, pair], shifts + 1, int(lo.min())


def ter_segment_edits(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> int:
    """Greedy-shift TER edit count for a single tokenized segment."""
    return int(_ter_edits([(hyp_tokens, ref_tokens)])[0])


def ter(pairs: Sequence[EvalPair]) -> MetricScore:
    """Corpus TER: 100 * total edits / total reference words.

    The pairs run shortest hypothesis first, so that the halves of a large
    corpus pad little.
    """
    _require_pairs(pairs)
    sides = sorted((pair.tokens for pair in pairs), key=lambda side: len(side[0]))
    return MetricScore("TER", 100.0 * int(_ter_edits(sides).sum()) / sum(len(ref) for _, ref in sides))


def score_all(pairs: Sequence[EvalPair]) -> list[MetricScore]:
    """BLEU, chrF++, and TER for one corpus, in that order."""
    return [bleu(pairs), chrf_pp(pairs), ter(pairs)]
