"""Corpus-level BLEU, chrF++, and TER.

Each metric reduces every pair to integer statistics, sums them over the
corpus, and applies one float formula to the sums (the sacreBLEU design,
arXiv:1804.08771). The reference side of a test set is a ``References``:
it tokenizes each reference once, checks that each holds a token, and
builds the n-gram tables of BLEU and chrF++ on first use. Every condition
of a run is scored against the one ``References`` of its test set, and an
``EvalPair`` tokenizes only its hypothesis, once.

A table holds, for each order, the sorted distinct n-gram keys of the
references and their counts. Units become integers (a character its code
point, a token its id among the references' tokens). An n-gram's key is
the index of its (n-1)-gram prefix in the table of order n - 1 times a base
above every reference unit, plus its last unit; a unigram's prefix is its
pair index, so a key names one gram of one pair. A hypothesis gram is
looked up with ``searchsorted`` only when its prefix was found, since no
other gram can match: a unit that no reference holds drops out at order 1,
and with it every gram that spans it. An order's clipped matches are the
sum over the table of min(hypothesis count, reference count), and the
n-gram totals follow from the lengths.

TER runs the greedy shift search of every pair of the corpus in lockstep
rounds. Hypotheses are padded on the left to one length and references on
the right, and each hypothesis word has a cost row against its own
reference, so one int32 DP table holds every unfinished pair. Each round
computes that table, walks one backtrace per pair to flag its misaligned
words and lists every allowed block move. The moves are listed and scored
in chunks whose working arrays stay under a byte bound, as does the table:
a corpus whose table would exceed it runs as two halves. Each pair then
applies its first largest positive gain or drops out; one whose distance
reaches |n - m| is done, since no shift brings it lower. Pairs never mix,
so each pair's edit count is that of a search run on it alone.

A move is scored with Myers' bit-parallel edit distance (J. ACM 46(3),
1999) in Hyyrö's form for a global distance, which keeps a DP row as the
bit vectors of its +1 and -1 steps along the reference, 64 tokens to a
uint64 word. Each hypothesis word gets its match mask, bit j set where it
equals reference token j, once per call. A move's result shares its first
lo rows with its hypothesis, so its DP starts from that row of the table:
VP where F[j + 1] - F[j] is 0 and VN where it is -2 (F as in ``_dp_step``).
Each later word costs about a dozen word operations; a reference past 64
tokens spans several words, and the sum's carry and the bits shifted out
of each word pass to the next. F at column m is the sum of its first m
differences: the VP bits below m less the VN bits, less m, so each move's
edit count equals that of the row DP.

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
from itertools import chain, count, repeat
from typing import Sequence

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
    def tokens(self) -> tuple[str, ...]:
        """The 13a tokens of the hypothesis; a ``References`` holds the reference's."""
        return tuple(tokenize_13a(self.hypothesis))


# -- tokenization ---------------------------------------------------------------

# Each replacement is a function: given a template with group references,
# CPython 3.11's re.sub calls into Python on every call to look it up and on
# every match to expand it.
_13A_RULES = [
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), lambda m: f" {m[1]} "),
    (re.compile(r"([^0-9])([\.,])"), lambda m: f"{m[1]} {m[2]} "),
    (re.compile(r"([\.,])([^0-9])"), lambda m: f" {m[1]} {m[2]}"),
    (re.compile(r"([0-9])(-)"), lambda m: f"{m[1]} {m[2]} "),
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


def _unit_ids(
    segments: Sequence[Sequence], vocab: dict | None = None
) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """The int64 unit ids of all ``segments``, concatenated, each one's
    length, and the token vocabulary (None for characters).

    A character's id is its code point (a lone surrogate's too). A token's
    is its index in ``vocab``, and len(vocab) for a token it lacks; by
    default ``vocab`` holds the distinct tokens of ``segments`` in order.
    """
    lengths = np.fromiter(map(len, segments), dtype=np.intp, count=len(segments))
    if isinstance(segments[0], str):
        points = "".join(segments).encode("utf-32-le", "surrogatepass")
        return np.frombuffer(points, dtype="<u4").astype(np.int64), lengths, None
    tokens = list(chain.from_iterable(segments))
    if vocab is None:
        vocab = dict(zip(dict.fromkeys(tokens), count()))
    ids = np.fromiter(map(vocab.get, tokens, repeat(len(vocab))), dtype=np.int64, count=len(tokens))
    return ids, lengths, vocab


class _GramTable:
    """The distinct n-grams, of orders 1..``order``, of a list of reference
    segments, which are all strings (units are characters) or all token
    sequences; ``stats`` counts a hypothesis list against them.

    A gram's key is its pair index (order 1) or the index of its (n-1)-gram
    prefix in the table of order n - 1, times ``base``, plus its last unit.
    ``base`` exceeds every reference unit by two, and a hypothesis unit that
    no reference holds becomes ``base`` - 1, so its grams are never found.
    Indices stay below the number of units and pairs, and ``base`` at most
    max(tokens, 0x110000) + 1, so a key stays far inside int64 for any
    corpus that fits in memory. Each order keeps its sorted keys and their
    counts, read-only. Grams are kept in key order from one order to the
    next, so the keys of the next come grouped by prefix, in sorted runs
    that a stable sort (timsort) merges fast; a lookup in the table is
    faster on keys in that order too.
    """

    def __init__(self, refs: Sequence[Sequence], order: int):
        units, lengths, self.vocab = _unit_ids(refs)
        self.base = int(units.max(initial=-1)) + 2
        tables = []
        starts, room, ids = np.arange(len(units)), _room(lengths), np.arange(len(refs)).repeat(lengths)
        for n in range(order):
            keep = room > n
            starts, room = starts[keep], room[keep]
            key = ids[keep] * self.base + units[starts + n]
            by_key = key.argsort(kind="stable")
            key, starts, room = key[by_key], starts[by_key], room[by_key]
            new = np.empty(len(key), dtype=bool)
            new[:1] = True
            np.not_equal(key[1:], key[:-1], out=new[1:])
            ids, first = new.cumsum() - 1, new.nonzero()[0]
            keys, counts = key[first], np.diff(first, append=len(key))
            keys.flags.writeable = counts.flags.writeable = False
            tables.append((keys, counts))
        self.keys, self.counts = tuple(zip(*tables))
        self.totals = tuple(int(np.maximum(lengths - n, 0).sum()) for n in range(order))

    def stats(self, hyps: Sequence[Sequence]) -> list[list[int]]:
        """[hypothesis n-grams, reference n-grams, clipped matches] of each
        order, summed over ``hyps``, the hypothesis of each reference in turn.

        A hypothesis gram is looked up by key only when its (n-1)-gram prefix
        was found; its clipped matches are the sum over the table of
        min(hypothesis count, reference count).
        """
        units, lengths, _ = _unit_ids(hyps, self.vocab)
        np.minimum(units, self.base - 1, out=units)
        room, ids = _room(lengths), np.arange(len(hyps)).repeat(lengths)
        starts = (ids * self.base + units).argsort()
        room, ids = room[starts], ids[starts]
        matches = [0] * len(self.keys)
        for n, (keys, counts) in enumerate(zip(self.keys, self.counts)):
            keep = room > n
            starts, room, ids = starts[keep], room[keep], ids[keep]
            if not len(starts) or not len(keys):
                break
            key = ids * self.base + units[starts + n]
            at = np.minimum(keys.searchsorted(key), len(keys) - 1)
            found = keys[at] == key
            starts, room, ids = starts[found], room[found], at[found]
            matches[n] = int(np.minimum(np.bincount(ids, minlength=len(keys)), counts).sum())
        return [[int(np.maximum(lengths - n, 0).sum()), total, match]
                for n, (total, match) in enumerate(zip(self.totals, matches))]


def _room(lengths: np.ndarray) -> np.ndarray:
    """The number of units from each unit to the end of its segment, itself included."""
    ends = np.cumsum(lengths)
    return ends.repeat(lengths) - np.arange(ends[-1])


class References:
    """The reference side of a test set: each reference's 13a tokens, read
    once, and the n-gram tables that BLEU and chrF++ count hypotheses
    against, each built on first use.

    Raises ArgumentError for an empty list or a reference without a token.
    """

    def __init__(self, texts: Sequence[str]):
        if not texts:
            raise ArgumentError("metric requires a non-empty corpus")
        self.texts = tuple(texts)
        self.tokens = tuple(tuple(tokenize_13a(text)) for text in self.texts)
        for i, tokens in enumerate(self.tokens):
            if not tokens:
                raise ArgumentError(f"pair {i}: reference must hold at least one token")

    @cached_property
    def bleu_grams(self) -> _GramTable:
        return _GramTable(self.tokens, BLEU_ORDER)

    @cached_property
    def words(self) -> tuple[tuple[str, ...], ...]:
        """The whitespace tokens of each reference."""
        return tuple(tuple(text.split()) for text in self.texts)

    @cached_property
    def char_grams(self) -> _GramTable:
        return _GramTable(["".join(words) for words in self.words], CHRF_CHAR_ORDER)

    @cached_property
    def word_grams(self) -> _GramTable:
        return _GramTable(self.words, CHRF_WORD_ORDER)


def _references(pairs: Sequence[EvalPair], references: References | None) -> References:
    """``references``, which must hold the references of ``pairs`` in order,
    or by default the References of ``pairs``."""
    texts = tuple(pair.reference for pair in pairs)
    if references is None:
        return References(texts)
    if references.texts != texts:
        raise ArgumentError("references must hold the pairs' references in order")
    return references


# -- BLEU -----------------------------------------------------------------------


def bleu(pairs: Sequence[EvalPair], references: References | None = None) -> MetricScore:
    """Corpus BLEU in [0, 100]."""
    stats = _references(pairs, references).bleu_grams.stats([pair.tokens for pair in pairs])
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


def chrf_pp(pairs: Sequence[EvalPair], references: References | None = None) -> MetricScore:
    """Corpus chrF++ in [0, 100]."""
    references = _references(pairs, references)
    words = [pair.hypothesis.split() for pair in pairs]
    stats = references.char_grams.stats(["".join(hyp) for hyp in words]) + references.word_grams.stats(words)

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
    return MetricScore("chrF++", 100.0 * f_sum / present)


# -- TER ------------------------------------------------------------------------

# bound in bytes on a chunk of pairs' DP table and on the working arrays of a
# chunk of shift candidates
_TER_BLOCK_BYTES = 1 << 18
# the number of set bits of each byte
_BYTE_ONES = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


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


def _bit_words(values: np.ndarray, *keys) -> np.ndarray:
    """For each of ``keys``, the rows of ``values == key`` as uint64 words:
    bit j of a row is bit j % 64 of its word j // 64, and bits past the
    row's end are 0."""
    width = values.shape[-1]
    bits = np.zeros((len(keys),) + values.shape[:-1] + (-(-width // 8) * 8,), dtype=bool)
    for key, out in zip(keys, bits):
        np.equal(values, key, out=out[..., :width])
    packed = np.packbits(bits, bitorder="little").reshape(bits.shape[:-1] + (-1,))
    words = np.zeros(bits.shape[:-1] + (-(-width // 64) * 8,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view("<u8")


def _bit_step(vp: np.ndarray, vn: np.ndarray, eq: np.ndarray) -> None:
    """Advance the bit-vector DP row of each entry by one word, in place.

    Bit j of a row of ``vp`` (``vn``) is set where D[j + 1] - D[j] is +1
    (-1) in the entry's DP row, and bit j of ``eq`` where the word equals
    reference token j. The step is Myers' (J. ACM 46(3), 1999) in Hyyrö's
    form for a global distance, written with NH = ~HP: D[0] grows by one per
    word, so a 0 enters NH at bit 0. The words of a row run from the lowest,
    each passing its sum's carry and its shifted-out bits to the next. Bits
    past a reference's end hold garbage, which moves only upwards.
    """
    words = vp.shape[1]
    for w in range(words):
        p, q = vp[:, w], vn[:, w]
        x = eq[:, w] | q
        match = x & p
        d0 = match + p
        if w:
            d0 += carry
        if w + 1 < words:
            carry = (match | (p & ~d0)) >> 63
        d0 ^= p
        d0 |= x  # D[i][j] == D[i-1][j-1]
        nh = d0 | p
        nh ^= q  # D[i][j] - D[i-1][j] < 1
        hn = p & d0  # D[i][j] - D[i-1][j] == -1
        top = (nh >> 63, hn >> 63) if w + 1 < words else None
        nh += nh  # a shift up by one bit
        hn += hn
        if w:
            nh |= low[0]
            hn |= low[1]
        low = top
        np.bitwise_and(d0, nh, out=x)
        np.bitwise_xor(d0, x, out=q)
        np.bitwise_xor(nh, x, out=x)
        np.bitwise_or(hn, x, out=p)


def _block_moves(table: np.ndarray, costs: np.ndarray, match: np.ndarray, n: np.ndarray,
                 m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every allowed block move of every pair, grouped by block in (pair,
    start, length) order, and the running count of moves after each block.

    ``costs`` are the (depth, pairs, width) cost rows of the left-padded
    hypotheses, so a pair's words sit in its last ``n`` rows, and ``match``
    is (width, depth, pairs) where they are -2. A block of
    1..TER_MAX_SHIFT_SIZE words holds a misaligned word and is found in the
    reference; it moves at most TER_MAX_SHIFT_DIST positions. A word is
    misaligned unless its pair's one DP backtrace, from the last row and
    column m, aligns it with an equal reference word. Within a row the walk
    runs left to the first cell that steps up, preferring a diagonal step,
    then a hypothesis-side deletion; all walks climb one row per step over
    the flattened table. A block is returned as int64 (pair, start, length,
    offset): its moves are numbered on from the previous block's running
    count, and move g lands the block at dest = g + offset, counted in the
    hypothesis without the block, so that one at its own start is skipped.
    """
    depth, pairs, cols = costs.shape[0], costs.shape[1], table.shape[2]
    diag = np.zeros((depth, pairs, cols), dtype=bool)
    np.equal(table[1:, :, 1:], table[:-1, :, :-1] + costs, out=diag[:, :, 1:])
    # the flat index of the cell where a walk that enters a row at a cell
    # leaves it; column 0 steps up, so the running maximum stays in its row
    cell = np.arange(diag.size, dtype=np.int32)
    stop = np.maximum.accumulate(np.where((diag | (table[1:] == table[:-1])).ravel(), cell, 0))
    # and of the cell where it enters the row above
    up = stop - diag.ravel()[stop] - pairs * cols
    diag[:, :, 1:] &= match.transpose(1, 2, 0)
    aligned = diag.ravel()[stop]
    path = np.empty((depth, pairs), dtype=np.int32)
    np.add(cell[-pairs * cols :: cols], m, out=path[0])
    for k in range(1, depth):
        up.take(path[k - 1], out=path[k])
    word = np.arange(depth)[:, None]
    # the first misaligned word at or after each word, and the longest block from it found in the reference
    misaligned = np.minimum.accumulate(np.where(aligned[path[::-1]], depth, word)[::-1], axis=0)[::-1]
    longest = np.zeros((depth, pairs), dtype=np.intp)
    found = match
    for size in range(min(TER_MAX_SHIFT_SIZE, depth, cols - 1)):
        if size:
            found = found[:-1, :-1] & match[size:, size:]
        hit = np.logical_or.reduce(found, axis=0)
        if not np.logical_or.reduce(hit, axis=None):
            break
        longest[: depth - size] += hit
    size = np.arange(1, TER_MAX_SHIFT_SIZE + 1)
    pair, start, length = (((misaligned - word).T[..., None] < size) & (size <= longest.T[..., None])).nonzero()
    length += 1
    lo = np.maximum(start - TER_MAX_SHIFT_DIST, depth - n[pair])
    count = np.minimum(depth - length, start + TER_MAX_SHIFT_DIST) - lo
    ends = count.cumsum()
    return np.array((pair, start, length, lo - ends + count)), ends


def _listed_moves(blocks: np.ndarray, ends: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Moves ``index`` of ``_block_moves`` as int32 rows (pair, lo, span, turn):
    a move turns the words lo..lo + span - 1 left by ``turn``."""
    pair, start, length, offset = blocks[:, ends.searchsorted(index, side="right")]
    dest = index + offset
    dest += dest >= start
    turn = np.where(dest > start, length, start - dest)
    return np.array((pair, np.minimum(start, dest), np.abs(dest - start) + length, turn), dtype=np.int32)


def _rotated(lo: np.ndarray, span: np.ndarray, turn: np.ndarray, width: int) -> np.ndarray:
    """The (moves, width) position in the hypothesis of each word of each move's result."""
    t = np.arange(width, dtype=np.int32) - lo[:, None]
    # t < 0 reads as unsigned above every span
    inside = t.view(np.uint32) < span[:, None].view(np.uint32)
    return np.where(inside, (t + turn[:, None]) % span[:, None], t) + lo[:, None]


def _moved_distances(state: np.ndarray, eqs: np.ndarray, mask: np.ndarray, m: np.ndarray,
                     moves: np.ndarray) -> np.ndarray:
    """F at the last row and column m of each move's result, as in ``_dp_step``.

    A move's result shares its first lo rows with its hypothesis, so its DP
    starts from the bit vectors of that row in ``state`` (VP where F[j + 1]
    - F[j] is 0, VN where it is -2) and takes one ``_bit_step`` per later
    word, with the word's match mask from ``eqs``, the masks of the
    hypotheses' words in turn. Moves run in order of lo, each joining once
    the steps reach its row. F at column m is the sum of the first m
    differences: the VP bits under ``mask`` less the VN bits, less m.
    """
    order = moves[1].argsort(kind="stable")
    pair, lo, span, turn = moves[:, order]
    depth, live = state.shape[1] - 1, state.shape[2]
    # the index in eqs of each move's word at each step, as a running sum: the
    # first word at row lo, then one word on, less span where the turned
    # block wraps and plus span - turn where it ends
    at = np.empty((depth + 1, len(order)), dtype=np.int32)
    at.fill(1)
    move = np.arange(len(order))
    at[lo, move] = pair * depth + turn
    at[lo + span - turn, move] = 1 - span
    at[lo + span, move] = 1 + span - turn
    at.cumsum(axis=0, out=at)
    joined = lo.searchsorted(np.arange(depth), side="right").tolist()
    rows = state.reshape(2, -1, state.shape[3]).take(lo * live + pair, axis=1)
    vp, vn = rows
    for i in range(int(lo[0]), depth):
        k = joined[i]
        _bit_step(vp[:k], vn[:k], eqs.take(at[i, :k], axis=0))
    rows &= mask.take(pair, axis=0)
    ones = np.add.reduce(_BYTE_ONES[rows.view(np.uint8)], axis=2, dtype=np.int32)
    out = np.empty(len(order), dtype=np.int32)
    out[order] = ones[0] - ones[1] - m[pair]
    return out


def _first_largest(gain: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """The index of each pair's first largest gain, for ``pair`` in order."""
    return np.lexsort((-gain, pair))[np.concatenate(([True], pair[1:] != pair[:-1]))]


def _ter_edits(sides: Sequence[tuple[Sequence[str], Sequence[str]]]) -> np.ndarray:
    """Greedy-shift TER edit count of each of a non-empty list of
    (hypothesis, reference) token pairs, every unfinished pair one round at
    a time.

    Pairs whose padded DP table exceeds ``_TER_BLOCK_BYTES`` run as two
    halves. A padding word's cost row is zeros, so every pair's DP ends in
    the table's last row. Every live pair has made ``shifts`` shifts, and
    rows up to ``redo`` of its table still hold from the round before. A
    round lists and scores its moves in chunks whose working arrays stay
    under the same bound, each pair keeping its first largest gain. An
    applied move's distance is the pair's less its gain, and a pair whose
    distance reaches |n - m| is done: no shift brings it lower.
    """
    hyps, refs = zip(*sides)
    units, lengths, _ = _unit_ids(hyps + refs)
    n, m = lengths.reshape(2, -1)
    pairs, words, width, depth = len(n), int(np.add.reduce(n)), int(np.maximum.reduce(m)), int(np.maximum.reduce(n))
    if pairs > 1 and 4 * pairs * (depth + 1) * (width + 1) > _TER_BLOCK_BYTES:
        return np.concatenate([_ter_edits(sides[: pairs // 2]), _ter_edits(sides[pairs // 2 :])])
    ref = np.empty((pairs, width), dtype=np.int64)
    ref.fill(-1)
    ref[np.arange(width) < m[:, None]] = units[words:]
    # cost - 2 of every hypothesis word against its reference; the last row pads
    cost = np.zeros((words + 1, width), dtype=np.int32)
    cost[:-1] = (units[:words, None] != ref[np.arange(pairs).repeat(n)]) - 2
    # the match mask of each word, the first m bits of each pair, and each
    # reference token's matches
    equal = cost == -2
    masks = _bit_words(np.concatenate((equal, np.arange(width) < m[:, None])), True)[0]
    peq, mask, matches = masks[: words + 1], masks[words + 1 :], np.ascontiguousarray(equal.T)
    # a pair's distance is final + size; at |n - m| it is final == floor
    size, floor = n + m, -2 * np.minimum(n, m)
    hyp = np.empty((pairs, depth), dtype=np.int32)
    hyp.fill(words)
    hyp[np.arange(depth) >= depth - n[:, None]] = np.arange(words)
    live, shifts, redo = np.arange(pairs), 0, 0
    table = np.zeros((depth + 1, pairs, width + 1), dtype=np.int32)
    # bytes of a listed move, its bit-vector rows and its word indices
    step = max(1, _TER_BLOCK_BYTES // (160 + 112 * len(peq[0]) + 4 * depth))
    while True:
        hyp_live, m_live = hyp[live], m[live]
        costs = cost.take(hyp_live.T, axis=0)
        for i in range(redo, depth):
            _dp_step(table[i], costs[i], table[i + 1])
        final = table[depth, np.arange(len(live)), m_live]
        if not shifts:
            edits = final + size
            if not TER_MAX_SHIFT_ITERS or not np.logical_or.reduce(final > floor):
                return edits
        blocks, ends = _block_moves(table, costs, matches.take(hyp_live.T, axis=1),
                                    n[live], m_live)
        total = int(ends[-1]) if len(ends) else 0
        if not total:
            return edits
        diff = table[:, :, 1:] - table[:, :, :-1]
        state, eqs, mask_live = _bit_words(diff, 0, -2), peq.take(hyp_live.ravel(), axis=0), mask[live]
        # each chunk's first largest gain of each pair, with its move
        gains, moves = [], []
        for a in range(0, total, step):
            chunk = _listed_moves(blocks, ends, np.arange(a, min(a + step, total)))
            gain = final[chunk[0]] - _moved_distances(state, eqs, mask_live, m_live, chunk)
            top = _first_largest(gain, chunk[0])
            gains.append(gain[top])
            moves.append(chunk[:, top])
        if len(moves) > 1:
            gain, chunk = np.concatenate(gains), np.concatenate(moves, axis=1)
            top = _first_largest(gain, chunk[0])
            gains, moves = [gain[top]], [chunk[:, top]]
        win = gains[0] > 0
        if not np.logical_or.reduce(win):
            return edits
        gain, chosen, shifts = gains[0][win], moves[0][:, win], shifts + 1
        final, done = final[chosen[0]] - gain, live[chosen[0]]
        edits[done] = final + size[done] + shifts
        keep = final > floor[done]
        if shifts == TER_MAX_SHIFT_ITERS or not np.logical_or.reduce(keep):
            return edits
        pair, lo, span, turn = chosen[:, keep]
        hyp[live[pair]] = hyp_live[pair[:, None], _rotated(lo, span, turn, depth)]
        live, table, redo = live[pair], table[:, pair], int(np.minimum.reduce(lo))


def ter_segment_edits(hyp_tokens: Sequence[str], ref_tokens: Sequence[str]) -> int:
    """Greedy-shift TER edit count for a single tokenized segment."""
    return int(_ter_edits([(hyp_tokens, ref_tokens)])[0])


def ter(pairs: Sequence[EvalPair], references: References | None = None) -> MetricScore:
    """Corpus TER: 100 * total edits / total reference words.

    The pairs run shortest hypothesis first, so that the halves of a large
    corpus pad little.
    """
    refs = _references(pairs, references).tokens
    sides = sorted(zip((pair.tokens for pair in pairs), refs), key=lambda side: len(side[0]))
    return MetricScore("TER", 100.0 * int(_ter_edits(sides).sum()) / sum(map(len, refs)))


def score_all(pairs: Sequence[EvalPair], references: References | None = None) -> list[MetricScore]:
    """BLEU, chrF++, and TER for one corpus, in that order, against one
    ``References`` (by default that of ``pairs``)."""
    references = _references(pairs, references)
    return [bleu(pairs, references), chrf_pp(pairs, references), ter(pairs, references)]
