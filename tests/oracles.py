"""Independent oracles shared by the test suite.

Everything here is deliberately written without any fuzzymt internals:
brute-force exact nearest-neighbor ranking, a recursive word edit distance,
an exhaustive block-shift search, a frozen copy of the scalar greedy
TER shift search, the per-text hashed n-gram embedding written from the
rule that ``fuzzymt.embedding``'s docstring states, and frozen copies of
the per-pair BLEU and chrF++ scorers.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache

import numpy as np


def brute_force_ids(matrix: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int):
    """Exact top-k ids by scanning every vector; ties broken by ascending id."""
    m = matrix.astype(np.float64)
    q = query.astype(np.float64)
    scores = m @ q
    order = np.lexsort((ids, -scores))[:k]
    return [int(ids[i]) for i in order]


def lev_oracle(a, b) -> int:
    """Plain word edit distance, recursive formulation with memoization."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j + 1) + (a[i] != b[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )

    return go(0, 0)


def exhaustive_shift_edits(hyp, ref, size_cap: int = 10) -> int:
    """Minimum (shifts + residual edit distance) over every shift sequence.

    Breadth-first over hypothesis states, pruned once another shift could
    not possibly beat the best total found so far.
    """
    ref = tuple(ref)
    spans = set()
    for size in range(1, min(size_cap, len(ref)) + 1):
        for start in range(len(ref) - size + 1):
            spans.add(ref[start : start + size])

    def moves(state):
        out = set()
        for start in range(len(state)):
            for size in range(1, min(size_cap, len(state) - start) + 1):
                block = state[start : start + size]
                if block not in spans:
                    break
                rest = state[:start] + state[start + size :]
                for dest in range(len(rest) + 1):
                    if dest != start:
                        out.add(rest[:dest] + block + rest[dest:])
        return out

    start_state = tuple(hyp)
    best = lev_oracle(start_state, ref)
    frontier, seen = {start_state}, {start_state}
    shifts = 0
    while frontier and shifts + 1 < best:
        shifts += 1
        next_frontier = set()
        for state in frontier:
            for moved in moves(state):
                if moved not in seen:
                    seen.add(moved)
                    next_frontier.add(moved)
                    best = min(best, shifts + lev_oracle(moved, ref))
        frontier = next_frontier
    return best


# -- frozen greedy TER ------------------------------------------------------------
#
# The scalar greedy shift search as mt_metrics ran it before its batched DP:
# one fresh O(n*m) edit distance per candidate move. Kept verbatim, with its
# own constants, as the reference that the batched search must reproduce.

_REF_MAX_SHIFT_ITERS = 50
_REF_MAX_SHIFT_SIZE = 10
_REF_MAX_SHIFT_DIST = 50


def _ref_edit_distance(hyp, ref) -> int:
    """Word-level Levenshtein with uniform costs."""
    n, m = len(hyp), len(ref)
    if n == 0:
        return m
    if m == 0:
        return n
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        hi = hyp[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (hi != ref[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[m]


def _ref_misaligned_positions(hyp, ref) -> list[bool]:
    """Per-hypothesis-word error flags from one deterministic DP backtrace."""
    n, m = len(hyp), len(ref)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(
                dp[i - 1][j - 1] + (hyp[i - 1] != ref[j - 1]),
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
            )
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


def _ref_spans(ref, max_size: int) -> set:
    spans = set()
    for length in range(1, min(max_size, len(ref)) + 1):
        for start in range(len(ref) - length + 1):
            spans.add(tuple(ref[start : start + length]))
    return spans


def _ref_best_shift(hyp: list, ref, base: int):
    """The single block move that most reduces edit distance, if any."""
    spans = _ref_spans(ref, _REF_MAX_SHIFT_SIZE)
    herr = _ref_misaligned_positions(hyp, ref)
    best_gain = 0
    best_hyp = None
    n = len(hyp)
    for start in range(n):
        for length in range(1, min(_REF_MAX_SHIFT_SIZE, n - start) + 1):
            block = tuple(hyp[start : start + length])
            if block not in spans:
                # longer blocks only shrink the candidate set
                break
            if not any(herr[start : start + length]):
                continue
            rest = hyp[:start] + hyp[start + length :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                if abs(dest - start) > _REF_MAX_SHIFT_DIST:
                    continue
                moved = rest[:dest] + list(block) + rest[dest:]
                gain = base - _ref_edit_distance(moved, ref)
                if gain > best_gain:
                    best_gain = gain
                    best_hyp = moved
    return best_gain, best_hyp


def greedy_ter_reference(hyp_tokens, ref_tokens) -> int:
    """Greedy-shift TER edit count for a single tokenized segment."""
    hyp = list(hyp_tokens)
    shifts = 0
    for _ in range(_REF_MAX_SHIFT_ITERS):
        base = _ref_edit_distance(hyp, ref_tokens)
        if base == 0:
            break
        gain, shifted = _ref_best_shift(hyp, ref_tokens, base)
        if shifted is None or gain <= 0:
            break
        hyp = shifted
        shifts += 1
    return shifts + _ref_edit_distance(hyp, ref_tokens)


_MASK64 = (1 << 64) - 1


def ngram_digest_reference(gram: str, seed: int) -> int:
    """The 64-bit digest of one (lowercased) gram: FNV-1a steps over its code
    points from the seed, then the splitmix64 finalizer of ``h ^ len(gram)``."""
    h = seed & _MASK64
    for char in gram:
        h = ((h ^ ord(char)) * 0x100000001B3) & _MASK64
    z = h ^ len(gram)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def deterministic_embed_reference(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Frozen per-text hashed n-gram embedding (n = 3..5), one text at a time.

    Each n-gram of the lowercased text adds +1, or -1 when its digest's top
    bit is set, to bucket ``digest % dim``; the sums are L2-normalized. Texts
    too short to produce any n-gram, or whose contributions cancel, map to
    the unit basis vector e_0.
    """
    sums = [0] * dim
    lowered = text.lower()
    for n in (3, 4, 5):
        for i in range(len(lowered) - n + 1):
            digest = ngram_digest_reference(lowered[i : i + n], seed)
            sums[digest % dim] += -1 if digest >> 63 else 1
    vec = np.array(sums, dtype=np.float64)
    if not vec.any():
        vec[0] = 1.0
        return vec.astype(np.float32)
    norm = float(np.linalg.norm(vec))
    return (vec / norm).astype(np.float32)


# -- frozen per-pair BLEU and chrF++ ----------------------------------------------

_REF_13A_RULES = [
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
]


def _ref_tokenize_13a(line: str) -> list[str]:
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = norm.replace("&quot;", '"').replace("&amp;", "&").replace("&lt;", "<").replace("&gt;", ">")
    norm = f" {norm} "
    for pattern, repl in _REF_13A_RULES:
        norm = pattern.sub(repl, norm)
    return norm.split()


def _ref_ngram_stats(hyp, ref, n: int) -> tuple[int, int, int]:
    """(hypothesis n-grams, reference n-grams, clipped matches), n-grams as tuples."""
    ref_ngrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    hyp_ngrams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
    matches = sum(min(count, ref_ngrams[gram]) for gram, count in hyp_ngrams.items())
    return max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0), matches


def bleu_reference(pairs) -> float:
    """Corpus BLEU of (hypothesis, reference) strings: orders 1..4 pooled,
    13a tokens, exponential smoothing, brevity penalty."""
    correct = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in pairs:
        hyp_toks = _ref_tokenize_13a(hyp)
        ref_toks = _ref_tokenize_13a(ref)
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        for n in range(1, 5):
            hyp_total, _, matches = _ref_ngram_stats(hyp_toks, ref_toks, n)
            total[n - 1] += hyp_total
            correct[n - 1] += matches
    if any(t == 0 for t in total):
        return 0.0
    smooth = 1.0
    log_sum = 0.0
    for n in range(4):
        if correct[n] == 0:
            smooth *= 2.0
            precision = 1.0 / (smooth * total[n])
        else:
            precision = correct[n] / total[n]
        log_sum += math.log(precision)
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / 4)


def chrf_pp_reference(pairs) -> float:
    """Corpus chrF++ of (hypothesis, reference) strings: character orders 1..6
    without whitespace, word orders 1..2, beta 2, pooled statistics."""
    orders = [(0, n) for n in range(1, 7)] + [(1, n) for n in range(1, 3)]
    stats = [[0, 0, 0] for _ in orders]
    for hyp, ref in pairs:
        hyp_streams = ("".join(hyp.split()), hyp.split())
        ref_streams = ("".join(ref.split()), ref.split())
        for pooled, (stream, n) in zip(stats, orders):
            for i, count in enumerate(_ref_ngram_stats(hyp_streams[stream], ref_streams[stream], n)):
                pooled[i] += count
    beta_sq = 4.0
    f_sum = 0.0
    present = 0
    for hyp_total, ref_total, matches in stats:
        if hyp_total == 0 and ref_total == 0:
            continue
        precision = matches / hyp_total if hyp_total > 0 else 1e-16
        recall = matches / ref_total if ref_total > 0 else 1e-16
        denom = beta_sq * precision + recall
        f_sum += ((1 + beta_sq) * precision * recall / denom) if denom > 0 else 1e-16
        present += 1
    if present == 0:
        return 0.0
    return 100.0 * f_sum / present
