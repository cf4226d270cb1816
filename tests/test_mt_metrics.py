from __future__ import annotations

import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt import mt_metrics
from fuzzymt.errors import ArgumentError
from fuzzymt.mt_metrics import (
    EvalPair,
    References,
    bleu,
    chrf_pp,
    score_all,
    ter,
    ter_segment_edits,
    tokenize_13a,
)

DATA = Path(__file__).parent / "data"


def load_fixture():
    pairs = []
    for line in (DATA / "metrics_fixture.tsv").read_text(encoding="utf-8").splitlines():
        hyp, ref = line.split("\t")
        pairs.append(EvalPair(hyp, ref))
    return pairs


def frozen_values():
    return json.loads((DATA / "metrics_expected.json").read_text(encoding="utf-8"))


import oracles
from oracles import (
    _ref_edit_distance,
    _ref_ngram_stats,
    _ref_tokenize_13a,
    bleu_reference,
    chrf_pp_reference,
    exhaustive_shift_edits,
    greedy_ter_reference,
    lev_oracle,
)

# -- tokenizer --------------------------------------------------------------------


class TestTokenizer:
    def test_punctuation_split(self):
        assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_digit_internal_comma_kept(self):
        assert tokenize_13a("1,200 sites") == ["1,200", "sites"]

    def test_trailing_period_split(self):
        assert tokenize_13a("done.") == ["done", "."]

    def test_dash_after_digit(self):
        assert tokenize_13a("5-mg") == ["5", "-", "mg"]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(
        st.text(" !\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~0123456789\n\táéß𝔘😀ab", min_size=1, max_size=6),
        st.sampled_from(["&amp;", "&quot;", "&lt;", "&gt;", "<skipped>", "-\n", "1,200", "3.5", "5-mg"]),
    ), max_size=12).map("".join))
    def test_equals_frozen_regex_tokenizer(self, line):
        assert tokenize_13a(line) == _ref_tokenize_13a(line)


# -- BLEU -------------------------------------------------------------------------


class TestBleu:
    def test_perfect_match_is_exactly_100(self):
        pairs = [EvalPair("the cat sat on the mat", "the cat sat on the mat")] * 3
        assert bleu(pairs).value == 100.0

    def test_all_empty_hypotheses_zero(self):
        pairs = [EvalPair("", "some reference here okay")] * 2
        assert bleu(pairs).value == 0.0

    def test_fixture_frozen_value(self):
        assert bleu(load_fixture()).value == pytest.approx(frozen_values()["bleu"], abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ArgumentError):
            bleu([])

    def test_empty_reference_rejected(self):
        with pytest.raises(ArgumentError):
            bleu([EvalPair("x", "")])

    def test_brevity_penalty_applies(self):
        short = [EvalPair("the cat sat on the", "the cat sat on the mat")]
        full = [EvalPair("the cat sat on the mat", "the cat sat on the mat")]
        import math

        assert bleu(short).value == pytest.approx(100.0 * math.exp(1 - 6 / 5), abs=1e-9)
        assert bleu(full).value == 100.0

    def test_hypothesis_shorter_than_max_order_scores_zero(self):
        assert bleu([EvalPair("the cat", "the cat sat on the mat")]).value == 0.0


# -- chrF++ -----------------------------------------------------------------------


class TestChrfPP:
    def test_identity_exactly_100(self):
        pairs = [EvalPair("identical sentences here", "identical sentences here")]
        assert chrf_pp(pairs).value == 100.0

    def test_disjoint_characters_zero(self):
        pairs = [EvalPair("zzz qqq", "aaa bbb")]
        assert chrf_pp(pairs).value == pytest.approx(0.0, abs=1e-9)

    def test_fixture_frozen_value(self):
        assert chrf_pp(load_fixture()).value == pytest.approx(frozen_values()["chrf_pp"], abs=1e-9)

    def test_recall_weighted_twice(self):
        # dropping hypothesis content hurts more than adding it (beta = 2)
        ref = "alpha beta gamma delta"
        shorter = chrf_pp([EvalPair("alpha beta", ref)]).value
        longer = chrf_pp([EvalPair(ref + " extra junk", ref)]).value
        assert shorter < longer


# -- TER --------------------------------------------------------------------------


class TestTer:
    def test_identity_zero(self):
        pairs = [EvalPair("same words here", "same words here")]
        assert ter(pairs).value == 0.0

    def test_single_substitution(self):
        assert ter([EvalPair("a b x d", "a b c d")]).value == 25.0

    def test_block_shift_counts_one_edit(self):
        assert ter([EvalPair("c d a b", "a b c d")]).value == 25.0

    def test_hand_instances_match_exhaustive_oracle(self):
        for hyp, ref in (("a b x d", "a b c d"), ("c d a b", "a b c d")):
            greedy = ter_segment_edits(tuple(hyp.split()), tuple(ref.split()))
            assert greedy == exhaustive_shift_edits(hyp.split(), ref.split())

    def test_fixture_frozen_value(self):
        assert ter(load_fixture()).value == pytest.approx(frozen_values()["ter"], abs=1e-9)

    def test_empty_hypothesis_all_deletions(self):
        assert ter([EvalPair("", "a b c d")]).value == 100.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
    )
    def test_shift_never_beats_plain_edit_distance(self, hyp, ref):
        greedy = ter_segment_edits(tuple(hyp), tuple(ref))
        assert greedy <= lev_oracle(hyp, ref)


@st.composite
def _small_alphabet_pairs(draw):
    """Pairs over 2-5 symbols, 0-20 words each: repeats and equal gains are common."""
    alphabet = "abcde"[: draw(st.integers(2, 5))]
    words = st.lists(st.sampled_from(alphabet), max_size=20)
    return draw(words), draw(words)


@st.composite
def _moved_block_pairs(draw):
    """A 15-40-word reference and a copy of it with one block moved and a few words replaced."""
    vocab = [f"w{i}" for i in range(draw(st.integers(4, 30)))]
    ref = draw(st.lists(st.sampled_from(vocab), min_size=15, max_size=40))
    hyp = list(ref)
    start = draw(st.integers(0, len(hyp) - 1))
    block = hyp[start : start + draw(st.integers(1, 10))]
    del hyp[start : start + len(block)]
    dest = draw(st.integers(0, len(hyp)))
    hyp[dest:dest] = block
    for _ in range(draw(st.integers(0, 3))):
        hyp[draw(st.integers(0, len(hyp) - 1))] = draw(st.sampled_from(vocab))
    return hyp, ref


class TestGreedyShiftReference:
    """The batched shift search against the frozen scalar greedy search."""

    @settings(max_examples=400, deadline=None)
    @given(_small_alphabet_pairs())
    def test_small_alphabets(self, pair):
        hyp, ref = pair
        assert ter_segment_edits(hyp, ref) == greedy_ter_reference(hyp, ref)

    @settings(max_examples=30, deadline=None)
    @given(_moved_block_pairs())
    def test_moved_block_near_duplicates(self, pair):
        hyp, ref = pair
        assert ter_segment_edits(hyp, ref) == greedy_ter_reference(hyp, ref)


def _moved_block_pair(rng: random.Random) -> tuple[list[str], list[str]]:
    """``_moved_block_pairs`` drawn from a seeded ``random.Random``."""
    vocab = [f"w{i}" for i in range(rng.randint(4, 30))]
    ref = rng.choices(vocab, k=rng.randint(15, 40))
    hyp = list(ref)
    start = rng.randrange(len(hyp))
    block = hyp[start : start + rng.randint(1, 10)]
    del hyp[start : start + len(block)]
    dest = rng.randint(0, len(hyp))
    hyp[dest:dest] = block
    for _ in range(rng.randint(0, 3)):
        hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
    return hyp, ref


@st.composite
def _ter_corpora(draw):
    """1-40 pairs with non-empty references: empty hypotheses, identical pairs,
    0-20-word pairs over 2-5 symbols, and up to two 15-40-word moved-block
    near-duplicates (their frozen greedy search is slow)."""
    alphabet = "abcde"[: draw(st.integers(2, 5))]
    words = st.lists(st.sampled_from(alphabet), max_size=20)
    refs = st.lists(st.sampled_from(alphabet), min_size=1, max_size=20)
    pair = st.one_of(
        st.tuples(st.just([]), refs),
        refs.map(lambda ref: (ref, ref)),
        st.tuples(words, refs),
    )
    corpus = draw(st.lists(pair, min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, min(2, 40 - len(corpus))))):
        corpus.insert(draw(st.integers(0, len(corpus))), draw(_moved_block_pairs()))
    return corpus


class TestTerLockstep:
    """Every pair of a corpus shifts in lockstep; each must match the frozen greedy search."""

    @settings(max_examples=25, deadline=None)
    @given(_ter_corpora())
    def test_corpus_equals_frozen_greedy_search(self, corpus):
        expected = [greedy_ter_reference(hyp, ref) for hyp, ref in corpus]
        assert mt_metrics._ter_edits(corpus).tolist() == expected
        pairs = [EvalPair(" ".join(hyp), " ".join(ref)) for hyp, ref in corpus]
        total_ref_words = sum(len(ref) for _, ref in corpus)
        assert ter(pairs).value == 100.0 * sum(expected) / total_ref_words

    def test_pairs_stop_independently_at_the_shift_cap(self, monkeypatch):
        # the first three need 2, 3 and 2 greedy shifts, the next one 1
        corpus = [(hyp.split(), ref.split()) for hyp, ref in (
            ("c d a b g h e f", "a b c d e f g h"), ("b a d c f e", "a b c d e f"), ("x c a b", "a b c x"),
            ("d a b c", "a b c d"), ("a b c d", "a b c d"), ("", "a b"), ("e f c d a b", "a b c d e f"),
        )]
        uncapped = mt_metrics._ter_edits(corpus).tolist()
        monkeypatch.setattr(mt_metrics, "TER_MAX_SHIFT_ITERS", 1)
        monkeypatch.setattr(oracles, "_REF_MAX_SHIFT_ITERS", 1)
        capped = mt_metrics._ter_edits(corpus).tolist()
        assert capped == [greedy_ter_reference(hyp, ref) for hyp, ref in corpus]
        assert [c > u for c, u in zip(capped, uncapped)] == [True, True, True, False, False, False, False]

    def test_one_row_blocks_give_equal_edits(self, monkeypatch):
        rng = random.Random(18)
        corpus = [_moved_block_pair(rng) for _ in range(6)]
        corpus += [(list(rng.choices("abc", k=rng.randint(0, 12))), list(rng.choices("abc", k=rng.randint(1, 12))))
                   for _ in range(30)]
        default = mt_metrics._ter_edits(corpus).tolist()
        monkeypatch.setattr(mt_metrics, "_TER_BLOCK_BYTES", 1)
        assert mt_metrics._ter_edits(corpus).tolist() == default
        assert default == [greedy_ter_reference(hyp, ref) for hyp, ref in corpus]

    def test_working_memory_is_bounded(self):
        rng = random.Random(1802)
        pairs = [EvalPair(" ".join(hyp), " ".join(ref)) for hyp, ref in (_moved_block_pair(rng) for _ in range(64))]
        for pair in pairs:
            pair.tokens
        tracemalloc.start()
        try:
            ter(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 2 MiB; the per-pair search peaked at 3.8 MiB here, and with
        # _TER_BLOCK_BYTES lifted the lockstep peaks at 23 MiB
        assert peak < 3 << 20

    def test_move_lists_are_bounded(self):
        # 40 words over two letters: most blocks are found in the reference, so a
        # round holds some 36,000 moves
        rng = random.Random(24)
        pairs = [EvalPair(" ".join(rng.choices("ab", k=40)), " ".join(rng.choices("ab", k=40))) for _ in range(16)]
        for pair in pairs:
            pair.tokens
        tracemalloc.start()
        try:
            ter(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.1 MiB; listing every move of a round at once peaked at 3.8 MiB
        assert peak < 6 * mt_metrics._TER_BLOCK_BYTES


def _lev_bits(hyp: list[str], ref: list[str]) -> int:
    """Word edit distance by Hyyrö's bit-vector recurrence on one Python
    integer, which has no machine words and so no carries between them: a
    fast stand-in for the frozen row DP, and checked against it."""
    if not ref:
        return len(hyp)
    peq: dict[str, int] = {}
    for j, token in enumerate(ref):
        peq[token] = peq.get(token, 0) | 1 << j
    full, top = (1 << len(ref)) - 1, 1 << (len(ref) - 1)
    vp, vn, score = full, 0, len(ref)
    for token in hyp:
        x = peq.get(token, 0) | vn
        d0 = (((x & vp) + vp) ^ vp) | x
        hp = vn | (full & ~(d0 | vp))
        hn = vp & d0
        score += bool(hp & top) - bool(hn & top)
        hp = (hp << 1 | 1) & full
        hn = (hn << 1) & full
        vp = hn | (full & ~(d0 | hp))
        vn = hp & d0
    return score


@st.composite
def _long_moved_block_pairs(draw):
    """A 50-140-word reference over 2-6 words and a copy of it with one block
    moved and a few words replaced: most blocks are found in the reference."""
    vocab = [f"w{i}" for i in range(draw(st.integers(2, 6)))]
    ref = draw(st.lists(st.sampled_from(vocab), min_size=50, max_size=140))
    hyp = list(ref)
    start = draw(st.integers(0, len(hyp) - 1))
    block = hyp[start : start + draw(st.integers(1, 10))]
    del hyp[start : start + len(block)]
    dest = draw(st.integers(max(0, start - 50), min(len(hyp), start + 50)))
    hyp[dest:dest] = block
    for _ in range(draw(st.integers(0, 3))):
        hyp[draw(st.integers(0, len(hyp) - 1))] = draw(st.sampled_from(vocab))
    return hyp, ref


class TestBitParallelCandidates:
    """Shift candidates are scored on uint64 words, so a reference past 64
    tokens spans several words with carries between them."""

    def test_references_across_word_boundaries(self):
        rng = random.Random(64)
        corpus = []
        for m in (63, 64, 65, 128, 129):
            ref = [f"w{rng.randrange(40)}" for _ in range(m)]
            hyp = list(ref)
            start = rng.randrange(m - 4)
            hyp.insert(start + rng.randint(5, 20), hyp.pop(start))
            hyp[rng.randrange(m)] = "x"
            corpus.append((hyp, ref))
        expected = [greedy_ter_reference(hyp, ref) for hyp, ref in corpus]
        assert [ter_segment_edits(hyp, ref) for hyp, ref in corpus] == expected
        assert mt_metrics._ter_edits(corpus).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=30),
        st.lists(st.sampled_from("abcde"), max_size=70),
    )
    def test_integer_levenshtein_equals_frozen_row_dp(self, hyp, ref):
        assert _lev_bits(hyp, ref) == _ref_edit_distance(hyp, ref)

    @settings(max_examples=4, deadline=None)
    @given(_long_moved_block_pairs(), st.lists(_small_alphabet_pairs(), max_size=5))
    def test_long_references_equal_frozen_greedy_search(self, pair, others):
        corpus = [pair] + [(hyp, ref) for hyp, ref in others if ref]
        with mock.patch.object(oracles, "_ref_edit_distance", _lev_bits):
            expected = [greedy_ter_reference(hyp, ref) for hyp, ref in corpus]
        assert ter_segment_edits(*pair) == expected[0]
        assert mt_metrics._ter_edits(corpus).tolist() == expected
        # many chunks of candidates per round
        with mock.patch.object(mt_metrics, "_TER_BLOCK_BYTES", 4096):
            assert mt_metrics._ter_edits(corpus).tolist() == expected

    def test_moved_distances_equal_plain_levenshtein(self):
        rng = random.Random(24)
        sides = [(rng.choices("abc", k=n), rng.choices("abc", k=m))
                 for n, m in ((70, 1), (60, 63), (65, 64), (20, 65), (66, 128), (40, 129), (3, 5))]
        n, m = np.array([[len(hyp), len(ref)] for hyp, ref in sides]).T
        pairs, depth, width = len(sides), int(n.max()), int(m.max())
        # left-padded hypotheses; a padding word costs zeros, as in _ter_edits
        hyp = np.full((pairs, depth), "", dtype=object)
        ref = np.full((pairs, width), "", dtype=object)
        for p, (h, r) in enumerate(sides):
            hyp[p, depth - len(h) :], ref[p, : len(r)] = h, r
        costs = np.where(hyp.T[:, :, None] == "", 0, (hyp.T[:, :, None] != ref) - 2).astype(np.int32)
        table = np.zeros((depth + 1, pairs, width + 1), dtype=np.int32)
        for i in range(depth):
            mt_metrics._dp_step(table[i], costs[i], table[i + 1])
        diff = table[:, :, 1:] - table[:, :, :-1]
        state = mt_metrics._bit_words(diff, 0, -2)
        eqs = mt_metrics._bit_words(costs.transpose(1, 0, 2).reshape(pairs * depth, width), -2)[0]
        mask = mt_metrics._bit_words(np.arange(width) < m[:, None], True)[0]
        moves, expected = [], []
        for _ in range(120):
            p = rng.randrange(pairs)
            if n[p] < 2:
                continue
            lo = rng.randint(depth - n[p], depth - 2)
            span = rng.randint(2, min(60, depth - lo))
            turn = rng.randint(1, span - 1)
            words = list(sides[p][0])
            at = lo - (depth - n[p])
            words[at : at + span] = words[at + turn : at + span] + words[at : at + turn]
            moves.append((p, lo, span, turn))
            expected.append(_ref_edit_distance(words, sides[p][1]) - n[p] - m[p])
        moves = np.array(moves, dtype=np.int32).T
        assert mt_metrics._moved_distances(state, eqs, mask, m, moves).tolist() == expected


# -- cross-metric properties --------------------------------------------------------

VOCAB = ["luna", "rio", "campo", "mesa", "libro", "nube", "perro", "gato",
         "casa", "flor", "monte", "lago", "pan"]


def _identity_corpus(rng: random.Random):
    pairs = []
    for _ in range(rng.randint(2, 5)):
        words = rng.sample(VOCAB, rng.randint(4, 9))
        text = " ".join(words)
        pairs.append(EvalPair(text, text))
    return pairs


class TestIdentityAndRanges:
    def test_identity_over_randomized_corpora(self):
        rng = random.Random(20240)
        for _ in range(100):
            pairs = _identity_corpus(rng)
            assert bleu(pairs).value == 100.0
            assert chrf_pp(pairs).value == 100.0
            assert ter(pairs).value == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_ranges(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        pairs = []
        for _ in range(rng.randint(1, 4)):
            ref = " ".join(rng.sample(VOCAB, rng.randint(2, 6)))
            hyp = " ".join(rng.choices(VOCAB, k=rng.randint(0, 6)))
            pairs.append(EvalPair(hyp, ref))
        b, c, t = (s.value for s in score_all(pairs))
        assert 0.0 <= b <= 100.0
        assert 0.0 <= c <= 100.0
        assert t >= 0.0


class TestMonotoneDegradation:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_oov_replacement_degrades(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        n = rng.randint(2, 7)
        ref_words = rng.sample(VOCAB, n)
        hyp_words = list(ref_words)
        if rng.random() < 0.5 and n >= 2:
            i, j = rng.sample(range(n), 2)
            hyp_words[i], hyp_words[j] = hyp_words[j], hyp_words[i]
        if rng.random() < 0.4:
            hyp_words[rng.randrange(n)] = rng.choice(VOCAB)
        correct = [i for i in range(n) if hyp_words[i] == ref_words[i]]
        if not correct:
            return
        pos = rng.choice(correct)
        degraded = list(hyp_words)
        degraded[pos] = "q" * len(hyp_words[pos])
        ref = " ".join(ref_words)
        before = [EvalPair(" ".join(hyp_words), ref)]
        after = [EvalPair(" ".join(degraded), ref)]
        assert bleu(after).value <= bleu(before).value + 1e-9
        assert chrf_pp(after).value <= chrf_pp(before).value + 1e-9
        assert ter(after).value >= ter(before).value - 1e-9


def test_score_all_names_and_directions():
    scores = score_all([EvalPair("a b c d", "a b c d")])
    assert [s.name for s in scores] == ["BLEU", "chrF++", "TER"]


@pytest.mark.parametrize("reference", ["", " ", "\t", "<skipped>"], ids=["empty", "space", "tab", "skipped"])
@pytest.mark.parametrize("metric", [bleu, chrf_pp, ter, score_all], ids=lambda f: f.__name__)
def test_reference_without_tokens_rejected(metric, reference):
    with pytest.raises(ArgumentError, match="pair 1: reference"):
        metric([EvalPair("a b", "a b"), EvalPair("a b", reference)])


def test_score_all_tokenizes_each_side_once(monkeypatch):
    calls = []
    real = mt_metrics.tokenize_13a
    monkeypatch.setattr(mt_metrics, "tokenize_13a", lambda line: calls.append(line) or real(line))
    pairs = load_fixture()
    score_all(pairs)
    assert len(calls) == 2 * len(pairs)


@st.composite
def _hypothesis_lists(draw):
    """References and 1-4 lists of hypotheses for them, each empty, a sentence or the reference."""
    refs = draw(st.lists(_sentence(1).filter(tokenize_13a), min_size=1, max_size=6))
    hyp = lambda ref: st.one_of(st.just(""), _sentence(0), st.just(ref))
    return refs, draw(st.lists(st.tuples(*map(hyp, refs)), min_size=1, max_size=4))


class TestSharedReferences:
    @settings(max_examples=100, deadline=None)
    @given(_hypothesis_lists())
    def test_shared_references_score_as_fresh_ones(self, case):
        refs, hyp_lists = case
        shared = References(refs)
        for hyps in hyp_lists:
            pairs = [EvalPair(hyp, ref) for hyp, ref in zip(hyps, refs)]
            scores = score_all(pairs, shared)
            assert scores == score_all(pairs, References(refs)) == score_all(pairs)
            assert scores == [bleu(pairs, shared), chrf_pp(pairs, shared), ter(pairs, shared)]

    def test_tables_are_read_only(self):
        refs = References(["a b c", "d e"])
        for table in (refs.bleu_grams, refs.char_grams, refs.word_grams):
            assert isinstance(table.keys, tuple) and isinstance(table.counts, tuple)
            for array in table.keys + table.counts:
                assert not array.flags.writeable
            with pytest.raises(ValueError):
                table.counts[0][0] = 0

    @pytest.mark.parametrize("metric", [bleu, chrf_pp, ter, score_all], ids=lambda f: f.__name__)
    def test_references_of_other_pairs_rejected(self, metric):
        refs = References(["a b", "c d"])
        for pairs in ([EvalPair("a b", "c d"), EvalPair("c d", "a b")], [EvalPair("a b", "a b")]):
            with pytest.raises(ArgumentError, match="references must hold the pairs' references in order"):
                metric(pairs, refs)

    def test_scoring_tokenizes_only_hypotheses(self, monkeypatch):
        pairs = load_fixture()
        refs = References([pair.reference for pair in pairs])
        calls = []
        real = mt_metrics.tokenize_13a
        monkeypatch.setattr(mt_metrics, "tokenize_13a", lambda line: calls.append(line) or real(line))
        score_all(pairs, refs)
        assert calls == [pair.hypothesis for pair in pairs]


# -- frozen per-pair scorers and the independent reference script -------------------

_WORDS = st.one_of(
    st.text("aeiouáéñüİıßxyz𝔘😀0123456789,.-!?'\"&<>()", min_size=1, max_size=8),
    st.sampled_from(["1,200", "3.5", "5-mg", "-", "&amp;", "<skipped>", "İstanbul", "naïve"]),
)


@st.composite
def _sentence(draw, min_words):
    words = draw(st.lists(_WORDS, min_size=min_words, max_size=12))
    return "".join(w + draw(st.sampled_from([" ", "  ", "\t"])) for w in words).strip()


@st.composite
def _corpora(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        ref = draw(_sentence(1).filter(tokenize_13a))
        hyp = draw(st.one_of(st.just(""), _sentence(0), st.just(ref)))
        pairs.append((hyp, ref))
    return pairs


@st.composite
def _repetitive_corpora(draw):
    """Up to 40 pairs over a 3-5 letter alphabet, so most grams recur in other pairs."""
    alphabet = "abcde"[: draw(st.integers(3, 5))]
    word = st.text(alphabet, min_size=1, max_size=3)
    sentence = st.lists(word, max_size=8).map(" ".join)
    refs = st.lists(word, min_size=1, max_size=8).map(" ".join)
    return draw(st.lists(st.tuples(sentence, refs), min_size=1, max_size=40))


def _assert_equal_frozen_scorers(corpus):
    pairs = [EvalPair(hyp, ref) for hyp, ref in corpus]
    assert bleu(pairs).value == bleu_reference(corpus)
    assert chrf_pp(pairs).value == chrf_pp_reference(corpus)


def _summed_ref_stats(sides, orders):
    """``oracles._ref_ngram_stats`` of each pair, summed per order."""
    return [[sum(col) for col in zip(*(_ref_ngram_stats(hyp, ref, n) for hyp, ref in sides))] for n in orders]


class TestFrozenScorers:
    @settings(max_examples=200, deadline=None)
    @given(_corpora())
    def test_bleu_and_chrf_pp_equal_frozen_per_pair_scorers(self, corpus):
        _assert_equal_frozen_scorers(corpus)

    @settings(max_examples=150, deadline=None)
    @given(_repetitive_corpora())
    def test_grams_shared_across_pairs(self, corpus):
        _assert_equal_frozen_scorers(corpus)

    @pytest.mark.parametrize(
        "corpus",
        [
            # each hypothesis matches only the other pair's reference
            [("a b c d", "e f g h"), ("e f g h", "a b c d")],
            [("a\ud800b c", "a\ud800b c d"), ("\ud800", "x \ud800")],
            [("\ud83d\ude00 b", "\U0001f600 b"), ("\udfff\ud800", "\ud800\udfff")],
            [("𝔘😀 x𝔘", "𝔘😀 x𝔘 y"), ("😀😀😀", "😀😀 😀")],
            [("", "a b c"), ("", "d")],
            [("a b", "a b c d e"), ("c", "c c"), ("ab", "ab ab")],
        ],
        ids=["grams-of-the-other-pair", "lone-surrogate", "surrogate-pair-halves", "astral", "all-empty-hypotheses",
             "shorter-than-order"],
    )
    def test_edge_corpora_equal_per_pair_oracle(self, corpus):
        pairs = [EvalPair(hyp, ref) for hyp, ref in corpus]
        words = [(tuple(hyp.split()), tuple(ref.split())) for hyp, ref in corpus]
        chars = [("".join(hyp), "".join(ref)) for hyp, ref in words]
        ref_tokens = References([ref for _, ref in corpus]).tokens
        for sides, orders in (
            (list(zip([pair.tokens for pair in pairs], ref_tokens)), range(1, 5)),
            (chars, range(1, 7)),
            (words, range(1, 3)),
        ):
            hyps, refs = zip(*sides)
            assert mt_metrics._GramTable(refs, orders[-1]).stats(hyps) == _summed_ref_stats(sides, orders)
        _assert_equal_frozen_scorers(corpus)

    def test_independent_reference_script_reproduces_frozen_values(self):
        script = Path(__file__).parents[1] / "scripts" / "metric_reference.py"
        done = subprocess.run(
            [sys.executable, str(script), str(DATA / "metrics_fixture.tsv")],
            capture_output=True, text=True, encoding="utf-8", check=True,
        )
        assert done.stdout == (DATA / "metrics_expected.json").read_text(encoding="utf-8")
