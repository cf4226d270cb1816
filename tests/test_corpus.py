from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt.corpus import (
    DatasetSplit,
    ParallelCorpus,
    SegmentPair,
    filter_corpus,
    load_any,
    load_corpus,
    load_corpus_jsonl,
    pair_keys,
    split_corpus,
    word_count,
    write_jsonl_corpus,
    write_tsv,
)
from fuzzymt.errors import AlignmentError, CorpusEncodingError, DataError, SizeError


def _pairs(rows):
    return [SegmentPair(id=i, source=s, target=t) for i, (s, t) in enumerate(rows)]


class TestLoadCorpus:
    def test_two_parallel_files(self, tmp_path):
        src = tmp_path / "es.txt"
        tgt = tmp_path / "en.txt"
        src.write_text("hola\nadios\ngracias\n", encoding="utf-8")
        tgt.write_text("hello\ngoodbye\nthanks\n", encoding="utf-8")
        corpus = load_corpus(src, tgt)
        assert [p.id for p in corpus.pairs] == [0, 1, 2]
        assert corpus.pairs[1] == SegmentPair(1, "adios", "goodbye")

    def test_line_count_mismatch(self, tmp_path):
        src = tmp_path / "es.txt"
        tgt = tmp_path / "en.txt"
        src.write_text("a\nb\nc\nd\n", encoding="utf-8")
        tgt.write_text("1\n2\n3\n", encoding="utf-8")
        with pytest.raises(AlignmentError):
            load_corpus(src, tgt)

    def test_empty_files(self, tmp_path):
        src = tmp_path / "es.txt"
        tgt = tmp_path / "en.txt"
        src.write_text("", encoding="utf-8")
        tgt.write_text("", encoding="utf-8")
        assert len(load_corpus(src, tgt)) == 0

    def test_tsv_single_file(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("hola\thello\nadios\tgoodbye\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.pairs[0].target == "hello"

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_load_as_lf(self, eol, tmp_path):
        rows = [("hola mundo", "hello world"), ("adios", "goodbye")]
        for name, newline in (("lf", "\n"), ("other", eol)):
            for side, column in (("es", 0), ("en", 1)):
                (tmp_path / f"{name}.{side}").write_text("".join(r[column] + newline for r in rows), encoding="utf-8")
            (tmp_path / f"{name}.tsv").write_text("".join(f"{s}\t{t}{newline}" for s, t in rows), encoding="utf-8")
        lf = load_corpus(tmp_path / "lf.es", tmp_path / "lf.en")
        assert lf.pairs == _pairs(rows)
        assert load_corpus(tmp_path / "other.es", tmp_path / "other.en") == lf
        assert load_corpus(tmp_path / "other.tsv") == load_corpus(tmp_path / "lf.tsv") == lf

    def test_tsv_bad_column_count(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("only one column\n", encoding="utf-8")
        with pytest.raises(AlignmentError):
            load_corpus(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe bad bytes\n")
        with pytest.raises(CorpusEncodingError):
            load_corpus(path, path)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_names_its_line(self, eol, tmp_path):
        (tmp_path / "es.txt").write_bytes(eol.join([b"a", b"b", b"\xff", b""]))
        (tmp_path / "en.txt").write_bytes(eol.join([b"a", b"b", b"c", b""]))
        (tmp_path / "c.tsv").write_bytes(eol.join([b"a\tx", b"b\ty", b"\xff\tz", b""]))
        for spec, bad in ((f"{tmp_path / 'es.txt'},{tmp_path / 'en.txt'}", "es.txt"), (str(tmp_path / "c.tsv"), "c.tsv")):
            with pytest.raises(CorpusEncodingError, match=re.escape(f"{bad}:3: not valid UTF-8")):
                load_any(spec)

    def test_jsonl_round_trip(self, tmp_path):
        corpus = ParallelCorpus(_pairs([("a b", "x y"), ('q"uote', "z")]))
        path = tmp_path / "c.jsonl"
        write_jsonl_corpus(corpus, path)
        loaded = load_corpus_jsonl(path)
        assert loaded.pairs == corpus.pairs

    @pytest.mark.parametrize(
        "lines, message",
        [
            # a record without an id takes its record index (an explicit repeat is a BAD_RECORD case in test_cli)
            (['{"source": "a", "target": "b"}', "", '{"id": 0, "source": "c", "target": "d"}'],
             "c.jsonl:3: repeated id 0 (first on line 1)"),
            (['{"id": 1, "source": "a", "target": "b"}', '{"id": null, "source": "c", "target": "d"}'],
             "c.jsonl:2: repeated id 1 (first on line 1)"),
        ],
        ids=["implicit-first", "implicit-second"],
    )
    def test_jsonl_repeated_id_rejected(self, lines, message, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(message)):
            load_corpus_jsonl(path)

    def test_load_any_dispatch(self, tmp_path):
        src = tmp_path / "es.txt"
        tgt = tmp_path / "en.txt"
        src.write_text("uno\n", encoding="utf-8")
        tgt.write_text("one\n", encoding="utf-8")
        assert len(load_any(f"{src},{tgt}")) == 1
        tsv = tmp_path / "c.tsv"
        write_tsv(ParallelCorpus(_pairs([("a", "b")])), tsv)
        assert len(load_any(str(tsv))) == 1


class TestFilterCorpus:
    def test_removes_exact_duplicates(self):
        corpus = ParallelCorpus(_pairs([("a", "b"), ("c", "d"), ("a", "b"), ("e", "f")]))
        filtered = filter_corpus(corpus)
        assert len(filtered) == 3
        assert [p.source for p in filtered.pairs] == ["a", "c", "e"]

    def test_trailing_whitespace_counts_as_duplicate(self):
        corpus = ParallelCorpus(_pairs([("a", "b"), ("a ", "b  ")]))
        assert len(filter_corpus(corpus)) == 1

    def test_over_length_excluded_at_boundary(self):
        ok = " ".join(["w"] * 70)
        too_long = " ".join(["w"] * 71)
        corpus = ParallelCorpus(_pairs([(ok, "t"), (too_long, "t2"), ("s", too_long)]))
        filtered = filter_corpus(corpus, max_words=70)
        assert [p.source for p in filtered.pairs] == [ok]

    def test_empty_sides_removed(self):
        corpus = ParallelCorpus(_pairs([("", "t"), ("s", ""), ("  ", "t"), ("s2", "t2")]))
        assert [p.source for p in filter_corpus(corpus).pairs] == ["s2"]

    def test_word_count_is_whitespace_runs(self):
        assert word_count("a  b\tc") == 3
        assert word_count("") == 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text("ab ", max_size=8), st.text("xy ", max_size=8)),
            max_size=20,
        ),
        st.integers(1, 5),
    )
    def test_idempotent_and_complete(self, rows, max_words):
        corpus = ParallelCorpus(_pairs(rows))
        once = filter_corpus(corpus, max_words=max_words)
        twice = filter_corpus(once, max_words=max_words)
        assert once.pairs == twice.pairs
        original = set(corpus.pairs)
        kept = set(once.pairs)
        assert kept <= original
        # every dropped pair has a nameable reason
        seen = set()
        for pair in corpus.pairs:
            key = (pair.source.rstrip(), pair.target.rstrip())
            if pair in kept:
                seen.add(key)
                continue
            duplicate = key in seen
            empty = not pair.source.strip() or not pair.target.strip()
            over = word_count(pair.source) > max_words or word_count(pair.target) > max_words
            assert duplicate or empty or over
            seen.add(key)


class TestSplitCorpus:
    def test_paper_scale_counts(self):
        pairs = [SegmentPair(i, f"s{i}", f"t{i}") for i in range(20_000)]
        split = split_corpus(ParallelCorpus(pairs), validation_size=1_000, seed=42)
        assert len(split.train) == 19_000
        assert len(split.validation) == 1_000

    def test_deterministic(self):
        corpus = ParallelCorpus(_pairs([(f"s{i}", f"t{i}") for i in range(50)]))
        a = split_corpus(corpus, 10, seed=7)
        b = split_corpus(corpus, 10, seed=7)
        assert a.train.pairs == b.train.pairs
        assert a.validation.pairs == b.validation.pairs

    def test_zero_validation(self):
        corpus = ParallelCorpus(_pairs([("a", "b"), ("c", "d")]))
        split = split_corpus(corpus, 0, seed=0)
        assert split.train.pairs == corpus.pairs
        assert split.validation.pairs == []

    def test_validation_too_large(self):
        corpus = ParallelCorpus(_pairs([("a", "b")]))
        with pytest.raises(SizeError):
            split_corpus(corpus, 1, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 39), st.integers(0, 2**31))
    def test_partition_exact(self, n, validation_size, seed):
        if validation_size >= n:
            validation_size = n - 1
        corpus = ParallelCorpus(_pairs([(f"s{i}", f"t{i}") for i in range(n)]))
        split = split_corpus(corpus, validation_size, seed)
        assert len(split.train) + len(split.validation) == n
        train_ids = {p.id for p in split.train.pairs}
        val_ids = {p.id for p in split.validation.pairs}
        assert not (train_ids & val_ids)
        assert train_ids | val_ids == {p.id for p in corpus.pairs}


def test_pair_keys_trims_trailing_whitespace():
    corpus = ParallelCorpus(_pairs([("a ", "b\t")]))
    assert pair_keys(corpus) == {("a", "b")}
