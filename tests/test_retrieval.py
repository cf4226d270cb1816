from __future__ import annotations

import json
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt import retrieval
from fuzzymt.ann_index import IvfConfig
from fuzzymt.corpus import ParallelCorpus, read_jsonl
from fuzzymt.embedding import EmbeddingProviderConfig
from fuzzymt.errors import ArgumentError, SizeError, StateError, StoreError
from fuzzymt.retrieval import (
    ContextStore,
    build_context_store,
    retrieve_fuzzy_many,
    write_retrieval_dump,
)

from conftest import synth_corpus


@pytest.fixture
def store(small_corpus, det_provider, small_ivf):
    return build_context_store(small_corpus, det_provider, small_ivf)


@pytest.fixture
def ivf_path(monkeypatch):
    """Every store built in the test takes the IVF path, however small its corpus."""
    monkeypatch.setattr(retrieval, "FLAT_MAX_ROWS", 0)


@pytest.fixture
def ivf_store(ivf_path, small_corpus, det_provider, small_ivf):
    return build_context_store(small_corpus, det_provider, small_ivf)


def ranked(store, sources, k):
    return [[(m.pair.id, m.score) for m in ms] for ms in retrieve_fuzzy_many(store, sources, k=k)]


class TestBuildContextStore:
    def test_size_matches_corpus(self, store, small_corpus):
        assert store.index.size == len(small_corpus)
        assert sorted(store.index.ids) == small_corpus.ids()

    def test_small_corpus_small_nlist(self, det_provider):
        corpus = synth_corpus(10, seed=1)
        cfg = IvfConfig(dim=64, nlist=2, nprobe=2, kmeans_iters=4, seed=0)
        assert len(build_context_store(corpus, det_provider, cfg)) == 10

    def test_empty_corpus_rejected(self, det_provider, small_ivf):
        with pytest.raises(SizeError):
            build_context_store(ParallelCorpus([]), det_provider, small_ivf)

    def test_corpus_smaller_than_nlist(self, det_provider, ivf_path):
        corpus = synth_corpus(3, seed=1)
        cfg = IvfConfig(dim=64, nlist=8, nprobe=1, kmeans_iters=4, seed=0)
        with pytest.raises(SizeError):
            build_context_store(corpus, det_provider, cfg)

    def test_store_index_rejects_add(self, store):
        with pytest.raises(StateError):
            store.index.add([(-1, store.index.centroids[0])])


@pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
class TestFlatBelowCrossover:
    def test_small_corpus_is_flat_whatever_nlist(self, store, small_corpus):
        assert (store.index.config.nlist, store.index.config.nprobe) == (1, 1)
        assert store.index.list_lengths() == [len(small_corpus)]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        nlist=st.integers(2, 6),
        metric=st.sampled_from(["cosine", "l2"]),
        k=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    def test_same_hits_as_ivf_at_full_nprobe(self, n, nlist, metric, k, seed):
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=32, seed=seed)
        corpus = synth_corpus(n, seed=seed)
        nlist = min(nlist, n)
        cfg = IvfConfig(dim=32, nlist=nlist, nprobe=nlist, metric=metric, kmeans_iters=4, seed=seed)
        queries = corpus.sources()[:5] + synth_corpus(5, seed=seed + 1).sources()
        flat = build_context_store(corpus, provider, cfg)
        with mock.patch.object(retrieval, "FLAT_MAX_ROWS", 0):
            ivf = build_context_store(corpus, provider, cfg)
        assert (flat.index.config.nlist, ivf.index.config.nlist) == (1, nlist)
        # the same ids and bit-equal scores
        assert ranked(flat, queries, k) == ranked(ivf, queries, k)


class TestSaveLoad:
    @pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
    def test_round_trip_keeps_build_config_and_matches(self, tmp_path, ivf_store, small_corpus, det_provider):
        store = ivf_store
        store.save(tmp_path / "store")
        loaded = ContextStore.load(tmp_path / "store", det_provider, nprobe=store.index.config.nprobe)
        with pytest.raises(StateError):
            loaded.index.add([(-1, loaded.index.centroids[0])])
        assert loaded.corpus.pairs == small_corpus.pairs
        assert loaded.index.config == store.index.config
        assert ranked(loaded, small_corpus.sources(), 3) == ranked(store, small_corpus.sources(), 3)
        assert ContextStore.load(tmp_path / "store", det_provider, nprobe=99).index.config.nprobe == 2

    def test_flat_round_trip_clamps_nprobe_to_one(self, tmp_path, store, small_corpus, det_provider):
        store.save(tmp_path / "store")
        meta = json.loads((tmp_path / "store" / "store.json").read_text(encoding="utf-8"))
        assert meta["ivf"]["nlist"] == 1
        loaded = ContextStore.load(tmp_path / "store", det_provider, nprobe=32)
        assert loaded.index.config == store.index.config
        assert loaded.index.config.nprobe == 1
        assert loaded.index.list_lengths() == [len(small_corpus)]
        assert ranked(loaded, small_corpus.sources(), 3) == ranked(store, small_corpus.sources(), 3)

    def test_first_differing_provider_field_named(self, tmp_path, store, det_provider):
        store.save(tmp_path / "store")
        other = replace(det_provider, dim=32, seed=5)
        with pytest.raises(StoreError, match="provider dim=64, queries would use dim=32"):
            ContextStore.load(tmp_path / "store", other, nprobe=1)

    def test_malformed_metadata(self, tmp_path, store, det_provider):
        store.save(tmp_path / "store")
        meta_path = tmp_path / "store" / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["sha256"]["index.ivf"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(StoreError, match="malformed store metadata"):
            ContextStore.load(tmp_path / "store", det_provider, nprobe=1)

    @pytest.mark.parametrize("key, value", [("nlist", 0), ("seed", -3), ("kmeans_iters", "x")])
    def test_bad_ivf_value_names_store_json_and_key(self, tmp_path, store, det_provider, key, value):
        store.save(tmp_path / "store")
        meta_path = tmp_path / "store" / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["ivf"][key] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(StoreError, match=rf"store\.json: malformed store metadata \(.*{key}"):
            ContextStore.load(tmp_path / "store", det_provider, nprobe=1)

    def test_index_header_must_match_metadata(self, tmp_path, store, det_provider):
        store.save(tmp_path / "store")
        meta_path = tmp_path / "store" / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["ivf"]["metric"] = "l2"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(StoreError, match="does not match store.json"):
            ContextStore.load(tmp_path / "store", det_provider, nprobe=1)


def retrieve_one(store, source, k):
    """The matches of one source segment through the batched lookup."""
    return retrieve_fuzzy_many(store, [source], k=k)[0]


class TestRetrieveFuzzy:
    def test_self_retrieval(self, store, small_corpus):
        sources = [pair.source for pair in small_corpus.pairs[:5]]
        for source, matches in zip(sources, retrieve_fuzzy_many(store, sources, k=1)):
            assert matches[0].pair.source == source
            assert matches[0].score == pytest.approx(1.0, abs=1e-6)

    def test_k_one_returns_one(self, store):
        assert len(retrieve_one(store, "texto cualquiera", k=1)) == 1

    def test_truncated_not_padded(self, det_provider):
        corpus = synth_corpus(2, seed=5)
        cfg = IvfConfig(dim=64, nlist=1, nprobe=1, kmeans_iters=4, seed=0)
        store = build_context_store(corpus, det_provider, cfg)
        assert len(retrieve_one(store, "una consulta", k=3)) == 2

    def test_k_zero_rejected(self, store):
        with pytest.raises(ArgumentError):
            retrieve_fuzzy_many(store, ["texto"], k=0)

    def test_scores_non_increasing(self, store):
        matches = retrieve_one(store, "paciente dosis hospital", k=5)
        scores = [m.score for m in matches]
        assert scores == sorted(scores, reverse=True)

    def test_concurrent_identical_queries_identical(self, store):
        a = retrieve_one(store, "fiebre aguda", k=3)
        b = retrieve_one(store, "fiebre aguda", k=3)
        assert [(m.pair.id, m.score) for m in a] == [(m.pair.id, m.score) for m in b]

    def test_many_matches_single_order(self, store, small_corpus):
        sources = [p.source for p in small_corpus.pairs[:4]]
        many = retrieve_fuzzy_many(store, sources, k=2)
        for src, matches in zip(sources, many):
            single = retrieve_one(store, src, k=2)
            assert [(m.pair.id, m.score) for m in matches] == [
                (m.pair.id, m.score) for m in single
            ]


class TestRetrievalDump:
    def test_round_trip(self, tmp_path, store, small_corpus):
        sources = [p.source for p in small_corpus.pairs[:3]]
        many = retrieve_fuzzy_many(store, sources, k=2)
        path = tmp_path / "retrieval.jsonl"
        n = write_retrieval_dump(path, [10, 11, 12], many)
        assert n == 3
        records = read_jsonl(path)
        assert [r["query_id"] for r in records] == [10, 11, 12]
        assert records[0]["matches"][0]["context_id"] == many[0][0].pair.id
        assert records[0]["matches"][0]["source"] == many[0][0].pair.source

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ArgumentError):
            write_retrieval_dump(tmp_path / "x.jsonl", [1, 2], [[]])
