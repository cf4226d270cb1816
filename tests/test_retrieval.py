from __future__ import annotations

import json
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt import embedding, retrieval
from fuzzymt.ann_index import IvfConfig
from fuzzymt.corpus import ParallelCorpus, SegmentPair, read_jsonl
from fuzzymt.embedding import EmbeddingProviderConfig
from fuzzymt.errors import ArgumentError, CorpusEncodingError, SizeError, StateError, StoreError
from fuzzymt.llm_client import run_mock_server
from fuzzymt.retrieval import (
    ContextStore,
    build_context_store,
    retrieve_fuzzy_many,
    write_retrieval_dump,
)

from conftest import step_texts, synth_corpus
from oracles import deterministic_embed_reference


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
            store.index.add([-1], store.index.centroids[:1])


@pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
class TestFlatBelowCrossover:
    def test_small_corpus_is_flat_whatever_nlist(self, store, small_corpus):
        assert (store.index.config.nlist, store.index.config.nprobe) == (1, 1)
        assert store.index.list_lengths() == [len(small_corpus)]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        nlist=st.integers(2, 6),
        k=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    def test_same_hits_as_ivf_at_full_nprobe(self, n, nlist, k, seed):
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=32, seed=seed)
        corpus = synth_corpus(n, seed=seed)
        nlist = min(nlist, n)
        cfg = IvfConfig(dim=32, nlist=nlist, nprobe=nlist, kmeans_iters=4, seed=seed)
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
            loaded.index.add([-1], loaded.index.centroids[:1])
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

    def test_store_with_retired_keys_loads(self, tmp_path, store, small_corpus, det_provider):
        """A store.json that still records the one metric and the normalization loads as before."""
        store.save(tmp_path / "store")
        meta_path = tmp_path / "store" / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["ivf"]["metric"] = "cosine"
        meta["provider"]["normalize"] = True
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        loaded = ContextStore.load(tmp_path / "store", det_provider, nprobe=1)
        assert loaded.index.config == store.index.config
        assert ranked(loaded, small_corpus.sources(), 3) == ranked(store, small_corpus.sources(), 3)

    @pytest.mark.parametrize("block, key, value", [
        ("ivf", "metric", "l2"), ("provider", "normalize", False), ("provider", "normalize", 1),
    ], ids=["l2", "no-normalize", "int-normalize"])
    def test_retired_key_with_another_value_names_it(self, tmp_path, store, det_provider, block, key, value):
        store.save(tmp_path / "store")
        meta_path = tmp_path / "store" / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta[block][key] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(StoreError, match=rf"store\.json: malformed store metadata \(.*{block} key '{key}'"):
            ContextStore.load(tmp_path / "store", det_provider, nprobe=1)

    def test_metric_byte_other_than_cosine_rejected(self, tmp_path, store, det_provider):
        store.save(tmp_path / "store")
        index_path = tmp_path / "store" / "index.ivf"
        raw = bytearray(index_path.read_bytes())
        assert raw[12] == 1  # magic, dim and nlist come first
        raw[12] = 0
        index_path.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match=r"index\.ivf: metric byte 0, not 1 \(cosine\)"):
            ContextStore.load(tmp_path / "store", det_provider, nprobe=1)

    def test_index_header_must_match_metadata(self, tmp_path, store, det_provider):
        store.save(tmp_path / "store")
        meta_path = tmp_path / "store" / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["ivf"]["dim"] = 32
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

    @pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
    def test_probed_lists_shorter_than_k_truncated(self, ivf_path, small_corpus, det_provider, small_ivf):
        store = build_context_store(small_corpus, det_provider, replace(small_ivf, nprobe=1))
        # no list holds k rows, so every query at nprobe 1 is padded
        k = max(store.index.list_lengths()) + 1
        sources = small_corpus.sources()
        ids, scores = store.index.search_many(embedding.embed_batch(sources, det_provider), k)
        assert ids.shape == (len(sources), k)
        assert (ids[:, -1] == -1).all() and (scores[:, -1] == -np.inf).all()
        unpadded = [[(i, s) for i, s in zip(row_ids, row_scores) if s > -np.inf]
                    for row_ids, row_scores in zip(ids.tolist(), scores.tolist())]
        assert ranked(store, sources, k) == unpadded
        assert all(0 < len(hits) < k for hits in unpadded)

    def test_corpus_id_minus_one_is_a_hit(self, det_provider):
        corpus = ParallelCorpus([SegmentPair(id=-1, source="hola mundo", target="hello world"),
                                 SegmentPair(id=3, source="adiós amigo", target="goodbye friend")])
        store = build_context_store(corpus, det_provider, IvfConfig(dim=64, nlist=1, nprobe=1))
        matches = retrieve_one(store, "hola mundo", k=2)
        assert [m.pair.id for m in matches] == [-1, 3]
        assert matches[0].pair.target == "hello world"
        assert matches[0].score == pytest.approx(1.0, abs=1e-6)

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


def pairs_of(sources):
    return ParallelCorpus([SegmentPair(id=i, source=s, target=s) for i, s in enumerate(sources)])


# accented and plain letters, a letter whose lowercase is longer (İ -> i̇)
# and an astral character, so that grams repeat across corpus and queries
_ACCENTED = st.text(st.sampled_from("abcİıßñéáü \U0001F600"), max_size=16) | st.text(max_size=24)

_CONTEXT = [
    "El paciente presenta una mejoría notable tras el tratamiento.",
    "La dosis recomendada es de dos comprimidos al día.",
    "Consulte a su médico antes de interrumpir la medicación.",
    "Conservar en lugar fresco y seco, lejos de la luz.",
]
# the most texts of _CONTEXT that a step at dim 64 holds
_CONTEXT_STEP = step_texts(min(map(len, _CONTEXT)), 64)
_NEAR = ["El paciente presenta una mejoría leve tras la cirugía.", "La dosis máxima es de tres comprimidos al día."]


class TestStoreGrams:
    """A store's queries are embedded as any text is, whatever corpus it was built from."""

    @pytest.fixture
    def built(self):
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=64, seed=7)
        return build_context_store(pairs_of(_CONTEXT), provider, IvfConfig(dim=64, nlist=1, nprobe=1))

    @settings(max_examples=40, deadline=None)
    @given(
        context=st.lists(_ACCENTED, min_size=1, max_size=69),
        queries=st.lists(_ACCENTED, min_size=1, max_size=69),
        picks=st.lists(st.integers(0, 10**6), max_size=64),
        dim=st.sampled_from([1, 7, 64]),
        seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        # from one text a step to steps of dozens of short texts
        step_bytes=st.integers(1, 20_000),
    )
    def test_query_rows_match_reference(self, context, queries, picks, dim, seed, step_bytes):
        # corpus texts, and corpus texts with a query text appended, among the queries
        queries = queries + [context[p % len(context)] + queries[p % len(queries)][: p % 5] for p in picks]
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=dim, seed=seed)
        expected = np.stack([deterministic_embed_reference(t, dim, seed) for t in queries])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_STEP_BYTES", step_bytes)
            assert embedding.embed_batch(queries, provider).tobytes() == expected.tobytes()

    def test_wide_alphabet_query_rows_match_reference(self):
        pool = [chr(c) for c in [*range(0x4E00, 0xA000), *range(0x20000, 0x30000)]]
        random.Random(1).shuffle(pool)
        per_step = step_texts(200, 384)
        context = ["".join(pool[i : i + 200]) for i in range(0, 2 * per_step * 200, 200)]
        # every other query is a corpus text with one character changed, so
        # corpus grams and new ones meet in every step, across three steps
        queries = [t[:100] + pool[-1 - i] + t[101:] if i % 2 else t for i, t in enumerate(context + context[:per_step])]
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=384, seed=9)
        expected = np.stack([deterministic_embed_reference(t, 384, 9) for t in queries])
        assert embedding.embed_batch(queries, provider).tobytes() == expected.tobytes()

    def test_remote_store_sends_every_query(self):
        def sent(server):
            return [t for r in server.state.request_log if r["path"] == "/v1/embeddings" for t in r["payload"]["input"]]

        with run_mock_server("echo-fuzzy", embed_dim=16, embed_seed=7) as server:
            provider = EmbeddingProviderConfig(kind="remote-http", endpoint=server.endpoint + "/v1/embeddings", dim=16)
            store = build_context_store(pairs_of(_CONTEXT), provider, IvfConfig(dim=16, nlist=1, nprobe=1))
            assert sent(server) == _CONTEXT
            retrieve_fuzzy_many(store, _CONTEXT + _NEAR, k=1)
            assert sent(server) == _CONTEXT + _CONTEXT + _NEAR

    @pytest.mark.parametrize("queries, index", [
        (["uno", "dos\ud800"], 1), (_CONTEXT * (_CONTEXT_STEP // 4) + _NEAR + ["x\udc00"], 4 * (_CONTEXT_STEP // 4) + 2),
    ], ids=["first-step", "later-step"])
    def test_lone_surrogate_names_query(self, built, queries, index):
        with pytest.raises(CorpusEncodingError, match=f"text {index} holds a lone surrogate"):
            retrieve_fuzzy_many(built, queries, k=1)

