from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt import _http, embedding
from fuzzymt.embedding import NGRAM_SIZES, EmbeddingProviderConfig, embed_batch
from fuzzymt.errors import ArgumentError, ContractViolationError, CorpusEncodingError, ProviderError
from fuzzymt.llm_client import run_mock_server

from conftest import local_endpoint, step_texts
from oracles import deterministic_embed_reference


def _cos(a, b):
    return float(np.dot(a, b))


def embed_one(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """One text through the batched provider."""
    cfg = EmbeddingProviderConfig(kind="deterministic-test", dim=dim, seed=seed)
    return embed_batch([text], cfg)[0]


class TestDeterministicEmbed:
    def test_bit_identical_across_calls(self):
        a = embed_one("el paciente mejora", 384, seed=0)
        b = embed_one("el paciente mejora", 384, seed=0)
        assert a.tobytes() == b.tobytes()

    def test_default_dim_length(self):
        assert embed_one("cualquier texto", 384, seed=0).shape == (384,)

    def test_unit_norm(self):
        vec = embed_one("una frase moderada", 384, seed=1)
        assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-6

    def test_ngram_overlap_orders_cosine(self):
        base = embed_one("abcdefgh", 384, seed=0)
        near = embed_one("abcdefgx", 384, seed=0)
        far = embed_one("zzzzzzzz", 384, seed=0)
        assert _cos(base, near) > _cos(base, far)

    def test_identical_texts_cosine_one(self):
        a = embed_one("misma frase", 64, seed=5)
        b = embed_one("misma frase", 64, seed=5)
        assert _cos(a, b) == pytest.approx(1.0, abs=1e-6)

    def test_empty_text_is_basis_vector(self):
        vec = embed_one("", 16, seed=0)
        expected = np.zeros(16, dtype=np.float32)
        expected[0] = 1.0
        assert np.array_equal(vec, expected)

    def test_too_short_text_is_basis_vector(self):
        vec = embed_one("ab", 16, seed=0)
        assert vec[0] == 1.0 and float(np.linalg.norm(vec)) == 1.0

    def test_seed_changes_vector(self):
        a = embed_one("texto", 64, seed=0)
        b = embed_one("texto", 64, seed=1)
        assert not np.array_equal(a, b)

    def test_bad_dim(self):
        with pytest.raises(ArgumentError):
            embed_one("x", 0, seed=0)


# empty and too-short texts, a letter whose lowercase is longer (İ -> i̇),
# astral characters, and a small alphabet so that grams repeat within and
# across the texts of one batch
_ORACLE_TEXTS = st.text(st.sampled_from("abcİıß ñé\U0001F600\U00010400"), max_size=12) | st.text(max_size=30)


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(_ORACLE_TEXTS, min_size=1, max_size=131),
        dim=st.sampled_from([1, 2, 7, 384]),
        seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        # from one text a step to steps of dozens of short texts
        step_bytes=st.integers(1, 40_000),
    )
    def test_batch_bytes_match_frozen_per_text(self, texts, dim, seed, step_bytes):
        cfg = EmbeddingProviderConfig(kind="deterministic-test", dim=dim, seed=seed)
        expected = np.stack([deterministic_embed_reference(t, dim, seed) for t in texts])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_STEP_BYTES", step_bytes)
            assert embed_batch(texts, cfg).tobytes() == expected.tobytes()

    def test_cancelling_rows_take_basis_vector(self):
        # at dim 1 every gram lands in bucket 0; a 5-character text has six
        # grams, which cancel for about a third of these texts (C(6,3)/2^6)
        cfg = EmbeddingProviderConfig(kind="deterministic-test", dim=1, seed=0)
        texts = [f"ab{i:03d}" for i in range(200)]
        expected = np.stack([deterministic_embed_reference(t, 1, 0) for t in texts])
        assert embed_batch(texts, cfg).tobytes() == expected.tobytes()

    def test_rows_cross_chunk_boundary(self, det_provider):
        per_step = step_texts(len("segmento número 0 del lote"), det_provider.dim)
        texts = [f"segmento número {i} del lote" for i in range(2 * per_step + 1)]
        assert len(list(embedding._steps(texts, det_provider.dim))) >= 3
        expected = np.stack([deterministic_embed_reference(t, det_provider.dim, det_provider.seed) for t in texts])
        assert embed_batch(texts, det_provider).tobytes() == expected.tobytes()


class _CountingBlake2b:
    """Stands in for ``hashlib``: its keyed hashers count their copies."""

    def __init__(self, real):
        self.real = real
        self.copies = 0

    def blake2b(self, **kwargs):
        counter, real = self, self.real.blake2b(**kwargs)

        class Keyed:
            def copy(self):
                counter.copies += 1
                return real.copy()

        return Keyed()


_SENTENCES = [
    "El paciente presenta una mejoría notable tras el tratamiento.",
    "La dosis recomendada es de dos comprimidos al día.",
    "Consulte a su médico antes de interrumpir la medicación.",
    "No se han descrito interacciones con otros fármacos.",
    "Conservar en lugar fresco y seco, lejos de la luz.",
    "Los efectos adversos más frecuentes son leves y pasajeros.",
    "Este medicamento no requiere condiciones especiales de conservación.",
    "Mantener fuera de la vista y del alcance de los niños.",
]


class TestCallWideTable:
    def test_wide_alphabet_several_chunks(self):
        # more than 2**16 distinct code points: four or five of them would
        # not fit a uint64 packed side by side
        pool = [chr(c) for c in [*range(0x4E00, 0xA000), *range(0x20000, 0x30000)]]
        random.Random(0).shuffle(pool)
        per_step = step_texts(260, 384)
        texts = ["".join(pool[i : i + 260]) for i in range(0, 5 * per_step * 260, 260)]
        texts += texts[:per_step]  # a sixth step of grams already in the table
        # two 3-grams, five steps apart, with one key if code points had 16 bits each
        texts[0] += "\u4e00\U00020005\u4e10"
        texts[-1] += "\u4e01\U00010005\u4e10"
        assert len(set("".join(texts))) > 2**16
        cfg = EmbeddingProviderConfig(kind="deterministic-test", dim=384, seed=9)
        expected = np.stack([deterministic_embed_reference(t, 384, 9) for t in texts])
        assert embed_batch(texts, cfg).tobytes() == expected.tobytes()

    def test_each_distinct_gram_hashed_once_per_call(self, monkeypatch):
        counting = _CountingBlake2b(embedding.hashlib)
        monkeypatch.setattr(embedding, "hashlib", counting)
        texts = _SENTENCES[:3] * 200
        embed_batch(texts, EmbeddingProviderConfig(kind="deterministic-test"))
        distinct = {t.lower()[i : i + n] for t in texts for n in NGRAM_SIZES for i in range(len(t) - n + 1)}
        assert counting.copies == len(distinct)

    def test_memory_beyond_output_follows_distinct_grams(self):
        def peak_beyond_output(count):
            texts = [_SENTENCES[i % len(_SENTENCES)] for i in range(count)]
            cfg = EmbeddingProviderConfig(kind="deterministic-test")
            tracemalloc.start()
            try:
                matrix = embed_batch(texts, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - matrix.nbytes

        per_step = step_texts(min(map(len, _SENTENCES)), EmbeddingProviderConfig().dim)
        assert peak_beyond_output(64 * per_step) <= 2 * peak_beyond_output(per_step)


_WORDS = " ".join(_SENTENCES).split()


class TestSteps:
    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 3000), min_size=1, max_size=300),
        dim=st.sampled_from([1, 64, 384]),
        step_bytes=st.integers(1, 1 << 20),
    )
    def test_steps_cover_texts_within_the_bound(self, lengths, dim, step_bytes):
        texts = ["x" * n for n in lengths]
        cost = [n * embedding._POINT_BYTES + 8 * dim for n in lengths]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_STEP_BYTES", step_bytes)
            steps = list(embedding._steps(texts, dim))
        assert [start for start, _ in steps] == [0] + [stop for _, stop in steps[:-1]]
        assert steps[-1][1] == len(texts)
        for start, stop in steps:
            # a step of more than one text fits the bound, and the next text would not have
            assert stop - start == 1 or sum(cost[start:stop]) <= step_bytes
            assert stop == len(texts) or sum(cost[start : stop + 1]) > step_bytes

    @pytest.mark.parametrize(
        "texts",
        [[chr(0x61 + i % 26) for i in range(20_000)],
         [" ".join(_WORDS[(i + j) % len(_WORDS)] for j in range(40)) for i in range(2_000)]],
        ids=["one-character", "forty-words"],
    )
    def test_peak_beyond_output_within_step_bytes(self, texts):
        # one-character texts have no gram: only their rows bound a step
        tracemalloc.start()
        try:
            matrix = embed_batch(texts, EmbeddingProviderConfig(kind="deterministic-test"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - matrix.nbytes <= 1.25 * embedding._STEP_BYTES


_CLEAN_STEP = step_texts(len("texto limpio"), 64)  # the texts a step of det_provider holds


class TestLoneSurrogate:
    @pytest.mark.parametrize(
        "texts, index",
        [(["ab\ud800cd"], 0), (["\ud800"], 0), (["uno", "dos\udfff"], 1),
         (["texto limpio"] * (_CLEAN_STEP + 3) + ["x\udc00"], _CLEAN_STEP + 3)],
        ids=["inside", "alone", "second", "later-chunk"],
    )
    def test_typed_error_names_index(self, det_provider, texts, index):
        with pytest.raises(CorpusEncodingError, match=f"text {index} holds a lone surrogate"):
            embed_batch(texts, det_provider)

    def test_mock_answers_400_once(self, sleeps):
        with run_mock_server("echo-fuzzy", embed_dim=16) as server:
            cfg = EmbeddingProviderConfig(kind="remote-http", endpoint=server.endpoint + "/v1/embeddings", dim=16)
            with pytest.raises(ProviderError, match="attempts: 1") as err:
                embed_batch(["bien", "mal\ud800"], cfg)
            assert err.value.status == 400
            assert len(server.state.request_log) == 1
        assert sleeps == []

    def test_mock_answers_400_to_no_input(self):
        with run_mock_server("echo-fuzzy", embed_dim=16) as server:
            reply = _http.post_json(server.endpoint + "/v1/embeddings", {"input": []})
        assert reply.status == 400 and "non-empty" in reply.error


class TestEmbedBatch:
    def test_order_preservation(self, det_provider):
        texts = ["uno dos tres", "cuatro cinco", "seis siete ocho"]
        batch = embed_batch(texts, det_provider)
        for i, text in enumerate(texts):
            single = embed_batch([text], det_provider)
            assert batch[i].tobytes() == single[0].tobytes()

    def test_norm_contract(self, det_provider):
        batch = embed_batch(["a b c", "d e f g"], det_provider)
        norms = np.linalg.norm(batch, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)

    def test_empty_input_rejected(self, det_provider):
        with pytest.raises(ArgumentError):
            embed_batch([], det_provider)

    @settings(max_examples=30, deadline=None)
    @given(st.text(max_size=40))
    def test_batch_matches_single(self, text):
        cfg = EmbeddingProviderConfig(kind="deterministic-test", dim=32, seed=3)
        expected = deterministic_embed_reference(text, 32, 3)
        assert embed_batch([text], cfg)[0].tobytes() == expected.tobytes()


class TestRemoteProvider:
    def test_remote_matches_deterministic(self):
        with run_mock_server("echo-fuzzy", embed_dim=48, embed_seed=2) as server:
            cfg = EmbeddingProviderConfig(
                kind="remote-http",
                endpoint=server.endpoint + "/v1/embeddings",
                dim=48,
                seed=2,
                batch_size=2,
            )
            texts = ["hola mundo cruel", "otra frase distinta", "tercera frase"]
            remote = embed_batch(texts, cfg)
            local = np.stack([deterministic_embed_reference(t, 48, 2) for t in texts])
            assert np.allclose(remote, local, atol=1e-6)

    def test_dim_mismatch_is_contract_violation(self):
        with run_mock_server("echo-fuzzy", embed_dim=16, embed_seed=0) as server:
            cfg = EmbeddingProviderConfig(
                kind="remote-http",
                endpoint=server.endpoint + "/v1/embeddings",
                dim=32,
            )
            with pytest.raises(ContractViolationError):
                embed_batch(["texto"], cfg)

    def test_nan_component_is_contract_violation(self):
        body = b'{"data": [{"embedding": [0.6, 0.8]}, {"embedding": [NaN, 1.0]}]}'
        with local_endpoint([(200, body)]) as (endpoint, _):
            cfg = EmbeddingProviderConfig(
                kind="remote-http", endpoint=endpoint, dim=2
            )
            with pytest.raises(ContractViolationError, match="non-finite"):
                embed_batch(["uno", "dos"], cfg)

    def test_zero_row_fails_norm_contract(self):
        body = b'{"data": [{"embedding": [3.0, 4.0]}, {"embedding": [0.0, 0.0]}]}'
        with local_endpoint([(200, body)]) as (endpoint, _):
            cfg = EmbeddingProviderConfig(kind="remote-http", endpoint=endpoint, dim=2)
            with pytest.raises(ContractViolationError, match=r"vector norm 0\.0 outside"):
                embed_batch(["uno", "dos"], cfg)

    def test_http_error_after_retries(self):
        with run_mock_server("echo-fuzzy") as server:
            cfg = EmbeddingProviderConfig(
                kind="remote-http",
                endpoint=server.endpoint + "/wrong/path",
                dim=16,
            )
            with pytest.raises(ProviderError) as err:
                embed_batch(["texto"], cfg)
            assert err.value.status == 404

    def test_retry_schedule(self, sleeps):
        # a 404 would fail again: it is sent once, with no backoff
        with run_mock_server("echo-fuzzy") as server:
            cfg = EmbeddingProviderConfig(
                kind="remote-http",
                endpoint=server.endpoint + "/wrong/path",
                dim=16,
            )
            with pytest.raises(ProviderError, match="attempts: 1"):
                embed_batch(["texto"], cfg)
            assert len(server.state.request_log) == 1
        assert sleeps == []

    def test_connection_failure(self):
        cfg = EmbeddingProviderConfig(
            kind="remote-http",
            endpoint="http://127.0.0.1:9/v1/embeddings",
            dim=16,
        )
        with pytest.raises(ProviderError):
            embed_batch(["texto"], cfg)


def test_config_validation():
    with pytest.raises(ArgumentError):
        EmbeddingProviderConfig(dim=0)
    with pytest.raises(ArgumentError, match="signed 64-bit"):
        EmbeddingProviderConfig(seed=2**63)
    with pytest.raises(ArgumentError, match="signed 64-bit"):
        EmbeddingProviderConfig(seed=-(2**63) - 1)
    with pytest.raises(ArgumentError):
        EmbeddingProviderConfig(batch_size=0)
    with pytest.raises(ArgumentError):
        EmbeddingProviderConfig(kind="nonsense")
    with pytest.raises(ArgumentError, match="max_in_flight"):
        EmbeddingProviderConfig(max_in_flight=0)
    for endpoint in ("", "127.0.0.1:8000", "ftp://host/v1/embeddings"):
        with pytest.raises(ArgumentError, match="http:// or https://"):
            EmbeddingProviderConfig(kind="remote-http", endpoint=endpoint)
    EmbeddingProviderConfig(kind="remote-http", endpoint="https://host/v1/embeddings")
