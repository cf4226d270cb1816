from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt.embedding import CHUNK, EmbeddingProviderConfig, embed_batch
from fuzzymt.errors import ArgumentError, ContractViolationError, ProviderError
from fuzzymt.llm_client import run_mock_server

from conftest import local_endpoint
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
        texts=st.lists(_ORACLE_TEXTS, min_size=1, max_size=2 * CHUNK + 3),
        dim=st.sampled_from([1, 2, 7, 384]),
        seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    )
    def test_batch_bytes_match_frozen_per_text(self, texts, dim, seed):
        cfg = EmbeddingProviderConfig(kind="deterministic-test", dim=dim, seed=seed)
        expected = np.stack([deterministic_embed_reference(t, dim, seed) for t in texts])
        assert embed_batch(texts, cfg).tobytes() == expected.tobytes()

    def test_cancelling_rows_take_basis_vector(self):
        # at dim 1 every gram lands in bucket 0; a 5-character text has six
        # grams, which cancel for about a third of these texts (C(6,3)/2^6)
        cfg = EmbeddingProviderConfig(kind="deterministic-test", dim=1, seed=0)
        texts = [f"ab{i:03d}" for i in range(200)]
        expected = np.stack([deterministic_embed_reference(t, 1, 0) for t in texts])
        assert embed_batch(texts, cfg).tobytes() == expected.tobytes()

    def test_rows_cross_chunk_boundary(self, det_provider):
        texts = [f"segmento número {i} del lote" for i in range(2 * CHUNK + 1)]
        expected = np.stack([deterministic_embed_reference(t, det_provider.dim, det_provider.seed) for t in texts])
        assert embed_batch(texts, det_provider).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("normalize", [True, False])
    def test_nan_component_is_contract_violation(self, normalize):
        body = b'{"data": [{"embedding": [0.6, 0.8]}, {"embedding": [NaN, 1.0]}]}'
        with local_endpoint([(200, body)]) as (endpoint, _):
            cfg = EmbeddingProviderConfig(
                kind="remote-http", endpoint=endpoint, dim=2, normalize=normalize
            )
            with pytest.raises(ContractViolationError, match="non-finite"):
                embed_batch(["uno", "dos"], cfg)

    def test_zero_row_fails_norm_contract(self):
        body = b'{"data": [{"embedding": [3.0, 4.0]}, {"embedding": [0.0, 0.0]}]}'
        with local_endpoint([(200, body)]) as (endpoint, _):
            cfg = EmbeddingProviderConfig(kind="remote-http", endpoint=endpoint, dim=2)
            with pytest.raises(ContractViolationError, match=r"vector norm 0\.0 outside"):
                embed_batch(["uno", "dos"], cfg)
            # without normalization a zero row is a valid vector
            cfg.normalize = False
            assert embed_batch(["uno", "dos"], cfg).tolist() == [[3.0, 4.0], [0.0, 0.0]]

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
