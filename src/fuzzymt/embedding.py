"""Sentence embeddings from one of two providers.

A remote HTTP encoder speaks the OpenAI-embedding JSON shape; its requests
go through the shared retrying POST in ``_http`` (``max_attempts`` attempts
per chunk) and a failure surfaces as ``ProviderError`` with the last HTTP
status. A fully offline deterministic provider builds vectors from signed
hashed character n-grams and is used wherever tests need stable vectors
with meaningful cosine structure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _http
from .errors import ArgumentError, ContractViolationError, ProviderError

DEFAULT_DIM = 384


@dataclass
class EmbeddingProviderConfig:
    """Which encoder to use and how to call it."""

    kind: str = "deterministic-test"  # "remote-http" | "deterministic-test"
    endpoint: str = ""
    model_name: str = "deterministic-ngram"
    dim: int = DEFAULT_DIM
    batch_size: int = 64
    normalize: bool = True
    seed: int = 0
    max_attempts: int = 3
    backoff_seconds: float = 1.0
    max_in_flight: int = 4

    def __post_init__(self):
        if self.dim <= 0:
            raise ArgumentError(f"dim must be positive, got {self.dim}")
        if self.batch_size <= 0:
            raise ArgumentError(f"batch_size must be positive, got {self.batch_size}")
        if self.kind not in ("remote-http", "deterministic-test"):
            raise ArgumentError(f"unknown provider kind: {self.kind!r}")


def l2_normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return vec
    return vec / norm


def check_vector(vec: np.ndarray, dim: int, normalized: bool) -> None:
    """Assert the vector contract: length, finiteness, and unit norm."""
    if vec.shape != (dim,):
        raise ContractViolationError(f"expected vector of length {dim}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ContractViolationError("vector contains non-finite entries")
    if normalized:
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-6:
            raise ContractViolationError(f"vector norm {norm} outside [1-1e-6, 1+1e-6]")


def deterministic_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Embed one text as signed hashed character n-grams (n = 3..5).

    The lowercased text's n-grams are hashed (keyed by the seed) to buckets
    in [0, dim) with a +/-1 contribution, then L2-normalized. Texts too
    short to produce any n-gram map to the unit basis vector e_0.
    """
    if dim <= 0:
        raise ArgumentError(f"dim must be positive, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    lowered = text.lower()
    key = seed.to_bytes(8, "little", signed=True)
    for n in (3, 4, 5):
        for i in range(len(lowered) - n + 1):
            gram = lowered[i : i + n]
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
            h = int.from_bytes(digest, "little")
            bucket = h % dim
            sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
            vec[bucket] += sign
    if not vec.any():
        vec[0] = 1.0
        return vec.astype(np.float32)
    return l2_normalize(vec).astype(np.float32)


def _embed_batch_deterministic(texts: Sequence[str], cfg: EmbeddingProviderConfig) -> np.ndarray:
    out = np.empty((len(texts), cfg.dim), dtype=np.float32)
    for i, text in enumerate(texts):
        out[i] = deterministic_embed(text, cfg.dim, cfg.seed)
    return out


def _post_embeddings(texts: Sequence[str], cfg: EmbeddingProviderConfig) -> np.ndarray:
    payload = {"model": cfg.model_name, "input": list(texts)}
    reply = _http.post_json(cfg.endpoint, payload, cfg.max_attempts, cfg.backoff_seconds, timeout=120)
    if reply.malformed:
        raise ContractViolationError(f"malformed embedding response: {reply.error}")
    if reply.error is not None:
        raise ProviderError(
            f"embedding endpoint {cfg.endpoint} failed after {cfg.max_attempts} attempts ({reply.error})",
            status=reply.status,
        )
    try:
        rows = [item["embedding"] for item in reply.body["data"]]
        matrix = np.asarray(rows, dtype=np.float32)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractViolationError(f"malformed embedding response: {exc}") from exc
    if len(rows) != len(texts):
        raise ContractViolationError(
            f"provider returned {len(rows)} embeddings for {len(texts)} inputs"
        )
    if matrix.ndim != 2 or matrix.shape[1] != cfg.dim:
        raise ContractViolationError(
            f"provider returned dim {matrix.shape[-1] if matrix.ndim == 2 else '?'}, expected {cfg.dim}"
        )
    return matrix


def _embed_batch_remote(texts: Sequence[str], cfg: EmbeddingProviderConfig) -> np.ndarray:
    from concurrent.futures import ThreadPoolExecutor

    chunks = [list(texts[i : i + cfg.batch_size]) for i in range(0, len(texts), cfg.batch_size)]
    if len(chunks) == 1:
        parts = [_post_embeddings(chunks[0], cfg)]
    else:
        with ThreadPoolExecutor(max_workers=max(1, cfg.max_in_flight)) as pool:
            parts = list(pool.map(lambda chunk: _post_embeddings(chunk, cfg), chunks))
    return np.concatenate(parts, axis=0)


def embed_batch(texts: Sequence[str], cfg: EmbeddingProviderConfig) -> np.ndarray:
    """Embed texts in order; returns a (len(texts), cfg.dim) float32 matrix."""
    if len(texts) == 0:
        raise ArgumentError("embed_batch requires a non-empty text list")
    if cfg.kind == "deterministic-test":
        # rows are unit-normalized by construction; renormalizing would
        # perturb low-order bits and break bit-level determinism
        matrix = _embed_batch_deterministic(texts, cfg)
    else:
        matrix = _embed_batch_remote(texts, cfg)
        if cfg.normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            matrix = (matrix / norms).astype(np.float32)
    for row in matrix:
        check_vector(row, cfg.dim, cfg.normalize)
    return matrix
