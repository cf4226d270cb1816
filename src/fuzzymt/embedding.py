"""Sentence embeddings from one of two providers.

A remote HTTP encoder speaks the OpenAI-embedding JSON shape; its requests
go through the shared retrying POST in ``_http`` (``max_attempts`` attempts
per chunk) and a failure surfaces as ``ProviderError`` with the last HTTP
status. A fully offline deterministic provider builds vectors from signed
hashed character n-grams and is used wherever tests need stable vectors
with meaningful cosine structure.

The deterministic vectors are built CHUNK texts at a time. For each gram
size n in 3..5, a step slices every n-gram of the chunk's lowercased
texts, hashes each distinct gram once with the seed-keyed 8-byte BLAKE2b,
and adds each gram's +/-1 to bucket ``hash % dim`` of its text's row with
one ``np.bincount`` over ``row * dim + bucket``. A row whose sum is zero
(no gram, or grams that cancel) becomes the unit basis vector e_0; every
other row is divided by the float64 square root of its sum of squares and
cast to float32. The result does not depend on the chunking, the gram
order or the batch a text arrives in: every bucket sum is a sum of +/-1
and every sum of squares a sum of integer squares, both exact in float64
in any order, so each row is bit for bit the vector of the same text
embedded on its own (``tests/oracles.py`` keeps that per-text loop as the
reference).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _http
from .errors import ArgumentError, ContractViolationError, ProviderError

DEFAULT_DIM = 384
NGRAM_SIZES = (3, 4, 5)
# Texts per step, which bounds the gram strings and arrays alive at once.
# On the long-segments benchmark (500 texts of 15-40 words) one gram size
# of 64 texts a step keeps peak RSS within about 1 MB of a per-text loop;
# all three sizes in one step added 11 MB.
CHUNK = 64


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
        if not -(2**63) <= self.seed < 2**63:
            raise ArgumentError(f"seed must fit a signed 64-bit integer, got {self.seed}")


def check_vectors(matrix: np.ndarray, dim: int, normalized: bool) -> None:
    """Assert the vector contract on every row: length, finiteness, and unit norm."""
    if matrix.ndim != 2 or matrix.shape[1] != dim:
        raise ContractViolationError(f"expected vector of length {dim}, got shape {matrix.shape[1:]}")
    # squares summed in float64 stay finite for any finite float32 row
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
    if not np.isfinite(norms).all():
        raise ContractViolationError("vector contains non-finite entries")
    if normalized:
        off = np.abs(norms - 1.0) > 1e-6
        if off.any():
            raise ContractViolationError(f"vector norm {norms[off.argmax()]} outside [1-1e-6, 1+1e-6]")


def _embed_deterministic(texts: Sequence[str], dim: int, seed: int) -> np.ndarray:
    """Signed hashed character n-grams (n = 3..5) of each lowercased text, L2-normalized.

    Each gram is hashed (keyed by the seed) to a bucket in [0, dim) with a
    +/-1 contribution; a text whose contributions all cancel, or that is too
    short to produce any n-gram, maps to the unit basis vector e_0. Returns
    a (len(texts), dim) float32 matrix.
    """
    keyed = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=True))
    out = np.empty((len(texts), dim), dtype=np.float32)
    for start in range(0, len(texts), CHUNK):
        lowered = [text.lower() for text in texts[start : start + CHUNK]]
        rows = len(lowered)
        lengths = np.fromiter(map(len, lowered), dtype=np.intp, count=rows)
        sums = np.zeros(rows * dim)
        for n in NGRAM_SIZES:
            hashes = _gram_hashes(keyed, lowered, n)
            flat = np.repeat(np.arange(rows) * dim, np.maximum(lengths - (n - 1), 0))
            flat += (hashes % dim).astype(np.intp)
            sums += np.bincount(flat, weights=1.0 - 2.0 * (hashes >> 63), minlength=rows * dim)
        sums = sums.reshape(rows, dim)
        squares = np.einsum("ij,ij->i", sums, sums)
        empty = squares == 0.0
        sums[empty, 0] = 1.0
        squares[empty] = 1.0
        out[start : start + rows] = sums / np.sqrt(squares)[:, None]
    return out


def _gram_hashes(keyed, lowered: list[str], n: int) -> np.ndarray:
    """The keyed hash of every n-gram of the texts, text by text, as uint64;
    each distinct gram is hashed once."""
    grams = [t[i : i + n] for t in lowered for i in range(len(t) - n + 1)]
    digests = {}
    for gram in set(grams):
        h = keyed.copy()
        h.update(gram.encode("utf-8"))
        digests[gram] = h.digest()
    # One array of known size: b"".join(map(...)) would first grow a list,
    # whose small freed blocks stay in glibc's per-thread cache and split
    # the heap's free space (tm-build peak RSS 4 MB higher in 10 of 10
    # benchmark runs with the join, in 4 of 10 without).
    digest_array = np.fromiter(map(digests.__getitem__, grams), dtype="S8", count=len(grams))
    return digest_array.view("<u8")


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
        matrix = _embed_deterministic(texts, cfg.dim, cfg.seed)
    else:
        matrix = _embed_batch_remote(texts, cfg)
        if cfg.normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            matrix = (matrix / norms).astype(np.float32)
    check_vectors(matrix, cfg.dim, cfg.normalize)
    return matrix
