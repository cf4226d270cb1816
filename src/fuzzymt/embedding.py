"""Sentence embeddings from one of two providers.

A remote HTTP encoder speaks the OpenAI-embedding JSON shape, one request
per ``batch_size`` texts and ``max_in_flight`` at once, under the one retry
rule of ``_http``: 4 attempts, 1, 2 and 4 s apart, for a connection error,
a timeout, a 429 or a 5xx, and one for any other reply. A failure surfaces
as ``ProviderError`` with the last HTTP status. Its rows are divided by
their norms. A fully offline deterministic provider builds vectors from
signed hashed character n-grams and is used wherever tests need stable
vectors with meaningful cosine structure. Either way every row is checked
to be finite and of unit norm (a zero row from the encoder fails), so the
inner product of two rows is their cosine similarity.

The deterministic vectors are built CHUNK texts at a time. A step encodes
its lowercased texts as UTF-32, which also rejects a lone surrogate with
CorpusEncodingError, and gives every gram of size n in 3..5 an integer key
in numpy: a 3-gram's key is its three code points in base 0x110000, and a
longer gram's key is the id of its (n-1)-gram prefix in base 0x110000 and
its last code point, so no key can overflow a uint64. One table per gram
size lives for the whole call: its distinct keys in ascending order, a
stable id for each, and the seed-keyed 8-byte BLAKE2b digest of each id.
The step looks up its distinct keys there, hashes only the grams the table
lacks, so each distinct gram of a call is hashed once, and gathers the
digests by id. It then adds each gram's +/-1 to bucket ``hash % dim`` of
its text's row with one ``np.bincount`` over ``row * dim + bucket``. Only
the tables, O(distinct grams), outlive a step; the per-gram arrays are a
step's own. A row whose sum is zero (no gram, or grams that cancel)
becomes the unit basis vector e_0; every other row is divided by the
float64 square root of its sum of squares and cast to float32. The result
does not depend on the chunking, the gram order or the batch a text
arrives in: every bucket sum is a sum of +/-1 and every sum of squares a
sum of integer squares, both exact in float64 in any order, so each row is
bit for bit the vector of the same text embedded on its own
(``tests/oracles.py`` keeps that per-text loop as the reference).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _http
from .errors import ArgumentError, ContractViolationError, CorpusEncodingError, ProviderError

DEFAULT_DIM = 384
NGRAM_SIZES = (3, 4, 5)
# Texts per step, which bounds the gram strings and arrays alive at once.
# On the long-segments benchmark (500 texts of 15-40 words) one gram size
# of 64 texts a step keeps peak RSS within about 1 MB of a per-text loop;
# all three sizes in one step added 11 MB.
CHUNK = 64
# Code points are below this, so a 3-gram key c0*A^2 + c1*A + c2 and an
# n-gram key id(prefix)*A + c fit a uint64.
_ALPHABET = 0x110000


@dataclass
class EmbeddingProviderConfig:
    """Which encoder to use and how to call it."""

    kind: str = "deterministic-test"  # "remote-http" | "deterministic-test"
    endpoint: str = ""
    model_name: str = "deterministic-ngram"
    dim: int = DEFAULT_DIM
    batch_size: int = 64
    seed: int = 0
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
        if self.max_in_flight < 1:
            raise ArgumentError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.kind == "remote-http" and not self.endpoint.startswith(("http://", "https://")):
            raise ArgumentError(f"remote-http needs an http:// or https:// endpoint, got {self.endpoint!r}")


def check_vectors(matrix: np.ndarray, dim: int) -> None:
    """Assert the vector contract on every row: length, finiteness, and unit norm."""
    if matrix.ndim != 2 or matrix.shape[1] != dim:
        raise ContractViolationError(f"expected vector of length {dim}, got shape {matrix.shape[1:]}")
    # squares summed in float64 stay finite for any finite float32 row
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
    if not np.isfinite(norms).all():
        raise ContractViolationError("vector contains non-finite entries")
    off = np.abs(norms - 1.0) > 1e-6
    if off.any():
        raise ContractViolationError(f"vector norm {norms[off.argmax()]} outside [1-1e-6, 1+1e-6]")


def _embed_deterministic(texts: Sequence[str], dim: int, seed: int) -> np.ndarray:
    """Signed hashed character n-grams (n = 3..5) of each lowercased text, L2-normalized.

    Each gram is hashed (keyed by the seed) to a bucket in [0, dim) with a
    +/-1 contribution; a text whose contributions all cancel, or that is too
    short to produce any n-gram, maps to the unit basis vector e_0. Returns
    a (len(texts), dim) float32 matrix. A text holding a lone surrogate
    raises CorpusEncodingError.
    """
    keyed = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=True))
    tables = [_GramTable(n, keyed) for n in NGRAM_SIZES]
    out = np.empty((len(texts), dim), dtype=np.float32)
    for start in range(0, len(texts), CHUNK):
        lowered = [text.lower() for text in texts[start : start + CHUNK]]
        rows = len(lowered)
        lengths = np.fromiter(map(len, lowered), dtype=np.intp, count=rows)
        ends = np.cumsum(lengths)
        joined = "".join(lowered)
        try:
            points = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
        except UnicodeEncodeError as exc:
            index = start + int(np.searchsorted(ends, exc.start, side="right"))
            raise CorpusEncodingError(f"text {index} holds a lone surrogate {joined[exc.start]!r}") from None
        row_of = np.repeat(np.arange(rows), lengths)
        # the start of every 2-gram and its key, the prefix of the 3-gram keys
        starts = np.flatnonzero(np.arange(len(points)) + 1 < ends[row_of])
        ids = points[starts] * _ALPHABET + points[starts + 1]
        sums = np.zeros(rows * dim)
        for table in tables:
            longer = starts + (table.n - 1) < ends[row_of[starts]]
            starts = starts[longer]
            ids = table.ids_of(ids[longer] * _ALPHABET + points[starts + (table.n - 1)], starts, joined)
            hashes = table.digests[ids]
            flat = row_of[starts] * dim + (hashes % dim).astype(np.intp)
            sums += np.bincount(flat, weights=1.0 - 2.0 * (hashes >> 63), minlength=rows * dim)
        sums = sums.reshape(rows, dim)
        squares = np.einsum("ij,ij->i", sums, sums)
        empty = squares == 0.0
        sums[empty, 0] = 1.0
        squares[empty] = 1.0
        out[start : start + rows] = sums / np.sqrt(squares)[:, None]
    return out


class _GramTable:
    """The distinct n-grams met so far in one call: their uint64 keys in
    ascending order with the id of each, and the keyed digest of each id."""

    def __init__(self, n: int, keyed):
        self.n = n
        self.keyed = keyed
        # a last key above every gram key, so a search always lands on an entry
        self.keys = np.array([2**64 - 1], dtype=np.uint64)
        self.ids = np.zeros(1, dtype=np.uint64)
        self.digests = np.empty(0, dtype="<u8")

    def ids_of(self, keys: np.ndarray, starts: np.ndarray, joined: str) -> np.ndarray:
        """The id of each key, where the gram of ``keys[i]`` is
        ``joined[starts[i]:][:n]``; each key not yet in the table is hashed
        once and added."""
        distinct, inverse = np.unique(keys, return_inverse=True)
        at = np.searchsorted(self.keys, distinct)
        fresh = self.keys[at] != distinct
        start_of = np.empty(len(distinct), dtype=np.intp)
        start_of[inverse] = starts
        grams = [joined[s : s + self.n] for s in start_of[fresh].tolist()]
        new_ids = np.arange(len(self.digests), len(self.digests) + len(grams), dtype=np.uint64)
        ids = self.ids[at]
        ids[fresh] = new_ids
        # One array of known size: b"".join(...) would first grow a list,
        # whose small freed blocks stay in glibc's per-thread cache and split
        # the heap's free space (tm-build peak RSS 4 MB higher in 10 of 10
        # benchmark runs with the join, in 4 of 10 without).
        digests = np.fromiter(_digests(self.keyed, grams), dtype="S8", count=len(grams))
        self.digests = np.concatenate([self.digests, digests.view("<u8")])
        self.keys = np.insert(self.keys, at[fresh], distinct[fresh])
        self.ids = np.insert(self.ids, at[fresh], new_ids)
        return ids[inverse]


def _digests(keyed, grams: list[str]):
    for gram in grams:
        h = keyed.copy()
        h.update(gram.encode("utf-8"))
        yield h.digest()


def _post_embeddings(texts: Sequence[str], cfg: EmbeddingProviderConfig) -> np.ndarray:
    payload = {"model": cfg.model_name, "input": list(texts)}
    reply = _http.post_json(cfg.endpoint, payload)
    if reply.malformed:
        raise ContractViolationError(f"malformed embedding response: {reply.error}")
    if reply.error is not None:
        raise ProviderError(
            f"embedding endpoint {cfg.endpoint} failed ({reply.error}; attempts: {reply.attempts})",
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
    chunks = [texts[i : i + cfg.batch_size] for i in range(0, len(texts), cfg.batch_size)]
    parts = _http.map_ordered(lambda chunk: _post_embeddings(chunk, cfg), chunks, cfg.max_in_flight)
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
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        matrix = (matrix / norms).astype(np.float32)
    check_vectors(matrix, cfg.dim)
    return matrix
