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

The deterministic provider (model ``deterministic-ngram-v2``) uses the
hashing trick over character n-grams. It lowercases a text (``str.lower``)
and gives each of its grams of n code points c_1 .. c_n, for n in 3, 4
and 5, a 64-bit digest d, every operation taken modulo 2**64:

    h = seed mod 2**64            (the signed seed's two's complement)
    h = (h ^ c_i) * 0x100000001B3   for i = 1 .. n
    z = h ^ n
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    d = z ^ (z >> 31)

that is, FNV-1a steps over the code points, then the splitmix64 finalizer.
The gram adds +1, or -1 when d >> 63 is 1, to bucket d % dim of its text's
row. A row whose sum is zero (no gram, or grams that cancel) becomes the
unit basis vector e_0; every other row is divided by the float64 square
root of its sum of squares and cast to float32.

The vectors are built in steps, each of as many texts as fit _STEP_BYTES
at _POINT_BYTES a code point and 8 * dim bytes a row (and at least one
text), so a step of short segments holds more texts than one of long
segments, and one of empty texts is bounded by its rows. A step encodes its
lowercased texts as UTF-32, which also rejects a lone surrogate with
CorpusEncodingError, and runs the chain above in numpy from every code
point at once, the 4- and 5-gram chains going on from the 3-gram one, so
each gram occurrence gets its digest with no hashing in Python and no table
of grams. One ``np.bincount`` over ``row * dim + bucket`` for all three
sizes gives the step's sums; nothing but its rows outlives a step. A digest
depends only on the seed and the gram, so the result does not depend on
the steps or on the batch a text arrives in: every bucket sum is a sum of
+/-1 and every sum of squares a sum of integer squares, both exact in
float64 in any order, so each row is bit for bit the vector of the same
text embedded on its own (``tests/oracles.py`` keeps that per-text loop,
written from the rule above, as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _http
from .errors import ArgumentError, ContractViolationError, CorpusEncodingError, ProviderError

DEFAULT_DIM = 384
NGRAM_SIZES = (3, 4, 5)
# Bytes a step may hold, which bounds the arrays alive at once: _POINT_BYTES
# for each code point of its texts, and 8 * dim for each row of its float64
# sums. At its peak a step holds, for each code point and each of the three
# gram sizes, the text and the digest of the gram that starts there and the
# flat index and weight made from them (8 bytes each, 96 in all), besides a
# size's index and weight before they are concatenated: tracemalloc read
# 103-109 bytes a code point for 15-40-word, accented and astral texts. At
# dim 384 a step holds about 164 texts of 15-40 words (about 200 code
# points) or about 480 of 4-12 words. A 16 MiB bound raised the
# long-segments benchmark's peak RSS from about 47.5 to 57 MB.
_STEP_BYTES = 4 << 20
_POINT_BYTES = 112
# the constants of the digest (see the module docstring)
_FNV_PRIME = np.uint64(0x100000001B3)
_MIX = (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9), np.uint64(27), np.uint64(0x94D049BB133111EB), np.uint64(31))
_SIGN_SHIFT = np.uint64(63)
DETERMINISTIC_MODEL = "deterministic-ngram-v2"


@dataclass
class EmbeddingProviderConfig:
    """Which encoder to use and how to call it."""

    kind: str = "deterministic-test"  # "remote-http" | "deterministic-test"
    endpoint: str = ""
    model_name: str = DETERMINISTIC_MODEL
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
        if self.kind == "deterministic-test" and self.model_name != DETERMINISTIC_MODEL:
            # another name would pass the fingerprint check of a store built with other vectors
            raise ArgumentError(f"the deterministic-test provider is model_name {DETERMINISTIC_MODEL!r}, "
                                f"got {self.model_name!r}")
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

    Returns a (len(texts), dim) float32 matrix of the rows the module
    docstring defines. A text holding a lone surrogate raises
    CorpusEncodingError.
    """
    out = np.empty((len(texts), dim), dtype=np.float32)
    for start, stop in _steps(texts, dim):
        # a step's arrays are the helper's locals, so none outlives its step
        out[start:stop] = _step_rows(texts[start:stop], start, dim, seed)
    return out


def _step_rows(texts: Sequence[str], first: int, dim: int, seed: int) -> np.ndarray:
    """The float64 unit rows of one step's texts, ``texts[0]`` being text
    ``first`` of the call."""
    rows = len(texts)
    # the code points die in the call, before the sums are made
    found = _gram_digests(*_code_points(texts, first), seed)
    flat = np.concatenate([row * dim + (digest % np.uint64(dim)).astype(np.intp) for row, digest in found])
    # one bincount for all three sizes; over no grams it would give int64 zeros
    if len(flat):
        weights = np.concatenate([1.0 - 2.0 * (digest >> _SIGN_SHIFT) for _, digest in found])
        sums = np.bincount(flat, weights=weights, minlength=rows * dim)
    else:
        sums = np.zeros(rows * dim)
    sums = sums.reshape(rows, dim)
    squares = np.einsum("ij,ij->i", sums, sums)
    empty = squares == 0.0
    sums[empty, 0] = 1.0
    squares[empty] = 1.0
    sums /= np.sqrt(squares)[:, None]
    return sums


def _code_points(texts: Sequence[str], first: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 code points of the lowercased texts, end to end, and each
    text's length in them."""
    lowered = [text.lower() for text in texts]
    lengths = np.fromiter(map(len, lowered), dtype=np.intp, count=len(lowered))
    joined = "".join(lowered)
    try:
        return np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.uint64), lengths
    except UnicodeEncodeError as exc:
        index = first + int(np.searchsorted(np.cumsum(lengths), exc.start, side="right"))
        raise CorpusEncodingError(f"text {index} holds a lone surrogate {joined[exc.start]!r}") from None


def _gram_digests(points: np.ndarray, lengths: np.ndarray, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each gram size, the text and the digest of every gram occurrence
    of the texts whose code points ``points`` holds end to end."""
    row_of = np.repeat(np.arange(len(lengths)), lengths)
    # the code points from each position to the end of its text
    left = np.cumsum(lengths)[row_of] - np.arange(len(points))
    shift1, mul1, shift2, mul2, shift3 = _MIX
    found = []
    with np.errstate(over="ignore"):
        # h[i] chains the code points from position i on, one more each pass;
        # a chain that runs past its text's end is never finished
        h = (points ^ np.uint64(seed % 2**64)) * _FNV_PRIME
        for n in range(2, NGRAM_SIZES[-1] + 1):
            h = (h[:-1] ^ points[n - 1 :]) * _FNV_PRIME
            if n not in NGRAM_SIZES:
                continue
            at = np.flatnonzero(left[: len(h)] >= n)
            z = h[at] ^ np.uint64(n)
            z = (z ^ (z >> shift1)) * mul1
            z = (z ^ (z >> shift2)) * mul2
            z ^= z >> shift3
            found.append((row_of[at], z))
    return found


def _steps(texts: Sequence[str], dim: int):
    """(start, stop) of each step: as many texts as fit _STEP_BYTES at
    _POINT_BYTES a code point and 8 * dim bytes a row, and at least one."""
    cost = np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) * _POINT_BYTES + 8 * dim)
    start, spent = 0, 0
    while start < len(texts):
        stop = max(start + 1, int(np.searchsorted(cost, spent + _STEP_BYTES, side="right")))
        yield start, stop
        start, spent = stop, int(cost[stop - 1])


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
