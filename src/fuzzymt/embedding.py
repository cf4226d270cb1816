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

The deterministic vectors are built in steps, each of as many texts as fit
_STEP_BYTES at _POINT_BYTES a code point and 8 * dim bytes a row (and at
least one text), so a step of short segments holds more texts than one of
long segments, and one of empty texts is bounded by its rows. A step
encodes its lowercased texts as UTF-32, which also rejects a lone surrogate
with CorpusEncodingError, and gives every gram of size n in 3..5 an integer
key in numpy: a 3-gram's key is its three code points in base 0x110000,
and a longer gram's key is the id of its (n-1)-gram prefix in base
0x110000 and its last code point, so no key can overflow a uint64. One
table per gram size lives for the whole call: sorted runs of distinct
keys, each key with the seed-keyed 8-byte BLAKE2b digest of its gram and,
below the largest size, a stable uint32 id. The step looks up its distinct
keys there, hashes only the grams the table lacks, so each distinct gram
of a call is hashed once, and adds those as a new run, merged into the run
before it while that one is smaller than RUN_FLOOR or at most twice its
size, so upkeep is amortized. It then adds each gram's +/-1 to bucket
``hash % dim`` of its text's row with one ``np.bincount`` over
``row * dim + bucket`` for all three sizes. Only the tables, O(distinct
grams), outlive a step; the per-gram arrays and the sums are a step's own.
A call given an empty ``GramTables`` as ``base`` leaves its tables there,
one run per gram size at 20 bytes a gram, 16 for the largest size: that is
how a context store keeps its corpus's grams. A later call given the
filled tables looks each key up there first, its own ids going on from
theirs, hashes only the grams they lack and keeps those in tables of its
own; the filled tables are never written again. A row whose sum is zero
(no gram, or grams that cancel) becomes the unit basis vector e_0; every
other row is divided by the float64 square root of its sum of squares and
cast to float32. A digest depends only on the seed and the gram, so the
result does not depend on the steps, the gram order, the batch a text
arrives in or the tables a call starts from: every bucket sum is a sum of
+/-1 and every sum of squares a sum of integer squares, both exact in
float64 in any order, so each row is bit for bit the vector of the same
text embedded on its own (``tests/oracles.py`` keeps that per-text loop as
the reference).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _http
from .errors import ArgumentError, ContractViolationError, CorpusEncodingError, ProviderError

DEFAULT_DIM = 384
NGRAM_SIZES = (3, 4, 5)
# Bytes a step may hold, which bounds the gram strings and arrays alive at
# once: _POINT_BYTES for each code point of its texts, about what its
# per-gram arrays and fresh gram strings take, and 8 * dim for each row of
# its float64 sums. At dim 384 a step holds about 75 texts of 15-40 words
# (about 200 code points) or about 220 of 4-12 words. A 16 MiB bound raised
# the long-segments benchmark's peak RSS from about 47.5 to 57 MB.
_STEP_BYTES = 4 << 20
_POINT_BYTES = 256
# Code points are below this, so a 3-gram key c0*A^2 + c1*A + c2 and an
# n-gram key id(prefix)*A + c fit a uint64.
_ALPHABET = 0x110000
# A call's run of fewer grams than this takes in the next run whatever that
# one's size: copying so few costs about what searching one more run in
# every later step would. A context of a few thousand segments (about 17k
# grams a size) then keeps one run a size, while a corpus of millions of
# grams copies each gram O(log grams) times rather than once a step.
RUN_FLOOR = 16384


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


def _embed_deterministic(texts: Sequence[str], dim: int, seed: int, base: GramTables | None) -> np.ndarray:
    """Signed hashed character n-grams (n = 3..5) of each lowercased text, L2-normalized.

    Each gram is hashed (keyed by the seed) to a bucket in [0, dim) with a
    +/-1 contribution; a text whose contributions all cancel, or that is too
    short to produce any n-gram, maps to the unit basis vector e_0. Returns
    a (len(texts), dim) float32 matrix. A text holding a lone surrogate
    raises CorpusEncodingError.
    """
    if base is not None and base.filled and base.seed != seed:
        raise ArgumentError(f"gram tables were filled with seed {base.seed}, not {seed}")
    keyed = hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=True))
    frozen = base.runs if base is not None and base.filled else (None,) * len(NGRAM_SIZES)
    tables = [_GramTable(n, keyed, run, n < NGRAM_SIZES[-1]) for n, run in zip(NGRAM_SIZES, frozen)]
    out = np.empty((len(texts), dim), dtype=np.float32)
    for start, stop in _steps(texts, dim):
        # a step's arrays are the helper's locals, so none outlives its step
        out[start:stop] = _step_rows(texts[start:stop], start, dim, tables)
    if base is not None and not base.filled:
        base.runs = tuple(table.merged() for table in tables)
        for array in (a for run in base.runs if run is not None for a in run):
            array.setflags(write=False)
        base.seed = seed
    return out


def _step_rows(texts: Sequence[str], first: int, dim: int, tables: list[_GramTable]) -> np.ndarray:
    """The float64 unit rows of one step's texts, ``texts[0]`` being text
    ``first`` of the call."""
    lowered = [text.lower() for text in texts]
    rows = len(lowered)
    lengths = np.fromiter(map(len, lowered), dtype=np.intp, count=rows)
    ends = np.cumsum(lengths)
    joined = "".join(lowered)
    try:
        points = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
    except UnicodeEncodeError as exc:
        index = first + int(np.searchsorted(ends, exc.start, side="right"))
        raise CorpusEncodingError(f"text {index} holds a lone surrogate {joined[exc.start]!r}") from None
    row_of = np.repeat(np.arange(rows), lengths)
    # the start of every 2-gram and its key, the prefix of the 3-gram keys
    starts = np.flatnonzero(np.arange(len(points)) + 1 < ends[row_of])
    ids = points[starts] * _ALPHABET + points[starts + 1]
    flat, signs = [], []
    for table in tables:
        longer = starts + (table.n - 1) < ends[row_of[starts]]
        starts = starts[longer]
        keys = ids[longer].astype(np.uint64, copy=False) * _ALPHABET + points[starts + (table.n - 1)]
        ids, hashes = table.lookup(keys, starts, joined)
        flat.append(row_of[starts] * dim + (hashes % dim).astype(np.intp))
        signs.append(hashes >> 63)
    # one bincount for all three sizes; over no grams it would give int64 zeros
    flat = np.concatenate(flat)
    if len(flat):
        sums = np.bincount(flat, weights=1.0 - 2.0 * np.concatenate(signs), minlength=rows * dim)
    else:
        sums = np.zeros(rows * dim)
    sums = sums.reshape(rows, dim)
    squares = np.einsum("ij,ij->i", sums, sums)
    empty = squares == 0.0
    sums[empty, 0] = 1.0
    squares[empty] = 1.0
    sums /= np.sqrt(squares)[:, None]
    return sums


def _steps(texts: Sequence[str], dim: int):
    """(start, stop) of each step: as many texts as fit _STEP_BYTES at
    _POINT_BYTES a code point and 8 * dim bytes a row, and at least one."""
    cost = np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) * _POINT_BYTES + 8 * dim)
    start, spent = 0, 0
    while start < len(texts):
        stop = max(start + 1, int(np.searchsorted(cost, spent + _STEP_BYTES, side="right")))
        yield start, stop
        start, spent = stop, int(cost[stop - 1])


class _Run(NamedTuple):
    """Distinct grams of the largest size in ascending key order: the key
    and keyed digest of each."""

    keys: np.ndarray
    digests: np.ndarray


class _IdRun(NamedTuple):
    """Distinct grams of a smaller size in ascending key order: the key,
    keyed digest and uint32 id of each; an id is the prefix of the keys of
    the next size's grams."""

    keys: np.ndarray
    digests: np.ndarray
    ids: np.ndarray


def _merge(older, newer):
    """One run of the grams of two runs that share no key."""
    # one position mask for every array; np.insert sorts the positions
    # and builds a mask for each array it is called on
    at = np.searchsorted(older.keys, newer.keys) + np.arange(len(newer.keys))
    kept = np.ones(len(older.keys) + len(at), dtype=bool)
    kept[at] = False
    merged = []
    for old, new in zip(older, newer):
        both = np.empty(len(kept), dtype=old.dtype)
        both[at] = new
        both[kept] = old
        merged.append(both)
    return type(older)(*merged)


class GramTables:
    """The distinct character n-grams of one embedded corpus with their digests.

    Empty until the first deterministic ``embed_batch`` call given it as
    ``base``, which fills it with one run per gram size holding every gram
    of that call's texts; read-only from then on. A later call looks its
    grams up here first and hashes only those missing, into tables of its
    own, so no call adds to a filled one and concurrent calls may share it.
    A call with another seed raises ArgumentError. A remote provider neither
    fills nor reads it.
    """

    def __init__(self):
        self.seed: int | None = None
        self.runs: tuple[_Run | _IdRun | None, ...] = ()

    @property
    def filled(self) -> bool:
        return self.seed is not None


class _GramTable:
    """The distinct n-grams one call has met, layered over a read-only base run.

    The call's grams sit in sorted runs after the base's. A step's fresh grams
    form a new run, merged into the run before it while that one is smaller
    than RUN_FLOOR or at most twice its size, so a call keeps O(log grams)
    runs and copies each gram O(log grams) times. With ``with_ids`` each
    gram gets an id, going on from the base's, so a key names one gram in
    the base and the call alike; the largest size keeps none, as no longer
    gram's key is built from it."""

    def __init__(self, n: int, keyed, base: _Run | _IdRun | None, with_ids: bool):
        self.n = n
        self.keyed = keyed
        self.with_ids = with_ids
        self.runs = [] if base is None else [base]
        self.own = 0 if base is None else 1  # runs[:own] belong to the base
        self.count = 0 if base is None else len(base.keys)

    def lookup(self, keys: np.ndarray, starts: np.ndarray, joined: str) -> tuple[np.ndarray | None, np.ndarray]:
        """The id (None without ids) and the digest of each key, where the
        gram of ``keys[i]`` is ``joined[starts[i]:][:n]``; each key in no run
        is hashed once and added as a new run."""
        distinct, inverse = np.unique(keys, return_inverse=True)
        ids = np.empty(len(distinct), dtype=np.uint32) if self.with_ids else None
        digests = np.empty(len(distinct), dtype="<u8")
        missing = np.arange(len(distinct))
        for run in self.runs:
            wanted = distinct[missing]
            at = np.searchsorted(run.keys, wanted).clip(max=len(run.keys) - 1)
            hit = run.keys[at] == wanted
            at, found = at[hit], missing[hit]
            digests[found] = run.digests[at]
            if ids is not None:
                ids[found] = run.ids[at]
            missing = missing[~hit]
        if len(missing):
            start_of = np.empty(len(distinct), dtype=np.intp)
            start_of[inverse] = starts
            grams = [joined[s : s + self.n] for s in start_of[missing].tolist()]
            # One array of known size: b"".join(...) would first grow a list,
            # whose small freed blocks stay in glibc's per-thread cache and split
            # the heap's free space (tm-build peak RSS 4 MB higher in 10 of 10
            # benchmark runs with the join, in 4 of 10 without).
            fresh = _Run(
                distinct[missing],
                np.fromiter(_digests(self.keyed, grams), dtype="S8", count=len(grams)).view("<u8"),
            )
            digests[missing] = fresh.digests
            if ids is not None:
                # past 2**32 grams of one size (some 80 GB of tables) np.arange raises OverflowError
                fresh = _IdRun(*fresh, np.arange(self.count, self.count + len(grams), dtype=np.uint32))
                self.count += len(grams)
                ids[missing] = fresh.ids
            self.runs.append(fresh)
            while len(self.runs) - self.own > 1:
                older, newer = self.runs[-2:]
                if len(older.keys) >= RUN_FLOOR and len(older.keys) > 2 * len(newer.keys):
                    break
                self.runs[-2:] = [_merge(older, newer)]
        return None if ids is None else ids[inverse], digests[inverse]

    def merged(self) -> _Run | _IdRun | None:
        """The call's own grams as one run (None if it met none)."""
        while len(self.runs) - self.own > 1:
            self.runs[-2:] = [_merge(*self.runs[-2:])]
        return self.runs[-1] if len(self.runs) > self.own else None


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


def embed_batch(texts: Sequence[str], cfg: EmbeddingProviderConfig, base: GramTables | None = None) -> np.ndarray:
    """Embed texts in order; returns a (len(texts), cfg.dim) float32 matrix.

    The deterministic provider reads the grams a filled ``base`` holds
    instead of hashing them again, and fills an empty one (see GramTables).
    """
    if len(texts) == 0:
        raise ArgumentError("embed_batch requires a non-empty text list")
    if cfg.kind == "deterministic-test":
        # rows are unit-normalized by construction; renormalizing would
        # perturb low-order bits and break bit-level determinism
        matrix = _embed_deterministic(texts, cfg.dim, cfg.seed, base)
    else:
        matrix = _embed_batch_remote(texts, cfg)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        matrix = (matrix / norms).astype(np.float32)
    check_vectors(matrix, cfg.dim)
    return matrix
