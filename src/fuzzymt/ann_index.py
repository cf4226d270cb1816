"""IVF-Flat approximate nearest neighbor index built from scratch.

A row's score for a query is their inner product: their cosine similarity,
as embeddings are unit rows. A k-means coarse quantizer (k-means++ seeding,
Lloyd iterations) partitions the collection into nlist inverted lists; a
query scores only the vectors in its nprobe best lists. With nprobe == nlist
the search is exact brute force; with nlist 1 (one centroid, the mean, and
no k-means) the index is the exact flat index.

An index is filled once: ``train`` returns it empty, and one ``add`` stores
every row, as float32, in one contiguous (N, d) array beside an ids array and
an offsets array: list c is rows offsets[c]:offsets[c + 1], in insertion order.
A row's list is the first list a search for that row probes; with nlist 1
the rows are stored as given.

``search_many`` works on blocks of queries, sized so that a block's float32
score matrix stays near _BLOCK_BYTES whatever the query count:

1. Each query's nprobe lists are picked as steps 2-4 pick rows, with the
   centroids as the rows and ties to the lower centroid index.
2. One float32 matmul scores the block against the rows of every list that
   some query of the block probes; rows of lists a query does not probe are
   set to -inf for that query. A block whose queries probe the same lists,
   such as any block of the flat index, has no such mask.
3. Each query keeps a shortlist: every row whose float32 score is within twice
   a proven error bound of its k-th best float32 score. The bound follows from
   d and the row norms (``_error_bound``), so no row left out could reach the
   top k once the scores are exact. Up to k = _ARGMAX_MAX_K the k-th best is
   read by k row-wise max passes over the scores, beyond it by a partition;
   one row-major ``flatnonzero`` then lists the shortlist query by query.
4. Only the shortlist is re-scored in float64, each (query, row) pair lifted
   from float32 on its own, and ordered by score, ties to the lower id. Queries
   given as float32, as ``embedding.embed_batch`` returns them, are never
   copied to float64 whole.

Steps 2-4 are ``IvfIndex._best``, the one rule by which the index picks
anything: rows for a search, lists for a probe and for each added row.
``search_many`` returns int64 ids and float64 scores, two arrays of shape
(queries, min(k, size)), best first; a query whose probed lists hold fewer
rows is padded with id -1 and score -inf, which ``search`` drops.

The float64 score of a row is a row-wise einsum of that row and its query
alone, so it does not depend on which other rows are scored with it. Two
identical vectors therefore get bit-equal scores wherever they sit in their
lists, and the lower id comes first. A matrix-vector product over a whole
list does not promise that: BLAS sums a row's last bits differently by its
position in the list.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ConflictError, StateError, TrainingError

INDEX_MAGIC = b"IVF1"
_HEADER = struct.Struct("<4sIIBQ")  # magic, dim, nlist, metric, size
# the header's metric byte: 1 (cosine) is the only similarity an index has
_COSINE_CODE = 1

KMEANS_SHIFT_TOL = 1e-6
# Faiss guideline: nlist should sit between 4*sqrt(N) and 16*sqrt(N).
CLUSTER_RANGE_LOW = 4.0
CLUSTER_RANGE_HIGH = 16.0

# float32 score scratch per block of queries, whatever the query count
_BLOCK_BYTES = 2 << 20
_UNIT_ROUNDOFF = 2.0**-24  # of float32
_FLOAT32_TINY = float(np.finfo(np.float32).tiny)
# (|q| + max |v|)^2 below this keeps every float32 partial sum finite
_SAFE_REACH = 1e37
# the largest k whose k-th best score is found by k row-wise max passes
_ARGMAX_MAX_K = 4


class ClusterRangeWarning(UserWarning):
    """nlist falls outside the recommended [4*sqrt(N), 16*sqrt(N)] band."""


@dataclass
class IvfConfig:
    dim: int
    nlist: int = 4096
    nprobe: int = 32
    kmeans_iters: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.dim <= 0:
            raise ArgumentError(f"dim must be positive, got {self.dim}")
        if self.nlist <= 0:
            raise ArgumentError(f"nlist must be positive, got {self.nlist}")
        if self.nprobe < 1:
            raise ArgumentError(f"nprobe must be at least 1, got {self.nprobe}")
        if self.nprobe > self.nlist:
            raise ArgumentError(f"nprobe must be at most nlist={self.nlist}, got {self.nprobe}")
        if self.kmeans_iters <= 0:
            raise ArgumentError(f"kmeans_iters must be positive, got {self.kmeans_iters}")
        if self.seed < 0:
            raise ArgumentError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SearchHit:
    id: int
    score: float


def _as_matrix(vectors, dim: int, dtype=np.float64) -> np.ndarray:
    # a value beyond the dtype's range becomes inf, which the check below rejects
    with np.errstate(over="ignore"):
        try:
            matrix = np.asarray(vectors, dtype=dtype)
        except ValueError as exc:  # ragged rows
            raise ArgumentError(f"expected vectors of dim {dim}: {exc}") from exc
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2 or matrix.shape[1] != dim:
        raise ArgumentError(f"expected vectors of dim {dim}, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ArgumentError("vectors contain non-finite entries")
    return matrix


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each point's nearest centroid by least squared distance, as k-means
    defines it. Scored in float64, a block of rows at a time."""
    cents = centroids.astype(np.float64, copy=False)
    c_sq = np.einsum("ij,ij->i", cents, cents)
    labels = np.empty(len(points), dtype=np.int64)
    block = max(1, 4_000_000 // len(cents))
    for start in range(0, len(points), block):
        dots = points[start : start + block].astype(np.float64, copy=False) @ cents.T
        # x.x is constant per row, so argmin of (c.c - 2 x.c) suffices
        labels[start : start + block] = np.argmin(c_sq - 2.0 * dots, axis=1)
    return labels


def _kmeans_pp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    diff = points - centroids[0]
    min_d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        total = float(min_d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=min_d2 / total))
        centroids[j] = points[idx]
        diff = points - centroids[j]
        d2 = np.einsum("ij,ij->i", diff, diff)
        np.minimum(min_d2, d2, out=min_d2)
    return centroids


def _lloyd(points: np.ndarray, k: int, iters: int, rng: np.random.Generator) -> np.ndarray:
    centroids = _kmeans_pp_seed(points, k, rng)
    n, dim = points.shape
    for _ in range(iters):
        labels = _assign(points, centroids)
        counts = np.bincount(labels, minlength=k).astype(np.int64)
        sums = np.zeros((k, dim), dtype=np.float64)
        np.add.at(sums, labels, points)

        # an empty cluster steals the farthest point of the largest cluster
        for empty in np.flatnonzero(counts == 0):
            big = int(np.argmax(counts))
            if counts[big] < 2:
                continue
            members = np.flatnonzero(labels == big)
            mean_big = sums[big] / counts[big]
            diff = points[members] - mean_big
            far = members[int(np.argmax(np.einsum("ij,ij->i", diff, diff)))]
            labels[far] = empty
            sums[big] -= points[far]
            sums[empty] += points[far]
            counts[big] -= 1
            counts[empty] += 1

        nonzero = counts > 0
        new_centroids = centroids.copy()
        new_centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1))) if k else 0.0
        centroids = new_centroids
        if shift < KMEANS_SHIFT_TOL:
            break
    return centroids


class IvfIndex:
    """Trained coarse quantizer plus contiguous inverted lists."""

    def __init__(self, config: IvfConfig, centroids: np.ndarray):
        self.config = config
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
        self._centroid_norm = _max_norm(self.centroids)
        self._set_lists(np.empty(0, np.int64), np.empty((0, config.dim), np.float32), np.zeros(config.nlist, np.int64))
        self._filled = False  # until add or load sets the lists

    @property
    def size(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self._ids.tolist())

    def list_lengths(self) -> list[int]:
        return np.diff(self._offsets).tolist()

    # -- build ---------------------------------------------------------------

    def add(self, ids, vectors) -> "IvfIndex":
        """Fill the empty index with copies of the (N, d) ``vectors``, row j under ``ids[j]``; once only."""
        if self._filled:
            raise StateError("index is already filled; an index takes one add")
        vecs = _as_matrix(vectors, self.config.dim, np.float32)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (len(vecs),):
            raise ArgumentError(f"expected one id per row: ids of shape {ids.shape} for {len(vecs)} rows")
        unique, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise ConflictError(f"id {unique[counts > 1][0]} given more than once")
        # a row's list is the first list a search for that row probes;
        # with nlist 1 every row is in list 0, and no row is scored against the centroid
        labels = np.zeros(len(vecs), np.int64)
        if self.config.nlist > 1:
            step = max(1, _BLOCK_BYTES // (4 * self.config.nlist))
            lists = np.arange(self.config.nlist)
            for a in range(0, len(vecs), step):
                labels[a : a + step] = self._best(vecs[a : a + step], self.centroids, self._centroid_norm, 1, lists)[1]
        # a stable sort keeps each list's rows in insertion order; taking them in that order copies them
        order = np.argsort(labels, kind="stable")
        self._set_lists(ids[order], vecs[order], np.bincount(labels, minlength=self.config.nlist))
        return self

    def _set_lists(self, ids: np.ndarray, vecs: np.ndarray, lengths) -> None:
        """List c holds rows offsets[c]:offsets[c + 1] of ids and vecs."""
        self._filled = True
        self._ids = ids
        self._vecs = vecs
        self._offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        self._row_list = np.repeat(np.arange(self.config.nlist), lengths)
        self._vec_norm = _max_norm(vecs)

    # -- search --------------------------------------------------------------

    def search(
        self, query: np.ndarray, k: int, nprobe_override: int | None = None
    ) -> list[SearchHit]:
        """The k best hits for ``query`` (its first row, if a matrix is given), unpadded."""
        ids, scores = self.search_many(query, k, nprobe_override)
        return [SearchHit(id=i, score=s) for i, s in zip(ids[0].tolist(), scores[0].tolist()) if s != -math.inf]

    def search_many(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ids and scores of each query row's k best hits, higher score first and ties to the
        lower id, as two arrays padded as the module says. ``nprobe`` defaults to the config's."""
        if k <= 0:
            raise ArgumentError(f"k must be positive, got {k}")
        if nprobe is not None and nprobe <= 0:
            raise ArgumentError(f"nprobe must be positive, got {nprobe}")
        # float32 queries, as embed_batch gives them, stay float32: only the
        # shortlisted (query, row) pairs are lifted to float64
        dtype = np.float32 if getattr(queries, "dtype", None) == np.float32 else np.float64
        queries = _as_matrix(queries, self.config.dim, dtype)
        nprobe = min(nprobe or self.config.nprobe, self.config.nlist)
        ids = np.full((len(queries), min(k, self.size)), -1, dtype=np.int64)
        scores = np.full(ids.shape, -np.inf)
        step = max(1, _BLOCK_BYTES // (4 * max(len(self._ids), self.config.nlist)))
        for start in range(0, len(queries), step):
            qi, hit_ids, hit_scores = self._search_block(queries[start : start + step], k, nprobe)
            at = (start + qi, np.arange(len(qi)) - np.searchsorted(qi, qi))
            ids[at] = hit_ids
            scores[at] = hit_scores
        return ids, scores

    def _search_block(self, queries: np.ndarray, k: int, nprobe: int):
        """(query row, id, score) of every hit of the block, best first per row."""
        # rows: the rows scored, if not all; keep (queries, scored rows): the query probes the row's list
        rows = keep = None
        if nprobe < self.config.nlist:
            probed = self._probe(queries, nprobe)
            used = probed.any(axis=0)
            n_used = np.count_nonzero(used)
            if n_used < len(used):
                # score only the rows of the lists that some query of the block probes
                rows = np.flatnonzero(used[self._row_list])
            if np.count_nonzero(probed) < len(queries) * n_used:
                keep = probed[:, self._row_list if rows is None else self._row_list[rows]]
        qi, col, scores = self._best(queries, self._vecs, self._vec_norm, k, self._ids, rows, keep)
        return qi, self._ids[col], scores

    def _probe(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """Boolean (queries, nlist): each query's nprobe best lists, chosen as ``_best`` chooses rows."""
        qi, lists, _ = self._best(queries, self.centroids, self._centroid_norm, nprobe, np.arange(self.config.nlist))
        probed = np.zeros((len(queries), self.config.nlist), dtype=bool)
        probed[qi, lists] = True
        return probed

    def _best(self, queries, vecs, v_norm: float, k: int, tie, rows=None, keep=None):
        """(query row, row of ``vecs``, float64 score) of each query's k best rows, best first per
        query: higher score, then lower ``tie`` (one per row of ``vecs``). Only ``rows``, if given,
        are scored, and of those only where ``keep`` (queries, scored rows) holds. ``v_norm``
        bounds the norm of every row of ``vecs``."""
        scored = vecs if rows is None else vecs[rows]
        if len(scored) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        # with at most 2k rows the float32 pass would keep nearly all of them
        if len(scored) > 2 * k:
            # float32 may overflow, and inf - inf is NaN; then the error bound is infinite,
            # a NaN is kept, and every row is re-scored
            with np.errstate(over="ignore", invalid="ignore"):
                approx = queries.astype(np.float32, copy=False) @ scored.T
                if keep is not None:
                    approx[~keep] = -np.inf
                margin = 2.0 * self._error_bound(_max_norm(queries), v_norm)
                within = ~(approx < _kth_best(approx, k) - margin)
            keep = within if keep is None else keep & within
        elif keep is None:
            keep = np.ones((len(queries), len(scored)), dtype=bool)
        # row-major, so each query's entries are contiguous and qi ascends
        qi, col = np.divmod(np.flatnonzero(keep), len(scored))
        if rows is not None:
            col = rows[col]
        scores = self._exact_scores(vecs, col, queries, qi)
        # qi ascends, so the sort keeps each query's entries in place: an entry's rank is its offset from the first
        order = np.lexsort((tie[col], -scores, qi))
        best = order[np.arange(len(qi)) - np.searchsorted(qi, qi) < k]
        return qi[best], col[best], scores[best]

    def _error_bound(self, q_norm: float, v_norm: float) -> float:
        """A bound on |float32 score - float64 score| for queries of norm at
        most ``q_norm`` and rows of norm at most ``v_norm``.

        With gamma(n) = n u / (1 - n u) and u = 2^-24: a float32 dot product of
        length d, in any summation order and with the query rounded to float32
        first, errs by at most gamma(d+1) |q| |v| (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 3). The float64 re-score errs by
        about 2^-29 times less, which the step from gamma(d+1) to gamma(d+3)
        covers. The second term bounds underflow.
        """
        n = self.config.dim + 3
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        if not (q_norm + v_norm) ** 2 < _SAFE_REACH:
            # a float32 partial sum may overflow: every candidate is re-scored
            return math.inf
        return gamma * q_norm * v_norm + n * _FLOAT32_TINY * (1.0 + v_norm)

    def _exact_scores(self, vecs: np.ndarray, rows: np.ndarray, queries: np.ndarray, qi: np.ndarray) -> np.ndarray:
        """float64 score of vecs[rows[j]] for query queries[qi[j]], one row at
        a time, so a score does not depend on which other rows are scored."""
        step = max(1, _BLOCK_BYTES // (16 * self.config.dim))
        if len(rows) > step:
            return np.concatenate([
                self._exact_scores(vecs, rows[a : a + step], queries, qi[a : a + step])
                for a in range(0, len(rows), step)
            ])
        return np.einsum("ij,ij->i", vecs[rows].astype(np.float64), queries[qi].astype(np.float64, copy=False))

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(
                _HEADER.pack(
                    INDEX_MAGIC,
                    self.config.dim,
                    self.config.nlist,
                    _COSINE_CODE,
                    self.size,
                )
            )
            fh.write(self.centroids.astype("<f4").tobytes(order="C"))
            for a, b in zip(self._offsets[:-1].tolist(), self._offsets[1:].tolist()):
                fh.write(struct.pack("<Q", b - a))
                fh.write(self._ids[a:b].astype("<i8").tobytes(order="C"))
                fh.write(self._vecs[a:b].astype("<f4").tobytes(order="C"))

    @classmethod
    def load(cls, path: str | Path, nprobe: int = IvfConfig.nprobe) -> "IvfIndex":
        raw = Path(path).read_bytes()
        if len(raw) < _HEADER.size:
            raise ArgumentError(f"{path}: truncated index file")
        magic, dim, nlist, metric_code, size = _HEADER.unpack_from(raw, 0)
        if magic != INDEX_MAGIC:
            raise ArgumentError(f"{path}: bad magic {magic!r}")
        if metric_code != _COSINE_CODE:
            raise ArgumentError(f"{path}: metric byte {metric_code}, not {_COSINE_CODE} (cosine)")
        cfg = IvfConfig(dim=dim, nlist=nlist, nprobe=min(nprobe, nlist))
        offset = _HEADER.size

        def take(dtype: str, count: int) -> np.ndarray:
            nonlocal offset
            nbytes = np.dtype(dtype).itemsize * count
            if offset + nbytes > len(raw):
                raise ArgumentError(
                    f"{path}: truncated index file ({len(raw)} bytes, "
                    f"{offset + nbytes} needed so far)"
                )
            arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
            offset += nbytes
            return arr

        # take() returns views into the file bytes; every array the index keeps is a copy
        index = cls(cfg, take("<f4", nlist * dim).reshape(nlist, dim).copy())
        lengths, id_parts, vec_parts = [], [], []
        for _ in range(nlist):
            lengths.append(int(take("<u8", 1)[0]))
            id_parts.append(take("<i8", lengths[-1]))
            vec_parts.append(take("<f4", lengths[-1] * dim))
        if offset != len(raw):
            raise ArgumentError(f"{path}: {len(raw) - offset} trailing bytes after the last list")
        if sum(lengths) != size:
            raise ArgumentError(f"{path}: header size {size} != stored {sum(lengths)}")
        ids = np.concatenate(id_parts).astype(np.int64, copy=False)
        unique, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise ArgumentError(f"{path}: id {unique[counts > 1][0]} stored more than once")
        vecs = np.concatenate(vec_parts).astype(np.float32, copy=False).reshape(-1, dim)
        index._set_lists(ids, vecs, np.asarray(lengths))
        return index


def _max_norm(matrix: np.ndarray) -> float:
    """The largest row norm, its squares accumulated in float64; 0 without rows."""
    return math.sqrt(float(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64).max(initial=0.0)))


def _kth_best(approx: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th largest entry, as a column.

    Up to _ARGMAX_MAX_K, k - 1 row-wise argmax passes each set the row's best
    entry to -inf, in place, and a row-wise max reads the k-th; the entries
    are restored before returning. Beyond it, selecting the k-th smallest of
    the negated scores stays fast when most entries are a masked -inf.
    """
    if k > _ARGMAX_MAX_K:
        neg = -approx
        neg.partition(k - 1, axis=1)
        return -neg[:, k - 1, None]
    rows = np.arange(len(approx))
    taken = []
    for _ in range(k - 1):
        col = approx.argmax(axis=1)
        taken.append((col, approx[rows, col]))
        approx[rows, col] = -np.inf
    kth = approx.max(axis=1, keepdims=True)
    # in reverse, so an entry taken twice (a row of -inf) gets its first value back
    for col, value in reversed(taken):
        approx[rows, col] = value
    return kth


def cluster_range_bounds(n_vectors: int) -> tuple[float, float]:
    root = math.sqrt(n_vectors)
    return CLUSTER_RANGE_LOW * root, CLUSTER_RANGE_HIGH * root


def train(vectors, cfg: IvfConfig) -> IvfIndex:
    """Run seeded k-means over the training vectors; returns an empty index.

    With nlist 1 the index is the exact flat index: its one centroid is the
    mean of the vectors, with no k-means, no range warning and no float64
    copy of the vectors.

    Raises TrainingError when there are fewer vectors than nlist; warns (but
    proceeds) when nlist is outside the recommended cluster-count band.
    """
    matrix = _as_matrix(vectors, cfg.dim, dtype=None if cfg.nlist == 1 else np.float64)
    n = matrix.shape[0]
    if n < cfg.nlist:
        raise TrainingError(f"need at least nlist={cfg.nlist} training vectors, got {n}")
    if cfg.nlist == 1:
        return IvfIndex(cfg, matrix.mean(axis=0, dtype=np.float64)[None, :])
    low, high = cluster_range_bounds(n)
    if not (low <= cfg.nlist <= high):
        warnings.warn(
            f"nlist={cfg.nlist} outside recommended range "
            f"[{low:.0f}, {high:.0f}] for {n} vectors",
            ClusterRangeWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(cfg.seed)
    centroids = _lloyd(matrix, cfg.nlist, cfg.kmeans_iters, rng)
    return IvfIndex(cfg, centroids)
