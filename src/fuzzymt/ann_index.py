"""IVF-Flat approximate nearest neighbor index built from scratch.

A k-means coarse quantizer (k-means++ seeding, Lloyd iterations) partitions
the collection into nlist inverted lists; a query exhaustively scores only
the vectors in its nprobe nearest lists. With nprobe == nlist the search is
exactly brute force.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, ConflictError, StateError, TrainingError

METRIC_L2 = "l2"
METRIC_COSINE = "cosine"

INDEX_MAGIC = b"IVF1"
_HEADER = struct.Struct("<4sIIBQ")  # magic, dim, nlist, metric, size
_METRIC_CODES = {METRIC_L2: 0, METRIC_COSINE: 1}
_METRIC_NAMES = {v: k for k, v in _METRIC_CODES.items()}

KMEANS_SHIFT_TOL = 1e-6
# Faiss guideline: nlist should sit between 4*sqrt(N) and 16*sqrt(N).
CLUSTER_RANGE_LOW = 4.0
CLUSTER_RANGE_HIGH = 16.0


class ClusterRangeWarning(UserWarning):
    """nlist falls outside the recommended [4*sqrt(N), 16*sqrt(N)] band."""


@dataclass
class IvfConfig:
    dim: int
    nlist: int = 4096
    nprobe: int = 32
    metric: str = METRIC_COSINE
    kmeans_iters: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.dim <= 0:
            raise ArgumentError(f"dim must be positive, got {self.dim}")
        if self.nlist <= 0:
            raise ArgumentError(f"nlist must be positive, got {self.nlist}")
        if not (1 <= self.nprobe <= self.nlist):
            raise ArgumentError(f"nprobe must be in [1, nlist={self.nlist}], got {self.nprobe}")
        if self.metric not in _METRIC_CODES:
            raise ArgumentError(f"metric must be one of {sorted(_METRIC_CODES)}, got {self.metric!r}")
        if self.kmeans_iters <= 0:
            raise ArgumentError(f"kmeans_iters must be positive, got {self.kmeans_iters}")


@dataclass(frozen=True)
class SearchHit:
    id: int
    score: float


def _as_matrix(vectors, dim: int) -> np.ndarray:
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2 or matrix.shape[1] != dim:
        raise ArgumentError(f"expected vectors of dim {dim}, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ArgumentError("vectors contain non-finite entries")
    return matrix


def _assign_nearest_l2(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Argmin squared L2 over centroids, chunked to bound memory."""
    n = points.shape[0]
    k = centroids.shape[0]
    labels = np.empty(n, dtype=np.int64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    block = max(1, 4_000_000 // max(k, 1))
    for start in range(0, n, block):
        chunk = points[start : start + block]
        # x.x is constant per row, so argmin of (c.c - 2 x.c) suffices
        d = c_sq[None, :] - 2.0 * (chunk @ centroids.T)
        labels[start : start + block] = np.argmin(d, axis=1)
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
        labels = _assign_nearest_l2(points, centroids)
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
    """Trained coarse quantizer plus per-centroid inverted lists."""

    def __init__(self, config: IvfConfig, centroids: np.ndarray):
        self.config = config
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
        self.sealed = False
        self._list_ids: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(config.nlist)
        ]
        self._list_vecs: list[np.ndarray] = [
            np.empty((0, config.dim), dtype=np.float32) for _ in range(config.nlist)
        ]
        self._known_ids: set[int] = set()

    @property
    def size(self) -> int:
        return len(self._known_ids)

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self._known_ids)

    def list_lengths(self) -> list[int]:
        return [len(ids) for ids in self._list_ids]

    def seal(self) -> None:
        self.sealed = True

    # -- build ---------------------------------------------------------------

    def add(self, items: Iterable[tuple[int, np.ndarray]]) -> "IvfIndex":
        if self.sealed:
            raise StateError("index is sealed; no further additions allowed")
        items = list(items)
        if not items:
            return self
        ids = [int(i) for i, _ in items]
        seen_batch = set()
        for i in ids:
            if i in self._known_ids or i in seen_batch:
                raise ConflictError(f"id {i} already present in index")
            seen_batch.add(i)
        matrix = _as_matrix([v for _, v in items], self.config.dim)
        labels = self._nearest_centroids(matrix)
        id_arr = np.asarray(ids, dtype=np.int64)
        for lst in np.unique(labels):
            mask = labels == lst
            self._list_ids[lst] = np.concatenate([self._list_ids[lst], id_arr[mask]])
            self._list_vecs[lst] = np.concatenate(
                [self._list_vecs[lst], matrix[mask].astype(np.float32)]
            )
        self._known_ids.update(ids)
        return self

    def _nearest_centroids(self, matrix: np.ndarray) -> np.ndarray:
        cents = self.centroids.astype(np.float64)
        if self.config.metric == METRIC_COSINE:
            sims = matrix @ cents.T
            return np.argmax(sims, axis=1)
        return _assign_nearest_l2(matrix, cents)

    # -- search --------------------------------------------------------------

    def _rank_centroids(self, query: np.ndarray) -> np.ndarray:
        cents = self.centroids.astype(np.float64)
        if self.config.metric == METRIC_COSINE:
            key = -(cents @ query)
        else:
            diff = cents - query
            key = np.einsum("ij,ij->i", diff, diff)
        return np.lexsort((np.arange(len(cents)), key))

    def _score(self, vecs: np.ndarray, query: np.ndarray) -> np.ndarray:
        v = vecs.astype(np.float64)
        if self.config.metric == METRIC_COSINE:
            return v @ query
        diff = v - query
        return -np.einsum("ij,ij->i", diff, diff)

    def search(
        self, query: np.ndarray, k: int, nprobe_override: int | None = None
    ) -> list[SearchHit]:
        if k <= 0:
            raise ArgumentError(f"k must be positive, got {k}")
        if nprobe_override is not None and nprobe_override <= 0:
            raise ArgumentError(f"nprobe must be positive, got {nprobe_override}")
        if self.size == 0:
            return []
        q = _as_matrix(query, self.config.dim)[0]
        nprobe = min(nprobe_override or self.config.nprobe, self.config.nlist)
        probed = self._rank_centroids(q)[:nprobe]
        id_parts = [self._list_ids[c] for c in probed if len(self._list_ids[c])]
        if not id_parts:
            return []
        ids = np.concatenate(id_parts)
        scores = np.concatenate(
            [self._score(self._list_vecs[c], q) for c in probed if len(self._list_ids[c])]
        )
        order = np.lexsort((ids, -scores))[:k]
        return [SearchHit(id=int(ids[i]), score=float(scores[i])) for i in order]

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(
                _HEADER.pack(
                    INDEX_MAGIC,
                    self.config.dim,
                    self.config.nlist,
                    _METRIC_CODES[self.config.metric],
                    self.size,
                )
            )
            fh.write(self.centroids.astype("<f4").tobytes(order="C"))
            for ids, vecs in zip(self._list_ids, self._list_vecs):
                fh.write(struct.pack("<Q", len(ids)))
                fh.write(ids.astype("<i8").tobytes(order="C"))
                fh.write(vecs.astype("<f4").tobytes(order="C"))

    @classmethod
    def load(cls, path: str | Path, nprobe: int | None = None) -> "IvfIndex":
        raw = Path(path).read_bytes()
        if len(raw) < _HEADER.size:
            raise ArgumentError(f"{path}: truncated index file")
        magic, dim, nlist, metric_code, size = _HEADER.unpack_from(raw, 0)
        if magic != INDEX_MAGIC:
            raise ArgumentError(f"{path}: bad magic {magic!r}")
        if metric_code not in _METRIC_NAMES:
            raise ArgumentError(f"{path}: unknown metric code {metric_code}")
        cfg = IvfConfig(
            dim=dim,
            nlist=nlist,
            nprobe=min(nprobe if nprobe is not None else 32, nlist),
            metric=_METRIC_NAMES[metric_code],
        )
        offset = _HEADER.size

        def take(dtype: str, count: int) -> np.ndarray:
            nonlocal offset
            nbytes = np.dtype(dtype).itemsize * count
            if offset + nbytes > len(raw):
                raise ArgumentError(
                    f"{path}: truncated index file ({len(raw)} bytes, "
                    f"{offset + nbytes} needed so far)"
                )
            arr = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).copy()
            offset += nbytes
            return arr

        index = cls(cfg, take("<f4", nlist * dim).reshape(nlist, dim))
        total = 0
        for lst in range(nlist):
            length = int(take("<u8", 1)[0])
            ids = take("<i8", length)
            index._list_ids[lst] = ids
            index._list_vecs[lst] = take("<f4", length * dim).reshape(length, dim)
            index._known_ids.update(int(i) for i in ids)
            total += length
        if offset != len(raw):
            raise ArgumentError(f"{path}: {len(raw) - offset} trailing bytes after the last list")
        if total != size:
            raise ArgumentError(f"{path}: header size {size} != stored {total}")
        return index


def cluster_range_bounds(n_vectors: int) -> tuple[float, float]:
    root = math.sqrt(n_vectors)
    return CLUSTER_RANGE_LOW * root, CLUSTER_RANGE_HIGH * root


def train(vectors, cfg: IvfConfig) -> IvfIndex:
    """Run seeded k-means over the training vectors; returns an empty index.

    Raises TrainingError when there are fewer vectors than nlist; warns (but
    proceeds) when nlist is outside the recommended cluster-count band.
    """
    matrix = _as_matrix(vectors, cfg.dim)
    n = matrix.shape[0]
    if n < cfg.nlist:
        raise TrainingError(f"need at least nlist={cfg.nlist} training vectors, got {n}")
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
