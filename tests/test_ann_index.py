from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzymt import ann_index
from fuzzymt.ann_index import (
    ClusterRangeWarning,
    IvfConfig,
    IvfIndex,
    cluster_range_bounds,
    train,
)
from fuzzymt.errors import ArgumentError, ConflictError, StateError, TrainingError

from oracles import brute_force_ids


def hit_lists(ids, scores):
    """``search_many``'s arrays as one [(id, score), ...] list per query, its -inf padding dropped."""
    return [[(i, s) for i, s in zip(row_ids, row_scores) if s != -math.inf]
            for row_ids, row_scores in zip(ids.tolist(), scores.tolist())]


def unit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, dim))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            IvfConfig(dim=0)
        with pytest.raises(ArgumentError, match="nprobe must be at most nlist=2, got 3"):
            IvfConfig(dim=4, nlist=2, nprobe=3)
        with pytest.raises(ArgumentError, match="nprobe must be at least 1, got 0"):
            IvfConfig(dim=4, nlist=2, nprobe=0)

    def test_defaults_match_reference_setup(self):
        cfg = IvfConfig(dim=384)
        assert (cfg.nlist, cfg.nprobe) == (4096, 32)


@pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
class TestTrain:
    def test_single_centroid_is_mean(self):
        vectors = unit_rows(40, 8, seed=1)
        cfg = IvfConfig(dim=8, nlist=1, nprobe=1, kmeans_iters=5, seed=0)
        index = train(vectors, cfg)
        assert np.allclose(index.centroids[0], vectors.mean(axis=0), atol=1e-5)

    def test_single_centroid_never_warns(self, recwarn):
        # nlist 1 lies below the band for any N above 1/16
        for n in (1, 40, 400):
            index = train(unit_rows(n, 8, seed=4), IvfConfig(dim=8, nlist=1, nprobe=1))
            assert index.centroids.shape == (1, 8)
        assert not [w for w in recwarn if issubclass(w.category, ClusterRangeWarning)]

    def test_single_centroid_checks_input(self):
        with pytest.raises(TrainingError):
            train(np.empty((0, 8), dtype=np.float32), IvfConfig(dim=8, nlist=1, nprobe=1))
        with pytest.raises(ArgumentError):
            train(unit_rows(4, 6, seed=0), IvfConfig(dim=8, nlist=1, nprobe=1))
        rows = unit_rows(4, 8, seed=0)
        rows[2, 3] = np.nan
        with pytest.raises(ArgumentError):
            train(rows, IvfConfig(dim=8, nlist=1, nprobe=1))

    def test_two_separated_clouds(self):
        rng = np.random.default_rng(0)
        cloud_a = rng.normal(loc=0.0, scale=0.01, size=(20, 8))
        cloud_b = rng.normal(loc=10.0, scale=0.01, size=(20, 8))
        vectors = np.concatenate([cloud_a, cloud_b]).astype(np.float32)
        cfg = IvfConfig(dim=8, nlist=2, nprobe=2, kmeans_iters=10, seed=0)
        with pytest.warns(ClusterRangeWarning):
            index = train(vectors, cfg)
        # direct two-mean oracle: each cloud's component-wise mean
        means = np.stack([cloud_a.mean(axis=0), cloud_b.mean(axis=0)])
        got = np.asarray(sorted(index.centroids.tolist()))
        want = np.asarray(sorted(means.tolist()))
        assert np.allclose(got, want, atol=1e-3)

    def test_too_few_vectors(self):
        with pytest.raises(TrainingError):
            train(unit_rows(3, 8, seed=0), IvfConfig(dim=8, nlist=4, nprobe=1))

    def test_range_warning_bounds(self):
        low, high = cluster_range_bounds(50_000)
        assert low == pytest.approx(894.4, abs=0.1)
        assert high == pytest.approx(3577.7, abs=0.1)

    def test_warning_when_nlist_outside_band(self):
        vectors = unit_rows(400, 8, seed=2)
        cfg = IvfConfig(dim=8, nlist=350, nprobe=1, kmeans_iters=1, seed=0)
        with pytest.warns(ClusterRangeWarning):
            train(vectors, cfg)

    def test_no_warning_inside_band(self, recwarn):
        vectors = unit_rows(400, 8, seed=2)
        cfg = IvfConfig(dim=8, nlist=100, nprobe=1, kmeans_iters=1, seed=0)
        train(vectors, cfg)
        assert not [w for w in recwarn if issubclass(w.category, ClusterRangeWarning)]

    def test_deterministic_for_seed(self):
        vectors = unit_rows(100, 8, seed=5)
        cfg = IvfConfig(dim=8, nlist=4, nprobe=4, kmeans_iters=10, seed=9)
        a = train(vectors, cfg)
        b = train(vectors, cfg)
        assert a.centroids.tobytes() == b.centroids.tobytes()


@pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
class TestAdd:
    def _trained(self, n=64, dim=8, nlist=4):
        vectors = unit_rows(n, dim, seed=3)
        cfg = IvfConfig(dim=dim, nlist=nlist, nprobe=nlist, kmeans_iters=8, seed=0)
        return train(vectors, cfg), vectors

    def test_size_and_list_lengths(self):
        index, vectors = self._trained(n=100)
        index.add(range(100), vectors)
        assert index.size == 100
        assert sum(index.list_lengths()) == 100

    def test_vector_equal_to_centroid_lands_in_its_list(self):
        index, _ = self._trained()
        centroid = index.centroids[2].copy()
        index.add([7], [centroid])
        assert 7 in index._ids[index._offsets[2] : index._offsets[3]]

    def test_duplicate_id_conflict(self):
        index, vectors = self._trained()
        with pytest.raises(ConflictError, match="id 0 given more than once"):
            index.add([0, 1, 0], vectors[:3])

    def test_second_add_rejected(self):
        index, vectors = self._trained()
        index.add([0], vectors[:1])
        with pytest.raises(StateError):
            index.add([1], vectors[1:2])

    @pytest.mark.parametrize("nlist", [1, 4])
    def test_value_beyond_float32_rejected(self, nlist):
        index, _ = self._trained(dim=4, nlist=nlist)
        with pytest.raises(ArgumentError, match="non-finite"):
            index.add([0, 1], [[1e39, 0, 0, 0], [0, 1, 0, 0]])

    @pytest.mark.parametrize("nlist", [1, 4])
    def test_ragged_rows_rejected(self, nlist):
        index, _ = self._trained(dim=4, nlist=nlist)
        with pytest.raises(ArgumentError, match="expected vectors of dim 4"):
            index.add([0, 1], [[1, 2, 3, 4], [1, 2]])

    def test_ids_and_rows_differ_in_count(self):
        index, vectors = self._trained()
        with pytest.raises(ArgumentError, match=r"one id per row: ids of shape \(3,\) for 2 rows"):
            index.add([0, 1, 2], vectors[:2])

    @pytest.mark.parametrize("nlist", [1, 4])
    def test_later_writes_to_the_callers_arrays_do_not_reach_the_index(self, nlist):
        index, vectors = self._trained(nlist=nlist)
        ids = np.arange(len(vectors))
        queries = vectors[:5].copy()
        index.add(ids, vectors)
        before = hit_lists(*index.search_many(queries, 3))
        vectors *= -1
        ids += 100
        assert hit_lists(*index.search_many(queries, 3)) == before
        assert before[0][0][0] == 0

    def test_flat_add_peak_memory(self):
        index, vectors = self._trained(n=2000, dim=384, nlist=1)
        tracemalloc.start()
        try:
            index.add(range(2000), vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 rows once, plus bounded scratch: no float64 copy, no reordered copy
        assert peak <= 2 * vectors.nbytes


@pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
class TestSearch:
    def _built(self, n=200, dim=16, nlist=8, seed=0):
        vectors = unit_rows(n, dim, seed=seed)
        cfg = IvfConfig(dim=dim, nlist=nlist, nprobe=nlist, kmeans_iters=8, seed=0)
        index = train(vectors, cfg)
        index.add(range(n), vectors)
        return index, vectors

    def test_self_match_rank_one(self):
        index, vectors = self._built()
        hits = index.search(vectors[17], k=3, nprobe_override=1)
        assert hits[0].id == 17
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_exhaustive_equivalence(self):
        index, vectors = self._built()
        ids = np.arange(len(vectors))
        query = unit_rows(1, 16, seed=99)[0]
        got = [h.id for h in index.search(query, k=20)]
        want = brute_force_ids(vectors, ids, query, 20)
        assert got == want

    def test_k_must_be_positive(self):
        index, _ = self._built()
        with pytest.raises(ArgumentError):
            index.search(np.zeros(16, dtype=np.float32), k=0)

    def test_ragged_queries_rejected(self):
        index, _ = self._built(dim=4, nlist=2)
        with pytest.raises(ArgumentError, match="expected vectors of dim 4"):
            index.search_many([[1, 2, 3, 4], [1, 2]], 1)

    def test_empty_index_returns_empty(self):
        vectors = unit_rows(32, 8, seed=1)
        cfg = IvfConfig(dim=8, nlist=2, nprobe=2, kmeans_iters=4, seed=0)
        index = train(vectors, cfg)
        assert index.search(vectors[0], k=5) == []

    def test_k_beyond_size_gives_width_size(self):
        index, vectors = self._built(n=5, dim=4, nlist=1)
        ids, scores = index.search_many(vectors[:2], 2**40)
        assert ids.shape == scores.shape == (2, 5)
        assert (ids.dtype, scores.dtype) == (np.int64, np.float64)
        assert sorted(ids[0].tolist()) == list(range(5))
        assert np.isfinite(scores).all()

    def test_probed_list_shorter_than_k_padded(self):
        # two lists: ids 0-2 near (1, 0) and ids 3-4 near (-1, 0)
        index = IvfIndex(IvfConfig(dim=2, nlist=2, nprobe=1), np.array([[1.0, 0.0], [-1.0, 0.0]]))
        index.add(range(5), [[1.0, 0.1], [1.0, 0.2], [1.0, -0.1], [-1.0, 0.1], [-1.0, -0.2]])
        query = np.array([-1.0, 0.05])
        ids, scores = index.search_many(query, 4)
        assert ids.tolist() == [[3, 4, -1, -1]]
        assert scores[0, 2:].tolist() == [-math.inf, -math.inf]
        assert np.isfinite(scores[0, :2]).all()
        assert [h.id for h in index.search(query, 4)] == [3, 4]
        assert [h.id for h in index.search(query, 4, nprobe_override=2)] == [3, 4, 1, 0]

    def test_tie_break_ascending_id(self):
        vectors = unit_rows(8, 8, seed=4)
        duplicated = np.concatenate([vectors, vectors[:1]])
        cfg = IvfConfig(dim=8, nlist=2, nprobe=2, kmeans_iters=4, seed=0)
        index = train(duplicated, cfg)
        index.add(range(9), duplicated)
        hits = index.search(vectors[0], k=3)
        assert hits[0].score == pytest.approx(hits[1].score, abs=1e-12)
        assert (hits[0].id, hits[1].id) == (0, 8)

    def test_recall_monotone_in_nprobe(self):
        index, vectors = self._built(n=300, dim=16, nlist=8)
        ids = np.arange(len(vectors))
        queries = unit_rows(20, 16, seed=123)
        previous = -1.0
        for nprobe in (1, 2, 4, 8):
            hits_found = 0
            for q in queries:
                exact = set(brute_force_ids(vectors, ids, q, 10))
                got = {h.id for h in index.search(q, k=10, nprobe_override=nprobe)}
                hits_found += len(exact & got)
            recall = hits_found / (10 * len(queries))
            assert recall >= previous
            previous = recall
        assert previous == pytest.approx(1.0)


def nudged(rng, rows):
    """Copies of float32 ``rows``, each equal or one ulp apart in one coordinate."""
    out = np.array(rows, dtype=np.float32)
    where = (np.arange(len(out)), rng.integers(out.shape[1], size=len(out)))
    toward = out[where] + rng.integers(-1, 2, size=len(out)).astype(np.float32)
    out[where] = np.nextafter(out[where], toward)
    return out


def exact_top(vectors, ids, rows, query, k):
    """Row-wise float64 brute force over ``rows``: higher score first, ties to the lower id."""
    v = np.asarray(vectors, dtype=np.float32)[rows].astype(np.float64)
    q = np.asarray(query, dtype=np.float64)
    scores = np.einsum("ij,j->i", v, q)
    row_ids = np.asarray(ids)[rows]
    return [(int(row_ids[i]), float(scores[i])) for i in np.lexsort((row_ids, -scores))[:k]]


def exact_probe_lists(index, query, nprobe):
    """The query's nprobe best lists, ranked by the row-wise float64 centroid
    scores that ``_exact_scores`` computes, ties to the lower list."""
    cents = index.centroids.astype(np.float64)
    q = np.repeat(np.asarray(query, dtype=np.float64)[None], len(cents), axis=0)
    scores = np.einsum("ij,ij->i", cents, q)
    return sorted(np.lexsort((np.arange(len(cents)), -scores))[:nprobe].tolist())


def exact_probe_ids(index, query, nprobe):
    """Ids stored in the query's nprobe best lists."""
    lists = exact_probe_lists(index, query, nprobe)
    return np.concatenate([index._ids[index._offsets[c] : index._offsets[c + 1]] for c in lists])


@pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
class TestExactTies:
    @pytest.mark.parametrize("tail", [1, 2])
    def test_duplicates_score_bit_equal_in_ascending_id_order(self, tail):
        dim, copies, nlist = 48, 7, 4
        originals = unit_rows(5, dim, seed=31)
        filler = unit_rows(140, dim, seed=32)
        # each original recurs after filler runs of uneven length
        pieces = [filler[:20]]
        for c in range(copies):
            pieces += [filler[20 + 17 * c : 20 + 17 * c + (17 if c < copies - 1 else tail)], originals]
        rows = np.concatenate(pieces)
        index = train(rows, IvfConfig(dim=dim, nlist=nlist, nprobe=nlist, kmeans_iters=6, seed=0))
        # inserted in a shuffled order, so the copies sit at varied positions of their lists
        order = np.random.default_rng(tail).permutation(len(rows))
        index.add(order, rows[order])
        copy_ids = [np.flatnonzero((rows == o).all(axis=1)).tolist() for o in originals]
        lists = [index._ids[index._offsets[c] : index._offsets[c + 1]] for c in range(nlist)]
        assert sum(np.isin(ids, sum(copy_ids, [])).any() for ids in lists) >= 2
        queries = originals + 0.02 * np.random.default_rng(13).normal(size=originals.shape)
        batched = hit_lists(*index.search_many(queries, copies))
        for q, want, many in zip(queries, copy_ids, batched):
            for hits in ([(h.id, h.score) for h in index.search(q, copies)], many):
                assert [i for i, _ in hits] == want
                assert len({s for _, s in hits}) == 1

    @pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
    @pytest.mark.parametrize("nlist", [1, 4])
    # 1: one query per search block and one row per re-score block;
    # 4800: 4 queries per search block and 18 rows per re-score block
    @pytest.mark.parametrize("block_bytes", [1, 4800])
    def test_small_blocks_give_equal_hits(self, monkeypatch, nlist, block_bytes):
        rows = unit_rows(300, 16, seed=19)
        index = train(rows, IvfConfig(dim=16, nlist=nlist, nprobe=min(2, nlist), kmeans_iters=6))
        index.add(range(len(rows)), rows)
        queries = rows[:40] + 0.05 * np.random.default_rng(20).normal(size=(40, 16))
        default = hit_lists(*index.search_many(queries, 5))
        sizes = []
        exact = IvfIndex._exact_scores

        def counted(self, vecs, rows, q64, qi):
            sizes.append(len(rows))
            return exact(self, vecs, rows, q64, qi)

        monkeypatch.setattr(IvfIndex, "_exact_scores", counted)
        monkeypatch.setattr(ann_index, "_BLOCK_BYTES", block_bytes)
        assert hit_lists(*index.search_many(queries, 5)) == default
        assert max(sizes) > 1 + block_bytes // (16 * 16)  # so a call split its rows into blocks

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        dim=st.integers(1, 24),
        nlist=st.integers(1, 5),
        k=st.integers(1, 12),
        ties=st.integers(0, 12),
    )
    def test_search_many_is_search_and_exact(self, seed, n, dim, nlist, k, ties):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, dim)).astype(np.float32)
        vectors = np.concatenate([base, nudged(rng, base[rng.integers(n, size=ties)])])
        ids = rng.permutation(len(vectors)) * 3 + 1
        # centroids at stored rows, some one ulp from the one before: near-tied lists
        centroids = vectors[rng.integers(len(vectors), size=nlist)]
        for j in np.flatnonzero(rng.random(nlist) < 0.5)[1:]:
            centroids[j] = nudged(rng, centroids[j - 1 : j])[0]
        index = IvfIndex(IvfConfig(dim=dim, nlist=nlist, nprobe=nlist), centroids)
        index.add(ids, vectors)
        queries = np.concatenate([rng.normal(size=(4, dim)), vectors[rng.integers(len(vectors), size=4)]])
        row_of = {int(i): r for r, i in enumerate(ids)}
        for nprobe in range(1, nlist + 1):
            many = hit_lists(*index.search_many(queries, k, nprobe))
            assert many == [[(h.id, h.score) for h in index.search(q, k, nprobe)] for q in queries]
            for q, hits in zip(queries, many):
                rows = [row_of[i] for i in exact_probe_ids(index, q, nprobe).tolist()]
                assert hits == exact_top(vectors, ids, rows, q, k)


class TestOneRule:
    # draws whose exact tie v . c == v . perm(c) a BLAS argmax over the centroids
    # and the probe's row-wise float64 re-score break toward different lists
    @pytest.mark.parametrize("seed", [0, 1, 3, 9])
    def test_constant_row_found_between_permuted_centroids(self, seed):
        dim = 384
        rng = np.random.default_rng(seed)
        c = rng.normal(size=dim).astype(np.float32)
        v = np.full(dim, 1 / math.sqrt(dim), dtype=np.float32)
        index = IvfIndex(IvfConfig(dim=dim, nlist=2, nprobe=1), np.stack([c, c[rng.permutation(dim)]]))
        index.add([7], v[None])
        assert [h.id for h in index.search(v, 1, nprobe_override=1)] == [7]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 30),
        dim=st.integers(1, 24),
        nlist=st.integers(2, 7),
        constant=st.integers(0, 8),
        # 1e19: float32 scores overflow, so the error bound is infinite
        scale=st.sampled_from([1.0, 1e19]),
    )
    def test_rows_filed_where_the_probe_looks(self, seed, n, dim, nlist, constant, scale):
        rng = np.random.default_rng(seed)
        centroids = (scale * rng.normal(size=(nlist, dim))).astype(np.float32)
        for j in np.flatnonzero(rng.random(nlist) < 0.5)[1:]:
            centroids[j] = centroids[j - 1][rng.permutation(dim)]
        # a row of equal coordinates (zero included) has exactly equal dot products with
        # a centroid and its permutation, which float sums in another order may tell apart
        rows = np.concatenate([
            scale * rng.normal(size=(n, dim)),
            np.repeat(scale * rng.integers(-2, 3, size=(constant, 1)), dim, axis=1),
            centroids[rng.integers(nlist, size=2)],
        ]).astype(np.float32)
        index = IvfIndex(IvfConfig(dim=dim, nlist=nlist, nprobe=1), centroids)
        index.add(rng.permutation(len(rows)), rows)
        for c in range(nlist):
            stored = index._vecs[index._offsets[c] : index._offsets[c + 1]]
            assert (index._probe(stored, 1).argmax(axis=1) == c).all()
        queries = np.concatenate([rows, scale * rng.normal(size=(3, dim))])
        for nprobe in range(1, nlist + 1):
            probed = index._probe(queries, nprobe)
            assert [np.flatnonzero(p).tolist() for p in probed] == [
                exact_probe_lists(index, q, nprobe) for q in queries
            ]


def partition_kth_best(approx, k):
    """Each row's k-th largest entry, as a column, by a partition of the negated scores."""
    neg = -approx
    neg.partition(k - 1, axis=1)
    return -neg[:, k - 1, None]


def partition_search_block(self, queries, k, nprobe):
    """``IvfIndex._search_block`` as it selected before its row-max passes: a
    float64 copy of the queries, an all-true mask filled with -inf, the
    k-th best by ``partition_kth_best`` and a 2-D nonzero."""
    q64 = np.asarray(queries, dtype=np.float64)
    q32 = q64.astype(np.float32)
    q_norm = math.sqrt(float(np.einsum("ij,ij->i", q64, q64).max()))
    rows, vecs = None, self._vecs
    keep = None
    if nprobe < self.config.nlist:
        probed = self._probe(q64, nprobe)
        used = probed.any(axis=0)
        n_used = np.count_nonzero(used)
        if n_used < len(used):
            rows = np.flatnonzero(used[self._row_list])
            vecs = self._vecs[rows]
        if np.count_nonzero(probed) < len(q64) * n_used:
            keep = probed[:, self._row_list if rows is None else self._row_list[rows]]
    if len(vecs) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    if keep is None:
        keep = np.ones((len(q64), len(vecs)), dtype=bool)
    if len(vecs) > 2 * k:
        approx = q32 @ vecs.T
        approx[~keep] = -np.inf
        margin = 2.0 * self._error_bound(q_norm, self._vec_norm)
        keep = keep & ~(approx < partition_kth_best(approx, k) - margin)
    qi, col = np.nonzero(keep)
    if rows is not None:
        col = rows[col]
    scores = self._exact_scores(self._vecs, col, q64, qi)
    ids = self._ids[col]
    order = np.lexsort((ids, -scores, qi))
    best = order[(np.arange(len(qi)) - np.searchsorted(qi, qi)) < k]
    return qi[best], ids[best], scores[best]


# float32 scores with many ties and many masked (-inf) entries, so that rows
# hold fewer than k finite entries, or none
_TIED = st.sampled_from([-np.inf] * 5 + [-2.5, -1.0, 0.0, 0.0, 1e-30, 0.5, 1.0, 1.0, 3.0, float(np.finfo(np.float32).max)])


class TestSelection:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 12)),
        data=st.data(),
    )
    def test_kth_best_is_partition(self, shape, data):
        values = data.draw(st.lists(_TIED, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        approx = np.array(values, dtype=np.float32).reshape(shape)
        kept = approx.copy()
        for k in range(1, min(ann_index._ARGMAX_MAX_K + 1, shape[1]) + 1):
            got = ann_index._kth_best(approx, k)
            assert got.shape == (shape[0], 1) and got.dtype == np.float32
            assert got.tobytes() == partition_kth_best(kept, k).tobytes()
            # the found entries are restored
            assert approx.tobytes() == kept.tobytes()

    @pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nlist=st.sampled_from([1, 3]),
        k=st.integers(1, ann_index._ARGMAX_MAX_K + 2),
        float32_queries=st.booleans(),
    )
    def test_hits_equal_partition_selection_on_duplicates(self, seed, nlist, k, float32_queries):
        rng = np.random.default_rng(seed)
        base = unit_rows(12, 8, seed=seed % 1000)
        # every row recurs: exact copies and copies one ulp apart
        rows = np.concatenate([base, base, nudged(rng, base), base[rng.integers(12, size=20)]])
        ids = rng.permutation(len(rows)) * 2 + 5
        index = train(rows, IvfConfig(dim=8, nlist=nlist, nprobe=nlist, kmeans_iters=4, seed=0))
        index.add(ids, rows)
        queries = np.concatenate([rows[rng.integers(len(rows), size=6)], rng.normal(size=(4, 8))])
        queries = queries.astype(np.float32 if float32_queries else np.float64)
        for nprobe in range(1, nlist + 1):
            got = hit_lists(*index.search_many(queries, k, nprobe))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ann_index, "_kth_best", partition_kth_best)
                patch.setattr(IvfIndex, "_search_block", partition_search_block)
                want = hit_lists(*index.search_many(queries, k, nprobe))
            assert got == want

    @pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
    @pytest.mark.parametrize("nlist", [1, 3])
    def test_overflowing_float32_scores_rescored_exactly(self, nlist):
        # entries of 1e19: float32 partial sums overflow to +/-inf, and to NaN where they
        # meet, so the error bound is infinite and every candidate is re-scored in float64
        rng = np.random.default_rng(5)
        rows = (rng.choice([-1e19, 1e19], size=(30, 6)) * rng.integers(0, 2, size=(30, 6))).astype(np.float32)
        rows[10:20] = rows[:10]
        index = train(rows, IvfConfig(dim=6, nlist=nlist, nprobe=nlist, kmeans_iters=4, seed=0))
        index.add(range(len(rows)), rows)
        queries = rows[:5] + np.float32(1e18)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(queries @ rows.T).all()
        assert (index._error_bound(ann_index._max_norm(queries), index._vec_norm) == math.inf)
        for k in (1, 2, 7):
            for q, hits in zip(queries, hit_lists(*index.search_many(queries, k))):
                assert hits == exact_top(rows, np.arange(30), np.arange(30), q, k)


@pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
class TestPersistence:
    def test_round_trip_bit_identical_search(self, tmp_path):
        vectors = unit_rows(120, 16, seed=6)
        cfg = IvfConfig(dim=16, nlist=4, nprobe=2, kmeans_iters=8, seed=0)
        index = train(vectors, cfg)
        index.add(range(120), vectors)
        path = tmp_path / "index.ivf"
        index.save(path)
        loaded = IvfIndex.load(path, nprobe=cfg.nprobe)
        queries = unit_rows(10, 16, seed=314)
        for q in queries:
            a = index.search(q, k=7)
            b = loaded.search(q, k=7)
            assert [(h.id, h.score) for h in a] == [(h.id, h.score) for h in b]

    def test_header_fields_survive(self, tmp_path):
        vectors = unit_rows(50, 8, seed=2)
        cfg = IvfConfig(dim=8, nlist=2, nprobe=1, kmeans_iters=4, seed=0)
        index = train(vectors, cfg)
        index.add(range(50), vectors)
        path = tmp_path / "index.ivf"
        index.save(path)
        loaded = IvfIndex.load(path)
        assert loaded.config.dim == 8
        assert loaded.config.nlist == 2
        assert loaded.size == 50

    @staticmethod
    def _saved(tmp_path):
        vectors = unit_rows(50, 8, seed=2)
        index = train(vectors, IvfConfig(dim=8, nlist=2, nprobe=1, kmeans_iters=4, seed=0))
        index.add(range(50), vectors)
        path = tmp_path / "index.ivf"
        index.save(path)
        return path

    # 21-byte header, then 2 x 8 float32 centroids (64 bytes), then the lists
    @pytest.mark.parametrize(
        "keep",
        [lambda n: 10, lambda n: 40, lambda n: 21 + 64 + 8 + 4, lambda n: n - 1],
        ids=["header", "centroids", "mid-list", "last-byte"],
    )
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: keep(len(raw))])
        with pytest.raises(ArgumentError, match="truncated"):
            IvfIndex.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ArgumentError, match="trailing"):
            IvfIndex.load(path)

    def test_repeated_id_rejected(self, tmp_path):
        index = IvfIndex(IvfConfig(dim=4, nlist=1, nprobe=1), np.zeros((1, 4)))
        index.add([1, 2, 3, 4], unit_rows(4, 4, seed=0))
        path = tmp_path / "index.ivf"
        index.save(path)
        # 21-byte header, one float32 centroid (16 bytes), the list length (8), then the ids
        raw = bytearray(path.read_bytes())
        raw[53:61] = raw[45:53]
        path.write_bytes(bytes(raw))
        with pytest.raises(ArgumentError, match=r"index\.ivf: id 1 stored more than once"):
            IvfIndex.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "index.ivf"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(ArgumentError):
            IvfIndex.load(path)
