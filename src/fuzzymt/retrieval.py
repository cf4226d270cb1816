"""Fuzzy-match lookup over an embedded, indexed context dataset.

A context corpus of fewer than FLAT_MAX_ROWS pairs is indexed flat: an IVF
index with nlist 1, searched exactly, whatever nlist the caller asks for.
Its store.json then reads ``ivf.nlist: 1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

from . import ann_index, embedding
from .ann_index import IvfConfig, IvfIndex
from .corpus import ParallelCorpus, SegmentPair, dataclass_from_json, load_any, load_corpus_jsonl
from .corpus import read_json, write_json, write_jsonl_corpus, write_jsonl_records
from .embedding import EmbeddingProviderConfig
from .errors import ArgumentError, DataError, SizeError, StoreError, ValidationError

STORE_CORPUS, STORE_INDEX, STORE_META = "corpus.jsonl", "index.ivf", "store.json"
# the provider fields that decide the vectors; the others only say how to fetch them
FINGERPRINT_FIELDS = ("kind", "model_name", "dim", "seed")
# keys of stores saved while the metric and normalization were options, with
# the one value a store may still hold under each
_RETIRED_KEYS = (("ivf", "metric", "cosine"), ("provider", "normalize", True))
# The smallest context size measured at which IVF (nlist 4*sqrt(N), nprobe 32)
# answered one query at a time faster than the flat index; at 5,000 pairs it
# did not (BENCH_9.json)
FLAT_MAX_ROWS = 20_000


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class FuzzyMatch:
    """A retrieved context pair with its cosine similarity to the query."""

    pair: SegmentPair
    score: float


@dataclass
class ContextStore:
    """Read-only bundle of a context corpus and its filled vector index."""

    corpus: ParallelCorpus
    index: IvfIndex
    provider: EmbeddingProviderConfig

    def __post_init__(self):
        self._by_id = {p.id: p for p in self.corpus.pairs}

    def __len__(self) -> int:
        return len(self.corpus)

    def pair(self, pair_id: int) -> SegmentPair:
        return self._by_id[pair_id]

    def save(self, directory: str | Path) -> None:
        """Write corpus.jsonl, index.ivf and store.json (provider fingerprint, IVF build
        config, SHA-256 of both files) under ``directory``."""
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        write_jsonl_corpus(self.corpus, out / STORE_CORPUS)
        self.index.save(out / STORE_INDEX)
        meta = {
            "provider": {name: getattr(self.provider, name) for name in FINGERPRINT_FIELDS},
            # nprobe is chosen per search, so a store does not fix it
            "ivf": {k: v for k, v in asdict(self.index.config).items() if k != "nprobe"},
            "sha256": {name: _sha256(out / name) for name in (STORE_CORPUS, STORE_INDEX)},
        }
        write_json(out / STORE_META, meta)

    @classmethod
    def load(cls, directory: str | Path, provider: EmbeddingProviderConfig, nprobe: int) -> "ContextStore":
        """Read a store written by ``save``; only ``nprobe`` overrides its IVF config.

        Raises StoreError when metadata, provider fingerprint, SHA-256 digests,
        index header, provider dim or corpus ids disagree, or when the index
        file is damaged.
        """
        src = Path(directory)
        try:
            meta = read_json(src / STORE_META)
            for block, key, only in _RETIRED_KEYS:
                value = meta[block].pop(key, only)
                if value != only or type(value) is not type(only):
                    raise ValidationError(f"{block} key {key!r} must be {only!r}, got {value!r}")
            # nprobe 1 fits any nlist; the caller's nprobe is clamped below
            built = dataclass_from_json(IvfConfig, {**meta["ivf"], "nprobe": 1}, "ivf")
            stored = {name: meta["provider"][name] for name in FINGERPRINT_FIELDS}
            digests = {name: meta["sha256"][name] for name in (STORE_CORPUS, STORE_INDEX)}
        except (DataError, KeyError, TypeError, AttributeError) as exc:
            raise StoreError(f"{src / STORE_META}: malformed store metadata ({exc!r})") from exc
        built = replace(built, nprobe=min(nprobe, built.nlist))
        for name, value in stored.items():
            if getattr(provider, name) != value:
                raise StoreError(f"{src}: store was built with provider {name}={value!r}, "
                                 f"queries would use {name}={getattr(provider, name)!r}")
        # the index reader names structural damage itself; the digests catch any other edit
        try:
            index = IvfIndex.load(src / STORE_INDEX, nprobe=nprobe)
        except ArgumentError as exc:
            raise StoreError(str(exc)) from exc
        for name, digest in digests.items():
            if _sha256(src / name) != digest:
                raise StoreError(f"{src / name}: SHA-256 differs from {STORE_META}")
        context = load_corpus_jsonl(src / STORE_CORPUS)
        header = replace(index.config, kmeans_iters=built.kmeans_iters, seed=built.seed)
        if header != built or built.dim != provider.dim:
            raise StoreError(f"{src / STORE_INDEX}: index {index.config} does not match "
                             f"{STORE_META} ivf {built} and provider dim {provider.dim}")
        if index.ids != set(context.ids()):
            diff = sorted(index.ids ^ set(context.ids()))[:10]
            raise StoreError(f"{src}: ids in only one of {STORE_INDEX} and {STORE_CORPUS}: {diff}")
        index.config = built
        return cls(corpus=context, index=index, provider=provider)


def build_context_store(
    corpus: ParallelCorpus,
    provider: EmbeddingProviderConfig,
    ivf: IvfConfig,
) -> ContextStore:
    """Embed every source side, train the index on those vectors, add all pairs.

    Below FLAT_MAX_ROWS pairs the index is flat (nlist 1), whatever ``ivf.nlist``.
    """
    if len(corpus) == 0:
        raise SizeError("context corpus is empty")
    if len(corpus) < FLAT_MAX_ROWS:
        ivf = replace(ivf, nlist=1, nprobe=1)
    elif len(corpus) < ivf.nlist:
        raise SizeError(
            f"context corpus ({len(corpus)} pairs) smaller than nlist={ivf.nlist}"
        )
    vectors = embedding.embed_batch(corpus.sources(), provider)
    index = ann_index.train(vectors, ivf)
    index.add(zip(corpus.ids(), vectors))
    return ContextStore(corpus=corpus, index=index, provider=provider)


def open_context_store(spec: str, provider: EmbeddingProviderConfig, ivf: IvfConfig) -> ContextStore:
    """Load the store directory ``spec`` (its IVF build values kept, ``ivf.nprobe`` taken),
    or build a store from the corpus ``spec`` with ``ivf``."""
    if Path(spec).is_dir():
        return ContextStore.load(spec, provider, ivf.nprobe)
    return build_context_store(load_any(spec), provider, ivf)


def retrieve_fuzzy_many(store: ContextStore, sources: Sequence[str], k: int = 1) -> list[list[FuzzyMatch]]:
    """Top-k most similar context pairs for each source segment, in query order."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    if len(sources) == 0:
        return []
    queries = embedding.embed_batch(sources, store.provider)
    return [
        [FuzzyMatch(pair=store.pair(h.id), score=h.score) for h in hits]
        for hits in store.index.search_many(queries, k)
    ]


def write_retrieval_dump(
    path: str | Path | TextIO,
    query_ids: Sequence[int],
    all_matches: Sequence[Sequence[FuzzyMatch]],
) -> int:
    """Write one JSONL record {query_id, matches: [{context_id, score, source,
    target}, ...]} per query to a file or an open text stream."""
    if len(query_ids) != len(all_matches):
        raise ArgumentError("one match list required per query id")
    return write_jsonl_records(path, (
        {"query_id": qid, "matches": [{"context_id": m.pair.id, "score": m.score, "source": m.pair.source,
                                       "target": m.pair.target} for m in matches]}
        for qid, matches in zip(query_ids, all_matches)
    ))
