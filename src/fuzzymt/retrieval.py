"""Fuzzy-match lookup over an embedded, indexed context dataset."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

from . import ann_index, embedding
from .ann_index import IvfConfig, IvfIndex
from .corpus import ParallelCorpus, SegmentPair, load_any, load_corpus_jsonl
from .corpus import write_jsonl_corpus, write_jsonl_records
from .embedding import EmbeddingProviderConfig
from .errors import ArgumentError, SizeError, StoreError

STORE_CORPUS, STORE_INDEX, STORE_META = "corpus.jsonl", "index.ivf", "store.json"
# the provider fields that decide the vectors; the others only say how to fetch them
FINGERPRINT_FIELDS = ("kind", "model_name", "dim", "normalize", "seed")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class FuzzyMatch:
    """A retrieved context pair with its cosine similarity to the query."""

    pair: SegmentPair
    score: float


@dataclass
class ContextStore:
    """Sealed, read-only bundle of a context corpus and its vector index."""

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
        (out / STORE_META).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, directory: str | Path, provider: EmbeddingProviderConfig, nprobe: int) -> "ContextStore":
        """Read a store written by ``save``; only ``nprobe`` overrides its IVF config.

        Raises StoreError when metadata, provider fingerprint, SHA-256 digests,
        index header, provider dim or corpus ids disagree.
        """
        src = Path(directory)
        try:
            meta = json.loads((src / STORE_META).read_text(encoding="utf-8"))
            built = IvfConfig(**meta["ivf"], nprobe=min(nprobe, meta["ivf"]["nlist"]))
            stored = {name: meta["provider"][name] for name in FINGERPRINT_FIELDS}
            digests = {name: meta["sha256"][name] for name in (STORE_CORPUS, STORE_INDEX)}
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"{src / STORE_META}: malformed store metadata ({exc!r})") from exc
        for name, value in stored.items():
            if getattr(provider, name) != value:
                raise StoreError(f"{src}: store was built with provider {name}={value!r}, "
                                 f"queries would use {name}={getattr(provider, name)!r}")
        # the index reader names structural damage itself; the digests catch any other edit
        index = IvfIndex.load(src / STORE_INDEX, nprobe=nprobe)
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
        index.seal()
        return cls(corpus=context, index=index, provider=provider)


def build_context_store(
    corpus: ParallelCorpus,
    provider: EmbeddingProviderConfig,
    ivf: IvfConfig,
) -> ContextStore:
    """Embed every source side, train the index on those vectors, add all pairs.

    The returned store is sealed: retrieval never mutates it.
    """
    if len(corpus) == 0:
        raise SizeError("context corpus is empty")
    if len(corpus) < ivf.nlist:
        raise SizeError(
            f"context corpus ({len(corpus)} pairs) smaller than nlist={ivf.nlist}"
        )
    vectors = embedding.embed_batch(corpus.sources(), provider)
    index = ann_index.train(vectors, ivf)
    index.add(zip(corpus.ids(), vectors))
    index.seal()
    return ContextStore(corpus=corpus, index=index, provider=provider)


def open_context_store(spec: str, provider: EmbeddingProviderConfig, ivf: IvfConfig) -> ContextStore:
    """Load the store directory ``spec`` (its IVF build values kept, ``ivf.nprobe`` taken),
    or build a store from the corpus ``spec`` with ``ivf``."""
    if Path(spec).is_dir():
        return ContextStore.load(spec, provider, ivf.nprobe)
    return build_context_store(load_any(spec), provider, ivf)


def retrieve_fuzzy(store: ContextStore, source: str, k: int = 1) -> list[FuzzyMatch]:
    """Top-k most similar context pairs for one source segment."""
    return retrieve_fuzzy_many(store, [source], k)[0]


def retrieve_fuzzy_many(store: ContextStore, sources: Sequence[str], k: int = 1) -> list[list[FuzzyMatch]]:
    """Batched retrieve_fuzzy; one result list per query, in query order."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    if len(sources) == 0:
        return []
    queries = embedding.embed_batch(sources, store.provider)
    return [
        [FuzzyMatch(pair=store.pair(h.id), score=h.score) for h in store.index.search(query, k)]
        for query in queries
    ]


def retrieval_record(query_id: int, matches: Sequence[FuzzyMatch]) -> dict:
    """The JSONL record {query_id, matches: [...]} of one query's matches."""
    return {
        "query_id": query_id,
        "matches": [
            {
                "context_id": m.pair.id,
                "score": m.score,
                "source": m.pair.source,
                "target": m.pair.target,
            }
            for m in matches
        ],
    }


def write_retrieval_dump(
    path: str | Path,
    query_ids: Sequence[int],
    all_matches: Sequence[Sequence[FuzzyMatch]],
) -> int:
    """Write one retrieval_record per query."""
    if len(query_ids) != len(all_matches):
        raise ArgumentError("one match list required per query id")
    return write_jsonl_records(path, map(retrieval_record, query_ids, all_matches))
