"""Fuzzy-match lookup over an embedded, indexed context dataset."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import ann_index, embedding
from .ann_index import IvfConfig, IvfIndex
from .corpus import ParallelCorpus, SegmentPair, write_jsonl_records
from .embedding import EmbeddingProviderConfig
from .errors import ArgumentError, LeakageError, SizeError


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


def retrieve_fuzzy(
    store: ContextStore,
    source: str,
    k: int = 1,
    forbid_exact_source: bool = False,
) -> list[FuzzyMatch]:
    """Top-k most similar context pairs for one source segment.

    With ``forbid_exact_source`` the lookup raises LeakageError when a hit's
    source text is byte-equal to the query (off by default).
    """
    return retrieve_fuzzy_many(store, [source], k, forbid_exact_source)[0]


def retrieve_fuzzy_many(
    store: ContextStore,
    sources: Sequence[str],
    k: int = 1,
    forbid_exact_source: bool = False,
) -> list[list[FuzzyMatch]]:
    """Batched retrieve_fuzzy; one result list per query, in query order."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    if len(sources) == 0:
        return []
    queries = embedding.embed_batch(sources, store.provider)
    results = []
    for source, query in zip(sources, queries):
        hits = store.index.search(query, k)
        matches = [FuzzyMatch(pair=store.pair(h.id), score=h.score) for h in hits]
        if forbid_exact_source:
            leaked = [m.pair.id for m in matches if m.pair.source == source]
            if leaked:
                raise LeakageError(
                    f"query text present verbatim in context store (ids {leaked})",
                    offending_ids=leaked,
                )
        results.append(matches)
    return results


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
