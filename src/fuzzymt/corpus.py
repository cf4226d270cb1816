"""Parallel corpus ingestion, filtering, deduplication, and splitting.

A corpus is an ordered list of aligned segment pairs. Filtering removes
exact duplicates, empty-sided pairs, and over-length pairs; splitting draws
a seeded validation sample without replacement. This module also owns the
JSON-lines codec that every other module writes and reads records with.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import AlignmentError, CorpusEncodingError, DataError, SizeError

DEFAULT_MAX_WORDS = 70


@dataclass(frozen=True)
class SegmentPair:
    """One aligned source/target sentence pair."""

    id: int
    source: str
    target: str


def pair_key(pair: SegmentPair) -> tuple[str, str]:
    """What makes two pairs the same pair: (source, target), trailing whitespace trimmed."""
    return (pair.source.rstrip(), pair.target.rstrip())


@dataclass
class ParallelCorpus:
    """An ordered collection of segment pairs for one language direction."""

    pairs: list[SegmentPair] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def ids(self) -> list[int]:
        return [p.id for p in self.pairs]

    def sources(self) -> list[str]:
        return [p.source for p in self.pairs]

    def targets(self) -> list[str]:
        return [p.target for p in self.pairs]


@dataclass
class DatasetSplit:
    """Disjoint train/validation corpora."""

    train: ParallelCorpus
    validation: ParallelCorpus


def _read_utf8(path: str | Path, text_lines: bool = False) -> str:
    """The file decoded as UTF-8. CorpusEncodingError names the line of an
    invalid byte: lines end at LF, or as in ``_text_lines`` if ``text_lines``."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        if text_lines:
            head = head.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise CorpusEncodingError(f"{path}:{line}: not valid UTF-8: {exc}") from exc


def _lines(text: str) -> list[str]:
    if text == "":
        return []
    # a trailing LF terminates the last segment instead of opening an empty one
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")


def _text_lines(text: str) -> list[str]:
    """The segments of a text file: only LF, CRLF and CR end a line (not U+2028)."""
    return _lines(text.replace("\r\n", "\n").replace("\r", "\n"))


def read_lines(path: str | Path) -> list[str]:
    """One segment per line of a UTF-8 file, lines ended as in ``_text_lines``."""
    return _text_lines(_read_utf8(path, text_lines=True))


def parse_tsv(text: str, origin: str | Path) -> ParallelCorpus:
    """Parse 2-column TSV text, one pair per line (LF, CRLF or CR ended), ids in line order from 0.

    Raises AlignmentError naming ``origin:line`` on a row without exactly
    two columns.
    """
    pairs = []
    for i, row in enumerate(_text_lines(text)):
        cols = row.split("\t")
        if len(cols) != 2:
            raise AlignmentError(
                f"{origin}:{i + 1}: expected 2 tab-separated columns, got {len(cols)}"
            )
        pairs.append(SegmentPair(id=i, source=cols[0], target=cols[1]))
    return ParallelCorpus(pairs)


def load_corpus(source_path: str | Path, target_path: str | Path | None = None) -> ParallelCorpus:
    """Load a corpus from two parallel text files or one 2-column TSV, each
    line ended by LF, CRLF or CR.

    Ids are assigned in file order starting at 0. Raises AlignmentError on a
    line-count mismatch and CorpusEncodingError on invalid UTF-8.
    """
    if target_path is None:
        return parse_tsv(_read_utf8(source_path, text_lines=True), source_path)

    src_lines = read_lines(source_path)
    tgt_lines = read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise AlignmentError(
            f"line count mismatch: {source_path} has {len(src_lines)} lines, "
            f"{target_path} has {len(tgt_lines)}"
        )
    pairs = [
        SegmentPair(id=i, source=s, target=t)
        for i, (s, t) in enumerate(zip(src_lines, tgt_lines))
    ]
    return ParallelCorpus(pairs)


def encode_jsonl(record: dict) -> str:
    """One JSON-lines line: compact JSON, non-ASCII kept, newline-terminated."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_jsonl_records(path: str | Path | TextIO, records: Iterable[dict]) -> int:
    """Write one JSON-lines line per record to a file, or to an open text stream. Returns the count."""
    count = 0
    with nullcontext(path) if hasattr(path, "write") else open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(encode_jsonl(record))
            count += 1
    return count


def _type_names(types: type | tuple[type, ...]) -> str:
    types = types if isinstance(types, tuple) else (types,)
    return " or ".join("null" if t is type(None) else t.__name__ for t in types)


def read_jsonl(path: str | Path, required: Mapping[str, type | tuple[type, ...]] = {}) -> list[dict]:
    """Parse a JSON-lines file into one dict per non-blank line.

    ``required`` maps each key the caller reads to the type(s) its value must
    have; a key whose types include ``type(None)`` may also be absent or null.
    JSON true/false pass as no type, so a bool is never taken for an int.
    Raises CorpusEncodingError on invalid UTF-8 or a string holding a lone
    surrogate escape (such as "\\ud800"), and DataError naming
    ``path:line`` on a line that is not a JSON object, lacks a required key
    or holds a value of another type under it.
    """
    return [record for _, record in _iter_jsonl(path, required)]


def _iter_jsonl(path: str | Path, required: Mapping[str, type | tuple[type, ...]]) -> Iterator[tuple[int, dict]]:
    """``read_jsonl``'s records, one at a time, each with its line number."""
    for lineno, line in enumerate(_lines(_read_utf8(path)), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc.msg} (column {exc.colno})") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        # a \u escape can decode to a lone surrogate, which no UTF-8 writer accepts
        if "\\u" in line:
            try:
                encode_jsonl(record).encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = exc.object[exc.start : exc.end]
                raise CorpusEncodingError(f"{path}:{lineno}: not valid UTF-8: lone surrogate {bad!r}") from exc
        for key, types in required.items():
            if key not in record and not isinstance(None, types):
                raise DataError(f"{path}:{lineno}: missing key {key!r}")
            value = record.get(key)
            if isinstance(value, bool) or not isinstance(value, types):
                raise DataError(f"{path}:{lineno}: key {key!r} must be {_type_names(types)}, "
                                f"got {json.dumps(value, ensure_ascii=False)[:40]}")
        yield lineno, record


def check_new_id(path: str | Path, lineno: int, pid: int, first_line: dict[int, int]) -> None:
    """Note ``pid`` in ``first_line`` as seen on ``lineno``; DataError naming
    ``path:line`` when an earlier line holds it."""
    if first_line.setdefault(pid, lineno) != lineno:
        raise DataError(f"{path}:{lineno}: repeated id {pid} (first on line {first_line[pid]})")


def load_corpus_jsonl(path: str | Path) -> ParallelCorpus:
    """Load a corpus from JSON-lines records {id, source, target}; a record
    without an id (or with a null one) takes its record index. Raises
    DataError naming ``path:line`` on an id that an earlier record holds."""
    records = _iter_jsonl(path, required={"id": (int, type(None)), "source": str, "target": str})
    pairs = []
    first_line: dict[int, int] = {}
    for i, (lineno, r) in enumerate(records):
        pair = SegmentPair(id=i if r.get("id") is None else r["id"], source=r["source"], target=r["target"])
        check_new_id(path, lineno, pair.id, first_line)
        pairs.append(pair)
    return ParallelCorpus(pairs)


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


def filter_corpus(corpus: ParallelCorpus, max_words: int = DEFAULT_MAX_WORDS) -> ParallelCorpus:
    """Drop duplicates, empty-sided pairs, and over-length pairs.

    Duplicates are exact (source, target) string matches after trimming
    trailing whitespace; the first occurrence is kept. A pair is over-length
    when either side has more than ``max_words`` whitespace tokens. Relative
    order is preserved and the operation is idempotent.
    """
    seen: set[tuple[str, str]] = set()
    kept = []
    for pair in corpus.pairs:
        key = pair_key(pair)
        if key in seen:
            continue
        if not pair.source.strip() or not pair.target.strip():
            continue
        if word_count(pair.source) > max_words or word_count(pair.target) > max_words:
            continue
        seen.add(key)
        kept.append(pair)
    return replace(corpus, pairs=kept)


def split_corpus(corpus: ParallelCorpus, validation_size: int, seed: int) -> DatasetSplit:
    """Split off a seeded validation sample; the train side is the remainder.

    Both halves keep the original corpus order. Deterministic for a fixed
    (corpus, validation_size, seed).
    """
    n = len(corpus)
    if validation_size < 0:
        raise SizeError(f"validation_size must be >= 0, got {validation_size}")
    if validation_size >= n:
        raise SizeError(f"validation_size {validation_size} must be < corpus size {n}")
    rng = random.Random(seed)
    val_indices = set(rng.sample(range(n), validation_size))
    validation = [corpus.pairs[i] for i in range(n) if i in val_indices]
    train = [corpus.pairs[i] for i in range(n) if i not in val_indices]
    return DatasetSplit(
        train=replace(corpus, pairs=train),
        validation=replace(corpus, pairs=validation),
    )


def write_tsv(corpus: ParallelCorpus, path: str | Path) -> int:
    """Write pairs as a 2-column TSV, one pair per line. Returns the count."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pair in corpus.pairs:
            fh.write(f"{pair.source}\t{pair.target}\n")
    return len(corpus)


def write_jsonl_corpus(corpus: ParallelCorpus, path: str | Path) -> int:
    """Write pairs as JSON-lines records {id, source, target}. Returns the count."""
    return write_jsonl_records(
        path, ({"id": p.id, "source": p.source, "target": p.target} for p in corpus.pairs)
    )


def pair_keys(corpus: ParallelCorpus) -> set[tuple[str, str]]:
    """The ``pair_key`` of every pair."""
    return set(map(pair_key, corpus.pairs))


def load_any(spec: str) -> ParallelCorpus:
    """Load a corpus from a path spec.

    ``a.txt,b.txt`` loads two parallel files, ``x.jsonl`` loads JSON lines,
    anything else is read as a 2-column TSV.
    """
    if "," in spec:
        src, tgt = spec.split(",", 1)
        return load_corpus(src.strip(), tgt.strip())
    if spec.endswith(".jsonl"):
        return load_corpus_jsonl(spec)
    return load_corpus(spec)
