"""Parallel corpus ingestion, filtering, deduplication, and splitting.

A corpus is an ordered list of aligned segment pairs. Filtering removes
exact duplicates, empty-sided pairs, and over-length pairs; splitting draws
a seeded validation sample without replacement.

This module also owns the JSON codec that every other module reads and
writes its artifacts with: JSON lines (compact, non-ASCII kept, one object
per line), JSON documents such as store.json, run_meta.json, report.json and
the manifest (indent 2, ASCII-escaped, a final newline), and the value-type
rule of both readers and of ``dataclass_from_json``: true/false is never an
int, an int is accepted for a float, and any other mismatch is a
ValidationError ``key 'k' must be T, got V``.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import UnionType
from typing import Iterable, Iterator, Mapping, TextIO, get_args, get_origin, get_type_hints

from .errors import AlignmentError, ArgumentError, CorpusEncodingError, DataError, SizeError, ValidationError

DEFAULT_MAX_WORDS = 70
# the ids an index stores, as int64
_ID_RANGE = range(-(2**63), 2**63)


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


def read_utf8(path: str | Path, text_lines: bool = False) -> str:
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
    return _text_lines(read_utf8(path, text_lines=True))


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
        return parse_tsv(read_utf8(source_path, text_lines=True), source_path)

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


def _open_out(path: str | Path | TextIO):
    """An open text stream as it is (left open), or the file at ``path`` opened for UTF-8 with LF line ends."""
    return nullcontext(path) if hasattr(path, "write") else open(path, "w", encoding="utf-8", newline="\n")


def encode_json(obj) -> str:
    """One JSON document: indented by 2, non-ASCII escaped, newline-terminated."""
    return json.dumps(obj, indent=2) + "\n"


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as one JSON document (``encode_json``)."""
    Path(path).write_text(encode_json(obj), encoding="utf-8", newline="\n")


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file. Raises CorpusEncodingError on
    invalid UTF-8 and ValidationError naming ``path:line`` on invalid JSON."""
    return _parse_json(read_utf8(path), path, 1)


def _parse_json(text: str, path: str | Path, first_line: int):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line = first_line + exc.lineno - 1
        raise ValidationError(f"{path}:{line}: invalid JSON: {exc.msg} (column {exc.colno})") from exc


def fits(value, tp) -> bool:
    """Whether a JSON value has type ``tp`` (a class, ``list[str]`` or a ``|``
    union): true/false is only a bool, and an int is also a float."""
    if isinstance(tp, UnionType):
        return any(fits(value, t) for t in get_args(tp))
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else get_origin(tp) or tp)


def _type_name(tp) -> str:
    types = get_args(tp) if isinstance(tp, UnionType) else (tp,)
    return " or ".join("null" if t is type(None) else str(t) if get_origin(t) else t.__name__ for t in types)


def _check_types(record: dict, types: Mapping[str, type], where: str) -> None:
    """ValidationError ``{where}key 'k' must be T, got V`` for the first key of ``types`` whose value
    in ``record`` does not fit its type; an absent key reads as null, or is a ``missing key``."""
    for key, tp in types.items():
        if key not in record and not fits(None, tp):
            raise ValidationError(f"{where}missing key {key!r}")
        value = record.get(key)
        if not fits(value, tp):
            raise ValidationError(f"{where}key {key!r} must be {_type_name(tp)}, "
                                  f"got {json.dumps(value, ensure_ascii=False)[:40]}")


def dataclass_from_json(cls, raw, what: str, where: str = ""):
    """``cls(**raw)`` for a JSON object ``raw``, every value checked against ``cls``'s field types.
    A ValidationError starting ``{where}`` and naming ``what`` rejects anything but an object,
    unknown keys, values of another type and missing required fields."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}{what} must be a JSON object")
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValidationError(f"{where}unknown {what} keys {unknown}")
    hints = get_type_hints(cls)
    _check_types(raw, {key: hints[key] for key in raw}, f"{where}{what} ")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ValidationError(f"{where}{what}: {exc}") from exc


def encode_jsonl(record: dict) -> str:
    """One JSON-lines line: compact JSON, non-ASCII kept, newline-terminated."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_jsonl_records(path: str | Path | TextIO, records: Iterable[dict]) -> int:
    """Write one JSON-lines line per record to a file, or to an open text stream. Returns the count."""
    count = 0
    with _open_out(path) as fh:
        for record in records:
            fh.write(encode_jsonl(record))
            count += 1
    return count


def read_jsonl(path: str | Path, required: Mapping[str, type] = {}) -> list[dict]:
    """Parse a JSON-lines file into one dict per non-blank line.

    ``required`` maps each key the caller reads to the type its value must
    have (``int | None``: also absent or null), under the module's value-type
    rule. Raises CorpusEncodingError on invalid UTF-8 or a string holding a
    lone surrogate escape (such as "\\ud800"), and ValidationError naming
    ``path:line`` on a line that is not a JSON object, lacks a required key
    or holds a value of another type under it.
    """
    return [record for _, record in iter_jsonl(path, required)]


def iter_jsonl(path: str | Path, required: Mapping[str, type] = {}) -> Iterator[tuple[int, dict]]:
    """``read_jsonl``'s records, one at a time, each with its line number."""
    for lineno, line in enumerate(_lines(read_utf8(path)), 1):
        if not line.strip():
            continue
        record = _parse_json(line, path, lineno)
        if not isinstance(record, dict):
            raise ValidationError(f"{path}:{lineno}: expected a JSON object")
        # a \u escape can decode to a lone surrogate, which no UTF-8 writer accepts
        if "\\u" in line:
            try:
                encode_jsonl(record).encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = exc.object[exc.start : exc.end]
                raise CorpusEncodingError(f"{path}:{lineno}: not valid UTF-8: lone surrogate {bad!r}") from exc
        _check_types(record, required, f"{path}:{lineno}: ")
        yield lineno, record


def check_new_id(path: str | Path, lineno: int, pid: int, first_line: dict[int, int]) -> None:
    """Note ``pid`` in ``first_line`` as seen on ``lineno``; DataError naming
    ``path:line`` when an earlier line holds it."""
    if first_line.setdefault(pid, lineno) != lineno:
        raise DataError(f"{path}:{lineno}: repeated id {pid} (first on line {first_line[pid]})")


def load_corpus_jsonl(path: str | Path) -> ParallelCorpus:
    """Load a corpus from JSON-lines records {id, source, target}; a record
    without an id (or with a null one) takes its record index. Raises
    ValidationError naming ``path:line`` on an id outside int64, and
    DataError naming it on an id that an earlier record holds."""
    records = iter_jsonl(path, required={"id": int | None, "source": str, "target": str})
    pairs = []
    first_line: dict[int, int] = {}
    for i, (lineno, r) in enumerate(records):
        pair = SegmentPair(id=i if r.get("id") is None else r["id"], source=r["source"], target=r["target"])
        if pair.id not in _ID_RANGE:
            raise ValidationError(f"{path}:{lineno}: id {pair.id} is outside the int64 range [-2**63, 2**63)")
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
    order is preserved and the operation is idempotent. ``max_words`` below 1,
    which no pair can meet, is an ArgumentError.
    """
    if max_words < 1:
        raise ArgumentError(f"max_words must be at least 1, got {max_words}")
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


def write_tsv(corpus: ParallelCorpus, path: str | Path | TextIO) -> int:
    """Write pairs as a 2-column TSV, one pair per line, to a file or an open text stream. Returns the count."""
    with _open_out(path) as fh:
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
