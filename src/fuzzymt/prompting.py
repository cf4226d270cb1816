"""Prompt rendering for decoder-only LLMs: zero-shot, or with fuzzy-match examples.

Completion-style translation prompts use labelled lines::

    Spanish: <source>
    English:

with one "<name>: <text>" example pair per shot before the query. ``STOP``,
the newline, ends every translation: the client sends it as the stop
sequence and fine-tuning completions end with it. Segment-internal newlines
are therefore always normalized to spaces, and the prompt ends exactly at
"<target_name>:" with no trailing whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

from .corpus import write_jsonl_records
from .errors import ArgumentError
from .retrieval import FuzzyMatch

STOP = "\n"
_NEWLINE_RUN = re.compile(r"[\r\n]+")


@dataclass(frozen=True)
class LanguageNames:
    source_name: str = "Spanish"
    target_name: str = "English"

    def __post_init__(self):
        for label, value in (("source_name", self.source_name), ("target_name", self.target_name)):
            if not value:
                raise ArgumentError(f"{label} must be non-empty")


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    shots: int = 0


def normalize_segment(text: str) -> str:
    """Replace newline runs with single spaces; the stop token must not occur."""
    return _NEWLINE_RUN.sub(" ", text)


def render_zero_shot(source: str, langs: LanguageNames = LanguageNames()) -> RenderedPrompt:
    """"<source_name>: <source>\\n<target_name>:" with zero example pairs."""
    if not source.strip():
        raise ArgumentError("source must be non-empty")
    text = f"{langs.source_name}: {normalize_segment(source)}\n{langs.target_name}:"
    return RenderedPrompt(text=text, shots=0)


def render_few_shot(
    source: str,
    matches: Sequence[FuzzyMatch],
    langs: LanguageNames = LanguageNames(),
) -> RenderedPrompt:
    """Example pairs (ascending score, best match last) followed by the query."""
    if not matches:
        raise ArgumentError("matches must be non-empty; use render_zero_shot instead")
    if not source.strip():
        raise ArgumentError("source must be non-empty")
    ordered = sorted(matches, key=lambda m: m.score)
    lines = []
    for match in ordered:
        lines.append(f"{langs.source_name}: {normalize_segment(match.pair.source)}")
        lines.append(f"{langs.target_name}: {normalize_segment(match.pair.target)}")
    lines.append(f"{langs.source_name}: {normalize_segment(source)}")
    text = "\n".join(lines) + f"\n{langs.target_name}:"
    return RenderedPrompt(text=text, shots=len(ordered))


def parse_prompt(text: str, langs: LanguageNames = LanguageNames()) -> tuple[list[tuple[str, str]], str]:
    """Split a rendered prompt back into its example pairs and the query.

    Returns (examples, query_source). Raises ArgumentError when the text does
    not follow the rendered line structure or its query source is blank, a
    source that the renderers reject too.
    """
    src_prefix = f"{langs.source_name}: "
    tgt_prefix = f"{langs.target_name}: "
    lines = text.split("\n")
    if not lines or lines[-1] != f"{langs.target_name}:":
        raise ArgumentError("prompt must end with the bare target stub line")
    body = lines[:-1]
    if not body or len(body) % 2 == 0:
        raise ArgumentError("prompt body must hold N example pairs plus one query line")
    examples = []
    for i in range(0, len(body) - 1, 2):
        src_line, tgt_line = body[i], body[i + 1]
        if not src_line.startswith(src_prefix) or not tgt_line.startswith(tgt_prefix):
            raise ArgumentError(f"malformed example pair at lines {i}/{i + 1}")
        examples.append((src_line[len(src_prefix):], tgt_line[len(tgt_prefix):]))
    query_line = body[-1]
    if not query_line.startswith(src_prefix):
        raise ArgumentError("query line must carry the source-language prefix")
    query = query_line[len(src_prefix):]
    if not query.strip():
        raise ArgumentError("query source must be non-empty")
    return examples, query


def write_prompt_dump(
    path: str | Path | TextIO,
    ids: Sequence[int],
    prompts: Sequence[RenderedPrompt],
    references: Sequence[str],
) -> int:
    """Write one JSONL record {id, prompt, shots, reference} per prompt to a file or an open text stream."""
    if not (len(ids) == len(prompts) == len(references)):
        raise ArgumentError("ids, prompts, and references must have equal lengths")
    return write_jsonl_records(path, ({"id": pid, "prompt": prompt.text, "shots": prompt.shots, "reference": ref}
                                      for pid, prompt, ref in zip(ids, prompts, references)))
