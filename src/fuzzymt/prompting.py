"""Prompt rendering for decoder-only LLMs: zero-shot, or with fuzzy-match examples.

Completion-style translation prompts use labelled lines::

    Spanish: <source>
    English:

with one "<name>: <text>" example pair per shot before the query. ``STOP``,
the newline, ends every translation: the client sends it as the stop
sequence and fine-tuning completions end with it. Segment-internal newlines
are therefore always normalized to spaces, and the prompt ends exactly at
"<target_name>:" with no trailing whitespace.

``render_prompts`` is the package's one prompt rule, for runs, prompt dumps
and the fine-tuning export alike: a source with matches gets them as its
example pairs, and a source without a match gets its zero-shot prompt.

A language name is non-empty and holds no line break and no ": ", so
``parse_prompt``, the one reader of the format, reads both names from the
prompt: the target name is the stub line less its ":", the source name is
the query line up to its first ": ".
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
            if "\n" in value or "\r" in value or ": " in value:
                raise ArgumentError(f"{label} must hold no line break and no ': ', got {value!r}")


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


def render_prompts(sources: Sequence[str], match_lists: Sequence[Sequence[FuzzyMatch]] | None,
                   langs: LanguageNames = LanguageNames()) -> list[RenderedPrompt]:
    """One prompt per source: zero-shot for every source when ``match_lists`` is None,
    else few-shot from the source's own match list, or zero-shot when that list is empty."""
    if match_lists is None:
        match_lists = [()] * len(sources)
    elif len(match_lists) != len(sources):
        raise ArgumentError(f"one match list required per source: {len(match_lists)} for {len(sources)} sources")
    return [render_few_shot(source, matches, langs) if matches else render_zero_shot(source, langs)
            for source, matches in zip(sources, match_lists)]


def parse_prompt(text: str) -> tuple[list[tuple[str, str]], str]:
    """Split a rendered prompt back into its example pairs and the query.

    Returns (examples, query_source), with the language names read from the
    prompt. Raises ArgumentError when the text does not follow the rendered
    line structure or its query source is blank, which the renderers reject too.
    """
    *body, stub = text.split("\n")
    if not stub.endswith(":"):
        raise ArgumentError("prompt must end with the bare target stub line")
    if not body or len(body) % 2 == 0:
        raise ArgumentError("prompt body must hold N example pairs plus one query line")
    source_name, sep, query = body[-1].partition(": ")
    if not sep:
        raise ArgumentError("query line must carry the source-language prefix")
    LanguageNames(source_name, stub[:-1])  # names a prompt can be rendered with
    src_prefix, tgt_prefix = source_name + ": ", stub + " "
    examples = []
    for i in range(0, len(body) - 1, 2):
        src_line, tgt_line = body[i], body[i + 1]
        if not src_line.startswith(src_prefix) or not tgt_line.startswith(tgt_prefix):
            raise ArgumentError(f"malformed example pair at lines {i}/{i + 1}")
        examples.append((src_line[len(src_prefix):], tgt_line[len(tgt_prefix):]))
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
