"""In-memory spans around the public calls into each fuzzymt layer.

The tracer replaces a fixed list of layer entry points with timing
wrappers for as long as it is installed, in every ``fuzzymt`` module that
binds them, so calls the pipeline makes internally are traced too. Nothing
under ``src/`` is changed: the wrappers live here and are removed on exit.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Layer -> the public functions that other layers (or the benchmark) call.
BOUNDARIES = {
    "corpus": ("load_any", "load_corpus", "pair_keys"),
    "embedding": ("embed_batch",),
    "ann_index": ("train", "IvfIndex.add", "IvfIndex.search"),
    "retrieval": ("build_context_store", "retrieve_fuzzy_many", "write_retrieval_dump"),
    "prompting": ("render_zero_shot", "render_few_shot", "write_prompt_dump"),
    "llm_client": ("make_batches", "translate_all", "translate_batch"),
    "mt_metrics": ("score_all", "bleu", "chrf_pp", "ter"),
    "finetune_export": ("build_finetune_dataset", "write_jsonl", "emit_training_manifest"),
    "eval_harness": ("run_experiment", "check_no_leakage", "render_report"),
}
LAYERS = tuple(BOUNDARIES)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _retrieval_counts(args, kwargs, result):
    top = [matches[0].score for matches in result if matches]
    return {"queries": len(result), "empty": len(result) - len(top), "top1_scores": top}


# Counts recorded at the boundary, from the call's arguments and result.
COUNTERS = {
    "embedding.embed_batch": lambda a, k, r: {
        "texts": len(_first(a, k, "texts")),
        "chars": sum(len(t) for t in _first(a, k, "texts")),
    },
    "retrieval.retrieve_fuzzy_many": _retrieval_counts,
    "prompting.render_zero_shot": lambda a, k, r: {"chars": len(r.text)},
    "prompting.render_few_shot": lambda a, k, r: {"chars": len(r.text)},
    "llm_client.translate_all": lambda a, k, r: {"segments": len(r)},
    "mt_metrics.bleu": lambda a, k, r: {"segments": len(_first(a, k, "pairs"))},
    "mt_metrics.chrf_pp": lambda a, k, r: {"segments": len(_first(a, k, "pairs"))},
    "mt_metrics.ter": lambda a, k, r: {"segments": len(_first(a, k, "pairs"))},
    "finetune_export.build_finetune_dataset": lambda a, k, r: {
        "examples": len(r[0]) + len(r[1])
    },
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    workload: str
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per traced call; use as a context manager to install."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        # a worker thread's first span hangs under the span that was open
        # in the installing thread when the work was handed over
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, parent, name, layer, self.workload, time.perf_counter())
        stack.append(span_id)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span opened by the benchmark itself, around one of its own steps."""
        span = self._open(name, layer)
        try:
            yield span
        except BaseException as exc:
            span.error = repr(exc)
            raise
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = repr(exc)
                raise
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    # -- install / remove ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        layer_modules = {layer: importlib.import_module(f"fuzzymt.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("fuzzymt.")]
        self._owner_stack = self._stack()
        for layer, names in BOUNDARIES.items():
            module = layer_modules[layer]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(original, f"{layer}.{qualname}", layer))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, f"{layer}.{attr}", layer)
                # `from .x import f` copies the binding, so patch every copy
                for other in modules:
                    if other.__dict__.get(attr) is original:
                        self._patch(other, attr, original, wrapped)
        return self

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- analysis ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - _covered(children.get(s.id, [])) for s in spans}


def descendants(spans: list[Span], root: int) -> list[Span]:
    """Every span under ``root`` (the root excluded)."""
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out, todo = [], [root]
    while todo:
        for child in kids.get(todo.pop(), []):
            out.append(child)
            todo.append(child.id)
    return out


def ancestors(spans: list[Span], span: Span) -> set[str]:
    by_id = {s.id: s for s in spans}
    names = set()
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
        names.add(span.name)
    return names
