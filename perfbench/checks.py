"""Output checks, exact-search reference and digests for one benchmark run.

Every check reads the files a job wrote and returns a list of problems;
an empty list means the check passed. The exact reference is computed
here in float64, independently of ``IvfIndex.search``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from fuzzymt import eval_harness
from fuzzymt.corpus import ParallelCorpus
from fuzzymt.errors import ArgumentError
from fuzzymt.finetune_export import SHOT_ONE, SHOT_ZERO, MixSpec, make_completion
from fuzzymt.mt_metrics import EvalPair, score_all
from fuzzymt.prompting import parse_prompt, render_zero_shot

RUN_DIGEST_FILES = ("report.md", "report.tsv", "report.json", "retrieval.jsonl")
EXPORT_DIGEST_FILES = ("train.jsonl", "validation.jsonl", "manifest.json")
EXACT_CHUNK = 256


def read_jsonl(path: Path) -> list[dict]:
    # the files are read as written, not through the readers under test
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digests(out_dir: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def exact_top(context_vecs: np.ndarray, query_vecs: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k best cosine scores per query, float64, ties to the lower row.

    Context rows are in id order, so the lower row is the lower id.
    """
    context = context_vecs.astype(np.float64)
    out = np.empty((len(query_vecs), k), dtype=np.int64)
    for start in range(0, len(query_vecs), EXACT_CHUNK):
        scores = query_vecs[start : start + EXACT_CHUNK].astype(np.float64) @ context.T
        out[start : start + EXACT_CHUNK] = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return out


# -- run job (eval_harness.run_experiment) ---------------------------------------


def retrieved_top1(out_dir: Path) -> dict[int, int | None]:
    """Query id -> context id of its first match in retrieval.jsonl."""
    return {
        r["query_id"]: (r["matches"][0]["context_id"] if r["matches"] else None)
        for r in read_jsonl(out_dir / "retrieval.jsonl")
    }


def check_run(out_dir: Path, test: ParallelCorpus, conditions: list[str]) -> dict[str, list[str]]:
    refs = dict(zip(test.ids(), test.targets()))
    problems: dict[str, list[str]] = {
        "generation_per_test_id": [],
        "trace_without_error": [],
        "one_shot_is_retrieved_target": [],
        "report_matches_score_all": [],
    }
    generations = {}
    for cond in conditions:
        records = read_jsonl(out_dir / f"generations.{cond}.jsonl")
        generations[cond] = {r["id"]: r["text"] for r in records}
        if len(records) != len(refs) or set(generations[cond]) != set(refs):
            problems["generation_per_test_id"].append(
                f"{cond}: {len(records)} generations for {len(refs)} test ids"
            )
        for record in read_jsonl(out_dir / f"trace.{cond}.jsonl"):
            if record.get("error") is not None:
                problems["trace_without_error"].append(f"{cond}: {record['error']}")

    retrieval = {r["query_id"]: r["matches"] for r in read_jsonl(out_dir / "retrieval.jsonl")}
    for qid, text in generations.get(eval_harness.CONDITION_ONE, {}).items():
        matches = retrieval.get(qid)
        if not matches or text != matches[0]["target"]:
            problems["one_shot_is_retrieved_target"].append(f"query {qid}")

    rows = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["rows"]
    by_label = {row["context"]: row for row in rows}
    for cond in conditions:
        pairs = [EvalPair(hypothesis=generations[cond].get(i, ""), reference=refs[i]) for i in test.ids()]
        scores = {s.name: s.value for s in score_all(pairs)}
        row = by_label.get(eval_harness.CONTEXT_LABELS[cond], {})
        got = (row.get("bleu"), row.get("chrf_pp"), row.get("ter"))
        want = (scores["BLEU"], scores["chrF++"], scores["TER"])
        if got != want:
            problems["report_matches_score_all"].append(f"{cond}: report {got} vs score_all {want}")
    return problems


# -- export job (finetune_export.build_finetune_dataset) -------------------------


def read_export(out_dir: Path) -> list[dict]:
    return read_jsonl(out_dir / "train.jsonl") + read_jsonl(out_dir / "validation.jsonl")


def check_export(
    out_dir: Path, queries: ParallelCorpus, mix: MixSpec
) -> tuple[dict[str, list[str]], list[tuple[int, str]]]:
    """Problems per check, plus (query row, retrieved source) per one-shot example."""
    problems: dict[str, list[str]] = {"shot_counts_match_mix": [], "one_shot_ends_with_zero_shot": []}
    row_by_completion = {make_completion(p.target): i for i, p in enumerate(queries.pairs)}
    examples = read_export(out_dir)
    validation = read_jsonl(out_dir / "validation.jsonl")
    n_one = sum(1 for ex in examples if ex["shot_type"] == SHOT_ONE)
    want_one = round(mix.total * mix.one_shot_ratio)
    if len(examples) != mix.total or len(validation) != mix.validation_size or n_one != want_one:
        problems["shot_counts_match_mix"].append(
            f"{len(examples)} examples, {len(validation)} validation, {n_one} one-shot; "
            f"mix wants {mix.total}, {mix.validation_size}, {want_one}"
        )
    one_shot: list[tuple[int, str]] = []
    for ex in examples:
        row = row_by_completion.get(ex["completion"])
        if row is None:
            problems["one_shot_ends_with_zero_shot"].append(f"unknown completion {ex['completion']!r}")
            continue
        zero_shot = render_zero_shot(queries.pairs[row].source).text
        if ex["shot_type"] == SHOT_ZERO:
            if ex["prompt"] != zero_shot:
                problems["one_shot_ends_with_zero_shot"].append(f"zero-shot row {row} differs")
            continue
        try:
            shots, _ = parse_prompt(ex["prompt"])
        except ArgumentError as exc:
            problems["one_shot_ends_with_zero_shot"].append(f"one-shot row {row}: {exc}")
            continue
        if len(shots) != 1 or not ex["prompt"].endswith("\n" + zero_shot):
            problems["one_shot_ends_with_zero_shot"].append(f"one-shot row {row}")
            continue
        one_shot.append((row, shots[0][0]))
    return problems, one_shot
