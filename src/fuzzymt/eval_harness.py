"""End-to-end experiment orchestration and report rendering.

Runs zero-shot / one-shot translation conditions over a test corpus against
a completion endpoint, scores the generations, and renders a comparison
table. Every stage persists its artifacts under the output directory so
scoring can be re-run without re-translating.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import llm_client, retrieval
from .ann_index import IvfConfig
from .corpus import ParallelCorpus, pair_key, pair_keys
from .embedding import EmbeddingProviderConfig
from .errors import DataError, FuzzyMtError, LeakageError, ValidationError
from .llm_client import DecodingParams, TranslationResult
from .mt_metrics import EvalPair, MetricScore, References, score_all
from .prompting import LanguageNames, render_prompts, write_prompt_dump

CONDITION_ZERO = "zero-shot"
CONDITION_ONE = "one-shot"
CONDITION_ORDER = (CONDITION_ZERO, CONDITION_ONE)

CONTEXT_LABELS = {
    CONDITION_ZERO: "Source only (zero-shot)",
    CONDITION_ONE: "+ Fuzzy (one-shot)",
}

REPORT_COLUMNS = ("Model", "Context", "BLEU ↑", "chrF++ ↑", "TER ↓")
# record key -> MetricScore name, in report column order
_SCORE_KEYS = {"bleu": "BLEU", "chrf_pp": "chrF++", "ter": "TER"}
_ROW_TYPES = {"model": str, "context": str, **dict.fromkeys(_SCORE_KEYS, float)}


@dataclass
class ExperimentConfig:
    test_corpus: str
    context_corpus: str  # a corpus spec, or a store directory written by `fuzzymt index-build`
    provider: EmbeddingProviderConfig = field(default_factory=EmbeddingProviderConfig)
    ivf: IvfConfig | None = None  # None: defaults at the provider dim and `seed`; a store takes only nprobe
    endpoint: str = "http://127.0.0.1:8000"
    decoding: DecodingParams = field(default_factory=DecodingParams)
    conditions: list[str] = field(default_factory=lambda: [CONDITION_ZERO, CONDITION_ONE])
    output_dir: str = "runs/experiment"
    seed: int = 0
    model_name: str = "default"
    batch_size: int = llm_client.DEFAULT_BATCH_SIZE
    token_multiplier: int = llm_client.DEFAULT_TOKEN_MULTIPLIER
    max_concurrent_batches: int = 2
    allow_context_overlap: bool = False
    langs: LanguageNames = field(default_factory=LanguageNames)

    def __post_init__(self):
        if not self.conditions:
            raise ValidationError("conditions must be non-empty")
        for cond in self.conditions:
            if cond not in CONDITION_ORDER:
                raise ValidationError(f"unknown condition {cond!r}")
        for name in ("batch_size", "token_multiplier", "max_concurrent_batches"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class ConditionResult:
    condition: str
    translations: list[TranslationResult]
    scores: list[MetricScore]
    segments_per_second: float


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file; a null nested object means its default."""
    raw = corpus_mod.read_json(path)
    if isinstance(raw, dict):
        for key, cls in (("provider", EmbeddingProviderConfig), ("ivf", IvfConfig),
                         ("decoding", DecodingParams), ("langs", LanguageNames)):
            value = raw.pop(key, None)
            if value is not None:
                raw[key] = corpus_mod.dataclass_from_json(cls, value, key, f"{path}: ")
    return corpus_mod.dataclass_from_json(ExperimentConfig, raw, "config", f"{path}: ")


def config_digest(cfg: ExperimentConfig) -> str:
    def default(obj):
        return asdict(obj) if hasattr(obj, "__dataclass_fields__") else str(obj)

    canonical = json.dumps(asdict(cfg), sort_keys=True, default=default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@contextmanager
def _stage(label: str, stages: list[dict]):
    """Append the stage's label, wall seconds and ``items`` (which the body
    sets on the yielded record) to ``stages`` when it succeeds; re-raise
    pipeline and file errors with the failing stage named."""
    record = {"stage": label, "seconds": 0.0, "items": 0}
    t0 = time.perf_counter()
    try:
        yield record
    except FuzzyMtError as exc:
        exc.args = (f"[{label}] {exc}",) + exc.args[1:]
        raise
    except OSError as exc:
        raise DataError(f"[{label}] {exc}") from exc
    record["seconds"] = time.perf_counter() - t0
    stages.append(record)


def _retrieval_summary(match_lists: list[list]) -> dict:
    """Top-1 score quantiles (linear interpolation; None without any match) and
    the number of queries that got no match: the one-shot sources that were
    given their zero-shot prompt."""
    top = [matches[0].score for matches in match_lists if matches]
    p10, p50, p90 = np.percentile(top, [10, 50, 90]).tolist() if top else (None, None, None)
    return {"top1_score_p10": p10, "top1_score_p50": p50, "top1_score_p90": p90,
            "empty_hits": len(match_lists) - len(top)}


def check_no_leakage(test: ParallelCorpus, context: ParallelCorpus) -> None:
    """Error when any exact test pair also appears in the context corpus."""
    overlap = pair_keys(test) & pair_keys(context)
    if overlap:
        offending = [p.id for p in test.pairs if pair_key(p) in overlap]
        raise LeakageError(
            f"{len(offending)} test pairs present in the context corpus (ids {offending[:10]}"
            + ("..." if len(offending) > 10 else "")
            + ")",
            offending_ids=offending,
        )


def run_experiment(cfg: ExperimentConfig) -> list[ConditionResult]:
    # an invalid default config fails here, before anything is written
    ivf = cfg.ivf if cfg.ivf is not None else IvfConfig(dim=cfg.provider.dim, seed=cfg.seed)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started_at = datetime.now(timezone.utc).isoformat()
    stages: list[dict] = []

    with _stage("load-test-corpus", stages) as stage:
        test = corpus_mod.load_any(cfg.test_corpus)
        stage["items"] = len(test)
    # a store directory is loaded; a corpus is embedded and indexed here
    with _stage("load-context-corpus", stages) as stage:
        store = retrieval.open_context_store(cfg.context_corpus, cfg.provider, ivf)
        stage["items"] = len(store)
    if not cfg.allow_context_overlap:
        with _stage("leakage-check", stages) as stage:
            check_no_leakage(test, store.corpus)
            stage["items"] = len(test)

    match_lists = None
    retrieved = None
    if CONDITION_ONE in cfg.conditions:
        with _stage("retrieve", stages) as stage:
            match_lists = retrieval.retrieve_fuzzy_many(store, test.sources(), k=1)
            stage["items"] = len(match_lists)
            retrieved = _retrieval_summary(match_lists)
            retrieval.write_retrieval_dump(
                out_dir / "retrieval.jsonl", test.ids(), match_lists
            )

    results: list[ConditionResult] = []
    references = None
    for condition in CONDITION_ORDER:
        if condition not in cfg.conditions:
            continue
        with _stage(f"prompts-{condition}", stages) as stage:
            # read once for every condition; a reference without a token fails before any request
            references = references or References(test.targets())
            prompts = render_prompts(test.sources(), match_lists if condition == CONDITION_ONE else None, cfg.langs)
            stage["items"] = len(prompts)
            write_prompt_dump(
                out_dir / f"prompts.{condition}.jsonl", test.ids(), prompts, test.targets()
            )
        with _stage(f"translate-{condition}", stages) as stage:
            batches = llm_client.make_batches(
                prompts,
                batch_size=cfg.batch_size,
                token_multiplier=cfg.token_multiplier,
                params=cfg.decoding,
                ids=test.ids(),
            )
            translations = llm_client.translate_all(
                batches,
                cfg.endpoint,
                model=cfg.model_name,
                max_concurrent_batches=cfg.max_concurrent_batches,
                trace_path=out_dir / f"trace.{condition}.jsonl",
                generations=out_dir / f"generations.{condition}.jsonl",
            )
            stage["items"] = len(translations)
        segments_per_second = stage["items"] / max(stage["seconds"], 1e-9)
        with _stage(f"score-{condition}", stages) as stage:
            pairs = [
                EvalPair(hypothesis=r.text, reference=t)
                for r, t in zip(translations, test.targets())
            ]
            scores = score_all(pairs, references)
            stage["items"] = len(pairs)
        results.append(
            ConditionResult(
                condition=condition,
                translations=translations,
                scores=scores,
                segments_per_second=segments_per_second,
            )
        )

    with _stage("report", stages) as stage:
        for fmt, suffix in (("markdown", "md"), ("tsv", "tsv"), ("json", "json")):
            (out_dir / f"report.{suffix}").write_text(
                render_report(results, fmt, model_name=cfg.model_name), encoding="utf-8"
            )
        stage["items"] = len(results)
    with _stage("run-meta", stages):
        lengths = store.index.list_lengths()
        meta = {
            "schema_version": 1,
            "config_sha256": config_digest(cfg),
            "seed": cfg.seed,
            "started_at": started_at,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "conditions": [r.condition for r in results],
            "test_segments": len(test),
            "context_segments": len(store),
            "segments_per_second": {
                r.condition: r.segments_per_second for r in results
            },
            # wall time and item count (pairs, texts or report rows) of every
            # stage before this one; timings stay out of report.*
            "stages": stages,
            # null when no condition retrieves; empty_hits counts the one-shot
            # sources given their zero-shot prompt for want of a match
            "retrieval": retrieved,
            # the list count (1: the flat index) and the lists' balance
            "index": {"nlist": store.index.config.nlist, "list_size_min": min(lengths),
                      "list_size_max": max(lengths), "lists_empty": lengths.count(0)},
        }
        corpus_mod.write_json(out_dir / "run_meta.json", meta)
    return results


def _by_id(path: Path, key: str) -> dict[int, str]:
    """The ``key`` string of each JSON-lines record by its int id, which no two lines may share."""
    values: dict[int, str] = {}
    first_line: dict[int, int] = {}
    for lineno, record in corpus_mod.iter_jsonl(path, required={"id": int, key: str}):
        corpus_mod.check_new_id(path, lineno, record["id"], first_line)
        values[record["id"]] = record[key]
    return values


def rescore_condition(output_dir: str | Path, condition: str) -> list[MetricScore]:
    """Recompute scores for one condition from persisted artifacts only."""
    out_dir = Path(output_dir)
    prompts_path = out_dir / f"prompts.{condition}.jsonl"
    generations_path = out_dir / f"generations.{condition}.jsonl"
    refs = _by_id(prompts_path, "reference")
    texts = _by_id(generations_path, "text")
    stray = next((pid for pid in texts if pid not in refs), None)
    if stray is not None:
        raise DataError(f"{generations_path}: id {stray!r} has no prompt in {prompts_path}")
    missing = next((pid for pid in refs if pid not in texts), None)
    if missing is not None:
        raise DataError(f"{generations_path}: prompt id {missing!r} of {prompts_path} has no generation")
    return score_all([EvalPair(hypothesis=text, reference=refs[pid]) for pid, text in texts.items()])


# -- report rendering ------------------------------------------------------------


def score_record(scores: list[MetricScore]) -> dict:
    """A ``score_all`` result as {bleu, chrf_pp, ter}: the scores of a report
    row and of ``fuzzymt evaluate``."""
    by_name = {s.name: s.value for s in scores}
    return {key: by_name[name] for key, name in _SCORE_KEYS.items()}


def _result_row(result: ConditionResult, model_name: str) -> dict:
    # throughput stays out of the report rows so reruns are byte-identical
    return {"model": model_name, "context": CONTEXT_LABELS[result.condition], **score_record(result.scores)}


def _table(rows: list[dict], format: str) -> str:
    """Report rows as a markdown or TSV table, scores to two decimals."""
    lines = [list(REPORT_COLUMNS)] + [
        [row["model"], row["context"], *(f"{row[key]:.2f}" for key in _SCORE_KEYS)] for row in rows
    ]
    if format == "markdown":
        text = ["| " + " | ".join(cells) + " |" for cells in lines]
        text.insert(1, "|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|")
    elif format == "tsv":
        text = ["\t".join(cells) for cells in lines]
    else:
        raise ValidationError(f"unknown report format {format!r}")
    return "\n".join(text) + "\n"


def render_report(
    results: list[ConditionResult], format: str = "markdown", model_name: str = "default"
) -> str:
    """Table-style comparison; zero-shot rows precede one-shot rows."""
    if not results:
        raise ValidationError("render_report requires at least one condition result")
    ordered = sorted(results, key=lambda r: CONDITION_ORDER.index(r.condition))
    rows = [_result_row(r, model_name) for r in ordered]
    if format == "json":
        return corpus_mod.encode_json({"columns": list(REPORT_COLUMNS), "rows": rows})
    return _table(rows, format)


def report_json_to_table(path: str | Path, format: str = "markdown") -> str:
    """Re-render the JSON report at ``path`` as a markdown or TSV table.

    Raises ValidationError naming ``path`` when the file is not a report that
    render_report could have written: an object whose "rows" each hold model
    and context strings and bleu, chrf_pp and ter numbers.
    """
    payload = corpus_mod.read_json(path)
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, dict) and all(
            corpus_mod.fits(row.get(key), tp) for key, tp in _ROW_TYPES.items()) for row in rows):
        raise ValidationError(f'{path}: not a JSON report: expected {{"rows": [{{model, context, '
                              'bleu, chrf_pp, ter}, ...]}')
    return _table(rows, format)
