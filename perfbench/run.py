"""Benchmark of the fuzzymt pipeline: seeded workloads, output checks, per-layer trace.

Run from the repository root, offline:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is generated from ``--seed`` as TSV files and run against the
``echo-fuzzy`` mock endpoint of ``llm_client.run_mock_server``; the program
is imported from ``src/`` through its public API. The endpoint is served
from a forked process of its own, and every workload runs in a forked
process of its own, so ``peak_rss_mb`` is the peak of the process that ran
that workload alone: no other workload and no endpoint request log counts
in it.

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's job repeats at least MIN_REPS times and until its timed reps
add up to ``--seconds`` (median -> ``items_per_s``); before each of the
first SETUP_REPS reps the context store is built once more (median ->
``setup_s``). The peak memory is read right
after the timed reps, before the checks and the exact reference run.
``--trace 1`` runs the job once untraced and once with a span around every
layer entry point (see tracing.py), sweeps ``nprobe`` against exact
search, and reports the per-layer metrics. A layer that a
workload's job never calls reports 0 for its per-layer metrics.

Every run checks the job's outputs. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record, with environment, digests and checks, goes to
``.bench_runs/<workload>/seed<N>-trace<T>/result.json``. The exit code is
0 when every check passed and 1 when one failed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "fuzzymt").is_dir():
    # never fall back to an installed copy: the benchmark measures this tree
    sys.exit(f"{ROOT / 'src' / 'fuzzymt'} not found; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

# Layer functions are called through their modules, so the tracer's
# wrappers see the benchmark's own calls too.
from fuzzymt import corpus, embedding, eval_harness, finetune_export, llm_client, retrieval  # noqa: E402
from fuzzymt.ann_index import ClusterRangeWarning, IvfConfig  # noqa: E402
from fuzzymt.embedding import EmbeddingProviderConfig  # noqa: E402
from fuzzymt.eval_harness import CONDITION_ORDER, ExperimentConfig  # noqa: E402
from fuzzymt.finetune_export import MixSpec, TrainingManifest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, WorkloadSpec, generate  # noqa: E402

RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPS = 9
MIN_REPS = 7
SWEEP_QUERIES = 200
SWEEP_K = 10
NPROBES = (1, 4, 16, 32)
EXACT_REF_REPS = 5
EXPORT_ONE_SHOT_RATIO = 0.5
EXPORT_VALIDATION = 500
PROVIDER = EmbeddingProviderConfig()

HIGHER, LOWER = "higher", "lower"
# name -> (unit, which direction is better); BENCHMARK.json declares the same.
END_TO_END = {
    "items_per_s": ("items/s", HIGHER),
    "setup_s": ("s", LOWER),
    "peak_rss_mb": ("MB", LOWER),
    "top1_agreement": ("ratio", HIGHER),
}
# The one-shot scores are printed and recorded for the run workloads only;
# the export workload has no scored output.
SCORES = ("bleu_one_shot", "chrf_one_shot", "ter_one_shot")

PER_LAYER = {
    "corpus.load_s": ("s", LOWER),
    "embedding.self_s": ("s", LOWER),
    "embedding.texts_per_s": ("1/s", HIGHER),
    "embedding.chars_per_s": ("1/s", HIGHER),
    "ann_index.self_s": ("s", LOWER),
    "ann_index.train_s": ("s", LOWER),
    "ann_index.add_s": ("s", LOWER),
    **{f"ann_index.search_qps.nprobe_{p}": ("1/s", HIGHER) for p in (*NPROBES, "all")},
    **{f"ann_index.recall_at_10.nprobe_{p}": ("ratio", HIGHER) for p in (*NPROBES, "all")},
    "ann_index.list_size_min": ("count", HIGHER),
    "ann_index.list_size_max": ("count", LOWER),
    "ann_index.lists_empty": ("count", LOWER),
    "ann_index.exact_ref_qps": ("1/s", HIGHER),
    "retrieval.self_s": ("s", LOWER),
    "retrieval.queries_per_s": ("1/s", HIGHER),
    "retrieval.score_p10": ("cosine", HIGHER),
    "retrieval.score_p50": ("cosine", HIGHER),
    "retrieval.score_p90": ("cosine", HIGHER),
    "retrieval.empty_hits": ("count", LOWER),
    "prompting.self_s": ("s", LOWER),
    "prompting.prompts_per_s": ("1/s", HIGHER),
    "prompting.prompt_chars_mean": ("chars", LOWER),
    "llm_client.self_s": ("s", LOWER),
    "llm_client.segments_per_s": ("1/s", HIGHER),
    "llm_client.batches": ("count", LOWER),
    "llm_client.batches_failed": ("count", LOWER),
    "llm_client.batch_latency_p50_ms": ("ms", LOWER),
    "llm_client.batch_latency_p90_ms": ("ms", LOWER),
    "mt_metrics.self_s": ("s", LOWER),
    "mt_metrics.bleu_seg_per_s": ("1/s", HIGHER),
    "mt_metrics.chrf_seg_per_s": ("1/s", HIGHER),
    "mt_metrics.ter_seg_per_s": ("1/s", HIGHER),
    "finetune_export.examples_per_s": ("1/s", HIGHER),
    "finetune_export.self_s": ("s", LOWER),
    "finetune_export.write_s": ("s", LOWER),
    "eval_harness.self_s": ("s", LOWER),
}

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MOVES = {
    "corpus": "items_per_s everywhere (small share)",
    "embedding": "setup_s on tm-build; items_per_s on finetune-export (query embedding)",
    "ann_index": "train -> setup_s on tm-build; search -> items_per_s on finetune-export and "
    "top1_agreement on all; no change on long-segments",
    "retrieval": "items_per_s on finetune-export",
    "prompting": "items_per_s on finetune-export (small)",
    "llm_client": "items_per_s on tm-build (small)",
    "mt_metrics": "items_per_s on long-segments; little on tm-build",
    "finetune_export": "items_per_s on finetune-export",
    "eval_harness": "items_per_s on tm-build and long-segments",
}
# The stage each workload exists to load: it must be the largest share of the traced job.
DOMINANT_STAGE = {
    "tm-build": "retrieval.build_context_store",
    "long-segments": "mt_metrics.ter",
    "finetune-export": "retrieval.retrieve_fuzzy_many",
}


def ivf_config(n_context: int) -> IvfConfig:
    # nlist at the low edge of the 4*sqrt(N)..16*sqrt(N) band; nprobe and
    # kmeans_iters keep their defaults
    return IvfConfig(dim=PROVIDER.dim, nlist=math.ceil(4 * math.sqrt(n_context)))


def export_mix(n_queries: int, seed: int) -> MixSpec:
    return MixSpec(
        total=n_queries,
        one_shot_ratio=EXPORT_ONE_SHOT_RATIO,
        validation_size=EXPORT_VALIDATION,
        seed=seed,
    )


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- jobs ----------------------------------------------------------------------


class Job:
    """One workload's job on generated inputs; ``run`` returns the timed wall seconds."""

    def __init__(self, spec: WorkloadSpec, wl: Workload, seed: int, endpoint: str):
        self.spec = spec
        self.wl = wl
        self.seed = seed
        self.endpoint = endpoint
        self.context = corpus.load_any(os.path.relpath(wl.context_path))
        self.queries = corpus.load_any(os.path.relpath(wl.queries_path))
        self.ivf = ivf_config(len(self.context))
        self.mix = export_mix(len(self.queries), seed) if spec.job == "export" else None
        self._context_vecs = None

    @property
    def context_vecs(self) -> np.ndarray:
        """The context embeddings, computed once, for the exact reference."""
        if self._context_vecs is None:
            self._context_vecs = embedding.embed_batch(self.context.sources(), PROVIDER)
        return self._context_vecs

    @property
    def items(self) -> int:
        if self.spec.job == "run":
            return len(self.queries) * len(CONDITION_ORDER)
        return self.mix.total

    @property
    def digest_files(self) -> tuple[str, ...]:
        return checks.RUN_DIGEST_FILES if self.spec.job == "run" else checks.EXPORT_DIGEST_FILES

    def build_store(self):
        return retrieval.build_context_store(self.context, PROVIDER, self.ivf)

    def run(self, store, out_dir: Path) -> float:
        out_dir.mkdir(parents=True)
        if self.spec.job == "run":
            cfg = ExperimentConfig(
                test_corpus=os.path.relpath(self.wl.queries_path),
                context_corpus=os.path.relpath(self.wl.context_path),
                provider=PROVIDER,
                ivf=self.ivf,
                endpoint=self.endpoint,
                output_dir=str(out_dir),
                seed=self.seed,
            )
            t0 = time.perf_counter()
            eval_harness.run_experiment(cfg)
            return time.perf_counter() - t0
        queries = corpus.load_any(os.path.relpath(self.wl.queries_path))
        t0 = time.perf_counter()
        train, validation = finetune_export.build_finetune_dataset(queries, store, self.mix)
        wall = time.perf_counter() - t0
        finetune_export.write_jsonl(train, out_dir / "train.jsonl")
        finetune_export.write_jsonl(validation, out_dir / "validation.jsonl")
        finetune_export.emit_training_manifest(TrainingManifest(), out_dir / "manifest.json")
        return wall

    # -- checks --------------------------------------------------------------

    def check(self, out_dir: Path) -> tuple[dict, dict, dict]:
        """(problems per check, retrieval quality, operation counts) for one job output."""
        if self.spec.job == "run":
            problems = checks.check_run(out_dir, self.queries, list(CONDITION_ORDER))
            top1 = checks.retrieved_top1(out_dir)
            rows = list(range(len(self.queries)))
            retrieved = [top1.get(qid) for qid in self.queries.ids()]
            traces = [checks.read_jsonl(out_dir / f"trace.{c}.jsonl") for c in CONDITION_ORDER]
            batches = [r for t in traces for r in t]
            ops = {
                "endpoint_batches": len(batches),
                "endpoint_batches_failed": sum(r.get("error") is not None for r in batches),
                "retrieval_queries": len(top1),
                "retrieval_queries_failed": sum(v is None for v in top1.values()),
            }
            scores = self._one_shot_scores(out_dir)
        else:
            problems, one_shot = checks.check_export(out_dir, self.queries, self.mix)
            id_by_source = {p.source: p.id for p in self.context.pairs}
            rows = [row for row, _ in one_shot]
            retrieved = [id_by_source.get(source) for _, source in one_shot]
            exported = len(checks.read_export(out_dir))
            ops = {
                "retrieval_queries": len(one_shot),
                "retrieval_queries_failed": sum(v is None for v in retrieved),
                "exported_examples": self.mix.total,
                "exported_examples_failed": self.mix.total - exported,
            }
            scores = {}
        sources = [self.queries.pairs[r].source for r in rows]
        exact = checks.exact_top(self.context_vecs, embedding.embed_batch(sources, PROVIDER), 1)[:, 0]
        context_ids = np.asarray(self.context.ids())
        agree = [r is not None and r == context_ids[e] for r, e in zip(retrieved, exact)]
        found = [self.wl.parents[r] is not None and self.wl.parents[r] == context_ids[e] for r, e in zip(rows, exact)]
        quality = {
            "top1_agreement": sum(agree) / len(agree),
            "near_dup_found_share": sum(found) / len(found),
            **scores,
        }
        return problems, quality, ops

    def _one_shot_scores(self, out_dir: Path) -> dict:
        rows = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["rows"]
        label = eval_harness.CONTEXT_LABELS[eval_harness.CONDITION_ONE]
        one = next(row for row in rows if row["context"] == label)
        return {"bleu_one_shot": one["bleu"], "chrf_one_shot": one["chrf_pp"], "ter_one_shot": one["ter"]}


# -- one workload ----------------------------------------------------------------


def prepare(spec: WorkloadSpec, seed: int, trace: int, endpoint: str) -> tuple[Job, Path]:
    workdir = RUNS_DIR / spec.name / f"seed{seed}-trace{trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    wl = generate(spec, seed, workdir / "inputs")
    return Job(spec, wl, seed, endpoint), workdir


def measure(spec: WorkloadSpec, seed: int, seconds: float, endpoint: str) -> dict:
    """End-to-end metrics with tracing off."""
    job, workdir = prepare(spec, seed, 0, endpoint)
    # The builds alternate with the first timed reps, so that both medians
    # sample the same stretch of the host's speed, which drifts over tens
    # of seconds.
    setup, walls = [], []
    while len(setup) < SETUP_REPS or len(walls) < MIN_REPS or sum(walls) < seconds:
        if len(setup) < SETUP_REPS:
            t0 = time.perf_counter()
            store = job.build_store()
            setup.append(time.perf_counter() - t0)
        walls.append(job.run(store, workdir / f"rep{len(walls)}"))
    # before the checks, whose exact reference holds a float64 copy of the vectors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, quality, ops = job.check(workdir / "rep0")
    rep_digests = [checks.digests(workdir / f"rep{i}", job.digest_files) for i in range(len(walls))]
    problems["reps_byte_identical"] = [
        f"rep{i} differs from rep0" for i, d in enumerate(rep_digests) if d != rep_digests[0]
    ]
    for i in range(1, len(walls)):
        shutil.rmtree(workdir / f"rep{i}")  # rep0 stays as the checked record
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": job.items / statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "top1_agreement": quality["top1_agreement"],
    }
    for name in SCORES:
        if name in quality:
            metrics[name] = quality[name]
    return {
        "workdir": workdir,
        "job": job,
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0] if k in END_TO_END else "score"} for k, v in metrics.items()},
        "problems": problems,
        "operations": {k: v * len(walls) for k, v in ops.items()},
        "samples": {"setup_s": setup, "job_wall_s": walls, "items_per_rep": job.items},
        "quality": quality,
        "digests": rep_digests[0],
    }


def traced(spec: WorkloadSpec, seed: int, endpoint: str) -> dict:
    """Per-layer metrics: one untraced job, one traced job, an nprobe sweep."""
    job, workdir = prepare(spec, seed, 1, endpoint)
    untraced_wall = job.run(job.build_store(), workdir / "untraced")

    tracer = tracing.Tracer(spec.name)
    with tracer:
        with tracer.span("setup"):
            store = job.build_store()
        with tracer.span("job") as root:
            job.run(store, workdir / "traced")
    tracer.write(workdir / "spans.jsonl")

    problems, quality, ops = job.check(workdir / "traced")
    untraced = checks.digests(workdir / "untraced", job.digest_files)
    traced_digests = checks.digests(workdir / "traced", job.digest_files)
    problems["traced_same_outputs_as_untraced"] = [
        f"{name} differs" for name in untraced if untraced[name] != traced_digests[name]
    ]
    problems["spans_without_error"] = [f"{s.name}: {s.error}" for s in tracer.spans if s.error]

    layer, breakdown = layer_metrics(tracer.spans, root)
    layer.update(nprobe_sweep(job, store))
    timed = "eval_harness.run_experiment" if spec.job == "run" else "finetune_export.build_finetune_dataset"
    traced_wall = sum(s.duration for s in tracer.spans if s.name == timed)
    breakdown["tracing_overhead"] = traced_wall / untraced_wall - 1.0
    breakdown["dominant_stage_expected"] = DOMINANT_STAGE[spec.name]
    return {
        "workdir": workdir,
        "job": job,
        "metrics": {k: {"value": layer[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()},
        "problems": problems,
        "operations": {k: 2 * v for k, v in ops.items()},
        "samples": {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall},
        "quality": quality,
        "breakdown": breakdown,
        "digests": traced_digests,
    }


def layer_metrics(spans: list[tracing.Span], root: tracing.Span) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the job's layer and stage shares."""
    st = tracing.self_times(spans)
    in_job = tracing.descendants(spans, root.id)

    def calls(name, pool=in_job):
        return [s for s in pool if s.name == name]

    def busy(name, pool=in_job):
        return sum(s.duration for s in calls(name, pool))

    def counted(name, key, pool=in_job):
        return sum(s.counts.get(key, 0) for s in calls(name, pool))

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    self_s = {layer: sum(st[s.id] for s in in_job if s.layer == layer) for layer in tracing.LAYERS}
    renders = calls("prompting.render_zero_shot") + calls("prompting.render_few_shot")
    batch_ms = [s.duration * 1000.0 for s in calls("llm_client.translate_batch")]
    scores = [x for s in calls("retrieval.retrieve_fuzzy_many") for x in s.counts["top1_scores"]]
    m = {f"{layer}.self_s": self_s[layer] for layer in tracing.LAYERS}
    m.update(
        {
            "corpus.load_s": self_s["corpus"],
            # the setup build counts too, so every workload measures training
            "embedding.texts_per_s": rate(counted("embedding.embed_batch", "texts", spans), busy("embedding.embed_batch", spans)),
            "embedding.chars_per_s": rate(counted("embedding.embed_batch", "chars", spans), busy("embedding.embed_batch", spans)),
            "ann_index.train_s": statistics.median(s.duration for s in calls("ann_index.train", spans)),
            "ann_index.add_s": statistics.median(s.duration for s in calls("ann_index.IvfIndex.add", spans)),
            "retrieval.queries_per_s": rate(counted("retrieval.retrieve_fuzzy_many", "queries"), busy("retrieval.retrieve_fuzzy_many")),
            "retrieval.score_p10": pct(scores, 10),
            "retrieval.score_p50": pct(scores, 50),
            "retrieval.score_p90": pct(scores, 90),
            "retrieval.empty_hits": counted("retrieval.retrieve_fuzzy_many", "empty"),
            "prompting.prompts_per_s": rate(len(renders), sum(s.duration for s in renders)),
            "prompting.prompt_chars_mean": rate(sum(s.counts["chars"] for s in renders), len(renders)),
            "llm_client.segments_per_s": rate(counted("llm_client.translate_all", "segments"), busy("llm_client.translate_all")),
            "llm_client.batches": len(batch_ms),
            "llm_client.batches_failed": sum(1 for s in calls("llm_client.translate_batch") if s.error),
            "llm_client.batch_latency_p50_ms": pct(batch_ms, 50),
            "llm_client.batch_latency_p90_ms": pct(batch_ms, 90),
            "mt_metrics.bleu_seg_per_s": rate(counted("mt_metrics.bleu", "segments"), busy("mt_metrics.bleu")),
            "mt_metrics.chrf_seg_per_s": rate(counted("mt_metrics.chrf_pp", "segments"), busy("mt_metrics.chrf_pp")),
            "mt_metrics.ter_seg_per_s": rate(counted("mt_metrics.ter", "segments"), busy("mt_metrics.ter")),
            "finetune_export.examples_per_s": rate(
                counted("finetune_export.build_finetune_dataset", "examples"),
                busy("finetune_export.build_finetune_dataset"),
            ),
            "finetune_export.write_s": busy("finetune_export.write_jsonl"),
        }
    )

    # inclusive time per entry point; the expected stage must beat every
    # entry point that does not contain it
    stage_s: dict[str, float] = {}
    for s in in_job:
        stage_s[s.name] = stage_s.get(s.name, 0.0) + s.duration
    expected = DOMINANT_STAGE[root.workload]
    containing = set().union(*(tracing.ancestors(spans, s) for s in calls(expected))) if calls(expected) else set()
    rivals = {n: t for n, t in stage_s.items() if n not in containing}
    breakdown = {
        "job_s": root.duration,
        "layer_share": {layer: self_s[layer] / root.duration for layer in tracing.LAYERS},
        "stage_s": dict(sorted(stage_s.items(), key=lambda kv: -kv[1])),
        "dominant_stage": max(rivals, key=rivals.get) if rivals else None,
    }
    return m, breakdown


def nprobe_sweep(job: Job, store) -> dict:
    """search qps and recall@10 per nprobe, against exact float64 search."""
    sources = job.queries.sources()[:SWEEP_QUERIES]
    queries = embedding.embed_batch(sources, PROVIDER)
    context_vecs = job.context_vecs
    exact = checks.exact_top(context_vecs, queries, SWEEP_K)
    context_ids = np.asarray(job.context.ids())
    exact_ids = [set(context_ids[row].tolist()) for row in exact]
    out = {}
    nlist = store.index.config.nlist
    for label, nprobe in [*((p, p) for p in NPROBES), ("all", nlist)]:
        t0 = time.perf_counter()
        hits = [store.index.search(q, SWEEP_K, nprobe_override=nprobe) for q in queries]
        elapsed = time.perf_counter() - t0
        recall = [len({h.id for h in hs} & ex) / SWEEP_K for hs, ex in zip(hits, exact_ids)]
        out[f"ann_index.search_qps.nprobe_{label}"] = len(queries) / elapsed
        out[f"ann_index.recall_at_10.nprobe_{label}"] = sum(recall) / len(recall)

    # crossover reference: one float32 matmul plus top-k selection over the same vectors
    ref = []
    for _ in range(EXACT_REF_REPS):
        t0 = time.perf_counter()
        np.argpartition(-(queries @ context_vecs.T), SWEEP_K, axis=1)[:, :SWEEP_K]
        ref.append(time.perf_counter() - t0)
    out["ann_index.exact_ref_qps"] = len(queries) / statistics.median(ref)
    lengths = store.index.list_lengths()
    out["ann_index.list_size_min"] = min(lengths)
    out["ann_index.list_size_max"] = max(lengths)
    out["ann_index.lists_empty"] = sum(1 for n in lengths if n == 0)
    return out


def run_workload(spec: WorkloadSpec, seed: int, seconds: float, trace: int, endpoint: str) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = traced(spec, seed, endpoint) if trace else measure(spec, seed, seconds, endpoint)
    result["problems"]["no_cluster_range_warning"] = [
        str(w.message) for w in caught if issubclass(w.category, ClusterRangeWarning)
    ]
    job = result.pop("job")
    workdir = result.pop("workdir")
    record = {
        "workload": spec.name,
        "why": spec.why,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(),
        "inputs": job.wl.stats,
        "layer_moves": LAYER_MOVES,
        "correct": not any(result["problems"].values()),
        **result,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


# -- processes -------------------------------------------------------------------

FORK = multiprocessing.get_context("fork")


def _serve(conn, parent_end) -> None:
    parent_end.close()  # so the parent's exit reads as end-of-file here
    with llm_client.run_mock_server("echo-fuzzy") as server:
        conn.send(server.endpoint)
        try:
            conn.recv()
        except EOFError:
            pass


@contextmanager
def mock_endpoint():
    """The echo-fuzzy mock endpoint, served from a forked process until exit."""
    ours, theirs = FORK.Pipe()
    proc = FORK.Process(target=_serve, args=(theirs, ours), daemon=True)
    proc.start()
    theirs.close()
    try:
        yield ours.recv()
    finally:
        ours.send("stop")
        ours.close()
        proc.join()


def _run_child(conn, *args) -> None:
    try:
        conn.send(run_workload(*args))
    finally:
        conn.close()


def run_isolated(spec: WorkloadSpec, *args) -> dict:
    """``run_workload`` in a forked process of its own; its result record."""
    ours, theirs = FORK.Pipe(duplex=False)
    proc = FORK.Process(target=_run_child, args=(theirs, spec, *args))
    proc.start()
    theirs.close()
    try:
        record = ours.recv()
    except EOFError:
        record = None
    finally:
        ours.close()
        proc.join()
    if record is None or proc.exitcode != 0:
        raise RuntimeError(f"{spec.name}: workload process ended with exit code {proc.exitcode}")
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"{name:16} {metric:38} {m['value']:>14.6g} {m['unit']}")
    quality = record["quality"]
    print(f"{name:16} {'near_dup_found_share':38} {quality['near_dup_found_share']:>14.6g} ratio")
    breakdown = record.get("breakdown")
    if breakdown:
        for layer, share in breakdown["layer_share"].items():
            print(f"{name:16} share.{layer:32} {share:>14.1%}")
        holds = breakdown["dominant_stage"] == breakdown["dominant_stage_expected"]
        print(f"{name:16} {'largest stage':38} {breakdown['dominant_stage']} ({'as designed' if holds else 'NOT as designed'})")
        print(f"{name:16} {'tracing overhead':38} {breakdown['tracing_overhead']:>14.1%}")
    for check, problems in record["problems"].items():
        if problems:
            print(f"{name:16} CHECK FAILED {check}: {problems[:3]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    with mock_endpoint() as endpoint:
        for name in names:
            record = run_isolated(WORKLOADS[name], args.seed, args.seconds, args.trace, endpoint)
            print_record(record)
            records.append(record)

    ops = [r["operations"] for r in records]
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(v for o in ops for k, v in o.items() if not k.endswith("_failed")),
        "failed": sum(v for o in ops for k, v in o.items() if k.endswith("_failed")),
        "metrics": {},
    }
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}/"
        wanted = PER_LAYER if args.trace else END_TO_END
        for metric in wanted:
            summary["metrics"][prefix + metric] = r["metrics"][metric]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
