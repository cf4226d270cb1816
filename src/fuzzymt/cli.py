"""Command-line entry point: one subcommand per pipeline stage.

Machine-readable output goes to stdout, logs and warnings to stderr.
Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 transport
error. Defaults mirror the reference experiment configuration (max-words 70,
dim 384, nlist 4096, nprobe 32, batch 20, token multiplier 4, greedy decoding
at temperature 0 with top_p 1, mix 20000 at ratio 0.5, validation 1000); each
is read from the dataclass or constant that owns it.

Context store: ``index-build --in CORPUS --out DIR`` writes DIR/corpus.jsonl,
DIR/index.ivf and DIR/store.json (provider fingerprint, IVF build config,
SHA-256 of both files). Wherever a context is named (--context, --index, a
run config's context_corpus), a directory is loaded as a store and a file is
a corpus that is embedded and indexed on the spot. A store fixes --provider,
--model, --dim and --seed (the caller's must match, else exit 2) and --nlist
and --kmeans-iters. It does not fix nprobe: only the commands that search
(index-search, retrieve, prompts, export-dataset) take --nprobe. A context
corpus of fewer than retrieval.FLAT_MAX_ROWS pairs gets the exact flat index
(nlist 1, no k-means), whatever --nlist and --kmeans-iters say; a larger one
needs --nlist at most its size. A fuzzy match's score is the cosine
similarity of two unit embeddings: every embedding is normalized, and the
index ranks by inner product.

Two ways of giving one input exclude each other (exit 1): index-search
--query and --queries, split --out and --validation-out, evaluate --in and
--hyp/--ref.

translate reads the language names from the prompt dump itself and takes no
name flags. It keeps the generations of every batch that got its reply, in
batch order, in --out or on stdout, also when another batch fails (exit 3).

--seed goes to the commands that draw random numbers: split (the validation
sample) and the five that take the provider flags (index-build, index-search,
retrieve, prompts, export-dataset), where it seeds the embedding, k-means and
the export's mix. index-search prints its hits to stdout and takes no --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ann_index, corpus, embedding, eval_harness, finetune_export, llm_client, mt_metrics, prompting, retrieval
from .errors import (
    ArgumentError,
    ContractViolationError,
    DataError,
    FuzzyMtError,
    PromptError,
    ProviderError,
    TransportError,
    UsageError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _print(obj) -> None:
    sys.stdout.write(corpus.encode_jsonl(obj))


def _log(message: str) -> None:
    sys.stderr.write(message + "\n")


def _not_both(first: str, first_value, second: str, second_value) -> None:
    """A UsageError when both flags were given, so neither is silently dropped."""
    if first_value is not None and second_value is not None:
        raise UsageError(f"{first} and {second} exclude each other")


def _load_corpus_arg(spec: str) -> corpus.ParallelCorpus:
    if spec == "-":
        return corpus.parse_tsv(sys.stdin.read(), "stdin")
    return corpus.load_any(spec)


def _write_corpus(c: corpus.ParallelCorpus, out: str | None) -> None:
    if out is not None and out.endswith(".jsonl"):
        corpus.write_jsonl_corpus(c, out)
    else:
        corpus.write_tsv(c, sys.stdout if out is None else out)


def _provider_from_args(args) -> embedding.EmbeddingProviderConfig:
    return embedding.EmbeddingProviderConfig(
        kind=args.provider,
        endpoint=args.endpoint,
        model_name=args.model,
        dim=args.dim,
        batch_size=args.embed_batch_size,
        seed=args.seed,
    )


def _langs_from_args(args) -> prompting.LanguageNames:
    return prompting.LanguageNames(source_name=args.source_name, target_name=args.target_name)


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    defaults = embedding.EmbeddingProviderConfig
    p.add_argument("--provider", default=defaults.kind,
                   choices=["deterministic-test", "remote-http"], help="embedding provider kind")
    p.add_argument("--endpoint", default=defaults.endpoint, help="embedding endpoint URL (remote provider)")
    p.add_argument("--model", default=defaults.model_name, help="embedding model name")
    p.add_argument("--dim", type=int, default=defaults.dim, help="embedding dimension")
    p.add_argument("--embed-batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--seed", type=int, default=defaults.seed, help="seed of the embedding and k-means, "
                   "fixed by a store (export-dataset: also of the mix)")


def _add_ivf_flags(p: argparse.ArgumentParser) -> None:
    defaults = ann_index.IvfConfig
    p.add_argument("--nlist", type=int, default=defaults.nlist, help="number of coarse clusters; a context "
                   f"under {retrieval.FLAT_MAX_ROWS} pairs gets 1 (the exact flat index)")
    p.add_argument("--kmeans-iters", type=int, default=defaults.kmeans_iters, help="Lloyd iterations; "
                   f"unused under {retrieval.FLAT_MAX_ROWS} pairs (no k-means)")


def _add_nprobe_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nprobe", type=int, default=ann_index.IvfConfig.nprobe, help="clusters searched per query")


def _add_lang_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source-name", default=prompting.LanguageNames.source_name)
    p.add_argument("--target-name", default=prompting.LanguageNames.target_name)


def _ivf_from_args(args) -> ann_index.IvfConfig:
    return ann_index.IvfConfig(
        dim=args.dim,
        nlist=args.nlist,
        nprobe=min(args.nprobe, args.nlist),
        kmeans_iters=args.kmeans_iters,
        seed=args.seed,
    )


_CONTEXT_HELP = (
    "context corpus (embedded and indexed here) or store directory from index-build "
    "(loaded: provider flags must match it, its IVF build values win, --nprobe is the caller's)"
)


def build_parser() -> _Parser:
    parser = _Parser(prog="fuzzymt", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", "--output", dest="out", default=None, help="output path")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("filter", parents=[common], help="dedup + length-filter a corpus")
    p.add_argument("--in", dest="inp", required=True, help="src.txt,tgt.txt | corpus.tsv | corpus.jsonl | -")
    p.add_argument("--max-words", type=int, default=corpus.DEFAULT_MAX_WORDS)

    p = sub.add_parser("split", parents=[common], help="seeded train/validation split")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--validation-size", type=int, default=1000)
    p.add_argument("--validation-out", default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for the validation sample")

    p = sub.add_parser("index-build", parents=[common], help="embed and index a context corpus once")
    p.add_argument("--in", dest="inp", required=True,
                   help="context corpus or store directory; --out DIR gets corpus.jsonl, index.ivf and store.json, "
                   "which fix the provider flags, --seed, --nlist and --kmeans-iters")
    _add_provider_flags(p)
    _add_ivf_flags(p)
    # a store does not fix nprobe (save drops it), so any valid value builds the same bytes
    p.set_defaults(nprobe=1)

    p = sub.add_parser("index-search", help="query a context store; hits go to stdout")
    p.add_argument("--index", required=True, help="store directory from index-build; the provider "
                   "flags must match it, --nprobe and -k are the caller's")
    p.add_argument("--query", default=None, help="single query text")
    p.add_argument("--queries", default=None, help="file with one query per line")
    p.add_argument("-k", type=int, default=1)
    _add_nprobe_flag(p)
    _add_provider_flags(p)

    p = sub.add_parser("retrieve", parents=[common], help="fuzzy-match lookup against a context corpus")
    p.add_argument("--in", dest="inp", required=True, help="query corpus")
    p.add_argument("--context", required=True, help=_CONTEXT_HELP)
    p.add_argument("-k", type=int, default=1)
    _add_provider_flags(p)
    _add_ivf_flags(p)
    _add_nprobe_flag(p)

    p = sub.add_parser("prompts", parents=[common], help="render a prompt dump for a test corpus")
    p.add_argument("--in", dest="inp", required=True, help="test corpus")
    p.add_argument("--condition", default="zero-shot",
                   choices=[eval_harness.CONDITION_ZERO, eval_harness.CONDITION_ONE])
    p.add_argument("--context", default=None, help=_CONTEXT_HELP + " (one-shot)")
    _add_provider_flags(p)
    _add_ivf_flags(p)
    _add_nprobe_flag(p)
    _add_lang_flags(p)

    p = sub.add_parser("export-dataset", parents=[common], help="build the fine-tuning JSONL mix")
    p.add_argument("--in", dest="inp", required=True, help="training corpus")
    p.add_argument("--context", default=None, help=_CONTEXT_HELP + " (one-shot)")
    p.add_argument("--total", type=int, default=20000)
    p.add_argument("--ratio", type=float, default=finetune_export.MixSpec.one_shot_ratio,
                   help="one-shot fraction")
    p.add_argument("--validation-size", type=int, default=finetune_export.MixSpec.validation_size)
    _add_provider_flags(p)
    _add_ivf_flags(p)
    _add_nprobe_flag(p)
    _add_lang_flags(p)

    p = sub.add_parser("manifest", parents=[common], help="emit the training manifest JSON")
    training, lora = finetune_export.TrainingArgs, finetune_export.LoraConfig
    p.add_argument("--epochs", type=int, default=training.epochs)
    p.add_argument("--train-batch-size", type=int, default=training.batch_size)
    p.add_argument("--learning-rate", type=float, default=training.learning_rate)
    p.add_argument("--warmup-ratio", type=float, default=training.warmup_ratio)
    p.add_argument("--lora-r", type=int, default=lora.r)
    p.add_argument("--lora-alpha", type=int, default=lora.alpha)
    p.add_argument("--lora-dropout", type=float, default=lora.dropout)

    p = sub.add_parser("translate", parents=[common], help="drive a completion endpoint over a prompt dump")
    p.add_argument("--in", dest="inp", required=True, help="prompt dump JSONL; language names are read from it")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--model", default=eval_harness.ExperimentConfig.model_name)
    p.add_argument("--batch-size", type=int, default=llm_client.DEFAULT_BATCH_SIZE)
    p.add_argument("--token-multiplier", type=int, default=llm_client.DEFAULT_TOKEN_MULTIPLIER)
    p.add_argument("--temperature", type=float, default=llm_client.DecodingParams.temperature,
                   help="0 is greedy decoding")
    p.add_argument("--top-p", type=float, default=llm_client.DecodingParams.top_p)
    p.add_argument("--max-concurrent-batches", type=int,
                   default=eval_harness.ExperimentConfig.max_concurrent_batches)
    p.add_argument("--trace", default=None, help="JSONL request/response trace file")

    p = sub.add_parser("evaluate", parents=[common], help="score hypotheses with BLEU/chrF++/TER")
    p.add_argument("--in", dest="inp", default=None, help="JSONL with {id, hypothesis, reference}")
    p.add_argument("--hyp", default=None, help="hypothesis text file")
    p.add_argument("--ref", default=None, help="reference text file")

    p = sub.add_parser("report", parents=[common], help="re-render a JSON report as a table")
    p.add_argument("--in", dest="inp", required=True, help="report.json path")
    p.add_argument("--format", default="markdown", choices=["markdown", "tsv"])

    p = sub.add_parser("run", parents=[common], help="run the full experiment from a config file")
    p.add_argument("--config", required=True, help="experiment JSON config")

    return parser


# -- subcommand bodies -----------------------------------------------------------


def _cmd_filter(args) -> int:
    c = _load_corpus_arg(args.inp)
    filtered = corpus.filter_corpus(c, max_words=args.max_words)
    _write_corpus(filtered, args.out)
    summary = {"kept": len(filtered), "dropped": len(c) - len(filtered)}
    if args.out is None:
        _log(json.dumps(summary))
    else:
        _print({**summary, "out": args.out})
    return EXIT_OK


def _cmd_split(args) -> int:
    _not_both("--out", args.out, "--validation-out", args.validation_out)
    c = _load_corpus_arg(args.inp)
    split = corpus.split_corpus(c, args.validation_size, args.seed)
    if args.out is None:
        validation_out = args.validation_out
        if validation_out is None:
            raise UsageError("split needs --out PREFIX or --validation-out PATH")
        _write_corpus(split.validation, validation_out)
        _write_corpus(split.train, None)
        _log(json.dumps({"train": len(split.train), "validation": len(split.validation)}))
    else:
        train_path = f"{args.out}.train.tsv"
        validation_path = f"{args.out}.validation.tsv"
        corpus.write_tsv(split.train, train_path)
        corpus.write_tsv(split.validation, validation_path)
        _print(
            {
                "train": len(split.train),
                "validation": len(split.validation),
                "train_path": train_path,
                "validation_path": validation_path,
            }
        )
    return EXIT_OK


def _cmd_index_build(args) -> int:
    if args.out is None:
        raise UsageError("index-build requires --out DIR for the context store")
    store = _context_store(args, args.inp)
    store.save(args.out)
    cfg = store.index.config
    _print({"size": len(store), "nlist": cfg.nlist, "dim": cfg.dim, "out": args.out})
    return EXIT_OK


def _cmd_index_search(args) -> int:
    _not_both("--query", args.query, "--queries", args.queries)
    if args.query is not None:
        # argv bytes that are not UTF-8 arrive as lone surrogate escapes
        try:
            args.query.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ArgumentError(f"--query is not valid UTF-8: {exc}") from exc
        queries = [args.query]
    elif args.queries is not None:
        queries = corpus.read_lines(args.queries)
    else:
        raise UsageError("index-search needs --query or --queries")
    store = retrieval.ContextStore.load(args.index, _provider_from_args(args), args.nprobe)
    corpus.write_jsonl_records(sys.stdout, (
        {"query_index": i, "hits": [{"id": m.pair.id, "score": m.score} for m in matches]}
        for i, matches in enumerate(retrieval.retrieve_fuzzy_many(store, queries, k=args.k))
    ))
    return EXIT_OK


def _context_store(args, spec: str) -> retrieval.ContextStore:
    return retrieval.open_context_store(spec, _provider_from_args(args), _ivf_from_args(args))


def _cmd_retrieve(args) -> int:
    store = _context_store(args, args.context)
    query_corpus = _load_corpus_arg(args.inp)
    match_lists = retrieval.retrieve_fuzzy_many(store, query_corpus.sources(), k=args.k)
    n = retrieval.write_retrieval_dump(sys.stdout if args.out is None else args.out, query_corpus.ids(), match_lists)
    if args.out is not None:
        _print({"queries": n, "out": args.out})
    return EXIT_OK


def _cmd_prompts(args) -> int:
    test = _load_corpus_arg(args.inp)
    match_lists = None
    if args.condition == eval_harness.CONDITION_ONE:
        if args.context is None:
            raise UsageError("one-shot prompts need --context")
        store = _context_store(args, args.context)
        match_lists = retrieval.retrieve_fuzzy_many(store, test.sources(), k=1)
    prompts = eval_harness.condition_prompts(args.condition, test.pairs, match_lists, _langs_from_args(args))
    n = prompting.write_prompt_dump(sys.stdout if args.out is None else args.out, test.ids(), prompts, test.targets())
    if args.out is not None:
        _print({"prompts": n, "shots": prompts[0].shots if prompts else 0, "out": args.out})
    return EXIT_OK


def _cmd_export_dataset(args) -> int:
    if args.out is None:
        raise UsageError("export-dataset requires --out PREFIX")
    train_corpus = _load_corpus_arg(args.inp)
    mix = finetune_export.MixSpec(
        total=args.total,
        one_shot_ratio=args.ratio,
        validation_size=args.validation_size,
        seed=args.seed,
    )
    store = None
    if args.ratio > 0:
        if args.context is None:
            raise UsageError("export-dataset with --ratio > 0 needs --context")
        store = _context_store(args, args.context)
    langs = _langs_from_args(args)
    train, validation = finetune_export.build_finetune_dataset(train_corpus, store, mix, langs)
    train_path = f"{args.out}.train.jsonl"
    validation_path = f"{args.out}.validation.jsonl"
    finetune_export.write_jsonl(train, train_path)
    finetune_export.write_jsonl(validation, validation_path)
    _print(
        {
            "train": len(train),
            "validation": len(validation),
            "one_shot": sum(1 for e in train + validation if e.shot_type == finetune_export.SHOT_ONE),
            "zero_shot": sum(1 for e in train + validation if e.shot_type == finetune_export.SHOT_ZERO),
            "train_path": train_path,
            "validation_path": validation_path,
        }
    )
    return EXIT_OK


def _cmd_manifest(args) -> int:
    manifest = finetune_export.TrainingManifest(
        lora=finetune_export.LoraConfig(r=args.lora_r, alpha=args.lora_alpha, dropout=args.lora_dropout),
        training=finetune_export.TrainingArgs(epochs=args.epochs, batch_size=args.train_batch_size,
                                              learning_rate=args.learning_rate, warmup_ratio=args.warmup_ratio),
    )
    if args.out is None:
        _print(finetune_export.manifest_payload(manifest))
    else:
        finetune_export.emit_training_manifest(manifest, args.out)
        _print({"out": args.out})
    return EXIT_OK


def _cmd_translate(args) -> int:
    prompts, ids, lines = [], [], []
    first_line: dict[int, int] = {}
    for lineno, record in corpus.iter_jsonl(args.inp, required={"id": int, "prompt": str}):
        corpus.check_new_id(args.inp, lineno, record["id"], first_line)
        prompts.append(prompting.RenderedPrompt(text=record["prompt"]))
        ids.append(record["id"])
        lines.append(lineno)
    params = llm_client.DecodingParams(temperature=args.temperature, top_p=args.top_p)
    try:
        batches = llm_client.make_batches(
            prompts,
            batch_size=args.batch_size,
            token_multiplier=args.token_multiplier,
            params=params,
            ids=ids,
        )
    except PromptError as exc:
        raise ArgumentError(f"{args.inp}:{lines[exc.index]}: {exc.reason}") from exc
    results = llm_client.translate_all(
        batches,
        args.endpoint,
        model=args.model,
        max_concurrent_batches=args.max_concurrent_batches,
        trace_path=args.trace,
        generations=sys.stdout if args.out is None else args.out,
    )
    if args.out is not None:
        _print({"translations": len(results), "out": args.out})
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    _not_both("--in", args.inp, "--hyp", args.hyp)
    _not_both("--in", args.inp, "--ref", args.ref)
    if args.inp is not None:
        pairs = [
            mt_metrics.EvalPair(hypothesis=r["hypothesis"], reference=r["reference"])
            for r in corpus.read_jsonl(args.inp, required={"hypothesis": str, "reference": str})
        ]
    elif args.hyp is not None and args.ref is not None:
        hyp_lines = corpus.read_lines(args.hyp)
        ref_lines = corpus.read_lines(args.ref)
        if len(hyp_lines) != len(ref_lines):
            raise DataError(
                f"hypothesis file has {len(hyp_lines)} lines, reference {len(ref_lines)}"
            )
        pairs = [mt_metrics.EvalPair(h, r) for h, r in zip(hyp_lines, ref_lines)]
    else:
        raise UsageError("evaluate needs --in JSONL or --hyp and --ref")
    payload = eval_harness.score_record(mt_metrics.score_all(pairs))
    if args.out is not None:
        corpus.write_json(args.out, payload)
    _print(payload)
    return EXIT_OK


def _cmd_report(args) -> int:
    table = eval_harness.report_json_to_table(args.inp, args.format)
    if args.out is not None:
        Path(args.out).write_text(table, encoding="utf-8")
        _print({"out": args.out})
    else:
        sys.stdout.write(table)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = eval_harness.load_experiment_config(args.config)
    if args.out is not None:
        cfg.output_dir = args.out
    results = eval_harness.run_experiment(cfg)
    sys.stdout.write(eval_harness.render_report(results, "json", model_name=cfg.model_name))
    return EXIT_OK


_COMMANDS = {
    "filter": _cmd_filter,
    "split": _cmd_split,
    "index-build": _cmd_index_build,
    "index-search": _cmd_index_search,
    "retrieve": _cmd_retrieve,
    "prompts": _cmd_prompts,
    "export-dataset": _cmd_export_dataset,
    "manifest": _cmd_manifest,
    "translate": _cmd_translate,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "run": _cmd_run,
}


def dispatch(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.subcommand](args)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return dispatch(argv)
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return EXIT_USAGE
    except (TransportError, ProviderError, ContractViolationError) as exc:
        _log(f"transport error: {exc}")
        return EXIT_TRANSPORT
    except FuzzyMtError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
