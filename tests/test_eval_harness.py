from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from fuzzymt import ann_index, embedding, mt_metrics, retrieval
from fuzzymt.corpus import ParallelCorpus, SegmentPair, load_any, read_jsonl, write_tsv
from fuzzymt.errors import DataError, LeakageError, TransportError, ValidationError
from fuzzymt.eval_harness import (
    CONDITION_ONE,
    CONDITION_ZERO,
    ConditionResult,
    ExperimentConfig,
    check_no_leakage,
    load_experiment_config,
    render_report,
    report_json_to_table,
    rescore_condition,
    run_experiment,
)
from fuzzymt.ann_index import IvfConfig
from fuzzymt.embedding import EmbeddingProviderConfig
from fuzzymt.llm_client import run_mock_server
from fuzzymt.mt_metrics import MetricScore

from conftest import empty_list_store, synth_corpus


def _write_corpora(tmp_path, test_corpus, context_corpus):
    test_path = tmp_path / "test.tsv"
    context_path = tmp_path / "context.tsv"
    write_tsv(test_corpus, test_path)
    write_tsv(context_corpus, context_path)
    return str(test_path), str(context_path)


def _config(tmp_path, endpoint, test_path, context_path, **overrides):
    defaults = dict(
        test_corpus=test_path,
        context_corpus=context_path,
        provider=EmbeddingProviderConfig(kind="deterministic-test", dim=48, seed=0),
        ivf=IvfConfig(dim=48, nlist=2, nprobe=2, kmeans_iters=4, seed=0),
        endpoint=endpoint,
        conditions=[CONDITION_ZERO, CONDITION_ONE],
        output_dir=str(tmp_path / "run"),
        seed=0,
        model_name="mock-model",
        batch_size=4,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture
def leaky_setup(tmp_path):
    """Context store containing every test pair verbatim (plus extras)."""
    test_corpus = synth_corpus(10, seed=21)
    extra = synth_corpus(6, seed=22, id_offset=100)
    context_corpus = ParallelCorpus(test_corpus.pairs + extra.pairs)
    test_path, context_path = _write_corpora(tmp_path, test_corpus, context_corpus)
    return test_corpus, test_path, context_path


class TestLeakage:
    def test_overlap_raises_with_ids(self, leaky_setup, tmp_path):
        test_corpus, test_path, context_path = leaky_setup
        with run_mock_server("echo-fuzzy") as server:
            cfg = _config(tmp_path, server.endpoint, test_path, context_path)
            with pytest.raises(LeakageError) as err:
                run_experiment(cfg)
        assert set(err.value.offending_ids) == {p.id for p in test_corpus.pairs}
        assert "leakage-check" in str(err.value)

    def test_disjoint_passes(self):
        check_no_leakage(synth_corpus(5, seed=1), synth_corpus(5, seed=99, id_offset=50))


class TestAdaptiveGainFixture:
    def test_echo_fuzzy_one_shot_beats_zero_shot(self, leaky_setup, tmp_path):
        _, test_path, context_path = leaky_setup
        with run_mock_server("echo-fuzzy") as server:
            cfg = _config(
                tmp_path, server.endpoint, test_path, context_path, allow_context_overlap=True
            )
            results = run_experiment(cfg)
        by_cond = {r.condition: r for r in results}
        zero = {s.name: s.value for s in by_cond[CONDITION_ZERO].scores}
        one = {s.name: s.value for s in by_cond[CONDITION_ONE].scores}
        assert one["BLEU"] == 100.0
        assert one["TER"] == 0.0
        assert zero["BLEU"] == 0.0
        # strict adaptive gain on all three metrics
        assert one["BLEU"] > zero["BLEU"]
        assert one["chrF++"] > zero["chrF++"]
        assert one["TER"] < zero["TER"]

    @pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
    def test_artifacts_and_structure(self, leaky_setup, tmp_path, monkeypatch):
        monkeypatch.setattr(retrieval, "FLAT_MAX_ROWS", 0)  # the IVF path, on a tiny context
        _, test_path, context_path = leaky_setup
        with run_mock_server("echo-fuzzy") as server:
            cfg = _config(
                tmp_path, server.endpoint, test_path, context_path, allow_context_overlap=True
            )
            results = run_experiment(cfg)
        assert [r.condition for r in results] == [CONDITION_ZERO, CONDITION_ONE]
        for result in results:
            assert len(result.translations) == 10
            assert [s.name for s in result.scores] == ["BLEU", "chrF++", "TER"]
            assert result.segments_per_second > 0
        out = Path(cfg.output_dir)
        for name in (
            "retrieval.jsonl",
            "prompts.zero-shot.jsonl",
            "prompts.one-shot.jsonl",
            "generations.zero-shot.jsonl",
            "generations.one-shot.jsonl",
            "report.md",
            "report.tsv",
            "report.json",
            "run_meta.json",
        ):
            assert (out / name).exists(), name
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["seed"] == 0
        assert meta["conditions"] == ["zero-shot", "one-shot"]
        assert len(meta["config_sha256"]) == 64
        # the leakage check is skipped: this run allows context overlap
        assert [s["stage"] for s in meta["stages"]] == [
            "load-test-corpus", "load-context-corpus", "retrieve",
            "prompts-zero-shot", "translate-zero-shot", "score-zero-shot",
            "prompts-one-shot", "translate-one-shot", "score-one-shot", "report",
        ]
        assert all(s["seconds"] >= 0.0 for s in meta["stages"])
        # 10 test pairs; the context holds them plus 6 extras; 2 report rows
        assert [s["items"] for s in meta["stages"]] == [10, 16, 10, 10, 10, 10, 10, 10, 10, 2]
        # the retrieval score distribution and the list balance, never in report.*
        top = [r["matches"][0]["score"] for r in read_jsonl(out / "retrieval.jsonl")]
        p10, p50, p90 = np.percentile(top, [10, 50, 90]).tolist()
        assert meta["retrieval"] == {"top1_score_p10": p10, "top1_score_p50": p50,
                                     "top1_score_p90": p90, "empty_hits": 0}
        with pytest.warns(ann_index.ClusterRangeWarning):  # 2 lists for 16 pairs, as in the run
            store = retrieval.build_context_store(load_any(context_path), cfg.provider, cfg.ivf)
        lengths = store.index.list_lengths()
        assert meta["index"] == {"nlist": 2, "list_size_min": min(lengths),
                                 "list_size_max": max(lengths), "lists_empty": lengths.count(0)}
        assert sum(lengths) == 16
        for suffix in ("md", "tsv", "json"):
            report = (out / f"report.{suffix}").read_text(encoding="utf-8")
            assert "top1_score" not in report and "list_size" not in report

    def test_rerun_into_same_directory(self, leaky_setup, tmp_path):
        _, test_path, context_path = leaky_setup
        out = tmp_path / "run"
        with run_mock_server("echo-fuzzy") as server:
            cfg = _config(
                tmp_path, server.endpoint, test_path, context_path, allow_context_overlap=True
            )
            for _ in range(2):
                run_experiment(cfg)
                # one line per batch of this run: 10 segments in batches of 4
                for condition in (CONDITION_ZERO, CONDITION_ONE):
                    assert len(read_jsonl(out / f"trace.{condition}.jsonl")) == 3
        # a 16-pair context is indexed flat: one list holding every pair
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["index"] == {"nlist": 1, "list_size_min": 16, "list_size_max": 16, "lists_empty": 0}


def test_run_reads_its_references_once(leaky_setup, tmp_path, monkeypatch):
    # each reference once for both conditions, and each condition's hypotheses once
    calls = []
    real = mt_metrics.tokenize_13a
    monkeypatch.setattr(mt_metrics, "tokenize_13a", lambda line: calls.append(line) or real(line))
    test_corpus, test_path, context_path = leaky_setup
    with run_mock_server("echo-fuzzy") as server:
        run_experiment(_config(tmp_path, server.endpoint, test_path, context_path, allow_context_overlap=True))
    assert len(calls) == 3 * len(test_corpus)
    assert calls[: len(test_corpus)] == test_corpus.targets()


class TestDictionaryMock:
    def test_zero_shot_only_perfect_translations(self, tmp_path):
        test_corpus = synth_corpus(5, seed=30)
        context_corpus = synth_corpus(4, seed=31, id_offset=200)
        test_path, context_path = _write_corpora(tmp_path, test_corpus, context_corpus)
        lexicon = {p.source: p.target for p in test_corpus.pairs}
        with run_mock_server("dictionary", fixtures=lexicon) as server:
            cfg = _config(
                tmp_path,
                server.endpoint,
                test_path,
                context_path,
                conditions=[CONDITION_ZERO],
            )
            results = run_experiment(cfg)
        assert len(results) == 1
        scores = {s.name: s.value for s in results[0].scores}
        assert scores["BLEU"] == 100.0
        assert scores["TER"] == 0.0

    def test_failed_batch_keeps_finished_generations(self, tmp_path):
        test_corpus = synth_corpus(10, seed=30)
        context_corpus = synth_corpus(4, seed=31, id_offset=200)
        test_path, context_path = _write_corpora(tmp_path, test_corpus, context_corpus)
        # batches of 4: only the last batch holds the source the lexicon lacks
        lexicon = {p.source: p.target for p in test_corpus.pairs[:-1]}
        out = tmp_path / "run"
        with run_mock_server("dictionary", fixtures=lexicon) as server:
            cfg = _config(tmp_path, server.endpoint, test_path, context_path, conditions=[CONDITION_ZERO])
            with pytest.raises(TransportError, match=r"^\[translate-zero-shot\] "):
                run_experiment(cfg)
        generations = read_jsonl(out / "generations.zero-shot.jsonl")
        assert generations == [{"id": p.id, "text": p.target} for p in test_corpus.pairs[:8]]
        assert not list(out.glob("report.*")) and not (out / "run_meta.json").exists()


class TestReproducibilityAndRescoring:
    def test_two_runs_byte_identical_reports(self, leaky_setup, tmp_path):
        _, test_path, context_path = leaky_setup
        # 10 test pairs in batches of 4: 3 batches per condition, 2 in flight
        with run_mock_server("echo-fuzzy") as server:
            for run in ("run_a", "run_b"):
                run_experiment(_config(tmp_path, server.endpoint, test_path, context_path,
                                       allow_context_overlap=True, max_concurrent_batches=2,
                                       output_dir=str(tmp_path / run)))
        for name in ("report.md", "report.tsv", "report.json", "retrieval.jsonl",
                     "prompts.one-shot.jsonl", "prompts.zero-shot.jsonl",
                     "generations.zero-shot.jsonl", "generations.one-shot.jsonl"):
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, name
        # the traces differ only in latency: one line per batch, in batch order
        for condition in (CONDITION_ZERO, CONDITION_ONE):
            traces = [read_jsonl(tmp_path / run / f"trace.{condition}.jsonl") for run in ("run_a", "run_b")]
            for trace in traces:
                assert len(trace) == 3
                for record in trace:
                    del record["latency_ms"]
            assert traces[0] == traces[1]
            prompts = [r["prompt"] for r in read_jsonl(tmp_path / "run_a" / f"prompts.{condition}.jsonl")]
            assert [p for r in traces[0] for p in r["request"]["prompt"]] == prompts

    def test_rescore_from_artifacts_matches(self, leaky_setup, tmp_path):
        _, test_path, context_path = leaky_setup
        with run_mock_server("echo-fuzzy") as server:
            cfg = _config(tmp_path, server.endpoint, test_path, context_path,
                          allow_context_overlap=True)
            results = run_experiment(cfg)
        for result in results:
            rescored = rescore_condition(cfg.output_dir, result.condition)
            assert [(s.name, s.value) for s in rescored] == [
                (s.name, s.value) for s in result.scores
            ]

    @pytest.mark.parametrize(
        "bad_line, message",
        [(b"\xff\xfe\n", "not valid UTF-8"), (b'{"id": 1, "text"\n', "invalid JSON")],
        ids=["utf8", "json"],
    )
    def test_rescore_bad_artifact_names_line(self, tmp_path, bad_line, message):
        (tmp_path / "prompts.zero-shot.jsonl").write_text(
            json.dumps({"id": 0, "reference": "a b"}) + "\n", encoding="utf-8"
        )
        (tmp_path / "generations.zero-shot.jsonl").write_bytes(
            json.dumps({"id": 0, "text": "a b"}).encode() + b"\n" + bad_line
        )
        with pytest.raises(DataError, match=f"generations.zero-shot.jsonl:2: {message}"):
            rescore_condition(tmp_path, CONDITION_ZERO)

    @pytest.mark.parametrize(
        "prompt_ids, generation_ids, message",
        [
            ([0, 1, 2], [0, 2], "prompt id 1 .* has no generation"),
            ([0, 1, 2], [0, 1, 2, 1], r"generations.zero-shot.jsonl:4: repeated id 1 \(first on line 2\)"),
            ([0, 1, 1], [0, 1], r"prompts.zero-shot.jsonl:3: repeated id 1 \(first on line 2\)"),
        ],
        ids=["partial", "repeated", "repeated-prompt"],
    )
    def test_rescore_rejects_partial_or_repeated_generations(self, tmp_path, prompt_ids, generation_ids, message):
        (tmp_path / "prompts.zero-shot.jsonl").write_text(
            "".join(json.dumps({"id": i, "reference": "a b"}) + "\n" for i in prompt_ids), encoding="utf-8"
        )
        (tmp_path / "generations.zero-shot.jsonl").write_text(
            "".join(json.dumps({"id": i, "text": "a b"}) + "\n" for i in generation_ids), encoding="utf-8"
        )
        with pytest.raises(DataError, match=message):
            rescore_condition(tmp_path, CONDITION_ZERO)


def _fake_results():
    return [
        ConditionResult(
            condition=CONDITION_ZERO,
            translations=[],
            scores=[
                MetricScore("BLEU", 42.881),
                MetricScore("chrF++", 66.034),
                MetricScore("TER", 46.542),
            ],
            segments_per_second=80.0,
        ),
        ConditionResult(
            condition=CONDITION_ONE,
            translations=[],
            scores=[
                MetricScore("BLEU", 47.351),
                MetricScore("chrF++", 69.253),
                MetricScore("TER", 42.531),
            ],
            segments_per_second=40.0,
        ),
    ]


class TestRenderReport:
    def test_markdown_columns_and_order(self):
        text = render_report(_fake_results(), "markdown", model_name="base-7b")
        lines = text.splitlines()
        assert "BLEU ↑" in lines[0] and "chrF++ ↑" in lines[0] and "TER ↓" in lines[0]
        assert "Source only (zero-shot)" in lines[2]
        assert "+ Fuzzy (one-shot)" in lines[3]
        assert "42.88" in lines[2] and "47.35" in lines[3]

    def test_single_condition_single_row(self):
        text = render_report(_fake_results()[:1], "markdown")
        assert len(text.splitlines()) == 3
        assert "TER ↓" in text.splitlines()[0]

    def test_tsv(self):
        text = render_report(_fake_results(), "tsv")
        rows = [line.split("\t") for line in text.splitlines()]
        assert rows[0] == ["Model", "Context", "BLEU ↑", "chrF++ ↑", "TER ↓"]
        assert rows[1][2] == "42.88"

    def test_json_round_trips_to_same_table(self, tmp_path):
        results = _fake_results()
        as_json = tmp_path / "report.json"
        as_json.write_text(render_report(results, "json", model_name="m"), encoding="utf-8")
        assert report_json_to_table(as_json, "markdown") == render_report(
            results, "markdown", model_name="m"
        )
        assert report_json_to_table(as_json, "tsv") == render_report(
            results, "tsv", model_name="m"
        )

    def test_empty_results_rejected(self):
        with pytest.raises(ValidationError):
            render_report([], "markdown")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            render_report(_fake_results(), "xml")


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        payload = {
            "test_corpus": "test.tsv",
            "context_corpus": "context.tsv",
            "provider": {"kind": "deterministic-test", "dim": 32, "seed": 4},
            "ivf": {"dim": 32, "nlist": 2, "nprobe": 1},
            "endpoint": "http://127.0.0.1:9999",
            "decoding": {"temperature": 0.3, "top_p": 1.0},
            "conditions": ["zero-shot"],
            "output_dir": "out",
            "seed": 4,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        cfg = load_experiment_config(path)
        assert cfg.provider.dim == 32
        assert cfg.ivf.nlist == 2
        assert cfg.decoding.temperature == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"test_corpus": "a", "context_corpus": "b", "typo": 1}))
        with pytest.raises(ValidationError):
            load_experiment_config(path)

    @pytest.mark.parametrize("key", ["provider", "ivf", "decoding", "langs"])
    @pytest.mark.parametrize("value", [{"bogus": 1}, [1], "x"], ids=["unknown-key", "list", "string"])
    def test_bad_nested_object_rejected(self, key, value, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"test_corpus": "a", "context_corpus": "b", key: value}))
        with pytest.raises(ValidationError, match=key):
            load_experiment_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"test_corpus": "a", "context_corpus": "b",}', encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:1: invalid JSON"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"seed": 1.0}, "config key 'seed' must be int, got 1.0"),
            ({"ivf": {"dim": "32"}}, "ivf key 'dim' must be int, got \"32\""),
            ({"allow_context_overlap": 1}, "config key 'allow_context_overlap' must be bool, got 1"),
            ({"decoding": {"top_p": True}}, "decoding key 'top_p' must be float, got true"),
            ({"conditions": "zero-shot"}, "config key 'conditions' must be list[str], got \"zero-shot\""),
        ],
        ids=["float-seed", "str-dim", "int-allow-context-overlap", "bool-top-p", "str-conditions"],
    )
    def test_value_of_another_type_rejected(self, extra, message, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"test_corpus": "a", "context_corpus": "b", **extra}), encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            load_experiment_config(path)
        assert str(err.value) == f"{path}: {message}"

    def test_int_accepted_for_float(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"test_corpus": "a", "context_corpus": "b", "decoding": {"top_p": 1}}))
        assert load_experiment_config(path).decoding.top_p == 1

    def test_decoding_max_tokens_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"test_corpus": "a", "context_corpus": "b", "decoding": {"max_tokens": -7}}))
        with pytest.raises(ValidationError, match=r"unknown decoding keys \['max_tokens'\]"):
            load_experiment_config(path)

    def test_missing_required_field_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"test_corpus": "a", "context_corpus": "b", "ivf": {"nlist": 2}}))
        with pytest.raises(ValidationError, match="dim"):
            load_experiment_config(path)

    def test_empty_conditions_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(test_corpus="a", context_corpus="b", conditions=[])

    def test_missing_context_file_stage_labeled(self, tmp_path):
        test_corpus = synth_corpus(3, seed=1)
        test_path = tmp_path / "test.tsv"
        write_tsv(test_corpus, test_path)
        cfg = ExperimentConfig(
            test_corpus=str(test_path),
            context_corpus=str(tmp_path / "missing.tsv"),
            output_dir=str(tmp_path / "run"),
        )
        with pytest.raises(DataError) as err:
            run_experiment(cfg)
        assert "load-context-corpus" in str(err.value)


class TestContextStoreDirectory:
    def test_store_directory_is_not_rebuilt(self, tmp_path, monkeypatch):
        test_corpus = synth_corpus(6, seed=50)
        context = synth_corpus(10, seed=51, id_offset=100)
        test_path, _ = _write_corpora(tmp_path, test_corpus, context)
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=48, seed=0)
        ivf = IvfConfig(dim=48, nlist=2, nprobe=2, kmeans_iters=4, seed=0)
        store_dir = tmp_path / "store"
        retrieval.build_context_store(context, provider, ivf).save(store_dir)

        def no_training(*args, **kwargs):
            raise AssertionError("a saved store must not be trained again")

        embedded: list[str] = []
        embed_batch = embedding.embed_batch

        def recording_embed(texts, cfg):
            embedded.extend(texts)
            return embed_batch(texts, cfg)

        monkeypatch.setattr(ann_index, "train", no_training)
        monkeypatch.setattr(embedding, "embed_batch", recording_embed)
        with run_mock_server("echo-fuzzy") as server:
            cfg = _config(tmp_path, server.endpoint, test_path, str(store_dir))
            run_experiment(cfg)
        assert embedded == test_corpus.sources()
        retrieved = read_jsonl(tmp_path / "run" / "retrieval.jsonl")
        assert {r["matches"][0]["context_id"] for r in retrieved} <= set(context.ids())

    def test_default_ivf_is_trained_with_experiment_seed(self, tmp_path, monkeypatch):
        test_path, context_path = _write_corpora(
            tmp_path, synth_corpus(3, seed=52), synth_corpus(4, seed=53, id_offset=100)
        )
        seen: list[IvfConfig] = []

        class Stop(Exception):
            pass

        def capture(corpus, provider, ivf):
            seen.append(ivf)
            raise Stop

        monkeypatch.setattr(retrieval, "build_context_store", capture)
        cfg = _config(tmp_path, "http://127.0.0.1:9", test_path, context_path, ivf=None, seed=11)
        with pytest.raises(Stop):
            run_experiment(cfg)
        assert seen == [IvfConfig(dim=48, seed=11)]


def test_source_probing_only_an_empty_list_gets_its_zero_shot_prompt(tmp_path):
    """At nprobe 1 the first test source probes only an empty list: the run
    completes, its one-shot prompt is its zero-shot one, and empty_hits counts it."""
    store_dir = tmp_path / "store"
    test_corpus = empty_list_store(store_dir)
    test_path = tmp_path / "test.tsv"
    write_tsv(test_corpus, test_path)
    with run_mock_server("echo-fuzzy") as server:
        cfg = _config(tmp_path, server.endpoint, str(test_path), str(store_dir),
                      ivf=IvfConfig(dim=48, nlist=2, nprobe=1))
        run_experiment(cfg)
    out = Path(cfg.output_dir)
    assert [len(r["matches"]) for r in read_jsonl(out / "retrieval.jsonl")] == [0, 1]
    one_shot = read_jsonl(out / "prompts.one-shot.jsonl")
    assert [r["shots"] for r in one_shot] == [0, 1]
    assert one_shot[0]["prompt"] == read_jsonl(out / "prompts.zero-shot.jsonl")[0]["prompt"]
    assert json.loads((out / "run_meta.json").read_text(encoding="utf-8"))["retrieval"]["empty_hits"] == 1
    assert all((out / f"report.{suffix}").exists() for suffix in ("md", "tsv", "json"))
