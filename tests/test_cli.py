from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from fuzzymt import cli
from fuzzymt.corpus import write_tsv
from fuzzymt.llm_client import run_mock_server

from conftest import local_endpoint, synth_corpus


# one record that both `translate --in` and `evaluate --in` accept
GOOD_LINE = b'{"id": 0, "prompt": "Spanish: a\\nEnglish:", "hypothesis": "a", "reference": "a"}\n'


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus_tsv(tmp_path):
    path = tmp_path / "corpus.tsv"
    write_tsv(synth_corpus(12, seed=3), path)
    return str(path)


class TestHelpAndUsage:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "sub",
        ["filter", "split", "embed", "index-build", "index-search", "retrieve",
         "prompts", "export-dataset", "manifest", "translate", "evaluate", "report", "run"],
    )
    def test_subcommand_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0

    def test_unknown_subcommand_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag_usage_error(self, capsys):
        code, _, _ = run_cli(["filter", "--in", "x.tsv", "--bogus"], capsys)
        assert code == 1


class TestFilter:
    def test_paper_style_invocation(self, tmp_path, capsys):
        src = tmp_path / "es.txt"
        tgt = tmp_path / "en.txt"
        src.write_text("hola\nhola\n" + " ".join(["w"] * 71) + "\n", encoding="utf-8")
        tgt.write_text("hello\nhello\nshort\n", encoding="utf-8")
        out = tmp_path / "filtered.tsv"
        code, stdout, _ = run_cli(
            ["filter", "--in", f"{src},{tgt}", "--max-words", "70", "--out", str(out)], capsys
        )
        assert code == 0
        counts = json.loads(stdout)
        assert counts["kept"] == 1 and counts["dropped"] == 2
        assert out.read_text(encoding="utf-8") == "hola\thello\n"

    def test_stdout_data_when_no_out(self, corpus_tsv, capsys):
        code, stdout, err = run_cli(["filter", "--in", corpus_tsv], capsys)
        assert code == 0
        assert len(stdout.splitlines()) == 12
        assert json.loads(err)["kept"] == 12

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(["filter", "--in", "no-such-file.tsv"], capsys)
        assert code == 2


class TestSplit:
    def test_split_files(self, corpus_tsv, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        code, stdout, _ = run_cli(
            ["split", "--in", corpus_tsv, "--validation-size", "3", "--seed", "5",
             "--out", prefix], capsys
        )
        assert code == 0
        result = json.loads(stdout)
        assert result["train"] == 9 and result["validation"] == 3

    def test_pipe_composability_from_filter(self, corpus_tsv, tmp_path, capsys, monkeypatch):
        code, tsv_data, _ = run_cli(["filter", "--in", corpus_tsv], capsys)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(tsv_data))
        validation_out = str(tmp_path / "val.tsv")
        code, train_data, _ = run_cli(
            ["split", "--in", "-", "--validation-size", "2", "--validation-out", validation_out],
            capsys,
        )
        assert code == 0
        assert len(train_data.splitlines()) == 10

    def test_validation_size_too_big_exit_2(self, corpus_tsv, tmp_path, capsys):
        code, _, _ = run_cli(
            ["split", "--in", corpus_tsv, "--validation-size", "99",
             "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2


class TestIndexPipeline:
    def test_embed_build_search(self, corpus_tsv, tmp_path, capsys):
        cache = str(tmp_path / "vectors.bin")
        code, stdout, _ = run_cli(
            ["embed", "--in", corpus_tsv, "--dim", "32", "--out", cache], capsys
        )
        assert code == 0
        assert json.loads(stdout) == {"count": 12, "dim": 32, "out": cache}

        index_path = str(tmp_path / "index.ivf")
        code, stdout, err = run_cli(
            ["index-build", "--in", cache, "--nlist", "2", "--nprobe", "2",
             "--out", index_path], capsys
        )
        assert code == 0
        assert json.loads(stdout)["size"] == 12

        code, stdout, _ = run_cli(
            ["index-search", "--index", index_path, "--query", "paciente dosis",
             "-k", "3", "--dim", "32"], capsys
        )
        assert code == 0
        hits = json.loads(stdout)["hits"]
        assert len(hits) == 3

        with open(index_path, "r+b") as fh:
            fh.truncate(fh.seek(0, 2) - 5)
        code, _, err = run_cli(
            ["index-search", "--index", index_path, "--query", "paciente", "--dim", "32"], capsys
        )
        assert code == 2
        assert "truncated index file" in err

    def test_cluster_range_warning_on_stderr(self, corpus_tsv, tmp_path):
        cache = str(tmp_path / "vectors.bin")
        subprocess.run(
            [sys.executable, "-m", "fuzzymt.cli", "embed", "--in", corpus_tsv,
             "--dim", "16", "--out", cache],
            capture_output=True, text=True, check=True,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzymt.cli", "index-build", "--in", cache,
             "--nlist", "2", "--nprobe", "1", "--out", str(tmp_path / "i.ivf")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "outside recommended range" in proc.stderr
        assert json.loads(proc.stdout)["size"] == 12


class TestRetrieveAndPrompts:
    def test_retrieve_dump(self, corpus_tsv, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        write_tsv(synth_corpus(3, seed=9, id_offset=500), queries)
        code, stdout, _ = run_cli(
            ["retrieve", "--in", str(queries), "--context", corpus_tsv,
             "--dim", "32", "--nlist", "2", "--nprobe", "2", "-k", "2"], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in stdout.splitlines()]
        assert len(records) == 3
        assert len(records[0]["matches"]) == 2

    def test_prompts_zero_shot(self, corpus_tsv, capsys):
        code, stdout, _ = run_cli(
            ["prompts", "--in", corpus_tsv, "--condition", "zero-shot"], capsys
        )
        assert code == 0
        first = json.loads(stdout.splitlines()[0])
        assert first["shots"] == 0
        assert first["prompt"].startswith("Spanish: ")
        assert first["prompt"].endswith("\nEnglish:")

    def test_prompts_one_shot_requires_context(self, corpus_tsv, capsys):
        code, _, _ = run_cli(
            ["prompts", "--in", corpus_tsv, "--condition", "one-shot"], capsys
        )
        assert code == 1


class TestExportAndManifest:
    def test_export_counts(self, corpus_tsv, tmp_path, capsys):
        prefix = str(tmp_path / "ft")
        code, stdout, _ = run_cli(
            ["export-dataset", "--in", corpus_tsv, "--context", corpus_tsv,
             "--total", "8", "--ratio", "0.5", "--validation-size", "2",
             "--dim", "32", "--nlist", "2", "--nprobe", "2", "--out", prefix], capsys
        )
        assert code == 0
        counts = json.loads(stdout)
        assert counts["train"] == 6 and counts["validation"] == 2
        assert counts["one_shot"] == 4 and counts["zero_shot"] == 4

    def test_manifest_defaults(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        code, _, _ = run_cli(["manifest", "--out", str(path)], capsys)
        assert code == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["training"]["learning_rate"] == 0.002
        assert payload["training"]["epochs"] == 1


class TestTranslateEvaluateReport:
    def test_translate_with_mock(self, corpus_tsv, tmp_path, capsys):
        prompts_path = str(tmp_path / "prompts.jsonl")
        code, _, _ = run_cli(
            ["prompts", "--in", corpus_tsv, "--condition", "zero-shot",
             "--out", prompts_path], capsys
        )
        assert code == 0
        with run_mock_server("echo-fuzzy") as server:
            code, stdout, _ = run_cli(
                ["translate", "--in", prompts_path, "--endpoint", server.endpoint], capsys
            )
        assert code == 0
        assert len(stdout.splitlines()) == 12

    def test_transport_failure_exit_3(self, corpus_tsv, tmp_path, capsys, sleeps):
        prompts_path = str(tmp_path / "prompts.jsonl")
        run_cli(["prompts", "--in", corpus_tsv, "--out", prompts_path], capsys)
        code, _, err = run_cli(
            ["translate", "--in", prompts_path, "--endpoint", "http://127.0.0.1:9"], capsys
        )
        assert code == 3
        assert "transport error" in err

    def test_non_json_body_exit_3(self, corpus_tsv, tmp_path, capsys):
        prompts_path = str(tmp_path / "prompts.jsonl")
        run_cli(["prompts", "--in", corpus_tsv, "--out", prompts_path], capsys)
        with local_endpoint(b"<html>busy</html>") as (endpoint, _):
            code, _, err = run_cli(["translate", "--in", prompts_path, "--endpoint", endpoint], capsys)
        assert code == 3
        assert "not JSON" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (GOOD_LINE + b"\xff\xfe\n", "bad.jsonl:2: not valid UTF-8"),
            (GOOD_LINE + b'\n{"id": 1,\n', "bad.jsonl:3: invalid JSON"),
        ],
        ids=["utf8", "json"],
    )
    @pytest.mark.parametrize("sub", ["translate", "evaluate"])
    def test_bad_jsonl_input_exit_2(self, sub, content, message, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(content)
        argv = [sub, "--in", str(path)]
        if sub == "translate":
            argv += ["--endpoint", "http://127.0.0.1:9"]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert message in err

    def test_evaluate_parallel_files(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the cat sat on the mat\n", encoding="utf-8")
        ref.write_text("the cat sat on the mat\n", encoding="utf-8")
        code, stdout, _ = run_cli(["evaluate", "--hyp", str(hyp), "--ref", str(ref)], capsys)
        assert code == 0
        scores = json.loads(stdout)
        assert scores["bleu"] == 100.0 and scores["ter"] == 0.0

    def test_evaluate_jsonl(self, tmp_path, capsys):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            json.dumps({"id": 0, "hypothesis": "a b c d", "reference": "a b c d"}) + "\n",
            encoding="utf-8",
        )
        code, stdout, _ = run_cli(["evaluate", "--in", str(path)], capsys)
        assert code == 0
        assert json.loads(stdout)["ter"] == 0.0

    def test_report_from_json(self, tmp_path, capsys):
        report = {
            "columns": ["Model", "Context", "BLEU ↑", "chrF++ ↑", "TER ↓"],
            "rows": [
                {"model": "m", "context": "Source only (zero-shot)",
                 "bleu": 1.0, "chrf_pp": 2.0, "ter": 3.0}
            ],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        code, stdout, _ = run_cli(["report", "--in", str(path), "--format", "tsv"], capsys)
        assert code == 0
        assert "TER ↓" in stdout


class TestRun:
    def test_run_with_mock(self, tmp_path, capsys):
        test_corpus = synth_corpus(6, seed=40)
        context_corpus = synth_corpus(8, seed=41, id_offset=300)
        test_path = tmp_path / "test.tsv"
        context_path = tmp_path / "context.tsv"
        write_tsv(test_corpus, test_path)
        write_tsv(context_corpus, context_path)
        with run_mock_server("echo-fuzzy") as server:
            config = {
                "test_corpus": str(test_path),
                "context_corpus": str(context_path),
                "provider": {"kind": "deterministic-test", "dim": 32, "seed": 0},
                "ivf": {"dim": 32, "nlist": 2, "nprobe": 2, "kmeans_iters": 4},
                "endpoint": server.endpoint,
                "conditions": ["zero-shot", "one-shot"],
                "output_dir": str(tmp_path / "run"),
                "seed": 0,
            }
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            code, stdout, _ = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert len(payload["rows"]) == 2

    def test_run_missing_context_exit_2(self, tmp_path, capsys):
        test_path = tmp_path / "test.tsv"
        write_tsv(synth_corpus(3, seed=1), test_path)
        config = {
            "test_corpus": str(test_path),
            "context_corpus": str(tmp_path / "missing.tsv"),
            "output_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "load-context-corpus" in err

    def test_run_without_config_usage_error(self, capsys):
        code, _, _ = run_cli(["run"], capsys)
        assert code == 1
