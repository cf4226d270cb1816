from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from fuzzymt import cli, llm_client, retrieval
from fuzzymt.ann_index import IvfConfig
from fuzzymt.corpus import write_tsv
from fuzzymt.embedding import EmbeddingProviderConfig
from fuzzymt.eval_harness import ExperimentConfig
from fuzzymt.finetune_export import LoraConfig, MixSpec, TrainingArgs
from fuzzymt.llm_client import DecodingParams, run_mock_server
from fuzzymt.prompting import LanguageNames, parse_prompt

from conftest import local_endpoint, synth_corpus


# one record that `filter --in`, `translate --in` and `evaluate --in` all accept
GOOD_LINE = (b'{"id": 0, "source": "a", "target": "a", "prompt": "Spanish: a\\nEnglish:", '
             b'"hypothesis": "a", "reference": "a"}\n')

# a file that every JSONL-reading subcommand rejects
BAD_JSONL = {
    "utf8": (GOOD_LINE + b"\xff\xfe\n", "bad.jsonl:2: not valid UTF-8"),
    "json": (GOOD_LINE + b'\n{"id": 1,\n', "bad.jsonl:3: invalid JSON"),
    "surrogate": (GOOD_LINE.replace(b'"source": "a"', b'"source": "hola \\ud800 mundo"') * 2,
                  "bad.jsonl:1: not valid UTF-8: lone surrogate '\\ud800'"),
}
# a second record that the subcommand rejects: a wrong value type under a key it reads, a repeated id,
# or a prompt that does not parse
BAD_RECORD = [
    ("filter", "str-id", b'{"id": "x", "source": "a", "target": "b"}', "key 'id' must be int or null, got \"x\""),
    ("filter", "bool-id", b'{"id": true, "source": "a", "target": "b"}', "key 'id' must be int or null, got true"),
    ("filter", "float-id", b'{"id": 1.7, "source": "a", "target": "b"}', "key 'id' must be int or null, got 1.7"),
    ("filter", "int-source", b'{"id": 1, "source": 5, "target": "b"}', "key 'source' must be str, got 5"),
    ("filter", "repeated-id", b'{"id": 0, "source": "b", "target": "c"}', "repeated id 0 (first on line 1)"),
    ("evaluate", "int-hypothesis", b'{"hypothesis": 5, "reference": "a"}', "key 'hypothesis' must be str"),
    ("translate", "int-prompt", b'{"id": 1, "prompt": 5}', "key 'prompt' must be str"),
    ("translate", "no-stub-prompt", b'{"id": 1, "prompt": "Spanish: a"}',
     "prompt must end with the bare target stub line"),
    ("translate", "blank-query", b'{"id": 1, "prompt": "Spanish:  \\nEnglish:"}', "query source must be non-empty"),
    ("translate", "repeated-id", b'{"id": 0, "prompt": "Spanish: b\\nEnglish:"}', "repeated id 0 (first on line 1)"),
]
BAD_JSONL_CASES = [
    pytest.param(sub, content, message, id=f"{sub}-{case}")
    for sub in ("filter", "translate", "evaluate")
    for case, (content, message) in BAD_JSONL.items()
] + [
    pytest.param(sub, GOOD_LINE + line + b"\n", "bad.jsonl:2: " + message, id=f"{sub}-{case}")
    for sub, case, line, message in BAD_RECORD
]

# every option string of every subcommand; a flag added or removed shows up here
COMMON = "--out --output"
PROVIDER = "--provider --endpoint --model --dim --embed-batch-size --seed"
IVF_BUILD = "--nlist --kmeans-iters"
LANGS = "--source-name --target-name"
CLI_SURFACE = {
    "filter": f"{COMMON} --in --max-words",
    "split": f"{COMMON} --in --validation-size --validation-out --seed",
    "index-build": f"{COMMON} --in {PROVIDER} {IVF_BUILD}",
    "index-search": f"--index --query --queries -k --nprobe {PROVIDER}",
    "retrieve": f"{COMMON} --in --context -k {PROVIDER} {IVF_BUILD} --nprobe",
    "prompts": f"{COMMON} --in --condition --context {PROVIDER} {IVF_BUILD} --nprobe {LANGS}",
    "export-dataset": f"{COMMON} --in --context --total --ratio --validation-size {PROVIDER} {IVF_BUILD} "
                      f"--nprobe {LANGS}",
    "manifest": f"{COMMON} --epochs --train-batch-size --learning-rate --warmup-ratio --lora-r --lora-alpha "
                "--lora-dropout",
    "translate": f"{COMMON} --in --endpoint --model --batch-size --token-multiplier --temperature --top-p "
                 "--max-concurrent-batches --trace",
    "evaluate": f"{COMMON} --in --hyp --ref",
    "report": f"{COMMON} --in --format",
    "run": f"{COMMON} --config",
}

# (subcommand, flag) -> the dataclass field whose default the flag's default must be
FLAG_OWNERS = {
    **{("index-build", flag): (EmbeddingProviderConfig, name) for flag, name in [
        ("--provider", "kind"), ("--endpoint", "endpoint"), ("--model", "model_name"), ("--dim", "dim"),
        ("--embed-batch-size", "batch_size"), ("--seed", "seed")]},
    **{("index-build", flag): (IvfConfig, name) for flag, name in [
        ("--nlist", "nlist"), ("--kmeans-iters", "kmeans_iters")]},
    ("retrieve", "--nprobe"): (IvfConfig, "nprobe"),
    ("prompts", "--source-name"): (LanguageNames, "source_name"),
    ("prompts", "--target-name"): (LanguageNames, "target_name"),
    ("export-dataset", "--ratio"): (MixSpec, "one_shot_ratio"),
    ("export-dataset", "--validation-size"): (MixSpec, "validation_size"),
    **{("manifest", flag): (TrainingArgs, name) for flag, name in [
        ("--epochs", "epochs"), ("--train-batch-size", "batch_size"), ("--learning-rate", "learning_rate"),
        ("--warmup-ratio", "warmup_ratio")]},
    **{("manifest", flag): (LoraConfig, name) for flag, name in [
        ("--lora-r", "r"), ("--lora-alpha", "alpha"), ("--lora-dropout", "dropout")]},
    **{("translate", flag): (ExperimentConfig, name) for flag, name in [
        ("--model", "model_name"), ("--batch-size", "batch_size"), ("--token-multiplier", "token_multiplier"),
        ("--max-concurrent-batches", "max_concurrent_batches")]},
    ("translate", "--temperature"): (DecodingParams, "temperature"),
    ("translate", "--top-p"): (DecodingParams, "top_p"),
}
# the run config objects whose every field some code outside the class reads
CONFIG_CLASSES = (ExperimentConfig, EmbeddingProviderConfig, IvfConfig, DecodingParams, LanguageNames, MixSpec)


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
        ["filter", "split", "index-build", "index-search", "retrieve",
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
        for argv in (["filter", "--in", "x.tsv", "--bogus"],
                     ["index-build", "--in", "x.tsv", "--out", "store", "--nprobe", "2"],
                     ["run", "--config", "c.json", "--seed", "1"],
                     ["evaluate", "--hyp", "h.txt", "--ref", "r.txt", "--seed", "1"],
                     ["index-search", "--index", "store", "--query", "q", "--out", "x"]):
            code, _, err = run_cli(argv, capsys)
            assert code == 1
            assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv, first, second", [
        (["index-search", "--index", "{store}", "--query", "q", "--queries", "{lines}", "--dim", "32"],
         "--query", "--queries"),
        (["split", "--in", "{corpus}", "--validation-size", "2", "--out", "{out}", "--validation-out", "{out}.v.tsv"],
         "--out", "--validation-out"),
        (["evaluate", "--in", "{pairs}", "--hyp", "{lines}", "--ref", "{lines}"], "--in", "--hyp"),
        (["evaluate", "--in", "{pairs}", "--ref", "{lines}"], "--in", "--ref"),
    ], ids=["index-search", "split", "evaluate-hyp", "evaluate-ref"])
    def test_input_given_two_ways_usage_error(self, argv, first, second, store_dir, corpus_tsv, tmp_path, capsys):
        lines, pairs = tmp_path / "lines.txt", tmp_path / "pairs.jsonl"
        lines.write_text("paciente dosis\n", encoding="utf-8")
        pairs.write_bytes(GOOD_LINE)
        paths = {"store": store_dir, "lines": lines, "corpus": corpus_tsv, "pairs": pairs, "out": tmp_path / "split"}
        code, stdout, err = run_cli([part.format(**paths) for part in argv], capsys)
        assert code == 1
        assert stdout == ""
        assert f"usage error: {first} and {second} exclude each other" in err
        assert not list(tmp_path.glob("split*"))

    def test_option_strings_per_subcommand(self):
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: sorted(opt for action in parser._actions if not isinstance(action, argparse._HelpAction)
                         for opt in action.option_strings)
            for name, parser in subparsers.choices.items()
        }
        assert surface == {name: sorted(opts.split()) for name, opts in CLI_SURFACE.items()}

    def test_every_option_is_read(self):
        """Each option a subcommand declares is read as ``args.<dest>`` by its
        command function or by a module function that is passed ``args``."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

        def reads(name, seen):
            seen.add(name)
            found = set()
            for node in ast.walk(functions[name]):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "args" and isinstance(node.ctx, ast.Load)):
                    found.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in functions and node.func.id not in seen
                      and any(isinstance(a, ast.Name) and a.id == "args"
                              for a in [*node.args, *(k.value for k in node.keywords)])):
                    found |= reads(node.func.id, seen)
            return found

        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        unread = {}
        for name, parser in subparsers.choices.items():
            declared = {action.dest for action in parser._actions
                        if action.option_strings and not isinstance(action, argparse._HelpAction)}
            missing = declared - reads(cli._COMMANDS[name].__name__, set())
            if missing:
                unread[name] = sorted(missing)
        assert unread == {}

    @pytest.mark.parametrize("sub, flag", FLAG_OWNERS, ids=[f"{sub}{flag}" for sub, flag in FLAG_OWNERS])
    def test_flag_default_is_owner_default(self, sub, flag):
        cls, name = FLAG_OWNERS[sub, flag]
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in subparsers.choices[sub]._actions if flag in a.option_strings)
        assert action.default == cls.__dataclass_fields__[name].default

    def test_every_config_field_is_read(self):
        """Each field of a run config object is read as an attribute somewhere
        in the package outside its own class body."""
        trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(cli.__file__).parent.glob("*.py")]

        def reads(node, skip):
            if isinstance(node, ast.ClassDef) and node.name == skip:
                return set()
            found = {node.attr} if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else set()
            for child in ast.iter_child_nodes(node):
                found |= reads(child, skip)
            return found

        unread = {}
        for cls in CONFIG_CLASSES:
            missing = set(cls.__dataclass_fields__) - set().union(*(reads(tree, cls.__name__) for tree in trees))
            if missing:
                unread[cls.__name__] = sorted(missing)
        assert unread == {}

    def test_every_imported_name_is_read(self):
        """Each name a package module imports is read somewhere in that module."""
        unread = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                        for alias in node.names}
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
        assert unread == []

    def test_no_module_reads_another_modules_private_names(self):
        """No package module reads another's underscore name, as ``module._name``
        or ``from .module import _name``; a private module such as ``_http`` is
        imported for its public names."""
        reads = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            modules = set()  # the names the file binds to package modules
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level == 0 and node.module != "fuzzymt" and not (node.module or "").startswith("fuzzymt."):
                    continue
                for alias in node.names:
                    if node.module is None or node.module == "fuzzymt":
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        reads.append(f"{path.name}: from {node.module} import {alias.name}")
            reads += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules and node.attr.startswith("_")]
        assert reads == []


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

    def test_directory_input_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["filter", "--in", str(tmp_path)], capsys)
        assert code == 2
        assert "Is a directory" in err

    @pytest.mark.parametrize("max_words", ["0", "-3"])
    def test_max_words_below_one_exit_2(self, max_words, corpus_tsv, capsys):
        code, stdout, err = run_cli(["filter", "--in", corpus_tsv, "--max-words", max_words], capsys)
        assert code == 2
        assert f"max_words must be at least 1, got {max_words}" in err
        assert stdout == ""

    def test_config_flag_is_usage_error(self, corpus_tsv, tmp_path, capsys):
        # --config belongs to `run` only; it never set flag defaults of other commands
        path = tmp_path / "fc.json"
        path.write_text(json.dumps({"max_words": 3}), encoding="utf-8")
        code, _, err = run_cli(["filter", "--in", corpus_tsv, "--config", str(path)], capsys)
        assert code == 1
        assert "--config" in err


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
    @pytest.mark.filterwarnings("ignore::fuzzymt.ann_index.ClusterRangeWarning")
    def test_embed_build_search(self, corpus_tsv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(retrieval, "FLAT_MAX_ROWS", 0)  # the IVF path, on a tiny corpus
        store_dir = str(tmp_path / "store")
        code, stdout, err = run_cli(
            ["index-build", "--in", corpus_tsv, "--dim", "32", "--nlist", "2", "--out", store_dir], capsys
        )
        assert code == 0
        assert json.loads(stdout) == {"size": 12, "nlist": 2, "dim": 32, "out": store_dir}

        code, stdout, _ = run_cli(
            ["index-search", "--index", store_dir, "--query", "paciente dosis",
             "-k", "3", "--dim", "32"], capsys
        )
        assert code == 0
        hits = json.loads(stdout)["hits"]
        assert len(hits) == 3

        with open(tmp_path / "store" / "index.ivf", "r+b") as fh:
            fh.truncate(fh.seek(0, 2) - 5)
        code, _, err = run_cli(
            ["index-search", "--index", store_dir, "--query", "paciente", "--dim", "32"], capsys
        )
        assert code == 2
        assert "truncated index file" in err

    def test_cluster_range_warning_on_stderr(self, corpus_tsv, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # the IVF path, on a tiny corpus
        ivf_cli = "import sys; from fuzzymt import cli, retrieval; retrieval.FLAT_MAX_ROWS = 0; sys.exit(cli.main())"
        proc = subprocess.run(
            [sys.executable, "-c", ivf_cli, "index-build", "--in", corpus_tsv,
             "--dim", "16", "--nlist", "2", "--out", str(tmp_path / "store")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "outside recommended range" in proc.stderr
        assert json.loads(proc.stdout)["size"] == 12

    def test_small_corpus_needs_no_nlist(self, corpus_tsv, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        code, stdout, err = run_cli(["index-build", "--in", corpus_tsv, "--dim", "32", "--out", store_dir], capsys)
        assert code == 0
        assert json.loads(stdout) == {"size": 12, "nlist": 1, "dim": 32, "out": store_dir}
        assert err == ""
        meta = json.loads((tmp_path / "store" / "store.json").read_text(encoding="utf-8"))
        assert meta["ivf"]["nlist"] == 1
        code, stdout, _ = run_cli(
            ["index-search", "--index", store_dir, "--query", "paciente dosis", "-k", "3",
             "--nprobe", "32", "--dim", "32"], capsys
        )
        assert code == 0
        assert len(json.loads(stdout)["hits"]) == 3


BUILD_FLAGS = ["--dim", "32", "--nlist", "2"]
# a store does not fix nprobe; only the commands that search take it
NPROBE = ["--nprobe", "2"]


@pytest.fixture
def store_dir(corpus_tsv, tmp_path, capsys):
    """A context store built by index-build from corpus_tsv with BUILD_FLAGS."""
    path = str(tmp_path / "store")
    code, _, _ = run_cli(["index-build", "--in", corpus_tsv, *BUILD_FLAGS, "--out", path], capsys)
    assert code == 0
    return path


@pytest.fixture
def queries_tsv(tmp_path):
    path = tmp_path / "queries.tsv"
    write_tsv(synth_corpus(5, seed=9, id_offset=500), path)
    return str(path)


def _same_outputs(argv, corpus_tsv, store_dir, files, tmp_path, capsys):
    """Run argv with --context CORPUS and with --context STORE; both must write the same bytes."""
    outputs = []
    for name, context in (("corpus", corpus_tsv), ("store", store_dir)):
        prefix = str(tmp_path / name)
        full = [part.format(context=context, out=prefix) for part in argv]
        code, stdout, err = run_cli(full, capsys)
        assert code == 0, err
        written = [Path(prefix + suffix).read_bytes() for suffix in files]
        outputs.append((stdout.replace(prefix, "PREFIX"), written))
    assert outputs[0] == outputs[1]
    return outputs[0]


class TestContextStore:
    def test_retrieve_store_matches_corpus(self, corpus_tsv, store_dir, queries_tsv, tmp_path, capsys):
        argv = ["retrieve", "--in", queries_tsv, "--context", "{context}", *BUILD_FLAGS, *NPROBE, "-k", "2"]
        stdout, _ = _same_outputs(argv, corpus_tsv, store_dir, [], tmp_path, capsys)
        assert len(stdout.splitlines()) == 5
        _, (dump,) = _same_outputs(argv + ["--out", "{out}.jsonl"], corpus_tsv, store_dir, [".jsonl"],
                                   tmp_path, capsys)
        assert len(dump.splitlines()) == 5

    def test_prompts_one_shot_store_matches_corpus(self, corpus_tsv, store_dir, queries_tsv, tmp_path, capsys):
        argv = ["prompts", "--in", queries_tsv, "--condition", "one-shot", "--context", "{context}",
                *BUILD_FLAGS, *NPROBE]
        stdout, _ = _same_outputs(argv, corpus_tsv, store_dir, [], tmp_path, capsys)
        assert all(json.loads(line)["shots"] == 1 for line in stdout.splitlines())
        _same_outputs(argv + ["--out", "{out}.jsonl"], corpus_tsv, store_dir, [".jsonl"], tmp_path, capsys)

    def test_export_dataset_store_matches_corpus(self, corpus_tsv, store_dir, tmp_path, capsys):
        argv = ["export-dataset", "--in", corpus_tsv, "--context", "{context}", "--total", "8",
                "--ratio", "0.5", "--validation-size", "2", *BUILD_FLAGS, *NPROBE, "--out", "{out}"]
        stdout, _ = _same_outputs(
            argv, corpus_tsv, store_dir, [".train.jsonl", ".validation.jsonl"], tmp_path, capsys
        )
        assert json.loads(stdout)["one_shot"] == 4

    def test_run_store_matches_corpus(self, corpus_tsv, store_dir, queries_tsv, tmp_path, capsys):
        files = ["report.md", "report.tsv", "report.json", "retrieval.jsonl",
                 "prompts.zero-shot.jsonl", "prompts.one-shot.jsonl"]
        outputs = []
        with run_mock_server("echo-fuzzy") as server:
            for name, context in (("corpus", corpus_tsv), ("store", store_dir)):
                config = {
                    "test_corpus": queries_tsv,
                    "context_corpus": context,
                    "provider": {"kind": "deterministic-test", "dim": 32, "seed": 0},
                    "ivf": {"dim": 32, "nlist": 2, "nprobe": 2},
                    "endpoint": server.endpoint,
                    "output_dir": str(tmp_path / name),
                }
                cfg_path = tmp_path / f"{name}.json"
                cfg_path.write_text(json.dumps(config), encoding="utf-8")
                code, stdout, err = run_cli(["run", "--config", str(cfg_path)], capsys)
                assert code == 0, err
                outputs.append((stdout, [(tmp_path / name / f).read_bytes() for f in files]))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("damage", ["truncated-index", "edited-corpus", "stray-index-id", "provider-seed"])
    def test_damaged_store_exit_2(self, damage, store_dir, queries_tsv, capsys):
        store = Path(store_dir)
        argv = ["retrieve", "--in", queries_tsv, "--context", store_dir, *BUILD_FLAGS, *NPROBE]
        if damage == "truncated-index":
            with open(store / "index.ivf", "r+b") as fh:
                fh.truncate(fh.seek(0, 2) - 3)
            message = "truncated index file"
        elif damage == "edited-corpus":
            text = (store / "corpus.jsonl").read_text(encoding="utf-8")
            (store / "corpus.jsonl").write_text(text.replace("paciente", "pacientes", 1), encoding="utf-8")
            message = "corpus.jsonl: SHA-256 differs from store.json"
        elif damage == "stray-index-id":
            # drop the first pair and re-record the digest, so only the id check can object
            lines = (store / "corpus.jsonl").read_bytes().splitlines(keepends=True)
            (store / "corpus.jsonl").write_bytes(b"".join(lines[1:]))
            meta = json.loads((store / "store.json").read_text(encoding="utf-8"))
            meta["sha256"]["corpus.jsonl"] = hashlib.sha256(b"".join(lines[1:])).hexdigest()
            (store / "store.json").write_text(json.dumps(meta), encoding="utf-8")
            message = "ids in only one of index.ivf and corpus.jsonl: [0]"
        else:
            argv += ["--seed", "7"]
            message = "store was built with provider seed=0, queries would use seed=7"
        code, stdout, err = run_cli(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert message in err

    def test_store_of_older_vectors_exit_2(self, store_dir, queries_tsv, capsys):
        # the store.json a deterministic store written before deterministic-ngram-v2 holds
        meta_path = Path(store_dir) / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["provider"]["model_name"] = "deterministic-ngram"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        code, stdout, err = run_cli(["retrieve", "--in", queries_tsv, "--context", store_dir, *BUILD_FLAGS, *NPROBE],
                                    capsys)
        assert code == 2
        assert stdout == ""
        assert "store was built with provider model_name='deterministic-ngram'" in err

    def test_older_deterministic_model_name_exit_2(self, store_dir, queries_tsv, capsys):
        # the older name would pass that store's fingerprint check with the newer vectors
        argv = ["retrieve", "--in", queries_tsv, "--context", store_dir, *BUILD_FLAGS, *NPROBE,
                "--model", "deterministic-ngram"]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 2
        assert stdout == ""
        assert "deterministic-test provider is model_name 'deterministic-ngram-v2', got 'deterministic-ngram'" in err

    def test_index_search_provider_mismatch_exit_2(self, store_dir, capsys):
        code, _, err = run_cli(
            ["index-search", "--index", store_dir, "--query", "paciente", "--dim", "32", "--seed", "7"],
            capsys,
        )
        assert code == 2
        assert "seed=7" in err

    def test_index_search_query_not_utf8_exit_2(self, store_dir, capsys):
        # how Python hands over the argv bytes b"hola \xff mundo"
        query = b"hola \xff mundo".decode("utf-8", "surrogateescape")
        code, stdout, err = run_cli(
            ["index-search", "--index", store_dir, "--query", query, "--dim", "32"], capsys
        )
        assert code == 2
        assert stdout == ""
        assert "--query is not valid UTF-8" in err

    @pytest.mark.parametrize(
        "content, code, hits",
        [(b"paciente\xff dosis\n", 2, None), ("el paciente\u2028mejora\r\nla dosis\r\n".encode(), 0, 2)],
        ids=["invalid-utf8", "u2028-crlf"],
    )
    def test_index_search_queries_file(self, content, code, hits, store_dir, tmp_path, capsys):
        path = tmp_path / "queries.txt"
        path.write_bytes(content)
        got, stdout, err = run_cli(
            ["index-search", "--index", store_dir, "--queries", str(path), "--dim", "32"], capsys
        )
        assert got == code
        if hits is None:
            assert "queries.txt:1: not valid UTF-8" in err
        else:
            assert [json.loads(line)["query_index"] for line in stdout.splitlines()] == list(range(hits))


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

    def test_retrieve_k_beyond_context_gives_every_row(self, corpus_tsv, queries_tsv, capsys):
        code, stdout, _ = run_cli(
            ["retrieve", "--in", queries_tsv, "--context", corpus_tsv, "--dim", "32", "-k", str(2**40)], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in stdout.splitlines()]
        assert len(records) == 5
        assert all(sorted(m["context_id"] for m in r["matches"]) == list(range(12)) for r in records)

    # the ids an index stores are int64; one past either end is a data error on its line
    @pytest.mark.parametrize("sub", ["retrieve", "index-build"])
    @pytest.mark.parametrize("bad_id", [2**63, -(2**63) - 1])
    def test_context_id_outside_int64_exit_2(self, sub, bad_id, queries_tsv, tmp_path, capsys):
        context = tmp_path / "c.jsonl"
        context.write_text(f'{{"id": 0, "source": "hola", "target": "hello"}}\n'
                           f'{{"id": {bad_id}, "source": "adiós", "target": "bye"}}\n', encoding="utf-8")
        argv = {"retrieve": ["--in", queries_tsv, "--context", str(context)],
                "index-build": ["--in", str(context), "--out", str(tmp_path / "store")]}[sub]
        code, _, err = run_cli([sub, *argv, "--dim", "32"], capsys)
        assert code == 2
        assert f"c.jsonl:2: id {bad_id} is outside the int64 range" in err

    def test_context_ids_at_int64_ends_retrieved(self, tmp_path, capsys):
        context = tmp_path / "c.jsonl"
        context.write_text(f'{{"id": {2**63 - 1}, "source": "hola mundo", "target": "hello world"}}\n'
                           f'{{"id": {-(2**63)}, "source": "adiós amigo", "target": "goodbye friend"}}\n',
                           encoding="utf-8")
        code, stdout, _ = run_cli(["retrieve", "--in", str(context), "--context", str(context), "--dim", "32",
                                   "-k", "1"], capsys)
        assert code == 0
        assert [json.loads(line)["matches"][0]["context_id"] for line in stdout.splitlines()] == [2**63 - 1, -(2**63)]

    def test_prompts_zero_shot(self, corpus_tsv, capsys):
        code, stdout, _ = run_cli(
            ["prompts", "--in", corpus_tsv, "--condition", "zero-shot"], capsys
        )
        assert code == 0
        first = json.loads(stdout.splitlines()[0])
        assert first["shots"] == 0
        assert first["prompt"].startswith("Spanish: ")
        assert first["prompt"].endswith("\nEnglish:")

    def test_prompts_whitespace_source_exit_2(self, tmp_path, capsys):
        path = tmp_path / "test.tsv"
        path.write_text("hola\thello\n \tfoo\n", encoding="utf-8")
        code, _, err = run_cli(["prompts", "--in", str(path)], capsys)
        assert code == 2
        assert "source must be non-empty" in err

    def test_prompts_one_shot_requires_context(self, corpus_tsv, capsys):
        code, _, _ = run_cli(
            ["prompts", "--in", corpus_tsv, "--condition", "one-shot"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("name", ["Fr\nench", "Fr\rench", "French: FR"], ids=["lf", "cr", "label-end"])
    @pytest.mark.parametrize("field", ["source_name", "target_name"])
    @pytest.mark.parametrize("path", ["cli", "config"])
    def test_language_name_the_parser_cannot_read_exit_2(self, path, field, name, corpus_tsv, tmp_path, capsys):
        # such a name would render prompts that translate and the mock could not read back
        out = tmp_path / "out"
        if path == "cli":
            argv = ["prompts", "--in", corpus_tsv, f"--{field.replace('_', '-')}", name, "--out", str(out)]
        else:
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps({"test_corpus": corpus_tsv, "context_corpus": corpus_tsv,
                                            "langs": {field: name}, "output_dir": str(out)}), encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert f"{field} must hold no line break and no ': '" in err
        assert not out.exists()

    def test_run_reference_without_token_exit_2_before_any_request(self, corpus_tsv, tmp_path, capsys):
        test_path = tmp_path / "test.tsv"
        test_path.write_text("uno dos tres\tone two three\ncuatro cinco\t<skipped>\n", encoding="utf-8")
        out = tmp_path / "out"
        with run_mock_server("echo-fuzzy") as server:
            config = {"test_corpus": str(test_path), "context_corpus": corpus_tsv,
                      "provider": {"kind": "deterministic-test", "dim": 32, "seed": 0},
                      "ivf": {"dim": 32, "nlist": 2, "nprobe": 2}, "endpoint": server.endpoint,
                      "output_dir": str(out)}
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            code, stdout, err = run_cli(["run", "--config", str(cfg_path)], capsys)
            paths = [entry["path"] for entry in server.state.request_log]
        assert (code, stdout) == (2, "")
        assert "[prompts-zero-shot] pair 1: reference must hold at least one token" in err
        assert "/v1/completions" not in paths
        assert not list(out.glob("generations.*"))


class TestDumps:
    @pytest.mark.parametrize("sub", ["filter", "retrieve", "prompts", "translate"])
    def test_stdout_holds_the_out_file_bytes(self, sub, corpus_tsv, queries_tsv, tmp_path, capsys):
        prompts_path = str(tmp_path / "prompts.jsonl")
        assert run_cli(["prompts", "--in", queries_tsv, "--out", prompts_path], capsys)[0] == 0
        with run_mock_server("echo-fuzzy") as server:
            argv = {
                "filter": ["filter", "--in", corpus_tsv],
                "retrieve": ["retrieve", "--in", queries_tsv, "--context", corpus_tsv, *BUILD_FLAGS, *NPROBE,
                             "-k", "2"],
                "prompts": ["prompts", "--in", queries_tsv, "--condition", "one-shot", "--context", corpus_tsv,
                            *BUILD_FLAGS, *NPROBE],
                "translate": ["translate", "--in", prompts_path, "--endpoint", server.endpoint],
            }[sub]
            code, stdout, err = run_cli(argv, capsys)
            assert code == 0, err
            out = tmp_path / f"{sub}.out"
            code, _, err = run_cli([*argv, "--out", str(out)], capsys)
            assert code == 0, err
        assert stdout.count("\n") >= 5
        assert stdout.encode("utf-8") == out.read_bytes()


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

    def test_export_crlf_files_as_lf(self, tmp_path, capsys):
        pairs = synth_corpus(12, seed=3).pairs
        outputs = []
        for eol in ("\n", "\r\n"):
            name = "crlf" if eol == "\r\n" else "lf"
            src, tgt = tmp_path / f"{name}.es", tmp_path / f"{name}.en"
            src.write_bytes("".join(p.source + eol for p in pairs).encode("utf-8"))
            tgt.write_bytes("".join(p.target + eol for p in pairs).encode("utf-8"))
            prefix = tmp_path / name
            code, _, _ = run_cli(["export-dataset", "--in", f"{src},{tgt}", "--context", f"{src},{tgt}",
                                  "--total", "8", "--validation-size", "2", "--dim", "32", "--out", str(prefix)],
                                 capsys)
            assert code == 0
            outputs.append([Path(f"{prefix}.{part}.jsonl").read_bytes() for part in ("train", "validation")])
        assert outputs[0] == outputs[1]
        assert b"\\r" not in b"".join(outputs[1]) and b" \\n" not in b"".join(outputs[1])

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

    def test_translate_reads_language_names_from_the_dump(self, corpus_tsv, tmp_path, capsys):
        prompts_path = str(tmp_path / "prompts.jsonl")
        code, _, err = run_cli(["prompts", "--in", corpus_tsv, "--source-name", "French", "--target-name", "German",
                                "--out", prompts_path], capsys)
        assert code == 0, err
        pairs = synth_corpus(12, seed=3).pairs
        with run_mock_server("dictionary", fixtures={p.source: p.target for p in pairs}) as server:
            code, stdout, err = run_cli(["translate", "--in", prompts_path, "--endpoint", server.endpoint], capsys)
            [request] = [entry["payload"] for entry in server.state.request_log]
        assert code == 0, err
        assert [json.loads(line) for line in stdout.splitlines()] == [{"id": p.id, "text": p.target} for p in pairs]
        assert request["prompt"][0].startswith("French: ") and request["prompt"][0].endswith("\nGerman:")
        assert request["max_tokens"] == max(len(p.source.split()) for p in pairs) * 4

    def test_translate_parses_each_prompt_once(self, corpus_tsv, tmp_path, capsys, monkeypatch):
        prompts_path = str(tmp_path / "prompts.jsonl")
        code, _, _ = run_cli(["prompts", "--in", corpus_tsv, "--condition", "zero-shot", "--out", prompts_path], capsys)
        assert code == 0
        parsed = []
        # the mock server's thread parses the prompts it receives too; only this thread counts
        main = threading.current_thread()

        def counted(text):
            if threading.current_thread() is main:
                parsed.append(text)
            return parse_prompt(text)

        for module in (cli.prompting, llm_client):
            monkeypatch.setattr(module, "parse_prompt", counted)
        with run_mock_server("echo-fuzzy") as server:
            code, stdout, _ = run_cli(["translate", "--in", prompts_path, "--endpoint", server.endpoint], capsys)
        assert code == 0 and len(stdout.splitlines()) == 12
        assert len(parsed) == len(set(parsed)) == 12

    def test_transport_failure_exit_3(self, corpus_tsv, tmp_path, capsys, sleeps):
        prompts_path = str(tmp_path / "prompts.jsonl")
        run_cli(["prompts", "--in", corpus_tsv, "--out", prompts_path], capsys)
        code, _, err = run_cli(
            ["translate", "--in", prompts_path, "--endpoint", "http://127.0.0.1:9"], capsys
        )
        assert code == 3
        assert "transport error" in err

    def test_failed_translate_keeps_finished_batches(self, corpus_tsv, tmp_path, capsys):
        prompts_path = str(tmp_path / "prompts.jsonl")
        out = tmp_path / "generations.jsonl"
        run_cli(["prompts", "--in", corpus_tsv, "--out", prompts_path], capsys)
        pairs = synth_corpus(12, seed=3).pairs
        # batches of 5: the third batch holds the one source the lexicon lacks
        lexicon = {p.source: p.target for p in pairs[:-1]}
        finished = [{"id": p.id, "text": p.target} for p in pairs[:10]]
        argv = ["translate", "--in", prompts_path, "--batch-size", "5"]
        with run_mock_server("dictionary", fixtures=lexicon) as server:
            code, stdout, err = run_cli(argv + ["--endpoint", server.endpoint, "--out", str(out)], capsys)
            assert code == 3 and stdout == "" and "HTTP 400" in err
            lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
            assert lines == finished
            # without --out the same records go to stdout
            code, stdout, err = run_cli(argv + ["--endpoint", server.endpoint], capsys)
        assert code == 3 and "HTTP 400" in err
        assert [json.loads(line) for line in stdout.splitlines()] == finished

    def test_non_json_body_exit_3(self, corpus_tsv, tmp_path, capsys):
        prompts_path = str(tmp_path / "prompts.jsonl")
        run_cli(["prompts", "--in", corpus_tsv, "--out", prompts_path], capsys)
        with local_endpoint([(200, b"<html>busy</html>")]) as (endpoint, _):
            code, _, err = run_cli(["translate", "--in", prompts_path, "--endpoint", endpoint], capsys)
        assert code == 3
        assert "not JSON" in err

    def test_lone_surrogate_corpus_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id": 0, "source": "hola mundo", "target": "hello world"}\n'
                         b'{"id": 1, "source": "hola \\ud800 mundo", "target": "hello world"}\n')
        code, _, err = run_cli(["index-build", "--in", str(path), "--dim", "8", "--nlist", "1",
                                "--out", str(tmp_path / "store")], capsys)
        assert code == 2
        assert "bad.jsonl:2: not valid UTF-8: lone surrogate" in err

    def test_nan_embedding_exit_3(self, corpus_tsv, tmp_path, capsys):
        body = json.dumps({"data": [{"embedding": [float("nan"), 1.0]}] * 12}).encode()
        with local_endpoint([(200, body)]) as (endpoint, _):
            code, _, err = run_cli(
                ["index-build", "--in", corpus_tsv, "--provider", "remote-http", "--endpoint", endpoint,
                 "--dim", "2", "--nlist", "1", "--out", str(tmp_path / "store")], capsys
            )
        assert code == 3
        assert "vector contains non-finite entries" in err

    @pytest.mark.parametrize("sub, content, message", BAD_JSONL_CASES)
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
        assert list(scores) == ["bleu", "chrf_pp", "ter"]
        assert scores["bleu"] == 100.0 and scores["chrf_pp"] == 100.0 and scores["ter"] == 0.0

    @pytest.mark.parametrize(
        "hyp, code, message",
        [
            (b"el paciente\xff mejora\n", 2, "hyp.txt:1: not valid UTF-8"),
            ("el paciente\u2028mejora\n".encode(), 0, None),
            (b"el paciente mejora\r\n", 0, None),
        ],
        ids=["invalid-utf8", "u2028", "crlf"],
    )
    def test_evaluate_parallel_files_one_segment_per_line(self, hyp, code, message, tmp_path, capsys):
        hyp_path = tmp_path / "hyp.txt"
        ref_path = tmp_path / "ref.txt"
        hyp_path.write_bytes(hyp)
        ref_path.write_bytes(b"el paciente mejora\n")
        got, stdout, err = run_cli(["evaluate", "--hyp", str(hyp_path), "--ref", str(ref_path)], capsys)
        assert got == code
        if message is not None:
            assert message in err
        else:
            assert json.loads(stdout)["ter"] == 0.0

    @pytest.mark.parametrize("reference", [" ", "\t", "<skipped>"], ids=["space", "tab", "skipped"])
    def test_evaluate_reference_without_tokens_exit_2(self, reference, tmp_path, capsys):
        hyp_path = tmp_path / "hyp.txt"
        ref_path = tmp_path / "ref.txt"
        hyp_path.write_text("a b\na b\n", encoding="utf-8")
        ref_path.write_text(f"a b\n{reference}\n", encoding="utf-8")
        code, _, err = run_cli(["evaluate", "--hyp", str(hyp_path), "--ref", str(ref_path)], capsys)
        assert code == 2
        assert "pair 1: reference must hold at least one token" in err

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

    @pytest.mark.parametrize(
        "payload",
        [{}, {"rows": [{"model": "m", "bleu": 1.0, "chrf_pp": 2.0, "ter": 3.0}]}, [1]],
        ids=["no-rows", "row-without-context", "list"],
    )
    def test_malformed_report_exit_2(self, payload, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, stdout, err = run_cli(["report", "--in", str(path)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"{path}: not a JSON report" in err

    def test_report_truncated_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"rows": [\n', encoding="utf-8")
        code, stdout, err = run_cli(["report", "--in", str(path)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"{path}:2: invalid JSON: Expecting value (column 1)" in err

    def test_report_invalid_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"rows": []}\n\xff\n')
        code, stdout, err = run_cli(["report", "--in", str(path)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"{path}:2: not valid UTF-8" in err


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

    def test_run_unknown_nested_config_key_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(
            json.dumps({"test_corpus": "a.tsv", "context_corpus": "b.tsv", "provider": {"bogus": 1}}),
            encoding="utf-8",
        )
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "unknown provider keys ['bogus']" in err

    @pytest.mark.parametrize("key, value", [("mode", "sampled"), ("stop_sequences", ["|"]), ("max_tokens", 7)],
                             ids=["mode", "stop_sequences", "max_tokens"])
    def test_run_removed_decoding_key_exit_2(self, key, value, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"test_corpus": "a.tsv", "context_corpus": "b.tsv", "decoding": {key: value}}),
                            encoding="utf-8")
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert f"unknown decoding keys ['{key}']" in err

    def test_run_whitespace_source_exit_2(self, tmp_path, capsys):
        test_path = tmp_path / "test.tsv"
        test_path.write_text("hola\thello\n \tfoo\n", encoding="utf-8")
        context_path = tmp_path / "context.tsv"
        write_tsv(synth_corpus(8, seed=41, id_offset=300), context_path)
        config = {"test_corpus": str(test_path), "context_corpus": str(context_path),
                  "provider": {"dim": 32}, "endpoint": "http://127.0.0.1:9", "output_dir": str(tmp_path / "run")}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "[prompts-zero-shot] source must be non-empty" in err

    def test_run_invalid_json_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text('{"test_corpus": "a.tsv",\n "context_corpus": }\n', encoding="utf-8")
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert f"{cfg_path}:2: invalid JSON: Expecting value" in err

    def test_run_invalid_utf8_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_bytes(b'{"test_corpus": "caf\xff.tsv"}\n')
        code, _, err = run_cli(["run", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert f"{cfg_path}:1: not valid UTF-8" in err

    @pytest.mark.parametrize("path", ["cli", "config"])
    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed must be non-negative, got -1"),  # k-means rng
            (2**63, "seed must fit a signed 64-bit integer"),  # embedding hash key
        ],
    )
    def test_seed_out_of_range_exit_2(self, path, seed, message, corpus_tsv, tmp_path, capsys):
        if path == "cli":
            argv = ["index-build", "--in", corpus_tsv, "--dim", "32", "--nlist", "2",
                    "--seed", str(seed), "--out", str(tmp_path / "store")]
        else:
            config = {"test_corpus": corpus_tsv, "context_corpus": corpus_tsv, "seed": seed,
                      "provider": {"dim": 32, "seed": seed}, "output_dir": str(tmp_path / "run")}
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert message in err
        assert not (tmp_path / ("store" if path == "cli" else "run")).exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["index-build", "--in", "{corpus}", "--provider", "remote-http", "--out", "{out}"], None,
             "needs an http:// or https:// endpoint"),
            (["translate", "--in", "{prompts}", "--endpoint", "http://127.0.0.1:9", "--max-concurrent-batches", "0"],
             None, "max_concurrent_batches must be >= 1"),
            (["translate", "--in", "{prompts}", "--endpoint", "http://127.0.0.1:9", "--temperature", "nan"],
             None, "temperature must be a finite number >= 0, got nan"),
            (["translate", "--in", "{prompts}", "--endpoint", "http://127.0.0.1:9", "--temperature", "inf"],
             None, "temperature must be a finite number >= 0, got inf"),
            (None, {"provider": {"kind": "remote-http"}}, "needs an http:// or https:// endpoint"),
            (None, {"provider": {"max_in_flight": 0}}, "max_in_flight must be >= 1"),
            (None, {"max_concurrent_batches": 0}, "max_concurrent_batches must be >= 1"),
            (None, {"provider": {"max_attempts": 5}}, "unknown provider keys ['max_attempts']"),
            (None, {"provider": {"backoff_seconds": 0.5}}, "unknown provider keys ['backoff_seconds']"),
            (None, {"batch_size": 0}, "batch_size must be >= 1, got 0"),
            (None, {"token_multiplier": 0}, "token_multiplier must be >= 1, got 0"),
            (None, {"batch_size": "20"}, "config key 'batch_size' must be int, got \"20\""),
            (None, {"batch_size": True}, "config key 'batch_size' must be int, got true"),
            (None, {"max_concurrent_batches": "2"}, "config key 'max_concurrent_batches' must be int, got \"2\""),
            (None, {"seed": "0"}, "config key 'seed' must be int, got \"0\""),
            (None, {"endpoint": 5}, "config key 'endpoint' must be str, got 5"),
            (None, {"langs": {"source_name": 5}}, "langs key 'source_name' must be str, got 5"),
            (None, {"decoding": {"temperature": "0"}}, "decoding key 'temperature' must be float, got \"0\""),
            (None, {"decoding": {"temperature": float("nan")}}, "temperature must be a finite number >= 0, got nan"),
        ],
        ids=["cli-no-endpoint", "cli-no-concurrency", "cli-nan-temperature", "cli-inf-temperature",
             "config-no-endpoint", "config-no-in-flight", "config-no-concurrency", "config-max-attempts",
             "config-backoff-seconds", "config-zero-batch-size",
             "config-zero-token-multiplier", "config-str-batch-size", "config-bool-batch-size",
             "config-str-concurrency", "config-str-seed", "config-int-endpoint", "config-int-source-name",
             "config-str-temperature", "config-nan-temperature"],
    )
    def test_bad_remote_setting_exit_2(self, argv, config, message, corpus_tsv, tmp_path, capsys, sleeps):
        if argv is not None:
            prompts = tmp_path / "prompts.jsonl"
            run_cli(["prompts", "--in", corpus_tsv, "--out", str(prompts)], capsys)
            argv = [arg.format(corpus=corpus_tsv, prompts=prompts, out=tmp_path / "out") for arg in argv]
        else:
            config = {"test_corpus": corpus_tsv, "context_corpus": corpus_tsv, "allow_context_overlap": True,
                      "output_dir": str(tmp_path / "run"), **config}
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps(config), encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert message in err
        assert sleeps == []
        assert not (tmp_path / "run").exists()

    def test_run_without_config_usage_error(self, capsys):
        code, _, _ = run_cli(["run"], capsys)
        assert code == 1
