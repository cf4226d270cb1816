from __future__ import annotations

import json
from dataclasses import replace

import pytest

from fuzzymt.ann_index import IvfConfig
from fuzzymt.corpus import read_jsonl
from fuzzymt.errors import ArgumentError, SizeError, StateError, ValidationError
from fuzzymt.finetune_export import (
    FinetuneExample,
    MixSpec,
    TrainingManifest,
    build_finetune_dataset,
    emit_training_manifest,
    make_completion,
    write_jsonl,
)
from fuzzymt.prompting import LanguageNames, parse_prompt
from fuzzymt.retrieval import build_context_store

from conftest import synth_corpus

LANGS = LanguageNames()


@pytest.fixture
def context_store(det_provider):
    corpus = synth_corpus(30, seed=11, id_offset=1000)
    cfg = IvfConfig(dim=64, nlist=2, nprobe=2, kmeans_iters=4, seed=0)
    return build_context_store(corpus, det_provider, cfg)


class TestCompletion:
    def test_shape(self):
        assert make_completion("hello world") == " hello world\n"

    def test_embedded_newline_normalized(self):
        assert make_completion("a\nb") == " a b\n"

    def test_example_validation(self):
        with pytest.raises(ValidationError):
            FinetuneExample(prompt="p", completion="no leading space\n", shot_type="zero")
        with pytest.raises(ValidationError):
            FinetuneExample(prompt="p", completion=" no newline", shot_type="zero")
        with pytest.raises(ValidationError):
            FinetuneExample(prompt="p", completion=" x\n", shot_type="both")


class TestBuildDataset:
    def test_mix_exactness_small(self, context_store):
        corpus = synth_corpus(40, seed=2)
        mix = MixSpec(total=10, one_shot_ratio=0.5, validation_size=2, seed=1)
        train, validation = build_finetune_dataset(corpus, context_store, mix, LANGS)
        combined = train + validation
        assert len(train) == 8 and len(validation) == 2
        assert sum(1 for e in combined if e.shot_type == "one") == 5
        assert sum(1 for e in combined if e.shot_type == "zero") == 5

    def test_ratio_zero_ignores_store(self):
        corpus = synth_corpus(12, seed=4)
        mix = MixSpec(total=6, one_shot_ratio=0.0, validation_size=1, seed=0)
        train, validation = build_finetune_dataset(corpus, None, mix, LANGS)
        assert all(e.shot_type == "zero" for e in train + validation)

    def test_ratio_one_gives_single_example_pair_each(self, context_store):
        corpus = synth_corpus(8, seed=6)
        mix = MixSpec(total=2, one_shot_ratio=1.0, validation_size=1, seed=0)
        train, validation = build_finetune_dataset(corpus, context_store, mix, LANGS)
        for example in train + validation:
            examples, _ = parse_prompt(example.prompt)
            assert len(examples) == 1

    def test_deterministic(self, context_store):
        corpus = synth_corpus(30, seed=8)
        mix = MixSpec(total=10, one_shot_ratio=0.4, validation_size=3, seed=5)
        a = build_finetune_dataset(corpus, context_store, mix, LANGS)
        b = build_finetune_dataset(corpus, context_store, mix, LANGS)
        assert a == b

    def test_training_pair_is_never_its_own_shot(self, det_provider, small_ivf):
        corpus = synth_corpus(40, seed=2)
        store = build_context_store(corpus, det_provider, small_ivf)
        mix = MixSpec(total=10, one_shot_ratio=1.0, validation_size=2, seed=1)
        train, validation = build_finetune_dataset(corpus, store, mix, LANGS)
        for example in train + validation:
            [shot], query = parse_prompt(example.prompt)
            assert shot != (query, example.completion.strip())

    def test_trailing_whitespace_variant_is_not_a_shot(self, det_provider):
        # the store holds each training pair with a trailing space on its source:
        # the same pair by corpus.pair_key, so never its own one-shot example
        corpus = synth_corpus(12, seed=2)
        variants = replace(corpus, pairs=[replace(p, source=p.source + " ") for p in corpus.pairs])
        store = build_context_store(variants, det_provider, IvfConfig(dim=64, nlist=2, nprobe=2, seed=0))
        mix = MixSpec(total=12, one_shot_ratio=1.0, validation_size=0, seed=0)
        train, _ = build_finetune_dataset(corpus, store, mix, LANGS)
        for example in train:
            [(shot_source, _)], query = parse_prompt(example.prompt)
            assert shot_source.rstrip() != query

    def test_store_holding_only_the_training_pair(self, det_provider):
        corpus = synth_corpus(1, seed=2)
        store = build_context_store(corpus, det_provider, IvfConfig(dim=64, nlist=1, nprobe=1))
        mix = MixSpec(total=1, one_shot_ratio=1.0, validation_size=0, seed=0)
        with pytest.raises(StateError, match="other than the pair itself"):
            build_finetune_dataset(corpus, store, mix, LANGS)

    def test_corpus_too_small(self, context_store):
        corpus = synth_corpus(3, seed=9)
        mix = MixSpec(total=10, one_shot_ratio=0.5, validation_size=1, seed=0)
        with pytest.raises(SizeError):
            build_finetune_dataset(corpus, context_store, mix, LANGS)

    def test_missing_store_with_positive_ratio(self):
        corpus = synth_corpus(12, seed=4)
        mix = MixSpec(total=4, one_shot_ratio=0.5, validation_size=1, seed=0)
        with pytest.raises(StateError):
            build_finetune_dataset(corpus, None, mix, LANGS)

    def test_concatenation_parses_with_one_more_target_line(self, context_store):
        corpus = synth_corpus(10, seed=12)
        mix = MixSpec(total=4, one_shot_ratio=0.5, validation_size=1, seed=2)
        train, validation = build_finetune_dataset(corpus, context_store, mix, LANGS)
        for ex in train + validation:
            shots = parse_prompt(ex.prompt)[0]
            full = ex.prompt + ex.completion
            completed = [
                line
                for line in full.split("\n")
                if line.startswith(f"{LANGS.target_name}: ") and line[len(LANGS.target_name) + 2:]
            ]
            assert len(completed) == len(shots) + 1

    def test_mix_spec_validation(self):
        with pytest.raises(ArgumentError):
            MixSpec(total=0)
        with pytest.raises(ArgumentError):
            MixSpec(total=10, one_shot_ratio=1.5)
        with pytest.raises(ArgumentError):
            MixSpec(total=10, validation_size=10)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        examples = [
            FinetuneExample(prompt='Spanish: "x"\nEnglish:', completion=' "y"\n', shot_type="zero"),
            FinetuneExample(prompt="p2\nEnglish:", completion=" t2\n", shot_type="one"),
        ]
        path = tmp_path / "data.jsonl"
        assert write_jsonl(examples, path) == 2
        assert [
            FinetuneExample(prompt=r["prompt"], completion=r["completion"], shot_type=r["shot_type"])
            for r in read_jsonl(path)
        ] == examples
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["schema_version"] == 1

    def test_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_jsonl([], path) == 0
        assert path.read_text(encoding="utf-8") == ""


class TestManifest:
    def test_reference_hyperparameters(self, tmp_path):
        path = tmp_path / "manifest.json"
        emit_training_manifest(TrainingManifest(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["quantization"] == {
            "load_in_4bit": True,
            "quant_type": "nf4",
            "double_quant": True,
            "compute_dtype": "bfloat16",
        }
        assert payload["lora"] == {"r": 64, "alpha": 16, "dropout": 0.1, "bias": "none"}
        assert payload["training"] == {
            "epochs": 1,
            "batch_size": 32,
            "warmup_ratio": 0.03,
            "learning_rate": 0.002,
            "lr_scheduler": "constant",
            "bf16": True,
        }
        assert payload["schema_version"] == 1

    def test_learning_rate_renders_as_decimal(self, tmp_path):
        path = tmp_path / "manifest.json"
        emit_training_manifest(TrainingManifest(), path)
        assert '"learning_rate": 0.002' in path.read_text(encoding="utf-8")

    def test_dropout_out_of_range(self, tmp_path):
        manifest = TrainingManifest()
        manifest.lora.dropout = 1.5
        with pytest.raises(ValidationError):
            emit_training_manifest(manifest, tmp_path / "m.json")

    def test_epochs_positive(self, tmp_path):
        manifest = TrainingManifest()
        manifest.training.epochs = 0
        with pytest.raises(ValidationError):
            emit_training_manifest(manifest, tmp_path / "m.json")
