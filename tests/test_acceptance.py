"""Acceptance suite: one test per release criterion.

Each test prints an ``ACCEPTANCE nn <name>: PASS|FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and enforces the criterion at its
stated tolerance and runtime budget.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fuzzymt.ann_index import IvfConfig, IvfIndex, train
from fuzzymt.corpus import ParallelCorpus, SegmentPair, filter_corpus, word_count, write_tsv
from fuzzymt.embedding import EmbeddingProviderConfig, embed_batch
from fuzzymt.eval_harness import (
    CONDITION_ONE,
    CONDITION_ZERO,
    ExperimentConfig,
    render_report,
    run_experiment,
)
from fuzzymt.finetune_export import MixSpec, TrainingManifest, build_finetune_dataset, emit_training_manifest
from fuzzymt.llm_client import make_batches, run_mock_server
from fuzzymt.mt_metrics import EvalPair, bleu, chrf_pp, ter, ter_segment_edits
from fuzzymt.prompting import LanguageNames, render_few_shot, render_zero_shot
from fuzzymt.retrieval import FuzzyMatch, build_context_store

from conftest import synth_corpus
from oracles import brute_force_ids, exhaustive_shift_edits, lev_oracle

DATA = Path(__file__).parent / "data"
LANGS = LanguageNames()


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed <= budget_seconds else f"FAIL (runtime {elapsed:.1f}s over budget)"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} [{elapsed:.2f}s]")
    assert elapsed <= budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s budget"


def _fixture_pairs() -> list[EvalPair]:
    pairs = []
    for line in (DATA / "metrics_fixture.tsv").read_text(encoding="utf-8").splitlines():
        hyp, ref = line.split("\t")
        pairs.append(EvalPair(hyp, ref))
    return pairs


def test_01_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence", 1.0):
        pairs = _fixture_pairs()
        assert len(pairs) == 50
        frozen = json.loads((DATA / "metrics_expected.json").read_text(encoding="utf-8"))
        assert bleu(pairs).value == pytest.approx(frozen["bleu"], abs=0.1)
        assert chrf_pp(pairs).value == pytest.approx(frozen["chrf_pp"], abs=0.1)
        assert ter(pairs).value == pytest.approx(frozen["ter"], abs=0.1)


def test_02_metric_identities():
    with criterion(2, "metric identities on randomized corpora", 5.0):
        rng = random.Random(8811)
        vocab = ["luna", "rio", "campo", "mesa", "libro", "nube", "perro",
                 "gato", "casa", "flor", "monte", "lago", "pan"]
        for _ in range(100):
            pairs = []
            for _ in range(rng.randint(2, 5)):
                text = " ".join(rng.sample(vocab, rng.randint(4, 9)))
                pairs.append(EvalPair(text, text))
            b, c, t = bleu(pairs), chrf_pp(pairs), ter(pairs)
            assert b.value == 100.0
            assert c.value == 100.0
            assert t.value == 0.0
            for score in (b, c):
                assert 0.0 <= score.value <= 100.0
            assert t.value >= 0.0


def test_03_ter_shift_correctness():
    with criterion(3, "TER greedy shifts vs oracles", 30.0):
        # the two hand-verified instances equal the exhaustive-shift optimum
        for hyp, ref in (("a b x d", "a b c d"), ("c d a b", "a b c d")):
            greedy = ter_segment_edits(tuple(hyp.split()), tuple(ref.split()))
            assert greedy == exhaustive_shift_edits(hyp.split(), ref.split())
            assert ter([EvalPair(hyp, ref)]).value == 25.0

        # every permutation pair of length <= 6 over a 4-symbol alphabet is a
        # relabeling of a canonical symbol pattern, and TER depends only on
        # token equality patterns, so checking canonical patterns covers all
        def canonical_refs(max_len: int, n_symbols: int = 4):
            out = []

            def rec(prefix, used):
                if prefix:
                    out.append(tuple(prefix))
                if len(prefix) == max_len:
                    return
                for s in range(min(used + 1, n_symbols)):
                    prefix.append(chr(ord("a") + s))
                    rec(prefix, max(used, s + 1))
                    prefix.pop()

            rec([], 0)
            return out

        checked = 0
        for ref in canonical_refs(6):
            for hyp in set(itertools.permutations(ref)):
                greedy = ter_segment_edits(hyp, ref)
                assert greedy <= lev_oracle(hyp, ref), (hyp, ref)
                checked += 1
        assert checked > 15_000


def test_04_ivf_exhaustive_equivalence():
    with criterion(4, "IVF nprobe=nlist equals brute force", 60.0):
        rng = np.random.default_rng(42)
        for config_i in range(20):
            n = int(rng.integers(50, 2001))
            dim = int(rng.choice([8, 384]))
            nlist = int(rng.integers(1, min(33, n + 1)))
            vectors = rng.normal(size=(n, dim))
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            vectors = vectors.astype(np.float32)
            cfg = IvfConfig(
                dim=dim, nlist=nlist, nprobe=nlist,
                kmeans_iters=4, seed=int(rng.integers(0, 1000)),
            )
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                index = train(vectors, cfg)
            ids = np.arange(n)
            index.add(zip(ids.tolist(), vectors))
            queries = rng.normal(size=(50, dim)).astype(np.float32)
            for q in queries:
                got = [h.id for h in index.search(q, k=10)]
                want = brute_force_ids(vectors, ids, q, 10)
                assert got == want


def test_05_ivf_recall_monotonicity():
    with criterion(5, "IVF recall non-decreasing in nprobe", 30.0):
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=384, seed=0)
        texts = [f"segmento sintetico numero {i} con palabras {i % 97} y {i % 13}" for i in range(1000)]
        vectors = embed_batch(texts, provider)
        cfg = IvfConfig(dim=384, nlist=32, nprobe=32, kmeans_iters=6, seed=0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            index = train(vectors, cfg)
        ids = np.arange(1000)
        index.add(zip(ids.tolist(), vectors))
        query_texts = [f"consulta de prueba {i} con ruido {i % 7}" for i in range(50)]
        queries = embed_batch(query_texts, provider)
        exact = [set(brute_force_ids(vectors, ids, q, 10)) for q in queries]
        previous = -1.0
        for nprobe in (1, 2, 4, 8, 16, 32):
            found = 0
            for q, truth in zip(queries, exact):
                got = {h.id for h in index.search(q, k=10, nprobe_override=nprobe)}
                found += len(got & truth)
            recall = found / (10 * len(queries))
            assert recall >= previous, f"recall dropped at nprobe={nprobe}"
            previous = recall
        assert previous == pytest.approx(1.0)


def test_06_prompt_byte_exactness():
    with criterion(6, "prompt byte-exactness and suffix law", 1.0):
        zero = render_zero_shot("Hola.", LANGS)
        assert zero.text == "Spanish: Hola.\nEnglish:"
        match = FuzzyMatch(pair=SegmentPair(0, "s'", "t'"), score=0.9)
        one = render_few_shot("s", [match], LANGS)
        assert one.text == "Spanish: s'\nEnglish: t'\nSpanish: s\nEnglish:"
        assert not zero.text.endswith(" ") and not one.text.endswith(" ")
        rng = random.Random(99)
        alphabet = "abcdefghijklmnopqrstuvwxyz ,."
        for _ in range(100):
            source = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40))).strip() or "x"
            fsrc = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30))).strip() or "y"
            ftgt = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30))).strip() or "z"
            m = FuzzyMatch(pair=SegmentPair(1, fsrc, ftgt), score=rng.random())
            assert render_few_shot(source, [m], LANGS).text.endswith(
                render_zero_shot(source, LANGS).text
            )


def test_07_dataset_mix_exactness():
    with criterion(7, "fine-tuning mix and split exactness", 60.0):
        corpus = synth_corpus(22_000, seed=77)
        context = synth_corpus(2_000, seed=78, id_offset=10**6)
        provider = EmbeddingProviderConfig(kind="deterministic-test", dim=64, seed=0)
        ivf = IvfConfig(dim=64, nlist=16, nprobe=4, kmeans_iters=4, seed=0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store = build_context_store(context, provider, ivf)
        mix = MixSpec(total=20_000, one_shot_ratio=0.5, validation_size=1_000, seed=13)
        train_a, val_a = build_finetune_dataset(corpus, store, mix, LANGS)
        assert len(train_a) == 19_000 and len(val_a) == 1_000
        combined = train_a + val_a
        assert sum(1 for e in combined if e.shot_type == "one") == 10_000
        assert sum(1 for e in combined if e.shot_type == "zero") == 10_000
        train_b, val_b = build_finetune_dataset(corpus, store, mix, LANGS)
        assert train_a == train_b and val_a == val_b


def test_08_filter_contract():
    with criterion(8, "filter idempotence, dedup, length bound", 10.0):
        rng = random.Random(4242)
        words = ["uno", "dos", "tres", "cuatro", "cinco"]
        for round_i in range(1_000):
            pairs = []
            for i in range(rng.randint(0, 12)):
                kind = rng.random()
                if kind < 0.2:
                    n = rng.choice([69, 70, 71])
                    source = " ".join(rng.choice(words) for _ in range(n))
                    target = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
                elif kind < 0.3:
                    source, target = "", "algo"
                elif kind < 0.4 and pairs:
                    previous = rng.choice(pairs)
                    source, target = previous.source, previous.target
                else:
                    source = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
                    target = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
                pairs.append(SegmentPair(id=i, source=source, target=target))
            corpus = ParallelCorpus(pairs)
            once = filter_corpus(corpus, max_words=70)
            assert filter_corpus(once, max_words=70).pairs == once.pairs
            keys = [(p.source.rstrip(), p.target.rstrip()) for p in once.pairs]
            assert len(keys) == len(set(keys))
            for pair in once.pairs:
                assert word_count(pair.source) <= 70
                assert word_count(pair.target) <= 70
                assert pair.source.strip() and pair.target.strip()
                assert pair in corpus.pairs


def test_09_end_to_end_adaptive_gain(tmp_path):
    with criterion(9, "end-to-end adaptive gain with echo-fuzzy mock", 30.0):
        test_corpus = synth_corpus(12, seed=5)
        extra = synth_corpus(8, seed=6, id_offset=500)
        context_corpus = ParallelCorpus(test_corpus.pairs + extra.pairs)
        test_path, context_path = tmp_path / "test.tsv", tmp_path / "context.tsv"
        write_tsv(test_corpus, test_path)
        write_tsv(context_corpus, context_path)
        with run_mock_server("echo-fuzzy") as server:
            cfg = ExperimentConfig(
                test_corpus=str(test_path),
                context_corpus=str(context_path),
                provider=EmbeddingProviderConfig(kind="deterministic-test", dim=48, seed=0),
                ivf=IvfConfig(dim=48, nlist=2, nprobe=2, kmeans_iters=4, seed=0),
                endpoint=server.endpoint,
                conditions=[CONDITION_ZERO, CONDITION_ONE],
                output_dir=str(tmp_path / "run"),
                allow_context_overlap=True,
            )
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                results = run_experiment(cfg)
        by_cond = {r.condition: {s.name: s.value for s in r.scores} for r in results}
        assert by_cond[CONDITION_ONE]["BLEU"] == 100.0
        assert by_cond[CONDITION_ONE]["TER"] == 0.0
        assert by_cond[CONDITION_ZERO]["BLEU"] == 0.0
        report = render_report(results, "markdown")
        for column in ("BLEU ↑", "chrF++ ↑", "TER ↓"):
            assert column in report.splitlines()[0]
        assert (tmp_path / "run" / "report.md").read_text(encoding="utf-8") == report


def test_10_batching_rule():
    with criterion(10, "batch chunking and max_tokens rule", 1.0):
        sources = [f"palabra {i}" for i in range(45)]
        prompts = [render_zero_shot(s, LANGS) for s in sources]
        batches = make_batches(prompts, batch_size=20, token_multiplier=4)
        assert [len(b.prompts) for b in batches] == [20, 20, 5]
        rng = random.Random(512)
        for _ in range(50):
            n = rng.randint(1, 60)
            batch_size = rng.randint(1, 25)
            multiplier = rng.randint(1, 6)
            sources = [
                " ".join("w" for _ in range(rng.randint(1, 15))) for _ in range(n)
            ]
            prompts = [render_zero_shot(s, LANGS) for s in sources]
            batches = make_batches(prompts, batch_size=batch_size,
                                   token_multiplier=multiplier)
            assert sum(len(b.prompts) for b in batches) == n
            cursor = 0
            for batch in batches:
                assert len(batch.prompts) <= batch_size
                chunk = sources[cursor : cursor + len(batch.prompts)]
                expected = max(len(s.split()) for s in chunk) * multiplier
                assert batch.max_tokens == expected
                cursor += len(batch.prompts)


def test_11_manifest_fidelity(tmp_path):
    with criterion(11, "training manifest hyperparameters", 1.0):
        path = tmp_path / "manifest.json"
        emit_training_manifest(TrainingManifest(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["lora"]["r"] == 64
        assert payload["lora"]["alpha"] == 16
        assert payload["lora"]["dropout"] == 0.1
        assert payload["lora"]["bias"] == "none"
        assert payload["quantization"]["load_in_4bit"] is True
        assert payload["quantization"]["quant_type"] == "nf4"
        assert payload["quantization"]["double_quant"] is True
        assert payload["quantization"]["compute_dtype"] == "bfloat16"
        assert payload["training"]["epochs"] == 1
        assert payload["training"]["batch_size"] == 32
        assert payload["training"]["warmup_ratio"] == 0.03
        assert payload["training"]["learning_rate"] == 2e-3
        assert payload["training"]["lr_scheduler"] == "constant"
        assert payload["training"]["bf16"] is True


def test_12_index_persistence(tmp_path):
    with criterion(12, "index save/load bit-identical search", 10.0):
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(500, 32))
        vectors = (vectors / np.linalg.norm(vectors, axis=1, keepdims=True)).astype(np.float32)
        cfg = IvfConfig(dim=32, nlist=8, nprobe=4, kmeans_iters=6, seed=0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            index = train(vectors, cfg)
        index.add(zip(range(500), vectors))
        path = tmp_path / "index.ivf"
        index.save(path)
        loaded = IvfIndex.load(path, nprobe=cfg.nprobe)
        queries = rng.normal(size=(100, 32)).astype(np.float32)
        for q in queries:
            original = [(h.id, h.score) for h in index.search(q, k=10)]
            reloaded = [(h.id, h.score) for h in loaded.search(q, k=10)]
            assert original == reloaded
