"""Mixed zero-/one-shot fine-tuning dataset export and training manifest.

The exported JSONL keeps prompt and completion separate so an external
trainer can mask the loss; the manifest carries the QLoRA hyperparameters a
trainer needs, with validated defaults.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import ParallelCorpus, pair_key, write_json, write_jsonl_records
from .errors import ArgumentError, SizeError, StateError, ValidationError
from .prompting import STOP, LanguageNames, normalize_segment, render_few_shot, render_zero_shot
from .retrieval import ContextStore, retrieve_fuzzy_many

SCHEMA_VERSION = 1

SHOT_ZERO = "zero"
SHOT_ONE = "one"


@dataclass(frozen=True)
class FinetuneExample:
    prompt: str
    completion: str
    shot_type: str

    def __post_init__(self):
        if self.shot_type not in (SHOT_ZERO, SHOT_ONE):
            raise ValidationError(f"shot_type must be zero|one, got {self.shot_type!r}")
        if not self.completion.startswith(" ") or not self.completion.endswith(STOP):
            raise ValidationError("completion must start with one space and end with newline")
        if self.completion.endswith(STOP + STOP):
            raise ValidationError("completion must end with exactly one newline")


@dataclass
class MixSpec:
    total: int
    one_shot_ratio: float = 0.5
    validation_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.total <= 0:
            raise ArgumentError(f"total must be positive, got {self.total}")
        if not (0.0 <= self.one_shot_ratio <= 1.0):
            raise ArgumentError(f"one_shot_ratio must be in [0,1], got {self.one_shot_ratio}")
        if not (0 <= self.validation_size < self.total):
            raise ArgumentError(
                f"validation_size must be in [0, total), got {self.validation_size}"
            )


@dataclass
class QuantizationConfig:
    load_in_4bit: bool = True
    quant_type: str = "nf4"
    double_quant: bool = True
    compute_dtype: str = "bfloat16"


@dataclass
class LoraConfig:
    r: int = 64
    alpha: int = 16
    dropout: float = 0.1
    bias: str = "none"


@dataclass
class TrainingArgs:
    epochs: int = 1
    batch_size: int = 32
    warmup_ratio: float = 0.03
    learning_rate: float = 2e-3
    lr_scheduler: str = "constant"
    bf16: bool = True


@dataclass
class TrainingManifest:
    quantization: QuantizationConfig = field(default_factory=QuantizationConfig)
    lora: LoraConfig = field(default_factory=LoraConfig)
    training: TrainingArgs = field(default_factory=TrainingArgs)

    def validate(self) -> None:
        if self.lora.r <= 0:
            raise ValidationError(f"lora.r must be positive, got {self.lora.r}")
        if self.lora.alpha <= 0:
            raise ValidationError(f"lora.alpha must be positive, got {self.lora.alpha}")
        if not (0.0 <= self.lora.dropout <= 1.0):
            raise ValidationError(f"lora.dropout must be in [0,1], got {self.lora.dropout}")
        if self.training.epochs <= 0:
            raise ValidationError(f"training.epochs must be positive, got {self.training.epochs}")
        if self.training.batch_size <= 0:
            raise ValidationError(
                f"training.batch_size must be positive, got {self.training.batch_size}"
            )
        if self.training.warmup_ratio < 0:
            raise ValidationError(
                f"training.warmup_ratio must be non-negative, got {self.training.warmup_ratio}"
            )
        if self.training.learning_rate <= 0:
            raise ValidationError(
                f"training.learning_rate must be positive, got {self.training.learning_rate}"
            )


def make_completion(target: str) -> str:
    """One leading space, the normalized target (which holds no newline), then ``STOP``."""
    return " " + normalize_segment(target) + STOP


def build_finetune_dataset(
    corpus: ParallelCorpus,
    store: ContextStore | None,
    mix: MixSpec,
    langs: LanguageNames = LanguageNames(),
) -> tuple[list[FinetuneExample], list[FinetuneExample]]:
    """Draw mix.total pairs, render the shot mix, split train/validation.

    round(total * one_shot_ratio) examples get the store's best fuzzy match
    that is not the example's own pair (by ``pair_key``); the remainder are
    zero-shot. Fully deterministic for a fixed (corpus, store, mix).
    """
    if len(corpus) < mix.total:
        raise SizeError(f"corpus has {len(corpus)} pairs, need {mix.total}")
    n_one = round(mix.total * mix.one_shot_ratio)
    if n_one > 0 and (store is None or len(store) == 0):
        raise StateError("one_shot_ratio > 0 requires a non-empty context store")

    rng = random.Random(mix.seed)
    chosen = rng.sample(range(len(corpus)), mix.total)
    pairs = [corpus.pairs[i] for i in chosen]
    one_shot_pairs = pairs[:n_one]
    zero_shot_pairs = pairs[n_one:]

    examples: list[FinetuneExample] = []
    if one_shot_pairs:
        # two hits, so a store that holds the training pair itself still yields another match
        match_lists = retrieve_fuzzy_many(store, [p.source for p in one_shot_pairs], k=2)
        for pair, matches in zip(one_shot_pairs, match_lists):
            own = pair_key(pair)
            shot = next((m for m in matches if pair_key(m.pair) != own), None)
            if shot is None:
                raise StateError(f"pair {pair.id}: the context store has no match other than the pair itself")
            prompt = render_few_shot(pair.source, [shot], langs)
            examples.append(
                FinetuneExample(
                    prompt=prompt.text,
                    completion=make_completion(pair.target),
                    shot_type=SHOT_ONE,
                )
            )
    for pair in zero_shot_pairs:
        prompt = render_zero_shot(pair.source, langs)
        examples.append(
            FinetuneExample(
                prompt=prompt.text,
                completion=make_completion(pair.target),
                shot_type=SHOT_ZERO,
            )
        )

    val_indices = set(rng.sample(range(len(examples)), mix.validation_size))
    train = [ex for i, ex in enumerate(examples) if i not in val_indices]
    validation = [ex for i, ex in enumerate(examples) if i in val_indices]
    return train, validation


def write_jsonl(examples: Sequence[FinetuneExample], path: str | Path) -> int:
    """One JSON object per example; round-trips losslessly. Returns the count."""
    return write_jsonl_records(
        path,
        (
            {
                "schema_version": SCHEMA_VERSION,
                "prompt": ex.prompt,
                "completion": ex.completion,
                "shot_type": ex.shot_type,
            }
            for ex in examples
        ),
    )


def manifest_payload(manifest: TrainingManifest) -> dict:
    """The validated manifest as its JSON object, schema version first."""
    manifest.validate()
    return {"schema_version": SCHEMA_VERSION, **asdict(manifest)}


def emit_training_manifest(manifest: TrainingManifest, path: str | Path) -> None:
    """Validate and write the manifest JSON."""
    write_json(path, manifest_payload(manifest))
