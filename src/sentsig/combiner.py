"""Combining the two supervision signals: sequential pipelines and merged providers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import EmbeddingProvider, ToyEncoder
from .errors import InvalidInputError
from .objectives import IndexedDefinitions, IndexedNli, MultiSchedule, TrainConfig, TrainResult, train_seeds

STAGES = ("sbert", "defsent", "multi")
COMBINE_MODES = ("average", "concat")


def combine_average(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise mean of two equal-shape vectors or matrices."""
    if a.shape != b.shape:
        raise InvalidInputError(f"average needs equal dims, got {a.shape} and {b.shape}")
    return (a + b) / 2.0


def combine_concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a followed by b along the last axis (row by row for matrices); dims add."""
    return np.concatenate([a, b], axis=-1)


class CombinedProvider:
    """Embeds with two providers and merges their rows (average or concat)."""

    def __init__(self, mode: str, provider_a: EmbeddingProvider, provider_b: EmbeddingProvider):
        if mode not in COMBINE_MODES:
            raise InvalidInputError(f"unknown combination mode {mode!r}")
        if mode == "average" and provider_a.dim != provider_b.dim:
            raise InvalidInputError(
                f"average needs equal dims, got {provider_a.dim} and {provider_b.dim}")
        self.mode = mode
        self.provider_a = provider_a
        self.provider_b = provider_b
        self.dim = provider_a.dim if mode == "average" else provider_a.dim + provider_b.dim
        self.name = f"{mode}({provider_a.name},{provider_b.name})"

    def embed_batch(self, sentences: Sequence[str]) -> np.ndarray:
        a = self.provider_a.embed_batch(sentences)
        b = self.provider_b.embed_batch(sentences)
        if self.mode == "average":
            return combine_average(a, b)
        return combine_concat(a, b)

    def embed(self, sentence: str) -> np.ndarray:
        return self.embed_batch([sentence])[0]


@dataclass
class PipelineSpec:
    """Ordered training stages applied to one shared encoder, all with one config."""

    stages: list[str]
    config: TrainConfig = field(default_factory=TrainConfig)
    schedule: MultiSchedule = field(default_factory=MultiSchedule)

    def __post_init__(self):
        if not self.stages:
            raise InvalidInputError("pipeline needs at least one stage")
        for stage in self.stages:
            if stage not in STAGES:
                raise InvalidInputError(f"unknown pipeline stage {stage!r}")
        if "multi" in self.stages and len(self.stages) > 1:
            raise InvalidInputError("the multi stage must be the only stage")

    @classmethod
    def from_method(cls, method: str, config: TrainConfig,
                    schedule: MultiSchedule | None = None) -> "PipelineSpec":
        """Map a method keyword (sbert, defsent, s+d, d+s, multi) to stages."""
        stages = {
            "sbert": ["sbert"],
            "defsent": ["defsent"],
            "s+d": ["sbert", "defsent"],
            "d+s": ["defsent", "sbert"],
            "multi": ["multi"],
        }.get(method)
        if stages is None:
            raise InvalidInputError(f"unknown training method {method!r}")
        return cls(stages=stages, config=config, schedule=schedule or MultiSchedule())


@dataclass
class PipelineResult:
    encoder: ToyEncoder
    stage_results: list[TrainResult]


def run_pipeline(spec: PipelineSpec, encoders: Sequence[ToyEncoder],
                 nli_data: IndexedNli | None = None, def_data: IndexedDefinitions | None = None,
                 *, seeds: Sequence[int]) -> list[PipelineResult]:
    """Apply the stages sequentially to the same encoder parameters, all encoders in lockstep.

    Stage N+1 starts from exactly the parameters stage N finished with.
    ``seeds`` gives each encoder's training seed in place of the config's
    seed.  Each stage trains every encoder in one :func:`train_seeds` call,
    and each result is exactly that of running the pipeline on its encoder
    alone.
    """
    stage_results = []
    for stage in spec.stages:
        uses_nli = stage in ("sbert", "multi")
        uses_def = stage in ("defsent", "multi")
        if uses_nli and not nli_data:
            raise InvalidInputError(f"{stage} stage requires an NLI dataset")
        if uses_def and not def_data:
            raise InvalidInputError(f"{stage} stage requires a definition dataset")
        stage_results.append(train_seeds(encoders, seeds, spec.config, nli_data if uses_nli else None,
                                         def_data if uses_def else None, spec.schedule))
    return [PipelineResult(encoder=encoder, stage_results=[r[k] for r in stage_results])
            for k, encoder in enumerate(encoders)]
