"""Combining the two supervision signals at read time: merged providers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .encoder import EmbeddingProvider
from .errors import InvalidInputError

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
