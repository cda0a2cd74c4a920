"""Generators that only tests use: fresh encoders, unstructured STS pairs and probes over hand-built features."""

import numpy as np

from sentsig.corpus import StsPair
from sentsig.encoder import MODEL_DTYPE, EmbeddingStore, ToyEncoder, Vocabulary, initial_table
from sentsig.evalsuite import ProbeTask


def fresh_encoder(vocab: Vocabulary, dim: int, pooling: str = "mean", seed: int = 0) -> ToyEncoder:
    """An untrained encoder holding the float32 :func:`initial_table` of ``seed``, as training draws it."""
    encoder = ToyEncoder(vocab, None, pooling, dim=dim)
    encoder.table = initial_table(np.empty((len(vocab), dim), MODEL_DTYPE), seed)
    return encoder


def _sample_words(rng, pool: list[str], count: int) -> list[str]:
    return [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]


def make_random_sts(rng: np.random.Generator, n_pairs: int, n_sources: int = 5,
                    vocab_size: int = 60, max_len: int = 9) -> list[StsPair]:
    """Unstructured random pairs for stress-testing parsers and partitioners."""
    words = [f"w{i:03d}" for i in range(vocab_size)]
    pairs = []
    for _ in range(n_pairs):
        n1 = int(rng.integers(3, max_len + 1))
        n2 = int(rng.integers(3, max_len + 1))
        pairs.append(StsPair(
            sentence1=" ".join(_sample_words(rng, words, n1)),
            sentence2=" ".join(_sample_words(rng, words, n2)),
            gold=float(np.round(rng.uniform(0.0, 5.0), 3)),
            source=f"src{int(rng.integers(n_sources))}",
        ))
    return pairs


def make_blob_probe(rng: np.random.Generator, n_per_class: int = 40, n_classes: int = 2,
                    dim: int = 8, separation: float = 6.0, noise: float = 1.0,
                    name: str = "blobs"):
    """Linearly separable class blobs; returns (task, store of embeddings)."""
    store = EmbeddingStore(dim, name=f"{name}-store")
    examples = []
    centers = rng.normal(0.0, 1.0, size=(n_classes, dim))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    for c in range(n_classes):
        for i in range(n_per_class):
            sentence = f"{name} class{c} item{i}"
            store.add(sentence, centers[c] + noise * rng.normal(size=dim))
            examples.append((sentence, f"class{c}"))
    return ProbeTask(name=name, examples=examples), store


def make_paired_feature_probe(rng: np.random.Generator, n: int = 200, dim: int = 6,
                              separation: float = 4.0, noise: float = 0.5):
    """Probe whose 4-way label needs two features held by different providers.

    Provider A's vectors expose only feature 1, provider B's only feature 2,
    so either alone tops out near 50% while the concatenation can separate
    all four classes.
    """
    store_a = EmbeddingStore(dim, name="feature1-store")
    store_b = EmbeddingStore(dim, name="feature2-store")
    examples = []
    for i in range(n):
        f1 = i % 2
        f2 = (i // 2) % 2
        sentence = f"item {i} of the paired feature probe"
        vec_a = noise * rng.normal(size=dim)
        vec_a[0] += separation * f1
        vec_b = noise * rng.normal(size=dim)
        vec_b[0] += separation * f2
        store_a.add(sentence, vec_a)
        store_b.add(sentence, vec_b)
        examples.append((sentence, f"{f1}{f2}"))
    return ProbeTask(name="paired-features", examples=examples), store_a, store_b
