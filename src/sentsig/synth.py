"""Synthetic corpora for exercising training and evaluation end to end.

The generators build a topic-structured toy world: the vocabulary is split
into topics, sentences are bags of topic words, and gold STS similarity is
the fraction of shared-topic words in a pair.  NLI labels follow topic
relations (same topic entails, paired opposite topics contradict, unrelated
topics are neutral) and each word's definition is a sentence of other words
from its topic, so both supervision signals can be learned by aligning topic
words -- which is exactly what the evaluation suite should detect.
"""

from __future__ import annotations

import numpy as np

from .corpus import DefinitionExample, NliExample, StsPair
from .errors import InvalidInputError


def make_topic_vocabulary(n_topics: int, words_per_topic: int) -> list[list[str]]:
    return [[f"t{t:02d}w{i:03d}" for i in range(words_per_topic)] for t in range(n_topics)]


def _sample_words(rng, pool: list[str], count: int) -> list[str]:
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in idx]


def make_sts_corpus(rng: np.random.Generator, n_pairs: int, n_topics: int = 6,
                    words_per_topic: int = 40, sentence_len: int = 6,
                    source: str = "synth") -> list[StsPair]:
    """Pairs whose gold score is 5 x (shared-topic word fraction of sentence 2)."""
    topics = make_topic_vocabulary(n_topics, words_per_topic)
    other_pools = [
        [w for t2, pool in enumerate(topics) if t2 != t for w in pool]
        for t in range(n_topics)
    ]
    pairs = []
    for _ in range(n_pairs):
        t = int(rng.integers(n_topics))
        m = int(rng.integers(0, sentence_len + 1))
        s1 = _sample_words(rng, topics[t], sentence_len)
        s2 = _sample_words(rng, topics[t], m) + _sample_words(rng, other_pools[t], sentence_len - m)
        pairs.append(StsPair(
            sentence1=" ".join(s1), sentence2=" ".join(s2),
            gold=5.0 * m / sentence_len, source=source,
        ))
    return pairs


def make_nli_corpus(rng: np.random.Generator, n_examples: int, n_topics: int = 6,
                    words_per_topic: int = 40, sentence_len: int = 6) -> list[NliExample]:
    """Topic-relation NLI: same topic / opposite topic / unrelated topic."""
    if n_topics < 4 or n_topics % 2:
        raise InvalidInputError("need an even number of topics >= 4 for opposite pairs")
    topics = make_topic_vocabulary(n_topics, words_per_topic)
    labels = ("entailment", "contradiction", "neutral")
    examples = []
    for i in range(n_examples):
        label = labels[i % 3]
        t1 = int(rng.integers(n_topics))
        opposite = t1 ^ 1
        if label == "entailment":
            t2 = t1
        elif label == "contradiction":
            t2 = opposite
        else:
            while True:
                t2 = int(rng.integers(n_topics))
                if t2 not in (t1, opposite):
                    break
        examples.append(NliExample(
            premise=" ".join(_sample_words(rng, topics[t1], sentence_len)),
            hypothesis=" ".join(_sample_words(rng, topics[t2], sentence_len)),
            label=label,
        ))
    return examples


def make_definition_corpus(rng: np.random.Generator, n_topics: int = 6,
                           words_per_topic: int = 40, sentence_len: int = 6,
                           per_word: int = 2, with_markers: bool = True) -> list[DefinitionExample]:
    """Each word defined by sentences of other words from its own topic.

    With markers (default) every definition opens with a word unique to its
    headword, so the headword is identifiable from the definition alone; a
    bag of topic words by itself only identifies the topic, which caps how
    far the prediction loss can fall.
    """
    topics = make_topic_vocabulary(n_topics, words_per_topic)
    examples = []
    for pool in topics:
        for word in pool:
            rest = [w for w in pool if w != word]
            lead = [f"def{word}"] if with_markers else []
            body_len = sentence_len - len(lead)
            for _ in range(per_word):
                examples.append(DefinitionExample(
                    word=word,
                    definition=" ".join(lead + _sample_words(rng, rest, body_len))))
    return examples
