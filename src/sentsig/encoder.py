"""Sentence-embedding providers.

Two concrete providers share one interface (a ``dim`` attribute plus an
``embed(sentence) -> vector`` method):

* :class:`ToyEncoder` -- a trainable embedding table with CLS/Mean/Max
  pooling; a desk-scale stand-in for a pre-trained transformer.
* :class:`EmbeddingStore` -- a dump of precomputed vectors keyed by exact
  sentence text, which is how embeddings from real checkpoints enter the
  evaluation pipeline.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Protocol

import numpy as np

from .corpus import read_lines, tokenize
from .errors import InvalidInputError, MissingEmbeddingError, ParseError
from .fileio import atomic_write
from .numstat import as_matrix, make_rng

CLS_TOKEN = "[CLS]"
UNK_TOKEN = "[UNK]"
CLS_INDEX = 0
UNK_INDEX = 1

POOLINGS = ("cls", "mean", "max")

MAX_TOKENS = 128  # training/evaluation truncation length


class EmbeddingProvider(Protocol):
    name: str
    dim: int

    def embed(self, sentence: str) -> np.ndarray: ...


class Vocabulary:
    """Word-to-index mapping with reserved [CLS] and [UNK] entries."""

    def __init__(self, words: list[str]):
        for reserved in (CLS_TOKEN, UNK_TOKEN):
            if reserved in words:
                raise InvalidInputError(f"{reserved} is reserved and cannot be a corpus word")
        self._words = [CLS_TOKEN, UNK_TOKEN, *words]
        self._index = {w: i for i, w in enumerate(self._words)}
        if len(self._index) != len(self._words):
            raise InvalidInputError("vocabulary words must be unique")

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        """Index of a word, falling back to [UNK]."""
        return self._index.get(word, UNK_INDEX)

    def word(self, index: int) -> str:
        return self._words[index]

    @property
    def words(self) -> list[str]:
        """All words in index order, including the reserved entries."""
        return list(self._words)


def build_vocab(texts: list[str], min_count: int = 1) -> Vocabulary:
    """Vocabulary of all tokenized words with frequency >= min_count.

    Index order is deterministic: descending frequency, then lexicographic.
    """
    if not texts:
        raise InvalidInputError("cannot build a vocabulary from an empty corpus")
    if min_count < 1:
        raise InvalidInputError("min_count must be >= 1")
    counts = Counter()
    for text in texts:
        counts.update(tokenize(text))
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary(kept)


class ToyEncoder:
    """Trainable embedding table + pooling; replaces contextual outputs at desk scale."""

    def __init__(self, vocab: Vocabulary, table: np.ndarray, pooling: str = "mean",
                 max_tokens: int = MAX_TOKENS, name: str | None = None):
        if pooling not in POOLINGS:
            raise InvalidInputError(f"unknown pooling strategy {pooling!r}")
        self.vocab = vocab
        self.table = as_matrix(table, rows=len(vocab))
        self.pooling = pooling
        self.max_tokens = max_tokens
        self.dim = self.table.shape[1]
        self.name = name or f"toy-{pooling}-d{self.dim}"

    @classmethod
    def create(cls, vocab: Vocabulary, dim: int, pooling: str = "mean",
               seed: int = 0, max_tokens: int = MAX_TOKENS) -> "ToyEncoder":
        """Fresh encoder with the table drawn uniformly from [-0.5/d, 0.5/d]."""
        if dim < 1:
            raise InvalidInputError("embedding dimension must be >= 1")
        rng = make_rng(seed)
        half = 0.5 / dim
        table = rng.uniform(-half, half, size=(len(vocab), dim))
        return cls(vocab, table, pooling=pooling, max_tokens=max_tokens)

    def token_indices(self, tokens: list[str]) -> np.ndarray:
        """[CLS] index followed by the (truncated) word indices, unknowns to [UNK]."""
        if not tokens:
            raise InvalidInputError("token list is empty")
        return np.array([CLS_INDEX, *(self.vocab.index(t) for t in tokens[: self.max_tokens])],
                        dtype=np.intp)

    def pool_forward(self, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Pooled vector of an index array [CLS, w1, ...] and, for max, each coordinate's argmax.

        ``mean`` and ``max`` reduce over the word positions only, so the mean
        is a true word average; ``cls`` takes the [CLS] row.  Max ties go to
        the first position.
        """
        if self.pooling == "cls":
            return self.table[CLS_INDEX].copy(), None
        if idxs.shape[0] < 2:
            raise InvalidInputError("no content vectors to pool over")
        content = self.table[idxs[1:]]
        if self.pooling == "mean":
            return content.mean(axis=0), None
        argmax = content.argmax(axis=0)
        return content.max(axis=0), argmax

    def pool_backward(self, idxs: np.ndarray, argmax: np.ndarray | None,
                      grad_out: np.ndarray, table_grad: np.ndarray) -> None:
        """Add the table gradient of :meth:`pool_forward` for ``grad_out`` into ``table_grad``."""
        if self.pooling == "cls":
            table_grad[CLS_INDEX] += grad_out
            return
        content = idxs[1:]
        if self.pooling == "mean":
            np.add.at(table_grad, content, grad_out / content.shape[0])
            return
        # max: each coordinate's gradient goes to the row that produced the max
        np.add.at(table_grad, (content[argmax], np.arange(grad_out.shape[0])), grad_out)

    def embed(self, sentence: str) -> np.ndarray:
        tokens = tokenize(sentence)
        if not tokens:
            raise InvalidInputError(f"sentence has no tokens to embed: {sentence!r}")
        vector, _ = self.pool_forward(self.token_indices(tokens))
        if not np.all(np.isfinite(vector)):
            raise InvalidInputError(f"embedding of {sentence!r} contains NaN or Inf")
        return vector

    def copy(self) -> "ToyEncoder":
        return ToyEncoder(self.vocab, self.table.copy(), pooling=self.pooling,
                          max_tokens=self.max_tokens, name=self.name)


class EmbeddingStore:
    """Fixed-dimension vectors keyed by exact sentence text."""

    def __init__(self, dim: int, name: str = "store"):
        if dim < 1:
            raise InvalidInputError("embedding dimension must be >= 1")
        self.dim = dim
        self.name = name
        self._vectors: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, sentence: str) -> bool:
        return sentence in self._vectors

    def add(self, sentence: str, vector) -> None:
        if "\t" in sentence or "\n" in sentence:
            raise InvalidInputError("stored sentences must not contain tab or newline")
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self.dim,):
            raise InvalidInputError(f"vector has dim {v.shape}, store expects ({self.dim},)")
        if sentence in self._vectors:
            raise InvalidInputError(f"duplicate sentence in store: {sentence!r}")
        self._vectors[sentence] = v

    def embed(self, sentence: str) -> np.ndarray:
        try:
            return self._vectors[sentence].copy()
        except KeyError:
            raise MissingEmbeddingError(sentence) from None

    def items(self):
        return self._vectors.items()


def save_dump(store: EmbeddingStore, path) -> None:
    """Write a store as a text dump (atomically); floats use shortest round-trip decimals."""
    with atomic_write(path) as fh:
        fh.write(f"dim={store.dim}\n")
        for sentence, vec in store.items():
            fh.write(sentence)
            fh.write("\t")
            fh.write(" ".join(repr(float(x)) for x in vec))
            fh.write("\n")


def load_dump(path) -> EmbeddingStore:
    path = Path(path)
    lines = read_lines(path)
    line_no, header = next(lines, (1, ""))
    if line_no != 1:  # the first line is empty
        header = ""
    if not header.startswith("dim="):
        raise ParseError(path, 1, f"expected 'dim=<d>' header, got {header!r}")
    try:
        dim = int(header[4:])
    except ValueError:
        raise ParseError(path, 1, f"malformed dimension in header: {header!r}") from None
    store = EmbeddingStore(dim, name=path.stem)
    for line_no, line in lines:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected '<sentence>\\t<floats>'")
        sentence, numbers = parts
        fields = numbers.split()
        if len(fields) != dim:
            raise ParseError(path, line_no, f"expected {dim} values, got {len(fields)}")
        try:
            vec = np.array([float(x) for x in fields], dtype=np.float64)
        except ValueError:
            raise ParseError(path, line_no, "non-numeric embedding value") from None
        try:
            store.add(sentence, vec)
        except InvalidInputError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return store
