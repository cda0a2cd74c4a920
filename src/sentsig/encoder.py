"""Sentence-embedding providers.

Two concrete providers share one interface (``name`` and ``dim`` attributes
plus an ``embed_batch(sentences) -> (n, dim) matrix`` method; ``embed`` is its
one-row form):

* :class:`ToyEncoder` -- a trainable embedding table with CLS/Mean/Max
  pooling; a desk-scale stand-in for a pre-trained transformer.
* :class:`EmbeddingStore` -- a dump of precomputed vectors keyed by exact
  sentence text, which is how embeddings from real checkpoints enter the
  evaluation pipeline.
"""

from __future__ import annotations

import array
import itertools
from collections import Counter
from pathlib import Path
from typing import Protocol, Sequence

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

    def embed_batch(self, sentences: Sequence[str]) -> np.ndarray:
        """One row per sentence, in order; no sentences give a (0, dim) matrix."""
        ...

    def embed(self, sentence: str) -> np.ndarray:
        """The vector of one sentence: ``embed_batch([sentence])[0]``."""
        ...


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


def tokenize_texts(texts) -> dict[str, tuple[str, ...]]:
    """Tokens of each distinct text; every text is tokenized once.

    Equal tokens share one string object, so the tokens of a corpus cost
    about a pointer each.
    """
    canonical: dict[str, str] = {}
    out = {}
    for text in dict.fromkeys(texts):
        tokens = tokenize(text)
        out[text] = tuple(map(canonical.setdefault, tokens, tokens))
    return out


def build_vocab(texts: list[str], min_count: int = 1,
                tokens: dict[str, tuple[str, ...]] | None = None) -> Vocabulary:
    """Vocabulary of all tokenized words with frequency >= min_count.

    ``tokens`` maps each text to its tokens (see :func:`tokenize_texts`);
    without it each distinct text is tokenized here.  Index order is
    deterministic: descending frequency, then lexicographic.
    """
    if not texts:
        raise InvalidInputError("cannot build a vocabulary from an empty corpus")
    if min_count < 1:
        raise InvalidInputError("min_count must be >= 1")
    if tokens is None:
        tokens = {text: tokenize(text) for text in dict.fromkeys(texts)}
    counts = Counter(itertools.chain.from_iterable(tokens[text] for text in texts))
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary(kept)


def word_indices(tokens: Sequence[str], vocab: Vocabulary, max_tokens: int = MAX_TOKENS) -> list[int]:
    """Vocabulary indices of the first ``max_tokens`` tokens, unknowns to [UNK]."""
    if not tokens:
        raise InvalidInputError("token list is empty")
    return [vocab.index(t) for t in tokens[:max_tokens]]


class TokenIndex:
    """Word indices of many texts in one flat array.

    Text ``i`` is ``ids[offsets[i]:offsets[i + 1]]`` and has at least one
    word.  The [CLS] position that precedes every text is the same table row
    for all of them, so it is not stored.
    """

    def __init__(self, ids: np.ndarray, offsets: np.ndarray):
        self.ids = ids
        self.offsets = offsets
        self.lengths = offsets[1:] - offsets[:-1]  # word positions per text

    @classmethod
    def build(cls, token_lists, vocab: Vocabulary, max_tokens: int = MAX_TOKENS) -> "TokenIndex":
        """Index each token list with :func:`word_indices`."""
        ids = array.array("i")
        sizes = []
        for tokens in token_lists:
            row = word_indices(tokens, vocab, max_tokens)
            ids.extend(row)
            sizes.append(len(row))
        offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        return cls(np.frombuffer(ids, dtype=np.int32), offsets)

    def __len__(self) -> int:
        return self.lengths.shape[0]

    def take(self, rows: np.ndarray) -> "TokenIndex":
        """The texts at ``rows``, in that order, as a new index."""
        starts = self.offsets[rows]
        sizes = self.lengths[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        gather = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], sizes)
        return TokenIndex(self.ids[gather], offsets)


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

    def pool_forward(self, index: TokenIndex) -> tuple[np.ndarray, np.ndarray | None]:
        """Pooled vectors (one row per text of ``index``) and, for max, each entry's table row.

        ``mean`` and ``max`` reduce over the word positions only, so the mean
        is a true word average; ``cls`` takes the [CLS] row.  Max ties go to
        the first position.
        """
        if self.pooling == "cls":
            return self.table[np.full(len(index), CLS_INDEX)], None
        sizes = index.lengths
        if sizes.min() < 1:
            raise InvalidInputError("no content vectors to pool over")
        n = sizes.shape[0]
        if self.pooling == "mean":
            # an unbuffered add sums each text's rows in word order, as a one-text mean does
            sums = np.zeros((n, self.dim))
            np.add.at(sums, np.repeat(np.arange(n), sizes), self.table[index.ids])
            return sums / sizes[:, None], None
        # max: lay the texts out as (text, position, dim), each padded to the
        # longest by repeating its last word; a repeat comes after the word
        # itself, so argmax still picks the first maximum
        positions = np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
        words = index.ids[positions + index.offsets[:-1, None]]
        rows = self.table[words]
        argmax_rows = words[np.arange(n)[:, None], rows.argmax(axis=1)]
        return rows.max(axis=1), argmax_rows

    def pool_backward(self, index: TokenIndex, argmax_rows: np.ndarray | None,
                      grad_out: np.ndarray, table_grad: np.ndarray) -> None:
        """Add the table gradient of :meth:`pool_forward` for ``grad_out`` into ``table_grad``.

        One scatter for the whole index: a row that several positions share
        sums their contributions in text order.
        """
        if self.pooling == "cls":
            np.add.at(table_grad, np.full(len(index), CLS_INDEX), grad_out)
        elif self.pooling == "mean":
            sizes = index.lengths
            np.add.at(table_grad, index.ids, np.repeat(grad_out / sizes[:, None], sizes, axis=0))
        else:  # max: each coordinate's gradient goes to the row that produced the max
            np.add.at(table_grad, (argmax_rows, np.arange(self.dim)), grad_out)

    def embed_batch(self, sentences: Sequence[str]) -> np.ndarray:
        """Pool every sentence in one :meth:`pool_forward` call, one row per sentence."""
        token_lists = []
        for sentence in sentences:
            tokens = tokenize(sentence)
            if not tokens:
                raise InvalidInputError(f"sentence has no tokens to embed: {sentence!r}")
            token_lists.append(tokens)
        if not token_lists:
            return np.zeros((0, self.dim))
        vectors, _ = self.pool_forward(TokenIndex.build(token_lists, self.vocab, self.max_tokens))
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise InvalidInputError(
                f"embedding of {sentences[int(finite.argmin())]!r} contains NaN or Inf")
        return vectors

    def embed(self, sentence: str) -> np.ndarray:
        return self.embed_batch([sentence])[0]

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

    def embed_batch(self, sentences: Sequence[str]) -> np.ndarray:
        """The stored rows of the sentences, stacked; an unknown one raises MissingEmbeddingError."""
        out = np.empty((len(sentences), self.dim))
        for i, sentence in enumerate(sentences):
            try:
                out[i] = self._vectors[sentence]
            except KeyError:
                raise MissingEmbeddingError(sentence) from None
        return out

    def embed(self, sentence: str) -> np.ndarray:
        return self.embed_batch([sentence])[0]

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
