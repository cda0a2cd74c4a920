"""Sentence-embedding providers.

Two concrete providers share one interface (``name`` and ``dim`` attributes
plus an ``embed_batch(sentences) -> (n, dim) matrix`` method; ``embed`` is its
one-row form):

* :class:`ToyEncoder` -- a trainable embedding table with mean or max
  pooling; a desk-scale stand-in for a pre-trained transformer.
* :class:`EmbeddingStore` -- a dump of precomputed vectors keyed by exact
  sentence text, which is how embeddings from real checkpoints enter the
  evaluation pipeline.
"""

from __future__ import annotations

import array
import functools
import hashlib
import itertools
import json
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

POOLINGS = ("mean", "max")

MAX_TOKENS = 128  # training/evaluation truncation length

MODEL_DTYPE = np.dtype(np.float32)  # of every trained array: tables, heads, Adam's buffers, sidecars

DRAW_CHUNK = 1 << 16  # entries of an initial table drawn per call


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
        self._words = (CLS_TOKEN, UNK_TOKEN, *words)
        self._index = dict(zip(self._words, range(len(self._words))))
        for reserved, index in ((CLS_TOKEN, CLS_INDEX), (UNK_TOKEN, UNK_INDEX)):
            if self._index[reserved] != index:
                raise InvalidInputError(f"{reserved} is reserved and cannot be a corpus word")
        if len(self._index) != len(self._words):
            raise InvalidInputError("vocabulary words must be unique")

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        """Index of a word, falling back to [UNK]."""
        return self._index.get(word, UNK_INDEX)

    @property
    def words(self) -> list[str]:
        """All words in index order, including the reserved entries."""
        return list(self._words)

    @functools.cached_property
    def digest(self) -> bytes:
        """The sha256 of the word list: equal lists, and only they, have equal digests."""
        text = "\x00".join(self._words)
        if text.count("\x00") >= len(self._words):  # a word holds NUL: the join is ambiguous
            text = json.dumps(self._words)  # no raw NUL, as every join of two or more words has
        return hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()


class TokenCache:
    """Tokens and word indices of texts, shared by the work of one command.

    Each distinct text is tokenized once, and equal tokens share one string
    object, so the tokens of a corpus cost about a pointer each.  A text
    list is indexed once per distinct vocabulary word list, keyed by its
    :attr:`Vocabulary.digest` so that no dropped checkpoint's words stay
    held: the checkpoints of one ``train`` command have equal vocabularies,
    so their encoders pool one :class:`TokenIndex`.
    """

    def __init__(self):
        self._tokens: dict[str, tuple[str, ...]] = {}
        self._canonical: dict[str, str] = {}
        self._indexes: dict[tuple, TokenIndex] = {}

    def tokens(self, texts: Sequence[str]) -> list[tuple[str, ...]]:
        """Each text's tokens, in order; a text without tokens has ``()``."""
        known, canonical = self._tokens, self._canonical
        for text in texts:
            if text not in known:
                tokens = tokenize(text)
                known[text] = tuple(map(canonical.setdefault, tokens, tokens))
        return [known[text] for text in texts]

    def index(self, texts: Sequence[str], vocab: Vocabulary) -> TokenIndex:
        """The index of ``texts``, one entry per text; a text without tokens is rejected by name."""
        texts = tuple(texts)
        key = (texts, vocab.digest)
        index = self._indexes.get(key)
        if index is None:
            token_lists = self.tokens(texts)
            if not all(token_lists):
                raise InvalidInputError(f"text has no tokens: {texts[token_lists.index(())]!r}")
            index = self._indexes[key] = TokenIndex.build(token_lists, vocab)
        return index


def build_vocab(texts: list[str], min_count: int = 1, cache: TokenCache | None = None) -> Vocabulary:
    """Vocabulary of all tokenized words with frequency >= min_count.

    The texts are tokenized through ``cache`` (a fresh one by default).
    Index order is deterministic: descending frequency, then lexicographic.
    """
    if not texts:
        raise InvalidInputError("cannot build a vocabulary from an empty corpus")
    if min_count < 1:
        raise InvalidInputError("min_count must be >= 1")
    counts = Counter(itertools.chain.from_iterable((cache or TokenCache()).tokens(texts)))
    kept = [w for w, c in counts.items() if c >= min_count]
    # the sort by count is stable under reverse=True, so ties stay in word order
    return Vocabulary(sorted(sorted(kept), key=counts.__getitem__, reverse=True))


class TokenIndex:
    """Word indices of many texts in one flat array: text ``i``, one word or more, is ``ids[offsets[i]:offsets[i + 1]]``."""

    def __init__(self, ids: np.ndarray, offsets: np.ndarray):
        self.ids = ids
        self.offsets = offsets
        self.lengths = offsets[1:] - offsets[:-1]  # word positions per text

    @classmethod
    def build(cls, token_lists, vocab: Vocabulary) -> "TokenIndex":
        """Vocabulary indices of each list's first ``MAX_TOKENS`` tokens, unknowns to [UNK]."""
        sizes = np.fromiter(map(len, token_lists), np.intp, len(token_lists))
        if not sizes.all():
            raise InvalidInputError("token list is empty")
        if sizes.max(initial=0) > MAX_TOKENS:
            token_lists = [tokens[:MAX_TOKENS] if len(tokens) > MAX_TOKENS else tokens for tokens in token_lists]
            np.minimum(sizes, MAX_TOKENS, out=sizes)
        offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        # Vocabulary.index, without a Python call per token
        words = itertools.chain.from_iterable(token_lists)
        ids = np.fromiter(map(vocab._index.get, words, itertools.repeat(UNK_INDEX)), np.int32, offsets[-1])
        return cls(ids, offsets)

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


class ScatterTerms:
    """Terms to add into the rows of a 2-D array, the whole of it or a range of rows at a time.

    ``rows`` names a target row for each row of ``values``, or, shaped like
    ``values``, one for each entry, which keeps its column.  With
    ``value_rows`` the row added at ``rows[i]`` is ``values[value_rows[i]]``.
    """

    def __init__(self, rows: np.ndarray, values: np.ndarray, value_rows: np.ndarray | None = None):
        # the terms sorted by key up front, so that threads filling ranges only read them: a key is
        # a term's target row, or, for terms of one entry each, its place row·d + column
        self.keys_per_row = 1 if rows.ndim == 1 else values.shape[1]
        if rows.ndim == 2:
            rows = (rows.astype(np.intp) * self.keys_per_row + np.arange(self.keys_per_row)).ravel()
            values = values.reshape(-1)
        order = np.argsort(rows, kind="stable")  # a key's terms stay in input order
        self.keys, self.values = rows[order], values
        self.value_rows = order if value_rows is None else value_rows[order]

    def add_to(self, target: np.ndarray, first_row: int = 0) -> None:
        """Add the terms of rows ``first_row`` onward into ``target``, a C-contiguous array of those rows.

        Every entry becomes the sum ``np.add.at`` forms, in its order: the
        target value, then the terms in input order, signed zeros included.
        The range's terms are one run of the terms sorted by key, added with
        one flat ``np.add.at``, so nothing target-sized is allocated.
        """
        first_key = first_row * self.keys_per_row
        lo, hi = np.searchsorted(self.keys, (first_key, first_key + target.shape[0] * self.keys_per_row))
        if lo == hi:
            return
        places = self.keys[lo:hi] - first_key  # places in the flattened target
        if self.values.ndim == 2:  # row keys: a term adds a whole row
            dim = self.values.shape[1]
            places = ((places * dim)[:, None] + np.arange(dim)).ravel()
        # 1-D places and terms: the form np.add.at has a fast loop for
        np.add.at(target.reshape(-1), places, np.take(self.values, self.value_rows[lo:hi], axis=0).ravel())


def pool_forward(table: np.ndarray, pooling: str,
                 index: TokenIndex) -> tuple[np.ndarray, np.ndarray | None]:
    """Pooled rows of ``table`` (one per text of ``index``) and, for max, each entry's table row.

    Both reduce over the word positions, so the mean is a true word
    average.  Max ties go to the first position.  The rows have the table's
    dtype.
    """
    sizes = index.lengths
    if sizes.min() < 1:
        raise InvalidInputError("no content vectors to pool over")
    n, dim = sizes.shape[0], table.shape[1]
    if pooling == "mean":
        # each text's word rows summed in word order from +0.0, as a
        # one-text mean does: position j adds into the k texts longer than
        # j, which are the first k once the texts are longest first
        order = np.argsort(-sizes, kind="stable")
        starts = index.offsets[order]
        running = np.zeros((n, dim), table.dtype)
        for j, k in enumerate(n - np.cumsum(np.bincount(sizes)[:-1])):
            running[:k] += table[index.ids[starts[:k] + j]]
        sums = np.empty_like(running)
        sums[order] = running
        sums /= sizes[:, None]  # in place, so float32 stays float32: an intp divisor promotes it
        return sums, None
    if pooling != "max":
        raise InvalidInputError(f"unknown pooling strategy {pooling!r}")
    # max: lay the texts out as (text, position, dim), each padded to the
    # longest by repeating its last word; a repeat comes after the word
    # itself, so argmax still picks the first maximum
    positions = np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
    words = index.ids[positions + index.offsets[:-1, None]]
    rows = table[words]
    argmax_rows = words[np.arange(n)[:, None], rows.argmax(axis=1)]
    return rows.max(axis=1), argmax_rows


def pool_backward(pooling: str, index: TokenIndex, argmax_rows: np.ndarray | None,
                  grad_out: np.ndarray) -> ScatterTerms:
    """The table gradient of :func:`pool_forward` for ``grad_out``, as terms to scatter.

    A row that several positions share sums their contributions in text order.
    """
    if pooling == "mean":
        sizes = index.lengths
        return ScatterTerms(index.ids, grad_out / sizes[:, None].astype(grad_out.dtype),
                            np.repeat(np.arange(len(index)), sizes))
    # max: each coordinate's gradient goes to the row that produced the max
    return ScatterTerms(argmax_rows, grad_out)


def initial_table(out: np.ndarray, seed: int) -> np.ndarray:
    """Fill ``out`` (V, d) with the initial table of ``seed``: uniform on [-0.5/d, 0.5/d].

    Whole rows, at most ``DRAW_CHUNK`` entries or one row, are drawn per call
    from one PCG64 stream: the values of one float64 draw of the whole table,
    rounded to ``out``'s dtype.
    """
    rng = make_rng(seed)
    half = 0.5 / out.shape[1]
    rows = max(1, DRAW_CHUNK // out.shape[1])
    for lo in range(0, out.shape[0], rows):
        out[lo : lo + rows] = rng.uniform(-half, half, size=(min(rows, out.shape[0] - lo), out.shape[1]))
    return out


class ToyEncoder:
    """Trainable embedding table + pooling; replaces contextual outputs at desk scale.

    ``token_cache`` is the :class:`TokenCache` that :meth:`embed_batch`
    indexes sentences through; encoders given one cache share its work.
    One made with ``table=None`` and a ``dim`` has no table until training draws it.
    A float32 table (:data:`MODEL_DTYPE`, as training and checkpoints hold
    it) is kept as it is, any other as float64.
    """

    def __init__(self, vocab: Vocabulary, table: np.ndarray | None, pooling: str = "mean",
                 name: str | None = None, dim: int | None = None):
        if pooling not in POOLINGS:
            raise InvalidInputError(f"unknown pooling strategy {pooling!r}")
        self.vocab = vocab
        self.table = None if table is None else as_matrix(table, rows=len(vocab))
        self.pooling = pooling
        self.dim = dim if table is None else self.table.shape[1]
        if self.dim < 1:
            raise InvalidInputError("embedding dimension must be >= 1")
        self.name = name or f"toy-{pooling}-d{self.dim}"
        self.token_cache: TokenCache | None = None

    def embed_batch(self, sentences: Sequence[str]) -> np.ndarray:
        """Pool every sentence in one :func:`pool_forward` call, one float64 row per sentence.

        Without a ``token_cache`` the sentences are tokenized for this call only.
        """
        if len(sentences) == 0:
            return np.zeros((0, self.dim))
        cache = self.token_cache or TokenCache()
        vectors, _ = pool_forward(self.table, self.pooling, cache.index(sentences, self.vocab))
        vectors = vectors.astype(np.float64, copy=False)
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise InvalidInputError(
                f"embedding of {sentences[int(finite.argmin())]!r} contains NaN or Inf")
        return vectors

    def embed(self, sentence: str) -> np.ndarray:
        return self.embed_batch([sentence])[0]


class EmbeddingStore:
    """Fixed-dimension vectors keyed by exact sentence text: rows of one float64 matrix."""

    def __init__(self, dim: int, name: str = "store"):
        if dim < 1:
            raise InvalidInputError("embedding dimension must be >= 1")
        self.dim = dim
        self.name = name
        self._row_of: dict[str, int] = {}  # in the order the rows were added
        self._rows = np.empty((0, dim))  # its first len(self) rows are in use

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, sentence: str) -> bool:
        return sentence in self._row_of

    def add(self, sentence: str, vector) -> None:
        if "\t" in sentence or "\n" in sentence:
            raise InvalidInputError("stored sentences must not contain tab or newline")
        v = np.asarray(vector, dtype=np.float64)
        if v.shape != (self.dim,):
            raise InvalidInputError(f"vector has dim {v.shape}, store expects ({self.dim},)")
        if not np.isfinite(v).all():
            raise InvalidInputError("vector holds NaN or Inf")
        if sentence in self._row_of:
            raise InvalidInputError(f"duplicate sentence in store: {sentence!r}")
        if len(self) == len(self._rows):  # full: double the rows
            self._rows = np.concatenate([self._rows, np.empty((max(8, len(self)), self.dim))])
        self._rows[len(self)] = v
        self._row_of[sentence] = len(self._row_of)

    def embed_batch(self, sentences: Sequence[str]) -> np.ndarray:
        """The stored rows of the sentences, stacked; an unknown one raises MissingEmbeddingError."""
        try:
            rows = [self._row_of[sentence] for sentence in sentences]
        except KeyError as exc:
            raise MissingEmbeddingError(exc.args[0]) from None
        return self._rows[rows] if rows else np.zeros((0, self.dim))

    def embed(self, sentence: str) -> np.ndarray:
        return self.embed_batch([sentence])[0]

    def items(self):
        """(sentence, row) pairs in the order they were added."""
        return zip(self._row_of, self._rows)


def save_dump(store: EmbeddingStore, path) -> None:
    """Write a store as a text dump (atomically); floats use shortest round-trip decimals."""
    with atomic_write(path) as fh:
        fh.write(f"dim={store.dim}\n")
        for sentence, row in store.items():
            fh.write(f"{sentence}\t{' '.join(map(repr, row.tolist()))}\n")


def load_dump(path) -> EmbeddingStore:
    """The store a dump holds; :class:`ParseError` names the first bad line, as a row-by-row load would.

    Each line's columns and value count are checked as its values go through ``float`` into one
    float64 buffer; finiteness and repeated sentences are then checked over the rows read.
    """
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
    sentences, values, bad = [], array.array("d"), None
    for line_no, line in lines:
        parts = line.split("\t")
        if len(parts) != 2:
            bad = line_no, "expected '<sentence>\\t<floats>'"
            break
        fields = parts[1].split()
        if len(fields) != dim:
            bad = line_no, f"expected {dim} values, got {len(fields)}"
            break
        try:
            values.extend(map(float, fields))
        except ValueError:
            bad = line_no, "non-numeric embedding value"
            break
        sentences.append(parts[0])
    rows = np.frombuffer(values, dtype=np.float64)[: len(sentences) * dim].reshape(-1, dim)
    row_of = dict(zip(sentences, range(len(sentences))))
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all() or len(row_of) < len(sentences):
        seen = set()
        for i, sentence in enumerate(sentences):
            if not finite[i] or sentence in seen:
                message = "vector holds NaN or Inf" if not finite[i] else f"duplicate sentence in store: {sentence!r}"
                bad = next(itertools.islice(read_lines(path), i + 1, None))[0], message  # the header is line 0
                break
            seen.add(sentence)
    if bad:
        raise ParseError(path, *bad)
    store._row_of, store._rows = row_of, rows
    return store
