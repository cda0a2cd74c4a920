"""The two supervision objectives as trainable losses with analytic gradients.

The NLI objective classifies a sentence pair from the composed feature
``[u; v; |u - v|]`` with a 3-way softmax head.  The definition objective
predicts a headword from the pooled embedding of its definition sentence
through a vocabulary-sized prediction layer, whose weights are tied to the
embedding table by default.

Both objectives backpropagate into the encoder's embedding table through the
configured pooling.  Training is a pure function of (data order, seed,
config): repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import DefinitionExample, NliExample
from .corpus import tokenize  # noqa: F401  not called here, but bench/tracer.py wraps it under this name
from .encoder import (CLS_INDEX, MODEL_DTYPE, ScatterTerms, TokenCache, TokenIndex, ToyEncoder, Vocabulary,
                      initial_table, pool_backward, pool_forward)
from .errors import InvalidInputError
from .numstat import make_rng, mean_cross_entropies, softmax


@dataclass
class TrainConfig:
    batch_size: int = 16
    epochs: int = 1
    base_lr: float = 1e-3  # toy-table scale; transformer fine-tuning uses ~1e-6
    seed: int = 0
    tied_head: bool = True
    nli_cycle: int = 19  # a multi stage's NLI steps per cycle
    def_cycle: int = 1  # and its definition steps after them

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.epochs < 0:
            raise InvalidInputError("epochs must be >= 0")
        # Adam overflows or steps by NaN outside this range
        if not 0.0 < self.base_lr < math.inf:
            raise InvalidInputError("base_lr must be positive and finite")
        if self.nli_cycle < 1 or self.def_cycle < 1:
            raise InvalidInputError("schedule steps per cycle must be positive")


class IndexedExamples:
    """Training examples as token indices, built once and batched with :meth:`take`.

    An example has ``sides`` texts: an NLI pair its premise and hypothesis,
    a definition its definition sentence.  ``texts`` holds every example's
    first side, then every example's second side (side ``s`` of example
    ``i`` is text ``s·n + i``), so one pooling call embeds every side of a
    batch.  ``golds`` holds each example's class: its NLI label index, or
    its headword's vocabulary index (-1 if absent).
    """

    def __init__(self, texts: TokenIndex, golds: np.ndarray, vocab: Vocabulary, sides: int):
        self.texts = texts
        self.golds = golds
        self.vocab = vocab
        self.sides = sides

    @classmethod
    def nli(cls, examples: list[NliExample], vocab: Vocabulary,
            cache: TokenCache | None = None) -> "IndexedExamples":
        """Index NLI ``examples`` through ``cache`` (a fresh one by default)."""
        texts = [ex.premise for ex in examples] + [ex.hypothesis for ex in examples]
        golds = np.array([ex.label_index for ex in examples], dtype=np.intp)
        return cls((cache or TokenCache()).index(texts, vocab), golds, vocab, 2)

    @classmethod
    def definitions(cls, examples: list[DefinitionExample], vocab: Vocabulary,
                    cache: TokenCache | None = None) -> "IndexedExamples":
        """Index definition ``examples``; a gold is the index of its headword's token."""
        cache = cache or TokenCache()
        # a headword has no whitespace, so it has one token or none
        heads = [tokens[0] if tokens else "" for tokens in cache.tokens([ex.word for ex in examples])]
        golds = np.array([vocab.index(word) if word in vocab else -1 for word in heads], dtype=np.intp)
        texts = cache.index([ex.definition for ex in examples], vocab)
        return cls(texts, golds, vocab, 1)

    def __len__(self) -> int:
        return self.golds.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        """Batching length of each example: its longest side's token count."""
        return self.texts.lengths.reshape(self.sides, -1).max(axis=0)

    def take(self, rows: np.ndarray) -> "IndexedExamples":
        """The examples at ``rows``, in that order, with every side of each."""
        texts = self.texts.take((np.arange(self.sides)[:, None] * len(self) + rows).ravel())
        return IndexedExamples(texts, self.golds[rows], self.vocab, self.sides)


@dataclass
class StepRecord:
    stream: str  # "nli" or "def"
    loss: float
    lr: float


@dataclass
class TrainResult:
    """One seed's trained model and what each stage of its training did.

    ``params`` holds the seed's named arrays (``table``, ``nli_W``,
    ``nli_b``, ``def_W``, ``def_bias``, those its method trains) as views
    of the optimizer's parameter buffer; ``stage_steps`` holds each stage's
    step records.
    """

    params: dict[str, np.ndarray]
    stage_steps: list[list[StepRecord]] = field(default_factory=list)


def stream_pattern(steps: Sequence[StepRecord]) -> list[tuple[str, int]]:
    """Run-length encoding of the step streams, e.g. [("nli", 19), ("def", 1)]."""
    pattern: list[tuple[str, int]] = []
    for rec in steps:
        if pattern and pattern[-1][0] == rec.stream:
            pattern[-1] = (rec.stream, pattern[-1][1] + 1)
        else:
            pattern.append((rec.stream, 1))
    return pattern


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _per_seed(batch: IndexedExamples, n_seeds: int, table: np.ndarray, counts) -> np.ndarray:
    """Each seed's row bounds in a loss call's batch; one seed takes the whole batch by default."""
    m = len(batch)
    counts = [m] if counts is None else [int(c) for c in counts]
    if len(counts) != n_seeds or min(counts) < 1 or sum(counts) != m:
        raise InvalidInputError("each seed needs a nonempty share of the batch")
    if table.shape[0] != n_seeds * len(batch.vocab):
        raise InvalidInputError(
            f"the table needs {n_seeds} x {len(batch.vocab)} rows, has {table.shape[0]}")
    return np.cumsum([0, *counts])


def _softmax_heads(X: np.ndarray, W: np.ndarray, b: np.ndarray, golds: np.ndarray,
                   bounds: np.ndarray) -> tuple:
    """The softmax classifier both losses put over their features, seed by seed.

    Seed k's n_k rows ``bounds[k]:bounds[k + 1]`` of the features X (B x f)
    go through its weights W[k] (classes x f) and its bias b[k]; a row-wise
    softmax of the logits gives P, and G = (P - onehot(golds)) / n_k, so every
    gradient made from G is a mean.  Returns (each seed's mean cross-entropy,
    G, dX = G W, db), db[k] being the column sums of seed k's rows of G (the
    bias gradient), all in X's dtype.  The weights' gradient is each loss's
    own: a dense product for NLI, a :class:`TableGradient` for the definition head.
    """
    m = X.shape[0]
    blocks = list(enumerate(zip(bounds[:-1], bounds[1:])))
    logits = np.empty((m, W.shape[1]), X.dtype)
    for k, (lo, hi) in blocks:
        np.matmul(X[lo:hi], W[k].T, out=logits[lo:hi])
        logits[lo:hi] += b[k]
    G = softmax(logits, out=logits)  # P now; G after the loss is read
    losses = mean_cross_entropies(G, golds, bounds.tolist())
    G[np.arange(m), golds] -= 1.0
    db = np.empty_like(b)
    dX = np.empty_like(X)
    for k, (lo, hi) in blocks:
        G[lo:hi] /= int(hi - lo)  # a Python int divides float32 in float32
        np.sum(G[lo:hi], axis=0, out=db[k])
        np.matmul(G[lo:hi], W[k], out=dX[lo:hi])
    return losses, G, dX, db


class TableGradient:
    """The gradient of a stacked (seeds·V, d) table, made a range of rows at a time.

    Seed k's block of V rows is G_k^T S_k + the pooling's terms, summed in
    that order: ``head`` = (G, S) holds the softmax gradients (means, see
    :func:`_softmax_heads`) and pooled rows of every seed's examples, which
    ``bounds`` splits per seed for the head products.  Without ``head``
    the sum starts at +0.0 (a table that only the pooling reaches), and
    without ``terms`` (a :class:`ScatterTerms`) it is the head product alone
    (the weights of an untied head).  :meth:`fill` makes any range of rows,
    so nothing table-sized is held; ``np.asarray`` makes the whole gradient,
    in the dtype of the head's or the terms' values.
    """

    def __init__(self, shape: tuple[int, int], bounds: np.ndarray,
                 head: tuple[np.ndarray, np.ndarray] | None = None, terms: ScatterTerms | None = None):
        self.shape = shape
        self.bounds = bounds
        self.head = head
        self.terms = terms
        self.n_words = shape[0] // (len(bounds) - 1)
        self.dtype = (terms.values if head is None else head[1]).dtype

    def fill(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write rows ``lo:hi`` of the gradient into ``out`` (hi - lo, d)."""
        n = self.n_words
        blocks = [(k, max(lo, k * n), min(hi, (k + 1) * n)) for k in range(lo // n, (hi - 1) // n + 1)]
        if self.head is None:
            out[...] = 0.0
        else:
            for k, a, b in blocks:
                self._head_rows(k, a - k * n, b - k * n, out[a - lo : b - lo])
        if self.terms is not None:
            self.terms.add_to(out, lo)

    def _head_rows(self, k: int, r0: int, r1: int, out: np.ndarray) -> None:
        """Rows ``r0:r1`` of G_k^T S_k, rounded as the product of the whole block rounds them."""
        G, S = self.head
        rows = slice(self.bounds[k], self.bounds[k + 1])
        if r1 - r0 > 1:
            np.matmul(G[rows, r0:r1].T, S[rows], out=out)
        else:  # a one-row product goes through gemv, which rounds unlike gemm
            a = min(r0, G.shape[1] - 2)
            out[...] = (G[rows, a : a + 2].T @ S[rows])[r0 - a]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, self.dtype)
        self.fill(0, self.shape[0], out)
        return out if dtype is None else out.astype(dtype)


def nli_loss_and_grads(batch: IndexedExamples, pooling: str, params: dict[str, np.ndarray],
                       counts: Sequence[int] | None = None):
    """Each seed's mean cross-entropy over its examples, and the gradients.

    ``params`` holds the seeds' parameters stacked as :class:`Adam` holds
    them: ``table`` (seeds·V, d), ``nli_W`` (seeds, 3, 3d) and ``nli_b``
    (seeds, 3); other entries are ignored.  The batch holds
    ``counts[k]`` examples of seed k, seed 0's first, each indexing its own
    seed's rows of the table (one seed takes the whole batch by default).

    One pooling call embeds premises and hypotheses as U and V (B x d); the
    feature F = [U; V; |U - V|] (B x 3d) goes through each seed's head
    (:func:`_softmax_heads`), which gives G = (P - onehot(gold)) / n_k, the
    bias gradient and G W for F.  The gradient of W is G^T F, and the pooling's
    scatter terms route F's back into the table.  The absolute-value feature
    uses subgradient 0 at exact zeros.  Pooling, the softmax and the scatter
    run once for all seeds and the head products on each seed's own rows,
    so each seed's loss and gradients are those of its examples alone.  The
    result is the list of losses and the gradients keyed like ``params``:
    arrays for the heads and a :class:`TableGradient` for the table.
    """
    if not len(batch):
        raise InvalidInputError("empty NLI batch")
    table, W, b = params["table"], params["nli_W"], params["nli_b"]
    bounds = _per_seed(batch, W.shape[0], table, counts)
    m, d = len(batch), table.shape[1]
    if W.shape[1:] != (3, 3 * d):
        raise InvalidInputError(f"head weights {W.shape[1:]} do not fit feature dim {3 * d}")
    pooled, argmax_rows = pool_forward(table, pooling, batch.texts)
    U, V = pooled[:m], pooled[m:]
    diff = U - V
    F = np.hstack([U, V, np.abs(diff)])
    losses, G, dF, db = _softmax_heads(F, W, b, batch.golds, bounds)
    grads = {"nli_W": np.empty_like(W), "nli_b": db}
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(G[lo:hi].T, F[lo:hi], out=grads["nli_W"][k])
    dabs = np.sign(diff) * dF[:, 2 * d :]
    dpooled = np.empty_like(pooled)
    np.add(dF[:, :d], dabs, out=dpooled[:m])
    np.subtract(dF[:, d : 2 * d], dabs, out=dpooled[m:])
    grads["table"] = TableGradient(table.shape, bounds,
                                   terms=pool_backward(pooling, batch.texts, argmax_rows, dpooled))
    return losses, grads


def def_loss_and_grads(batch: IndexedExamples, pooling: str, params: dict[str, np.ndarray],
                       counts: Sequence[int] | None = None):
    """Each seed's mean cross-entropy of headword prediction, and the gradients.

    ``params`` holds ``table`` (seeds·V, d), ``def_bias`` (seeds, V) and,
    for an untied head, ``def_W`` (seeds·V, d); without ``def_W`` the head
    is tied to the table.  ``counts`` and the result are as for
    :func:`nli_loss_and_grads`; ``def_W``'s gradient is a
    :class:`TableGradient` too.

    The head runs once per batch: the pooled definitions, stacked into
    S (B x d), go through each seed's head (:func:`_softmax_heads`), which
    gives G = (P - onehot(gold)) / n_k, the bias gradient and G W for S.  The
    weights' gradient is G^T S, and the pooling's scatter terms route S's
    back into the table.  Every headword must be a
    vocabulary entry.  With a tied head the table gradient sums the
    output-layer path and then the encoder path.
    """
    if not len(batch):
        raise InvalidInputError("empty definition batch")
    if batch.golds.min() < 0:
        raise InvalidInputError("a headword of the batch is not in the vocabulary")
    table, bias = params["table"], params["def_bias"]
    tied = "def_W" not in params
    bounds = _per_seed(batch, bias.shape[0], table, counts)
    (n_seeds, n_words), d = bias.shape, table.shape[1]
    weights = (table if tied else params["def_W"]).reshape(n_seeds, n_words, d)
    S, argmax_rows = pool_forward(table, pooling, batch.texts)
    losses, G, dS, db = _softmax_heads(S, weights, bias, batch.golds, bounds)
    grads = {"def_bias": db}
    terms = pool_backward(pooling, batch.texts, argmax_rows, dS)
    if tied:
        grads["table"] = TableGradient(table.shape, bounds, (G, S), terms)
    else:
        grads["table"] = TableGradient(table.shape, bounds, terms=terms)
        grads["def_W"] = TableGradient(table.shape, bounds, (G, S))
    return losses, grads


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction over flat buffers of parameters and moments.

    The parameters, given by name and shape, are laid out one after another
    in that order in three flat buffers made zeroed up front: ``params``,
    ``m`` and ``v`` hold views of each one's slices, and callers write the
    initial values into ``params`` and read the trained ones there.

    A call to :meth:`step` touches only the parameters named in ``grads``
    (multi-task streams update disjoint heads), and each parameter keeps its
    own step counter for bias correction.  A gradient is an array shaped
    like its parameter or a :class:`TableGradient`, which is made chunk by
    chunk: there is no gradient buffer.  A parameter updates in chunks of
    whole rows along its first axis, at most ``CHUNK`` entries or one row;
    each chunk's gradient is written into one chunk-sized scratch and its
    temporaries into another, so a step allocates nothing table-sized.

    The buffers, the scratch and so every update have the ``dtype`` given
    (training's is float32, :data:`~sentsig.encoder.MODEL_DTYPE`).  ``m`` and
    ``v`` hold Kingma & Ba's (2015) moments as the running sums m̃ = m / (1 -
    BETA1) and ṽ = v / (1 - BETA2), so their update lr·m̂ / (√v̂ + EPS) is
    c1·m̃ / (√ṽ + EPS / c2) (their §2, end), c2 = √((1 - BETA2) / (1 - BETA2^t))
    and c1 = lr·(1 - BETA1) / ((1 - BETA1^t)·c2) being Python floats, which
    keep float32 in float32: 10 elementwise passes a chunk, equal to the
    textbook update up to rounding.  A step that overflows leaves inf or NaN
    in the parameters without a numpy warning, for callers' checks to report.

    A moment entry that gets no gradient decays by its beta each step, and
    below its dtype's ``tiny`` the decay of the smallest subnormals rounds
    back to themselves: the entry never reaches 0, and every later step does
    slow subnormal arithmetic on it.  So every ``FLUSH_EVERY``-th step of a
    parameter zeroes its moment entries below ``tiny``, whose updates are below
    ``tiny / EPS`` times the learning rate: nothing against a parameter not near 0.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    CHUNK = 1 << 16  # elements per pass: a chunk of the five arrays stays in cache
    FLUSH_EVERY = 1000  # steps of a parameter between flushes of its subnormal moments

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype=np.float64):
        ends = np.cumsum([0, *map(math.prod, shapes.values())]).tolist()
        self._starts = dict(zip(shapes, ends))
        self._flat = [np.zeros(ends[-1], dtype) for _ in range(3)]  # parameters, then both moments
        self.params, self.m, self.v = (
            {name: flat[a:b].reshape(shapes[name]) for name, a, b in zip(shapes, ends, ends[1:])}
            for flat in self._flat)
        rows = [math.prod(shape[1:]) for shape in shapes.values()]  # entries per row
        self._scratch = np.empty((2, max([min(ends[-1], self.CHUNK), *rows])), dtype)  # gradient, temporaries
        self.t = {k: 0 for k in shapes}

    def reset(self) -> None:
        """Zero the moments and step counts in place: each parameter's next step is a first step."""
        for flat in self._flat[1:]:
            flat[...] = 0.0
        self.t = dict.fromkeys(self.t, 0)

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, grads: dict[str, np.ndarray | TableGradient], lr: float) -> None:
        for name, g in grads.items():
            shape = self.params[name].shape
            if g.shape != shape:
                raise InvalidInputError(
                    f"gradient shape {g.shape} does not match parameter {name} {shape}")
            t = self.t[name] = self.t[name] + 1
            c2 = math.sqrt((1.0 - self.BETA2) / (1.0 - self.BETA2 ** t))
            c1 = lr * (1.0 - self.BETA1) / ((1.0 - self.BETA1 ** t) * c2)
            start, row = self._starts[name], math.prod(shape[1:])
            n_rows = shape[0] if shape else 1
            per_chunk = max(1, self.CHUNK // row)
            for r0 in range(0, n_rows, per_chunk):
                r1 = min(r0 + per_chunk, n_rows)
                out = self._scratch[0, : (r1 - r0) * row]
                if isinstance(g, TableGradient):
                    g.fill(r0, r1, out.reshape(r1 - r0, row))
                else:
                    out[...] = g.reshape(-1)[r0 * row : r1 * row]
                self._update(slice(start + r0 * row, start + r1 * row), t, c1, self.EPS / c2)

    def _update(self, sl: slice, t: int, c1: float, eps: float) -> None:
        p, m, v = (flat[sl] for flat in self._flat)
        g, s = self._scratch[0, : sl.stop - sl.start], self._scratch[1, : sl.stop - sl.start]
        m *= self.BETA1
        m += g
        v *= self.BETA2
        np.square(g, out=s)
        v += s
        np.sqrt(v, out=s)
        s += eps
        np.divide(m, s, out=s)
        s *= c1
        p -= s
        if t % self.FLUSH_EVERY == 0:
            for moment in (m, v):
                moment[np.abs(moment) < np.finfo(moment.dtype).tiny] = 0.0


WARMUP_FRACTION = 0.10  # of a stage's steps, as SBERT warms up (Reimers & Gurevych 2019)


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr over the first ceil(WARMUP_FRACTION * total) steps, then base_lr."""
    if not 1 <= step <= total_steps:
        raise InvalidInputError(f"step {step} outside [1, {total_steps}]")
    warmup_steps = math.ceil(WARMUP_FRACTION * total_steps)
    return base_lr * step / warmup_steps if step <= warmup_steps else base_lr


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

# tokens of example length per batching bucket; the benchmark's step counts
# assume that each of its corpora fits in one bucket
BUCKET_WIDTH = 8


def smart_batches(lengths: np.ndarray, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Length-bucketed batches of example rows in seeded-random order; every row appears once.

    Examples are grouped into token-length buckets ``BUCKET_WIDTH`` wide and
    each batch is drawn from a single bucket, so in-batch length spread
    stays below the bucket width.
    """
    if not len(lengths):
        raise InvalidInputError("no examples to batch")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    keys = np.asarray(lengths) // BUCKET_WIDTH
    batches: list[np.ndarray] = []
    for key in np.flatnonzero(np.bincount(keys)):
        rows = np.flatnonzero(keys == key)
        shuffled = rows[rng.permutation(len(rows))]
        batches.extend(shuffled[start : start + batch_size]
                       for start in range(0, len(shuffled), batch_size))
    batch_order = rng.permutation(len(batches))
    return [batches[j] for j in batch_order]


def batches_per_epoch(lengths: np.ndarray, config: TrainConfig) -> int:
    """Batch count per epoch; fixed by bucket sizes, independent of shuffling."""
    counts = np.bincount(np.asarray(lengths) // BUCKET_WIDTH)
    return sum(math.ceil(int(n) / config.batch_size) for n in counts)


class BatchStream:
    """Endless stream of batches, as example rows of ``data``; rewinds with a fresh shuffle when exhausted."""

    def __init__(self, data, config: TrainConfig, rng: np.random.Generator):
        if not len(data):
            raise InvalidInputError("empty example stream")
        self.lengths = data.lengths
        self.config = config
        self.rng = rng
        self.batches_per_pass = batches_per_epoch(self.lengths, config)
        self._queue: list[np.ndarray] = []

    def next_rows(self) -> np.ndarray:
        if not self._queue:
            self._queue = list(reversed(smart_batches(self.lengths, self.config.batch_size, self.rng)))
        return self._queue.pop()


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def _drop_oov_definitions(data: IndexedExamples) -> IndexedExamples:
    kept = data.take(np.flatnonzero(data.golds >= 0))
    if not kept:
        raise InvalidInputError("no definition examples with in-vocabulary headwords")
    return kept


def _lockstep_batch(data, rows: list[np.ndarray], n_words: int):
    """The seeds' batches as one, seed by seed: seed k's texts index table k of a stack."""
    batch = data.take(np.concatenate(rows))
    texts = batch.texts
    bases = np.repeat(np.arange(len(rows)) * n_words, [len(r) for r in rows])
    bases = np.tile(bases, batch.sides)
    texts.ids += np.repeat(bases, texts.lengths).astype(texts.ids.dtype)
    texts.cls = bases + CLS_INDEX
    return batch


LOCKSTEP_BYTES = 1 << 22  # seeds train in lockstep while their tables together fit in 4 MiB


def lockstep_groups(seeds: Sequence[int], n_words: int, dim: int) -> list[list[int]]:
    """``seeds`` in order, cut into the groups to train in lockstep.

    A group holds as many seeds as fit their (``n_words``, ``dim``) tables
    of :data:`~sentsig.encoder.MODEL_DTYPE` in ``LOCKSTEP_BYTES``, and at
    least one.  Lockstep saves each step's
    fixed costs, which dominate only while the tables are small; each seed
    in a group holds three table-sized buffers while the group trains (six
    with an untied head): parameters and both Adam moments, in which the
    initial tables are drawn or copied.
    """
    if dim < 1:
        raise InvalidInputError("embedding dimension must be >= 1")
    size = max(1, LOCKSTEP_BYTES // (n_words * dim * MODEL_DTYPE.itemsize))
    return [list(seeds[lo : lo + size]) for lo in range(0, len(seeds), size)]


# each training method's stages, in order: an sbert stage trains on the NLI
# stream, a defsent stage on the definition stream and a multi stage on both
PIPELINES = {
    "sbert": ("sbert",),
    "defsent": ("defsent",),
    "s+d": ("sbert", "defsent"),
    "d+s": ("defsent", "sbert"),
    "multi": ("multi",),
}


def method_datasets(method: str) -> tuple[bool, bool]:
    """(needs NLI data, needs definitions) of training ``method``."""
    stages = PIPELINES.get(method)
    if stages is None:
        raise InvalidInputError(f"unknown training method {method!r}")
    return any(stage != "defsent" for stage in stages), any(stage != "sbert" for stage in stages)


def run_pipeline(method: str, encoders: Sequence[ToyEncoder], config: TrainConfig,
                 nli_data: IndexedExamples | None = None, def_data: IndexedExamples | None = None,
                 *, seeds: Sequence[int]) -> list[TrainResult]:
    """Fine-tune each encoder by ``method``, the :data:`PIPELINES` stages in order, in lockstep.

    One :class:`Adam` holds the parameters that any stage trains, stacked
    over the seeds, in :data:`~sentsig.encoder.MODEL_DTYPE` (float32):
    ``nli_W``, ``nli_b``, ``table``, ``def_W`` and ``def_bias``, those the
    method uses.  The encoders' tables become views of its parameter
    buffer, which gets an encoder's table copied in (and rounded) or, if it
    has none, the :func:`~sentsig.encoder.initial_table` of its
    seed drawn in.  Each stage starts as a fresh optimizer would: the
    moments and step counts are zeroed in place, and each seed's streams
    get a fresh rng seeded with its entry of ``seeds`` (``config.seed`` is
    not read).  A step touches only the parameters of its stream, so a
    stage starts from the table the stage before finished with and leaves
    that stage's head as it was.

    Each dataset a stage trains on is a stream of batches with its own
    head, reshuffled when it is exhausted.  With both streams each cycle
    runs ``config.nli_cycle`` NLI steps followed by ``config.def_cycle``
    definition steps; a single stream has a cycle of length 1.  A stage's
    step count (epochs x batches per epoch of its first stream) is rounded
    up to whole cycles.  The datasets must be
    indexed for the encoders, which share one vocabulary, pooling and dim.

    Every seed takes the same stream and learning rate at each step.  A step
    joins the seeds' batches into one, which one loss call pools and scores
    over the stacked (seeds·V, d) table, and one Adam step updates every
    seed; each seed's arrays and step records are exactly those of training
    it alone.  Training holds three table-sized buffers per seed and no
    other: parameters and both moments (six with an untied head); a table's
    gradient is made chunk by chunk inside the Adam step
    (:class:`TableGradient`), and :func:`lockstep_groups` bounds the seeds
    trained together.
    """
    uses_nli, uses_def = method_datasets(method)
    if uses_nli and not nli_data:
        raise InvalidInputError(f"{method} requires an NLI dataset")
    if uses_def and not def_data:
        raise InvalidInputError(f"{method} requires a definition dataset")
    if not encoders or len(seeds) != len(encoders):
        raise InvalidInputError("training needs one seed per encoder")
    first = encoders[0]
    if any(e.vocab is not first.vocab or (e.pooling, e.dim) != (first.pooling, first.dim) for e in encoders):
        raise InvalidInputError("seeds trained together need one vocabulary, pooling and dim")
    for data in (nli_data if uses_nli else None, def_data if uses_def else None):
        # checked once here; a loss checks only its table's size
        if data is not None and data.vocab is not first.vocab:
            raise InvalidInputError("data was indexed for another vocabulary")
    nli = ("nli", nli_data, nli_loss_and_grads)
    defs = ("def", _drop_oov_definitions(def_data), def_loss_and_grads) if uses_def else None
    streams = {"sbert": [nli], "defsent": [defs], "multi": [nli, defs]}  # (name, data, loss function)

    n_seeds, n_words, d = len(encoders), len(first.vocab), first.dim
    shapes = {}
    if uses_nli:
        shapes["nli_W"] = (n_seeds, 3, 3 * d)
        shapes["nli_b"] = (n_seeds, 3)
    shapes["table"] = (n_seeds * n_words, d)
    if uses_def:
        if not config.tied_head:
            shapes["def_W"] = (n_seeds * n_words, d)
        shapes["def_bias"] = (n_seeds, n_words)
    optimizer = Adam(shapes, MODEL_DTYPE)
    results = []
    for k, (encoder, seed) in enumerate(zip(encoders, seeds)):
        # seed k's rows of a (seeds·V, d) array, its entry of the others
        arrays = {name: p[k * n_words : (k + 1) * n_words] if name in ("table", "def_W") else p[k]
                  for name, p in optimizer.params.items()}
        if encoder.table is None:
            initial_table(arrays["table"], seed)
        else:
            arrays["table"][...] = encoder.table
        encoder.table = arrays["table"]
        results.append(TrainResult(arrays))
    for i, stage in enumerate(PIPELINES[method]):
        if i:
            optimizer.reset()
        records = _run_lockstep(first.pooling, n_words, optimizer, streams[stage],
                                [make_rng(seed) for seed in seeds], config)
        for result, steps in zip(results, records):
            result.stage_steps.append(steps)
    return results


def _run_lockstep(pooling: str, n_words: int, optimizer: Adam, streams: list, rngs: list,
                  config: TrainConfig) -> list[list[StepRecord]]:
    """Run one stage of :func:`run_pipeline`; each seed's step records."""
    cycle = [(name, [BatchStream(data, config, rng) for rng in rngs], data, loss_and_grads)
             for name, data, loss_and_grads in streams]  # (name, each seed's batches, ...)
    nominal = config.epochs * cycle[0][1][0].batches_per_pass
    if len(cycle) == 2:
        cycle = [cycle[0]] * config.nli_cycle + [cycle[1]] * config.def_cycle
    total_steps = math.ceil(nominal / len(cycle)) * len(cycle)
    records: list[list[StepRecord]] = [[] for _ in rngs]
    for step in range(1, total_steps + 1):
        lr = lr_at(step, total_steps, config.base_lr)
        name, batches, data, loss_and_grads = cycle[(step - 1) % len(cycle)]
        rows = [seed_batches.next_rows() for seed_batches in batches]
        losses, grads = loss_and_grads(_lockstep_batch(data, rows, n_words), pooling,
                                       optimizer.params, [len(r) for r in rows])
        optimizer.step(grads, lr)
        del grads  # the softmax gradient it holds goes before the next loss call
        for seed_records, loss in zip(records, losses):
            seed_records.append(StepRecord(name, loss, lr))
    return records
