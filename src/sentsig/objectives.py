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

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import DefinitionExample, NliExample, tokenize
from .encoder import MAX_TOKENS, TokenIndex, ToyEncoder, Vocabulary
from .errors import InvalidInputError
from .numstat import make_rng, mean_cross_entropy, softmax

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 16
    epochs: int = 1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    base_lr: float = 1e-3  # toy-table scale; transformer fine-tuning uses ~1e-6
    warmup_fraction: float = 0.10
    seed: int = 0
    smart_batching: bool = True
    bucket_width: int = 8
    lr_decay: str = "constant"  # or "linear": ramp down to 0 after warmup
    tied_head: bool = True
    head_bias: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.bucket_width < 1:
            raise InvalidInputError("bucket_width must be >= 1")
        if self.epochs < 0:
            raise InvalidInputError("epochs must be >= 0")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise InvalidInputError("warmup_fraction must be in [0, 1)")
        if self.base_lr <= 0.0:
            raise InvalidInputError("base_lr must be positive")
        if self.lr_decay not in ("constant", "linear"):
            raise InvalidInputError(f"unknown lr_decay {self.lr_decay!r}")


@dataclass
class MultiSchedule:
    nli_steps_per_cycle: int = 19
    def_steps_per_cycle: int = 1

    def __post_init__(self):
        if self.nli_steps_per_cycle < 1 or self.def_steps_per_cycle < 1:
            raise InvalidInputError("schedule steps per cycle must be positive")


class IndexedNli:
    """NLI examples as token indices, built once and batched with :meth:`take`.

    ``texts`` holds the premises followed by the hypotheses (premise ``i`` is
    text ``i``, its hypothesis text ``n + i``), so one pooling call embeds
    both sides of a batch.
    """

    def __init__(self, texts: TokenIndex, labels: np.ndarray, vocab: Vocabulary, max_tokens: int):
        self.texts = texts
        self.labels = labels
        self.vocab = vocab
        self.max_tokens = max_tokens

    @classmethod
    def build(cls, examples: list[NliExample], vocab: Vocabulary, max_tokens: int = MAX_TOKENS,
              tokens: dict[str, tuple[str, ...]] | None = None) -> "IndexedNli":
        """Index ``examples``; ``tokens`` maps texts to their tokens when already made."""
        texts = [ex.premise for ex in examples] + [ex.hypothesis for ex in examples]
        labels = np.array([ex.label_index for ex in examples], dtype=np.intp)
        return cls(TokenIndex.build(_token_lists(texts, tokens), vocab, max_tokens),
                   labels, vocab, max_tokens)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        """Batching length of each example: the longer side's token count."""
        n = len(self)
        return np.maximum(self.texts.lengths[:n], self.texts.lengths[n:])

    def take(self, rows: np.ndarray) -> "IndexedNli":
        texts = self.texts.take(np.concatenate([rows, rows + len(self)]))
        return IndexedNli(texts, self.labels[rows], self.vocab, self.max_tokens)


class IndexedDefinitions:
    """Definition examples as token indices plus each headword's vocabulary index (-1 if absent)."""

    def __init__(self, texts: TokenIndex, golds: np.ndarray, vocab: Vocabulary, max_tokens: int):
        self.texts = texts
        self.golds = golds
        self.vocab = vocab
        self.max_tokens = max_tokens

    @classmethod
    def build(cls, examples: list[DefinitionExample], vocab: Vocabulary,
              max_tokens: int = MAX_TOKENS,
              tokens: dict[str, tuple[str, ...]] | None = None) -> "IndexedDefinitions":
        """Index ``examples``; ``tokens`` maps texts to their tokens when already made."""
        texts = [ex.definition for ex in examples]
        golds = np.array([vocab.index(ex.word) if ex.word in vocab else -1 for ex in examples],
                         dtype=np.intp)
        return cls(TokenIndex.build(_token_lists(texts, tokens), vocab, max_tokens),
                   golds, vocab, max_tokens)

    def __len__(self) -> int:
        return self.golds.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return self.texts.lengths

    def take(self, rows: np.ndarray) -> "IndexedDefinitions":
        return IndexedDefinitions(self.texts.take(rows), self.golds[rows], self.vocab,
                                  self.max_tokens)


def _token_lists(texts: list[str], tokens: dict[str, tuple[str, ...]] | None) -> list:
    """Each text's tokens: from ``tokens`` if given, else each distinct text tokenized once."""
    if tokens is None:
        tokens = {text: tokenize(text) for text in dict.fromkeys(texts)}
    return [tokens[text] for text in texts]


def _indexed(data, encoder: ToyEncoder, kind):
    """``data`` as ``kind`` indexed for the encoder; example lists are indexed here."""
    if isinstance(data, kind):
        return data
    return kind.build(data, encoder.vocab, encoder.max_tokens)


def _check_indexed(batch, encoder: ToyEncoder) -> None:
    if batch.vocab is not encoder.vocab or batch.max_tokens != encoder.max_tokens:
        raise InvalidInputError("batch was indexed for another vocabulary or truncation length")


class NliHead:
    """3-way softmax classifier over the composed pair feature (3d inputs)."""

    def __init__(self, W: np.ndarray, b: np.ndarray | None):
        if W.shape[0] != 3 or W.shape[1] % 3 != 0:
            raise InvalidInputError(f"NLI head weights must be (3, 3d), got {W.shape}")
        if b is not None and b.shape != (3,):
            raise InvalidInputError(f"NLI head bias must be (3,), got {b.shape}")
        self.W = W
        self.b = b

    @classmethod
    def create(cls, dim: int, bias: bool = True) -> "NliHead":
        return cls(np.zeros((3, 3 * dim)), np.zeros(3) if bias else None)


class WordPredictionHead:
    """Vocabulary-sized prediction layer; ``tied`` aliases the embedding table."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, tied: bool):
        if weights.shape[0] != bias.shape[0]:
            raise InvalidInputError("prediction weights and bias disagree on vocabulary size")
        self.weights = weights
        self.bias = bias
        self.tied = tied

    @classmethod
    def create(cls, encoder: ToyEncoder, tied: bool = True) -> "WordPredictionHead":
        vocab_size = len(encoder.vocab)
        if tied:
            # alias, not a copy: in-place optimizer updates keep them identical
            return cls(encoder.table, np.zeros(vocab_size), tied=True)
        return cls(np.zeros((vocab_size, encoder.dim)), np.zeros(vocab_size), tied=False)


@dataclass
class StepRecord:
    stream: str  # "nli" or "def"
    loss: float
    lr: float


@dataclass
class TrainResult:
    encoder: ToyEncoder
    nli_head: NliHead | None = None
    def_head: WordPredictionHead | None = None
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def losses(self) -> list[float]:
        return [s.loss for s in self.steps]

    def stream_pattern(self) -> list[tuple[str, int]]:
        """Run-length encoding of the step streams, e.g. [("nli", 19), ("def", 1)]."""
        pattern: list[tuple[str, int]] = []
        for rec in self.steps:
            if pattern and pattern[-1][0] == rec.stream:
                pattern[-1] = (rec.stream, pattern[-1][1] + 1)
            else:
                pattern.append((rec.stream, 1))
        return pattern


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def nli_loss_and_grads(batch: IndexedNli, encoder: ToyEncoder, head: NliHead):
    """Mean cross-entropy over the batch and gradients for table, W and b.

    One pooling call embeds premises and hypotheses as U and V (B x d); the
    feature F = [U; V; |U - V|] (B x 3d) goes through the head and a
    row-wise softmax gives G = P - onehot(gold).  The gradients are G^T F for
    W, the column sums of G for b and G W for F, which one scatter routes
    back into the table.  The absolute-value feature uses subgradient 0 at
    exact zeros.
    """
    if not len(batch):
        raise InvalidInputError("empty NLI batch")
    _check_indexed(batch, encoder)
    d = encoder.dim
    if head.W.shape[1] != 3 * d:
        raise InvalidInputError(f"head expects feature dim {head.W.shape[1]}, got {3 * d}")
    m = len(batch)
    pooled, argmax_rows = encoder.pool_forward(batch.texts)
    U, V = pooled[:m], pooled[m:]
    diff = U - V
    F = np.hstack([U, V, np.abs(diff)])
    logits = F @ head.W.T
    if head.b is not None:
        logits += head.b
    G = softmax(logits)  # P now; P - onehot(gold) after the loss is read
    loss = mean_cross_entropy(G, batch.labels)
    G[np.arange(m), batch.labels] -= 1.0
    dF = G @ head.W
    sign = np.sign(diff)
    dpooled = np.vstack([dF[:, :d] + sign * dF[:, 2 * d :],
                         dF[:, d : 2 * d] - sign * dF[:, 2 * d :]])
    table_grad = np.zeros_like(encoder.table)
    encoder.pool_backward(batch.texts, argmax_rows, dpooled, table_grad)
    table_grad /= m
    grads = {"table": table_grad, "nli_W": G.T @ F / m}
    if head.b is not None:
        grads["nli_b"] = G.sum(axis=0) / m
    return loss, grads


def def_forward(s: np.ndarray, head: WordPredictionHead) -> np.ndarray:
    """Logits over the vocabulary: weights s + bias.

    ``s`` is one pooled embedding (d,) or a batch of them as rows (B, d); the
    logits are (V,) or (B, V).
    """
    if s.ndim not in (1, 2) or head.weights.shape[1] != s.shape[-1]:
        raise InvalidInputError(
            f"head expects embeddings of dim {head.weights.shape[1]}, got shape {s.shape}")
    return s @ head.weights.T + head.bias


def def_loss_and_grads(batch: IndexedDefinitions, encoder: ToyEncoder,
                       head: WordPredictionHead):
    """Mean cross-entropy of headword prediction and gradients.

    The head runs once per batch: the pooled definitions are stacked into
    S (B x d), a row-wise softmax of the logits gives G = P - onehot(gold),
    and the gradients are G^T S for the weights, the column sums of G for the
    bias and G W for S, which one scatter routes back into the table.  Every
    headword must be a vocabulary entry.  With a tied head the table
    gradient accumulates both the encoder path and the output-layer path.
    """
    if not len(batch):
        raise InvalidInputError("empty definition batch")
    _check_indexed(batch, encoder)
    if batch.golds.min() < 0:
        raise InvalidInputError("a headword of the batch is not in the vocabulary")
    m = len(batch)
    S, argmax_rows = encoder.pool_forward(batch.texts)
    G = softmax(def_forward(S, head))  # P now; P - onehot(gold) after the loss is read
    loss = mean_cross_entropy(G, batch.golds)
    G[np.arange(m), batch.golds] -= 1.0
    out_grad = G.T @ S
    bias_grad = G.sum(axis=0)
    dS = G @ head.weights
    # tied: the encoder path accumulates onto the output-layer gradient of the same table
    table_grad = out_grad if head.tied else np.zeros_like(encoder.table)
    encoder.pool_backward(batch.texts, argmax_rows, dS, table_grad)
    table_grad /= m
    bias_grad /= m
    if head.tied:
        return loss, {"table": table_grad, "def_bias": bias_grad}
    out_grad /= m
    return loss, {"table": table_grad, "def_W": out_grad, "def_bias": bias_grad}


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction; updates are applied in place.

    A call to :meth:`step` touches only the parameters named in ``grads``
    (multi-task streams update disjoint heads); each parameter keeps its own
    step counter for bias correction.  The update is dense and allocates
    nothing: its temporaries live in one scratch buffer per parameter.
    """

    def __init__(self, params: dict[str, np.ndarray], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t = {k: 0 for k in params}
        self._scratch = {k: np.empty_like(p) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, g in grads.items():
            p = self.params[name]
            if g.shape != p.shape:
                raise InvalidInputError(
                    f"gradient shape {g.shape} does not match parameter {name} {p.shape}")
            self.t[name] += 1
            t = self.t[name]
            m = self.m[name]
            v = self.v[name]
            s = self._scratch[name]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, g, out=s)
            s *= 1.0 - self.beta2
            v += s
            # p -= lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - beta1^t)
            # and v_hat = v / (1 - beta2^t)
            np.divide(v, 1.0 - self.beta2 ** t, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, s, out=s)
            s *= lr / (1.0 - self.beta1 ** t)
            p -= s


def lr_at(step: int, total_steps: int, base_lr: float, warmup_fraction: float = 0.10,
          decay: str = "constant") -> float:
    """Linear warmup to base_lr over the first ceil(fraction * total) steps.

    After warmup the rate is constant by default; ``decay="linear"`` ramps it
    down to 0 at the final step instead.
    """
    if not 1 <= step <= total_steps:
        raise InvalidInputError(f"step {step} outside [1, {total_steps}]")
    warmup_steps = math.ceil(warmup_fraction * total_steps)
    if step <= warmup_steps:
        return base_lr * step / warmup_steps
    if decay == "constant":
        return base_lr
    remaining = total_steps - warmup_steps
    return base_lr * (total_steps - step) / remaining


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def smart_batches(lengths: np.ndarray, batch_size: int, rng: np.random.Generator,
                  bucket_width: int = 8) -> list[np.ndarray]:
    """Length-bucketed batches of example rows in seeded-random order; every row appears once.

    Examples are grouped into token-length buckets of the given width and each
    batch is drawn from a single bucket, so in-batch length spread never
    exceeds the bucket width.
    """
    if not len(lengths):
        raise InvalidInputError("no examples to batch")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    keys = np.asarray(lengths) // bucket_width
    batches: list[np.ndarray] = []
    for key in np.flatnonzero(np.bincount(keys)):
        rows = np.flatnonzero(keys == key)
        shuffled = rows[rng.permutation(len(rows))]
        batches.extend(shuffled[start : start + batch_size]
                       for start in range(0, len(shuffled), batch_size))
    batch_order = rng.permutation(len(batches))
    return [batches[j] for j in batch_order]


def _plain_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


def _epoch_batches(lengths: np.ndarray, config: TrainConfig,
                   rng: np.random.Generator) -> list[np.ndarray]:
    if config.smart_batching:
        return smart_batches(lengths, config.batch_size, rng, config.bucket_width)
    return _plain_batches(len(lengths), config.batch_size, rng)


def batches_per_epoch(lengths: np.ndarray, config: TrainConfig) -> int:
    """Batch count per epoch; fixed by bucket sizes, independent of shuffling."""
    if config.smart_batching:
        counts = np.bincount(np.asarray(lengths) // config.bucket_width)
        return sum(math.ceil(int(n) / config.batch_size) for n in counts)
    return math.ceil(len(lengths) / config.batch_size)


class BatchStream:
    """Endless stream of batches; rewinds with a fresh shuffle when exhausted."""

    def __init__(self, data, config: TrainConfig, rng: np.random.Generator):
        if not len(data):
            raise InvalidInputError("empty example stream")
        self.data = data
        self.lengths = data.lengths
        self.config = config
        self.rng = rng
        self.batches_per_pass = batches_per_epoch(self.lengths, config)
        self._queue: list[np.ndarray] = []

    def next_batch(self):
        if not self._queue:
            self._queue = list(reversed(_epoch_batches(self.lengths, self.config, self.rng)))
        return self.data.take(self._queue.pop())


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def _drop_oov_definitions(data: IndexedDefinitions) -> IndexedDefinitions:
    kept = data.take(np.flatnonzero(data.golds >= 0))
    dropped = len(data) - len(kept)
    if dropped:
        logger.info("dropped %d definition examples with out-of-vocabulary headwords", dropped)
    if not kept:
        raise InvalidInputError("no definition examples with in-vocabulary headwords")
    return kept


def train(encoder: ToyEncoder, config: TrainConfig,
          nli_data: IndexedNli | list[NliExample] | None = None,
          def_data: IndexedDefinitions | list[DefinitionExample] | None = None,
          schedule: MultiSchedule | None = None) -> TrainResult:
    """Fine-tune the encoder on the NLI and/or the definition objective.

    Each dataset given is a stream of batches with its own head; the streams
    share one optimizer and one seeded rng, and a stream reshuffles when it
    is exhausted.  With both streams each cycle runs
    ``schedule.nli_steps_per_cycle`` NLI steps followed by
    ``schedule.def_steps_per_cycle`` definition steps; a single stream has a
    cycle of length 1.  The step count (epochs x batches per epoch of the
    first stream) is rounded up to whole cycles.  Datasets given as example
    lists are indexed for the encoder first.
    """
    if nli_data is None and def_data is None:
        raise InvalidInputError("training needs an NLI or a definition dataset")
    schedule = schedule or MultiSchedule()
    rng = make_rng(config.seed)
    result = TrainResult(encoder=encoder)
    params = {"table": encoder.table}
    streams = []  # (stream name, batches, loss function, head)
    if nli_data is not None:
        head = result.nli_head = NliHead.create(encoder.dim, bias=config.head_bias)
        params["nli_W"] = head.W
        if head.b is not None:
            params["nli_b"] = head.b
        data = _indexed(nli_data, encoder, IndexedNli)
        streams.append(("nli", BatchStream(data, config, rng), nli_loss_and_grads, head))
    if def_data is not None:
        head = result.def_head = WordPredictionHead.create(encoder, tied=config.tied_head)
        params["def_bias"] = head.bias
        if not head.tied:
            params["def_W"] = head.weights
        data = _drop_oov_definitions(_indexed(def_data, encoder, IndexedDefinitions))
        streams.append(("def", BatchStream(data, config, rng), def_loss_and_grads, head))
    optimizer = Adam(params, config.beta1, config.beta2, config.eps)

    cycle = streams
    if len(streams) == 2:
        cycle = ([streams[0]] * schedule.nli_steps_per_cycle
                 + [streams[1]] * schedule.def_steps_per_cycle)
    nominal = config.epochs * streams[0][1].batches_per_pass
    total_steps = math.ceil(nominal / len(cycle)) * len(cycle)
    for step in range(1, total_steps + 1):
        lr = lr_at(step, total_steps, config.base_lr, config.warmup_fraction,
                   config.lr_decay)
        name, stream, loss_and_grads, head = cycle[(step - 1) % len(cycle)]
        loss, grads = loss_and_grads(stream.next_batch(), encoder, head)
        optimizer.step(grads, lr)
        result.steps.append(StepRecord(name, loss, lr))
    return result
