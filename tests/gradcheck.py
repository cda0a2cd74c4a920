"""Shared finite-difference gradient checking used by unit and acceptance tests."""

import numpy as np

from sentsig.corpus import DefinitionExample, NliExample, tokenize
from sentsig.encoder import MAX_TOKENS, ToyEncoder, Vocabulary
from sentsig.objectives import (
    IndexedExamples,
    def_loss_and_grads,
    nli_loss_and_grads,
)

# reject instances closer than this to an |u-v| kink or a max-pool argmax flip
_MARGIN = 1e-3


def finite_difference_worst_error(loss_fn, params, grads, h=1e-5):
    """Largest relative error between analytic and central-difference gradients."""
    worst = 0.0
    for name, p in params.items():
        g = grads[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            loss_plus = loss_fn()
            p[ix] = orig - h
            loss_minus = loss_fn()
            p[ix] = orig
            fd = (loss_plus - loss_minus) / (2 * h)
            a = float(g[ix])
            if abs(a) < 1e-10 and abs(fd) < 1e-10:
                continue
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd)))
    return worst


def word_ids(encoder, text):
    """Word indices of one text, truncated at ``MAX_TOKENS``."""
    return np.array([encoder.vocab.index(t) for t in tokenize(text)[:MAX_TOKENS]])


def pool_one(encoder, words):
    """Reference pooling of one text: its vector and, for max, each coordinate's argmax position."""
    content = encoder.table[words]
    if encoder.pooling == "mean":
        return content.mean(axis=0), None
    return content.max(axis=0), content.argmax(axis=0)


def unpool_one(encoder, words, argmax, grad_out, table_grad):
    """Reference backward of :func:`pool_one`, added into ``table_grad``."""
    if encoder.pooling == "mean":
        np.add.at(table_grad, words, grad_out / words.shape[0])
    else:
        np.add.at(table_grad, (words[argmax], np.arange(grad_out.shape[0])), grad_out)


_STACKED = ("nli_W", "nli_b", "def_bias")  # the losses stack these over the seeds on a new axis


def loss_one(loss_fn, batch, pooling, params):
    """(loss, gradients) of one seed: the stacked loss over views of its named arrays ``params``.

    ``params`` holds the seed's ``table`` and head arrays, unstacked; the
    gradients are keyed as the losses key them, made whole as arrays and
    shaped like the arrays they belong to.
    """
    stacked = {k: a[None] if k in _STACKED else a for k, a in params.items()}
    [loss], grads = loss_fn(batch, pooling, stacked)
    return loss, {k: np.asarray(g).reshape(params[k].shape) for k, g in grads.items()}


def indexed(batch, encoder):
    """A list of NLI or definition examples indexed for the encoder, as the losses take it."""
    build = IndexedExamples.nli if isinstance(batch[0], NliExample) else IndexedExamples.definitions
    return build(batch, encoder.vocab)


def _sentence(rng, words, max_len=4):
    n = int(rng.integers(1, max_len + 1))
    return " ".join(words[i] for i in rng.integers(0, len(words), size=n))


def _max_margins_ok(encoder, text):
    """No coordinate may have a nonzero top-2 gap smaller than the margin."""
    rows = encoder.table[word_ids(encoder, text)]
    if rows.shape[0] < 2:
        return True
    part = np.sort(rows, axis=0)
    gaps = part[-1] - part[-2]
    return not np.any((gaps > 0) & (gaps < _MARGIN))


def _abs_feature_ok(encoder, premise, hypothesis):
    u, _ = pool_one(encoder, word_ids(encoder, premise))
    v, _ = pool_one(encoder, word_ids(encoder, hypothesis))
    gap = np.abs(u - v)
    return not np.any((gap > 0) & (gap < _MARGIN))


def random_nli_instance(rng, pooling, d_max=8, v_max=20, batch_max=4):
    """Random encoder, batch and named arrays (table and head), resampled away from subgradient kinks."""
    labels = ("entailment", "contradiction", "neutral")
    while True:
        d = int(rng.integers(2, d_max + 1))
        n_words = int(rng.integers(4, v_max - 1))
        words = [f"w{i}" for i in range(n_words)]
        vocab = Vocabulary(words)
        table = rng.uniform(-1.0, 1.0, size=(len(vocab), d))
        encoder = ToyEncoder(vocab, table, pooling=pooling)
        batch = [
            NliExample(_sentence(rng, words), _sentence(rng, words),
                       labels[int(rng.integers(3))])
            for _ in range(int(rng.integers(1, batch_max + 1)))
        ]
        ok = True
        for ex in batch:
            if pooling == "max" and not (_max_margins_ok(encoder, ex.premise)
                                         and _max_margins_ok(encoder, ex.hypothesis)):
                ok = False
                break
            if not _abs_feature_ok(encoder, ex.premise, ex.hypothesis):
                ok = False
                break
        if not ok:
            continue
        params = {"table": encoder.table, "nli_W": rng.normal(size=(3, 3 * d)), "nli_b": rng.normal(size=3)}
        return encoder, batch, params


def random_def_instance(rng, pooling, d_max=8, v_max=20, batch_max=4):
    """Random encoder, batch and named arrays (table and bias of the head tied to it), away from max-pool kinks."""
    while True:
        d = int(rng.integers(2, d_max + 1))
        n_words = int(rng.integers(4, v_max - 1))
        words = [f"w{i}" for i in range(n_words)]
        vocab = Vocabulary(words)
        table = rng.uniform(-1.0, 1.0, size=(len(vocab), d))
        encoder = ToyEncoder(vocab, table, pooling=pooling)
        batch = [
            DefinitionExample(words[int(rng.integers(n_words))], _sentence(rng, words))
            for _ in range(int(rng.integers(1, batch_max + 1)))
        ]
        if pooling == "max" and not all(
                _max_margins_ok(encoder, ex.definition) for ex in batch):
            continue
        return encoder, batch, {"table": encoder.table, "def_bias": rng.normal(size=len(vocab))}


def check_nli_instance(rng, pooling, h=1e-5):
    encoder, batch, params = random_nli_instance(rng, pooling)
    batch = indexed(batch, encoder)
    _, grads = loss_one(nli_loss_and_grads, batch, pooling, params)
    return finite_difference_worst_error(
        lambda: loss_one(nli_loss_and_grads, batch, pooling, params)[0], params, grads, h=h)


def check_def_instance(rng, pooling, h=1e-5):
    encoder, batch, params = random_def_instance(rng, pooling)
    batch = indexed(batch, encoder)
    _, grads = loss_one(def_loss_and_grads, batch, pooling, params)
    return finite_difference_worst_error(
        lambda: loss_one(def_loss_and_grads, batch, pooling, params)[0], params, grads, h=h)
