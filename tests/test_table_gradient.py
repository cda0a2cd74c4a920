"""Table gradients made chunk by chunk inside the Adam step, against the dense reference."""

import numpy as np
import pytest

import oracles
from generators import worker_threads
from sentsig.corpus import DefinitionExample, NliExample
from sentsig.encoder import Vocabulary, pool_backward, pool_forward
from sentsig.numstat import make_rng
from sentsig.objectives import (Adam, IndexedExamples, TableGradient, _lockstep_batch,
                                def_loss_and_grads, nli_loss_and_grads)

# a seed's block of the stacked table is 92 entries; at d >= 4 a one-row
# product (gemv) rounds unlike the product of the whole block (gemm)
N_WORDS, DIM, SEEDS = 23, 4, 3
# zeros of both signs among the factors, so sums and products reach signed zeros
VALUES = np.array([-0.0, 0.0, -0.0, 1.0, -0.5, 0.25, 2.0])
STREAMS = ["nli", "def-tied"]
POOLINGS = ["mean", "max"]


def assert_same_bits(actual, expected):
    """Equal values and equal signs, so a +0.0 for a -0.0 fails too."""
    np.testing.assert_array_equal(np.asarray(actual).view(np.int64), np.asarray(expected).view(np.int64))


def _data(rng, stream):
    """(examples indexed for a vocabulary of N_WORDS rows, their loss function)."""
    words = [f"w{i}" for i in range(N_WORDS - 2)]
    vocab = Vocabulary(words)

    def sentence():
        return " ".join(words[i] for i in rng.integers(0, len(words), size=int(rng.integers(1, 6))))

    if stream == "nli":
        labels = ("entailment", "neutral", "contradiction")
        return (IndexedExamples.nli([NliExample(sentence(), sentence(), labels[i % 3]) for i in range(30)],
                                    vocab), nli_loss_and_grads)
    return (IndexedExamples.definitions([DefinitionExample(words[int(rng.integers(len(words)))], sentence())
                                         for _ in range(30)], vocab), def_loss_and_grads)


def _values(rng, shape):
    """Random entries of which about three in seven are zeros of either sign."""
    return rng.choice(VALUES, size=shape) * rng.normal(size=shape)


def _params(rng, stream):
    """Stacked parameters of SEEDS seeds for the stream's loss."""
    params = {"table": _values(rng, (SEEDS * N_WORDS, DIM))}
    if stream == "nli":
        params["nli_W"] = _values(rng, (SEEDS, 3, 3 * DIM))
        params["nli_b"] = _values(rng, (SEEDS, 3))
    else:
        params["def_bias"] = _values(rng, (SEEDS, N_WORDS))
    return params


def _lockstep_batches(rng, data, steps):
    """Batches of the seeds in lockstep, each seed with its own example count (one of them 1)."""
    for _ in range(steps):
        counts = [int(c) for c in rng.permutation([1, 2, 4])]
        yield _lockstep_batch(data, [rng.integers(0, len(data), size=c) for c in counts], N_WORDS), counts


@pytest.mark.parametrize("pooling", POOLINGS)
@pytest.mark.parametrize("stream, workers", [(s, 0) for s in STREAMS] + [(s, 1) for s in STREAMS],
                         ids=STREAMS + [f"{s}-worker" for s in STREAMS])
def test_adam_on_streamed_gradients_matches_adam_on_dense_ones(monkeypatch, stream, workers, pooling):
    # chunks of 11 rows: a seed's block (23 rows) is no multiple of them, so
    # chunks end inside blocks, and one holds a single row of a block; with
    # the worker, every other chunk of a table (7 chunks) is filled and updated on it
    monkeypatch.setattr(Adam, "CHUNK", 11 * DIM + 1)
    rng = make_rng(71)
    data, loss = _data(rng, stream)
    initial = _params(rng, stream)
    streamed = Adam({name: p.shape for name, p in initial.items()})
    for name, p in initial.items():
        streamed.params[name][...] = p
    dense = oracles.ParamAdam({name: p.copy() for name, p in initial.items()})
    zeros = 0
    for batch, counts in _lockstep_batches(rng, data, 6):
        losses, grads = loss(batch, pooling, streamed.params, counts)
        dense_losses, dense_grads = loss(batch, pooling, dense.params, counts)
        assert losses == dense_losses
        assert type(grads["table"]) is TableGradient
        materialised = {name: np.asarray(g) for name, g in dense_grads.items()}
        zeros += sum(int((g == 0.0).sum()) for g in materialised.values())
        with worker_threads(workers, monkeypatch):
            streamed.step(grads, 0.1)
        dense.step(materialised, 0.1)
    assert zeros
    for name in initial:
        assert_same_bits(streamed.params[name], dense.params[name])
        assert_same_bits(streamed.m[name], dense.m[name])
        assert_same_bits(streamed.v[name], dense.v[name])


@pytest.mark.parametrize("pooling", POOLINGS)
@pytest.mark.parametrize("stream", STREAMS)
def test_any_row_range_fills_as_the_whole_gradient(stream, pooling):
    rng = make_rng(72)
    data, loss = _data(rng, stream)
    batch, counts = next(_lockstep_batches(rng, data, 1))
    _, grads = loss(batch, pooling, _params(rng, stream), counts)
    n_rows = SEEDS * N_WORDS
    for grad in (g for g in grads.values() if isinstance(g, TableGradient)):
        whole = np.asarray(grad)
        assert whole.shape == grad.shape == (n_rows, DIM)
        for lo in range(n_rows):
            for hi in range(lo + 1, min(lo + 13, n_rows) + 1):
                part = np.empty((hi - lo, DIM))
                grad.fill(lo, hi, part)
                assert_same_bits(part, whole[lo:hi])


@pytest.mark.parametrize("with_head", [True, False])
@pytest.mark.parametrize("pooling", POOLINGS)
def test_whole_gradient_matches_the_dense_reference(pooling, with_head):
    rng = make_rng(73)
    data, _ = _data(rng, "def-tied")
    for batch, counts in _lockstep_batches(rng, data, 5):
        bounds = np.cumsum([0, *counts])
        table = _values(rng, (SEEDS * N_WORDS, DIM))
        S, argmax_rows = pool_forward(table, pooling, batch.texts)
        head = (_values(rng, (len(batch), N_WORDS)), S) if with_head else None
        grad_out = _values(rng, S.shape)
        grad = TableGradient(table.shape, bounds, head,
                             pool_backward(pooling, batch.texts, argmax_rows, grad_out))
        assert_same_bits(grad, oracles.dense_table_gradient(table.shape, bounds, head, pooling,
                                                            batch.texts, argmax_rows, grad_out))
