"""Seeds trained in lockstep: each seed ends exactly where training it alone ends."""

import numpy as np
import pytest

import sentsig.objectives
from sentsig.encoder import ToyEncoder, build_vocab
from sentsig.errors import InvalidInputError
from sentsig.numstat import make_rng
from sentsig.objectives import (PIPELINES, IndexedExamples, MultiSchedule, TrainConfig,
                                lockstep_groups, run_pipeline)
from sentsig.synth import make_definition_corpus, make_nli_corpus

SEEDS = (3, 11, 4)


def _world():
    """Corpora whose batches are ragged: two length buckets, neither a multiple of the batch size."""
    rng = make_rng(61)
    world = dict(n_topics=4, words_per_topic=10)
    nli = (make_nli_corpus(rng, 37, sentence_len=3, **world)
           + make_nli_corpus(rng, 22, sentence_len=8, **world))
    defs = (make_definition_corpus(rng, sentence_len=3, per_word=1, **world)
            + make_definition_corpus(rng, sentence_len=7, per_word=1, **world))
    texts = ([e.premise for e in nli] + [e.hypothesis for e in nli]
             + [e.definition for e in defs] + [e.word for e in defs])
    vocab = build_vocab(texts)
    return IndexedExamples.nli(nli, vocab), IndexedExamples.definitions(defs, vocab), vocab


def _config(tied):
    return TrainConfig(epochs=2, batch_size=5, bucket_width=3, base_lr=0.05, tied_head=tied,
                       lr_decay="linear")


def _assert_same_result(together, alone):
    assert len(together.stage_steps) == len(alone.stage_steps)
    for got, want in zip(together.stage_steps, alone.stage_steps):
        assert got == want  # stream, loss and lr of every step, exactly
    assert together.params.keys() == alone.params.keys()
    for name, want in alone.params.items():
        np.testing.assert_array_equal(together.params[name], want, err_msg=name)


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
@pytest.mark.parametrize("method", ["sbert", "defsent", "s+d", "d+s", "multi"])
def test_each_seed_matches_training_it_alone(method, pooling, tied):
    nli, defs, vocab = _world()
    encoders = [ToyEncoder.create(vocab, 4, pooling, seed=seed) for seed in SEEDS]
    together = run_pipeline(method, encoders, _config(tied), nli, defs, MultiSchedule(3, 2), seeds=SEEDS)
    for seed, encoder, result in zip(SEEDS, encoders, together):
        assert encoder.table is result.params["table"]
        alone_encoder = ToyEncoder.create(vocab, 4, pooling, seed=seed)
        [alone] = run_pipeline(method, [alone_encoder], _config(tied), nli, defs, MultiSchedule(3, 2),
                               seeds=[seed])
        assert alone_encoder.table is alone.params["table"]
        _assert_same_result(result, alone)


def test_lockstep_batches_are_ragged_and_count_every_seed(monkeypatch):
    # the corpus above does give the seeds batches of different sizes at one step
    nli, defs, vocab = _world()
    calls = []
    for name in ("nli_loss_and_grads", "def_loss_and_grads"):
        def recording(batch, pooling, params, counts, real=getattr(sentsig.objectives, name)):
            calls.append((len(batch), list(counts)))
            return real(batch, pooling, params, counts)
        monkeypatch.setattr(sentsig.objectives, name, recording)
    encoders = [ToyEncoder.create(vocab, 4, "mean", seed=seed) for seed in SEEDS]
    run_pipeline("multi", encoders, TrainConfig(epochs=2, batch_size=5, bucket_width=3), nli, defs,
                 MultiSchedule(3, 2), seeds=SEEDS)
    assert calls and all(size == sum(counts) and len(counts) == len(SEEDS) for size, counts in calls)
    assert any(len(set(counts)) > 1 for _, counts in calls)


def test_encoders_must_share_vocabulary_and_pooling():
    nli, _, vocab = _world()
    encoders = [ToyEncoder.create(vocab, 4, "mean", seed=0), ToyEncoder.create(vocab, 4, "max", seed=1)]
    with pytest.raises(InvalidInputError, match="one vocabulary"):
        run_pipeline("sbert", encoders, TrainConfig(), nli, seeds=[0, 1])


def test_lockstep_groups_fit_their_tables_in_the_budget():
    assert lockstep_groups([5, 6, 7], 1000, 16) == [[5, 6, 7]]
    dim = 2 * sentsig.objectives.LOCKSTEP_BYTES // (5 * 1024 * 8)  # a table is 2/5 of the budget
    assert lockstep_groups(list(range(5)), 1024, dim) == [[0, 1], [2, 3], [4]]
    assert lockstep_groups([5, 6], 20_000, 128) == [[5], [6]]  # one table is over the budget


@pytest.mark.parametrize("method", list(PIPELINES))
def test_each_method_builds_one_optimizer_per_call(monkeypatch, method):
    # every stage trains in the one Adam, and each seed's arrays are views of
    # its parameter buffer (test_combiner checks that a stage still trains as
    # it would with a fresh optimizer)
    nli, defs, vocab = _world()
    built = []
    class CountingAdam(sentsig.objectives.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)
    monkeypatch.setattr(sentsig.objectives, "Adam", CountingAdam)
    encoders = [ToyEncoder.create(vocab, 4, "mean", seed=seed) for seed in SEEDS]
    results = run_pipeline(method, encoders, _config(False), nli, defs, seeds=SEEDS)
    [optimizer] = built
    assert len(results[0].stage_steps) == len(PIPELINES[method])
    for result in results:
        for array in result.params.values():
            assert array.base is optimizer.params["table"].base  # a view, not a copy
