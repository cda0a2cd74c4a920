"""Seeds trained in lockstep: each seed ends exactly where training it alone ends."""

import weakref

import numpy as np
import pytest

import sentsig.combiner
import sentsig.objectives
from sentsig.combiner import PipelineSpec, run_pipeline
from sentsig.encoder import ToyEncoder, build_vocab
from sentsig.errors import InvalidInputError
from sentsig.numstat import make_rng
from sentsig.objectives import (IndexedDefinitions, IndexedNli, MultiSchedule, TrainConfig, lockstep_groups,
                                train_seeds)
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
    return IndexedNli.build(nli, vocab), IndexedDefinitions.build(defs, vocab), vocab


def _config(tied):
    return TrainConfig(epochs=2, batch_size=5, bucket_width=3, base_lr=0.05, tied_head=tied,
                       lr_decay="linear")


def _assert_same_result(together, alone):
    np.testing.assert_array_equal(together.encoder.table, alone.encoder.table)
    assert len(together.stage_results) == len(alone.stage_results)
    for got, want in zip(together.stage_results, alone.stage_results):
        assert got.steps == want.steps  # stream, loss and lr of every step, exactly
        assert (got.nli_head is None) == (want.nli_head is None)
        if want.nli_head is not None:
            np.testing.assert_array_equal(got.nli_head.W, want.nli_head.W)
            np.testing.assert_array_equal(got.nli_head.b, want.nli_head.b)
        assert (got.def_head is None) == (want.def_head is None)
        if want.def_head is not None:
            assert got.def_head.tied == want.def_head.tied
            np.testing.assert_array_equal(got.def_head.bias, want.def_head.bias)
            np.testing.assert_array_equal(got.def_head.weights, want.def_head.weights)
            if got.def_head.tied:
                assert got.def_head.weights is together.encoder.table


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
@pytest.mark.parametrize("method", ["sbert", "defsent", "s+d", "d+s", "multi"])
def test_each_seed_matches_training_it_alone(method, pooling, tied):
    nli, defs, vocab = _world()
    spec = PipelineSpec.from_method(method, _config(tied), MultiSchedule(3, 2))
    encoders = [ToyEncoder.create(vocab, 4, pooling, seed=seed) for seed in SEEDS]
    together = run_pipeline(spec, encoders, nli, defs, seeds=SEEDS)
    for seed, result in zip(SEEDS, together):
        [alone] = run_pipeline(spec, [ToyEncoder.create(vocab, 4, pooling, seed=seed)], nli, defs,
                               seeds=[seed])
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
    train_seeds(encoders, SEEDS, TrainConfig(epochs=2, batch_size=5, bucket_width=3), nli, defs,
                MultiSchedule(3, 2))
    assert calls and all(size == sum(counts) and len(counts) == len(SEEDS) for size, counts in calls)
    assert any(len(set(counts)) > 1 for _, counts in calls)


def test_encoders_must_share_vocabulary_and_pooling():
    nli, _, vocab = _world()
    encoders = [ToyEncoder.create(vocab, 4, "mean", seed=0), ToyEncoder.create(vocab, 4, "max", seed=1)]
    with pytest.raises(InvalidInputError, match="one vocabulary"):
        train_seeds(encoders, [0, 1], TrainConfig(), nli)


def test_lockstep_groups_fit_their_tables_in_the_budget():
    assert lockstep_groups([5, 6, 7], 1000, 16) == [[5, 6, 7]]
    dim = 2 * sentsig.objectives.LOCKSTEP_BYTES // (5 * 1024 * 8)  # a table is 2/5 of the budget
    assert lockstep_groups(list(range(5)), 1024, dim) == [[0, 1], [2, 3], [4]]
    assert lockstep_groups([5, 6], 20_000, 128) == [[5], [6]]  # one table is over the budget


@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("method", ["s+d", "d+s"])
def test_a_stage_frees_the_parameter_buffer_of_the_stage_before(monkeypatch, method, tied):
    # the results of stage 1 live on through stage 2, but their heads hold
    # copies, and a tied head follows its encoder's table, so nothing keeps
    # the buffer that stage 1 trained in
    nli, defs, vocab = _world()
    buffers, alive_in_stage_2 = [], []
    def recording_train(encoders, *args, real=sentsig.combiner.train_seeds):
        results = real(encoders, *args)
        buffers.append(weakref.ref(encoders[0].table.base))
        return results
    monkeypatch.setattr(sentsig.combiner, "train_seeds", recording_train)
    for name in ("nli_loss_and_grads", "def_loss_and_grads"):
        def checking(*args, real=getattr(sentsig.objectives, name)):
            if len(buffers) == 1:
                alive_in_stage_2.append(buffers[0]() is not None)
            return real(*args)
        monkeypatch.setattr(sentsig.objectives, name, checking)
    spec = PipelineSpec.from_method(method, _config(tied))
    encoders = [ToyEncoder.create(vocab, 4, "mean", seed=seed) for seed in SEEDS]
    results = run_pipeline(spec, encoders, nli, defs, seeds=SEEDS)
    assert len(buffers) == 2 and alive_in_stage_2 and not any(alive_in_stage_2)
    assert buffers[1]() is not None  # the last stage's buffer holds the final tables
    for result in results:
        for stage in result.stage_results:
            if stage.def_head is not None and stage.def_head.tied:
                assert stage.def_head.weights is result.encoder.table
