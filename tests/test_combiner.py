"""Combination strategies: vector ops, combined providers, training pipelines."""

import math

import numpy as np
import pytest

from generators import fresh_encoder
from sentsig.combiner import CombinedProvider, combine_average, combine_concat
from sentsig.encoder import EmbeddingStore, ToyEncoder, build_vocab
from sentsig.errors import InvalidInputError
from sentsig.evalsuite import eval_sts
from sentsig.numstat import cosine, make_rng
from sentsig.objectives import PIPELINES, IndexedExamples, TrainConfig, run_pipeline
from sentsig.synth import make_definition_corpus, make_nli_corpus, make_sts_corpus


class TestCombineVectors:
    def test_average_of_identical(self):
        a = np.array([1.0, -2.0])
        np.testing.assert_array_equal(combine_average(a, a), a)

    def test_average_simple(self):
        np.testing.assert_array_equal(combine_average(np.array([1.0, 3.0]), np.array([3.0, 1.0])), [2, 2])

    def test_average_matches_arithmetic_oracle(self):
        rng = make_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=6), rng.normal(size=6)
            np.testing.assert_allclose(combine_average(a, b), [(x + y) / 2 for x, y in zip(a, b)],
                                       atol=1e-15)

    def test_average_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            combine_average(np.ones(2), np.ones(3))

    def test_concat_order_and_dim(self):
        np.testing.assert_array_equal(combine_concat(np.array([1.0, 2.0]), np.array([3.0])), [1, 2, 3])

    def test_block_dot_identity(self):
        rng = make_rng(2)
        a, b, c, d = (rng.normal(size=4) for _ in range(4))
        lhs = float(combine_concat(a, b) @ combine_concat(c, d))
        assert lhs == pytest.approx(float(a @ c) + float(b @ d), rel=1e-12)

    def test_cosine_of_concat_matches_block_formula(self):
        rng = make_rng(3)
        for _ in range(30):
            a, b, c, d = (rng.normal(size=5) for _ in range(4))
            [direct] = cosine([combine_concat(a, b)], [combine_concat(c, d)])
            dot = float(a @ c) + float(b @ d)
            norms = math.sqrt(float(a @ a) + float(b @ b)) * math.sqrt(float(c @ c) + float(d @ d))
            assert direct == pytest.approx(dot / norms, rel=1e-12)


def _store_pair(rng, n=12, dim=4):
    a = EmbeddingStore(dim, name="A")
    b = EmbeddingStore(dim, name="B")
    sentences = [f"sentence {i}" for i in range(n)]
    for s in sentences:
        a.add(s, rng.normal(size=dim))
        b.add(s, rng.normal(size=dim))
    return a, b, sentences


class TestCombinedProvider:
    def test_average_with_itself_is_identity(self):
        rng = make_rng(4)
        a, _, sentences = _store_pair(rng)
        combined = CombinedProvider("average", a, a)
        for s in sentences:
            np.testing.assert_array_equal(combined.embed(s), a.embed(s))

    def test_concat_with_itself_preserves_cosine(self):
        rng = make_rng(5)
        a, _, sentences = _store_pair(rng)
        combined = CombinedProvider("concat", a, a)
        first, second = sentences[:-1], sentences[1:]
        np.testing.assert_allclose(cosine(combined.embed_batch(first), combined.embed_batch(second)),
                                   cosine(a.embed_batch(first), a.embed_batch(second)), rtol=1e-12, atol=0)

    def test_concat_dims_add(self):
        rng = make_rng(6)
        a, b, sentences = _store_pair(rng)
        combined = CombinedProvider("concat", a, b)
        assert combined.dim == a.dim + b.dim
        for s in sentences:
            assert combined.embed(s).shape == (8,)

    @pytest.mark.parametrize("mode, combine", [("average", combine_average), ("concat", combine_concat)])
    def test_batch_rows_match_per_row_combination(self, mode, combine):
        rng = make_rng(7)
        a, b, sentences = _store_pair(rng)
        combined = CombinedProvider(mode, a, b)
        order = sentences[::-1] + sentences[:3]
        matrix = combined.embed_batch(order)
        assert matrix.shape == (len(order), combined.dim)
        for row, s in zip(matrix, order):
            np.testing.assert_array_equal(row, combine(a.embed(s), b.embed(s)))
        np.testing.assert_array_equal(combined.embed(order[0]), matrix[0])
        assert combined.embed_batch([]).shape == (0, combined.dim)

    def test_average_requires_equal_dims(self):
        a = EmbeddingStore(3, name="A")
        b = EmbeddingStore(4, name="B")
        with pytest.raises(InvalidInputError):
            CombinedProvider("average", a, b)

    def test_unknown_mode(self):
        a = EmbeddingStore(3)
        with pytest.raises(InvalidInputError):
            CombinedProvider("sum", a, a)


def _world(seed=0):
    rng = make_rng(seed)
    nli = make_nli_corpus(rng, 240, n_topics=4, words_per_topic=10, sentence_len=4)
    defs = make_definition_corpus(rng, n_topics=4, words_per_topic=10, sentence_len=4, per_word=1)
    texts = ([e.premise for e in nli] + [e.hypothesis for e in nli]
             + [e.definition for e in defs] + [e.word for e in defs])
    vocab = build_vocab(texts)
    return IndexedExamples.nli(nli, vocab), IndexedExamples.definitions(defs, vocab), vocab


class TestPipeline:
    def test_single_stage_equals_train_sbert(self):
        # the sbert method trains on the NLI data alone, whatever else it is given
        nli, defs, vocab = _world()
        config = TrainConfig(epochs=1)
        enc_a = fresh_encoder(vocab, 6, "mean", seed=3)
        run_pipeline("sbert", [enc_a], config, nli, defs, seeds=[3])
        enc_b = fresh_encoder(vocab, 6, "mean", seed=3)
        run_pipeline("sbert", [enc_b], config, nli, seeds=[3])
        np.testing.assert_array_equal(enc_a.table, enc_b.table)

    def test_sequential_stage_handoff_is_exact(self):
        nli, defs, vocab = _world()
        config = TrainConfig(epochs=1)
        enc_stage1 = fresh_encoder(vocab, 6, "mean", seed=1)
        [stage1] = run_pipeline("sbert", [enc_stage1], config, nli, seeds=[1])
        after_stage1 = enc_stage1.table.copy()

        enc_full = fresh_encoder(vocab, 6, "mean", seed=1)
        [result] = run_pipeline("s+d", [enc_full], config, nli, defs, seeds=[1])
        # stage 2 must have started from exactly the stage-1 parameters, with
        # the optimizer as fresh as a new one: replaying it from that state
        # reproduces the pipeline bit for bit
        enc_replay = ToyEncoder(enc_stage1.vocab, after_stage1.copy(), pooling="mean")
        [replay] = run_pipeline("defsent", [enc_replay], config, def_data=defs, seeds=[1])
        np.testing.assert_array_equal(enc_full.table, enc_replay.table)
        assert result.stage_steps == stage1.stage_steps + replay.stage_steps
        # and stage 2 leaves the stage-1 head as that stage left it
        for name, want in {**stage1.params, **replay.params}.items():
            np.testing.assert_array_equal(result.params[name], want, err_msg=name)

    def test_order_matters(self):
        nli, defs, vocab = _world()
        config = TrainConfig(epochs=1)
        enc_sd = fresh_encoder(vocab, 6, "mean", seed=2)
        run_pipeline("s+d", [enc_sd], config, nli, defs, seeds=[2])
        enc_ds = fresh_encoder(vocab, 6, "mean", seed=2)
        run_pipeline("d+s", [enc_ds], config, nli, defs, seeds=[2])
        assert not np.array_equal(enc_sd.table, enc_ds.table)

    def test_missing_dataset_rejected(self):
        _, defs, vocab = _world()
        enc = fresh_encoder(vocab, 6, "mean", seed=0)
        with pytest.raises(InvalidInputError):
            run_pipeline("sbert", [enc], TrainConfig(), nli_data=None, def_data=defs, seeds=[0])

    def test_multi_must_stand_alone(self):
        # multi trains both objectives in one stage; no method has it beside another stage
        assert all(stages == ("multi",) for stages in PIPELINES.values() if "multi" in stages)

    def test_method_keywords(self):
        assert PIPELINES["s+d"] == ("sbert", "defsent")
        assert PIPELINES["d+s"] == ("defsent", "sbert")
        assert PIPELINES["multi"] == ("multi",)
        _, defs, vocab = _world()
        with pytest.raises(InvalidInputError, match="unknown training method"):
            run_pipeline("average", [fresh_encoder(vocab, 6, "mean")], TrainConfig(), def_data=defs,
                         seeds=[0])

    def test_average_of_trained_pair_scores_like_components_on_self(self):
        # Average(P, P) must reproduce P's STS scores exactly
        rng = make_rng(7)
        sts = make_sts_corpus(rng, 60, n_topics=4, words_per_topic=10, sentence_len=4)
        nli, defs, vocab = _world()
        enc = fresh_encoder(vocab, 6, "mean", seed=5)
        run_pipeline("sbert", [enc], TrainConfig(epochs=1), nli, seeds=[5])
        single = eval_sts(enc, sts)
        doubled = eval_sts(CombinedProvider("average", enc, enc), sts)
        assert doubled == single
