"""Objectives, gradients, optimizer, schedules, batching and training loops."""

import math
import tracemalloc

import numpy as np
import pytest

from gradcheck import (
    check_def_instance,
    check_nli_instance,
    indexed,
    loss_one,
    pool_one,
    random_def_instance,
    random_nli_instance,
    unpool_one,
    word_ids,
)
from oracles import ParamAdam
from sentsig.corpus import DefinitionExample, NliExample, tokenize
from sentsig.encoder import ScatterTerms, ToyEncoder, Vocabulary, build_vocab
from sentsig.errors import InvalidInputError
from sentsig.numstat import make_rng, mean_cross_entropies, softmax
from sentsig.objectives import (
    Adam,
    BatchStream,
    IndexedExamples,
    MultiSchedule,
    StepRecord,
    TableGradient,
    TrainConfig,
    TrainResult,
    _drop_oov_definitions,
    _epoch_batches,
    batches_per_epoch,
    def_loss_and_grads,
    lr_at,
    nli_loss_and_grads,
    run_pipeline,
    smart_batches,
    stream_pattern,
)


def tiny_encoder(pooling="mean", dim=4, seed=0, words=("alpha", "beta", "gamma", "delta")):
    return ToyEncoder.create(Vocabulary(list(words)), dim, pooling, seed=seed)


def word_row_encoder(rows):
    """Mean-pooling encoder whose words w0, w1, ... have the given rows, so pooling "wi" gives row i."""
    rows = np.asarray(rows, dtype=np.float64)
    table = np.vstack([np.zeros((2, rows.shape[1])), rows])  # [CLS] and [UNK] first
    return ToyEncoder(Vocabulary([f"w{i}" for i in range(rows.shape[0])]), table, pooling="mean")


def zero_nli_params(encoder, bias=True):
    """The encoder's table and a zero NLI head, with a zero bias unless ``bias`` is false."""
    params = {"table": encoder.table, "nli_W": np.zeros((3, 3 * encoder.dim))}
    if bias:
        params["nli_b"] = np.zeros(3)
    return params


def zero_def_params(encoder, tied=True):
    """The encoder's table and a zero-bias head: tied to the table, or with zero weights of its own."""
    params = {"table": encoder.table, "def_bias": np.zeros(len(encoder.vocab))}
    if not tied:
        params["def_W"] = np.zeros((len(encoder.vocab), encoder.dim))
    return params


def nli_step(encoder, params, premise, hypothesis, label):
    """The batched kernel on a batch of one example."""
    return loss_one(nli_loss_and_grads, indexed([NliExample(premise, hypothesis, label)], encoder),
                    encoder.pooling, params)


class TestNliForward:
    """The kernel's features and logits, read off its gradients for a batch of one.

    With one example the W gradient is outer(P - onehot(gold), [u; v; |u-v|])
    and the b gradient is P - onehot(gold).
    """

    def test_equal_inputs_zero_abs_block(self):
        u = np.array([1.0, -2.0, 3.0])
        enc = word_row_encoder([u])
        _, grads = nli_step(enc, zero_nli_params(enc), "w0", "w0", "neutral")  # zero weights: P is uniform
        g = np.full(3, 1.0 / 3.0)
        g[2] -= 1.0
        np.testing.assert_array_equal(grads["nli_W"], np.outer(g, np.concatenate([u, u, np.zeros(3)])))

    def test_zero_weights_returns_bias(self):
        enc = word_row_encoder([np.ones(2), np.zeros(2)])
        params = {"table": enc.table, "nli_W": np.zeros((3, 6)), "nli_b": np.array([1.0, 2.0, 3.0])}
        loss, grads = nli_step(enc, params, "w0", "w1", "entailment")
        probs = softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(grads["nli_b"], probs - [1.0, 0.0, 0.0])
        assert loss == mean_cross_entropies(probs[None], np.array([0]), [0, 1])[0]

    def test_matches_explicit_loop_oracle(self):
        rng = make_rng(12)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u, v = rng.normal(size=d), rng.normal(size=d)
            W, b = rng.normal(size=(3, 3 * d)), rng.normal(size=3)
            f = list(u) + list(v) + [abs(a - c) for a, c in zip(u, v)]
            oracle = [sum(W[i][j] * f[j] for j in range(3 * d)) + b[i] for i in range(3)]
            enc = word_row_encoder([u, v])
            _, grads = nli_step(enc, {"table": enc.table, "nli_W": W, "nli_b": b}, "w0", "w1", "contradiction")
            g = softmax(np.array(oracle))
            g[1] -= 1.0
            np.testing.assert_allclose(grads["nli_b"], g, atol=1e-12)
            np.testing.assert_allclose(grads["nli_W"], np.outer(g, f), atol=1e-12)

    def test_dimension_mismatch(self):
        enc = word_row_encoder([np.ones(2)])
        params = {"table": enc.table, "nli_W": np.zeros((3, 9)), "nli_b": np.zeros(3)}  # a head for d=3
        with pytest.raises(InvalidInputError):
            nli_step(enc, params, "w0", "w0", "neutral")


def nli_loss_and_grads_loop(batch, encoder, params):
    """Reference: the per-example NLI step, one pooling, head and scatter per sentence."""
    d = encoder.dim
    W, b = params["nli_W"], params.get("nli_b")
    table_grad = np.zeros_like(encoder.table)
    w_grad = np.zeros_like(W)
    b_grad = np.zeros(3) if b is not None else None
    total = 0.0
    for ex in batch:
        idx_u = word_ids(encoder, ex.premise)
        idx_v = word_ids(encoder, ex.hypothesis)
        u, argmax_u = pool_one(encoder, idx_u)
        v, argmax_v = pool_one(encoder, idx_v)
        diff = u - v
        f = np.concatenate([u, v, np.abs(diff)])
        logits = W @ f
        if b is not None:
            logits = logits + b
        probs = softmax(logits)
        gold = ex.label_index
        total += mean_cross_entropies(probs[None], np.array([gold]), [0, 1])[0]
        g = probs.copy()
        g[gold] -= 1.0
        w_grad += np.outer(g, f)
        if b_grad is not None:
            b_grad += g
        df = W.T @ g
        sign = np.sign(diff)
        du = df[:d] + sign * df[2 * d :]
        dv = df[d : 2 * d] - sign * df[2 * d :]
        unpool_one(encoder, idx_u, argmax_u, du, table_grad)
        unpool_one(encoder, idx_v, argmax_v, dv, table_grad)
    m = len(batch)
    grads = {"table": table_grad / m, "nli_W": w_grad / m}
    if b_grad is not None:
        grads["nli_b"] = b_grad / m
    return total / m, grads


class TestNliLoss:
    def test_zero_head_gives_ln3(self):
        enc = tiny_encoder()
        batch = indexed([NliExample("alpha beta", "gamma", "contradiction")], enc)
        loss, _ = loss_one(nli_loss_and_grads, batch, enc.pooling, zero_nli_params(enc))
        assert loss == pytest.approx(math.log(3), rel=1e-14)

    def test_batch_duplication_keeps_mean(self):
        rng = make_rng(2)
        enc = tiny_encoder(seed=3)
        params = {"table": enc.table, "nli_W": rng.normal(size=(3, 12)), "nli_b": rng.normal(size=3)}
        batch = [NliExample("alpha", "beta gamma", "entailment"),
                 NliExample("delta delta", "alpha", "neutral")]
        loss_once, _ = loss_one(nli_loss_and_grads, indexed(batch, enc), enc.pooling, params)
        loss_twice, _ = loss_one(nli_loss_and_grads, indexed(batch * 2, enc), enc.pooling, params)
        assert loss_twice == pytest.approx(loss_once, rel=1e-14)

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_gradients_match_finite_differences(self, pooling):
        rng = make_rng(100)
        for _ in range(5):
            assert check_nli_instance(rng, pooling) < 1e-4

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_batched_kernel_matches_loop_oracle(self, pooling, bias):
        # One matmul sums the B outer products in another order than the loop,
        # and the scatter adds premises before hypotheses, so entries agree to
        # rtol 1e-12 except where the B terms cancel: there the rounding error
        # scales with the terms, so the absolute floor is 1e-13 of the
        # gradient's largest entry.
        rng = make_rng(301)
        for _ in range(10):
            enc, batch, params = random_nli_instance(rng, pooling, batch_max=9)
            if not bias:
                del params["nli_b"]
            loss, grads = loss_one(nli_loss_and_grads, indexed(batch, enc), pooling, params)
            ref_loss, ref_grads = nli_loss_and_grads_loop(batch, enc, params)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                np.testing.assert_allclose(grads[name], ref, rtol=1e-12,
                                           atol=1e-13 * np.abs(ref).max(), err_msg=name)

    def test_batch_indexed_for_another_vocabulary_rejected(self):
        # training checks each dataset's vocabulary once; a loss checks the table's size
        enc = tiny_encoder()
        example = [NliExample("alpha", "beta", "neutral")]
        with pytest.raises(InvalidInputError, match="another vocabulary"):
            run_pipeline("sbert", [enc], TrainConfig(), indexed(example, tiny_encoder(seed=1)), seeds=[0])
        smaller = indexed(example, tiny_encoder(words=("alpha", "beta")))
        with pytest.raises(InvalidInputError, match="table needs 1 x 4 rows, has 6"):
            loss_one(nli_loss_and_grads, smaller, enc.pooling, zero_nli_params(enc))


def def_loss_and_grads_loop(batch, encoder, params):
    """Reference: one softmax and one outer product per example."""
    tied = "def_W" not in params
    weights, bias = params["table" if tied else "def_W"], params["def_bias"]
    table_grad = np.zeros_like(encoder.table)
    out_grad = np.zeros_like(weights)
    bias_grad = np.zeros_like(bias)
    total = 0.0
    for ex in batch:
        gold = encoder.vocab.index(ex.word)
        idxs = word_ids(encoder, ex.definition)
        s, argmax = pool_one(encoder, idxs)
        probs = softmax(weights @ s + bias)
        total += mean_cross_entropies(probs[None], np.array([gold]), [0, 1])[0]
        g = probs.copy()
        g[gold] -= 1.0
        out_grad += np.outer(g, s)
        bias_grad += g
        unpool_one(encoder, idxs, argmax, weights.T @ g, table_grad)
    m = len(batch)
    if tied:
        return total / m, {"table": (table_grad + out_grad) / m, "def_bias": bias_grad / m}
    return total / m, {"table": table_grad / m, "def_W": out_grad / m, "def_bias": bias_grad / m}


class TestDefLoss:
    def test_symmetric_init_gives_ln_v(self):
        # two-class outcome: zero untied weights and bias make every logit equal
        vocab = Vocabulary(["yes", "no"])
        enc = ToyEncoder.create(vocab, 3, "mean", seed=0)
        batch = indexed([DefinitionExample("yes", "no no")], enc)
        loss, _ = loss_one(def_loss_and_grads, batch, enc.pooling, zero_def_params(enc, tied=False))
        assert loss == pytest.approx(math.log(4), rel=1e-14)

    def test_oov_headword_rejected(self):
        enc = tiny_encoder()
        with pytest.raises(InvalidInputError):
            loss_one(def_loss_and_grads, indexed([DefinitionExample("missing", "alpha beta")], enc),
                     enc.pooling, zero_def_params(enc))

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    @pytest.mark.parametrize("tied", [True, False])
    def test_gradients_match_finite_differences(self, pooling, tied):
        rng = make_rng(200)
        for _ in range(4):
            assert check_def_instance(rng, pooling, tied) < 1e-4

    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    @pytest.mark.parametrize("tied", [True, False])
    def test_batched_kernel_matches_loop_oracle(self, pooling, tied):
        # One matmul sums the B outer products in another order than the loop,
        # so entries agree to rtol 1e-12 except where the B terms cancel: there
        # the rounding error scales with the terms, so the absolute floor is
        # 1e-13 (about 450 ulp) of the gradient's largest entry.
        rng = make_rng(300)
        for _ in range(10):
            enc, batch, params = random_def_instance(rng, pooling, tied, batch_max=9)
            loss, grads = loss_one(def_loss_and_grads, indexed(batch, enc), pooling, params)
            ref_loss, ref_grads = def_loss_and_grads_loop(batch, enc, params)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                np.testing.assert_allclose(grads[name], ref, rtol=1e-12,
                                           atol=1e-13 * np.abs(ref).max(), err_msg=name)

    def test_loss_strictly_decreases_on_toy_dictionary(self):
        defs = [DefinitionExample(f"w{i}", f"mark{i} common filler words here") for i in range(5)]
        vocab = build_vocab([e.definition for e in defs] + [e.word for e in defs])
        enc = ToyEncoder.create(vocab, 6, "mean", seed=1)
        optimizer = adam_with({"table": enc.table, "def_bias": np.zeros((1, len(vocab)))})
        batch = indexed(defs, enc)
        losses = []
        for _ in range(100):
            [loss], grads = def_loss_and_grads(batch, "mean", optimizer.params)
            losses.append(loss)
            optimizer.step(grads, 0.05)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.1 * losses[0]


def random_table_gradient(rng, shape):
    """A one-seed :class:`TableGradient` with a head of three examples and scatter terms."""
    n_terms = int(rng.integers(1, 40))
    terms = ScatterTerms(rng.integers(0, shape[0], size=n_terms), rng.normal(size=(n_terms, shape[1])))
    head = (rng.normal(size=(3, shape[0])), rng.normal(size=(3, shape[1])))
    return TableGradient(shape, np.array([0, 3]), head, terms)


def adam_with(values, **kwargs):
    """An :class:`Adam` over parameters shaped like ``values``, holding their values."""
    optimizer = Adam({name: v.shape for name, v in values.items()}, **kwargs)
    for name, v in values.items():
        optimizer.params[name][...] = v
    return optimizer


class TestAdam:
    def test_built_from_shapes_with_every_buffer_zeroed(self):
        opt = Adam({"a": (2, 3), "b": (4,), "c": ()})
        for buffers in (opt.params, opt.m, opt.v):  # the moments exist before the first step
            assert {name: p.shape for name, p in buffers.items()} == {"a": (2, 3), "b": (4,), "c": ()}
            for p in buffers.values():
                np.testing.assert_array_equal(p.view(np.int64), 0)  # +0.0, not -0.0
        assert opt.t == {"a": 0, "b": 0, "c": 0}
        assert opt.params["a"].base is opt.params["c"].base
        assert not any(np.shares_memory(opt.params["a"], buffers["a"]) for buffers in (opt.m, opt.v))

    def test_zero_gradient_is_identity(self):
        p = np.array([1.0, -2.0])
        opt = adam_with({"p": p})
        opt.step({"p": np.zeros(2)}, lr=0.5)
        np.testing.assert_array_equal(opt.params["p"], [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # closed form: lr * g / (|g| + eps) with full bias correction at t=1
        p = np.array([0.0])
        opt = adam_with({"p": p})
        opt.step({"p": np.array([1e-3])}, lr=0.01)
        assert opt.params["p"][0] == pytest.approx(-0.01, rel=1e-4)

    def test_two_steps_match_hand_rolled_oracle(self):
        rng = make_rng(21)
        p = rng.normal(size=5)
        g1, g2 = rng.normal(size=5), rng.normal(size=5)
        lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
        expected = p.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            expected -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        opt = adam_with({"p": p}, beta1=b1, beta2=b2, eps=eps)
        opt.step({"p": g1}, lr)
        opt.step({"p": g2}, lr)
        np.testing.assert_allclose(opt.params["p"], expected, atol=1e-12)

    def test_partial_step_leaves_other_params(self):
        pa, pb = np.ones(2), np.ones(2)
        opt = adam_with({"a": pa, "b": pb})
        opt.step({"a": np.ones(2)}, lr=0.1)
        np.testing.assert_array_equal(opt.params["b"], [1.0, 1.0])
        assert opt.t == {"a": 1, "b": 0}

    def test_five_steps_match_textbook_update(self):
        rng = make_rng(22)
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        expected = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        opt = adam_with(params, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 6):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                m_hat = m[k] / (1 - b1**t)
                v_hat = v[k] / (1 - b2**t)
                expected[k] = expected[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step(grads, lr)
        for k in params:
            np.testing.assert_allclose(opt.params[k], expected[k], rtol=1e-14, atol=0)
            np.testing.assert_allclose(opt.m[k], m[k], rtol=1e-14, atol=0)
            np.testing.assert_allclose(opt.v[k], v[k], rtol=1e-14, atol=0)

    def test_shape_mismatch(self):
        opt = Adam({"p": (2,)})
        with pytest.raises(InvalidInputError):
            opt.step({"p": np.ones(3)}, lr=0.1)

    @pytest.mark.parametrize("chunk", [Adam.CHUNK, 5], ids=["default-chunk", "chunk-below-a-row"])
    def test_flat_buffer_matches_per_parameter_adam(self, monkeypatch, chunk):
        # streams of several parameters with uneven step counts, a stream whose
        # parameters are not neighbours in the buffer, gradients given as
        # arrays and as table gradients, a table longer than one chunk, and
        # with a chunk of 5 entries every parameter updated a row at a time,
        # most rows longer than a chunk
        monkeypatch.setattr(Adam, "CHUNK", chunk)
        rng = make_rng(23)
        shapes = {"nli_W": (2, 3, 12), "nli_b": (2, 3), "table": (Adam.CHUNK // 16 + 7, 16),
                  "def_W": (5, 4), "def_bias": (2, 9)}
        initial = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        flat = adam_with(initial, beta1=0.8, beta2=0.99, eps=1e-7)
        oracle = ParamAdam({name: p.copy() for name, p in initial.items()}, 0.8, 0.99, 1e-7)
        streams = [("nli_W", "nli_b", "table"), ("table", "def_W", "def_bias"), ("nli_b",),
                   ("def_bias", "nli_W")]
        for step in range(16):
            names = streams[int(rng.integers(len(streams)))]
            grads = {name: rng.normal(size=shapes[name]) for name in names}
            lr = float(rng.uniform(1e-3, 1e-1))
            if step % 2:
                grads.update((name, random_table_gradient(rng, shapes[name]))
                             for name in ("table", "def_W") if name in grads)
            oracle.step({name: np.asarray(g) for name, g in grads.items()}, lr)
            flat.step(grads, lr)
        assert flat.t == oracle.t and len(set(flat.t.values())) > 2
        for name in shapes:
            np.testing.assert_array_equal(flat.params[name], oracle.params[name], err_msg=name)
            np.testing.assert_array_equal(flat.m[name], oracle.m[name], err_msg=name)
            np.testing.assert_array_equal(flat.v[name], oracle.v[name], err_msg=name)

    def test_params_are_views_of_one_buffer(self):
        opt = Adam({"a": (2, 3), "b": (4,)})
        opt.params["a"][1, 2] = 7.0
        opt.step({"b": np.ones(4)}, lr=0.1)
        assert opt.params["a"][1, 2] == 7.0 and opt.params["a"].shape == (2, 3)
        assert np.shares_memory(opt.params["a"], opt.params["b"]) is False
        assert opt.params["a"].base is opt.params["b"].base


def _wide_definitions(n_words=5000, n_defs=8):
    """A vocabulary of ``n_words`` rows and definitions of 6 words, for memory checks."""
    vocab = Vocabulary([f"w{i}" for i in range(n_words - 2)])
    defs = [DefinitionExample(f"w{i}", " ".join(f"w{(7 * i + j) % (n_words - 2)}" for j in range(6)))
            for i in range(n_defs)]
    return vocab, IndexedExamples.definitions(defs, vocab)


def test_definition_step_allocates_less_than_a_table():
    # the loss returns its table gradient as a TableGradient, which the update
    # makes a chunk at a time in its scratch, so no table-sized array is made per step
    vocab, batch = _wide_definitions()
    encoder = ToyEncoder.create(vocab, 64, "mean", seed=0)
    optimizer = adam_with({"table": encoder.table, "def_bias": np.zeros((1, len(vocab)))})

    def step():
        _, grads = def_loss_and_grads(batch, "mean", optimizer.params, [len(batch)])
        optimizer.step(grads, 1e-3)

    step()
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < peak < optimizer.params["table"].nbytes // 4


# (method, pooling); the one-stage method keeps the bare pooling as its id
HELD_BUFFER_CASES = [(method, pooling) for method in ("defsent", "s+d", "d+s") for pooling in ("mean", "max")]


@pytest.mark.parametrize("method, pooling", HELD_BUFFER_CASES,
                         ids=[p if m == "defsent" else f"{m}-{p}" for m, p in HELD_BUFFER_CASES])
def test_tied_definition_training_holds_three_table_sized_buffers(method, pooling):
    # parameters and both moments; a gradient buffer would be a fourth table,
    # and so would a second stage's buffers made while the first stage's live
    vocab, data = _wide_definitions(n_defs=40)
    nli = IndexedExamples.nli([NliExample(f"w{i} w{i + 1}", f"w{2 * i}", "neutral") for i in range(40)], vocab)
    encoder = ToyEncoder.create(vocab, 64, pooling, seed=0)
    table_bytes = encoder.table.nbytes
    nli_bytes = 0 if method == "defsent" else (3 * 3 * 64 + 3) * 8
    # the table, the definition bias and any NLI head, in the parameter and both moment buffers
    steady = 3 * (table_bytes + len(vocab) * 8 + nli_bytes)
    tracemalloc.start()
    try:
        [result] = run_pipeline(method, [encoder], TrainConfig(batch_size=8), nli, data, seeds=[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(steps) for steps in result.stage_steps] == [5] * len(result.stage_steps)
    assert 0 < peak - steady < table_bytes


class TestLrSchedule:
    def test_linear_ramp(self):
        assert lr_at(5, 100, 2.0) == pytest.approx(1.0)

    def test_end_of_warmup(self):
        assert lr_at(10, 100, 2.0) == pytest.approx(2.0)

    def test_constant_after_warmup(self):
        assert lr_at(100, 100, 2.0) == pytest.approx(2.0)

    def test_monotone_in_warmup_then_flat(self):
        values = [lr_at(s, 50, 1.0) for s in range(1, 51)]
        warmup = math.ceil(0.1 * 50)
        assert all(b >= a for a, b in zip(values[:warmup], values[1:warmup]))
        assert all(v == 1.0 for v in values[warmup:])

    def test_linear_decay_option(self):
        assert lr_at(100, 100, 2.0, decay="linear") == 0.0
        assert lr_at(55, 100, 2.0, decay="linear") == pytest.approx(2.0 * 45 / 90)

    def test_step_out_of_range(self):
        with pytest.raises(InvalidInputError):
            lr_at(0, 10, 1.0)
        with pytest.raises(InvalidInputError):
            lr_at(11, 10, 1.0)


def _nli(n, length=3):
    word = "word " * length
    return [NliExample(word.strip(), word.strip(), "entailment") for _ in range(n)]


class TestIndexedExamples:
    """One example type for both objectives: ``take`` gathers every side of each row."""

    @pytest.mark.parametrize("kind", ["nli", "definitions"])
    def test_take_matches_building_the_selection(self, kind):
        rng = make_rng(71)
        vocab = Vocabulary([f"w{i}" for i in range(10)])

        def sentence():  # w10 and w11 are [UNK]; up to 7 words, truncated at 5
            return " ".join(f"w{i}" for i in rng.integers(0, 12, size=int(rng.integers(1, 8))))

        if kind == "nli":
            labels = ("entailment", "neutral", "contradiction")
            examples = [NliExample(sentence(), sentence(), labels[i % 3]) for i in range(25)]
        else:  # some headwords out of vocabulary
            examples = [DefinitionExample(f"w{rng.integers(12)}", sentence()) for _ in range(25)]
        build = getattr(IndexedExamples, kind)
        data = build(examples, vocab, max_tokens=5)
        for rows in (rng.permutation(25)[:9], np.array([3, 3, 0]), np.array([], dtype=np.intp)):
            taken, expected = data.take(rows), build([examples[i] for i in rows], vocab, max_tokens=5)
            assert len(taken) == len(rows)
            assert taken.sides == expected.sides == data.sides
            for name in ("ids", "offsets"):
                np.testing.assert_array_equal(getattr(taken.texts, name), getattr(expected.texts, name))
            np.testing.assert_array_equal(taken.golds, expected.golds)
            np.testing.assert_array_equal(taken.lengths, expected.lengths)

    def test_lengths_are_each_examples_longest_side(self):
        vocab = Vocabulary(["a"])
        nli = [NliExample("a a a", "a", "neutral"), NliExample("a", "a a", "neutral")]
        assert IndexedExamples.nli(nli, vocab).lengths.tolist() == [3, 2]
        assert IndexedExamples.nli(nli, vocab, max_tokens=2).lengths.tolist() == [2, 2]
        defs = [DefinitionExample("a", "a a"), DefinitionExample("a", "a")]
        assert IndexedExamples.definitions(defs, vocab).lengths.tolist() == [2, 1]

    def test_headword_gold_is_its_token(self):
        # the vocabulary counts tokenize(headword), so "Apple" and "Cherry." are apple and cherry
        defs = [DefinitionExample("Apple", "a red fruit"), DefinitionExample("banana", "a long fruit"),
                DefinitionExample("Cherry.", "a small red fruit"), DefinitionExample("...", "no word")]
        vocab = build_vocab([e.definition for e in defs] + [e.word for e in defs])
        golds = IndexedExamples.definitions(defs, vocab).golds
        assert golds.tolist() == [vocab.index("apple"), vocab.index("banana"), vocab.index("cherry"), -1]

    def test_no_in_vocabulary_headword_rejected(self):
        # dropping every example leaves an empty selection, which is named, not divided by
        data = IndexedExamples.definitions([DefinitionExample("missing", "alpha beta")],
                                           Vocabulary(["alpha", "beta"]))
        with pytest.raises(InvalidInputError, match="no definition examples with in-vocabulary headwords"):
            _drop_oov_definitions(data)


class TestSmartBatches:
    def test_uniform_lengths_plain_chunks(self):
        batches = smart_batches(np.full(33, 3), 16, make_rng(0))
        assert sorted(len(b) for b in batches) == [1, 16, 16]

    def test_every_example_exactly_once(self):
        rng = make_rng(1)
        lengths = rng.integers(1, 30, size=57)
        batches = smart_batches(lengths, 8, rng)
        assert sorted(np.concatenate(batches).tolist()) == list(range(57))

    def test_batch_length_spread_bounded_by_bucket_width(self):
        rng = make_rng(2)
        examples = [NliExample("w " * int(rng.integers(1, 40)), "w", "neutral")
                    for i in range(200)]
        lengths = IndexedExamples.nli(examples, build_vocab(["w"])).lengths
        assert lengths.tolist() == [len(tokenize(ex.premise)) for ex in examples]
        for batch in smart_batches(lengths, 16, rng, bucket_width=8):
            assert lengths[batch].max() - lengths[batch].min() <= 8

    def test_matches_per_example_bucketing_reference(self):
        # the reference buckets examples by tokenizing them, as batching did
        # before lengths were stored; both must draw the same permutations
        def reference(examples, batch_size, rng, bucket_width):
            buckets = {}
            for i, ex in enumerate(examples):
                length = max(len(tokenize(ex.premise)), len(tokenize(ex.hypothesis)))
                buckets.setdefault(length // bucket_width, []).append(i)
            batches = []
            for key in sorted(buckets):
                idxs = buckets[key]
                shuffled = [idxs[j] for j in rng.permutation(len(idxs))]
                batches += [shuffled[s : s + batch_size] for s in range(0, len(shuffled), batch_size)]
            return [batches[j] for j in rng.permutation(len(batches))]

        rng = make_rng(3)
        examples = [NliExample("w " * int(rng.integers(1, 30)), "w " * int(rng.integers(1, 30)),
                               "neutral") for _ in range(150)]
        lengths = IndexedExamples.nli(examples, build_vocab(["w"])).lengths
        for width in (1, 4, 8):
            got = smart_batches(lengths, 7, make_rng(width), bucket_width=width)
            want = reference(examples, 7, make_rng(width), width)
            assert [b.tolist() for b in got] == want

    def test_deterministic_given_seed(self):
        lengths = np.array([3 + i % 5 for i in range(40)])
        one = smart_batches(lengths, 7, make_rng(5))
        two = smart_batches(lengths, 7, make_rng(5))
        assert [b.tolist() for b in one] == [b.tolist() for b in two]


class TestBatchStream:
    def test_rewinds_and_balances_consumption(self):
        config = TrainConfig(batch_size=4, seed=0)
        examples = [NliExample(f"x{i} y z", "p q", "neutral") for i in range(12)]
        vocab = build_vocab([f"x{i}" for i in range(12)])
        stream_data = IndexedExamples.nli(examples, vocab)
        stream = BatchStream(stream_data, config, make_rng(3))
        assert stream.batches_per_pass == 3
        counts = np.zeros(len(vocab), dtype=int)
        for _ in range(7):  # 2 full passes + 1 batch
            batch = stream_data.take(stream.next_rows())
            assert len(batch) == 4
            # each premise's first word x<i> names its example
            np.add.at(counts, batch.texts.ids[batch.texts.offsets[:4]], 1)
        counts = counts[[vocab.index(f"x{i}") for i in range(12)]]
        assert sorted(counts.tolist()) == [2] * 8 + [3] * 4


from sentsig.synth import make_definition_corpus, make_nli_corpus


def train_sbert_loop(encoder, nli_data, config):
    """Reference: the NLI objective as a per-epoch loop, one fresh shuffle per epoch."""
    data = indexed(nli_data, encoder)
    rng = make_rng(config.seed)
    params = zero_nli_params(encoder, bias=config.head_bias)
    optimizer = ParamAdam(params, config.beta1, config.beta2, config.eps)
    total_steps = config.epochs * batches_per_epoch(data.lengths, config)
    steps = []
    step = 0
    for _ in range(config.epochs):
        for rows in _epoch_batches(data.lengths, config, rng):
            step += 1
            lr = lr_at(step, total_steps, config.base_lr, config.warmup_fraction,
                       config.lr_decay)
            loss, grads = loss_one(nli_loss_and_grads, data.take(rows), encoder.pooling, params)
            optimizer.step(grads, lr)
            steps.append(StepRecord("nli", loss, lr))
    return TrainResult(params, [steps])


def train_defsent_loop(encoder, def_data, config):
    """Reference: the definition objective as a per-epoch loop, one fresh shuffle per epoch."""
    data = _drop_oov_definitions(indexed(def_data, encoder))
    rng = make_rng(config.seed)
    params = zero_def_params(encoder, tied=config.tied_head)
    optimizer = ParamAdam(params, config.beta1, config.beta2, config.eps)
    total_steps = config.epochs * batches_per_epoch(data.lengths, config)
    steps = []
    step = 0
    for _ in range(config.epochs):
        for rows in _epoch_batches(data.lengths, config, rng):
            step += 1
            lr = lr_at(step, total_steps, config.base_lr, config.warmup_fraction,
                       config.lr_decay)
            loss, grads = loss_one(def_loss_and_grads, data.take(rows), encoder.pooling, params)
            optimizer.step(grads, lr)
            steps.append(StepRecord("def", loss, lr))
    return TrainResult(params, [steps])


class TestTrainMatchesLoopOracle:
    """The one stream-scheduled loop reproduces the per-epoch loops bit for bit."""

    @staticmethod
    def _world():
        rng = make_rng(16)
        world = dict(n_topics=4, words_per_topic=10)
        nli = (make_nli_corpus(rng, 30, sentence_len=3, **world)
               + make_nli_corpus(rng, 23, sentence_len=7, **world))
        defs = (make_definition_corpus(rng, sentence_len=3, per_word=1, **world)
                + make_definition_corpus(rng, sentence_len=6, per_word=1, **world))
        defs.append(DefinitionExample("unseen", "t00w000 t00w001"))  # dropped as OOV
        texts = ([e.premise for e in nli] + [e.hypothesis for e in nli]
                 + [e.definition for e in defs] + [e.word for e in defs[:-1]])
        return nli, defs, build_vocab(texts)

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("smart", [True, False])
    @pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
    def test_single_stream_bit_identical(self, pooling, smart, tied):
        nli, defs, vocab = self._world()
        config = TrainConfig(seed=5, epochs=2, batch_size=5, base_lr=0.05, bucket_width=2,
                             smart_batching=smart, tied_head=tied, lr_decay="linear")
        for data, oracle, method in ((dict(nli_data=nli), train_sbert_loop, "sbert"),
                                     (dict(def_data=defs), train_defsent_loop, "defsent")):
            enc_loop = ToyEncoder.create(vocab, 4, pooling, seed=5)
            enc_train = ToyEncoder.create(vocab, 4, pooling, seed=5)
            expected = oracle(enc_loop, next(iter(data.values())), config)
            [result] = run_pipeline(method, [enc_train], config, seeds=[config.seed],
                                    **{key: indexed(examples, enc_train) for key, examples in data.items()})
            assert len(result.stage_steps[0]) > 2 * 5
            assert result.stage_steps == expected.stage_steps
            np.testing.assert_array_equal(enc_train.table, enc_loop.table)
            assert result.params.keys() == expected.params.keys()
            for name, want in expected.params.items():
                np.testing.assert_array_equal(result.params[name], want, err_msg=name)


class TestTrainSbert:
    def test_zero_epochs_unchanged(self):
        enc = tiny_encoder()
        before = enc.table.copy()
        [result] = run_pipeline("sbert", [enc], TrainConfig(epochs=0), indexed(_nli(10), enc), seeds=[0])
        assert result.stage_steps == [[]]
        np.testing.assert_array_equal(enc.table, before)

    def test_loss_halves_on_separable_data(self):
        rng = make_rng(9)
        nli = make_nli_corpus(rng, 480, n_topics=4, words_per_topic=12, sentence_len=4)
        texts = [e.premise for e in nli] + [e.hypothesis for e in nli]
        enc = ToyEncoder.create(build_vocab(texts), 8, "mean", seed=0)
        [result] = run_pipeline("sbert", [enc], TrainConfig(base_lr=1e-2, epochs=3), indexed(nli, enc), seeds=[0])
        losses = [s.loss for s in result.stage_steps[0]]
        final = float(np.mean(losses[-10:]))
        assert final < 0.5 * losses[0]

    def test_same_seed_bit_identical(self):
        rng = make_rng(10)
        nli = make_nli_corpus(rng, 96, n_topics=4, words_per_topic=8, sentence_len=3)
        texts = [e.premise for e in nli] + [e.hypothesis for e in nli]
        vocab = build_vocab(texts)
        runs = []
        for _ in range(2):
            enc = ToyEncoder.create(vocab, 6, "mean", seed=4)
            [result] = run_pipeline("sbert", [enc], TrainConfig(epochs=2), indexed(nli, enc), seeds=[4])
            runs.append((enc.table.copy(), result.params["nli_W"].copy(), [s.loss for s in result.stage_steps[0]]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]


class TestTrainDefsent:
    def test_zero_epochs_unchanged(self):
        enc = tiny_encoder()
        before = enc.table.copy()
        defs = [DefinitionExample("alpha", "beta gamma")]
        [result] = run_pipeline("defsent", [enc], TrainConfig(epochs=0), def_data=indexed(defs, enc), seeds=[0])
        assert result.stage_steps == [[]]
        np.testing.assert_array_equal(enc.table, before)

    def test_marker_dictionary_reaches_high_accuracy(self):
        defs = [DefinitionExample(f"w{i}", f"mark{i} common filler words here") for i in range(5)]
        vocab = build_vocab([e.definition for e in defs] + [e.word for e in defs])
        enc = ToyEncoder.create(vocab, 6, "mean", seed=2)
        [result] = run_pipeline("defsent", [enc], TrainConfig(base_lr=0.05, epochs=20, batch_size=4),
                                def_data=indexed(defs * 4, enc), seeds=[0])
        head = result.params  # tied: the table is the prediction layer
        logits = enc.embed_batch([ex.definition for ex in defs]) @ head["table"].T + head["def_bias"]
        golds = [enc.vocab.index(ex.word) for ex in defs]
        assert np.mean(logits.argmax(axis=1) == golds) >= 0.9

    def test_oov_headwords_dropped_not_fatal(self, caplog):
        enc = tiny_encoder()
        defs = [DefinitionExample("alpha", "beta gamma"),
                DefinitionExample("unseen", "alpha beta")]
        with caplog.at_level("INFO"):
            [result] = run_pipeline("defsent", [enc], TrainConfig(epochs=1, batch_size=2),
                                    def_data=indexed(defs, enc), seeds=[0])
        assert [len(steps) for steps in result.stage_steps] == [1]
        assert any("dropped 1" in m for m in caplog.messages)

    def test_all_oov_is_error(self):
        enc = tiny_encoder()
        with pytest.raises(InvalidInputError):
            run_pipeline("defsent", [enc], TrainConfig(),
                         def_data=indexed([DefinitionExample("unseen", "alpha")], enc), seeds=[0])

    def test_same_seed_bit_identical(self):
        rng = make_rng(11)
        defs = make_definition_corpus(rng, n_topics=4, words_per_topic=6, sentence_len=3, per_word=1)
        vocab = build_vocab([e.definition for e in defs] + [e.word for e in defs])
        tables = []
        for _ in range(2):
            enc = ToyEncoder.create(vocab, 5, "mean", seed=8)
            run_pipeline("defsent", [enc], TrainConfig(epochs=2), def_data=indexed(defs, enc), seeds=[8])
            tables.append(enc.table.copy())
        np.testing.assert_array_equal(tables[0], tables[1])


class TestTrainMulti:
    @staticmethod
    def _data(rng, n_nli):
        nli = make_nli_corpus(rng, n_nli, n_topics=4, words_per_topic=8, sentence_len=3)
        defs = make_definition_corpus(rng, n_topics=4, words_per_topic=8, sentence_len=3, per_word=1)
        texts = ([e.premise for e in nli] + [e.hypothesis for e in nli]
                 + [e.definition for e in defs] + [e.word for e in defs])
        return nli, defs, build_vocab(texts)

    def test_40_step_pattern(self):
        rng = make_rng(12)
        nli, defs, vocab = self._data(rng, 40 * 4)  # 40 batches of 4 -> 2 whole cycles
        enc = ToyEncoder.create(vocab, 5, "mean", seed=0)
        [result] = run_pipeline("multi", [enc], TrainConfig(batch_size=4, epochs=1), indexed(nli, enc),
                                indexed(defs, enc), seeds=[0])
        [steps] = result.stage_steps
        assert len(steps) == 40
        assert stream_pattern(steps) == [("nli", 19), ("def", 1), ("nli", 19), ("def", 1)]

    def test_one_one_schedule_alternates(self):
        rng = make_rng(13)
        nli, defs, vocab = self._data(rng, 6 * 4)
        enc = ToyEncoder.create(vocab, 5, "mean", seed=0)
        schedule = MultiSchedule(nli_steps_per_cycle=1, def_steps_per_cycle=1)
        [result] = run_pipeline("multi", [enc], TrainConfig(batch_size=4, epochs=1), indexed(nli, enc),
                                indexed(defs, enc), schedule, seeds=[0])
        # 6 nominal steps -> 3 whole (1,1) cycles
        streams = [s.stream for s in result.stage_steps[0]]
        assert streams == ["nli", "def"] * 3

    def test_rounds_up_to_whole_cycles(self):
        rng = make_rng(14)
        nli, defs, vocab = self._data(rng, 5 * 4)  # 5 nli batches -> rounded up to 20 steps
        enc = ToyEncoder.create(vocab, 5, "mean", seed=0)
        [result] = run_pipeline("multi", [enc], TrainConfig(batch_size=4, epochs=1), indexed(nli, enc),
                                indexed(defs, enc), seeds=[0])
        [steps] = result.stage_steps
        assert len(steps) == 20
        assert stream_pattern(steps) == [("nli", 19), ("def", 1)]

    def test_small_definition_stream_wraps(self):
        rng = make_rng(15)
        nli, defs, vocab = self._data(rng, 60 * 4)  # 3 cycles -> 3 def steps
        enc = ToyEncoder.create(vocab, 5, "mean", seed=0)
        defs = defs[:4]  # a single def batch per pass
        [result] = run_pipeline("multi", [enc], TrainConfig(batch_size=4, epochs=1), indexed(nli, enc),
                                indexed(defs, enc), seeds=[0])
        def_steps = [s for s in result.stage_steps[0] if s.stream == "def"]
        assert len(def_steps) == 3  # consumed once per cycle, wrapping each pass
