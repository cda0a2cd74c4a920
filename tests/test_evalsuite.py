"""STS scoring, partitioned reports, k-fold CV and the probe harness."""

import math
from collections import Counter

import numpy as np
import pytest

import sentsig.evalsuite
from gradcheck import finite_difference_worst_error
from oracles import ParamAdam
from sentsig.corpus import Partition, StsPair
from sentsig.encoder import EmbeddingStore
from sentsig.errors import DegenerateScoresError, InvalidInputError, MissingEmbeddingError
from sentsig.evalsuite import (
    ProbeConfig,
    ProbeTask,
    _logreg_grads,
    aggregate_seeds,
    eval_probe,
    eval_sts,
    eval_sts_partitioned,
    kfold_split,
    load_probe_task,
    logreg_logits,
    train_logreg,
)
from sentsig.numstat import cosine, make_rng, pearson, spearman
from sentsig.synth import make_blob_probe


def store_with_cosines(targets, golds, source="s"):
    """Pairs whose cosine to a fixed anchor equals the requested value."""
    store = EmbeddingStore(2, name="angles")
    store.add("anchor", np.array([1.0, 0.0]))
    pairs = []
    for i, (target, gold) in enumerate(zip(targets, golds)):
        angle = math.acos(target)
        sentence = f"probe {i}"
        store.add(sentence, np.array([math.cos(angle), math.sin(angle)]))
        pairs.append(StsPair(sentence1="anchor", sentence2=sentence, gold=gold, source=source))
    return store, pairs


class TestEvalSts:
    def test_perfect_provider(self):
        golds = [0.0, 1.0, 2.0, 3.0, 4.0]
        store, pairs = store_with_cosines([g / 5 for g in golds], golds)
        rho, r = eval_sts(store, pairs)
        assert rho == pytest.approx(1.0)

    def test_anti_provider(self):
        golds = [0.0, 1.0, 2.0, 3.0, 4.0]
        store, pairs = store_with_cosines([-g / 5 for g in golds], golds)
        rho, _ = eval_sts(store, pairs)
        assert rho == pytest.approx(-1.0)

    def test_matches_composed_oracle(self):
        rng = make_rng(1)
        store = EmbeddingStore(5, name="rand")
        pairs = []
        for i in range(20):
            s1, s2 = f"left {i}", f"right {i}"
            store.add(s1, rng.normal(size=5))
            store.add(s2, rng.normal(size=5))
            pairs.append(StsPair(sentence1=s1, sentence2=s2,
                                 gold=float(rng.uniform(0, 5)), source="s"))
        rho, r = eval_sts(store, pairs)
        scores = [cosine(store.embed(p.sentence1), store.embed(p.sentence2)) for p in pairs]
        golds = [p.gold for p in pairs]
        assert rho == pytest.approx(spearman(scores, golds), abs=1e-15)
        assert r == pytest.approx(pearson(scores, golds), abs=1e-15)

    def test_scale_invariance_of_embeddings(self):
        rng = make_rng(2)
        store = EmbeddingStore(4)
        scaled = EmbeddingStore(4)
        pairs = []
        for i in range(10):
            v1, v2 = rng.normal(size=4), rng.normal(size=4)
            store.add(f"a{i}", v1)
            store.add(f"b{i}", v2)
            scaled.add(f"a{i}", 37.5 * v1)
            scaled.add(f"b{i}", 37.5 * v2)
            pairs.append(StsPair(sentence1=f"a{i}", sentence2=f"b{i}",
                                 gold=float(rng.uniform(0, 5)), source="s"))
        assert eval_sts(store, pairs) == pytest.approx(eval_sts(scaled, pairs))

    def test_missing_embedding_propagates(self):
        store = EmbeddingStore(2)
        store.add("known", [1.0, 0.0])
        pairs = [StsPair(sentence1="known", sentence2="unknown", gold=1.0, source="s")] * 2
        with pytest.raises(MissingEmbeddingError):
            eval_sts(store, pairs)

    def test_degenerate_scores_distinct_error(self):
        store = EmbeddingStore(2)
        store.add("a", [1.0, 0.0])
        store.add("b", [2.0, 0.0])
        pairs = [StsPair(sentence1="a", sentence2="b", gold=float(g), source="s")
                 for g in (1, 2, 3)]
        with pytest.raises(DegenerateScoresError):
            eval_sts(store, pairs)

    def test_too_few_pairs(self):
        store = EmbeddingStore(2)
        with pytest.raises(InvalidInputError):
            eval_sts(store, [])


class TestPartitionedReport:
    def test_single_subset_all_matches(self):
        golds = [0.0, 1.0, 2.0, 3.0]
        store, pairs = store_with_cosines([0.1, 0.5, 0.2, 0.9], golds)
        part = Partition(name="one", subsets=[("only", pairs)])
        report = eval_sts_partitioned(store, part)
        assert [e.label for e in report.entries] == ["only", "ALL"]
        assert report.entry("ALL").spearman_x100 == report.entry("only").spearman_x100

    def test_pooled_all_can_fall_below_min_subset(self):
        # internally perfect subsets on clashing cosine scales
        store, pairs_lo = store_with_cosines([0.7, 0.8, 0.9], [0.0, 1.0, 2.0])
        store2 = EmbeddingStore(2, name="second")
        store2.add("anchor", np.array([1.0, 0.0]))
        pairs_hi = []
        for i, (target, gold) in enumerate(zip([0.1, 0.2, 0.3], [3.0, 4.0, 5.0])):
            angle = math.acos(target)
            store2.add(f"hi {i}", np.array([math.cos(angle), math.sin(angle)]))
            pairs_hi.append(StsPair(sentence1="anchor", sentence2=f"hi {i}", gold=gold, source="s"))
        merged = EmbeddingStore(2, name="merged")
        for sentence, vec in list(store.items()) + list(store2.items()):
            if sentence not in merged:
                merged.add(sentence, vec)
        part = Partition(name="clash", subsets=[("low", pairs_lo), ("high", pairs_hi)])
        report = eval_sts_partitioned(merged, part)
        subset_scores = [report.entry("low").spearman_x100, report.entry("high").spearman_x100]
        assert subset_scores == [pytest.approx(100.0), pytest.approx(100.0)]
        assert report.entry("ALL").spearman_x100 < min(subset_scores)

    def test_small_subset_flagged_not_fatal(self):
        golds = [0.0, 1.0, 2.0]
        store, pairs = store_with_cosines([0.3, 0.6, 0.1], golds)
        part = Partition(name="p", subsets=[("tiny", pairs[:1]), ("rest", pairs[1:])])
        report = eval_sts_partitioned(store, part)
        assert report.entry("tiny").spearman_x100 is None
        assert report.entry("tiny").note == "too few pairs"
        assert report.entry("ALL").n == 3

    def test_five_plus_all_shape(self):
        golds = list(np.linspace(0, 5, 20))
        targets = list(np.linspace(-0.9, 0.9, 20))
        store, pairs = store_with_cosines(targets, golds)
        subsets = [(f"q{i}", pairs[4 * i : 4 * (i + 1)]) for i in range(5)]
        report = eval_sts_partitioned(store, Partition(name="dice", subsets=subsets))
        assert [e.label for e in report.entries] == ["q0", "q1", "q2", "q3", "q4", "ALL"]
        assert all(-100 <= e.spearman_x100 <= 100 for e in report.entries)

    def test_each_sentence_embedded_once(self):
        targets = [0.1, 0.5, 0.2, 0.9, 0.4, 0.4, 0.4, 0.3]
        store, pairs = store_with_cosines(targets, [0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0])
        pairs.append(pairs[0])  # a pair that repeats in another subset
        calls = Counter()

        class CountingProvider:
            name, dim = store.name, store.dim

            def embed_batch(self, sentences):
                calls.update(sentences)
                return store.embed_batch(sentences)

        subsets = [("a", pairs[:4]), ("flat", pairs[4:7]), ("b", pairs[7:])]
        report = eval_sts_partitioned(CountingProvider(), Partition(name="p", subsets=subsets))
        assert calls == Counter({s: 1 for p in pairs for s in (p.sentence1, p.sentence2)})
        # each subset reads as if it were scored on its own
        assert report.entry("a").spearman_x100 == 100.0 * eval_sts(store, pairs[:4])[0]
        assert report.entry("b").pearson_x100 == 100.0 * eval_sts(store, pairs[7:])[1]
        assert report.entry("flat").note == "zero score variance"
        assert report.entry("ALL").spearman_x100 == 100.0 * eval_sts(store, pairs)[0]

    def test_markdown_has_two_decimal_cells(self):
        golds = [0.0, 1.0, 2.0, 3.0]
        store, pairs = store_with_cosines([0.1, 0.5, 0.2, 0.9], golds)
        report = eval_sts_partitioned(store, Partition(name="p", subsets=[("s", pairs)]))
        md = report.to_markdown()
        assert "| subset" in md
        value = report.entry("s").spearman_x100
        assert f"{value:.2f}" in md


class TestAggregateSeeds:
    @staticmethod
    def _report(values, seed):
        from sentsig.evalsuite import StsReport, SubsetScore
        entries = [SubsetScore(f"s{i}", 10, v, v / 2) for i, v in enumerate(values)]
        return StsReport(provider="p", partition="x", entries=entries, seeds=[seed])

    def test_identical_reports_unchanged(self):
        merged = aggregate_seeds([self._report([70.0, 80.0], 0), self._report([70.0, 80.0], 1)])
        assert merged.entry("s0").spearman_x100 == 70.0
        assert merged.n_seeds == 2

    def test_simple_mean(self):
        merged = aggregate_seeds([self._report([70.0], 0), self._report([80.0], 1)])
        assert merged.entry("s0").spearman_x100 == 75.0
        assert merged.entry("s0").per_seed["spearman_x100"] == [70.0, 80.0]

    def test_ten_reports_match_manual_mean(self):
        rng = make_rng(3)
        tables = [list(rng.uniform(-100, 100, size=4)) for _ in range(10)]
        merged = aggregate_seeds([self._report(t, i) for i, t in enumerate(tables)])
        for i in range(4):
            manual = sum(t[i] for t in tables) / 10
            assert merged.entries[i].spearman_x100 == pytest.approx(manual, abs=1e-12)
        assert merged.seeds == list(range(10))

    def test_shape_mismatch_rejected(self):
        a = self._report([1.0, 2.0], 0)
        b = self._report([1.0], 1)
        with pytest.raises(InvalidInputError):
            aggregate_seeds([a, b])


class TestKfold:
    def test_singletons(self):
        folds = kfold_split(10, 10, make_rng(0))
        assert sorted(len(f) for f in folds) == [1] * 10

    def test_23_into_10(self):
        folds = kfold_split(23, 10, make_rng(1))
        assert sorted(len(f) for f in folds) == [2] * 7 + [3] * 3

    def test_exact_cover_random_sizes(self):
        rng = make_rng(2)
        for _ in range(50):
            n = int(rng.integers(10, 200))
            k = int(rng.integers(2, 11))
            if n < k:
                continue
            folds = kfold_split(n, k, rng)
            merged = np.concatenate(folds)
            assert sorted(merged.tolist()) == list(range(n))
            assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_too_few_items(self):
        with pytest.raises(InvalidInputError):
            kfold_split(5, 10, make_rng(0))


class TestTrainLogreg:
    @staticmethod
    def _blobs(rng, n=120, dim=4, gap=8.0):
        X = rng.normal(size=(n, dim))
        y = (np.arange(n) % 2).astype(np.int64)
        X[y == 1, 0] += gap / 2
        X[y == 0, 0] -= gap / 2
        return X, y

    def test_separable_blobs_high_train_accuracy(self):
        rng = make_rng(4)
        X, y = self._blobs(rng)
        params = train_logreg(X[None], y[None], ProbeConfig(seed=0), 2, [0])
        accuracy = float((logreg_logits(params, X[None])[0].argmax(axis=-1) == y).mean())
        assert accuracy >= 0.95

    def test_zero_epochs_predicts_uniform(self):
        rng = make_rng(5)
        X, y = self._blobs(rng)
        params = train_logreg(X[None], y[None], ProbeConfig(epochs=0, seed=0), 2, [0])
        np.testing.assert_array_equal(params["W"], 0.0)
        np.testing.assert_array_equal(logreg_logits(params, X[None]), np.zeros((1, len(X), 2)))

    def test_fits_are_views_of_one_optimizer_buffer(self):
        rng = make_rng(5)
        X, y = self._blobs(rng)
        params = train_logreg(np.stack([X, -X]), np.stack([y, y]), ProbeConfig(seed=0), 2, [0, 1])
        assert set(params) == {"W", "b"}
        assert params["W"].shape == (2, 2, X.shape[1]) and params["b"].shape == (2, 2)
        assert params["W"].base is params["b"].base

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            train_logreg(np.ones((1, 5, 2)), np.zeros((1, 5), dtype=int), ProbeConfig(), 2, [0])

    def test_divergence_stops_at_the_first_non_finite_step(self, monkeypatch):
        # under pytest's warnings-as-errors, an overflow warning would fail this too
        steps = []
        step = sentsig.evalsuite.Adam.step

        def checked(optimizer, grads, lr):
            assert all(np.isfinite(p).all() for p in optimizer.params.values())  # no step from NaN
            steps.append(lr)
            step(optimizer, grads, lr)

        monkeypatch.setattr(sentsig.evalsuite.Adam, "step", checked)
        X, y = self._blobs(make_rng(4))
        with pytest.raises(InvalidInputError, match=r"\[probe\] lr"):
            train_logreg(X[None], y[None], ProbeConfig(lr=1e308, seed=0), 2, [0])
        assert 1 <= len(steps) < ProbeConfig().epochs * len(X) // ProbeConfig().batch_size

    def test_gradients_match_finite_differences(self):
        rng = make_rng(6)
        X = rng.normal(size=(1, 7, 3))
        y = rng.integers(0, 3, size=(1, 7))
        y[0, :3] = 0, 1, 2
        params = {"W": rng.normal(size=(1, 3, 3)), "b": rng.normal(size=(1, 3))}

        def loss():
            logits = logreg_logits(params, X)
            log_probs = logits - np.log(np.exp(logits).sum(axis=2, keepdims=True))
            return -np.take_along_axis(log_probs, y[..., None], axis=2).mean()

        worst = finite_difference_worst_error(loss, params, _logreg_grads(params, X, y))
        assert worst < 1e-4


def per_fold_probe(X, labels, config):
    """The one-fit-per-fold probe that the stacked fits replaced, kept as their bit-exact oracle.

    Returns the accuracy and each fold's (seed, W, b).
    """
    n = len(labels)
    n_classes = int(labels.max()) + 1
    rng = make_rng(config.seed)
    folds = kfold_split(n, config.folds, rng)
    fold_seeds = rng.integers(0, 2**63 - 1, size=config.folds)
    correct, fits = 0, []
    for fold, fold_seed in zip(folds, fold_seeds):
        train_mask = np.ones(n, dtype=bool)
        train_mask[fold] = False
        Xt, yt = X[train_mask], labels[train_mask]
        W, b = np.zeros((n_classes, X.shape[1])), np.zeros(n_classes)
        optimizer = ParamAdam({"W": W, "b": b}, config.beta1, config.beta2, config.eps)
        order_rng = make_rng(int(fold_seed))
        for _ in range(config.epochs):
            order = order_rng.permutation(len(yt))
            for start in range(0, len(yt), config.batch_size):
                idx = order[start : start + config.batch_size]
                logits = Xt[idx] @ W.T + b
                logits = logits - logits.max(axis=1, keepdims=True)
                e = np.exp(logits)
                g = e / e.sum(axis=1, keepdims=True)
                m = len(idx)
                g[np.arange(m), yt[idx]] -= 1.0
                optimizer.step({"W": g.T @ Xt[idx] / m, "b": g.mean(axis=0)}, config.lr)
        correct += int(((X[fold] @ W.T + b).argmax(axis=1) == labels[fold]).sum())
        fits.append((int(fold_seed), W, b))
    return correct / n, fits


def noisy_probe(n, dim, n_classes, seed):
    """A store and a task whose classes overlap, so the fits stay far from converged."""
    rng = make_rng(seed)
    X = rng.normal(size=(n, dim))
    y = np.arange(n) % n_classes
    X[np.arange(n), y % dim] += 1.0
    store = EmbeddingStore(dim)
    for i in range(n):
        store.add(f"s{i}", X[i])
    task = ProbeTask(name="noisy", examples=[(f"s{i}", f"c{y[i]}") for i in range(n)])
    return store, task, X


class TestEvalProbe:
    @pytest.mark.parametrize("n, dim, batch_size", [
        (305, 16, 64),  # folds of 30 and 31 rows: training sets of 275 and 274
        (71, 8, 16),  # folds of 7 and 8 rows: the 64-row training sets fill 4 whole batches
    ], ids=["n-not-divisible", "batch-multiple"])
    def test_ragged_folds_match_per_fold_fits(self, monkeypatch, n, dim, batch_size):
        store, task, X = noisy_probe(n, dim, 3, seed=n)
        config = ProbeConfig(folds=10, batch_size=batch_size, epochs=3, lr=0.05, seed=4)
        fits = []

        def spy(features, labels, config, n_classes, seeds):
            params = train_logreg(features, labels, config, n_classes, seeds)
            fits.append((features.shape, seeds, params))
            return params

        monkeypatch.setattr(sentsig.evalsuite, "train_logreg", spy)
        accuracy = eval_probe(store, task, config)
        expected_accuracy, expected = per_fold_probe(X, task.label_indices(), config)
        assert accuracy == expected_accuracy
        assert sorted(shape[1] for shape, _, _ in fits) == sorted({n - n // 10, n - n // 10 - 1})
        stacked = {int(s): (params["W"][j], params["b"][j])
                   for _, seeds, params in fits for j, s in enumerate(seeds)}
        assert len(stacked) == 10
        for fold_seed, W, b in expected:
            np.testing.assert_array_equal(stacked[fold_seed][0], W)
            np.testing.assert_array_equal(stacked[fold_seed][1], b)

    @pytest.mark.parametrize("n, groups", [(300, 1), (305, 2)])
    def test_one_fit_per_fold_size(self, monkeypatch, n, groups):
        store, task, _ = noisy_probe(n, 4, 2, seed=1)
        calls = []

        def counting(features, *args, **kwargs):
            calls.append(features.shape[0])
            return train_logreg(features, *args, **kwargs)

        monkeypatch.setattr(sentsig.evalsuite, "train_logreg", counting)
        eval_probe(store, task, ProbeConfig(epochs=1, seed=0))
        assert len(calls) == groups
        assert sum(calls) == 10

    def test_separable_task_high_accuracy(self):
        rng = make_rng(7)
        task, store = make_blob_probe(rng, n_per_class=40, n_classes=2)
        accuracy = eval_probe(store, task, ProbeConfig(seed=0))
        assert accuracy >= 0.95

    def test_shuffled_labels_near_chance(self):
        rng = make_rng(8)
        task, store = make_blob_probe(rng, n_per_class=200, n_classes=2, separation=0.0)
        accuracy = eval_probe(store, task, ProbeConfig(seed=0))
        assert 0.4 <= accuracy <= 0.6

    def test_repeated_sentences_keep_their_features(self):
        # each sentence comes back later in reverse order: every slot must get its own row
        store = EmbeddingStore(2)
        sentences = [f"s{i}" for i in range(40)]
        for i, sentence in enumerate(sentences):
            store.add(sentence, [4.0 if i % 2 else -4.0, 0.01 * i])
        examples = [(s, "odd" if int(s[1:]) % 2 else "even") for s in sentences + sentences[::-1]]
        counts = {}
        accuracy = eval_probe(store, ProbeTask(name="rep", examples=examples), ProbeConfig(seed=0),
                              embedded=counts)
        assert accuracy == 1.0
        assert counts == {"distinct": 40, "reused": 40}

    def test_class_too_small_for_folds(self):
        store = EmbeddingStore(2)
        examples = []
        for i in range(12):
            store.add(f"s{i}", [float(i), 0.0])
            examples.append((f"s{i}", "a" if i < 9 else "b"))
        task = ProbeTask(name="tiny", examples=examples)
        with pytest.raises(InvalidInputError):
            eval_probe(store, task, ProbeConfig(folds=10, seed=0))

    def test_probe_task_file_round_trip(self, tmp_path):
        path = tmp_path / "task.tsv"
        path.write_text("pos\tgreat movie\nneg\tterrible film\npos\tloved it\n")
        task = load_probe_task(path)
        assert task.name == "task"
        assert task.class_labels() == ["neg", "pos"]
        assert list(task.label_indices()) == [1, 0, 1]
