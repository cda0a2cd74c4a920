"""STS scoring, partitioned reports, k-fold CV and the probe harness."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import sentsig.evalsuite
from generators import make_blob_probe
from gradcheck import finite_difference_worst_error
from oracles import ParamAdam
from sentsig.cli import main
from sentsig.corpus import Partition, StsPair, save_nli
from sentsig.encoder import EmbeddingStore, save_dump
from sentsig.errors import DegenerateScoresError, InvalidInputError, MissingEmbeddingError
from sentsig.evalsuite import (
    PROBE_BATCH_SIZE,
    PROBE_FOLDS,
    PROBE_SEED,
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
    probe_features,
    train_logreg,
)
from sentsig.numstat import cosine, make_rng, pearson, spearman
from sentsig.synth import make_nli_corpus


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
        scores = cosine(store.embed_batch([p.sentence1 for p in pairs]),
                        store.embed_batch([p.sentence2 for p in pairs])).tolist()
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
        params = train_logreg(X[None], y, [np.arange(len(y))], ProbeConfig(), 2, [0])
        accuracy = float((logreg_logits(params, X[None, None])[0, 0].argmax(axis=-1) == y).mean())
        assert accuracy >= 0.95

    def test_zero_epochs_predicts_uniform(self):
        rng = make_rng(5)
        X, y = self._blobs(rng)
        params = train_logreg(X[None], y, [np.arange(len(y))], ProbeConfig(epochs=0), 2, [0])
        np.testing.assert_array_equal(params["W"], 0.0)
        np.testing.assert_array_equal(logreg_logits(params, X[None, None]), np.zeros((1, 1, len(X), 2)))

    def test_one_model_per_provider_and_fold(self):
        rng = make_rng(5)
        X, y = self._blobs(rng)
        folds = [np.arange(0, 100), np.arange(20, 120), np.arange(59), np.arange(60)]  # two sizes
        params = train_logreg(np.stack([X, -X]), y, folds, ProbeConfig(), 2, [0, 1, 2, 3])
        assert set(params) == {"W", "b"}
        assert params["W"].shape == (2, 4, 2, X.shape[1]) and params["b"].shape == (2, 4, 2)
        # the two providers are mirror images, so their models are too
        np.testing.assert_array_equal(params["W"][1], -params["W"][0])
        np.testing.assert_array_equal(params["b"][1], params["b"][0])

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            train_logreg(np.ones((1, 5, 2)), np.zeros(5, dtype=int), [np.arange(5)], ProbeConfig(), 2, [0])

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
            train_logreg(X[None], y, [np.arange(len(y))], ProbeConfig(lr=1e308), 2, [0])
        assert 1 <= len(steps) < ProbeConfig().epochs * len(X) // PROBE_BATCH_SIZE

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
    rng = make_rng(PROBE_SEED)
    folds = kfold_split(n, PROBE_FOLDS, rng)
    fold_seeds = rng.integers(0, 2**63 - 1, size=PROBE_FOLDS)
    correct, fits = 0, []
    for fold, fold_seed in zip(folds, fold_seeds):
        train_mask = np.ones(n, dtype=bool)
        train_mask[fold] = False
        Xt, yt = X[train_mask], labels[train_mask]
        W, b = np.zeros((n_classes, X.shape[1])), np.zeros(n_classes)
        optimizer = ParamAdam({"W": W, "b": b})
        order_rng = make_rng(int(fold_seed))
        for _ in range(config.epochs):
            order = order_rng.permutation(len(yt))
            for start in range(0, len(yt), PROBE_BATCH_SIZE):
                idx = order[start : start + PROBE_BATCH_SIZE]
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


def probe_accuracy(provider, task, config, embedded=None):
    """One provider's probe accuracy, fitted alone."""
    [accuracy] = eval_probe([probe_features(provider, task, embedded)], task, config)
    return accuracy


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
    @pytest.mark.parametrize("n, dim", [
        (305, 16),  # folds of 30 and 31 rows: training sets of 275 and 274
        (142, 8),  # folds of 14 and 15 rows: the 128-row training sets fill 2 whole batches
    ], ids=["n-not-divisible", "batch-multiple"])
    def test_ragged_folds_match_per_fold_fits(self, monkeypatch, n, dim):
        assert PROBE_BATCH_SIZE == 64
        store, task, X = noisy_probe(n, dim, 3, seed=n)
        config = ProbeConfig(epochs=3, lr=0.05)
        fits = []

        def spy(features, labels, train_rows, config, n_classes, seeds):
            params = train_logreg(features, labels, train_rows, config, n_classes, seeds)
            fits.append(([len(rows) for rows in train_rows], seeds, params))
            return params

        monkeypatch.setattr(sentsig.evalsuite, "train_logreg", spy)
        accuracy = probe_accuracy(store, task, config)
        expected_accuracy, expected = per_fold_probe(X, task.label_indices(), config)
        assert accuracy == expected_accuracy
        [(sizes, seeds, params)] = fits
        assert sorted(set(sizes)) == sorted({n - n // 10, n - n // 10 - 1})
        stacked = {int(s): (params["W"][0, j], params["b"][0, j]) for j, s in enumerate(seeds)}
        assert len(stacked) == 10
        for fold_seed, W, b in expected:
            np.testing.assert_array_equal(stacked[fold_seed][0], W)
            np.testing.assert_array_equal(stacked[fold_seed][1], b)

    @pytest.mark.parametrize("n", [300, 305], ids=["one-fold-size", "two-fold-sizes"])
    def test_one_fit_per_feature_dim(self, monkeypatch, n):
        stores = [noisy_probe(n, dim, 2, seed=seed)[0] for seed, dim in enumerate((4, 6, 4))]
        task = noisy_probe(n, 4, 2, seed=1)[1]
        calls = []

        def counting(features, labels, train_rows, *args, **kwargs):
            calls.append((*features.shape[::2], len(train_rows)))
            return train_logreg(features, labels, train_rows, *args, **kwargs)

        monkeypatch.setattr(sentsig.evalsuite, "train_logreg", counting)
        eval_probe([probe_features(store, task) for store in stores], task, ProbeConfig(epochs=1))
        assert calls == [(2, 4, 10), (1, 6, 10)]  # (providers, dim, folds)

    def test_providers_of_one_dim_fit_as_one_stack_equal_to_their_fits_alone(self, monkeypatch):
        # two tasks whose folds have two sizes each; three providers of one task share its sentences
        config = ProbeConfig(epochs=3, lr=0.05)
        fits = []

        def spy(*args):
            fits.append(train_logreg(*args))
            return fits[-1]

        monkeypatch.setattr(sentsig.evalsuite, "train_logreg", spy)
        for n, n_classes in ((305, 3), (142, 2)):
            probes = [noisy_probe(n, 8, n_classes, seed=n + k) for k in range(3)]
            task = probes[0][1]
            fits.clear()
            accuracies = eval_probe([probe_features(store, task) for store, _, _ in probes], task, config)
            [params] = fits
            assert params["W"].shape[:2] == (3, PROBE_FOLDS)
            for p, (_, _, X) in enumerate(probes):
                expected_accuracy, expected = per_fold_probe(X, task.label_indices(), config)
                assert accuracies[p] == expected_accuracy
                for f, (_, W, b) in enumerate(expected):
                    np.testing.assert_array_equal(params["W"][p, f], W)
                    np.testing.assert_array_equal(params["b"][p, f], b)

    def test_separable_task_high_accuracy(self):
        rng = make_rng(7)
        task, store = make_blob_probe(rng, n_per_class=40, n_classes=2)
        accuracy = probe_accuracy(store, task, ProbeConfig())
        assert accuracy >= 0.95

    def test_shuffled_labels_near_chance(self):
        rng = make_rng(8)
        task, store = make_blob_probe(rng, n_per_class=200, n_classes=2, separation=0.0)
        accuracy = probe_accuracy(store, task, ProbeConfig())
        assert 0.4 <= accuracy <= 0.6

    def test_repeated_sentences_keep_their_features(self):
        # each sentence comes back later in reverse order: every slot must get its own row
        store = EmbeddingStore(2)
        sentences = [f"s{i}" for i in range(40)]
        for i, sentence in enumerate(sentences):
            store.add(sentence, [4.0 if i % 2 else -4.0, 0.01 * i])
        examples = [(s, "odd" if int(s[1:]) % 2 else "even") for s in sentences + sentences[::-1]]
        counts = {}
        accuracy = probe_accuracy(store, ProbeTask(name="rep", examples=examples), ProbeConfig(),
                                  embedded=counts)
        assert accuracy == 1.0
        assert counts == {"distinct": 40, "reused": 40}

    @pytest.mark.parametrize("value, dtype", [(0.375, np.float32), (0.1, np.float64), (1e300, np.float64)])
    def test_features_kept_in_float32_only_when_it_holds_them_exactly(self, value, dtype):
        store = EmbeddingStore(2)
        store.add("a", [1.0, value])
        store.add("b", [-2.0, 0.5])
        task = ProbeTask(name="t", examples=[("a", "x"), ("b", "y"), ("a", "x")])
        rows = probe_features(store, task)
        assert rows.dtype == dtype
        np.testing.assert_array_equal(rows, [[1.0, value], [-2.0, 0.5], [1.0, value]])

    def test_class_too_small_for_folds(self):
        store = EmbeddingStore(2)
        examples = []
        for i in range(12):
            store.add(f"s{i}", [float(i), 0.0])
            examples.append((f"s{i}", "a" if i < 9 else "b"))
        task = ProbeTask(name="tiny", examples=examples)
        with pytest.raises(InvalidInputError):
            probe_accuracy(store, task, ProbeConfig())

    def test_probe_task_file_round_trip(self, tmp_path):
        path = tmp_path / "task.tsv"
        path.write_text("pos\tgreat movie\nneg\tterrible film\npos\tloved it\n")
        task = load_probe_task(path)
        assert task.name == "task"
        assert task.class_labels() == ["neg", "pos"]
        assert list(task.label_indices()) == [1, 0, 1]


def test_eval_of_a_checkpoint_and_a_dump_of_other_dims_scores_each_as_if_alone(tmp_path):
    rng = make_rng(12)
    world = dict(n_topics=4, words_per_topic=10, sentence_len=4)
    save_nli(make_nli_corpus(rng, 60, **world), tmp_path / "nli.tsv")
    config = tmp_path / "exp.ini"
    config.write_text(f"[data]\nnli = {tmp_path / 'nli.tsv'}\n[train]\ndim = 6\n", encoding="utf-8")
    assert main(["train", "--seed", "0", "--out", str(tmp_path / "run"), "--config", str(config)]) == 0
    probe = tmp_path / "probe.tsv"
    probe.write_text("".join(f"{c}\tt0{c}w{i % 10:03d} t02w{i * 7 % 10:03d}\n" for c in (0, 1) for i in range(20)),
                     encoding="utf-8")
    dump = EmbeddingStore(3, name="dump")
    for line in probe.read_text(encoding="utf-8").splitlines():
        label, sentence = line.split("\t")
        if sentence not in dump:
            dump.add(sentence, rng.normal(size=3) + (int(label) - 0.5))
    save_dump(dump, tmp_path / "dump.txt")
    providers = [str(tmp_path / "run" / "checkpoint-seed0.json"), str(tmp_path / "dump.txt")]

    def probes(*paths):
        out = tmp_path / f"eval{len(list(tmp_path.glob('eval*')))}"
        assert main(["eval", *paths, "--probe", str(probe), "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text(encoding="utf-8"))["probes"]["probe"]

    both = probes(*providers)
    alone = [probes(path)["accuracy_x100_mean"] for path in providers]
    assert both["per_provider_x100"] == alone
