"""Acceptance suite: every criterion at its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints ``ACCEPTANCE <n> <name>: PASS|FAIL`` and also
enforces its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from generators import fresh_encoder, make_blob_probe, make_paired_feature_probe, make_random_sts
from gradcheck import check_def_instance, check_nli_instance
from sentsig.cli import main as cli_main
from sentsig.combiner import CombinedProvider
from sentsig.corpus import (
    concat_subsets,
    dice,
    load_sts,
    partition_by_dice,
    partition_by_source,
    save_definitions,
    save_nli,
    save_sts,
)
from sentsig.encoder import EmbeddingStore, build_vocab
from sentsig.evalsuite import ProbeConfig, eval_probe, eval_sts, kfold_split, probe_features
from sentsig.numstat import make_rng, pearson, spearman
from sentsig.objectives import (IndexedExamples, TrainConfig, run_pipeline,
                                stream_pattern)
from sentsig.synth import make_definition_corpus, make_nli_corpus, make_sts_corpus
from test_numstat import brute_force_ranks


class criterion:
    """Times a criterion, enforces its budget, prints one pass/fail line."""

    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} {self.name}: {status} ({elapsed:.2f}s / budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_01_dice_reproduction():
    with criterion(1, "dice-reproduction", 1.0):
        base = "A man is playing a guitar."
        cases = [
            ("The man is playing the guitar.", 0.800),
            ("A guy is playing an instrument.", 0.545),
            ("A man is playing a guitar and singing.", 0.833),
            ("The girl is playing the guitar.", 0.600),
            ("A woman is cutting vegetable.", 0.400),
        ]
        for sentence2, expected in cases:
            assert round(dice(base, sentence2), 3) == expected


def test_criterion_02_spearman_oracle_equivalence():
    with criterion(2, "spearman-oracle-equivalence", 5.0):
        rng = make_rng(20260809)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(3, 51))
            # integer draws on a narrow range inject plenty of ties
            x = rng.integers(0, max(2, n // 2), size=n).astype(float)
            y = rng.integers(0, max(2, n // 2), size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            oracle = pearson(brute_force_ranks(x), brute_force_ranks(y))
            assert abs(spearman(x, y) - oracle) <= 1e-12
            checked += 1


def test_criterion_03_gradient_correctness():
    with criterion(3, "gradient-correctness", 30.0):
        rng = make_rng(303)
        instances = 0
        for pooling in ("cls", "mean", "max"):
            for _ in range(12):
                assert check_nli_instance(rng, pooling) < 1e-4
                instances += 1
            for tied in (True, False):
                for _ in range(12):
                    assert check_def_instance(rng, pooling, tied) < 1e-4
                    instances += 1
        assert instances >= 100


def test_criterion_04_partition_invariants():
    with criterion(4, "partition-invariants", 5.0):
        rng = make_rng(404)
        pairs = make_random_sts(rng, 10_000, n_sources=7)

        by_source = partition_by_source(pairs)
        pooled = concat_subsets(by_source)
        assert sorted(id(p) for p in pooled) == sorted(id(p) for p in pairs)
        assert sum(by_source.sizes()) == len(pairs)

        quintiles = partition_by_dice(pairs, k=5)
        sizes = quintiles.sizes()
        assert sum(sizes) == len(pairs)
        assert max(sizes) - min(sizes) <= 1
        minima = [min(dice(p.sentence1, p.sentence2) for p in subset)
                  for _, subset in quintiles.subsets]
        assert all(b >= a - 1e-12 for a, b in zip(minima, minima[1:]))


def test_criterion_05_toy_training_efficacy():
    with criterion(5, "toy-training-efficacy", 120.0):
        rng = make_rng(505)
        sts = make_sts_corpus(rng, 300)
        nli = make_nli_corpus(rng, 1920)
        defs = make_definition_corpus(rng)
        texts = ([e.premise for e in nli] + [e.hypothesis for e in nli]
                 + [e.definition for e in defs] + [e.word for e in defs])
        vocab = build_vocab(texts)
        nli, defs = IndexedExamples.nli(nli, vocab), IndexedExamples.definitions(defs, vocab)

        gains = {"sbert": [], "defsent": []}
        loss_ratios = {"sbert": [], "defsent": []}
        for seed in (0, 1, 2):
            base = fresh_encoder(vocab, 16, "mean", seed=seed)
            rho_init, _ = eval_sts(base, sts)

            enc = fresh_encoder(vocab, 16, "mean", seed=seed)
            [result] = run_pipeline("sbert", [enc], TrainConfig(base_lr=1e-2, epochs=2), nli, seeds=[seed])
            losses = [s.loss for s in result.stage_steps[0]]
            gains["sbert"].append(eval_sts(enc, sts)[0] - rho_init)
            loss_ratios["sbert"].append(np.mean(losses[-10:]) / losses[0])

            enc = fresh_encoder(vocab, 16, "mean", seed=seed)
            [result] = run_pipeline("defsent", [enc], TrainConfig(base_lr=2e-2, epochs=10), def_data=defs,
                                    seeds=[seed])
            losses = [s.loss for s in result.stage_steps[0]]
            gains["defsent"].append(eval_sts(enc, sts)[0] - rho_init)
            loss_ratios["defsent"].append(np.mean(losses[-10:]) / losses[0])

        for objective in ("sbert", "defsent"):
            assert np.mean(gains[objective]) >= 0.2, (objective, gains[objective])
            assert np.mean(loss_ratios[objective]) <= 0.5, (objective, loss_ratios[objective])


def test_criterion_06_combination_property():
    with criterion(6, "combination-property", 60.0):
        rng = make_rng(606)
        task, provider_a, provider_b = make_paired_feature_probe(rng, n=400,
                                                                 separation=6.0, noise=0.3)
        config = ProbeConfig()
        concat = CombinedProvider("concat", provider_a, provider_b)
        # one call: the two 6-dim providers fit as one stack, the 12-dim concat apart
        acc_a, acc_b, acc_concat = eval_probe(
            [probe_features(provider, task) for provider in (provider_a, provider_b, concat)], task, config)
        assert acc_concat >= max(acc_a, acc_b), (acc_a, acc_b, acc_concat)
        assert concat.dim == provider_a.dim + provider_b.dim

        # Average(P, P) reproduces P's STS scores exactly
        store = EmbeddingStore(4, name="p")
        pairs = make_random_sts(rng, 40, vocab_size=30)
        for p in pairs:
            for s in (p.sentence1, p.sentence2):
                if s not in store:
                    store.add(s, rng.normal(size=4))
        assert eval_sts(CombinedProvider("average", store, store), pairs) == eval_sts(store, pairs)


def test_criterion_07_probe_harness_contract():
    with criterion(7, "probe-harness-contract", 60.0):
        folds = kfold_split(23, 10, make_rng(7))
        assert sorted(len(f) for f in folds) == [2] * 7 + [3] * 3
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(23))

        rng = make_rng(707)
        task, store = make_blob_probe(rng, n_per_class=40, n_classes=2, separation=6.0)
        assert eval_probe([probe_features(store, task)], task, ProbeConfig())[0] >= 0.95

        task, store = make_blob_probe(rng, n_per_class=200, n_classes=2, separation=0.0)
        [shuffled] = eval_probe([probe_features(store, task)], task, ProbeConfig())
        assert 0.4 <= shuffled <= 0.6, shuffled


def test_criterion_08_multi_scheduler_pattern():
    with criterion(8, "multi-scheduler-pattern", 1.0):
        rng = make_rng(808)
        nli = make_nli_corpus(rng, 160, n_topics=4, words_per_topic=8, sentence_len=3)
        defs = make_definition_corpus(rng, n_topics=4, words_per_topic=8,
                                      sentence_len=3, per_word=1)
        texts = ([e.premise for e in nli] + [e.hypothesis for e in nli]
                 + [e.definition for e in defs] + [e.word for e in defs])
        vocab = build_vocab(texts)
        enc = fresh_encoder(vocab, 5, "mean", seed=0)
        [result] = run_pipeline("multi", [enc], TrainConfig(batch_size=4, epochs=1),
                                IndexedExamples.nli(nli, vocab), IndexedExamples.definitions(defs, vocab), seeds=[0])
        [steps] = result.stage_steps
        assert len(steps) == 40
        streams = [s.stream for s in steps]
        assert streams == (["nli"] * 19 + ["def"]) * 2
        assert stream_pattern(steps) == [("nli", 19), ("def", 1), ("nli", 19), ("def", 1)]


def _write_world(tmp_path, rng):
    world = dict(n_topics=4, words_per_topic=10, sentence_len=4)
    nli = tmp_path / "nli.tsv"
    defs = tmp_path / "defs.tsv"
    sts = tmp_path / "sts.tsv"
    save_nli(make_nli_corpus(rng, 320, **world), nli)
    save_definitions(make_definition_corpus(rng, per_word=1, **world), defs)
    save_sts(make_sts_corpus(rng, 60, **world), sts)
    config = tmp_path / "exp.ini"
    config.write_text(
        f"[data]\nnli = {nli}\ndefinitions = {defs}\n\n"
        "[train]\ndim = 6\nepochs = 1\nbase_lr = 0.01\n"
    )
    return nli, defs, sts, config


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "byte-identical-reruns", 60.0):
        rng = make_rng(909)
        _, _, sts, config = _write_world(tmp_path, rng)
        checkpoints = []
        reports = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli_main(["train", "--method", "s+d", "--seed", "5",
                             "--out", str(out), "--config", str(config)]) == 0
            checkpoints.append((out / "checkpoint-seed5.json").read_bytes())
            eval_out = tmp_path / f"{name}-eval"
            assert cli_main(["eval", str(out / "checkpoint-seed5.json"),
                             "--sts", str(sts), "--out", str(eval_out)]) == 0
            reports.append(((eval_out / "report.json").read_bytes(),
                            (eval_out / "report.md").read_bytes()))
        assert checkpoints[0] == checkpoints[1]
        assert reports[0] == reports[1]


def test_criterion_10_dump_pathway(tmp_path):
    with criterion(10, "dump-pathway-equivalence", 60.0):
        rng = make_rng(1010)
        _, _, sts, config = _write_world(tmp_path, rng)
        out = tmp_path / "train"
        assert cli_main(["train", "--method", "sbert", "--seed", "0",
                         "--out", str(out), "--config", str(config)]) == 0
        ckpt = out / "checkpoint-seed0.json"

        pairs = load_sts(sts)
        sentences = tmp_path / "sentences.txt"
        unique = dict.fromkeys(s for p in pairs for s in (p.sentence1, p.sentence2))
        sentences.write_text("".join(f"{s}\n" for s in unique))
        emb_out = tmp_path / "emb"
        assert cli_main(["embed", str(ckpt), "--sentences", str(sentences),
                         "--out", str(emb_out)]) == 0

        mem_out = tmp_path / "eval-mem"
        dump_out = tmp_path / "eval-dump"
        assert cli_main(["eval", str(ckpt), "--sts", str(sts), "--out", str(mem_out)]) == 0
        assert cli_main(["eval", str(emb_out / "embeddings.txt"), "--sts", str(sts),
                         "--out", str(dump_out)]) == 0
        mem = json.loads((mem_out / "report.json").read_text())["sts"]
        dump = json.loads((dump_out / "report.json").read_text())["sts"]
        # bit-identical scores (provider names differ by construction)
        assert json.dumps(mem["subsets"], sort_keys=True) == json.dumps(dump["subsets"], sort_keys=True)
