"""End-to-end command-line tests: partitioning, training, dumps, evaluation."""

import argparse
import json
import logging
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import sentsig.corpus
import sentsig.encoder
import sentsig.objectives
from sentsig import cli
from sentsig.checkpoint import load_checkpoint
from sentsig.cli import main
from sentsig.corpus import (DefinitionExample, load_definitions, load_nli, load_sts, save_definitions, save_nli,
                            save_sts)
from sentsig.encoder import ToyEncoder, load_dump
from sentsig.numstat import make_rng
from sentsig.objectives import lockstep_groups
from sentsig.synth import (
    make_definition_corpus,
    make_nli_corpus,
    make_random_sts,
    make_sts_corpus,
)

WORLD = dict(n_topics=4, words_per_topic=10, sentence_len=4)


@pytest.fixture
def data(tmp_path):
    rng = make_rng(99)
    nli_path = tmp_path / "nli.tsv"
    defs_path = tmp_path / "defs.tsv"
    sts_path = tmp_path / "sts.tsv"
    save_nli(make_nli_corpus(rng, 320, **WORLD), nli_path)
    save_definitions(make_definition_corpus(rng, per_word=1, **WORLD), defs_path)
    save_sts(make_sts_corpus(rng, 60, **WORLD), sts_path)
    return {"nli": nli_path, "defs": defs_path, "sts": sts_path, "root": tmp_path}


def run(argv):
    return main([str(a) for a in argv])


class TestPartitionCommand:
    def test_source_scheme_files_and_sizes(self, tmp_path):
        rng = make_rng(1)
        sts = tmp_path / "input.tsv"
        save_sts(make_random_sts(rng, 60, n_sources=3), sts)
        out = tmp_path / "parts"
        assert run(["partition", sts, "--scheme", "source", "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sum(e["n"] for e in summary["subsets"]) == 60
        for entry in summary["subsets"]:
            subset = load_sts(out / entry["file"])
            assert len(subset) == entry["n"]
            assert {p.source for p in subset} == {entry["label"]}
        assert (out / "manifest.json").exists()

    def test_dice_scheme_equal_fifths(self, tmp_path):
        rng = make_rng(2)
        sts = tmp_path / "input.tsv"
        save_sts(make_random_sts(rng, 100), sts)
        out = tmp_path / "parts"
        assert run(["partition", sts, "--scheme", "dice", "--k", 5, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [e["n"] for e in summary["subsets"]] == [20] * 5
        boundaries = [(e["min_dice"], e["max_dice"]) for e in summary["subsets"]]
        for (_, hi), (lo, _) in zip(boundaries, boundaries[1:]):
            assert lo >= hi - 1e-12

    def test_dice_scheme_scores_each_pair_once(self, tmp_path, monkeypatch):
        rng = make_rng(4)
        sts = tmp_path / "input.tsv"
        save_sts(make_random_sts(rng, 50), sts)
        calls = Counter()
        for module in (sentsig.corpus, cli):
            def counting(s1, s2, dice=module.dice):
                calls[s1, s2] += 1
                return dice(s1, s2)
            monkeypatch.setattr(module, "dice", counting)
        out = tmp_path / "parts"
        assert run(["partition", sts, "--scheme", "dice", "--k", 4, "--out", out]) == 0
        assert sum(calls.values()) == 50
        monkeypatch.undo()
        for entry in json.loads((out / "summary.json").read_text())["subsets"]:
            values = [sentsig.corpus.dice(p.sentence1, p.sentence2) for p in load_sts(out / entry["file"])]
            assert (entry["min_dice"], entry["max_dice"]) == (min(values), max(values))

    def test_rerun_byte_identical(self, tmp_path):
        rng = make_rng(3)
        sts = tmp_path / "input.tsv"
        save_sts(make_random_sts(rng, 40), sts)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["partition", sts, "--scheme", "dice", "--out", out]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))})
        assert outputs[0] == outputs[1]

    def test_multiple_inputs_pooled_before_sorting(self, tmp_path):
        # e.g. train/dev/test files of one benchmark are Dice-partitioned jointly
        rng = make_rng(9)
        pairs = make_random_sts(rng, 30)
        files = []
        for i, chunk in enumerate((pairs[:10], pairs[10:20], pairs[20:])):
            f = tmp_path / f"part{i}.tsv"
            save_sts(chunk, f)
            files.append(f)
        out_pooled = tmp_path / "pooled"
        assert run(["partition", *files, "--scheme", "dice", "--out", out_pooled]) == 0
        whole = tmp_path / "whole.tsv"
        save_sts(pairs, whole)
        out_whole = tmp_path / "whole"
        assert run(["partition", whole, "--scheme", "dice", "--out", out_whole]) == 0
        for f in sorted(out_pooled.glob("*.tsv")):
            assert f.read_bytes() == (out_whole / f.name).read_bytes()

    def test_parse_error_nonzero_exit_no_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("src\t9.5\ta b\tc d\n")
        out = tmp_path / "parts"
        assert run(["partition", bad, "--scheme", "source", "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestTrainCommand:
    def test_sbert_checkpoint_roundtrip(self, data):
        out = data["root"] / "run"
        code = run(["train", "--method", "sbert", "--seed", 0, "--dim", 8,
                    "--out", out, "--config", _config(data)])
        assert code == 0
        ckpt = load_checkpoint(out / "checkpoint-seed0.json")
        assert ckpt.encoder.dim == 8
        assert "nli_W" in ckpt.heads
        v = ckpt.encoder.embed("t00w000 t00w001")
        assert v.shape == (8,)

    def test_rerun_byte_identical_checkpoints(self, data):
        blobs = []
        for name in ("r1", "r2"):
            out = data["root"] / name
            assert run(["train", "--method", "defsent", "--seed", 3,
                        "--out", out, "--config", _config(data)]) == 0
            blobs.append((out / "checkpoint-seed3.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_sequential_method_stage_order(self, data):
        out = data["root"] / "sd"
        assert run(["train", "--method", "s+d", "--seed", 0, "--out", out,
                    "--config", _config(data)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        stages = [s["stage"] for s in manifest["stages"]["seed0"]]
        assert stages == ["sbert", "defsent"]

    def test_multi_pattern_in_manifest(self, data):
        out = data["root"] / "multi"
        assert run(["train", "--method", "multi", "--seed", 0, "--out", out,
                    "--config", _config(data)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        pattern = manifest["stages"]["seed0"][0]["stream_pattern"]
        assert pattern == [["nli", 19], ["def", 1]]  # 320 examples -> one 20-step cycle

    def test_multiple_seeds_produce_artifacts(self, data):
        out = data["root"] / "seeds"
        assert run(["train", "--method", "sbert", "--seeds", "0 1", "--out", out,
                    "--config", _config(data)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"seed0", "seed1"}

    def test_seeds_trained_one_group_at_a_time_save_the_same_checkpoints(self, data, monkeypatch):
        argv = ["train", "--method", "d+s", "--seeds", "0 1 2", "--config", _config(data)]
        together, alone = data["root"] / "together", data["root"] / "alone"
        groups = []
        def recording(*args, seeds, real=cli.run_pipeline):
            groups.append(list(seeds))
            return real(*args, seeds=seeds)
        monkeypatch.setattr(cli, "run_pipeline", recording)
        assert run([*argv, "--out", together]) == 0
        monkeypatch.setattr(sentsig.objectives, "LOCKSTEP_BYTES", 1)  # no two tables fit
        assert run([*argv, "--out", alone]) == 0
        assert groups == [[0, 1, 2], [0], [1], [2]]
        files = sorted(p.name for p in together.iterdir() if p.name != "manifest.json")
        assert files == sorted(p.name for p in alone.iterdir() if p.name != "manifest.json")
        assert len(files) == 6  # each seed's JSON and table sidecar
        for name in files:
            assert (together / name).read_bytes() == (alone / name).read_bytes(), name

    @pytest.mark.parametrize("seeds", ["5", "0 1 2"])
    @pytest.mark.parametrize("method", ["sbert", "s+d"])
    def test_untrained_checkpoint_holds_the_initial_table(self, data, monkeypatch, method, seeds):
        # training draws each seed's initial table into its optimizer a chunk
        # of rows at a time; zero epochs save it as drawn
        monkeypatch.setattr(sentsig.encoder, "DRAW_CHUNK", 31)  # 5 rows of d=6 per draw
        config = _config(data)
        config.write_text(config.read_text().replace("epochs = 1", "epochs = 0"))
        out = data["root"] / "zero"
        assert run(["train", "--method", method, "--seeds", seeds, "--out", out, "--config", config]) == 0
        seed_list = [int(seed) for seed in seeds.split()]
        for seed in seed_list:
            encoder = load_checkpoint(out / f"checkpoint-seed{seed}.json").encoder
            vocab = encoder.vocab
            assert len(vocab) > 2 * 5 and len(vocab) % 5  # several draws, the last one short
            assert lockstep_groups(seed_list, len(vocab), 6) == [seed_list]  # trained as one group
            single_draw = make_rng(seed).uniform(-0.5 / 6, 0.5 / 6, size=(len(vocab), 6))
            for expected in (ToyEncoder.create(vocab, 6, "mean", seed=seed).table, single_draw):
                np.testing.assert_array_equal(encoder.table.view(np.int64), expected.view(np.int64))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB of a glibc process")
    def test_later_train_commands_of_a_process_peak_no_higher(self, tmp_path):
        # a 5 MB table lies between glibc's first (128 KiB) and largest (32 MiB)
        # mmap thresholds: a table-sized array freed while training starts
        # would stay resident in the heap and lift the peak of the next train
        words = [f"w{i:05d}" for i in range(9998)]
        save_definitions([DefinitionExample(words[i], " ".join(words[100 * i : 100 * (i + 1)]))
                          for i in range(100)], tmp_path / "defs.tsv")
        config = tmp_path / "exp.ini"
        config.write_text(f"[data]\ndefinitions = {tmp_path / 'defs.tsv'}\n\n[train]\ndim = 64\n")
        script = ("import resource, sys\n"
                  "from sentsig.cli import main\n"
                  "for k in range(3):\n"
                  "    assert main(['train', '--method', 'defsent', '--config', sys.argv[1],\n"
                  "                 '--out', f'{sys.argv[2]}/run{k}']) == 0\n"
                  "    print('peak', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)],
                              capture_output=True, text=True, check=True)
        peaks = [int(line.split()[1]) for line in proc.stdout.splitlines() if line.startswith("peak ")]
        table_kib = 10_000 * 64 * 8 / 1024
        assert len(peaks) == 3
        assert all(peak - peaks[0] < 0.4 * table_kib for peak in peaks[1:]), peaks

    def test_each_training_text_tokenized_once(self, data, monkeypatch):
        calls = Counter()
        for module in (sentsig.corpus, sentsig.encoder, sentsig.objectives):
            def counting(text, tokenize=module.tokenize):
                calls[text] += 1
                return tokenize(text)
            monkeypatch.setattr(module, "tokenize", counting)
        out = data["root"] / "multi2"
        assert run(["train", "--method", "multi", "--seeds", "0 1", "--out", out,
                    "--config", _config(data)]) == 0
        nli, defs = load_nli(data["nli"]), load_definitions(data["defs"])
        texts = ({t for ex in nli for t in (ex.premise, ex.hypothesis)}
                 | {t for ex in defs for t in (ex.definition, ex.word)})
        assert set(calls) == texts
        assert set(calls.values()) == {1}

    def test_headwords_differing_from_their_token_train(self, tmp_path, caplog):
        defs = tmp_path / "defs.tsv"
        defs.write_text("Apple\ta red fruit\nbanana\ta long fruit\nCherry.\ta small red fruit\n")
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[data]\ndefinitions = {defs}\n")
        with caplog.at_level(logging.INFO, logger="sentsig.objectives"):
            assert run(["train", "--method", "defsent", "--out", tmp_path / "out", "--config", ini]) == 0
        assert "dropped" not in caplog.text

    def test_untrainable_method_rejected(self, data, capsys):
        # argparse blocks --method average, so route it through the config file
        cfg = data["root"] / "avg.ini"
        cfg.write_text(f"[data]\nnli = {data['nli']}\n\n[train]\nmethod = average\n")
        out = data["root"] / "bad"
        assert run(["train", "--out", out, "--config", cfg]) == 2
        assert "not trainable" in capsys.readouterr().err

    def test_missing_dataset_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["train", "--method", "sbert", "--out", out]) == 2
        assert "NLI" in capsys.readouterr().err

    def test_non_finite_table_exit_2_no_files(self, data, monkeypatch, capsys):
        real = cli.run_pipeline

        def diverged(*args, **kwargs):
            results = real(*args, **kwargs)
            results[0].params["table"][3, 0] = np.nan
            return results

        monkeypatch.setattr(cli, "run_pipeline", diverged)
        out = data["root"] / "nan"
        assert run(["train", "--method", "defsent", "--seed", 0, "--out", out,
                    "--config", _config(data)]) == 2
        assert "NaN or Inf" in capsys.readouterr().err
        assert list(out.iterdir()) == []


BAD_VALUES = [
    ("[train]\ndim = abc\n", [], "[train] dim: invalid value 'abc'"),
    ("[train]\nbase_lr = fast\n", [], "[train] base_lr: invalid value 'fast'"),
    ("[train]\nseeds = 0 x\n", [], "[train] seeds: invalid value '0 x'"),
    ("[probe]\nfolds = ten\n", [], "[probe] folds: invalid value 'ten'"),
    ("", ["--seeds", "0 x"], "seed list '0 x'"),
    ("[train]\nbucket_width = 0\n", [], "bucket_width must be >= 1"),
    ("[probe]\nbatch_size = 0\n", [], "probe batch_size must be >= 1"),
    ("[probe]\nepochs = -1\n", [], "probe epochs must be >= 0"),
    ("[probe]\nlr = 0\n", [], "probe lr must be positive"),
    ("", ["--seeds", "0 1 0"], "duplicate seed 0"),
    ("", ["--seeds", "-1"], "seed list '-1': seeds must be >= 0"),
    ("", ["--seed", "-1"], "seed list '-1': seeds must be >= 0"),
    ("[train]\nseeds = 2 -3\n", [], "seed list '2 -3': seeds must be >= 0"),
    ("[probe]\nseed = -1\n", [], "probe seed must be >= 0"),
    ("", ["--dim", "0"], "embedding dimension must be >= 1"),
    ("[train]\nbeta1 = -1\n", [], "beta1 must be in [0, 1)"),
    ("[train]\nbeta1 = 1e308\n", [], "beta1 must be in [0, 1)"),
    ("[train]\nbeta2 = 2\n", [], "beta2 must be in [0, 1)"),
    ("[train]\neps = -1\n", [], "eps must be positive and finite"),
    ("[train]\neps = inf\n", [], "eps must be positive and finite"),
    ("[train]\nbase_lr = nan\n", [], "base_lr must be positive and finite"),
    ("[probe]\nlr = nan\n", [], "probe lr must be positive and finite"),
]


@pytest.mark.parametrize("section, flags, message", BAD_VALUES,
                         ids=["dim", "base_lr", "seeds", "probe-folds", "seeds-flag", "bucket-width",
                              "probe-batch-size", "probe-epochs", "probe-lr", "duplicate-seed",
                              "negative-seeds-flag", "negative-seed-flag", "negative-seeds",
                              "negative-probe-seed", "zero-dim", "negative-beta1", "huge-beta1", "beta2-two",
                              "negative-eps", "infinite-eps", "nan-base-lr", "nan-probe-lr"])
def test_bad_value_exit_2_no_manifest(data, capsys, section, flags, message):
    cfg = data["root"] / "bad.ini"
    cfg.write_text(f"[data]\nnli = {data['nli']}\n\n{section}")
    out = data["root"] / "bad"
    assert run(["train", "--method", "sbert", "--out", out, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not (out / "manifest.json").exists()


CONFIG_KEYS = (
    {("data", key) for key in ("sts", "nli", "definitions")}
    | {("train", key) for key in (
        "method", "dim", "pooling", "min_count", "seeds", "out", "batch_size", "epochs",
        "base_lr", "warmup_fraction", "smart_batching", "bucket_width", "lr_decay",
        "tied_head", "head_bias", "beta1", "beta2", "eps", "nli_cycle", "def_cycle")}
    | {("probe", key) for key in ("folds", "batch_size", "epochs", "lr", "seed")}
)


def test_config_keys_pinned(tmp_path, capsys):
    assert len(CONFIG_KEYS) == 28
    assert set(cli.CONFIG_KEYS) == CONFIG_KEYS
    ini = tmp_path / "adam.ini"
    ini.write_text("[train]\nbeta1 = 0.5\nbeta2 = 0.75\neps = 0.25\n")
    cfg = cli.load_experiment_config(str(ini), argparse.Namespace())
    for config in (cfg.train, cfg.probe):
        assert (config.beta1, config.beta2, config.eps) == (0.5, 0.75, 0.25)
    ini.write_text("[probe]\nbeta1 = 0.5\n")
    assert run(["train", "--config", ini, "--out", tmp_path / "x"]) == 2
    assert "unknown config key [probe] beta1" in capsys.readouterr().err


# (case, input files, argv, message): each file is written as <key>.in after filling in
# the paths of the files before it, and "@" is written as the byte 0xff, which is not UTF-8
BAD_INPUTS = [
    ("nli", {"nli": "neutral\ta b\tc d\nneutral\ta @\tc\n", "ini": "[data]\nnli = {nli}\n"},
     ["train", "--method", "sbert", "--config", "{ini}"], "nli.in:2: not UTF-8"),
    ("definitions", {"defs": "w\t@ b\n", "ini": "[data]\ndefinitions = {defs}\n"},
     ["train", "--method", "defsent", "--config", "{ini}"], "defs.in:1: not UTF-8"),
    ("nli-no-tokens", {"nli": "neutral\ta b\tc d\nneutral\t...\tc\n", "ini": "[data]\nnli = {nli}\n"},
     ["train", "--method", "sbert", "--config", "{ini}"], "text has no tokens: '...'"),
    ("definitions-no-tokens", {"defs": "w\ta b\nv\t!!!\n", "ini": "[data]\ndefinitions = {defs}\n"},
     ["train", "--method", "defsent", "--config", "{ini}"], "text has no tokens: '!!!'"),
    ("config", {"ini": "[train]\ndim = @\n"}, ["train", "--config", "{ini}"], "ini.in"),
    ("partition", {"sts": "s\t1\ta\tb\ns\t2\t@\tb\n"},
     ["partition", "{sts}", "--scheme", "source"], "sts.in:2: not UTF-8"),
    ("eval-sts", {"sts": "s\t1\ta @\tb\n"}, ["eval", "{ckpt}", "--sts", "{sts}"],
     "sts.in:1: not UTF-8"),
    ("eval-probe", {"probe": "x\ta\ny\t@\n"}, ["eval", "{ckpt}", "--probe", "{probe}"],
     "probe.in:2: not UTF-8"),
    ("eval-probe-divergence",
     {"probe": "".join(f"{c}\tt0{c}w{i % 12:03d}\n" for c in (0, 1) for i in range(20)),
      "ini": "[probe]\nlr = 1e308\n"},
     ["eval", "{ckpt}", "--probe", "{probe}", "--config", "{ini}"], "[probe] lr"),
    ("eval-dump", {"dump": "dim=1\na\t1.0\n@\t2.0\n"}, ["eval", "{dump}", "--sts", "{fixture_sts}"],
     "dump.in:3: not UTF-8"),
    ("eval-sidecar", {}, ["eval", "{sidecar}", "--sts", "{fixture_sts}"],
     "neither an embedding dump nor a checkpoint"),
    ("combine-eval-sidecar", {},
     ["combine-eval", "--a", "{ckpt}", "--b", "{sidecar}", "--mode", "concat", "--sts", "{fixture_sts}"],
     "neither an embedding dump nor a checkpoint"),
    ("embed", {"sentences": "a\n@\n"}, ["embed", "{ckpt}", "--sentences", "{sentences}"],
     "sentences.in:2: not UTF-8"),
]


@pytest.mark.parametrize("files, argv, message", [c[1:] for c in BAD_INPUTS],
                         ids=[c[0] for c in BAD_INPUTS])
def test_malformed_input_exit_2_no_manifest(trained, tmp_path, capsys, files, argv, message):
    paths = {"ckpt": trained["ckpt0"], "fixture_sts": trained["sts"],
             "sidecar": trained["ckpt0"].with_name("checkpoint-seed0.table.npy")}
    for key, text in files.items():
        paths[key] = tmp_path / f"{key}.in"
        paths[key].write_bytes(text.format(**paths).encode("utf-8").replace(b"@", b"\xff"))
    out = tmp_path / "out"
    assert run([arg.format(**paths) for arg in argv] + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not (out / "manifest.json").exists()


# (case, summary.json text): each is a partition directory that eval must reject
BAD_SUMMARIES = [
    ("truncated", '{"subsets": ['),
    ("not-json", "scheme: dice\n"),
    ("no-subsets", '{"scheme": "dice"}'),
    ("not-an-object", '[{"label": "a", "file": "a.tsv"}]'),
    ("entry-without-label", '{"subsets": [{"file": "a.tsv"}]}'),
    ("entry-without-file", '{"subsets": [{"label": "a"}]}'),
]


@pytest.mark.parametrize("text", [c[1] for c in BAD_SUMMARIES], ids=[c[0] for c in BAD_SUMMARIES])
def test_malformed_partition_summary_exit_2_no_manifest(trained, tmp_path, capsys, text):
    parts = tmp_path / "parts"
    parts.mkdir()
    save_sts(load_sts(trained["sts"]), parts / "a.tsv")
    (parts / "summary.json").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run(["eval", trained["ckpt0"], "--partition-dir", parts, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "summary.json" in err
    assert not (out / "manifest.json").exists()


def _config(data):
    path = data["root"] / "exp.ini"
    path.write_text(
        "[data]\n"
        f"nli = {data['nli']}\n"
        f"definitions = {data['defs']}\n"
        "\n"
        "[train]\n"
        "dim = 6\n"
        "epochs = 1\n"
        "base_lr = 0.01\n"
    )
    return path


@pytest.fixture
def trained(data):
    out = data["root"] / "trained"
    assert run(["train", "--method", "sbert", "--seeds", "0 1", "--dim", 6,
                "--out", out, "--config", _config(data)]) == 0
    return {"ckpt0": out / "checkpoint-seed0.json", "ckpt1": out / "checkpoint-seed1.json", **data}


class TestEmbedCommand:
    def test_dump_has_all_sentences(self, trained, tmp_path):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("t00w000 t00w001\nt01w002\nt02w003 t03w004\n")
        out = tmp_path / "emb"
        assert run(["embed", trained["ckpt0"], "--sentences", sentences, "--out", out]) == 0
        store = load_dump(out / "embeddings.txt")
        assert len(store) == 3
        assert store.dim == 6
        out2 = tmp_path / "emb2"
        assert run(["embed", trained["ckpt0"], "--sentences", sentences, "--out", out2]) == 0
        assert (out / "embeddings.txt").read_bytes() == (out2 / "embeddings.txt").read_bytes()

    def test_duplicates_deduplicated_with_warning(self, trained, tmp_path, capsys):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("same line\nsame line\nother\n")
        out = tmp_path / "emb"
        assert run(["embed", trained["ckpt0"], "--sentences", sentences, "--out", out]) == 0
        assert "duplicate" in capsys.readouterr().err
        assert len(load_dump(out / "embeddings.txt")) == 2

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_no_sentences_write_a_header_only_dump(self, trained, tmp_path, capsys, text):
        sentences = tmp_path / "sents.txt"
        sentences.write_text(text)
        for flags, dim in (([trained["ckpt0"]], 6),
                           ([trained["ckpt0"], trained["ckpt1"], "--combine", "average"], 6),
                           ([trained["ckpt0"], trained["ckpt1"], "--combine", "concat"], 12)):
            out = tmp_path / f"emb{len(flags)}-{dim}"
            assert run(["embed", *flags, "--sentences", sentences, "--out", out]) == 0
            assert (out / "embeddings.txt").read_bytes() == f"dim={dim}\n".encode()
            assert (out / "manifest.json").exists()
            assert len(load_dump(out / "embeddings.txt")) == 0
            assert "wrote 0 embeddings" in capsys.readouterr().out

    def test_average_combination_is_row_mean(self, trained, tmp_path):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("t00w000 t00w001\nt01w002\n")
        outs = {}
        for tag, ckpt in (("a", trained["ckpt0"]), ("b", trained["ckpt1"])):
            out = tmp_path / tag
            assert run(["embed", ckpt, "--sentences", sentences, "--out", out]) == 0
            outs[tag] = load_dump(out / "embeddings.txt")
        out = tmp_path / "avg"
        assert run(["embed", trained["ckpt0"], trained["ckpt1"], "--combine", "average",
                    "--sentences", sentences, "--out", out]) == 0
        combined = load_dump(out / "embeddings.txt")
        for sentence, vec in combined.items():
            expected = (outs["a"].embed(sentence) + outs["b"].embed(sentence)) / 2
            np.testing.assert_array_equal(vec, expected)


class TestEvalCommand:
    def test_partition_dir_report_shape(self, trained, tmp_path):
        parts = tmp_path / "parts"
        assert run(["partition", trained["sts"], "--scheme", "dice", "--out", parts]) == 0
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], "--partition-dir", parts, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        labels = [e["label"] for e in report["sts"]["subsets"]]
        assert labels == ["0-20%", "20-40%", "40-60%", "60-80%", "80-100%", "ALL"]

    def test_multiple_checkpoints_mark_seed_mean(self, trained, tmp_path):
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], trained["ckpt1"],
                    "--sts", trained["sts"], "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["sts"]["n_seeds"] == 2
        for subset in report["sts"]["subsets"]:
            assert len(subset["per_seed"]["spearman_x100"]) == 2

    def test_rerun_byte_identical_reports(self, trained, tmp_path):
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run(["eval", trained["ckpt0"], "--sts", trained["sts"], "--out", out]) == 0
            blobs.append(((out / "report.json").read_bytes(), (out / "report.md").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_dump_pathway_matches_in_memory(self, trained, tmp_path):
        # write every sentence of the STS file through cmd_embed, then compare reports
        pairs = load_sts(trained["sts"])
        sentences = tmp_path / "sents.txt"
        seen = dict.fromkeys(s for p in pairs for s in (p.sentence1, p.sentence2))
        sentences.write_text("".join(f"{s}\n" for s in seen))
        emb = tmp_path / "emb"
        assert run(["embed", trained["ckpt0"], "--sentences", sentences, "--out", emb]) == 0
        out_mem = tmp_path / "mem"
        out_dump = tmp_path / "dump"
        assert run(["eval", trained["ckpt0"], "--sts", trained["sts"], "--out", out_mem]) == 0
        assert run(["eval", emb / "embeddings.txt", "--sts", trained["sts"], "--out", out_dump]) == 0
        mem = json.loads((out_mem / "report.json").read_text())
        dump = json.loads((out_dump / "report.json").read_text())
        for a, b in zip(mem["sts"]["subsets"], dump["sts"]["subsets"]):
            assert a["spearman_x100"] == b["spearman_x100"]
            assert a["pearson_x100"] == b["pearson_x100"]

    def test_probe_only_eval(self, trained, tmp_path):
        probe = tmp_path / "probe.tsv"
        lines = []
        for i in range(30):
            lines.append(f"first\tt00w{i:03d}")
            lines.append(f"second\tt01w{i:03d}")
        probe.write_text("".join(f"{line}\n" for line in lines))
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], "--probe", probe, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "probe" in report["probes"]
        assert 0.0 <= report["probes"]["probe"]["accuracy_x100_mean"] <= 100.0

    def test_negative_probe_seed_exit_2(self, trained, tmp_path, capsys):
        probe = tmp_path / "probe.tsv"
        probe.write_text("".join(f"{c}\tt0{c}w{i % 12:03d}\n" for c in (0, 1) for i in range(20)))
        ini = tmp_path / "probe.ini"
        ini.write_text("[probe]\nseed = -1\n")
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], "--probe", probe, "--out", out, "--config", ini]) == 2
        assert capsys.readouterr().err.startswith("error: probe seed must be >= 0")
        assert not (out / "report.json").exists()

    def test_manifest_records_embedding_counts(self, trained, tmp_path):
        pairs = load_sts(trained["sts"])
        parts = tmp_path / "parts"
        parts.mkdir()
        save_sts(pairs[:1], parts / "a.tsv")  # too few pairs: skipped
        save_sts(pairs[1:] + pairs[:3], parts / "b.tsv")  # three pairs repeat
        probe = tmp_path / "probe.tsv"
        probe.write_text("".join(f"{c}\tt0{c}w{i % 12:03d}\n" for c in (0, 1) for i in range(20)))
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], trained["ckpt1"], "--partition-dir", parts,
                    "--probe", probe, "--out", out]) == 0
        slots = [s for p in pairs + pairs[:3] for s in (p.sentence1, p.sentence2)]
        sts = {"distinct": len(set(slots)), "reused": len(slots) - len(set(slots)),
               "skipped": [{"label": "a", "note": "too few pairs"}]}
        probes = {"probe": {"distinct": 24, "reused": 16}}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["embedding"] == [
            {"provider": "checkpoint-seed0", "sts": sts, "probes": probes},
            {"provider": "checkpoint-seed1", "sts": sts, "probes": probes},
        ]
        # counts stay out of the deterministic reports
        assert "distinct" not in (out / "report.json").read_text()

    @staticmethod
    def _probe_file(path):
        path.write_text("".join(f"{c}\tt0{c}w{i % 12:03d} t02w{i:03d}\n"
                                for c in (0, 1) for i in range(20)))
        return path

    def test_each_eval_sentence_tokenized_once(self, data, tmp_path, monkeypatch):
        run_dir = tmp_path / "three"
        assert run(["train", "--method", "sbert", "--seeds", "0 1 2", "--out", run_dir,
                    "--config", _config(data)]) == 0
        parts = tmp_path / "parts"
        assert run(["partition", data["sts"], "--scheme", "dice", "--out", parts]) == 0
        probe = self._probe_file(tmp_path / "probe.tsv")
        calls = Counter()
        for module in (sentsig.corpus, sentsig.encoder, sentsig.objectives):
            def counting(text, tokenize=module.tokenize):
                calls[text] += 1
                return tokenize(text)
            monkeypatch.setattr(module, "tokenize", counting)
        out = tmp_path / "eval"
        assert run(["eval", *(run_dir / f"checkpoint-seed{k}.json" for k in range(3)),
                    "--partition-dir", parts, "--probe", probe, "--out", out]) == 0
        sentences = ({s for p in load_sts(data["sts"]) for s in (p.sentence1, p.sentence2)}
                     | {line.split("\t")[1] for line in probe.read_text().splitlines()})
        assert set(calls) == sentences
        assert set(calls.values()) == {1}

    def test_two_vocabularies_score_as_if_evaluated_alone(self, data, tmp_path):
        ckpts = []
        for method in ("sbert", "defsent"):
            out = tmp_path / method
            assert run(["train", "--method", method, "--seed", 0, "--out", out,
                        "--config", _config(data)]) == 0
            ckpts.append(out / "checkpoint-seed0.json")
        vocabs = [load_checkpoint(c).encoder.vocab.words for c in ckpts]
        assert vocabs[0] != vocabs[1]
        probe = self._probe_file(tmp_path / "probe.tsv")

        def report(*providers):
            out = tmp_path / f"eval{len(list(tmp_path.glob('eval*')))}"
            assert run(["eval", *providers, "--sts", data["sts"], "--probe", probe, "--out", out]) == 0
            return json.loads((out / "report.json").read_text())

        both = report(*ckpts)
        for i, ckpt in enumerate(ckpts):
            alone = report(ckpt)
            for a, b in zip(alone["sts"]["subsets"], both["sts"]["subsets"]):
                assert b["per_seed"]["spearman_x100"][i] == a["spearman_x100"]
                assert b["per_seed"]["pearson_x100"][i] == a["pearson_x100"]
            assert (both["probes"]["probe"]["per_provider_x100"][i]
                    == alone["probes"]["probe"]["accuracy_x100_mean"])

    def test_nothing_to_evaluate_is_error(self, trained, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], "--out", out]) == 2
        assert "nothing to evaluate" in capsys.readouterr().err


class TestCombineEvalCommand:
    def test_average_of_identical_matches_single(self, trained, tmp_path):
        single = tmp_path / "single"
        combined = tmp_path / "combined"
        assert run(["eval", trained["ckpt0"], "--sts", trained["sts"], "--out", single]) == 0
        assert run(["combine-eval", "--a", trained["ckpt0"], "--b", trained["ckpt0"],
                    "--mode", "average", "--sts", trained["sts"], "--out", combined]) == 0
        lhs = json.loads((single / "report.json").read_text())["sts"]["subsets"]
        rhs = json.loads((combined / "report.json").read_text())["sts"]["subsets"]
        assert [e["spearman_x100"] for e in lhs] == [e["spearman_x100"] for e in rhs]

    def test_mismatched_pairing_rejected(self, trained, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["combine-eval", "--a", trained["ckpt0"], "--a", trained["ckpt1"],
                    "--b", trained["ckpt0"], "--mode", "concat",
                    "--sts", trained["sts"], "--out", out]) == 2
        assert "same number" in capsys.readouterr().err


def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "sentsig", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sentsig" in proc.stdout
