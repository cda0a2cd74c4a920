"""End-to-end command-line tests: partitioning, training, dumps, evaluation."""

import configparser
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sentsig.corpus
import sentsig.encoder
import sentsig.fileio
import sentsig.objectives
from sentsig import cli
from sentsig.checkpoint import load_checkpoint
from sentsig.cli import main
from sentsig.corpus import (DefinitionExample, StsPair, load_definitions, load_nli, load_sts, save_definitions,
                            save_nli, save_sts)
from generators import fresh_encoder, make_random_sts
from sentsig.encoder import load_dump
from sentsig.evalsuite import ProbeConfig
from sentsig.numstat import make_rng
from sentsig.objectives import TrainConfig, lockstep_groups
from sentsig.synth import make_definition_corpus, make_nli_corpus, make_sts_corpus

WORLD = dict(n_topics=4, words_per_topic=10, sentence_len=4)

# The peak resident size of a child process, in KiB.  Not ru_maxrss: Linux
# carries the parent's high-water mark across fork and exec, so a child of
# this test process would report at least the test process's own size.
PEAK_KIB = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"


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
        names = [f"checkpoint-seed{seed}{suffix}" for seed in (0, 1)
                 for suffix in (".json", ".table.npy", ".nli_W.npy", ".nli_b.npy")]
        assert manifest["artifacts"] == {name: (out / name).stat().st_size for name in names}

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
        assert len(files) == 3 * 5  # each seed's JSON and its table, nli_W, nli_b and def_bias sidecars
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
            # the single float64 draw, rounded to the float32 the model is held in
            single_draw = make_rng(seed).uniform(-0.5 / 6, 0.5 / 6, size=(len(vocab), 6)).astype(np.float32)
            for expected in (fresh_encoder(vocab, 6, "mean", seed=seed).table, single_draw):
                assert encoder.table.dtype == expected.dtype == np.float32
                np.testing.assert_array_equal(encoder.table.view(np.int32), expected.view(np.int32))

    def test_every_sidecar_is_float32_and_eval_holds_a_float32_table(self, data, monkeypatch):
        config = _config(data)
        config.write_text(config.read_text() + "tied_head = false\n")
        out = data["root"] / "f4"
        assert run(["train", "--method", "s+d", "--seeds", "0 1", "--out", out, "--config", config]) == 0
        sidecars = sorted(out.glob("*.npy"))
        assert len(sidecars) == 2 * 5  # table, nli_W, nli_b, def_W and def_bias of each seed
        for sidecar in sidecars:
            with open(sidecar, "rb") as fh:
                np.lib.format.read_magic(fh)
                _, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            assert (dtype.str, fortran_order) == ("<f4", False), sidecar.name
        tables = []

        def recording(path, real=cli.load_checkpoint):
            ckpt = real(path)
            tables.append(ckpt.encoder.table)
            return ckpt

        monkeypatch.setattr(cli, "load_checkpoint", recording)
        ckpts = [out / "checkpoint-seed0.json", out / "checkpoint-seed1.json"]
        assert run(["eval", *ckpts, "--sts", data["sts"], "--out", data["root"] / "eval"]) == 0
        assert [table.dtype for table in tables] == [np.float32, np.float32]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM of a glibc process")
    def test_later_train_commands_of_a_process_peak_no_higher(self, tmp_path):
        # a 2.5 MB table lies between glibc's first (128 KiB) and largest (32 MiB)
        # mmap thresholds: a table-sized array freed while training starts
        # would stay resident in the heap and lift the peak of the next train.
        # The bound, 2000 KiB, is 0.4 of the float64 table this test was sized
        # on; the float32 table is 2500 KiB, so a retained one still exceeds it
        words = [f"w{i:05d}" for i in range(9998)]
        save_definitions([DefinitionExample(words[i], " ".join(words[100 * i : 100 * (i + 1)]))
                          for i in range(100)], tmp_path / "defs.tsv")
        config = tmp_path / "exp.ini"
        config.write_text(f"[data]\ndefinitions = {tmp_path / 'defs.tsv'}\n\n[train]\ndim = 64\n")
        script = ("import sys\n"
                  "from sentsig.cli import main\n"
                  "for k in range(3):\n"
                  "    assert main(['train', '--method', 'defsent', '--config', sys.argv[1],\n"
                  "                 '--out', f'{sys.argv[2]}/run{k}']) == 0\n"
                  f"    print('peak', {PEAK_KIB})\n")
        proc = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path)],
                              capture_output=True, text=True, check=True)
        peaks = [int(line.split()[1]) for line in proc.stdout.splitlines() if line.startswith("peak ")]
        table_kib = 10_000 * 64 * 8 / 1024
        assert len(peaks) == 3
        assert all(peak - peaks[0] < 0.4 * table_kib for peak in peaks[1:]), peaks

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="thread count of a Linux process")
    def test_blas_threads_do_not_change_the_checkpoints(self, data):
        # the same train commands with OpenBLAS on one thread and on two: a
        # toy multi run of three seeds in lockstep, and a defsent world whose
        # head products (16 x 4000 x 32) are large enough to split across threads
        root = data["root"]
        words = [f"w{i:04d}" for i in range(3998)]
        save_definitions([DefinitionExample(words[i], " ".join(words[50 * i : 50 * (i + 1)]))
                          for i in range(80)], root / "wide-defs.tsv")
        wide = root / "wide.ini"
        wide.write_text(f"[data]\ndefinitions = {root / 'wide-defs.tsv'}\n\n[train]\ndim = 32\nepochs = 3\n")
        script = ("import sys\n"
                  "from sentsig.cli import main\n"
                  "toy, wide, out = sys.argv[1:]\n"
                  "assert main(['train', '--method', 'multi', '--seeds', '0 1 2', '--config', toy,\n"
                  "             '--out', out + '/multi']) == 0\n"
                  "assert main(['train', '--method', 'defsent', '--config', wide, '--out', out + '/defsent']) == 0\n"
                  "print('threads', open('/proc/self/status').read().split('Threads:')[1].split()[0])\n")
        digests, threads = {}, {}
        for n in (1, 2):
            out = root / f"threads{n}"
            proc = subprocess.run([sys.executable, "-c", script, str(_config(data)), str(wide), str(out)],
                                  env=dict(os.environ, OPENBLAS_NUM_THREADS=str(n)),
                                  capture_output=True, text=True, check=True)
            threads[n] = int(proc.stdout.splitlines()[-1].split()[1])
            digests[n] = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                          for path in out.rglob("checkpoint-*")}
        assert len(digests[1]) == 3 * 5 + 3  # JSON, table, NLI head and def_bias; defsent ties its head
        assert digests[1] == digests[2]
        if len(os.sched_getaffinity(0)) > 1:
            assert threads[2] > threads[1]  # the second thread was there to use

    def test_checkpoint_paths_printed_only_once_published(self, data, capsys):
        out = data["root"] / "run"
        (out / "checkpoint-seed1.json").mkdir(parents=True)  # moving the checkpoint onto it fails
        argv = ["train", "--method", "sbert", "--seeds", "0 1", "--out", out, "--config", _config(data)]
        assert run(argv) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith("error:")
        assert "->" not in printed.out
        (out / "checkpoint-seed1.json").rmdir()
        assert run(argv) == 0
        printed = capsys.readouterr().out
        for seed in (0, 1):
            assert f"seed {seed}: " in printed
            assert f"-> {out / f'checkpoint-seed{seed}.json'}\n" in printed

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

    def test_headwords_differing_from_their_token_train(self, tmp_path, capsys):
        defs = tmp_path / "defs.tsv"
        defs.write_text("Apple\ta red fruit\nbanana\ta long fruit\nCherry.\ta small red fruit\n")
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[data]\ndefinitions = {defs}\n")
        assert run(["train", "--method", "defsent", "--out", tmp_path / "out", "--config", ini]) == 0
        assert "dropped" not in capsys.readouterr().err
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["dropped_definitions"] == 0

    def test_dropped_definitions_warned_and_recorded(self, tmp_path, capsys):
        # with min_count = 2 only "apple" (a headword and in cherry's definition) is in the vocabulary
        defs = tmp_path / "defs.tsv"
        defs.write_text("apple\tred fruit\nbanana\tyellow fruit\ncherry\tred apple\ndate\tbrown fruit\n")
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[data]\ndefinitions = {defs}\n\n[train]\nmin_count = 2\nbatch_size = 1\n")
        out = tmp_path / "out"
        assert run(["train", "--method", "defsent", "--out", out, "--config", ini]) == 0
        assert "warning: dropped 3 definition example(s)" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dropped_definitions"] == 3
        assert manifest["stages"]["seed0"][0]["steps"] == 1

    def test_untrainable_method_rejected(self, data, capsys):
        # argparse blocks --method average, so route it through the config file
        cfg = data["root"] / "avg.ini"
        cfg.write_text(f"[data]\nnli = {data['nli']}\n\n[train]\nmethod = average\n")
        out = data["root"] / "bad"
        assert run(["train", "--out", out, "--config", cfg]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_checkpoint_records_every_train_setting(self, data):
        # each [train] key of TrainConfig at a value unlike its default, the cycle included
        recipe = {"batch_size": 7, "epochs": 2, "base_lr": 0.02, "tied_head": False, "nli_cycle": 3, "def_cycle": 2}
        assert set(recipe) == {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}
        assert all(value != getattr(TrainConfig(), key) for key, value in recipe.items())
        ini = data["root"] / "recipe.ini"
        ini.write_text(f"[data]\nnli = {data['nli']}\ndefinitions = {data['defs']}\n\n[train]\ndim = 6\n"
                       + "".join(f"{key} = {value}\n" for key, value in recipe.items()))
        out = data["root"] / "recipe"
        assert run(["train", "--method", "multi", "--seed", 5, "--out", out, "--config", ini]) == 0
        assert dataclasses.asdict(load_checkpoint(out / "checkpoint-seed5.json").train_config) == {
            **recipe, "seed": 5}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"] == {**recipe, "seed": 0}  # train.seed is unused
        assert manifest["stages"]["seed5"][0]["stream_pattern"][:2] == [["nli", 3], ["def", 2]]

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
        assert not out.exists()

    def test_overflowing_adam_step_exit_2_without_numpy_warning(self, data, capsys):
        # the first update overflows float32; the next loss call rejects the
        # non-finite table, and the update itself warns of nothing
        cfg = data["root"] / "huge-lr.ini"
        cfg.write_text(f"[data]\nnli = {data['nli']}\n\n[train]\ndim = 6\nbase_lr = 1e308\n")
        out = data["root"] / "huge-lr"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--method", "sbert", "--seed", 0, "--out", out, "--config", cfg]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "NaN or Inf" in err
        assert not out.exists()


BAD_VALUES = [
    ("[train]\ndim = abc\n", [], "[train] dim: invalid value 'abc'"),
    ("[train]\nbase_lr = fast\n", [], "[train] base_lr: invalid value 'fast'"),
    ("[train]\nseeds = 0 x\n", [], "[train] seeds: invalid value '0 x'"),
    ("[probe]\nfolds = ten\n", [], "unknown config key [probe] folds"),
    ("", ["--seeds", "0 x"], "seed list '0 x'"),
    ("[train]\nbucket_width = 0\n", [], "unknown config key [train] bucket_width"),
    ("[probe]\nbatch_size = 0\n", [], "unknown config key [probe] batch_size"),
    ("[probe]\nepochs = -1\n", [], "probe epochs must be >= 0"),
    ("[probe]\nlr = 0\n", [], "probe lr must be positive"),
    ("", ["--seeds", "0 1 0"], "duplicate seed 0"),
    ("", ["--seeds", "-1"], "seed list '-1': seeds must be >= 0"),
    ("", ["--seed", "-1"], "seed list '-1': seeds must be >= 0"),
    ("[train]\nseeds = 2 -3\n", [], "seed list '2 -3': seeds must be >= 0"),
    ("[probe]\nseed = -1\n", [], "unknown config key [probe] seed"),
    ("", ["--dim", "0"], "embedding dimension must be >= 1"),
    ("[train]\nbeta1 = -1\n", [], "unknown config key [train] beta1"),
    ("[train]\nbeta1 = 1e308\n", [], "unknown config key [train] beta1"),
    ("[train]\nbeta2 = 2\n", [], "unknown config key [train] beta2"),
    ("[train]\neps = -1\n", [], "unknown config key [train] eps"),
    ("[train]\neps = inf\n", [], "unknown config key [train] eps"),
    ("[train]\nbase_lr = nan\n", [], "base_lr must be positive and finite"),
    ("[probe]\nlr = nan\n", [], "probe lr must be positive and finite"),
    ("[train]\nsmart_batching = false\n", [], "unknown config key [train] smart_batching"),
    ("[train]\nhead_bias = false\n", [], "unknown config key [train] head_bias"),
    ("[probe]\nbeta1 = 0.5\n", [], "unknown config key [probe] beta1"),
    ("[train]\nwarmup_fraction = 0.2\n", [], "unknown config key [train] warmup_fraction"),
    ("[train]\nlr_decay = linear\n", [], "unknown config key [train] lr_decay"),
]


@pytest.mark.parametrize("section, flags, message", BAD_VALUES,
                         ids=["dim", "base_lr", "seeds", "probe-folds", "seeds-flag", "bucket-width",
                              "probe-batch-size", "probe-epochs", "probe-lr", "duplicate-seed",
                              "negative-seeds-flag", "negative-seed-flag", "negative-seeds",
                              "negative-probe-seed", "zero-dim", "negative-beta1", "huge-beta1", "beta2-two",
                              "negative-eps", "infinite-eps", "nan-base-lr", "nan-probe-lr", "smart-batching",
                              "head-bias", "probe-beta1", "warmup-fraction", "lr-decay"])
def test_bad_value_exit_2_no_manifest(data, capsys, section, flags, message):
    cfg = data["root"] / "bad.ini"
    cfg.write_text(f"[data]\nnli = {data['nli']}\n\n{section}")
    out = data["root"] / "bad"
    assert run(["train", "--method", "sbert", "--out", out, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not (out / "manifest.json").exists()
    assert not list(out.glob(".staging-*"))


CONFIG_KEYS = (
    {("data", key) for key in ("sts", "nli", "definitions")}
    | {("train", key) for key in (
        "method", "dim", "pooling", "min_count", "seeds", "out", "batch_size", "epochs",
        "base_lr", "tied_head", "nli_cycle", "def_cycle")}
    | {("probe", key) for key in ("epochs", "lr")}
)


def _commands_but_train(trained, tmp_path):
    """A run of every command but ``train`` on valid inputs, without ``--config`` and ``--out``."""
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("t00w000 t00w001\n")
    ckpt0, ckpt1, sts = trained["ckpt0"], trained["ckpt1"], trained["sts"]
    return [["partition", sts, "--scheme", "source"],
            ["embed", ckpt0, "--sentences", sentences],
            ["eval", ckpt0, "--sts", sts],
            ["combine-eval", "--a", ckpt0, "--b", ckpt1, "--mode", "average", "--sts", sts]]


@pytest.mark.parametrize("method", ["average", "concat", "none"])
def test_untrainable_method_rejected_by_every_command(trained, tmp_path, capsys, method):
    ini = tmp_path / "method.ini"
    ini.write_text(f"[train]\nmethod = {method}\n")
    # train is test_untrainable_method_rejected's
    for argv in _commands_but_train(trained, tmp_path):
        out = tmp_path / argv[0]
        assert run([*argv, "--config", ini, "--out", out]) == 2, argv[0]
        assert f"unknown method {method!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("dim = 0", "embedding dimension must be >= 1"),
    ("dim = -3", "embedding dimension must be >= 1"),
    ("pooling = bogus", "unknown pooling strategy 'bogus'"),
    ("min_count = 0", "min_count must be >= 1"),
    ("min_count = -1", "min_count must be >= 1"),
], ids=["zero-dim", "negative-dim", "pooling", "zero-min-count", "negative-min-count"])
def test_bad_run_setting_rejected_by_every_command(trained, tmp_path, capsys, setting, message):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[data]\nnli = {trained['nli']}\n\n[train]\n{setting}\n")
    for argv in [["train", "--method", "sbert"], *_commands_but_train(trained, tmp_path)]:
        out = tmp_path / argv[0]
        assert run([*argv, "--config", ini, "--out", out]) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, argv[0]
        assert not out.exists()


@pytest.mark.parametrize("present", [True, False], ids=["present", "missing"])
def test_percent_in_config_value_is_literal(trained, tmp_path, capsys, present):
    sts = tmp_path / "a%b.tsv"
    if present:
        shutil.copy(trained["sts"], sts)
    ini = tmp_path / "percent.ini"
    ini.write_text(f"[data]\nsts = {sts}\n")
    out = tmp_path / "runs" / "eval"
    code = run(["eval", trained["ckpt0"], "--config", ini, "--out", out])
    err = capsys.readouterr().err
    if present:
        assert code == 0, err
        assert json.loads((out / "manifest.json").read_text())["config"]["sts"] == str(sts)
    else:
        assert code == 2
        assert err.startswith("error:") and str(sts) in err
        assert not out.exists() and not out.parent.exists()  # nor the parent made for <out>


def test_config_keys_pinned():
    assert len(CONFIG_KEYS) == 17
    assert set(cli.CONFIG_KEYS) == CONFIG_KEYS


def test_readme_config_block_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config file", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.read_string(block)
    listed = {(section, key): raw for section in parser.sections() for key, raw in parser.items(section)}
    assert listed.keys() == CONFIG_KEYS == set(cli.CONFIG_KEYS)
    defaults = {None: cli.ExperimentConfig(), "train": TrainConfig(), "probe": ProbeConfig()}
    for (section, key), raw in listed.items():
        target, name, conv = cli.CONFIG_KEYS[section, key]
        assert (conv(raw) if raw else None) == getattr(defaults[target], name), f"[{section}] {key}"


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
    ("partition-labels-one-file", {"sts": "a_b\t1\ta\tb\na/b\t2\tc\td\n"},
     ["partition", "{sts}", "--scheme", "source"], "subsets 'a_b' and 'a/b' would both be written to a_b.tsv"),
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
    ("eval-dump-nan", {"dump": "dim=2\na\t1.0 2.0\nb\t0.5 nan\n"}, ["eval", "{dump}", "--sts", "{fixture_sts}"],
     "dump.in:3: vector holds NaN or Inf"),
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
    assert not list(out.glob(".staging-*"))


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


def _all_label_inputs(trained, tmp_path, case):
    """The argv of ``case``, whose partition has a subset labelled ALL or a label twice."""
    pairs = load_sts(trained["sts"])
    if case == "eval-sts-all":
        save_sts(pairs, tmp_path / "ALL.tsv")
        return ["eval", trained["ckpt0"], "--sts", tmp_path / "ALL.tsv"]
    if case == "partition-source-all":
        save_sts([dataclasses.replace(p, source="ALL" if i % 2 else "news") for i, p in enumerate(pairs)],
                 tmp_path / "sts.tsv")
        return ["partition", tmp_path / "sts.tsv", "--scheme", "source"]
    parts = tmp_path / "parts"
    parts.mkdir()
    save_sts(pairs[:30], parts / "a.tsv")
    save_sts(pairs[30:], parts / "b.tsv")
    second = "a" if case == "summary-repeated-label" else "ALL"
    (parts / "summary.json").write_text(json.dumps({"subsets": [
        {"label": "a", "file": "a.tsv"}, {"label": second, "file": "b.tsv"}]}), encoding="utf-8")
    return ["eval", trained["ckpt0"], "--partition-dir", parts]


@pytest.mark.parametrize("case, message", [
    ("eval-sts-all", "subset label 'ALL' is reserved for the pooled pairs"),
    ("partition-source-all", "subset label 'ALL' is reserved for the pooled pairs"),
    ("summary-all-label", "subset label 'ALL' is reserved for the pooled pairs"),
    ("summary-repeated-label", "subset label 'a' is repeated"),
])
def test_subset_label_that_would_share_a_report_row_exit_2(trained, tmp_path, capsys, monkeypatch, case, message):
    # a report's ALL row pools every pair, and StsReport.entry finds a row by its label
    argv = _all_label_inputs(trained, tmp_path, case)
    loads = []
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path))
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert loads == []  # before any provider loads
    assert not out.exists()


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

    def test_dump_path_printed_only_once_published(self, trained, tmp_path, capsys):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("t00w000 t00w001\n")
        out = tmp_path / "emb"
        (out / "embeddings.txt").mkdir(parents=True)  # moving the dump onto it fails
        assert run(["embed", trained["ckpt0"], "--sentences", sentences, "--out", out]) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith("error:")
        assert printed.out == ""

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
        ini.write_text("[probe]\nseed = -1\n")  # the probe's seed is the constant PROBE_SEED
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], "--probe", probe, "--out", out, "--config", ini]) == 2
        assert capsys.readouterr().err.startswith("error: unknown config key [probe] seed")
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

    def test_probe_class_too_small_for_the_folds_rejected_before_any_checkpoint_loads(self, trained, tmp_path,
                                                                                      monkeypatch, capsys):
        probe = tmp_path / "probe.tsv"
        probe.write_text("".join(f"{c}\tt0{c}w{i:03d}\n" for c, n in ((0, 20), (1, 9)) for i in range(n)))
        loaded = []
        monkeypatch.setattr(cli, "load_checkpoint", loaded.append)
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], "--probe", probe, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: every class needs >= 10 examples")
        assert loaded == []
        assert not out.exists()

    def test_probe_tasks_of_one_name_rejected_before_any_checkpoint_loads(self, trained, tmp_path, monkeypatch,
                                                                          capsys):
        probes = []
        for name in ("p1", "p2"):
            (tmp_path / name).mkdir()
            probes.append(self._probe_file(tmp_path / name / "probe.tsv"))
        loaded = []
        monkeypatch.setattr(cli, "load_checkpoint", loaded.append)
        out = tmp_path / "eval"
        assert run(["eval", trained["ckpt0"], "--probe", probes[0], "--probe", probes[1], "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{probes[0]} and {probes[1]}" in err
        assert loaded == []
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["eval", "combine-eval"])
    @pytest.mark.parametrize("bad, message", [("missing.json", "provider file not found"),
                                              ("checkpoint-seed0.table.npy", "neither an embedding dump")],
                             ids=["missing", "sidecar"])
    def test_bad_provider_after_good_ones_publishes_nothing(self, trained, tmp_path, capsys, command, bad, message):
        good = [trained["ckpt0"], trained["ckpt1"]]
        bad = trained["ckpt0"].with_name(bad)
        if command == "eval":
            providers = [*good, bad]
        else:
            providers = ["--a", good[0], "--b", good[1], "--a", good[1], "--b", bad, "--mode", "concat"]
        probe = self._probe_file(tmp_path / "probe.tsv")
        out = tmp_path / "eval"
        assert run([command, *providers, "--sts", trained["sts"], "--probe", probe, "--out", out]) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith("error:")
        assert message in printed.err
        assert printed.out == ""
        assert not out.exists()

    WIDE_WORDS = [f"w{i:05d}" for i in range(9998)]
    WIDE_TABLE_KIB = 10_000 * 64 * 8 / 1024

    @classmethod
    def _wide_run(cls, tmp_path):
        """Three defsent checkpoints of a 10k-word, d=64 world, and a function giving an eval command's peak."""
        words = cls.WIDE_WORDS
        save_definitions([DefinitionExample(words[i], " ".join(words[100 * i : 100 * (i + 1)]))
                          for i in range(100)], tmp_path / "defs.tsv")
        save_sts([StsPair(" ".join(words[i : i + 5]), " ".join(words[i + 2 : i + 7]), float(i % 5), "s")
                  for i in range(0, 4000, 40)], tmp_path / "sts.tsv")
        config = tmp_path / "exp.ini"
        config.write_text(f"[data]\ndefinitions = {tmp_path / 'defs.tsv'}\nsts = {tmp_path / 'sts.tsv'}\n\n"
                          "[train]\ndim = 64\n")
        run_dir = tmp_path / "run"
        assert run(["train", "--method", "defsent", "--seeds", "0 1 2", "--config", config, "--out", run_dir]) == 0
        script = ("import sys\n"
                  "from sentsig.cli import main\n"
                  "assert main(sys.argv[1:]) == 0\n"
                  f"print('peak', {PEAK_KIB})\n")

        def peak(*argv):
            proc = subprocess.run([sys.executable, "-c", script, *map(str, argv), "--config", str(config),
                                   "--out", str(tmp_path / "eval")], capture_output=True, text=True, check=True)
            return int(proc.stdout.splitlines()[-1].split()[1])

        return [str(run_dir / f"checkpoint-seed{k}.json") for k in range(3)], peak

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM of a glibc process")
    def test_peak_does_not_grow_with_the_number_of_providers(self, tmp_path):
        # each checkpoint, or --a/--b pair, is scored and dropped before the
        # next loads, so scoring three holds no more 2.5 MB tables than one.
        # The bound, 2000 KiB, is 0.4 of the float64 table this test was sized
        # on; the float32 table is 2500 KiB, so an extra one still exceeds it
        (c0, c1, c2), peak = self._wide_run(tmp_path)
        table_kib = self.WIDE_TABLE_KIB
        one, three = peak("eval", c0), peak("eval", c0, c1, c2)
        assert three - one < 0.4 * table_kib, (one, three)
        one, two = (peak("combine-eval", "--mode", "concat", *pairs)
                    for pairs in (["--a", c0, "--b", c1], ["--a", c0, "--b", c1, "--a", c2, "--b", c0]))
        assert two - one < 0.4 * table_kib, (one, two)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM of a glibc process")
    def test_probe_peak_does_not_grow_with_the_number_of_providers(self, tmp_path):
        # each provider's probe rows (600 x 64 float64, 300 KiB) are kept for
        # the fits after the last provider, which gather every batch from
        # them without copying any fold's training rows
        (c0, c1, c2), peak = self._wide_run(tmp_path)
        words = self.WIDE_WORDS
        probe = tmp_path / "probe.tsv"
        probe.write_text("".join(f"c{i % 3}\t{' '.join(words[(i % 3) * 3000 + (7 * i + k) % 3000] for k in range(5))}\n"
                                 for i in range(600)), encoding="utf-8")
        one, three = peak("eval", c0, "--probe", probe), peak("eval", c0, c1, c2, "--probe", probe)
        assert three - one < 0.4 * self.WIDE_TABLE_KIB, (one, three)

    def test_data_sts_scored_when_no_flag_names_a_file(self, trained, tmp_path):
        other = tmp_path / "other.tsv"
        save_sts(load_sts(trained["sts"])[:20], other)
        ini = tmp_path / "sts.ini"
        ini.write_text(f"[data]\nsts = {other}\n")

        def report(name, *flags):
            out = tmp_path / name
            assert run(["eval", trained["ckpt0"], *flags, "--out", out]) == 0
            return (out / "report.json").read_bytes()

        assert report("config", "--config", ini) == report("other", "--sts", other)
        # a flag wins over [data] sts
        assert report("flag", "--config", ini, "--sts", trained["sts"]) == report("sts", "--sts", trained["sts"])

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


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# (command, argv of a finished run, argv of a rerun into its directory that writes other files)
RERUNS = [
    ("partition", ["partition", "{sts}", "--scheme", "source"],
     ["partition", "{sts}", "--scheme", "dice", "--k", "3"]),
    ("train", ["train", "--method", "sbert", "--seeds", "0 1", "--config", "{ini}"],
     ["train", "--method", "sbert", "--seeds", "0 1", "--config", "{ini_fast}"]),
    ("embed", ["embed", "{ckpt0}", "--sentences", "{sentences}"],
     ["embed", "{ckpt1}", "--sentences", "{sentences}"]),
    ("eval", ["eval", "{ckpt0}", "--sts", "{sts}"], ["eval", "{ckpt1}", "--sts", "{sts}"]),
    ("combine-eval", ["combine-eval", "--a", "{ckpt0}", "--b", "{ckpt1}", "--mode", "concat", "--sts", "{sts}"],
     ["combine-eval", "--a", "{ckpt0}", "--b", "{ckpt1}", "--mode", "average", "--sts", "{sts}"]),
]


@pytest.mark.parametrize("first, rerun", [c[1:] for c in RERUNS], ids=[c[0] for c in RERUNS])
def test_failed_rerun_leaves_the_finished_run(trained, tmp_path, monkeypatch, capsys, first, rerun):
    """Failing the k-th file write of a rerun, for every k, leaves the finished run as it was.

    A file write is the opening of a temp file or an ``os.replace``.  Only a
    failure after the first staged file was moved may change the directory,
    and then it holds no manifest.
    """
    ini_fast = tmp_path / "fast.ini"
    ini_fast.write_text(_config(trained).read_text().replace("base_lr = 0.01", "base_lr = 0.05"))
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("t00w000 t00w001\nt01w002\n")
    paths = {"ini": _config(trained), "ini_fast": ini_fast, "sentences": sentences, **trained}
    finished = tmp_path / "finished"
    assert run([arg.format(**paths) for arg in first] + ["--out", finished]) == 0
    before = _files(finished)
    real_open, real_replace = open, os.replace
    k, published = 0, 0
    while True:
        k += 1
        out = tmp_path / f"rerun{k}"
        shutil.copytree(finished, out)
        state = {"writes": 0, "moving": False}

        def count(what):
            state["writes"] += 1
            if state["writes"] == k:
                raise OSError(f"injected failure: {what}")

        def failing_open(file, *args, **kwargs):
            count(f"open {file}")
            return real_open(file, *args, **kwargs)

        def failing_replace(src, dst):
            if Path(src).parent.name.startswith(".staging-") and not str(src).endswith(".tmp"):
                state["moving"] = True
            count(f"replace {src}")
            return real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(sentsig.fileio, "open", failing_open, raising=False)
            patch.setattr(os, "replace", failing_replace)
            rc = run([arg.format(**paths) for arg in rerun] + ["--out", out])
        err = capsys.readouterr().err
        assert not list(out.glob(".staging-*"))
        if state["writes"] < k:  # no write was left to fail
            assert rc == 0
            assert _files(out) != before
            break
        assert rc == 2
        assert err.startswith("error: injected failure")
        if state["moving"]:
            published += 1
            assert not (out / "manifest.json").exists()
        else:
            assert _files(out) == before
    assert published >= 2 and k - published >= 3


def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "sentsig", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sentsig" in proc.stdout
