"""The benchmark's tracer finds every function it wraps where sentsig's callers look it up.

``bench/tracer.py`` replaces ``owner.__dict__[attr]`` for each entry of its
``TARGETS``; a refactor that moves or renames one of those names makes
``bench/run.py --trace 1`` fail, so the names are pinned here.
"""

import argparse
import ast
import dataclasses
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import sentsig.objectives
from sentsig import cli
from sentsig.corpus import save_definitions, save_nli
from sentsig.evalsuite import ProbeConfig
from sentsig.numstat import make_rng
from sentsig.synth import make_definition_corpus, make_nli_corpus

_ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


tracer = _bench_module("tracer")
workloads = _bench_module("workloads")


@pytest.mark.parametrize("owner, attr", [target[:2] for target in tracer.TARGETS],
                         ids=[f"{owner}.{attr}" for owner, attr, *_ in tracer.TARGETS])
def test_tracer_target_resolves(owner, attr):
    assert attr in tracer.resolve(owner).__dict__


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_benchmark_config_loads(tmp_path, name):
    """Each workload's ``exp.ini`` sets only keys the CLI reads, to the values the workload means.

    The inputs are generated at a smaller size, as ``bench/tests`` does; a
    config key that the benchmark sets and the CLI no longer has fails here.
    """
    small = dataclasses.replace(workloads.WORKLOADS[name], dim=8, vocab_words=998, nli_examples=320,
                                def_examples=32, sts_pairs=60, probe_per_class=10)
    workloads.generate(name, 3, tmp_path, small)
    cfg = cli.load_experiment_config(str(tmp_path / "inputs" / "exp.ini"), argparse.Namespace())
    assert (cfg.dim, cfg.train.batch_size) == (8, workloads.BATCH_SIZE)
    assert cfg.probe == ProbeConfig(**workloads.PROBE)


def _unused_imports(source: str) -> set[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


_MODULES = sorted(p for p in (_ROOT / "src" / "sentsig").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=[p.stem for p in _MODULES])
def test_no_unused_imports(path):
    """A module reads every name it imports, unless ``TARGETS`` wraps that name there.

    ``__init__`` is skipped: its imports are the package's exports.
    """
    pinned = {attr for owner, attr, *_ in tracer.TARGETS if owner == f"sentsig.{path.stem}"}
    assert _unused_imports(path.read_text(encoding="utf-8")) <= pinned


def test_loss_batches_hold_every_seeds_examples(tmp_path, monkeypatch):
    """``TARGETS`` keys each loss call on ``len(args[0])``; a lockstep batch holds every seed's examples.

    So a train command of three seeds passes the losses as many examples as
    three one-seed commands, in the call count of one.
    """
    rng = make_rng(5)
    world = dict(n_topics=4, words_per_topic=10, sentence_len=4)
    save_nli(make_nli_corpus(rng, 150, **world), tmp_path / "nli.tsv")
    save_definitions(make_definition_corpus(rng, per_word=1, **world), tmp_path / "defs.tsv")
    seen = []
    for name in ("nli_loss_and_grads", "def_loss_and_grads"):
        def recording(*args, name=name, real=getattr(sentsig.objectives, name), **kwargs):
            seen.append((name, len(args[0])))
            return real(*args, **kwargs)
        monkeypatch.setattr(sentsig.objectives, name, recording)

    def examples(seeds):
        seen.clear()
        argv = ["train", "--method", "multi", "--seeds", seeds, "--out", str(tmp_path / seeds),
                "--config", str(config)]
        assert cli.main(argv) == 0
        return Counter(name for name, _ in seen), sum((Counter({name: n}) for name, n in seen), Counter())

    config = tmp_path / "exp.ini"
    config.write_text(f"[data]\nnli = {tmp_path / 'nli.tsv'}\ndefinitions = {tmp_path / 'defs.tsv'}\n"
                      "[train]\nbatch_size = 7\n", encoding="utf-8")
    calls, together = examples("0 1 2")
    alone = [examples(seed) for seed in "012"]
    assert all(one_calls == calls for one_calls, _ in alone)
    assert together == sum((counts for _, counts in alone), Counter())


@pytest.mark.parametrize("method", ["sbert", "defsent", "multi"])
def test_a_train_command_makes_one_adam_step_per_training_step(tmp_path, monkeypatch, method):
    """``TARGETS`` times ``Adam.step`` as ``objectives.adam``: one call per step, for all seeds.

    Each loss takes its batch first and returns gradients that the step
    consumes, so ``objectives.adam_calls`` equals the step count of the
    manifest, and the losses are called as often.
    """
    rng = make_rng(6)
    world = dict(n_topics=4, words_per_topic=10, sentence_len=4)
    save_nli(make_nli_corpus(rng, 120, **world), tmp_path / "nli.tsv")
    save_definitions(make_definition_corpus(rng, per_word=1, **world), tmp_path / "defs.tsv")
    calls = Counter()
    real_step = sentsig.objectives.Adam.step

    def counting_step(self, grads, lr):
        calls["adam"] += 1
        return real_step(self, grads, lr)

    monkeypatch.setattr(sentsig.objectives.Adam, "step", counting_step)
    for name in ("nli_loss_and_grads", "def_loss_and_grads"):
        def counting(batch, *args, name=name, real=getattr(sentsig.objectives, name)):
            calls[name] += 1
            return real(batch, *args)
        monkeypatch.setattr(sentsig.objectives, name, counting)
    config = tmp_path / "exp.ini"
    config.write_text(f"[data]\nnli = {tmp_path / 'nli.tsv'}\ndefinitions = {tmp_path / 'defs.tsv'}\n"
                      "[train]\nbatch_size = 8\n", encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["train", "--method", method, "--seeds", "0 1", "--out", str(out),
                     "--config", str(config)]) == 0
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    steps = {sum(stage["steps"] for stage in seed_stages) for seed_stages in stages.values()}
    assert len(steps) == 1 and steps.pop() == calls["adam"] > 0
    assert calls["adam"] == calls["nli_loss_and_grads"] + calls["def_loss_and_grads"]


def test_eval_commands_load_each_checkpoint_once_and_probe_each_provider_once(tmp_path, monkeypatch):
    """``TARGETS`` times ``sentsig.cli.load_checkpoint`` and ``sentsig.cli.eval_probe``.

    So ``checkpoint.load_*`` covers one load per checkpoint path an eval
    command names (a path named twice loads twice), and ``evalsuite.probe_s``
    one probe call per probe task, which fits every provider's rows.
    """
    rng = make_rng(7)
    world = dict(n_topics=4, words_per_topic=10, sentence_len=4)
    save_nli(make_nli_corpus(rng, 60, **world), tmp_path / "nli.tsv")
    config = tmp_path / "exp.ini"
    config.write_text(f"[data]\nnli = {tmp_path / 'nli.tsv'}\n[train]\ndim = 6\n", encoding="utf-8")
    assert cli.main(["train", "--seeds", "0 1 2", "--out", str(tmp_path / "run"), "--config", str(config)]) == 0
    c0, c1, c2 = (str(tmp_path / "run" / f"checkpoint-seed{k}.json") for k in range(3))
    probes = []
    for name in ("first", "second"):
        probes += ["--probe", str(tmp_path / f"{name}.tsv")]
        (tmp_path / f"{name}.tsv").write_text(
            "".join(f"{c}\tt0{c}w{i % 10:03d}\n" for c in (0, 1) for i in range(20)), encoding="utf-8")
    loads, scored = Counter(), {}

    def loading(path, real=cli.load_checkpoint):
        loads[str(path)] += 1
        return real(path)

    def probing(features, task, *args, real=cli.eval_probe, **kwargs):
        assert task.name not in scored
        scored[task.name] = len(features)
        return real(features, task, *args, **kwargs)

    monkeypatch.setattr(cli, "load_checkpoint", loading)
    monkeypatch.setattr(cli, "eval_probe", probing)
    for argv, paths, names in (
            (["eval", c0, c1, c2], [c0, c1, c2], ["checkpoint-seed0", "checkpoint-seed1", "checkpoint-seed2"]),
            (["combine-eval", "--mode", "concat", "--a", c0, "--b", c1, "--a", c2, "--b", c0], [c0, c1, c2, c0],
             ["concat(checkpoint-seed0,checkpoint-seed1)", "concat(checkpoint-seed2,checkpoint-seed0)"])):
        loads.clear()
        scored.clear()
        assert cli.main([*argv, *probes, "--out", str(tmp_path / argv[0])]) == 0
        assert loads == Counter(paths)
        assert scored == {task: len(names) for task in ("first", "second")}
