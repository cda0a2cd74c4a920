"""The benchmark's tracer finds every function it wraps where sentsig's callers look it up.

``bench/tracer.py`` replaces ``owner.__dict__[attr]`` for each entry of its
``TARGETS``; a refactor that moves or renames one of those names makes
``bench/run.py --trace 1`` fail, so the names are pinned here.
"""

import ast
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

import sentsig.objectives
from sentsig import cli
from sentsig.corpus import save_definitions, save_nli
from sentsig.numstat import make_rng
from sentsig.synth import make_definition_corpus, make_nli_corpus

_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("owner, attr", [target[:2] for target in tracer.TARGETS],
                         ids=[f"{owner}.{attr}" for owner, attr, *_ in tracer.TARGETS])
def test_tracer_target_resolves(owner, attr):
    assert attr in tracer.resolve(owner).__dict__


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
