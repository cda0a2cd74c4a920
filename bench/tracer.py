"""In-memory span tracer for the benchmark's traced runs.

The modules of sentsig import names directly (``from .corpus import
tokenize``), so a function is wrapped at every name its callers look it up
under, e.g. ``sentsig.objectives.tokenize`` and ``sentsig.cli.save_checkpoint``.
A span is ``(name, start, end, parent, run, key)``: ``parent`` is the index
of the enclosing span or -1, ``run`` the pass of the CLI sequence, and ``key``
an optional value taken from the call's arguments after it returned.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _first(args, kwargs):
    return args[0]


def _provider_sentence(args, kwargs):
    return (id(args[0]), args[1])


def _batch_size(args, kwargs):
    return len(args[0])


def _size_of_first(args, kwargs):
    return os.path.getsize(args[0])


def _size_of_second(args, kwargs):
    return os.path.getsize(args[1])


# (owner, attribute, span name, key): the owner is where the caller looks the name up
TARGETS = (
    ("sentsig.corpus", "tokenize", "corpus.tokenize", _first),
    ("sentsig.encoder", "tokenize", "corpus.tokenize", _first),
    ("sentsig.objectives", "tokenize", "corpus.tokenize", _first),
    ("sentsig.cli", "load_sts", "corpus.load", None),
    ("sentsig.cli", "load_nli", "corpus.load", None),
    ("sentsig.cli", "load_definitions", "corpus.load", None),
    ("sentsig.cli", "partition_by_dice", "corpus.partition", None),
    ("sentsig.cli", "partition_by_source", "corpus.partition", None),
    ("sentsig.cli", "dice", "corpus.dice", None),
    ("sentsig.corpus", "dice", "corpus.dice", None),
    ("sentsig.cli", "build_vocab", "encoder.build_vocab", None),
    ("sentsig.encoder.ToyEncoder", "embed", "encoder.embed", _provider_sentence),
    ("sentsig.encoder.EmbeddingStore", "embed", "encoder.embed", _provider_sentence),
    ("sentsig.cli", "save_dump", "encoder.dump_save", _size_of_second),
    ("sentsig.cli", "load_dump", "encoder.dump_load", _size_of_first),
    ("sentsig.objectives", "nli_loss_and_grads", "objectives.nli_grad", _batch_size),
    ("sentsig.objectives", "def_loss_and_grads", "objectives.def_grad", _batch_size),
    ("sentsig.objectives.Adam", "step", "objectives.adam", None),
    ("sentsig.objectives", "smart_batches", "objectives.batching", None),
    ("sentsig.objectives", "batches_per_epoch", "objectives.batching", None),
    ("sentsig.objectives", "softmax", "numstat.softmax", None),
    ("sentsig.evalsuite", "cosine", "numstat.cosine", None),
    ("sentsig.evalsuite", "spearman", "numstat.spearman", None),
    ("sentsig.evalsuite", "eval_sts", "evalsuite.eval_sts", None),
    ("sentsig.cli", "eval_probe", "evalsuite.probe", None),
    ("sentsig.evalsuite", "train_logreg", "evalsuite.logreg_fit", None),
    ("sentsig.cli", "run_pipeline", "combiner.run_pipeline", None),
    ("sentsig.combiner.CombinedProvider", "embed", "combiner.combined_embed", _provider_sentence),
    ("sentsig.cli", "save_checkpoint", "checkpoint.save", _size_of_first),
    ("sentsig.cli", "load_checkpoint", "checkpoint.load", _size_of_first),
)

COMMAND_PREFIX = "cli."


def resolve(owner: str):
    """The module or class a dotted owner name refers to."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(owner)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list[int] = []
        self._originals: list = []

    def install(self) -> None:
        for owner_name, attr, name, key in TARGETS:
            owner = resolve(owner_name)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, key))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _wrap(self, fn, name, key):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._stack.pop()
                self.spans[index] = (name, start, clock(), parent, self.run, None)
                raise
            end = clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run,
                                 key(args, kwargs) if key else None)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened from the benchmark's own code, e.g. around one CLI command."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run, None)

    def write(self, path) -> None:
        """Write the spans as TSV: run, name, start, end, parent."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("run\tname\tstart\tend\tparent\n")
            for name, start, end, parent, run, _ in self.spans:
                fh.write(f"{run}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Spans come from one thread, so siblings never overlap and the covered
    part is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _run_metrics(spans, indices, self_time) -> dict:
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    keys: dict[str, int] = defaultdict(int)
    texts = set()
    embeds_in_eval = 0
    embedded = set()
    cli_self = 0.0
    for i in indices:
        name, start, end, parent, _, key = spans[i]
        if name == "objectives.adam" and _has_ancestor(spans, i, "evalsuite.probe"):
            continue  # the probe's own optimizer belongs to evalsuite.probe_s
        calls[name] += 1
        if parent < 0 or spans[parent][0] != name:
            seconds[name] += end - start
        if isinstance(key, int):
            keys[name] += key
        if name == "corpus.tokenize":
            texts.add(key)
        elif name.startswith(COMMAND_PREFIX):
            cli_self += self_time[i]
        if parent >= 0 and spans[parent][0] == "evalsuite.eval_sts" and name in (
                "encoder.embed", "combiner.combined_embed"):
            embeds_in_eval += 1
            # provider ids are unique among the providers one command holds
            embedded.add((spans[parent][3], key))
    return {
        "corpus.tokenize_calls": calls["corpus.tokenize"],
        "corpus.tokenize_s": seconds["corpus.tokenize"],
        "corpus.tokenize_useful_ratio": len(texts) / calls["corpus.tokenize"] if texts else 0.0,
        "corpus.load_s": seconds["corpus.load"],
        "corpus.partition_s": seconds["corpus.partition"],
        "corpus.dice_calls": calls["corpus.dice"],
        "encoder.build_vocab_s": seconds["encoder.build_vocab"],
        "encoder.embed_calls": calls["encoder.embed"],
        "encoder.embed_s": seconds["encoder.embed"],
        "encoder.dump_save_s": seconds["encoder.dump_save"],
        "encoder.dump_load_s": seconds["encoder.dump_load"],
        "encoder.dump_bytes": keys["encoder.dump_save"] + keys["encoder.dump_load"],
        "objectives.nli_grad_calls": calls["objectives.nli_grad"],
        "objectives.nli_grad_examples": keys["objectives.nli_grad"],
        "objectives.def_grad_calls": calls["objectives.def_grad"],
        "objectives.def_grad_examples": keys["objectives.def_grad"],
        "objectives.adam_calls": calls["objectives.adam"],
        "objectives.batching_s": seconds["objectives.batching"],
        "numstat.cosine_calls": calls["numstat.cosine"],
        "numstat.cosine_s": seconds["numstat.cosine"],
        "numstat.spearman_s": seconds["numstat.spearman"],
        "numstat.softmax_calls": calls["numstat.softmax"],
        "numstat.softmax_s": seconds["numstat.softmax"],
        "evalsuite.eval_sts_s": seconds["evalsuite.eval_sts"],
        "evalsuite.embed_per_distinct_sentence": embeds_in_eval / len(embedded) if embedded else 0.0,
        "evalsuite.probe_s": seconds["evalsuite.probe"],
        "evalsuite.logreg_fits": calls["evalsuite.logreg_fit"],
        "combiner.run_pipeline_s": seconds["combiner.run_pipeline"],
        "combiner.combined_embed_calls": calls["combiner.combined_embed"],
        "checkpoint.save_s": seconds["checkpoint.save"],
        "checkpoint.load_s": seconds["checkpoint.load"],
        "checkpoint.bytes": keys["checkpoint.save"] + keys["checkpoint.load"],
        "cli.self_s": cli_self,
    }


def summarize(spans) -> dict:
    """Per-layer metrics: the median over runs of each run's figure.

    Step latencies pool the samples of every run; ``*_ms_p90`` is reported
    only when at least ten samples lie beyond it, otherwise it is 0.
    """
    by_run: dict[int, list[int]] = defaultdict(list)
    durations: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, _, run, _) in enumerate(spans):
        by_run[run].append(i)
        if name in ("objectives.nli_grad", "objectives.def_grad") or (
                name == "objectives.adam" and not _has_ancestor(spans, i, "evalsuite.probe")):
            durations[name].append(1000.0 * (end - start))
    self_time = self_times(spans)
    per_run = [_run_metrics(spans, indices, self_time) for indices in by_run.values()]
    metrics = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}

    def median_ms(name):
        return statistics.median(durations[name]) if durations[name] else 0.0

    nli = durations["objectives.nli_grad"]
    metrics["objectives.nli_grad_ms_p50"] = median_ms("objectives.nli_grad")
    metrics["objectives.nli_grad_ms_p90"] = percentile(nli, 90) if len(nli) >= 100 else 0.0
    metrics["objectives.def_grad_ms"] = median_ms("objectives.def_grad")
    metrics["objectives.adam_ms"] = median_ms("objectives.adam")
    return metrics
