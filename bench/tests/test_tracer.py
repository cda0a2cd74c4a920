"""Tracer tests: spans fire where mapped, untraced runs leave sentsig untouched,
self times are non-negative and a command's spans fit inside its wall time.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

import measure
import workloads
from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from tracer import COMMAND_PREFIX, TARGETS, Tracer, resolve, self_times, summarize

SMALL = {
    "toy-loop": replace(workloads.WORKLOADS["toy-loop"], dim=8, seeds=2, nli_examples=960,
                        sts_pairs=60, probe_per_class=10),
    "wide-defsent": replace(workloads.WORKLOADS["wide-defsent"], dim=16, vocab_words=998,
                            def_examples=32, sts_pairs=60, probe_per_class=10),
}
# computed by run.py from the untraced passes of a traced run, not from spans
NOT_FROM_SPANS = {"cli.train_examples_per_s", "cli.embed_sentences_per_s",
                  "trace.overhead_s", "trace.overhead_share"}


def _originals():
    return [(owner, attr, resolve(owner).__dict__[attr]) for owner, attr, _, _ in TARGETS]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced pass of every workload at test scale."""
    before = _originals()
    results = {}
    cwd = os.getcwd()
    try:
        for name in WORKLOAD_NAMES:
            work = tmp_path_factory.mktemp(name)
            props = workloads.generate(name, 3, work, SMALL[name])
            os.chdir(work)
            plain = measure.run_pass(name, props, work, None)
            untouched = all(resolve(o).__dict__[a] is f for o, a, f in before)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure.run_pass(name, props, work, tracer)
            finally:
                tracer.uninstall()
            restored = all(resolve(o).__dict__[a] is f for o, a, f in before)
            results[name] = dict(plain=plain, traced=traced, spans=tracer.spans,
                                 untouched=untouched, restored=restored)
    finally:
        os.chdir(cwd)
    return results


def test_passes_succeed_and_tracing_changes_no_output(runs):
    for name, run in runs.items():
        for kind in ("plain", "traced"):
            failed = [c for c in run[kind]["checks"] if not c[1]]
            assert not failed, (name, kind, failed, run[kind]["output"])
        assert run["plain"]["digests"] == run["traced"]["digests"], name
        assert run["plain"]["digests"], name


def test_untraced_run_leaves_every_wrapped_attribute_identical(runs):
    for name, run in runs.items():
        assert run["untouched"], name
        assert run["restored"], name


def test_every_layer_metric_fires_on_a_mapped_workload(runs):
    layers = {name: summarize(run["spans"]) for name, run in runs.items()}
    for metric, (_, mapped) in PER_LAYER.items():
        if metric in NOT_FROM_SPANS:
            continue
        assert mapped, metric
        for name in mapped:
            assert layers[name][metric] > 0, (metric, name)
    assert layers["toy-loop"]["evalsuite.embed_per_distinct_sentence"] > 1
    assert layers["toy-loop"]["corpus.tokenize_useful_ratio"] < 1


def test_self_times_are_non_negative(runs):
    for name, run in runs.items():
        assert min(self_times(run["spans"])) >= -1e-9, name


def test_top_level_spans_of_a_command_fit_inside_its_wall_time(runs):
    for name, run in runs.items():
        spans = run["spans"]
        commands = {i for i, s in enumerate(spans) if s[0].startswith(COMMAND_PREFIX)}
        assert len(commands) == len(run["traced"]["commands"]), name
        covered = dict.fromkeys(commands, 0.0)
        for _, start, end, parent, _, _ in spans:
            if parent in covered:
                assert spans[parent][1] <= start <= end <= spans[parent][2], name
                covered[parent] += end - start
        for i in commands:
            assert covered[i] <= spans[i][2] - spans[i][1], (name, spans[i][0])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in PER_LAYER.items()}
