"""Benchmark workloads: seeded input generators, CLI sequences, checks and counts.

Every input is generated from the benchmark seed and handed to the program as
a file.  Corpora are written with sentsig's own savers, so a later change to
a file format is picked up here without edits; checkpoints and dumps are
written by the CLI during a pass.  The INI config and the probe file have no
saver in the package and are written directly in the formats the CLI
documents.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from sentsig.corpus import (
    DefinitionExample,
    StsPair,
    load_definitions,
    load_nli,
    load_sts,
    save_definitions,
    save_nli,
    save_sts,
    tokenize,
)
from sentsig.encoder import build_vocab
from sentsig.evalsuite import load_probe_task
from sentsig.numstat import make_rng
from sentsig.synth import make_definition_corpus, make_nli_corpus, make_sts_corpus, make_topic_vocabulary

BATCH_SIZE = 16
# The default probe (lr 1e-3, 4 epochs) stays near chance on the small
# features of a briefly trained V=20k table; this one separates the classes.
PROBE = {"lr": 0.01, "epochs": 10}
NLI_CYCLE, DEF_CYCLE = 19, 1
ADAM_ARRAYS = 4  # parameter, gradient, first and second moment


@dataclass(frozen=True)
class Spec:
    """Input sizes of one workload; tests shrink them with ``dataclasses.replace``."""

    dim: int
    seeds: int  # trained seeds
    vocab_words: int = 0  # words of the wide vocabulary (V = vocab_words + 2)
    nli_examples: int = 0
    def_examples: int = 0
    sts_pairs: int = 0
    probe_classes: int = 0
    probe_per_class: int = 0
    sentence_len: int = 10


WORKLOADS = {
    # Python work per example dominates: tokenize, the per-pair forward and
    # backward, per-pair cosine.  Adam, checkpoint I/O and the head are tiny.
    # The sequence also runs every read-side layer once: partition, dump
    # load, the combiner, the probe.
    "toy-loop": Spec(dim=16, seeds=3, nli_examples=3200, sts_pairs=1000,
                     probe_classes=6, probe_per_class=50, sentence_len=6),
    # The vocabulary-sized head, the dense Adam step over V x d and the
    # checkpoint write dominate; long definitions make tokenizing negligible.
    "wide-defsent": Spec(dim=128, seeds=1, vocab_words=19_998, def_examples=160,
                         sts_pairs=1000, probe_classes=3, probe_per_class=200),
}


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _write_config(path: Path, sections: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def _write_probe(path: Path, examples: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, sentence in examples:
            fh.write(f"{label}\t{sentence}\n")


def _wide_words(n: int) -> list[str]:
    return [f"w{i:05d}" for i in range(n)]


def _overlap_pairs(rng, words, n_pairs, base, sentence_len) -> list[StsPair]:
    """Pairs whose gold score is 5 x the share of sentence 1 kept in sentence 2.

    Sentence 1 is drawn from ``base`` (so sentences repeat); sentence 2 keeps
    a random subset of its words, fills up with fresh words and is shuffled.
    """
    pairs = []
    for _ in range(n_pairs):
        s1 = base[int(rng.integers(len(base)))]
        kept = int(rng.integers(0, sentence_len + 1))
        tokens = list(rng.choice(s1, size=kept, replace=False))
        tokens += [words[i] for i in rng.integers(0, len(words), size=sentence_len - kept)]
        tokens = [tokens[i] for i in rng.permutation(sentence_len)]
        pairs.append(StsPair(sentence1=" ".join(s1), sentence2=" ".join(tokens),
                             gold=5.0 * kept / sentence_len, source="bench"))
    return pairs


def _base_sentences(rng, words, n, sentence_len) -> list[list[str]]:
    rows = rng.integers(0, len(words), size=(n, sentence_len))
    return [[words[i] for i in row] for row in rows]


def _pool_probe(rng, words, classes, per_class, sentence_len) -> list[tuple[str, str]]:
    """Each class draws its sentences from its own disjoint pool of 30 words."""
    pools = [words[30 * c : 30 * (c + 1)] for c in range(classes)]
    examples = []
    for i in range(classes * per_class):
        c = i % classes
        picks = rng.integers(0, len(pools[c]), size=sentence_len)
        examples.append((f"class{c}", " ".join(pools[c][j] for j in picks)))
    return examples


def _generate_toy_loop(spec: Spec, rng, out: Path) -> dict:
    world = dict(n_topics=6, words_per_topic=40, sentence_len=spec.sentence_len)
    nli = make_nli_corpus(rng, spec.nli_examples, **world)
    defs = make_definition_corpus(rng, **world)
    sts = make_sts_corpus(rng, spec.sts_pairs, **world)
    topics = make_topic_vocabulary(world["n_topics"], world["words_per_topic"])
    # half of each probe sentence comes from its topic, half from the others
    probe = []
    half = spec.sentence_len // 2
    for i in range(spec.probe_classes * spec.probe_per_class):
        t = i % spec.probe_classes
        others = [w for u, pool in enumerate(topics) if u != t for w in pool]
        picks = [topics[t][j] for j in rng.choice(len(topics[t]), size=half, replace=False)]
        picks += [others[j] for j in rng.choice(len(others), size=spec.sentence_len - half, replace=False)]
        probe.append((f"topic{t}", " ".join(picks)))
    save_nli(nli, out / "nli.tsv")
    save_definitions(defs, out / "definitions.tsv")
    save_sts(sts, out / "sts.tsv")
    _write_probe(out / "probe.tsv", probe)
    sentences = list(dict.fromkeys(s for p in sts for s in (p.sentence1, p.sentence2)))
    (out / "sentences.txt").write_text("".join(s + "\n" for s in sentences), encoding="utf-8")
    _write_config(out / "exp.ini", {
        "data": {"nli": "inputs/nli.tsv", "definitions": "inputs/definitions.tsv"},
        "train": {"dim": spec.dim, "pooling": "mean", "epochs": 1, "base_lr": 0.01,
                  "batch_size": BATCH_SIZE, "seeds": " ".join(map(str, range(spec.seeds))),
                  "nli_cycle": NLI_CYCLE, "def_cycle": DEF_CYCLE},
        "probe": PROBE,
    })
    return {"nli": len(nli), "definitions": len(defs), "sts": sts, "probe": len(probe),
            "embed_sentences": len(sentences)}


def _generate_wide_defsent(spec: Spec, rng, out: Path) -> dict:
    words = _wide_words(spec.vocab_words)
    # every word occurs in a definition, and all definitions are equally long
    order = rng.permutation(len(words))
    length = math.ceil(len(words) / spec.def_examples)
    padded = np.concatenate([order, rng.integers(0, len(words), size=length * spec.def_examples - len(words))])
    heads = rng.choice(len(words), size=spec.def_examples, replace=False)
    defs = [DefinitionExample(word=words[h], definition=" ".join(words[i] for i in chunk))
            for h, chunk in zip(heads, padded.reshape(spec.def_examples, length))]
    base = _base_sentences(rng, words, spec.sts_pairs, spec.sentence_len)
    sts = _overlap_pairs(rng, words, spec.sts_pairs, base, spec.sentence_len)
    probe = _pool_probe(rng, words, spec.probe_classes, spec.probe_per_class, spec.sentence_len)
    save_definitions(defs, out / "definitions.tsv")
    save_sts(sts, out / "sts.tsv")
    _write_probe(out / "probe.tsv", probe)
    _write_config(out / "exp.ini", {
        "data": {"definitions": "inputs/definitions.tsv"},
        "train": {"dim": spec.dim, "pooling": "mean", "epochs": 1, "base_lr": 0.01,
                  "batch_size": BATCH_SIZE, "seeds": "0", "tied_head": "true"},
        "probe": PROBE,
    })
    return {"definitions": len(defs), "sts": sts, "probe": len(probe)}


def generate(workload: str, seed: int, work: Path, spec: Spec | None = None) -> dict:
    """Write the workload's inputs under ``work/inputs`` and return their properties."""
    spec = spec or WORKLOADS[workload]
    out = work / "inputs"
    out.mkdir(parents=True)
    rng = make_rng(seed)
    if workload == "toy-loop":
        made = _generate_toy_loop(spec, rng, out)
    else:
        made = _generate_wide_defsent(spec, rng, out)
    sts = made.pop("sts")
    slots = Counter(s for p in sts for s in (p.sentence1, p.sentence2))
    texts = _training_texts(out)
    made["V"] = len(build_vocab(texts))
    sentences = texts[: -made["definitions"]]  # headwords come last
    made["train_mean_tokens"] = sum(len(tokenize(t)) for t in sentences) / len(sentences)
    props = {
        "workload": workload,
        "seed": seed,
        "spec": asdict(spec),
        "d": spec.dim,
        "sts_pairs": len(sts),
        "sts_distinct_sentences": len(slots),
        "sts_repeated_share": sum(1 for c in slots.values() if c > 1) / len(slots),
        "sts_mean_tokens": sum(len(tokenize(s)) * c for s, c in slots.items()) / sum(slots.values()),
        **made,
    }
    (work / "inputs.json").write_text(json.dumps(props, indent=1, sort_keys=True), encoding="utf-8")
    return props


def _training_texts(inputs: Path) -> list[str]:
    # the same texts, in the same order, as ``sentsig train`` builds its vocabulary from
    texts = []
    if (inputs / "nli.tsv").exists():
        nli = load_nli(inputs / "nli.tsv")
        texts.extend(ex.premise for ex in nli)
        texts.extend(ex.hypothesis for ex in nli)
    defs = load_definitions(inputs / "definitions.tsv")
    texts.extend(ex.definition for ex in defs)
    texts.extend(ex.word for ex in defs)
    return texts


# ---------------------------------------------------------------------------
# set-up and the CLI sequence
# ---------------------------------------------------------------------------

def setup(workload: str, work: Path) -> None:
    """Run the loaders that come before the workload's first unit of work."""
    inputs = work / "inputs"
    load_sts(inputs / "sts.tsv")
    load_probe_task(inputs / "probe.tsv")
    build_vocab(_training_texts(inputs))


def sequence(workload: str, props: dict) -> list[tuple[str, list[str]]]:
    """(command name, argv) of one pass over the workload, paths relative to the work dir."""
    ini = ["--config", "inputs/exp.ini"]
    if workload == "toy-loop":
        ckpts = [f"out/run/checkpoint-seed{k}.json" for k in range(props["spec"]["seeds"])]
        return [
            ("partition", ["partition", "inputs/sts.tsv", "--scheme", "dice", "--out", "out/parts", *ini]),
            ("train", ["train", "--method", "multi", "--out", "out/run", *ini]),
            ("embed", ["embed", ckpts[0], "--sentences", "inputs/sentences.txt", "--out", "out/emb", *ini]),
            ("eval", ["eval", *ckpts, "--partition-dir", "out/parts", "--probe", "inputs/probe.tsv",
                      "--out", "out/eval", *ini]),
            ("combine-eval", ["combine-eval", "--a", ckpts[1], "--b", "out/emb/embeddings.txt",
                              "--mode", "concat", "--sts", "inputs/sts.tsv", "--out", "out/combo", *ini]),
        ]
    return [
        ("train", ["train", "--method", "defsent", "--out", "out/run", *ini]),
        ("eval", ["eval", "out/run/checkpoint-seed0.json", "--sts", "inputs/sts.tsv",
                  "--probe", "inputs/probe.tsv", "--out", "out/eval", *ini]),
    ]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifacts(work: Path) -> dict[str, str]:
    """sha256 of every checkpoint, dump and report.json the sequence wrote."""
    out = work / "out"
    found = [*out.glob("*/checkpoint-seed*.json"), *out.glob("*/embeddings.txt"),
             *out.glob("*/report.json")]
    return {str(p.relative_to(out)): _digest(p) for p in sorted(found)}


def _scores(report: dict) -> list:
    values = []
    if report.get("sts"):
        for entry in report["sts"]["subsets"]:
            values += [entry["spearman_x100"], entry["pearson_x100"]]
            for seed_values in (entry["per_seed"] or {}).values():
                values += seed_values
    for probe in (report.get("probes") or {}).values():
        values += [probe["accuracy_x100_mean"], *probe["per_provider_x100"]]
    return values


def check_outputs(workload: str, props: dict, work: Path, commands: list[tuple[str, int]]) -> tuple[dict, list]:
    """Quality figures of one pass and the (check, passed, detail) list for it.

    A command's exit code is a check of its own, so a command that fails
    counts as a failed operation next to the checks on what it wrote.
    """
    out = work / "out"
    checks = []
    for (name, rc), (_, argv) in zip(commands, sequence(workload, props)):
        manifest = work / argv[argv.index("--out") + 1] / "manifest.json"
        checks.append((f"{name} returns 0", rc == 0, f"rc={rc}"))
        checks.append((f"{name} writes manifest.json", manifest.exists(), str(manifest.relative_to(work))))
    steps = train_steps(workload, props)
    manifest = out / "run" / "manifest.json"
    done = sum(stage["steps"] for stages in json.loads(manifest.read_text(encoding="utf-8"))["stages"].values()
               for stage in stages) if manifest.exists() else 0
    checks.append(("train steps match the computed count", done == steps["nli"] + steps["def"],
                   f"{done} steps"))
    reports = {p.parent.name: json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(out.glob("*/report.json"))}
    for name, report in reports.items():
        values = _scores(report)
        finite = bool(values) and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        checks.append((f"{name}/report.json scores finite", finite, f"{len(values)} scores"))
    quality = {}
    main = reports.get("eval", {})
    if main.get("sts"):
        all_row = [e for e in main["sts"]["subsets"] if e["label"] == "ALL"]
        if all_row and all_row[0]["spearman_x100"] is not None:
            quality["sts_spearman_x100"] = all_row[0]["spearman_x100"]
            checks.append(("ALL row covers every pair", all_row[0]["n"] == props["sts_pairs"],
                           f"n={all_row[0]['n']}"))
    if main.get("probes"):
        means = [p["accuracy_x100_mean"] for p in main["probes"].values()]
        quality["probe_acc_x100"] = sum(means) / len(means)
    checks.append(("quality figures present",
                   set(quality) == {"sts_spearman_x100", "probe_acc_x100"}, str(sorted(quality))))
    if workload == "toy-loop":
        lines = (out / "emb" / "embeddings.txt").read_text(encoding="utf-8").count("\n") \
            if (out / "emb" / "embeddings.txt").exists() else 0
        checks.append(("dump holds every sentence", lines == props["embed_sentences"] + 1, f"{lines} lines"))
    return quality, checks


def pairs_scored(work: Path) -> int:
    """STS pairs scored by the eval commands: subsets, ALL and every provider."""
    total = 0
    for path in (work / "out").glob("*/report.json"):
        sts = json.loads(path.read_text(encoding="utf-8"))["sts"]
        if sts:
            total += sts["n_seeds"] * sum(e["n"] for e in sts["subsets"])
    return total


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------

def train_steps(workload: str, props: dict) -> dict:
    """Optimizer steps of one pass, per stream, summed over trained seeds.

    Every batch is full by construction: one length bucket per corpus and
    corpus sizes that are multiples of the batch size.
    """
    seeds = props["spec"]["seeds"]
    if workload == "toy-loop":
        nominal = props["nli"] // BATCH_SIZE
        cycle = NLI_CYCLE + DEF_CYCLE
        total = math.ceil(nominal / cycle) * cycle
        return {"nli": seeds * total * NLI_CYCLE // cycle, "def": seeds * total * DEF_CYCLE // cycle}
    return {"nli": 0, "def": seeds * props["definitions"] // BATCH_SIZE}


def computed_counts(workload: str, props: dict, work: Path) -> dict:
    """Counts that follow from the inputs and the outputs' sizes; they repeat exactly."""
    V, d = props["V"], props["d"]
    steps = train_steps(workload, props)
    table = V * d
    nli_elems = table + 3 * 3 * d + 3
    def_elems = table + V
    adam_elems = steps["nli"] * nli_elems + steps["def"] * def_elems
    n_steps = steps["nli"] + steps["def"]
    out = work / "out"
    ckpt_bytes = sum(p.stat().st_size for p in out.glob("*/checkpoint-seed*.json"))
    dump_bytes = sum(p.stat().st_size for p in out.glob("*/embeddings.txt"))
    return {
        "train_steps": n_steps,
        "train_nli_steps": steps["nli"],
        "train_def_steps": steps["def"],
        "train_examples": n_steps * BATCH_SIZE,
        # forward logits, the outer-product gradient and the backward mat-vec
        "def_head_madds_per_step": 3 * BATCH_SIZE * V * d if steps["def"] else 0,
        "adam_elements_per_step": adam_elems // n_steps,
        "adam_bytes_per_step": 8 * ADAM_ARRAYS * adam_elems // n_steps,
        "checkpoint_bytes": ckpt_bytes,
        "dump_bytes": dump_bytes,
    }
