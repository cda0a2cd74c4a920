"""Command-line entry point: partition, train, embed, eval, combine-eval.

Every command is deterministic given its config file, flags and seed(s).
``main`` is the one runner: it reads the config, creates the output
directory and hands the command a staging directory inside it.  When the
command succeeds, the runner deletes the old ``manifest.json``, moves each
staged file into the output directory and writes the new manifest last; when
it fails, the staging directory is removed and the output directory is left
as it was.  A directory without a manifest is an aborted, invalid run.
Config files use INI syntax (key = value under [data], [train], [probe]
sections) and command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import os
import shutil
import sys
import time
from contextlib import redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .combiner import CombinedProvider
from .corpus import Partition, load_definitions, load_nli, load_sts, partition_by_dice, partition_by_source, read_lines, save_sts
from .corpus import dice  # noqa: F401  not called here, but bench/tracer.py wraps it under this name
from .encoder import POOLINGS, EmbeddingStore, TokenCache, ToyEncoder, build_vocab, load_dump, save_dump
from .errors import InvalidInputError, SentsigError
from .evalsuite import (ProbeConfig, StsReport, aggregate_seeds, eval_probe, eval_sts_partitioned, load_probe_task,
                        probe_features, probe_results_to_markdown)
from .fileio import atomic_write
from .objectives import PIPELINES, IndexedExamples, TrainConfig, lockstep_groups, method_datasets, run_pipeline, stream_pattern

TRAIN_METHODS = tuple(PIPELINES)


@dataclass
class ExperimentConfig:
    """Effective settings of a run: config file values with flag overrides applied.

    ``train.seed`` is unused: each training run takes its seed from ``seeds``.
    """

    method: str = "sbert"
    dim: int = 16
    pooling: str = "mean"
    min_count: int = 1
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str | None = None
    sts: str | None = None
    nli: str | None = None
    definitions: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)


def parse_seed_list(text: str) -> list[int]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise InvalidInputError("empty seed list")
    try:
        seeds = [int(p) for p in parts]
    except ValueError:
        raise InvalidInputError(f"seed list {text!r}: seeds must be integers") from None
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise InvalidInputError(f"seed list {text!r}: seeds must be >= 0")
        if seed in seeds[:i]:
            raise InvalidInputError(f"duplicate seed {seed}")
    return seeds


_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOL:
        raise ValueError("expected a boolean")
    return _BOOL[text.lower()]


def _converter(f: dataclasses.Field):
    """Parser of a config value, chosen by the type of the field's default."""
    default = f.default_factory() if f.default is dataclasses.MISSING else f.default
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, list):
        return parse_seed_list
    return str if default is None else type(default)


def _config_keys() -> dict:
    """(section, key) -> (sub-config or None, field name, converter).

    ``[data]`` holds the dataset paths and ``[train]`` the other run fields
    plus every TrainConfig field but ``seed``.  ``[probe]`` holds the
    ProbeConfig fields.
    """
    keys = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in ("train", "probe"):
            section = "data" if f.name in ("sts", "nli", "definitions") else "train"
            keys[section, f.name] = (None, f.name, _converter(f))
    for f in dataclasses.fields(TrainConfig):
        if f.name != "seed":
            keys["train", f.name] = ("train", f.name, _converter(f))
    for f in dataclasses.fields(ProbeConfig):
        keys["probe", f.name] = ("probe", f.name, _converter(f))
    return keys


CONFIG_KEYS = _config_keys()


def load_experiment_config(path: str | None, args: argparse.Namespace) -> ExperimentConfig:
    values = {None: {}, "train": {}, "probe": {}}
    if path:
        parser = configparser.ConfigParser(interpolation=None)  # values are literal, "%" included
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"config file {path}: {exc}") from None
        if not read:
            raise InvalidInputError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                spec = CONFIG_KEYS.get((section, key))
                if spec is None:
                    raise InvalidInputError(f"unknown config key [{section}] {key}")
                target, name, conv = spec
                try:
                    values[target][name] = conv(raw)
                except ValueError as exc:
                    raise InvalidInputError(
                        f"[{section}] {key}: invalid value {raw!r} ({exc})") from None
    cfg = ExperimentConfig(**values[None], train=TrainConfig(**values["train"]),
                           probe=ProbeConfig(**values["probe"]))
    # flags win over config file values
    for flag, attr in (("method", "method"), ("pooling", "pooling"), ("dim", "dim"),
                       ("out", "out")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "seeds", None) is not None:
        cfg.seeds = parse_seed_list(args.seeds)
    if getattr(args, "seed", None) is not None:
        cfg.seeds = parse_seed_list(str(args.seed))
    if cfg.method not in TRAIN_METHODS:
        raise InvalidInputError(f"unknown method {cfg.method!r}; expected one of {TRAIN_METHODS}")
    if cfg.dim < 1:
        raise InvalidInputError("embedding dimension must be >= 1")
    if cfg.pooling not in POOLINGS:
        raise InvalidInputError(f"unknown pooling strategy {cfg.pooling!r}")
    if cfg.min_count < 1:
        raise InvalidInputError("min_count must be >= 1")
    return cfg


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _provider(paths: list[str], mode: str | None, token_cache: TokenCache):
    """The provider of one checkpoint or dump path, or, with ``mode``, the combination of two.

    A file is a dump or a checkpoint by its first bytes.  A checkpoint's encoder
    indexes sentences through ``token_cache``; a command's providers share one.
    """
    if not (len(paths) == 1 or (len(paths) == 2 and mode)):
        raise InvalidInputError("give one provider, or exactly two with --combine")
    providers = []
    for p in map(Path, paths):
        if not p.exists():
            raise InvalidInputError(f"provider file not found: {p}")
        with open(p, "rb") as fh:
            head = fh.read(4)
        if head.startswith(b"dim="):
            providers.append(load_dump(p))
        elif head.startswith(b"{"):
            providers.append(load_checkpoint(p).encoder)
            providers[-1].token_cache = token_cache
        else:
            raise InvalidInputError(f"{p}: neither an embedding dump nor a checkpoint")
    return providers[0] if len(providers) == 1 else CombinedProvider(mode, *providers)


def _label_filename(label: str) -> str:
    return label.replace("/", "_") + ".tsv"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_partition(args, cfg: ExperimentConfig, out: Path) -> dict:
    # several inputs (e.g. train/dev/test files) are pooled before sorting
    pairs = []
    for path in args.sts_files:
        pairs.extend(load_sts(path))
    if args.scheme == "source":
        partition = partition_by_source(pairs)
    else:
        partition = partition_by_dice(pairs, k=args.k)
    summary_subsets = []
    labels = {}
    for i, (label, subset) in enumerate(partition.subsets):
        fname = _label_filename(label)
        if fname in labels:
            raise InvalidInputError(f"subsets {labels[fname]!r} and {label!r} would both be written to {fname}")
        labels[fname] = label
        save_sts(subset, out / fname)
        entry = {"label": label, "file": fname, "n": len(subset)}
        if partition.dice is not None:
            entry["min_dice"] = min(partition.dice[i])
            entry["max_dice"] = max(partition.dice[i])
        summary_subsets.append(entry)
    summary = {"scheme": args.scheme, "input": [str(p) for p in args.sts_files],
               "n_pairs": len(pairs), "subsets": summary_subsets}
    _write_json(out / "summary.json", summary)
    for entry in summary_subsets:
        line = f"{entry['label']}: {entry['n']} pairs"
        if "min_dice" in entry:
            line += f" (dice {entry['min_dice']:.3f}..{entry['max_dice']:.3f})"
        print(line)
    return {}


def _require(path: str | None, what: str) -> str:
    if not path:
        raise InvalidInputError(f"method requires a {what} dataset path")
    if not Path(path).exists():
        raise InvalidInputError(f"{what} dataset not found: {path}")
    return path


def _training_data(cfg: ExperimentConfig):
    """(vocabulary, indexed NLI data or None, indexed definitions or None, dropped definitions).

    Every text is tokenized once, through one :class:`TokenCache` that the
    vocabulary and both indexes share; the token lists (like the parsed
    examples) are dropped once the indexes are built.  Training drops the
    definition examples whose headword is not in the vocabulary (below
    ``min_count``, say); their number is warned about here.
    """
    needs_nli, needs_defs = method_datasets(cfg.method)
    nli_examples = load_nli(_require(cfg.nli, "NLI")) if needs_nli else None
    def_examples = load_definitions(_require(cfg.definitions, "definitions")) if needs_defs else None
    texts = []
    if nli_examples:
        texts.extend(ex.premise for ex in nli_examples)
        texts.extend(ex.hypothesis for ex in nli_examples)
    if def_examples:
        texts.extend(ex.definition for ex in def_examples)
        texts.extend(ex.word for ex in def_examples)
    cache = TokenCache()
    vocab = build_vocab(texts, min_count=cfg.min_count, cache=cache)
    nli_data = None if nli_examples is None else IndexedExamples.nli(nli_examples, vocab, cache=cache)
    def_data = None if def_examples is None else IndexedExamples.definitions(def_examples, vocab, cache=cache)
    dropped = 0 if def_data is None else int((def_data.golds < 0).sum())
    if dropped:
        print(f"warning: dropped {dropped} definition example(s) whose headword is not in the vocabulary",
              file=sys.stderr)
    return vocab, nli_data, def_data, dropped


def cmd_train(args, cfg: ExperimentConfig, out: Path) -> dict:
    vocab, nli_data, def_data, dropped = _training_data(cfg)
    stage_logs = {}
    for seeds in lockstep_groups(cfg.seeds, len(vocab), cfg.dim):
        stage_logs.update(_train_group(cfg, seeds, vocab, nli_data, def_data, out))
    return {"stages": stage_logs, "dropped_definitions": dropped}


def _train_group(cfg: ExperimentConfig, seeds: list[int], vocab, nli_data, def_data, out: Path) -> dict:
    """Train ``seeds`` in lockstep and save their checkpoints: each ``seed<k>``'s stage log.

    Training draws each seed's initial table straight into its optimizer.
    The models go when this returns, before the next group trains.
    """
    encoders = [ToyEncoder(vocab, None, cfg.pooling, dim=cfg.dim) for _ in seeds]
    results = run_pipeline(cfg.method, encoders, cfg.train, nli_data, def_data, seeds=seeds)
    logs = {}
    for seed, encoder, result in zip(seeds, encoders, results):
        stages = [{
            "stage": stage,
            "steps": len(steps),
            "initial_loss": steps[0].loss if steps else None,
            "final_loss": steps[-1].loss if steps else None,
            "stream_pattern": [[s, c] for s, c in stream_pattern(steps)],
        } for stage, steps in zip(PIPELINES[cfg.method], result.stage_steps)]
        ckpt = out / f"checkpoint-seed{seed}.json"
        save_checkpoint(ckpt, encoder, result.params, dataclasses.replace(cfg.train, seed=seed))
        print(f"seed {seed}: {sum(s['steps'] for s in stages)} steps -> {Path(cfg.out) / ckpt.name}")
        logs[f"seed{seed}"] = stages
    return logs


def cmd_embed(args, cfg: ExperimentConfig, out: Path) -> dict:
    provider = _provider(args.providers, args.combine, TokenCache())
    lines = [line for _, line in read_lines(args.sentences)]
    sentences = list(dict.fromkeys(lines))
    if len(lines) > len(sentences):
        print(f"warning: skipped {len(lines) - len(sentences)} duplicate sentence(s)", file=sys.stderr)
    store = EmbeddingStore(provider.dim, name=provider.name)
    for sentence, vector in zip(sentences, provider.embed_batch(sentences)):
        store.add(sentence, vector)
    save_dump(store, out / "embeddings.txt")
    print(f"wrote {len(sentences)} embeddings (dim={store.dim}) -> {Path(cfg.out) / 'embeddings.txt'}")
    return {"providers": list(args.providers)}


def _read_summary(path: Path) -> dict:
    """The partition command's summary.json, checked for the fields eval reads."""
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{path}: not a partition summary ({exc})") from None
    subsets = summary.get("subsets") if isinstance(summary, dict) else None
    if not isinstance(subsets, list):
        raise InvalidInputError(f"{path}: expected an object with a 'subsets' list")
    for i, entry in enumerate(subsets):
        if not (isinstance(entry, dict) and isinstance(entry.get("label"), str)
                and isinstance(entry.get("file"), str)):
            raise InvalidInputError(f"{path}: subset {i} needs a 'label' and a 'file' string")
    return summary


def _load_partition_dir(path: Path) -> Partition:
    summary_file = path / "summary.json"
    if summary_file.exists():
        summary = _read_summary(summary_file)
        labels_files = [(e["label"], path / e["file"]) for e in summary["subsets"]]
        name = summary.get("scheme", path.name)
    else:
        labels_files = [(p.stem, p) for p in sorted(path.glob("*.tsv"))]
        name = path.name
    if not labels_files:
        raise InvalidInputError(f"no partition subsets found in {path}")
    return Partition(name=name, subsets=[(label, load_sts(f)) for label, f in labels_files])


def _sts_input_partition(args, cfg: ExperimentConfig) -> Partition | None:
    """The STS pairs to score: --sts, --partition-dir, or else ``[data] sts``."""
    if args.sts and args.partition_dir:
        raise InvalidInputError("give either --sts or --partition-dir, not both")
    if args.partition_dir:
        return _load_partition_dir(Path(args.partition_dir))
    sts = args.sts or cfg.sts
    if sts:
        stem = Path(sts).stem
        return Partition(name=stem, subsets=[(stem, load_sts(sts))])
    return None


def _write_eval_outputs(out: Path, sts_report: StsReport | None, probe_results: dict) -> None:
    report = {
        "sts": sts_report.to_json_dict() if sts_report else None,
        "probes": probe_results or None,
    }
    _write_json(out / "report.json", report)
    sections = []
    if sts_report:
        sections.append(sts_report.to_markdown())
    if probe_results:
        means = {name: r["accuracy_x100_mean"] / 100.0 for name, r in probe_results.items()}
        sections.append(probe_results_to_markdown(means))
    with atomic_write(out / "report.md") as fh:
        fh.write("\n".join(sections) if sections else "nothing evaluated\n")


def cmd_eval(args, cfg: ExperimentConfig, out: Path) -> dict:
    """``eval`` scores the given providers; ``combine-eval`` scores --a/--b combinations.

    Every input is read and checked before the first provider loads.  Then
    each provider (one path, or one --a/--b pair) is built, scored on STS,
    embeds every probe's sentences and is dropped before the next one loads;
    after the last, one :func:`eval_probe` call per probe fits them all.
    """
    if args.command == "combine-eval":
        if len(args.a) != len(args.b):
            raise InvalidInputError("--a and --b must be given the same number of times")
        specs = [([pa, pb], args.mode) for pa, pb in zip(args.a, args.b)]
        inputs = {"mode": args.mode, "providers_a": list(args.a), "providers_b": list(args.b)}
    else:
        specs = [([p], None) for p in args.providers]
        inputs = {"providers": list(args.providers)}
    partition = _sts_input_partition(args, cfg)
    tasks = [load_probe_task(path) for path in args.probe or []]
    names = [task.name for task in tasks]
    for i, name in enumerate(names):
        if name in names[:i]:  # the two would share one report row
            raise InvalidInputError(
                f"probe files {args.probe[names.index(name)]} and {args.probe[i]} are both task {name!r}")
    for task in tasks:
        task.folds()  # a class too small for the folds fails before any provider loads
    if partition is None and not tasks:
        raise InvalidInputError("nothing to evaluate: give --sts, --partition-dir, --probe or [data] sts")
    # every sentence is tokenized once, and indexed once per distinct vocabulary
    token_cache = TokenCache()
    # per provider: what was embedded for STS and each probe, and the skipped subsets
    embedding, reports = [], []
    features = {task.name: [] for task in tasks}  # each provider's probe rows
    for i, (paths, mode) in enumerate(specs):
        provider = _provider(paths, mode, token_cache)
        record = {"provider": provider.name, "sts": None, "probes": {}}
        if partition is not None:
            counts = record["sts"] = {}
            reports.append(eval_sts_partitioned(provider, partition, seed=i, embedded=counts))
            counts["skipped"] = [{"label": e.label, "note": e.note}
                                 for e in reports[-1].entries if e.spearman_x100 is None]
        for task in tasks:
            counts = record["probes"][task.name] = {}
            features[task.name].append(probe_features(provider, task, embedded=counts))
        embedding.append(record)
        del provider  # before the next one loads
    del token_cache  # with the vocabulary its indexes are keyed by, before the probes fit
    sts_report = reports[0] if len(reports) == 1 else aggregate_seeds(reports) if reports else None
    accuracies = {task.name: eval_probe(features.pop(task.name), task, cfg.probe) for task in tasks}
    probe_results = {name: {
        "accuracy_x100_mean": 100.0 * sum(values) / len(values),
        "per_provider_x100": [100.0 * a for a in values],
    } for name, values in accuracies.items()}
    _write_eval_outputs(out, sts_report, probe_results)
    if sts_report:
        print(sts_report.to_markdown())
    return {**inputs, "embedding": embedding}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file")
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentsig",
        description="Compare NLI and definition-prediction supervision for sentence embeddings",
    )
    parser.add_argument("--version", action="version", version=f"sentsig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="split an STS file by source or Dice overlap")
    p.add_argument("sts_files", nargs="+",
                   help="STS file(s); several inputs are pooled before partitioning")
    p.add_argument("--scheme", choices=("source", "dice"), required=True)
    p.add_argument("--k", type=int, default=5, help="number of Dice groups")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="train the toy encoder with a supervision method")
    _add_common(p)
    p.add_argument("--method", choices=TRAIN_METHODS)
    p.add_argument("--pooling", choices=("cls", "mean", "max"))
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int, help="single seed (overrides --seeds)")
    p.add_argument("--seeds", help="seed list, e.g. '0 1 2'")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="write an embedding dump for a sentences file")
    p.add_argument("providers", nargs="+", help="checkpoint or dump path(s)")
    p.add_argument("--sentences", required=True, help="one sentence per line")
    p.add_argument("--combine", choices=("average", "concat"),
                   help="combination mode when two providers are given")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="evaluate provider(s) on STS and/or probe tasks")
    p.add_argument("providers", nargs="+", help="checkpoint or dump path(s); several = seed mean")
    p.add_argument("--sts", help="STS file to evaluate on")
    p.add_argument("--partition-dir", help="directory produced by the partition command")
    p.add_argument("--probe", action="append", help="probe task file (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("combine-eval", help="evaluate a pairwise combination of providers")
    p.add_argument("--a", action="append", required=True, help="first provider (repeatable)")
    p.add_argument("--b", action="append", required=True, help="second provider (repeatable)")
    p.add_argument("--mode", choices=("average", "concat"), required=True)
    p.add_argument("--sts")
    p.add_argument("--partition-dir")
    p.add_argument("--probe", action="append")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    """Run one command into ``<out>/.staging-<pid>`` and publish its files with the manifest.

    The manifest's ``artifacts`` maps each published file name to its size in
    bytes; the command's return value adds its own fields.  Its stdout is held
    until its files are published, so a failed command names no file there.
    """
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    staging, made = None, []
    try:
        cfg = load_experiment_config(args.config, args)
        if not cfg.out:
            raise InvalidInputError("an output directory is required (--out or [train] out)")
        out = Path(cfg.out)
        made = [d for d in (out, *out.parents) if not d.exists()]  # removed again if the command fails
        out.mkdir(parents=True, exist_ok=True)
        staging = out / f".staging-{os.getpid()}"
        staging.mkdir()
        with redirect_stdout(io.StringIO()) as held:
            extra = args.func(args, cfg, staging)
        artifacts = {p.name: p.stat().st_size for p in sorted(staging.iterdir())}
        # from here until the new manifest is written, <out> holds no manifest
        (out / "manifest.json").unlink(missing_ok=True)
        for name in artifacts:
            os.replace(staging / name, out / name)
        _write_json(out / "manifest.json", {
            "command": args.command,
            "toolkit_version": __version__,
            "config": dataclasses.asdict(cfg),
            "artifacts": artifacts,
            "wall_clock_seconds": round(time.perf_counter() - started, 3),
            **extra,
        })
        sys.stdout.write(held.getvalue())
        made = []
        return 0
    except (SentsigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for directory in made:  # deepest first
            with suppress(OSError):  # not empty, or never made
                directory.rmdir()


if __name__ == "__main__":
    sys.exit(main())
