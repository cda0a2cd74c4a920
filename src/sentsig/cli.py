"""Command-line entry point: partition, train, embed, eval, combine-eval.

Every command is deterministic given its config file, flags and seed(s), and
finishes by writing a ``manifest.json`` into the output directory; a
directory without a manifest is an aborted, invalid run.  Config files use
INI syntax (key = value under [data], [train], [probe] sections) and
command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .combiner import CombinedProvider
from .corpus import Partition, load_definitions, load_nli, load_sts, partition_by_dice, partition_by_source, read_lines, save_sts
from .corpus import dice  # noqa: F401  not called here, but bench/tracer.py wraps it under this name
from .encoder import EmbeddingStore, TokenCache, ToyEncoder, build_vocab, load_dump, save_dump
from .errors import InvalidInputError, SentsigError
from .evalsuite import ProbeConfig, StsReport, aggregate_seeds, eval_probe, eval_sts_partitioned, load_probe_task, probe_results_to_markdown
from .fileio import atomic_write
from .objectives import PIPELINES, IndexedExamples, MultiSchedule, TrainConfig, lockstep_groups, method_datasets, run_pipeline, stream_pattern

TRAIN_METHODS = tuple(PIPELINES)
METHODS = TRAIN_METHODS + ("average", "concat", "none")


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
    nli_cycle: int = 19
    def_cycle: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def schedule(self) -> MultiSchedule:
        return MultiSchedule(nli_steps_per_cycle=self.nli_cycle,
                             def_steps_per_cycle=self.def_cycle)


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


# the probe's Adam constants are the [train] ones
_SHARED_ADAM = ("beta1", "beta2", "eps")


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
    ProbeConfig fields but the Adam constants, which come from ``[train]``.
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
        if f.name not in _SHARED_ADAM:
            keys["probe", f.name] = ("probe", f.name, _converter(f))
    return keys


CONFIG_KEYS = _config_keys()


def load_experiment_config(path: str | None, args: argparse.Namespace) -> ExperimentConfig:
    values = {None: {}, "train": {}, "probe": {}}
    if path:
        parser = configparser.ConfigParser()
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
                if target == "train" and name in _SHARED_ADAM:
                    values["probe"][name] = values["train"][name]
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
    if cfg.method not in METHODS:
        raise InvalidInputError(f"unknown method {cfg.method!r}; expected one of {METHODS}")
    return cfg


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, config_snapshot: dict,
                    artifacts: dict, started: float, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "toolkit_version": __version__,
        "config": config_snapshot,
        "artifacts": artifacts,
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
    }
    if extra:
        manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest)


def _out_dir(cfg_out: str | None) -> Path:
    if not cfg_out:
        raise InvalidInputError("an output directory is required (--out or [train] out)")
    out = Path(cfg_out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_snapshot(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_provider(path, token_cache: TokenCache | None = None):
    """Load a provider from a checkpoint (JSON) or an embedding dump (dim= header).

    A checkpoint's encoder indexes sentences through ``token_cache``; the
    providers of one command share one cache.
    """
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"provider file not found: {p}")
    with open(p, "rb") as fh:
        head = fh.read(4)
    if head.startswith(b"dim="):
        return load_dump(p)
    if head.startswith(b"{"):
        encoder = load_checkpoint(p).encoder
        encoder.token_cache = token_cache
        return encoder
    raise InvalidInputError(f"{p}: neither an embedding dump nor a checkpoint")


def _label_filename(label: str) -> str:
    return label.replace("/", "_") + ".tsv"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_partition(args) -> int:
    started = time.perf_counter()
    cfg = load_experiment_config(args.config, args)
    out = _out_dir(cfg.out)
    # several inputs (e.g. train/dev/test files) are pooled before sorting
    pairs = []
    for path in args.sts_files:
        pairs.extend(load_sts(path))
    if args.scheme == "source":
        partition = partition_by_source(pairs)
    else:
        partition = partition_by_dice(pairs, k=args.k)
    summary_subsets = []
    artifacts = {}
    for i, (label, subset) in enumerate(partition.subsets):
        fname = _label_filename(label)
        save_sts(subset, out / fname)
        entry = {"label": label, "file": fname, "n": len(subset)}
        if partition.dice is not None:
            entry["min_dice"] = min(partition.dice[i])
            entry["max_dice"] = max(partition.dice[i])
        summary_subsets.append(entry)
        artifacts[label] = str(out / fname)
    summary = {"scheme": args.scheme, "input": [str(p) for p in args.sts_files],
               "n_pairs": len(pairs), "subsets": summary_subsets}
    _write_json(out / "summary.json", summary)
    for entry in summary_subsets:
        line = f"{entry['label']}: {entry['n']} pairs"
        if "min_dice" in entry:
            line += f" (dice {entry['min_dice']:.3f}..{entry['max_dice']:.3f})"
        print(line)
    _write_manifest(out, "partition", _config_snapshot(cfg), artifacts, started)
    return 0


def _require(path: str | None, what: str) -> str:
    if not path:
        raise InvalidInputError(f"method requires a {what} dataset path")
    if not Path(path).exists():
        raise InvalidInputError(f"{what} dataset not found: {path}")
    return path


def _training_data(cfg: ExperimentConfig):
    """(vocabulary, indexed NLI data or None, indexed definitions or None) of a training run.

    Every text is tokenized once, through one :class:`TokenCache` that the
    vocabulary and both indexes share; the token lists (like the parsed
    examples) are dropped once the indexes are built.
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
    return vocab, nli_data, def_data


def cmd_train(args) -> int:
    started = time.perf_counter()
    cfg = load_experiment_config(args.config, args)
    if cfg.method not in TRAIN_METHODS:
        raise InvalidInputError(
            f"method {cfg.method!r} is not trainable; expected one of {TRAIN_METHODS}")
    out = _out_dir(cfg.out)

    vocab, nli_data, def_data = _training_data(cfg)

    artifacts = {}
    stage_logs = {}
    for seeds in lockstep_groups(cfg.seeds, len(vocab), cfg.dim):
        for seed, (ckpt, stages) in _train_group(cfg, seeds, vocab, nli_data, def_data, out).items():
            artifacts[f"seed{seed}"] = str(ckpt)
            stage_logs[f"seed{seed}"] = stages
            print(f"seed {seed}: {sum(s['steps'] for s in stages)} steps -> {ckpt}")
    _write_manifest(out, "train", _config_snapshot(cfg), artifacts, started,
                    extra={"stages": stage_logs})
    return 0


def _train_group(cfg: ExperimentConfig, seeds: list[int], vocab, nli_data, def_data, out: Path) -> dict:
    """Train ``seeds`` in lockstep and save their checkpoints: each seed's (path, stage log).

    Training draws each seed's initial table straight into its optimizer.
    The models go when this returns, before the next group trains.
    """
    encoders = [ToyEncoder(vocab, None, cfg.pooling, dim=cfg.dim) for _ in seeds]
    results = run_pipeline(cfg.method, encoders, cfg.train, nli_data, def_data, cfg.schedule(), seeds=seeds)
    saved = {}
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
        saved[seed] = (ckpt, stages)
    return saved


def _build_single_or_combined(paths: list[str], mode: str | None):
    token_cache = TokenCache()
    providers = [load_provider(p, token_cache) for p in paths]
    if len(providers) == 1:
        return providers[0]
    if len(providers) == 2 and mode:
        return CombinedProvider(mode, providers[0], providers[1])
    raise InvalidInputError("give one provider, or exactly two with --combine")


def cmd_embed(args) -> int:
    started = time.perf_counter()
    cfg = load_experiment_config(args.config, args)
    out = _out_dir(cfg.out)
    provider = _build_single_or_combined(args.providers, args.combine)
    sentences = []
    seen = set()
    duplicates = 0
    for _, line in read_lines(args.sentences):
        if line in seen:
            duplicates += 1
            continue
        seen.add(line)
        sentences.append(line)
    if duplicates:
        print(f"warning: skipped {duplicates} duplicate sentence(s)", file=sys.stderr)
    store = EmbeddingStore(provider.dim, name=provider.name)
    for sentence, vector in zip(sentences, provider.embed_batch(sentences)):
        store.add(sentence, vector)
    dump_path = out / "embeddings.txt"
    save_dump(store, dump_path)
    print(f"wrote {len(sentences)} embeddings (dim={store.dim}) -> {dump_path}")
    _write_manifest(out, "embed", _config_snapshot(cfg),
                    {"dump": str(dump_path), "providers": list(args.providers)}, started)
    return 0


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


def _sts_input_partition(args) -> Partition | None:
    if args.sts and args.partition_dir:
        raise InvalidInputError("give either --sts or --partition-dir, not both")
    if args.sts:
        pairs = load_sts(args.sts)
        stem = Path(args.sts).stem
        return Partition(name=stem, subsets=[(stem, pairs)])
    if args.partition_dir:
        return _load_partition_dir(Path(args.partition_dir))
    return None


def _write_eval_outputs(out: Path, sts_report: StsReport | None, probe_results: dict) -> dict:
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
    return {"report_json": str(out / "report.json"), "report_md": str(out / "report.md")}


def cmd_eval(args) -> int:
    """``eval`` scores the given providers; ``combine-eval`` scores --a/--b combinations."""
    started = time.perf_counter()
    cfg = load_experiment_config(args.config, args)
    out = _out_dir(cfg.out)
    # every sentence is tokenized once, and indexed once per distinct vocabulary
    token_cache = TokenCache()
    if args.command == "combine-eval":
        if len(args.a) != len(args.b):
            raise InvalidInputError("--a and --b must be given the same number of times")
        providers = [CombinedProvider(args.mode, load_provider(pa, token_cache),
                                      load_provider(pb, token_cache))
                     for pa, pb in zip(args.a, args.b)]
        inputs = {"mode": args.mode, "providers_a": list(args.a), "providers_b": list(args.b)}
    else:
        providers = [load_provider(p, token_cache) for p in args.providers]
        inputs = {"providers": list(args.providers)}
    partition = _sts_input_partition(args)
    if partition is None and not args.probe:
        raise InvalidInputError("nothing to evaluate: give --sts, --partition-dir or --probe")
    # per provider: what was embedded for STS and each probe, and the skipped subsets
    embedding = [{"provider": p.name, "sts": None, "probes": {}} for p in providers]
    sts_report = None
    if partition is not None:
        reports = []
        for i, provider in enumerate(providers):
            counts = embedding[i]["sts"] = {}
            reports.append(eval_sts_partitioned(provider, partition, seed=i, embedded=counts))
            counts["skipped"] = [{"label": e.label, "note": e.note}
                                 for e in reports[-1].entries if e.spearman_x100 is None]
        sts_report = reports[0] if len(reports) == 1 else aggregate_seeds(reports)
    probe_results = {}
    for probe_path in args.probe or []:
        task = load_probe_task(probe_path)
        accuracies = []
        for i, provider in enumerate(providers):
            counts = embedding[i]["probes"][task.name] = {}
            accuracies.append(eval_probe(provider, task, cfg.probe, embedded=counts))
        probe_results[task.name] = {
            "accuracy_x100_mean": 100.0 * sum(accuracies) / len(accuracies),
            "per_provider_x100": [100.0 * a for a in accuracies],
        }
    artifacts = _write_eval_outputs(out, sts_report, probe_results)
    if sts_report:
        print(sts_report.to_markdown())
    _write_manifest(out, args.command, _config_snapshot(cfg), artifacts, started,
                    extra={**inputs, "embedding": embedding})
    return 0


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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SentsigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
