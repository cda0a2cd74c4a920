"""sentsig benchmark: the CLI loop end to end, and per layer in a traced run.

One run, as BENCHMARK.json describes it (run from the repository root):

    python3 bench/run.py --workload toy-loop --seed 1 --seconds 50 --trace 0

generates the workload's inputs from the seed, times set-up in nine fresh
processes, runs the CLI sequence for the given seconds in one more
fresh process, checks every output and prints one JSON object as its last
line: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Timings are reported at a fixed reference speed of the machine
(calibrate.py); the wall-clock figures are printed before the JSON line.

Every workload, every metric, the inputs, the computed counts and the
machine, as one table:

    python3 bench/run.py --all --seed 0 --seconds 50
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from envpin import environment, pin_threads
from calibrate import speed
from metrics import END_TO_END, PER_LAYER, REPORTED, WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_work"
SETUP_REPS = 9
EVAL_STAGES = ("eval", "combine-eval")
CHILD_TIMEOUT_S = 150


def _child(args: list[str], cwd: Path) -> dict:
    """Run measure.py in a fresh process and return the JSON it printed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(BENCH / "measure.py"), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("sentsig/**/*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _stage_seconds(run: dict, names: tuple[str, ...]) -> float:
    return sum(s for name, _, s in run["commands"] if name in names)


def _median_rate(count: int, runs: list[dict], names: tuple[str, ...]) -> float:
    return statistics.median(count / _stage_seconds(r, names) for r in runs) if count else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    work = STATE / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_dir = STATE / "trace"
    trace_dir.mkdir(exist_ok=True)
    spans_path = trace_dir / f"{name}.spans.tsv"  # the latest traced run of each workload
    try:
        props = workloads.generate(name, seed, work)
        setups = [] if trace else [_child(["setup", name], work) for _ in range(SETUP_REPS)]
        loop = _child(["loop", name, str(seconds), "1" if trace else "0", str(spans_path)], work)
        counts = workloads.computed_counts(name, props, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = loop["passes"]
    checks = [tuple(c) for p in passes for c in p["checks"]]
    first = passes[0]["digests"]
    for i, p in enumerate(passes[1:], start=2):
        checks.append((f"pass {i} outputs byte-identical to pass 1", p["digests"] == first, ""))
    record = STATE / "digests" / f"{name}-seed{seed}-{_code_hash()}.json"
    if record.exists():
        checks.append(("outputs byte-identical to an earlier run of this seed",
                       json.loads(record.read_text(encoding="utf-8")) == first, record.name))
    else:
        record.parent.mkdir(exist_ok=True)
        record.write_text(json.dumps(first, sort_keys=True), encoding="utf-8")

    # timings at the reference speed of the machine (calibrate.py): seconds
    # are multiplied by the run's speed factor, rates divided by it
    factor = speed([k for sample in [*setups, loop] for k in sample["kernel_s"]])
    untraced = [p for p in passes if not p["traced"]]
    wall = {
        "loop_s": statistics.median(p["loop_s"] for p in untraced),
        "eval_pairs_per_s": statistics.median(p["pairs"] / _stage_seconds(p, EVAL_STAGES) for p in untraced),
        "train_examples_per_s": _median_rate(counts["train_examples"], untraced, ("train",)),
        "embed_sentences_per_s": _median_rate(props.get("embed_sentences", 0), untraced, ("embed",)),
    }
    if setups:
        wall["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    train_rate = wall["train_examples_per_s"] / factor
    embed_rate = wall["embed_sentences_per_s"] / factor
    if trace:
        layers = loop["layers"]
        traced = factor * statistics.median(p["loop_s"] for p in passes if p["traced"])
        plain = factor * wall["loop_s"]
        traced_examples = layers["objectives.nli_grad_examples"] + layers["objectives.def_grad_examples"]
        checks.append(("traced training examples match the computed count",
                       traced_examples == counts["train_examples"], f"{traced_examples}"))
        layers.update({"cli.train_examples_per_s": train_rate, "cli.embed_sentences_per_s": embed_rate,
                       "trace.overhead_s": traced - plain, "trace.overhead_share": (traced - plain) / plain})
        metrics = {m: layers[m] for m in PER_LAYER}
    else:
        quality = passes[0]["quality"]
        metrics = {
            "setup_s": factor * wall["setup_s"],
            "loop_s": factor * wall["loop_s"],
            "train_examples_per_s": train_rate,
            "eval_pairs_per_s": wall["eval_pairs_per_s"] / factor,
            "peak_rss_mb": loop["peak_rss_mb"],
            # a missing figure already failed the "quality figures present" check
            "sts_spearman_x100": quality.get("sts_spearman_x100", 0.0),
            "probe_acc_x100": quality.get("probe_acc_x100", 0.0),
        }
    failed = [c for c in checks if not c[1]]
    return {
        "workload": name, "seed": seed, "trace": trace, "passes": len(passes),
        "attempted": len(checks), "failed": len(failed), "failures": failed,
        "metrics": metrics,
        "reported": {"embed_sentences_per_s": embed_rate,
                     "fail_ratio": len(failed) / len(checks)},
        "inputs": props, "computed": counts, "wall": wall, "speed": factor,
        "output": [p["output"] for p in passes if p["output"]][:1],
    }


def _unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric][0]
    return REPORTED.get(metric) or PER_LAYER[metric][0]


def _print_context(result: dict, env: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])} "
          f"passes {result['passes']}")
    print("env " + json.dumps(env, sort_keys=True))
    inputs = {k: v for k, v in result["inputs"].items() if k != "spec"}
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print("computed " + json.dumps(result["computed"], sort_keys=True))
    print(f"speed {result['speed']:.4f} of the reference (calibrate.py); timings as measured: "
          + json.dumps(result["wall"], sort_keys=True))
    for check in result["failures"]:
        print(f"FAILED check: {check[0]} ({check[2]})")
    for text in result["output"]:
        print("command output:\n" + text)


def run_one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_context(result, environment())
    for metric, value in {**result["metrics"], **({} if args.trace else result["reported"])}.items():
        print(f"{metric} = {value} {_unit(metric)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    plain, traced = {}, {}
    for name in WORKLOAD_NAMES:
        plain[name] = run_workload(name, args.seed, args.seconds, trace=False)
        traced[name] = run_workload(name, args.seed, args.seconds, trace=True)
        for result in (plain[name], traced[name]):
            for check in result["failures"]:
                print(f"FAILED check [{name}]: {check[0]} ({check[2]})")
    width = max(len(m) for m in [*END_TO_END, *REPORTED, *PER_LAYER]) + 2

    def table(title, rows):
        print(f"\n{title}")
        print("metric".ljust(width) + "unit".ljust(8) + "".join(n.rjust(16) for n in WORKLOAD_NAMES))
        for metric, unit, values in rows:
            print(metric.ljust(width) + unit.ljust(8)
                  + "".join((f"{v:16d}" if isinstance(v, int) else f"{v:16.6g}") for v in values))

    table("end to end (untraced)", [
        (m, _unit(m), [plain[n]["metrics"][m] if m in END_TO_END else plain[n]["reported"][m]
                       for n in WORKLOAD_NAMES]) for m in [*END_TO_END, *REPORTED]])
    table("per layer (traced run)", [
        (m, _unit(m), [traced[n]["metrics"][m] for n in WORKLOAD_NAMES]) for m in PER_LAYER])
    for title, key in (("inputs", "inputs"), ("computed counts", "computed")):
        fields = sorted({k for n in WORKLOAD_NAMES for k, v in plain[n][key].items()
                         if isinstance(v, (int, float)) and k != "seed"})
        table(title, [(k, "", [plain[n][key].get(k, float("nan")) for n in WORKLOAD_NAMES])
                      for k in fields])
    return 0 if all(r["failed"] == 0 for r in [*plain.values(), *traced.values()]) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    if not (SRC / "sentsig" / "__init__.py").is_file():
        print(f"error: no sentsig sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_threads()  # before the first numpy import
    sys.path.insert(0, str(SRC))
    import sentsig

    if Path(sentsig.__file__).resolve().parent != SRC / "sentsig":
        print(f"error: imported sentsig from {sentsig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
