"""One fresh measured process of the benchmark; run.py starts it in the work dir.

    python3 measure.py setup WORKLOAD
        time importing sentsig plus the workload's loaders; prints {"setup_s": ..., "kernel_s": [...]}
    python3 measure.py loop WORKLOAD SECONDS TRACE SPANS_PATH
        run the workload's CLI sequence for SECONDS; prints the passes as JSON

A loop run makes at least two passes so their outputs can be compared byte
for byte.  With TRACE=1 the first half of the time runs untraced and the
second half traced, which gives the tracing overhead from one process.

Both print ``kernel_s``, the times of the calibration kernel (calibrate.py)
taken in the process: after the set-up, or before the first pass, between
commands and after the last pass.  A pass's time is the sum of its
commands' times, so it leaves the kernel out.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from envpin import pin_threads  # noqa: E402

pin_threads()  # before anything imports numpy

from calibrate import Calibrator, calibrate  # noqa: E402

# the kernel is timed after a command once this many seconds have passed since it last ran
CALIBRATE_EVERY_S = 1.0


def measure_setup(workload: str) -> dict:
    start = time.perf_counter()
    import sentsig.cli  # noqa: F401  importing the package is part of set-up
    imported = time.perf_counter()
    import workloads
    loaders = time.perf_counter()
    workloads.setup(workload, Path.cwd())
    setup_s = (imported - start) + (time.perf_counter() - loaders)
    return {"setup_s": setup_s, "kernel_s": [calibrate()]}


def _run_command(main, argv, captured) -> int:
    with redirect_stdout(captured), redirect_stderr(captured):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            return 1


def run_pass(workload: str, props: dict, work: Path, tracer, calibrator=None) -> dict:
    from sentsig.cli import main
    import workloads

    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    captured = io.StringIO()
    commands = []
    for name, argv in workloads.sequence(workload, props):
        start = time.perf_counter()
        if tracer is None:
            rc = _run_command(main, argv, captured)
        else:
            with tracer.span("cli." + name):
                rc = _run_command(main, argv, captured)
        commands.append((name, rc, time.perf_counter() - start))
        if calibrator is not None:
            calibrator.between()
    try:
        quality, checks = workloads.check_outputs(workload, props, work, [(n, rc) for n, rc, _ in commands])
        pairs, digests = workloads.pairs_scored(work), workloads.artifacts(work)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # outputs missing or malformed
        quality, checks, pairs, digests = {}, [("outputs readable", False, repr(exc))], 0, {}
    return {
        "traced": tracer is not None,
        "loop_s": sum(s for _, _, s in commands),
        "commands": commands,
        "checks": checks,
        "quality": quality,
        "pairs": pairs,
        "digests": digests,
        "output": captured.getvalue()[-4000:] if any(rc != 0 for _, rc, _ in commands) else "",
    }


def measure_loop(workload: str, seconds: float, trace: bool, spans_path: str) -> dict:
    from tracer import Tracer, summarize

    work = Path.cwd()
    props = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    tracer = Tracer() if trace else None
    phases = [(None, seconds / 2, 1), (tracer, seconds / 2, 1)] if trace else [(None, seconds, 2)]
    import sentsig.cli  # noqa: F401  set-up is timed on its own, not in the first pass

    passes = []
    calibrator = Calibrator(CALIBRATE_EVERY_S)
    for phase_tracer, budget, min_passes in phases:
        if phase_tracer is not None:
            phase_tracer.install()
        try:
            start = time.perf_counter()
            done, last = 0, 0.0
            while done < min_passes or time.perf_counter() - start + last <= budget:
                began = time.perf_counter()
                passes.append(run_pass(workload, props, work, phase_tracer, calibrator))
                last = time.perf_counter() - began
                done += 1
                if phase_tracer is not None:
                    phase_tracer.run += 1
        finally:
            if phase_tracer is not None:
                phase_tracer.uninstall()
    calibrator.between(force=True)
    result = {"passes": passes, "kernel_s": calibrator.times,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        result["layers"] = summarize(tracer.spans)
        tracer.write(spans_path)
    return result


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        result = measure_setup(argv[1])
    else:
        result = measure_loop(argv[1], float(argv[2]), argv[3] == "1", argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
