"""Machine-speed calibration: a fixed kernel timed throughout every run.

On the small shared VMs this benchmark was built on, the speed of the machine
changes in steps of 20-50% that last from seconds to minutes: a fixed
pure-Python loop took 0.35 s for a while and then 0.50 s, with CPU time
moving with wall time and no steal time recorded.  A run of half a minute
lands in one or two such stretches, so the spread between runs followed the
stretches more than the program.  A run therefore also times ``kernel``, a
fixed piece of work that shares no code with sentsig, once in every set-up
process and between the commands of its passes, and reports its timings at
the reference speed:

    speed = REFERENCE_S / median of the run's kernel times
    reported seconds = measured seconds * speed

A change to sentsig moves the measured times and not the kernel's, so it
shows in full.  The kernel mixes the kinds of work sentsig does: Python
string and dict work, float text round trips as in the JSON checkpoints,
per-row numpy calls, a BLAS product and an elementwise update.  Its working
set is a few MB, so it does not raise the peak memory a run reports.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

# About the median kernel time on the 2-vCPU Intel Xeon VM the baseline comes
# from; a reported timing reads as seconds on that machine at that speed.
REFERENCE_S = 0.040
REPS = 5


@functools.cache
def _inputs():
    # numpy is imported on first use, so importing this module leaves the
    # BLAS thread setting to envpin
    import numpy as np

    words = [f"w{i:05d}" for i in range(2000)]
    text = [" ".join(words[(7 * i + 13 * j) % len(words)] for j in range(12)) for i in range(800)]
    rng = np.random.default_rng(12345)
    big = rng.random(200_000)
    return np, text, rng.normal(size=(300, 64)), rng.normal(size=(160, 160)), big, np.empty_like(big)


def kernel() -> float:
    np, text, table, mat, big, out = _inputs()
    counts: dict[str, int] = {}
    for line in text:
        for token in line.lower().split():
            counts[token] = counts.get(token, 0) + 1
    back = np.array(json.loads(json.dumps([[float(x) for x in row] for row in table])))
    acc = 0.0
    for row in back:
        acc += float(row @ row) / (float(np.linalg.norm(row)) + 1.0)
    prod = mat @ mat
    for _ in range(10):  # an Adam-like elementwise update, in place so memory stays small
        np.multiply(big, big, out=out)
        np.sqrt(out, out=out)
        out += 1e-8
        np.divide(big, out, out=out)
    return len(counts) + acc + float(prod[0, 0]) + float(out[0])


def calibrate() -> float:
    """Median wall time of ``REPS`` kernel calls, in seconds."""
    _inputs()
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed(kernel_times: list[float]) -> float:
    """The factor that turns a run's measured seconds into reference seconds."""
    return REFERENCE_S / statistics.median(kernel_times)


class Calibrator:
    """Times the kernel now, and later between timed intervals once ``gap_s``
    seconds have passed since it last ran; ``times`` holds every kernel time."""

    def __init__(self, gap_s: float):
        self.gap_s = gap_s
        self.times = [calibrate()]
        self.taken = time.perf_counter()

    def between(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.taken >= self.gap_s:
            self.times.append(calibrate())
            self.taken = time.perf_counter()


if __name__ == "__main__":
    for _ in range(10):
        print(f"{calibrate():.4f}")
