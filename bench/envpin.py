"""Pin the BLAS/OpenMP thread count and describe the machine a result came from.

``pin_threads`` must run before numpy is first imported: OpenBLAS reads the
variables once, when it loads.  The count is fixed, not inherited, because
the OpenBLAS bundled with numpy is built for up to 64 threads while the
benchmark runs one process on a small shared machine, where a single BLAS
thread gives the steadiest figures.
"""

from __future__ import annotations

import os
import platform
import sys

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
