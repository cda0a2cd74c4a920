"""One worker thread beside the calling one, for work that releases the GIL: numpy's passes, sha256.

It starts on the first :func:`beside` inside a :func:`command`, only if the process may run on
two CPUs or more, and stops when the command ends, so no idle thread outlives a command.
Without it, :func:`beside` runs its call at once in the calling thread.
"""

import contextvars
import os
from contextlib import contextmanager

_pool = None  # a concurrent.futures.ThreadPoolExecutor of one thread, imported at its first use
_depth = 0  # commands open


@contextmanager
def command():
    """Let :func:`beside` use the worker inside; the outermost command stops it at its end."""
    global _depth, _pool
    _depth += 1
    try:
        yield
    finally:
        _depth -= 1
        if not _depth and _pool is not None:
            _pool.shutdown()
            _pool = None


def beside(fn, *args):
    """Start ``fn(*args)`` on the worker, in the caller's context (numpy's errstate too); return the wait for it."""
    global _pool
    if _pool is None and _depth and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(1)
    if _pool is None:
        result = fn(*args)
        return lambda: result
    return _pool.submit(contextvars.copy_context().run, fn, *args).result
