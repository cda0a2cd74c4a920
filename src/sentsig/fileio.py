"""Atomic file writes: a temp file beside the target, renamed over it on success.

A reader therefore sees either the previous file or the complete new one,
never a half-written file, and a failed write leaves no temp file behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a handle on ``<path>.tmp``; it replaces ``path`` when the block completes.

    Text mode writes UTF-8 with LF line ends.  If the block raises, the temp
    file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        if binary:
            fh = open(tmp, "wb")
        else:
            fh = open(tmp, "w", encoding="utf-8", newline="\n")
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # no-op after a successful replace
