"""Make the package under test importable in the Python processes that tests start.

``pythonpath`` in pyproject.toml puts ``src`` on this process's path only;
a child interpreter (``python -m sentsig``, a memory-measuring script) finds
the package through ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
