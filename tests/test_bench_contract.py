"""The benchmark's tracer finds every function it wraps where sentsig's callers look it up.

``bench/tracer.py`` replaces ``owner.__dict__[attr]`` for each entry of its
``TARGETS``; a refactor that moves or renames one of those names makes
``bench/run.py --trace 1`` fail, so the names are pinned here.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("owner, attr", [target[:2] for target in tracer.TARGETS],
                         ids=[f"{owner}.{attr}" for owner, attr, *_ in tracer.TARGETS])
def test_tracer_target_resolves(owner, attr):
    assert attr in tracer.resolve(owner).__dict__
