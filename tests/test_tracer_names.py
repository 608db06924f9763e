"""The benchmark's traced run wraps program functions by name.

``perfbench/tracer.py`` resolves every name in its ``LAYERS``, ``COUNTERS``
and ``MEMORY`` tables in the matching ``emhash`` module and fails on a
missing one.  This test loads those tables read-only, so renaming or
removing a traced function fails here rather than only in the slower
benchmark smoke run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names() -> list[str]:
    tracer = _tracer_module()
    names = {name for functions in tracer.LAYERS.values() for name in functions}
    return sorted(names | set(tracer.COUNTERS) | set(tracer.MEMORY))


@pytest.mark.parametrize("qualified", _traced_names())
def test_traced_function_exists(qualified):
    module_name, attr = qualified.rsplit(".", 1)
    module = importlib.import_module(f"emhash.{module_name}")
    assert callable(getattr(module, attr, None)), f"emhash.{qualified} is missing"
