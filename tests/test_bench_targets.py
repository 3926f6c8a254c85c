"""Every function the benchmark's tracer wraps exists under its traced name.

``perfbench/spans.py`` looks each name up with ``getattr`` and no fallback,
so renaming or deleting a traced function breaks only traced benchmark runs.
These tests resolve every name without installing the tracer.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module,path", [
    pytest.param(module, path, id=name)
    for name, module, path in traced_targets()])
def test_traced_name_resolves(module, path):
    # the tracer splits a dotted path into one class and one attribute
    assert path.count(".") <= 1
    owner = importlib.import_module(module)
    assert callable(functools.reduce(getattr, path.split("."), owner))
