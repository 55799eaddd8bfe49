"""Every span target of the benchmark tracer names a live library callable.

``perfbench/spans.py`` wraps each ``module:qualname`` in ``TARGETS`` when a
benchmark runs with ``--trace 1``, and raises on a target that no longer
exists.  This test resolves each one the way the tracer does (import, then
``getattr``, with ``Class.method`` read from the class's own ``__dict__``),
without patching anything, so deleting or renaming a traced function
fails here rather than only in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for _, target, _ in module.TARGETS]


@pytest.mark.parametrize("target", _targets())
def test_span_target_resolves(target):
    module_name, qualname = target.split(":")
    assert module_name.startswith("repro.")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, class_name))
    else:
        assert callable(getattr(module, qualname))
