"""The benchmark's span probes resolve on this tree.

perfbench (the benchmark harness beside `src/`) wraps named llab
functions and methods, listed in `perfbench/spans.py:PROBES`, and fails a
traced run when one is missing.  This test reads that table, edits
nothing, and resolves every target the same way, so that renaming or
deleting a probed name fails here rather than only in a traced run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("layer", sorted(spans.LAYERS))
def test_every_layer_module_imports(layer):
    importlib.import_module(spans.LAYERS[layer])


@pytest.mark.parametrize("probe", sorted(spans.PROBES))
def test_every_probe_resolves(probe):
    layer, modname, path, _ = spans.PROBES[probe]
    assert layer in spans.LAYERS
    target = importlib.import_module(modname)
    for part in path.split("."):
        target = getattr(target, part, None)
        assert target is not None, f"{probe}: {modname}.{path} not found"
    assert callable(target), probe
    if "." not in path:
        # a plain name is found among its layer's public functions
        assert inspect.isfunction(target) and target.__module__ == modname, probe
