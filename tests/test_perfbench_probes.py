"""The benchmark's span probes resolve on this tree, and fire.

perfbench (the benchmark harness beside `src/`) wraps named llab
functions and methods, listed in `perfbench/spans.py:PROBES`, and fails a
traced run when one is missing, or when a probe its workload expects
(`perfbench/workloads.py`) stays silent.  These tests read those tables,
edit nothing, and resolve every target the same way, so that renaming,
deleting or bypassing a probed name fails here rather than only in a
traced run.  The suite workloads also run once, at their benchmark argv,
through the benchmark's own report oracles, so that a report change the
benchmark would reject fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = _load("spans")


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


def test_identity_suite_fires_every_function_probe_its_workload_expects(monkeypatch):
    # counting wrappers at every binding a caller looks the name up, as
    # spans.install puts its own
    from llab.suites import identity_suite

    expect = _load("workloads").WORKLOADS["identities"].expect
    targets = {
        probe: importlib.import_module(spans.PROBES[probe][1]).__dict__[spans.PROBES[probe][2]]
        for probe in expect
        if probe in spans.PROBES and "." not in spans.PROBES[probe][2]
    }
    assert {fn.__name__ for fn in targets.values()} >= {
        "lefschetz_power_matrix", "primitive_basis", "primitive_decompose",
        "hodge_star", "weil_operator", "metric_gram",
    }
    calls = dict.fromkeys(targets, 0)

    def counting(probe, fn):
        def wrapper(*args, **kwargs):
            calls[probe] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {id(fn): counting(probe, fn) for probe, fn in targets.items()}
    for name, module in list(sys.modules.items()):
        if name == "llab" or name.startswith("llab."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(obj)])
    assert identity_suite(n_values=(1, 2), cases=4, cross_cases=2)["passed"]
    assert all(calls.values()), calls


@pytest.mark.parametrize("workload", ["identities", "torus"])
def test_suite_workload_reports_pass_their_benchmark_oracles(workload, tmp_path):
    import json

    from llab.cli import main

    w = _load("workloads").WORKLOADS[workload]
    assert main([*w.argv, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{w.argv[0]}.json").read_text())
    assert w.checks["report"](report) == []
