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


def test_gap_sweep_calls_the_eigensolve_probe_once_per_row(monkeypatch):
    # every row, on either preconditioner, is one `smallest_eigenpairs` call
    # on that row's pencil, so the probe's step and dof counters see them all;
    # the h = 0.4 mesh added below the sweep only preconditions and makes none.
    # Each call, and each splu eigensolve makes, passes through its probe's
    # result hook on a stub tracer, as `spans.install` wraps them, so that a
    # change to what the hooks read (result[2], args[0], the factor's L and
    # U) fails here and not only in a traced run
    from collections import defaultdict
    from types import SimpleNamespace

    from llab.hyperbolic import eigensolve
    from llab.hyperbolic.gap import gap_sweep

    tracer = SimpleNamespace(counts=defaultdict(int), distinct=defaultdict(set))

    def hooked(probe, fn):
        hook = spans.PROBES[probe][3]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return wrapper

    _, modname, name, _ = spans.PROBES["hyperbolic.eigensolve.solve"]
    target = importlib.import_module(modname).__dict__[name]
    solve = hooked("hyperbolic.eigensolve.solve", target)
    dofs = []

    def counting(A, *args, **kwargs):
        dofs.append(A.shape[0])
        return solve(A, *args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname == "llab" or modname.startswith("llab."):
            for attr, obj in list(vars(module).items()):
                if obj is target:
                    monkeypatch.setattr(module, attr, counting)
    assert spans.PROBES["hyperbolic.eigensolve.lu"][2] == "spla.splu"
    monkeypatch.setattr(eigensolve, "spla", spans._ModuleProxy(
        eigensolve.spla, hooked("hyperbolic.eigensolve.lu", eigensolve.spla.splu)))
    rows = gap_sweep(R_values=(4.0,), h_values=(0.2, 0.1))["rows"]
    assert [row["solver"] for row in rows] == ["multigrid", "multigrid"]
    assert dofs == [row["n_dofs"] for row in rows]
    assert tracer.counts["hyperbolic.eigensolve.lanczos_iters"] == sum(row["iterations"] for row in rows) > 0
    assert tracer.counts["hyperbolic.eigensolve.dofs"] == sum(dofs)
    assert tracer.counts["hyperbolic.eigensolve.lu_nnz"] > 0


@pytest.mark.parametrize("workload", ["identities", "torus", "hyperbolic"])
def test_suite_workload_reports_pass_their_benchmark_oracles(workload, tmp_path):
    import json

    from llab.cli import main

    w = _load("workloads").WORKLOADS[workload]
    assert main([*w.argv, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{w.argv[0]}.json").read_text())
    assert w.checks["report"](report) == []
    if workload == "hyperbolic":
        # the benchmark's routing: one LU per R, on its coarsest mesh, and a
        # V-cycle down to it on every other row
        assert [(row["n_dofs"], row["solver"]) for row in report["report"]["sweep"]["rows"]] == [
            (379, "lu"), (1625, "multigrid"), (3718, "multigrid"),
            (15687, "multigrid"), (28465, "multigrid"), (119885, "multigrid"),
        ]
