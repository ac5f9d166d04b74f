"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload shape end to end and traced on small inputs, checks
that every metric BENCHMARK.json names is emitted with its unit, that
the traced spans account for the traced wall time, and that a corrupted
output is counted as a failure.  Takes about a minute on two cores.
"""

from __future__ import annotations

import dataclasses
import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import pace
import run
import workloads as wl

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "identities": dataclasses.replace(
        wl.WORKLOADS["identities"],
        argv=("verify-identities", "--n", "1,2", "--cases", "20", "--cross-cases", "10"),
        checks={"report": lambda r: wl.check_identities(r, n_values=(1, 2))},
    ),
    "torus": dataclasses.replace(
        wl.WORKLOADS["torus"],
        argv=("torus", "--n", "2", "--N", "1", "--samples", "2"),
        checks={"report": lambda r: wl.check_torus(r, n_values=(2,))},
    ),
    "hyperbolic": dataclasses.replace(
        wl.WORKLOADS["hyperbolic"],
        argv=("hyperbolic", "--R", "2", "--h", "0.2,0.1"),
        checks={"report": lambda r: wl.check_hyperbolic(r, R_values=(2.0,))},
    ),
    "decompose": dataclasses.replace(wl.WORKLOADS["decompose"], calls=wl.DECOMPOSE_COVER),
}


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_SETUP_SAMPLES", 2)


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    assert {w["name"] for w in BENCH["workloads"]} == set(wl.WORKLOADS)
    e2e = run.execute(TINY[name], seed=3, seconds=0.1, trace=False, out_root=tmp_path)
    assert e2e["failed"] == 0, e2e["problems"]
    assert {k: m["unit"] for k, m in e2e["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in e2e["metrics"].values())
    pacing = e2e["pacing"]
    assert len(pacing["wall_scale"]) == e2e["metrics"]["wall_s"]["n"]
    assert all(s > 0 for s in pacing["wall_scale"] + pacing["setup_scale"])

    traced = run.execute(TINY[name], seed=3, seconds=0.1, trace=True, out_root=tmp_path)
    assert traced["failed"] == 0, traced["problems"]
    layers = traced["metrics"]
    assert {k: m["unit"] for k, m in layers.items()} == _units("per_layer")
    # every span sits inside the timed region, so the layers' self times
    # add up to the traced wall time
    assert 0.9 < layers["trace.accounted_frac"]["value"] <= 1.0 + 1e-9
    self_total = sum(layers[f"{layer}.self_s"]["value"] for layer in run.LAYERS)
    assert self_total == pytest.approx(layers["trace.wall_s"]["value"], rel=0.1)
    assert (tmp_path / name / "seed3-trace1" / "trace.json").is_file()
    assert all(f["holds"] for f in traced["facts"]), traced["facts"]


def test_sampler_times_the_reference_chunk_while_started():
    sampler = pace.Sampler()
    sampler.start()
    try:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 10 * pace.PERIOD_S:
            sum(i * i for i in range(1000))
        t1 = time.monotonic()
    finally:
        sampler.stop()
    ticked = len(sampler.durations)
    assert ticked >= 5
    assert sampler.busy_s == pytest.approx(sum(sampler.durations))
    assert sampler.factor(t0, t1) > 0
    # an interval holding too few samples is topped up right after it
    assert sampler.factor(t1, t1) > 0
    assert len(sampler.durations) >= ticked + pace.MIN_SAMPLES


def test_torus_stage_spans_fire_through_caller_bindings(tmp_path):
    layers = run.execute(TINY["torus"], seed=3, seconds=0.1, trace=True, out_root=tmp_path)["metrics"]
    for stage in ("harmonic_space", "check_complex", "p7", "L8", "L10", "kahler", "anti_invariant", "self_dual"):
        assert layers[f"torus.{stage}_s"]["value"] > 0, stage
    assert 0 < layers["torus.mode_ops_distinct_ratio"]["value"] < 1


def _corrupt_harmonic_dim(report):
    report["report"]["blocks"]["n2"]["harmonic"]["k1"]["total_dim"] += 1
    return report


def test_corrupted_output_counts_in_fail_frac(tmp_path, monkeypatch):
    bad = dataclasses.replace(
        TINY["torus"], checks={"report": lambda r: wl.check_torus(_corrupt_harmonic_dim(r), n_values=(2,))}
    )
    monkeypatch.setitem(run.WORKLOADS, "torus", bad)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "torus", "--seed", "3", "--seconds", "0.1", "--out", str(tmp_path)])
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1
    assert "harmonic dim" in out.getvalue()


def test_decompose_oracle_rejects_a_non_primitive_component(tmp_path):
    inp_path = wl.write_decompose_inputs(tmp_path, seed=3, count=10)[-1]
    assert wl.decompose_cell(9) == (2, 2)
    out_path = tmp_path / "out.json"
    import llab.cli

    out = llab.cli.decompose_file(inp_path, out_path)
    inp = json.loads(Path(inp_path).read_text())
    assert wl.check_decompose(inp, out) == []
    comp = out["lefschetz_components"]["0"]  # the primitive 2-form
    comp["form"]["coeffs"][0]["re"] += 1.0
    assert any("not primitive" in p for p in wl.check_decompose(inp, out))


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.BenchError):
        run.execute(TINY["decompose"], seed=3, seconds=0.1, trace=False, out_root=tmp_path)
