"""Tests for the report layer and the command-line front door.

The contracts under test: reports are deterministic apart from one
timestamp, the CSV schema is pinned, the verdict stored in a report can
be recomputed from the report alone, and exit codes encode pass/fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import llab
from llab.cli import _build_parser, _suite_config, decompose_file, main, run_suite
from llab.reports import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    DEFAULT_TOLERANCE,
    ReportBundle,
    SuiteConfig,
    dump_json_deterministic,
    evaluate_verdict,
    flatten_residuals,
    load_report,
    strip_timestamp,
    verdict_from_report,
)


TINY = {"n_values": (1, 2), "cases": 40, "cross_cases": 20}


# ---------------------------------------------------------------------------
# SuiteConfig
# ---------------------------------------------------------------------------


def test_config_hash_ignores_routing(tmp_path):
    a = SuiteConfig(suite="verify-identities", params={"cases": 3})
    b = SuiteConfig(
        suite="verify-identities",
        params={"cases": 3},
        out_dir=str(tmp_path),
        formats=("json", "csv"),
    )
    assert a.config_hash() == b.config_hash()
    c = SuiteConfig(suite="verify-identities", params={"cases": 4})
    assert a.config_hash() != c.config_hash()


def test_run_suite_rejects_a_param_its_suite_does_not_take():
    # torus_suite takes "n_values", not "n": dropped, "n" would still enter
    # the config hash while the run used the default n values
    with pytest.raises(ValueError, match="takes no param\\(s\\) 'n';"):
        run_suite(SuiteConfig(suite="torus", params={"n": [2], "samples": 5}))
    with pytest.raises(ValueError, match="'seed'"):
        run_suite(SuiteConfig(suite="torus", params={"n_values": [2], "seed": 3}))
    # the hyperbolic suite draws nothing a seed chooses, and takes none
    with pytest.raises(ValueError, match="takes no param\\(s\\) 'seed';"):
        run_suite(SuiteConfig(suite="hyperbolic", params={"R_values": [2.0], "h_values": [0.4, 0.3], "seed": 3}))
    with pytest.raises(ValueError, match="hyperbolic .* takes no seed"):
        SuiteConfig(suite="hyperbolic", seed=3)


@pytest.mark.parametrize("argv, config_hash", [
    (["verify-identities", "--n", "1,2,3,4", "--cases", "1000", "--cross-cases", "500"], "125a70abe68af584"),
    (["torus", "--n", "2,3", "--N", "1", "--samples", "20"], "7756a5f790596bd2"),
    (["hyperbolic", "--R", "2,4,6", "--h", "0.2,0.1"], "fa53ae57249f5428"),
])
def test_config_hash_of_the_benchmark_command_lines(argv, config_hash):
    # the seeded suites hash their seed as before; the hyperbolic config
    # carries none, with or without a --seed on its command line
    for extra in ([], ["--seed", "3"]):
        cfg = _suite_config(_build_parser().parse_args(argv + extra))
        assert ("seed" in cfg.semantic_dict()) == (argv[0] != "hyperbolic")
        if not extra or argv[0] == "hyperbolic":
            assert cfg.config_hash() == config_hash


def test_cli_hyperbolic_ignores_a_seed_and_says_so(tmp_path, capsys):
    # scripts pass --seed to every suite; the hyperbolic report does not move
    assert main(["hyperbolic", "--R", "2", "--h", "0.4,0.3", "--out", str(tmp_path / "a")]) == 0
    assert "note" not in capsys.readouterr().err
    assert main(["hyperbolic", "--R", "2", "--h", "0.4,0.3", "--seed", "3", "--out", str(tmp_path / "b")]) == 0
    assert "note: --seed is ignored" in capsys.readouterr().err
    a, b = (strip_timestamp(load_report(tmp_path / x / "hyperbolic.json")) for x in "ab")
    assert a == b and "seed" not in a["config"] and "seed" not in a["report"]


def test_default_tolerance_is_one_table_per_suite():
    parser = _build_parser()
    for suite, tol in DEFAULT_TOLERANCE.items():
        assert parser.parse_args([suite]).tol == tol
        assert SuiteConfig(suite=suite).tolerance == tol
    # a config built without a tolerance hashes as the CLI's default did
    params = {"R_values": (2.0,), "h_values": (0.3, 0.2), "k": 0, "eps": 0.8}
    assert SuiteConfig(suite="hyperbolic", params=params).config_hash() == "20db52c6750adc83"
    with pytest.raises(ValueError):
        SuiteConfig(suite="nonsense")


def test_programmatic_hyperbolic_run_uses_its_suite_tolerance():
    # worst residual / lambda1 here is about 6e-10: above the algebraic
    # 1e-10, well below the hyperbolic default 1e-8 the CLI also uses
    params = {"R_values": (2.0,), "h_values": (0.3, 0.2), "k": 0, "eps": 0.8}
    bundle = run_suite(SuiteConfig(suite="hyperbolic", params=params))
    assert bundle.payload["verdict"]["tolerance"] == 1e-8
    assert bundle.passed


def test_config_rejects_unknown_format():
    with pytest.raises(ValueError):
        SuiteConfig(suite="torus", formats=("yaml",))


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def test_dump_json_deterministic_properties():
    payload = {"b": np.float64(1.5), "a": np.int64(2), "c": [True, None, np.bool_(False)]}
    raw = dump_json_deterministic(payload)
    assert raw.endswith(b"\n")
    obj = json.loads(raw)
    assert list(obj) == ["a", "b", "c"]  # keys sorted
    assert obj == {"a": 2, "b": 1.5, "c": [True, None, False]}
    # full round-trip decimal precision for floats
    x = 0.1 + 0.2
    assert json.loads(dump_json_deterministic({"x": x}))["x"] == x


def test_flatten_residuals_shapes():
    payload = {
        "cells": {"n1": {"k0": {"res_a": 1e-12, "flag": True}}},
        "top": 3,
        "list": [1.0, 2.0],
        "none": None,
    }
    rows = flatten_residuals("demo", payload)
    as_dict = {(g, n): v for g, n, v in rows}
    assert as_dict[("cells.n1.k0", "res_a")] == 1e-12
    assert as_dict[("cells.n1.k0", "flag")] is True
    assert as_dict[("", "top")] == 3
    assert as_dict[("", "list[0]")] == 1.0
    assert as_dict[("", "list[1]")] == 2.0
    assert as_dict[("", "none")] is None


def test_csv_schema_pinned(tmp_path):
    # schema version and column set are frozen; bumping either is a
    # breaking change that must be deliberate
    assert CSV_SCHEMA_VERSION == 1
    assert CSV_COLUMNS == ("schema_version", "suite", "group", "name", "value")
    cfg = SuiteConfig(suite="verify-identities", params=dict(TINY), formats=("json", "csv"))
    bundle = run_suite(cfg)
    reader = csv.reader(io.StringIO(bundle.csv_bytes().decode()))
    header = next(reader)
    assert header == list(CSV_COLUMNS)
    first = next(reader)
    assert first[0] == str(CSV_SCHEMA_VERSION)
    assert first[1] == "verify-identities"


# ---------------------------------------------------------------------------
# verdict logic
# ---------------------------------------------------------------------------


def test_evaluate_verdict_truth_table():
    assert evaluate_verdict({"max_residual": 1e-12, "tolerance": 1e-10, "checks": {}})
    assert not evaluate_verdict({"max_residual": 1e-8, "tolerance": 1e-10, "checks": {}})
    assert not evaluate_verdict(
        {"max_residual": 1e-12, "tolerance": 1e-10, "checks": {"ok": True, "bad": False}}
    )
    # residual-free suites: checks alone decide
    assert evaluate_verdict({"max_residual": None, "tolerance": None, "checks": {"ok": True}})
    # vacuous: no residual, no checks -> passes (counted, warned elsewhere)
    assert evaluate_verdict({"max_residual": None, "tolerance": 1e-10, "checks": {}})


def test_verdict_roundtrip_from_report(tmp_path):
    cfg = SuiteConfig(
        suite="verify-identities", params=dict(TINY), out_dir=str(tmp_path), formats=("json",)
    )
    bundle = run_suite(cfg)
    stored = load_report(tmp_path / "verify-identities.json")
    assert stored["passed"] is True
    # recompute the verdict from the persisted payload alone
    assert verdict_from_report(stored) == stored["passed"]


def test_verdict_from_report_requires_verdict_block():
    with pytest.raises(ValueError):
        verdict_from_report({"report": {"numbers": [1, 2, 3]}})


def test_strip_timestamp_only_removes_timestamp(tmp_path):
    cfg = SuiteConfig(suite="verify-identities", params=dict(TINY), out_dir=str(tmp_path))
    run_suite(cfg)
    rep = load_report(tmp_path / "verify-identities.json")
    bare = strip_timestamp(rep)
    assert "timestamp" not in bare["provenance"]
    assert bare["provenance"]["config_hash"] == rep["provenance"]["config_hash"]
    assert bare["report"] == rep["report"]


# ---------------------------------------------------------------------------
# determinism across runs
# ---------------------------------------------------------------------------


def test_reports_byte_identical_modulo_timestamp(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        cfg = SuiteConfig(
            suite="verify-identities",
            params=dict(TINY),
            out_dir=str(d),
            formats=("json", "csv"),
        )
        run_suite(cfg)
    j1 = strip_timestamp(load_report(d1 / "verify-identities.json"))
    j2 = strip_timestamp(load_report(d2 / "verify-identities.json"))
    assert dump_json_deterministic(j1) == dump_json_deterministic(j2)
    # CSV has no timestamp at all: bytes must match exactly
    assert (d1 / "verify-identities.csv").read_bytes() == (d2 / "verify-identities.csv").read_bytes()


# ---------------------------------------------------------------------------
# CLI exit codes and flags
# ---------------------------------------------------------------------------


def test_cli_pass_exit_zero(tmp_path, capsys):
    rc = main(
        [
            "verify-identities",
            "--n",
            "1",
            "--cases",
            "20",
            "--cross-cases",
            "10",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert (tmp_path / "verify-identities.json").exists()


def test_cli_impossible_tolerance_fails(tmp_path, capsys):
    rc = main(
        ["verify-identities", "--n", "1", "--cases", "20", "--cross-cases", "10", "--tol", "0"]
    )
    assert rc == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_cli_meaningless_tolerance_exits_two_and_names_it(capsys, tol):
    # inf passes every residual, nan and -1 fail every one: none is a gate
    argv = ["verify-identities", "--n", "1", "--cases", "1", "--cross-cases", "1", "--tol", tol]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "tol" in captured.err and "[PASS]" not in captured.out


def test_every_suite_option_is_documented():
    suites = _build_parser()._subparsers._group_actions[0].choices
    for suite in DEFAULT_TOLERANCE:
        for action in suites[suite]._actions:
            assert action.help, f"{suite} {'/'.join(action.option_strings)} has no help"


@pytest.mark.parametrize("tol, code", [("1e-10", 0), ("0", 1)])
def test_cli_keeps_its_exit_code_when_stdout_closes_early(tol, code):
    # as under `llab ... | true`: the reader is gone before the status line
    argv = ["verify-identities", "--n", "1", "--cases", "1", "--cross-cases", "1", "--tol", tol]
    env = {**os.environ, "PYTHONPATH": str(Path(llab.__file__).resolve().parents[1])}
    with subprocess.Popen([sys.executable, "-m", "llab.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == code
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


def test_cli_vacuous_run_warns_but_passes(capsys):
    rc = main(["verify-identities", "--n", "1", "--cases", "0", "--cross-cases", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "vacuous" in out


def test_cli_without_cross_cases_warns_that_the_cross_term_went_unchecked(tmp_path, capsys):
    argv = ["verify-identities", "--n", "2", "--cases", "10", "--cross-cases", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "vacuous" in out and "cross_term_orthogonality" in out
    body = load_report(tmp_path / "verify-identities.json")["report"]
    assert "cross_term_orthogonality" in body["warning"]
    names = [name for cell in body["cells"].values() for res in cell.values() for name in res]
    assert names and not any(name.startswith("cross_term") for name in names)
    # n = 1 has no degree with two Lefschetz levels: no cross term to skip
    assert main(argv[:2] + ["1"] + argv[3:]) == 0
    assert "warning" not in load_report(tmp_path / "verify-identities.json")["report"]
    assert "vacuous" not in capsys.readouterr().out


def test_cli_torus_small(tmp_path):
    rc = main(
        ["torus", "--n", "2", "--N", "1", "--samples", "10", "--out", str(tmp_path), "--format", "json,csv"]
    )
    assert rc == 0
    rep = load_report(tmp_path / "torus.json")
    assert rep["passed"] is True
    assert verdict_from_report(rep)


def test_cli_hyperbolic_honours_tol(capsys):
    argv = ["hyperbolic", "--R", "2", "--h", "0.3,0.2"]
    assert main(argv) == 0
    assert "[PASS]" in capsys.readouterr().out
    assert main(argv + ["--tol", "1e-300"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    # the worst residual lives in the verdict and is printed from there,
    # with the tolerance it is over; every named check still holds
    assert re.search(r"max residual \d\.\d{3}e-\d+ > tol 1e-300;", out)
    assert "failed:" not in out
    # ... and the sweep row it sits on
    assert re.search(r"; worst: R2\.0\.h0\.[23] \d\.\de-\d+; config ", out)


def test_cli_fail_line_names_the_false_checks(capsys):
    argv = ["torus", "--n", "2", "--N", "1", "--samples", "20", "--tol", "1e-30"]
    assert main(argv) == 1
    line = capsys.readouterr().out.strip()
    failed = line.split("; failed: ", 1)[1].rsplit("; config ", 1)[0].split(", ")
    assert "n2.self_dual" in failed and "n2.anti_invariant" in failed
    assert all(name.startswith("n2.") for name in failed)
    assert " > tol 1e-30;" in line
    # the worst residual is named by its block and check, on stdout only
    worst = re.search(r"; worst: (\S+) (\d\.\de-\d+); failed: ", line)
    assert worst and worst.group(1).startswith("n2.")


@pytest.mark.parametrize("suite", ["verify-identities", "torus", "hyperbolic"])
def test_worst_cell_holds_the_max_residual(suite):
    from llab.suites import hyperbolic_suite, identity_suite, torus_suite, worst_cell

    if suite == "verify-identities":
        payload = identity_suite(n_values=(1, 2), cases=20, cross_cases=10)
    elif suite == "torus":
        payload = torus_suite(n_values=(2,), samples=4)
    else:
        payload = hyperbolic_suite(R_values=(2.0,), h_values=(0.4, 0.3))
    name, value = worst_cell(payload)
    assert value == payload["verdict"]["max_residual"]
    # the name is the report path of the residual (a sweep row for hyperbolic)
    if suite == "verify-identities":
        n, k, check = name.split(".", 2)
        assert payload["cells"][n][k][check] == value
    elif suite == "torus":
        block, part = name.split(".", 1)
        leaf = payload["blocks"][block]
        for key in re.findall(r"[^.\[\]]+|\[[^\]]+\]", part):
            leaf = leaf[key.strip("[]")]
        assert leaf == value
    else:
        row = next(r for r in payload["sweep"]["rows"] if f"R{r['R']}.h{r['h']}" == name)
        assert row["residual"] / row["lambda1"] == value


def test_cli_torus_without_nontrivial_self_dual_cases_is_vacuous(tmp_path, capsys):
    assert main(["torus", "--n", "2", "--N", "1", "--samples", "0", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "vacuous" in out
    body = load_report(tmp_path / "torus.json")["report"]
    assert body["blocks"]["n2"]["self_dual"]["nontrivial_cases"] == 0
    assert body["warning"] == "vacuous"


def test_cli_hyperbolic_single_mesh_size_warns(tmp_path, capsys):
    # one h per R: nothing is extrapolated, so nothing meets the oracle
    assert main(["hyperbolic", "--R", "2", "--h", "0.3", "--out", str(tmp_path)]) == 0
    assert "vacuous" in capsys.readouterr().out
    body = load_report(tmp_path / "hyperbolic.json")["report"]
    assert body["warning"] == "vacuous"
    assert "oracle_agreement_3pct" not in body["checks"]


def test_cli_numerical_failure_exits_two(capsys):
    assert main(["hyperbolic", "--R", "2", "--h", "0.3", "--rel-tol", "1e-300"]) == 2
    assert "residual certificates not met" in capsys.readouterr().err


@pytest.mark.parametrize("R, h, named", [("2", "0.4,0.4", "h value 0.4"), ("2,2", "0.4,0.2", "R value 2.0")])
def test_cli_hyperbolic_repeated_R_or_h_exits_two_and_names_it(tmp_path, capsys, R, h, named):
    # a repeated mesh size used to reach the Richardson step and divide by
    # zero; a repeated (R, h) would also solve one mesh twice, as two rows
    assert main(["hyperbolic", "--R", R, "--h", h, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: repeated ") and named in err and "division" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("R, h, named", [
    (",", "0.2", "no R value"),
    ("2", ",", "no h value"),
    ("2", "nan", "h value nan"),
    ("inf", "0.2", "R value inf"),
    ("2", "0", "h value 0.0"),
    # 2e9 rings: over the vertex budget from the ring count alone, with no
    # loop over the rings
    ("2", "1e-9", "h=1e-09 needs at least 12000000001 vertices (budget 2000000)"),
])
def test_cli_hyperbolic_bad_R_or_h_exits_two_at_once_and_names_it(tmp_path, capsys, R, h, named):
    import time

    start = time.perf_counter()
    assert main(["hyperbolic", "--R", R, "--h", h, "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("h", ["1e-300", "1e-320"])
def test_cli_hyperbolic_h_past_every_ring_count_exits_two_in_one_short_line(tmp_path, capsys, h):
    # R / h is 2e300, or inf: the ring count is capped, so the message
    # names R, h and the budget without a 300-digit count or an int(inf)
    assert main(["hyperbolic", "--R", "2", "--h", h, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: mesh for R=2.0, h={float(h)!r} needs at least ")
    assert "(budget 2000000)" in err and err.count("\n") == 1 and len(err) < 120
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("k, bounded", [(0, True), (1, False)])
def test_cli_hyperbolic_checks_the_derived_bound_only_where_a_row_carries_one(tmp_path, capsys, k, bounded):
    # every k = 1 row has derived_bound None, so a check over them would be
    # all() over nothing: it is absent, and the run still warns vacuous
    argv = ["hyperbolic", "--R", "2", "--h", "0.5,0.4", "--k", str(k), "--format", "json,csv"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    report = load_report(tmp_path / "hyperbolic.json")
    body = report["report"]
    assert ("above_derived_bound" in body["checks"]) == bounded
    assert ("above_derived_bound" in body["verdict"]["checks"]) == bounded
    assert ("above_derived_bound" in (tmp_path / "hyperbolic.csv").read_text()) == bounded
    assert [row["derived_bound"] is not None for row in body["sweep"]["rows"]] == [bounded] * 2
    assert verdict_from_report(report) == report["passed"] is True
    # k = 1 has no oracle to extrapolate against
    assert body.get("warning") == (None if bounded else "vacuous")


def test_cli_hyperbolic_eps_above_one_exits_two_and_names_it(tmp_path, capsys):
    assert main(["hyperbolic", "--R", "4", "--h", "0.2,0.1", "--eps", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps must lie in (0, 1]") and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_cli_bad_format_exits_two_and_names_it(tmp_path, capsys):
    # the config is validated inside the error boundary: a message, no traceback
    assert main(["torus", "--n", "2", "--format", "xml", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "xml" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_cli_negative_sample_count_exits_two_and_names_it(capsys):
    assert main(["torus", "--n", "2", "--samples", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples" in err


def test_cli_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suite="nonsense"))


def test_cli_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--does-not-exist", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# decompose subcommand
# ---------------------------------------------------------------------------


def _omega_input(tmp_path):
    from llab.algebra import KForm, build_standard_triple, form_to_json
    from llab.lefschetz import lefschetz_L

    t = build_standard_triple(2)
    w = lefschetz_L(KForm(2, 0, np.array([1.0 + 0j])), t)
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"triple": {"standard": 2}, "form": form_to_json(w)}))
    return p


def test_decompose_omega_example(tmp_path):
    inp = _omega_input(tmp_path)
    outp = tmp_path / "out.json"
    result = decompose_file(inp, outp)
    written = json.loads(outp.read_text())
    assert written == result
    # omega = L(1): single Lefschetz component at r = 1, the constant 1
    assert set(result["lefschetz_components"]) == {"1"}
    r1 = result["lefschetz_components"]["1"]
    assert r1["is_primitive"] is True
    assert r1["form"]["k"] == 0
    assert r1["form"]["coeffs"] == [{"idx": [], "re": 1.0, "im": 0.0}]
    # pure (1,1) bidegree
    assert set(result["bidegree_components"]) == {"1,1"}
    assert result["reconstruction_residuals"]["lefschetz"] < 1e-12
    assert result["reconstruction_residuals"]["bidegree"] < 1e-12


def test_decompose_random_three_form(tmp_path):
    from llab.algebra import KForm, build_standard_triple, form_to_json

    rng = np.random.default_rng(11)
    a = KForm(3, 3, rng.standard_normal(20) + 1j * rng.standard_normal(20))
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"triple": {"standard": 3}, "form": form_to_json(a)}))
    result = decompose_file(inp, tmp_path / "out.json")
    comps = result["lefschetz_components"]
    assert comps  # nontrivial
    assert all(v["is_primitive"] for v in comps.values())
    assert all(v["primitivity_residual"] < 1e-10 for v in comps.values())
    assert result["reconstruction_residuals"]["lefschetz"] < 1e-12


@pytest.mark.parametrize("n, k", [(5, 5), (6, 2)])
def test_decompose_round_trip_above_n4(tmp_path, n, k):
    from llab.algebra import KForm, form_to_json, random_compatible_triple, triple_to_json

    rng = np.random.default_rng(10 * n + k)
    t = random_compatible_triple(n, rng)
    size = math.comb(2 * n, k)
    a = KForm(n, k, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"triple": triple_to_json(t), "form": form_to_json(a)}))
    result = decompose_file(inp, tmp_path / "out.json")
    assert set(result["bidegree_components"]) == {f"{p},{k - p}" for p in range(max(0, k - n), min(k, n) + 1)}
    assert all(v["is_primitive"] for v in result["lefschetz_components"].values())
    assert result["reconstruction_residuals"]["lefschetz"] <= 1e-10
    assert result["reconstruction_residuals"]["bidegree"] <= 1e-10


def test_decompose_forms_no_pq_projector(tmp_path, monkeypatch):
    from llab.algebra import KForm, Ops, form_to_json, random_compatible_triple, triple_to_json

    def refuse(self, k):
        raise AssertionError(f"Ops.pq({k}) built")

    monkeypatch.setattr(Ops, "pq", refuse)
    rng = np.random.default_rng(29)
    t = random_compatible_triple(3, rng)
    a = KForm(3, 3, rng.standard_normal(20) + 1j * rng.standard_normal(20))
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"triple": triple_to_json(t), "form": form_to_json(a)}))
    result = decompose_file(inp, tmp_path / "out.json")
    assert set(result["bidegree_components"]) == {"0,3", "1,2", "2,1", "3,0"}
    assert result["reconstruction_residuals"]["bidegree"] < 1e-12


def test_decompose_cli_refuses_a_repeated_basis_element(tmp_path, capsys):
    coeffs = [{"idx": [1], "re": 1.0, "im": 0.0}, {"idx": [1], "re": 5.0, "im": 0.0}]
    bad = tmp_path / "repeat.json"
    bad.write_text(json.dumps({"triple": {"standard": 1}, "form": {"n": 1, "k": 1, "coeffs": coeffs}}))
    assert main(["decompose", str(bad), str(tmp_path / "o.json")]) == 2
    assert "error: coeffs[1]: basis element [1] already given by coeffs[0]" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_decompose_cli_exit_codes(tmp_path):
    inp = _omega_input(tmp_path)
    assert main(["decompose", str(inp), str(tmp_path / "o.json")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", str(bad), str(tmp_path / "o2.json")]) == 2

    badk = tmp_path / "badk.json"
    badk.write_text(json.dumps({"triple": {"standard": 2}, "form": {"n": 2, "k": 5, "coeffs": []}}))
    assert main(["decompose", str(badk), str(tmp_path / "o3.json")]) == 2

    missing_keys = tmp_path / "mk.json"
    missing_keys.write_text(json.dumps({"form": {"n": 1, "k": 0, "coeffs": []}}))
    assert main(["decompose", str(missing_keys), str(tmp_path / "o4.json")]) == 2


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"idx": [1, 5], "re": 1.0}, "index 5 outside 1..4"),
        ({"idx": [1, 2, 3], "re": 1.0}, "3 indices for a degree-2 form"),
        ({"idx": [2, 1], "re": 1.0}, "repeated or not ascending"),
        ({"idx": [2, 2], "re": 1.0}, "repeated or not ascending"),
        ({"idx": [1, 2], "re": "x"}, "coefficient 're' must be a number"),
        ({"idx": [1, 2], "re": 1.0, "im": [0]}, "coefficient 'im' must be a number"),
    ],
)
def test_decompose_cli_exit_codes_bad_coeffs(tmp_path, capsys, entry, message):
    bad = tmp_path / "bad.json"
    form = {"n": 2, "k": 2, "coeffs": [{"idx": [3, 4], "re": 1.0}, entry]}
    bad.write_text(json.dumps({"triple": {"standard": 2}, "form": form}))
    assert main(["decompose", str(bad), str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert "coeffs[1]" in err and message in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"triple": {"standard": 2}, "form": {"n": 2, "k": 2}}, "form: missing field 'coeffs'"),
        (
            {"triple": {"J": [[0, 1], [-1, 0]]}, "form": {"n": 1, "k": 0, "coeffs": []}},
            "triple: missing field 'omega'",
        ),
        (
            {"triple": {"standard": 2}, "form": {"n": "two", "k": 2, "coeffs": []}},
            "form: field 'n' must be an integer",
        ),
    ],
)
def test_decompose_cli_exit_codes_bad_fields(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["decompose", str(bad), str(tmp_path / "o.json")]) == 2
    assert message in capsys.readouterr().err


_STD1 = {"omega": [[0.0, 1.0], [-1.0, 0.0]], "J": [[0.0, -1.0], [1.0, 0.0]]}


def _with_entry(matrix, value):
    return [[value, matrix[0][1]], list(matrix[1])]


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"triple": {**_STD1, "omega": _with_entry(_STD1["omega"], float("nan"))}},
            "triple: field 'omega' has a non-finite entry",
        ),
        (
            {"triple": {**_STD1, "J": _with_entry(_STD1["J"], float("nan"))}},
            "triple: field 'J' has a non-finite entry",
        ),
        (
            {"triple": {**_STD1, "J": _with_entry(_STD1["J"], float("-inf"))}},
            "triple: field 'J' has a non-finite entry",
        ),
        (
            {
                "triple": {
                    **_STD1,
                    "n": 1,
                    "g": np.eye(2).tolist(),
                    "omega": _with_entry(_STD1["omega"], float("nan")),
                }
            },
            "triple: field 'omega' has a non-finite entry",
        ),
        (
            {"triple": {"standard": 1}, "coeff": {"idx": [1], "re": float("nan"), "im": float("inf")}},
            "coeffs[0]: coefficient 're' must be finite",
        ),
        (
            {"triple": {"standard": 1}, "coeff": {"idx": [1], "re": 1.0, "im": float("inf")}},
            "coeffs[0]: coefficient 'im' must be finite",
        ),
    ],
)
def test_decompose_rejects_non_finite_numbers(tmp_path, capsys, doc, message):
    coeffs = [doc.pop("coeff")] if "coeff" in doc else []
    doc["form"] = {"n": 1, "k": 1 if coeffs else 0, "coeffs": coeffs}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # writes the NaN and Infinity literals
    assert main(["decompose", str(bad), str(tmp_path / "o.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_triple_validate_rejects_nan_residuals():
    from llab.algebra import CompatibleTriple

    t = CompatibleTriple(n=1, omega=_with_entry(_STD1["omega"], float("nan")), J=_STD1["J"], g=np.eye(2))
    with pytest.raises(ValueError, match="omega_antisymmetric"):
        t.validate()


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"triple": {"standard": 30}, "form": {"n": 30, "k": 15, "coeffs": []}},
            "triple: n=30 exceeds the wire-format cap n <= 6",
        ),
        (
            {"triple": {"standard": 2}, "form": {"n": 7, "k": 7, "coeffs": []}},
            "form: n=7 exceeds the wire-format cap n <= 6",
        ),
        (
            {"triple": {"omega": np.eye(14).tolist(), "J": np.eye(14).tolist()}, "form": {}},
            "triple: field 'omega' has 14 rows",
        ),
    ],
)
def test_decompose_rejects_n_over_the_wire_cap(tmp_path, capsys, doc, message):
    from llab.algebra import WIRE_MAX_N

    assert WIRE_MAX_N == 6
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    assert main(["decompose", str(bad), str(tmp_path / "o.json")]) == 2
    assert message in capsys.readouterr().err


def test_cli_maps_memory_error_to_exit_two(tmp_path, capsys, monkeypatch):
    import llab.cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 774. TiB")

    monkeypatch.setattr(llab.cli, "decompose_file", exhausted)
    assert main(["decompose", str(_omega_input(tmp_path)), str(tmp_path / "o.json")]) == 2
    assert "error: out of memory: Unable to allocate 774. TiB" in capsys.readouterr().err
    monkeypatch.setattr(llab.cli, "run_suite", exhausted)
    assert main(["verify-identities", "--n", "1", "--cases", "2"]) == 2
    assert "error: out of memory" in capsys.readouterr().err


def test_form_to_json_rejects_batches():
    from llab.algebra import KForm, form_to_json

    with pytest.raises(ValueError, match="one form"):
        form_to_json(KForm(1, 1, np.ones((2, 3))))


def test_identity_suite_orientation_reversing_seed():
    # seed 11 draws an orientation-reversing random triple at n = 2; the
    # suite must pass regardless of the orientation of the drawn triple
    from llab.suites import identity_suite

    rep = identity_suite(n_values=(2,), cases=30, cross_cases=15, seed=11)
    assert rep["passed"] is True
    assert rep["max_residual"] < 1e-10
