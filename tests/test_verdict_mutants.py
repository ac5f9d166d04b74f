"""Every verdict check of the torus and hyperbolic suites can fail.

Each row of MUTANTS breaks the program in one place, by a source mutant
(`conftest.mutant`), at a small configuration that passes unmutated, and
the CLI must then exit 1 and name the check on its `failed:` list.  The
guard runs every suite at its small configuration and fails when a check
in its verdict has no row here, so that no check enters a verdict without
a mutant that shows it can fail.
"""

from __future__ import annotations

import importlib
import re

import pytest

from llab.cli import main
from llab.reports import load_report

SMALL = {
    "verify-identities": ["verify-identities", "--n", "1,2", "--cases", "8", "--cross-cases", "4"],
    "torus": ["torus", "--n", "2", "--N", "1", "--samples", "4"],
    # h = 0.1 puts the Stokes gate 50 h^2 = 0.5 below the relative defect 2
    # of a d theta of the wrong sign; from h = 0.2 up the gate is 2 or more
    "hyperbolic": ["hyperbolic", "--R", "2", "--h", "0.2,0.1"],
}

# check (its name with the nK. block and the [p,q] cell stripped) -> what
# the mutant breaks, its suite, and the mutant: module, function, the
# source it replaces and by what
MUTANTS = {
    "hodge_dims": ("d* off by 1%", "torus", "llab.torus", "FourierComplex.block",
                   "A = _adjoint_stack(alg,", "A = 1.01 * _adjoint_stack(alg,"),
    "p7": ("lowest Lefschetz level dropped", "torus", "llab.torus", "verify_p7_decomposition",
           "itertools.count(max(0, k - n))", "itertools.count(max(0, k - n) + 1)"),
    "anti_invariant": ("invariant forms for anti-invariant", "torus", "llab.torus", "anti_invariant_suite",
                       "_image_basis(0.5 * (eye - J2))", "_image_basis(0.5 * (eye + J2))"),
    "self_dual": ("omega doubled in f omega", "torus", "llab.torus", "self_dual_invariant_relation",
                  "cand[:, 0] = t.omega_form().data", "cand[:, 0] = 2 * t.omega_form().data"),
    "derivation_pass": ("e^j wedge scaled by 1.01", "hyperbolic", "llab.torus", "FourierComplex.block",
                        "A[p.left, p.target, p.right] = p.sign", "A[p.left, p.target, p.right] = 1.01 * p.sign"),
    "theta_sup_is_one": ("theta scaled by 1.01", "hyperbolic", "llab.hyperbolic.forms", "_theta_uv",
                         "scale = 1.0 /", "scale = 1.01 /"),
    "stokes_small": ("d theta of the wrong sign", "hyperbolic", "llab.hyperbolic.forms", "bounded_primitive",
                     "sign = -1", "sign = 1"),
    "crossterm_within_proved_bound": ("cutoff with |df| = 1.1 eps", "hyperbolic", "llab.hyperbolic.forms",
                                      "_cutoff_df", "-eps * base", "-1.1 * eps * base"),
    "above_derived_bound": ("bound read at sup|theta| = 0.1", "hyperbolic", "llab.hyperbolic.gap", "_solved",
                            "gromov_bound(1, k, 1.0)", "gromov_bound(1, k, 0.1)"),
    "oracle_agreement_3pct": ("oracle 5% off", "hyperbolic", "llab.hyperbolic.gap", "gap_sweep",
                              "oracle = SHOOTING_LAMBDA1.get(R) if", "oracle = 1.05 * SHOOTING_LAMBDA1.get(R) if"),
}


def _check_family(name: str) -> str:
    """n2.p7[1,1] -> p7: the check without its block and its cell."""
    return re.sub(r"^n\d+\.|\[[^\]]*\]$", "", name)


def _failed(out: str) -> list[str]:
    """The checks on the `failed:` list of the CLI's status line."""
    found = re.search(r"; failed: (.*?); config ", out)
    return found.group(1).split(", ") if found else []


@pytest.mark.parametrize("check", sorted(MUTANTS), ids=[MUTANTS[c][0] for c in sorted(MUTANTS)])
def test_the_mutant_fails_its_check_and_the_cli_names_it(mutant, capsys, check):
    _, suite, module, function, old, new = MUTANTS[check]
    mutant(importlib.import_module(module), function, old, new)
    assert main(SMALL[suite]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert check in {_check_family(name) for name in _failed(out)}, out


@pytest.mark.parametrize("suite", sorted(SMALL))
def test_every_verdict_check_has_a_mutant(tmp_path, capsys, suite):
    assert main([*SMALL[suite], "--out", str(tmp_path)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    checks = load_report(tmp_path / f"{suite}.json")["report"]["verdict"]["checks"]
    missing = sorted({_check_family(name) for name in checks} - set(MUTANTS))
    assert not missing, f"{suite} verdict checks with no mutant row: {missing}"
