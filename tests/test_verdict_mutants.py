"""Every verdict check of the torus and hyperbolic suites can fail.

Each row of MUTANTS breaks the program in one place, by a source mutant
(`conftest.mutant`), at a small configuration that passes unmutated, and
the CLI must then exit 1 and name the check on its `failed:` list.  The
guard runs every suite at its small configuration and fails when a check
in its verdict has no row here, so that no check enters a verdict without
a mutant that shows it can fail.  The hyperbolic residual gate, which is
the verdict's max_residual against --tol and no named check, has its own
mutant: a solver that understates its residual.
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
    # the Stokes gate 0.5 h^2 is under the relative defect 2 of a d theta of
    # the wrong sign for every h < 2, so this coarse sweep catches it; the
    # defect of the right sign measured at most 0.104 h^2 over R = 2..8
    "hyperbolic": ["hyperbolic", "--R", "2", "--h", "0.4,0.3"],
}

# check (its name with the nK. block and the [p,q] cell stripped) -> what
# the mutant breaks, its suite, and the mutant: module, function, the
# source it replaces and by what
MUTANTS = {
    "hodge_dims": ("d* off by 1%", "torus", "llab.torus", "FourierComplex.block",
                   "A = _adjoint_stack(self,", "A = 1.01 * _adjoint_stack(self,"),
    "p7": ("lowest Lefschetz level dropped", "torus", "llab.torus", "_lefschetz_spans",
           "itertools.count(max(0, k - n))", "itertools.count(max(0, k - n) + 1)"),
    # the one J-split swapped: the anti-invariant suite reads the invariant forms
    "anti_invariant": ("invariant forms for anti-invariant", "torus", "llab.torus", "_j_split",
                       "0.5 * (eye + s * J2)", "0.5 * (eye - s * J2)"),
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
    "above_derived_bound": ("bound read at sup|theta| = 0.1", "hyperbolic", "llab.hyperbolic.gap",
                            "_ring_ground_states", "gromov_bound(1, 0, 1.0)", "gromov_bound(1, 0, 0.1)"),
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
    checks = load_report(tmp_path / f"{suite}.json")["report"]["checks"]
    missing = sorted({_check_family(name) for name in checks} - set(MUTANTS))
    assert not missing, f"{suite} verdict checks with no mutant row: {missing}"


def test_a_solver_that_understates_its_residual_fails_the_gate(mutant, capsys):
    # the solver returns a perturbed eigenvector and claims residual 0.0:
    # the suite recomputes each row's residual from its pencil, lambda and
    # x, so the verdict's residual gate fails at the default --tol
    mutant(importlib.import_module("llab.hyperbolic.eigensolve"), "smallest_eigenpairs",
           "return lam, x.copy(), step, res", "return lam, x + 1e-3 * x.max(), step, 0.0")
    assert main(SMALL["hyperbolic"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert re.search(r"max residual \S+ > tol 1e-08", out), out


def test_dbar_as_all_of_d_fails_the_kahler_residual(mutant, capsys):
    # Delta_d = 2 Delta_dbar is no verdict check of its own: the torus
    # verdict gates its residual, which reads 1 when dbar is all of d
    mutant(importlib.import_module("llab.torus"), "FourierComplex.block",
           'A = sum(R[p, q + 1] @ self.block("d", k) @ P[p, q] for p, q in P if (p, q + 1) in R)',
           'A = self.block("d", k)')
    assert main(SMALL["torus"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "worst: n2.kahler_identity.max_residual" in out, out


def test_a_short_pq_image_basis_fails_p7_and_the_residual_gate(mutant, capsys, tmp_path):
    # the harmonic scan and the p7 decomposition read one basis of each
    # image of Pi^{p,q}: one column short, the scan's rank falls one under
    # the projector's trace, and H^{p,q} no longer holds its Lefschetz blocks
    mutant(importlib.import_module("llab.torus"), "_pq_images", "_image_basis(P) for", "_image_basis(P)[:, :-1] for")
    assert main([*SMALL["torus"], "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert any(re.fullmatch(r"n2\.p7\[\d,\d\]", name) for name in _failed(out)), out
    assert re.search(r"max residual \S+ > tol 1e-10", out), out
    harmonic = load_report(tmp_path / "torus.json")["report"]["blocks"]["n2"]["harmonic"]
    assert all(h["residuals"]["bidegree_trace_vs_rank"] == 1.0 for h in harmonic.values())
