"""Deterministic randomized verification suites.

Each suite draws every random object from numpy Generators seeded by
spawn-key lists ([seed, n, k] style), so a config fully determines the
draws and two runs of the same config produce identical residuals, bit
for bit.  Residuals are max-abs, relative to the input scale.

The identity suite checks, per (n, k) cell and per random batch, the
identities implemented once in `llab.lefschetz`, each family over all its
levels from the batch's one `Ladder` of products:
  * Weil relation on primitive forms (star vs Lefschetz power of J(beta))
  * Lambda = star_s L star_s and star_s involutivity
  * Lambda = (-1)^k star L star
  * the J-pullback operator equals the (p,q)-phase sum
  * [L^i, Lambda] = i (k - n + i - 1) L^{i-1} for i <= 3
  * both primitivity characterizations vanish together
  * the primitive-pair inner-product scaling law
  * primitive-decomposition round-trip
  * cross-degree orthogonality <L^p x, L^q y> = 0 (p != q, x, y primitive)
"""

from __future__ import annotations

import math

import numpy as np

from llab.algebra import CompatibleTriple, KForm, _apply, build_standard_triple, random_compatible_triple
from llab.lefschetz import (
    Ladder,
    commutator_residuals,
    cross_term_residual,
    inner_scaling_residuals,
    lambda_conjugation_residuals,
    primitive_basis,
    primitive_decompose,
    primitivity_residuals,
    symplectic_star_involution_residual,
    weil_operator_residual,
    weil_relation_residuals,
)
from llab.reports import DEFAULT_TOLERANCE

# the random triple's cells draw at most RANDOM_TRIPLE_CASES forms per batch,
# and the decomposition round trip reads at most ROUNDTRIP_CASES of them
RANDOM_TRIPLE_CASES = 64
ROUNDTRIP_CASES = 1000


def _random_batch(rng: np.random.Generator, dim: int, cases: int) -> np.ndarray:
    """A (dim, cases) complex batch: real parts from one standard-normal
    draw, then imaginary parts from the next."""
    out = np.empty((dim, cases), dtype=complex)
    out.real = rng.standard_normal((dim, cases))
    out.imag = rng.standard_normal((dim, cases))
    return out


def _primitive_batch(t: CompatibleTriple, k: int, rng: np.random.Generator, cases: int) -> KForm:
    """`cases` random primitive k-forms: a random batch in the primitive basis."""
    P = primitive_basis(t, k)
    return KForm._own(t.n, k, _apply(P, _random_batch(rng, P.shape[1], cases)))


def _cell_residuals(
    t: CompatibleTriple,
    n: int,
    k: int,
    cases: int,
    cross_cases: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """All identity residuals for one (triple, degree) cell, each the worst
    column of one seeded batch.  Each batch has one Ladder, which every
    identity family of the cell reads."""
    out: dict[str, float] = {}
    X = Ladder(KForm._own(n, k, _random_batch(rng, math.comb(2 * n, k), cases)), t)
    out["symplectic_star_involution"] = symplectic_star_involution_residual(X.a, t)
    conj = lambda_conjugation_residuals(X)
    out["symplectic_star_conjugation"] = conj["symplectic_star"]
    out["hodge_star_conjugation"] = conj["hodge_star"]
    out["weil_operator_consistency"] = weil_operator_residual(X.a, t)
    levels = [i for i in (1, 2, 3) if k + 2 * i <= 2 * n]  # inside the algebra
    for i, res in commutator_residuals(X, levels).items():
        out[f"commutator_i{i}"] = res
    A = KForm(n, k, X.a.data[:, :ROUNDTRIP_CASES])
    roundtrip = primitive_decompose(A, t).residual(A, t)
    del X, A  # the batches below read none of X's rungs

    # primitive-only identities
    if k <= n:
        B = Ladder(_primitive_batch(t, k, rng, cases), t)
        out["primitivity_lambda"], out["primitivity_power"] = primitivity_residuals(B.a, t)
        out["weil_relation"] = max(weil_relation_residuals(B).values())
        B2 = Ladder(_primitive_batch(t, k, rng, cases), t)
        out["inner_scaling"] = max(inner_scaling_residuals(B, B2).values())

    out["decomposition_roundtrip"] = roundtrip

    # cross-degree orthogonality <L^p x, L^q y> = 0, p != q; levels below
    # k - n carry structurally-zero components (L^p kills them) and are
    # excluded, mirroring the decomposition's valid range.  With no cross
    # cases the check has nothing to score, and its key is left out.
    levels = range(max(0, k - n), k // 2 + 1)
    pairs = [(p, q) for p in levels for q in levels if p != q]
    if pairs and cross_cases > 0:
        worst = 0.0
        for p, q in pairs:
            x = _primitive_batch(t, k - 2 * p, rng, cross_cases)
            y = _primitive_batch(t, k - 2 * q, rng, cross_cases)
            worst = max(worst, cross_term_residual(x, p, y, q, t))
        out["cross_term_orthogonality"] = worst
    return out


# -- the residuals each verdict's max_residual is the max of, by cell ----


def _identity_residuals(cells: dict) -> dict[str, float]:
    """{"n3.k2.weil_relation[random_triple]": residual, ...}"""
    return {
        f"{nk}.{kk}.{name}": v
        for nk, cell in cells.items()
        for kk, res in cell.items()
        for name, v in res.items()
    }


_TORUS_COMPLEX_RESIDUALS = (
    "d_squared",
    "d_lambda_squared",
    "adjointness",
    "commutator_L",
    "commutator_Lambda",
    "harmonic_iff_closed_coclosed",
)
_TORUS_LEMMA_RESIDUALS = (
    ("lemma_L8", "max_residual"),
    ("lemma_L10", "max_cross_term"),
    ("kahler_identity", "max_residual"),
    ("self_dual", "max_ratio_deviation_from_nminus1"),
    ("self_dual", "max_dlambda_residual"),
)


def _torus_residuals(blocks: dict) -> dict[str, float]:
    """{"n2.lemma_L8.max_residual": residual, ...}, named by report path."""
    out = {}
    for key, b in blocks.items():
        for name in _TORUS_COMPLEX_RESIDUALS:
            out[f"{key}.complex_checks.{name}"] = b["complex_checks"][name]
        for pq, r in b["p7"].items():
            out[f"{key}.p7[{pq}].projection_residual"] = r["projection_residual"]
        for part, name in _TORUS_LEMMA_RESIDUALS:
            out[f"{key}.{part}.{name}"] = b[part][name]
    return out


def _hyperbolic_residuals(rows: list) -> dict[str, float]:
    """{"R6.0.h0.2": residual / lambda1, ...}, one per sweep row."""
    return {f"R{r['R']}.h{r['h']}": r["residual"] / r["lambda1"] for r in rows}


def worst_cell(payload: dict) -> tuple[str, float] | None:
    """The cell that sets a suite report's max_residual, and its residual;
    None when the suite checked nothing."""
    suite = payload["suite"]
    if suite == "verify-identities":
        named = _identity_residuals(payload["cells"])
    elif suite == "torus":
        named = _torus_residuals(payload["blocks"])
    elif suite == "hyperbolic":
        named = _hyperbolic_residuals(payload["sweep"]["rows"])
    else:
        raise ValueError(f"unknown suite id {suite!r}")
    if not named:
        return None
    name = max(named, key=named.__getitem__)
    return name, named[name]


def identity_suite(
    n_values=(1, 2, 3, 4),
    cases: int = 1000,
    cross_cases: int = 500,
    seed: int = 7,
    tol: float = DEFAULT_TOLERANCE["verify-identities"],
) -> dict:
    """Criteria-level identity verification over (n, k) cells.

    Returns a report dict with one residual map per cell (standard triple
    at full batch size, one random compatible triple at a reduced batch),
    the overall max residual, and the verdict against tol.
    """
    n_values = tuple(int(n) for n in n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("n >= 1 required")
    if cases < 0 or cross_cases < 0:
        raise ValueError("case counts must be nonnegative")

    def run_n(n: int) -> dict:
        t_std = build_standard_triple(n)
        rng_triple = np.random.default_rng([seed, n, 10_000])
        t_rnd = random_compatible_triple(n, rng_triple)
        cell: dict[str, dict] = {}
        for k in range(0, 2 * n + 1):
            if cases == 0:
                cell[f"k{k}"] = {}
                continue
            rng = np.random.default_rng([seed, n, k])
            res_std = _cell_residuals(t_std, n, k, cases, cross_cases, rng)
            rng2 = np.random.default_rng([seed, n, k, 1])
            res_rnd = _cell_residuals(
                t_rnd, n, k, min(cases, RANDOM_TRIPLE_CASES), min(cross_cases, RANDOM_TRIPLE_CASES), rng2
            )
            merged = dict(res_std)
            for name, v in res_rnd.items():
                merged[f"{name}[random_triple]"] = v
            cell[f"k{k}"] = merged
        return cell

    cells = {f"n{n}": run_n(n) for n in sorted(set(n_values))}

    residuals = _identity_residuals(cells)
    max_residual = max(residuals.values()) if residuals else None
    verdict = {"max_residual": max_residual, "tolerance": tol, "checks": {}}
    from llab.reports import evaluate_verdict

    report = {
        "suite": "verify-identities",
        "n_values": list(n_values),
        "cases": cases,
        "cross_cases": cross_cases,
        "seed": seed,
        "tolerance": tol,
        "cells": cells,
        "max_residual": max_residual,
        "verdict": verdict,
        "passed": evaluate_verdict(verdict),
    }
    if not residuals or cases == 0:
        report["warning"] = "vacuous"
    elif cross_cases == 0 and max(n_values) >= 2:
        # every n >= 2 has cells with two Lefschetz levels, whose cross term
        # went unchecked
        report["warning"] = "vacuous: cross_term_orthogonality had no cases (cross_cases = 0)"
    return report


def torus_suite(
    n_values=(2, 3),
    N: int = 1,
    samples: int = 100,
    seed: int = 7,
    tol: float = DEFAULT_TOLERANCE["torus"],
) -> dict:
    """Fourier-model verification: harmonic dimensions, the bigraded
    refinement, the two norm identities, the anti-invariant measurement,
    and the self-dual relation, per n.  `samples` counts L10's random forms
    per degree and the self-dual relation's modes; nothing else draws."""
    from llab.torus import (
        anti_invariant_suite,
        build_fourier_complex,
        check_complex,
        harmonic_space,
        self_dual_invariant_relation,
        verify_kahler_identity,
        verify_lemma_L8,
        verify_lemma_L10,
        verify_p7_decomposition,
    )

    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")

    def run_n(n: int) -> dict:
        t = build_standard_triple(n)
        fc = build_fourier_complex(n, N, t)
        block: dict = {"n": n, "N": N, "modes": len(fc.modes)}
        block["complex_checks"] = check_complex(fc)
        harm = {}
        for k in range(0, 2 * n + 1):
            harm[f"k{k}"] = harmonic_space(fc, k).to_json_dict()
        block["harmonic"] = harm
        p7 = {}
        for p in range(0, n + 1):
            for q in range(0, n + 1):
                p7[f"{p},{q}"] = verify_p7_decomposition(fc, p, q, tol)
        block["p7"] = p7
        block["lemma_L8"] = verify_lemma_L8(fc, tol)
        block["lemma_L10"] = verify_lemma_L10(fc, samples, seed, tol)
        block["kahler_identity"] = verify_kahler_identity(fc, tol)
        block["anti_invariant"] = anti_invariant_suite(fc, tol)
        block["self_dual"] = self_dual_invariant_relation(fc, samples, tol)
        return block

    blocks = {f"n{n}": run_n(n) for n in sorted(set(n_values))}

    residuals = _torus_residuals(blocks)
    checks: dict[str, bool] = {}
    for key, b in blocks.items():
        checks[f"{key}.hodge_dims"] = b["complex_checks"]["hodge_dim_mismatch"] == 0
        for pq, r in b["p7"].items():
            checks[f"{key}.p7[{pq}]"] = bool(r["passed"])
        checks[f"{key}.anti_invariant"] = bool(b["anti_invariant"]["passed"])
        checks[f"{key}.self_dual"] = bool(b["self_dual"]["passed"])
    max_residual = max(residuals.values()) if residuals else None
    verdict = {"max_residual": max_residual, "tolerance": tol, "checks": checks}
    from llab.reports import evaluate_verdict

    report = {
        "suite": "torus",
        "n_values": list(n_values),
        "N": N,
        "samples": samples,
        "seed": seed,
        "tolerance": tol,
        "blocks": blocks,
        "max_residual": max_residual,
        "verdict": verdict,
        "passed": evaluate_verdict(verdict),
    }
    # zero samples, sampled modes that all missed a nontrivial self-dual
    # case, or an L8 proof over no type or an L10 cross term over no pair of
    # Lefschetz levels leave checks that passed on nothing
    if not blocks or any(
        b["self_dual"]["nontrivial_cases"] == 0
        or b["lemma_L8"]["proven_types"] == 0
        or b["lemma_L10"]["cross_pairs"] == 0
        for b in blocks.values()
    ):
        report["warning"] = "vacuous"
    return report


def hyperbolic_suite(
    R_values=(2.0, 4.0),
    h_values=(0.2, 0.1),
    k: int = 0,
    eps: float = 0.6,
    seed: int = 7,
    rel_tol: float = 1e-8,
    tol: float = DEFAULT_TOLERANCE["hyperbolic"],
) -> dict:
    """FEM gap verification: derivation report, theta texture, the (R, h)
    sweep with extrapolation, cutoff feasibility, and annulus decay.  The
    verdict's residual is the worst relative eigenpair residual
    (residual / lambda1) over the sweep, gated by tol."""
    from llab.hyperbolic import (
        annulus_decay,
        bounded_primitive,
        cutoff_family,
        gap_sweep,
    )
    from llab.hyperbolic.assembly import incidence_d0
    from llab.hyperbolic.forms import crossterm_constant
    from llab.hyperbolic.gap import gromov_bound_report

    derivation = gromov_bound_report(1, k if k != 1 else 0)
    sweep = gap_sweep(R_values, h_values, k=k, rel_tol=rel_tol)

    # texture and decay checks on the largest/finest mesh, taken from the
    # sweep with the geometry its assembly built
    mesh = sweep.pop("finest_mesh")
    h_star = min(h_values)
    theta = bounded_primitive(mesh)
    profile = cutoff_family(mesh, eps)
    cross = crossterm_constant(mesh, profile, n_samples=4, seed=seed)

    D0 = incidence_d0(mesh, mesh.edge_structure)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    alpha = D0 @ np.real(z)
    decay = annulus_decay(alpha, mesh)

    checks = {
        "derivation_pass": bool(derivation["checks_pass"]),
        "theta_sup_is_one": bool(abs(theta.sup_norm - 1.0) < 1e-3),
        "stokes_small": bool(theta.stokes_max < 50 * h_star**2),
        "eigen_certified": all(r["residual"] < rel_tol * r["lambda1"] for r in sweep["rows"]),
        "above_derived_bound": all(
            r["derived_bound"] is None or r["lambda1"] >= r["derived_bound"] for r in sweep["rows"]
        ),
        "crossterm_within_proved_bound": bool(cross["C_sqrtf_max"] <= 2.0 + 1e-8),
        "annulus_sum_consistent": decay.partial_sums_consistent(),
    }
    oracle_errs = [
        e["rel_err_vs_oracle"] for e in sweep["extrapolation"].values() if e["rel_err_vs_oracle"] is not None
    ]
    if oracle_errs:
        checks["oracle_agreement_3pct"] = all(e < 0.03 for e in oracle_errs)
    max_residual = max(_hyperbolic_residuals(sweep["rows"]).values())
    verdict = {"max_residual": max_residual, "tolerance": tol, "checks": checks}
    from llab.reports import evaluate_verdict

    report = {
        "suite": "hyperbolic",
        "R_values": [float(R) for R in R_values],
        "h_values": [float(h) for h in h_values],
        "k": k,
        "eps": eps,
        "seed": seed,
        "derivation": derivation,
        "sweep": sweep,
        "theta": theta.to_json_dict(),
        "cutoff": profile.to_json_dict(),
        "crossterm": cross,
        "annulus_decay": decay.to_json_dict(),
        "checks": checks,
        "verdict": verdict,
        "passed": evaluate_verdict(verdict),
    }
    if not oracle_errs:
        # no extrapolated eigenvalue met an oracle: nothing checked convergence
        report["warning"] = "vacuous"
    return report
