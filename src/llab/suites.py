"""Deterministic randomized verification suites.

The identity and torus suites draw every random object from numpy
Generators seeded by spawn-key lists ([seed, n, k] style), so a config
fully determines the draws and two runs of the same config produce
identical residuals, bit for bit.  The hyperbolic suite takes no seed.
Residuals are max-abs, relative to the input scale.

The identity suite checks, per (n, k) cell and per random batch, the
identities implemented once in `llab.lefschetz` as residual operators on
the degree's basis (or Gram blocks on primitive bases), each built once per
cell and applied to the batch in one product:
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

from llab.algebra import CompatibleTriple, _apply, build_standard_triple, random_compatible_triple
from llab.lefschetz import (
    _rel_max,
    commutator_operators,
    cross_term_residual,
    inner_scaling_residuals,
    lambda_conjugation_operators,
    primitive_basis,
    primitivity_operators,
    roundtrip_operator,
    star_involution_operator,
    weil_consistency_operator,
    weil_relation_operators,
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


def _cell_residuals(
    t: CompatibleTriple,
    n: int,
    k: int,
    cases: int,
    cross_cases: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """All identity residuals for one (triple, degree) cell, each the worst
    column of one seeded batch under the identity's residual operator.  The
    operators are built once per cell; a batch costs one product per
    identity.  Primitive batches are drawn as coefficients on the primitive
    basis, and the bilinear identities read them through Gram blocks."""
    out: dict[str, float] = {}
    X = _random_batch(rng, math.comb(2 * n, k), cases)

    def score(R, x=X, ref=X):
        return _rel_max(_apply(R, x), ref)

    out["symplectic_star_involution"] = score(star_involution_operator(t, k))
    conj = lambda_conjugation_operators(t, k)
    out["symplectic_star_conjugation"] = score(conj["symplectic_star"])
    out["hodge_star_conjugation"] = score(conj["hodge_star"])
    out["weil_operator_consistency"] = score(weil_consistency_operator(t, k))
    levels = [i for i in (1, 2, 3) if k + 2 * i <= 2 * n]  # inside the algebra
    for i, R in commutator_operators(t, k, levels).items():
        out[f"commutator_i{i}"] = score(R)
    A = X[:, :ROUNDTRIP_CASES]
    roundtrip = score(roundtrip_operator(t, k), A, A)

    # primitive-only identities, on coefficients b in the primitive basis;
    # the forms P b set each column's scale
    if k <= n:
        P = primitive_basis(t, k)
        b = _random_batch(rng, P.shape[1], cases)
        B = _apply(P, b)
        lam, power = primitivity_operators(t, k)
        out["primitivity_lambda"], out["primitivity_power"] = score(lam, b, B), score(power, b, B)
        out["weil_relation"] = max(score(R, b, B) for R in weil_relation_operators(t, k).values())
        b2 = _random_batch(rng, P.shape[1], cases)
        out["inner_scaling"] = max(inner_scaling_residuals(t, k, b, b2).values())

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
            x = _random_batch(rng, primitive_basis(t, k - 2 * p).shape[1], cross_cases)
            y = _random_batch(rng, primitive_basis(t, k - 2 * q).shape[1], cross_cases)
            worst = max(worst, cross_term_residual(t, k, p, x, q, y))
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
    rel_tol: float = 1e-8,
    tol: float = DEFAULT_TOLERANCE["hyperbolic"],
) -> dict:
    """FEM gap verification: derivation report, theta texture, the (R, h)
    sweep with extrapolation, cutoff feasibility, the cross term, and
    annulus decay.  The verdict's residual is the worst relative eigenpair
    residual (residual / lambda1) over the sweep, gated by tol.  Its checks
    are the derivation's proofs, theta's sup norm and Stokes defect, the
    cross term's premise |df|_g <= eps at the pairing's quadrature points,
    lambda1 against the derived bound, and the extrapolation against the
    oracle; the annulus table is data.  The suite takes no seed: at k = 0
    its one draw is the derivation's fixed-seed arena triple, and at k = 1
    the eigensolver's fixed-seed start is the other."""
    from llab.hyperbolic import (
        annulus_decay,
        bounded_primitive,
        cutoff_family,
        gap_sweep,
    )
    from llab.hyperbolic.forms import crossterm_constant
    from llab.hyperbolic.gap import gromov_bound_report

    # checked before the sweep meshes anything, as `gap_sweep` checks R, h
    # and rel_tol; `cutoff_family` would refuse it only after every solve
    if not 0 < eps <= 1:  # nan too
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    derivation = gromov_bound_report(1, k if k != 1 else 0)
    sweep = gap_sweep(R_values, h_values, k=k, rel_tol=rel_tol)

    # texture and decay checks on the largest/finest mesh, taken from the
    # sweep with the geometry its assembly built; its edge midpoints are
    # built once here, after the sweep's factorizations, for both form checks
    mesh = sweep.pop("finest_mesh")
    h_star = min(h_values)
    midpoints = mesh.edge_midpoints()
    theta = bounded_primitive(mesh, midpoints)
    profile = cutoff_family(mesh, eps)
    cross = crossterm_constant(mesh, profile, midpoints)
    del midpoints

    # d Re z on the canonical edges, (d phi)_(lo, hi) = phi_hi - phi_lo
    x = mesh.vertices[:, 0]
    lo, hi = mesh.edge_structure.edges.T
    decay = annulus_decay(x[hi] - x[lo], mesh)

    checks = {
        "derivation_pass": bool(derivation["checks_pass"]),
        "theta_sup_is_one": bool(abs(theta.sup_norm - 1.0) < 1e-3),
        # measured at most 0.104 h^2 on R = 2..8, h = 0.1..1.5; a d theta of
        # the wrong sign has relative defect 2
        "stokes_small": bool(theta.stokes_max < 0.5 * h_star**2),
        # the premise of C_sqrtf <= 2, up to rounding
        "crossterm_within_proved_bound": bool(cross["max_df_over_eps"] <= 1.0 + 1e-9),
    }
    # absent, not vacuously True, when no row carries a derived bound (k = 1)
    bounded = [r for r in sweep["rows"] if r["derived_bound"] is not None]
    if bounded:
        checks["above_derived_bound"] = all(r["lambda1"] >= r["derived_bound"] for r in bounded)
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
