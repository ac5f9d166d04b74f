"""Deterministic randomized verification suites.

The identity suite draws every random object from numpy Generators
seeded by spawn-key lists ([seed, n, k] style), so a config fully
determines the draws and two runs of the same config produce identical
residuals, bit for bit.  The torus and hyperbolic suites take no seed:
their few draws come from fixed seeds of their own.
Residuals are max-abs, relative to the input scale.

The identity suite checks, per (n, k) cell and per random batch, the
identities implemented once in `llab.lefschetz` as residual operators on
the degree's basis (or Gram blocks on primitive bases), each built once per
cell and applied to the batch in one product.  An operator with no nonzero
entry proves its identity on every form, and scores 0.0 without a product;
the batch's column scale is computed once, for the first operator that
needs it.  The identities:
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

# the random triple's cells draw at most RANDOM_TRIPLE_CASES forms per batch,
# and the decomposition round trip reads at most ROUNDTRIP_CASES of them
RANDOM_TRIPLE_CASES = 64
ROUNDTRIP_CASES = 1000

# The largest n verify-identities and torus run.  Each keeps the dense
# C(2n, k) x C(2n, k) operator blocks of every degree, verify-identities
# those of two triples and torus those of one triple and of its Fourier
# complex, and their bytes grow 15- to 24-fold per step of n.  Held after a
# run at n = 5 (one process, 1 BLAS thread): 63 MB for verify-identities,
# so about 1 GiB at n = 6, and 548 MB for torus (955 MB peak RSS), about
# 12 GiB at n = 6.  Linux overcommits memory, so a run past the host's
# memory is not a MemoryError the CLI can report but a kernel kill with no
# message; an n past these is refused before any block is built.
IDENTITIES_MAX_N = 6
TORUS_MAX_N = 5


def _check_max_n(suite: str, n_values, max_n: int, held: str) -> None:
    """Raise ValueError for an n past max_n, naming n, max_n and `held`,
    the bytes of the suite's operator blocks at max_n."""
    for n in n_values:
        if n > max_n:
            raise ValueError(
                f"{suite} at n = {n} is past its largest n, {max_n}: its operator blocks hold "
                f"{held} at n = {max_n} and grow at least 15-fold per step of n"
            )


def _random_batch(rng: np.random.Generator, dim: int, cases: int) -> np.ndarray:
    """A (dim, cases) complex batch: real parts from one standard-normal
    draw, then imaginary parts from the next."""
    out = np.empty((dim, cases), dtype=complex)
    out.real = rng.standard_normal((dim, cases))
    out.imag = rng.standard_normal((dim, cases))
    return out


class _Batch:
    """A seeded batch x and the scale of each column, max(1, max|ref|),
    ref being x itself or, with `forms`, the forms forms @ x whose
    coefficients x holds.  The scale, and so the forms, are made once, when
    the first operator with a nonzero entry is scored."""

    __slots__ = ("x", "_forms", "_scale")

    def __init__(self, x: np.ndarray, forms: np.ndarray | None = None):
        self.x = x
        self._forms = forms
        self._scale = None

    def score(self, R: np.ndarray) -> float:
        """The worst column of max|R x| / scale, as `_rel_max` gives it.  An
        operator with no nonzero entry scores 0.0 without a product: R x is
        exactly zero for every finite x.  A NaN entry counts as nonzero."""
        if not R.any():
            return 0.0
        if self._scale is None:
            ref = self.x if self._forms is None else _apply(self._forms, self.x)
            self._scale = np.maximum(np.max(np.abs(ref), axis=0, initial=0.0), 1.0)
        num = np.max(np.abs(_apply(R, self.x)), axis=0, initial=0.0)
        return float(np.max(num / self._scale, initial=0.0))


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
    identity whose operator has a nonzero entry, and an exactly-zero
    operator, which proves its identity on every form, scores 0.0 with
    none.  Primitive batches are drawn as coefficients on the primitive
    basis, and the bilinear identities read them through Gram blocks."""
    out: dict[str, float] = {}
    X = _random_batch(rng, math.comb(2 * n, k), cases)
    score = _Batch(X).score

    out["symplectic_star_involution"] = score(star_involution_operator(t, k))
    conj = lambda_conjugation_operators(t, k)
    out["symplectic_star_conjugation"] = score(conj["symplectic_star"])
    out["hodge_star_conjugation"] = score(conj["hodge_star"])
    out["weil_operator_consistency"] = score(weil_consistency_operator(t, k))
    levels = [i for i in (1, 2, 3) if k + 2 * i <= 2 * n]  # inside the algebra
    for i, R in commutator_operators(t, k, levels).items():
        out[f"commutator_i{i}"] = score(R)
    # the round trip reads the first ROUNDTRIP_CASES forms: X, and X's
    # scale, unless the batch is larger
    on_A = score if cases <= ROUNDTRIP_CASES else _Batch(X[:, :ROUNDTRIP_CASES]).score
    roundtrip = on_A(roundtrip_operator(t, k))

    # primitive-only identities, on coefficients b in the primitive basis;
    # the forms P b set each column's scale
    if k <= n:
        P = primitive_basis(t, k)
        b = _random_batch(rng, P.shape[1], cases)
        on_b = _Batch(b, P).score
        lam, power = primitivity_operators(t, k)
        out["primitivity_lambda"], out["primitivity_power"] = on_b(lam), on_b(power)
        out["weil_relation"] = max(on_b(R) for R in weil_relation_operators(t, k).values())
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


# -- the verdict ----------------------------------------------------------


def evaluate_verdict(body: dict) -> bool:
    """The one verdict rule, shared by suite authors and report consumers.

    A report body carries {"max_residual": float|None, "tolerance":
    float|None, "checks": {name: bool, ...}} at its top; it passes iff the
    residual clears the tolerance (when both are present) and every named
    check is True.
    """
    mr, tol = body["max_residual"], body["tolerance"]
    return all(map(bool, body["checks"].values())) and (mr is None or tol is None or mr < tol)


def _verdict(max_residual: float | None, tol: float, checks: dict) -> dict:
    """A report body's verdict keys: evaluate_verdict's inputs and `passed`."""
    body = {"max_residual": max_residual, "tolerance": tol, "checks": checks}
    return {**body, "passed": evaluate_verdict(body)}


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
    ("kahler_identity", "max_bidegree_leakage_dbar"),
    ("kahler_identity", "max_bidegree_leakage_delta"),
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


def failure_notes(payload: dict) -> list[str]:
    """For a hyperbolic report, one line per R whose lower-bound gate
    certified no mesh: the check's name and the status of each mesh tried,
    which names the smallest pivot when a pivot failed.  None for the
    other suites."""
    if payload["suite"] != "hyperbolic":
        return []
    return [
        f"above_derived_bound: R = {R}: "
        + "; ".join(f"h = {m['h']}: {m['status']}" for m in gate["meshes"])
        for R, gate in payload["sweep"]["lower_bound"].items()
        if not gate["certified"]
    ]


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


def _distinct_n(n_values) -> tuple[int, ...]:
    """A suite's half-dimensions, ascending, so that their order changes
    neither the run nor the report.  A repeated n raises ValueError naming
    it: it would add nothing to a run and change its config."""
    n_values = tuple(int(n) for n in n_values)
    for i, n in enumerate(n_values):
        if n in n_values[:i]:
            raise ValueError(f"repeated n value {n}: each n may appear once")
    return tuple(sorted(n_values))


def identity_suite(
    n_values=(1, 2, 3, 4),
    cases: int = 1000,
    cross_cases: int = 500,
    seed: int = 7,
    tol: float = 1e-10,
) -> dict:
    """Criteria-level identity verification over (n, k) cells.

    Returns a report dict with one residual map per cell (standard triple
    at full batch size, one random compatible triple at a reduced batch),
    the overall max residual, and the verdict against tol.
    """
    n_values = _distinct_n(n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("n >= 1 required")
    if cases < 0 or cross_cases < 0:
        raise ValueError("case counts must be nonnegative")
    _check_max_n("verify-identities", n_values, IDENTITIES_MAX_N, "about 1 GiB")

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

    cells = {f"n{n}": run_n(n) for n in n_values}

    residuals = _identity_residuals(cells)
    report = {
        "suite": "verify-identities",
        "n_values": list(n_values),
        "cases": cases,
        "cross_cases": cross_cases,
        "seed": seed,
        "cells": cells,
        **_verdict(max(residuals.values()) if residuals else None, tol, {}),
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
    tol: float = 1e-10,
) -> dict:
    """Fourier-model verification: harmonic dimensions, the bigraded
    refinement, the two norm identities, the anti-invariant measurement,
    and the self-dual relation, per n.  `samples` counts the self-dual
    relation's modes, drawn from its own fixed seed; nothing else draws,
    so the suite takes no seed."""
    from llab.torus import (
        anti_invariant_suite,
        build_fourier_complex,
        check_complex,
        check_modes,
        harmonic_space,
        self_dual_invariant_relation,
        verify_kahler_identity,
        verify_lemma_L8,
        verify_lemma_L10,
        verify_p7_decomposition,
    )

    n_values = _distinct_n(n_values)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    _check_max_n("torus", n_values, TORUS_MAX_N, "548 MB")
    for n in n_values:  # every n, before any complex is built
        if n < 2:
            raise ValueError(f"torus at n = {n} is below its smallest n, 2: "
                             "the anti-invariant and self-dual relations need n >= 2")
        check_modes(n, N)

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
        block["lemma_L10"] = verify_lemma_L10(fc, tol)
        block["kahler_identity"] = verify_kahler_identity(fc, tol)
        block["anti_invariant"] = anti_invariant_suite(fc, tol)
        block["self_dual"] = self_dual_invariant_relation(fc, samples, tol)
        return block

    blocks = {f"n{n}": run_n(n) for n in n_values}

    residuals = _torus_residuals(blocks)
    checks: dict[str, bool] = {}
    for key, b in blocks.items():
        checks[f"{key}.hodge_dims"] = b["complex_checks"]["hodge_dim_mismatch"] == 0
        for pq, r in b["p7"].items():
            checks[f"{key}.p7[{pq}]"] = bool(r["passed"])
        checks[f"{key}.anti_invariant"] = bool(b["anti_invariant"]["passed"])
        checks[f"{key}.self_dual"] = bool(b["self_dual"]["passed"])
    report = {
        "suite": "torus",
        "n_values": list(n_values),
        "N": N,
        "samples": samples,
        "blocks": blocks,
        **_verdict(max(residuals.values()) if residuals else None, tol, checks),
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
    # eigensolve.DEFAULT_REL_TOL, pinned equal by a test: importing it here
    # would load scipy for every suite.  tol gates what rel_tol certifies.
    rel_tol: float = 1e-8,
    tol: float = 1e-8,
) -> dict:
    """FEM gap verification: derivation report, theta texture, the (R, h)
    sweep with extrapolation, cutoff feasibility, the cross term, and
    annulus decay.  The verdict's residual is the worst relative eigenpair
    residual (residual / lambda1) over the sweep, gated by tol.  Its checks
    are the derivation's proofs, theta's sup norm and Stokes defect, the
    cross term's premise |df|_g <= eps at the pairing's quadrature points,
    lambda_1(B_R) >= the derived bound, proven for each R on a polygon
    enclosing B_R (`above_derived_bound`, k = 0 only), and the
    extrapolation against the oracle.  The P1 lambda1 of each row and its
    Richardson extrapolation are estimates, from above, not bounds; the
    annulus table is data.  The suite takes no seed: its one draw
    is the derivation's fixed-seed arena triple."""
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
    # proven per R on a polygon enclosing B_R; absent, not vacuously True,
    # when no R ran the gate (k = 1)
    if sweep["lower_bound"]:
        checks["above_derived_bound"] = all(gate["certified"] for gate in sweep["lower_bound"].values())
    oracle_errs = [
        e["rel_err_vs_oracle"] for e in sweep["extrapolation"].values() if e["rel_err_vs_oracle"] is not None
    ]
    if oracle_errs:
        checks["oracle_agreement_3pct"] = all(e < 0.03 for e in oracle_errs)
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
        **_verdict(max(_hyperbolic_residuals(sweep["rows"]).values()), tol, checks),
    }
    if not oracle_errs:
        # no extrapolated eigenvalue met an oracle: nothing checked convergence
        report["warning"] = "vacuous"
    return report


# suite id -> the name of the function that runs it, whose signature is the
# suite's contract: its parameters and defaults, its tolerance `tol`, and its
# `seed` if it draws one
SUITES = {"verify-identities": "identity_suite", "torus": "torus_suite", "hyperbolic": "hyperbolic_suite"}


def suite_function(suite: str):
    """The function that runs `suite`, looked up by name at each call, so
    that a wrapper bound to the module attribute is the one called."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite id {suite!r}")
    return globals()[SUITES[suite]]
