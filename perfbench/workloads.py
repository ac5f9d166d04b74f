"""Workload definitions, their inputs, and the oracles that check outputs.

Every oracle returns a list of problems (empty when the output is right)
and is chosen to stay valid when a later change rebuilds a mesh or moves
a residual in its last bits: verdicts are recomputed from the report,
dimensions and constants are compared with closed forms, and eigenvalues
with the frozen shooting table at a 1e-3 relative tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

RESIDUAL_TOL = 1e-10
ORACLE_REL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "suite": one llab.cli.main call; "decompose": a loop of decompose_file calls
    argv: tuple = ()
    calls: int = 0  # decompose: calls per repetition
    # probes and layers the traced run must see fire; a silent 0 is an error
    expect: tuple = ()
    checks: dict = field(default_factory=dict)


def check_identities(report: dict, n_values=(1, 2, 3, 4)) -> list[str]:
    from llab.reports import verdict_from_report

    body = report["report"]
    problems = []
    if not verdict_from_report(report) or not report["passed"]:
        problems.append("identity verdict does not recompute as PASS")
    if not body["max_residual"] <= RESIDUAL_TOL:
        problems.append(f"max_residual {body['max_residual']} > {RESIDUAL_TOL}")
    for n in n_values:
        cells = body["cells"].get(f"n{n}", {})
        if len(cells) != 2 * n + 1 or not all(cells.values()):
            problems.append(f"n={n}: missing or empty degree cells")
    return problems


def check_torus(report: dict, n_values=(2, 3)) -> list[str]:
    body = report["report"]
    problems = []
    for n in n_values:
        b = body["blocks"].get(f"n{n}")
        if b is None:
            problems.append(f"n={n}: block missing")
            continue
        for k in range(2 * n + 1):
            got = b["harmonic"][f"k{k}"]["total_dim"]
            if got != math.comb(2 * n, k):
                problems.append(f"n={n} k={k}: harmonic dim {got} != C({2 * n},{k})")
        anti = b["anti_invariant"]
        # CONVENTIONS: the anti-invariant constant is 1/(n-2)!
        if not anti["star_residual_over_factorial_nm2"] <= RESIDUAL_TOL:
            problems.append(f"n={n}: anti-invariant constant is not 1/(n-2)!")
        sd = b["self_dual"]
        if sd["nontrivial_cases"] < 1 or not sd["max_ratio_deviation_from_nminus1"] <= RESIDUAL_TOL:
            problems.append(f"n={n}: self-dual ratio is not n-1")
    return problems


def check_hyperbolic(report: dict, R_values=(2.0, 4.0, 6.0)) -> list[str]:
    from llab.hyperbolic.oracle import SHOOTING_LAMBDA1
    from llab.reports import verdict_from_report

    body = report["report"]
    problems = []
    if not verdict_from_report(report) or not report["passed"]:
        problems.append("hyperbolic verdict does not recompute as PASS")
    ext = body["sweep"]["extrapolation"]
    for R in R_values:
        e = ext.get(str(float(R)))
        if e is None:
            problems.append(f"R={R}: no extrapolated lambda_1")
            continue
        ref = SHOOTING_LAMBDA1[float(R)]
        rel = abs(e["lambda_extrapolated"] - ref) / ref
        if not rel <= ORACLE_REL_TOL:
            problems.append(f"R={R}: extrapolated lambda_1 off the shooting oracle by {rel:.2e}")
    return problems


def check_decompose(inp: dict, out: dict) -> list[str]:
    """Residuals as reported, plus two recomputations outside llab.cli:
    the bidegree parts must sum to the input coefficient by coefficient,
    and every Lefschetz component must be killed by Lambda."""
    from llab.algebra import form_from_json, norm, triple_from_json
    from llab.lefschetz import dual_lefschetz

    problems = []
    rs = out["reconstruction_residuals"]
    for key in ("lefschetz", "bidegree"):
        if not rs[key] <= RESIDUAL_TOL:
            problems.append(f"{key} reconstruction residual {rs[key]} > {RESIDUAL_TOL}")

    want = {tuple(c["idx"]): complex(c["re"], c["im"]) for c in inp["form"]["coeffs"]}
    got: dict = {}
    for comp in out["bidegree_components"].values():
        for c in comp["coeffs"]:
            key = tuple(c["idx"])
            got[key] = got.get(key, 0j) + complex(c["re"], c["im"])
    scale = max([abs(v) for v in want.values()] + [1.0])
    worst = max((abs(got.get(k, 0j) - want.get(k, 0j)) for k in set(want) | set(got)), default=0.0)
    if not worst <= RESIDUAL_TOL * scale:
        problems.append(f"bidegree parts do not sum to the input ({worst:.2e})")

    t = triple_from_json(inp["triple"])
    a = form_from_json(inp["form"])
    a_norm = max(norm(a, t), 1e-300)
    for r, comp in out["lefschetz_components"].items():
        beta = form_from_json(comp["form"])
        lam = norm(dual_lefschetz(beta, t), t) / a_norm if beta.k >= 2 else 0.0
        if not (comp["is_primitive"] and lam <= 1e-9):
            problems.append(f"Lefschetz component r={r} is not primitive (|Lambda beta| = {lam:.2e})")
    return problems


# any this many consecutive calls of the stream cover every (n, k)
DECOMPOSE_COVER = 36


def decompose_cell(i: int) -> tuple[int, int]:
    """The (n, k) of the i-th decompose call.

    n cycles through 1..4, and each n cycles through its degrees 0..2n, so
    every n gets a quarter of the calls, spread evenly over its degrees.
    Walking the 24 (n, k) cells uniformly instead put half the calls on 12
    cells under 4 ms and half on 12 cells over 4.5 ms: the median call sat
    in that gap and moved by 20 % between repetitions of the same inputs.
    """
    n = 1 + i % 4
    return n, (i // 4) % (2 * n + 1)


def write_decompose_inputs(directory: Path, seed: int, count: int) -> list[Path]:
    """A seeded stream of decompose inputs, each on a fresh random triple,
    with the (n, k) of decompose_cell."""
    import numpy as np

    from llab.algebra import KForm, form_to_json, random_compatible_triple, triple_to_json

    rng = np.random.default_rng([seed, 4242])
    paths = []
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        n, k = decompose_cell(i)
        t = random_compatible_triple(n, rng)
        dim = math.comb(2 * n, k)
        a = KForm(n, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        p = directory / f"in{i:05d}.json"
        p.write_text(json.dumps({"triple": triple_to_json(t), "form": form_to_json(a)}))
        paths.append(p)
    return paths


_SUITE_EXPECT = ("cli.main", "suites", "reports.write")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="identities",
            why="algebra, lefschetz and suites with heavy operator-cache reuse; torus and hyperbolic idle",
            kind="suite",
            argv=("verify-identities", "--n", "1,2,3,4", "--cases", "1000", "--cross-cases", "500"),
            expect=_SUITE_EXPECT + (
                "algebra", "lefschetz", "algebra.metric_gram", "algebra.hodge_star", "algebra.weil_operator",
                "lefschetz.primitive_decompose", "lefschetz.power_matrix", "lefschetz.primitive_basis",
            ),
            checks={"report": check_identities},
        ),
        Workload(
            name="torus",
            why="20 samples keep the harmonic scan and the sampled L8/L10/Kahler checks both weighty",
            kind="suite",
            argv=("torus", "--n", "2,3", "--N", "1", "--samples", "20"),
            expect=_SUITE_EXPECT + (
                "torus", "torus.build", "torus.mode_ops", "torus.harmonic_space", "torus.check_complex",
                "torus.p7", "torus.L8", "torus.L10", "torus.kahler", "torus.anti_invariant",
                "torus.self_dual",
            ),
            checks={"report": check_torus},
        ),
        Workload(
            name="hyperbolic",
            why="R=6 adds the 132k-vertex mesh, where mesh build, LU and forms dominate; no cache dir",
            kind="suite",
            argv=("hyperbolic", "--R", "2,4,6", "--h", "0.2,0.1"),
            expect=_SUITE_EXPECT + (
                "hyperbolic.mesh.build", "hyperbolic.assembly.laplacian", "hyperbolic.assembly.edge_structure",
                "hyperbolic.eigensolve.solve", "hyperbolic.eigensolve.lu", "hyperbolic.forms.bounded_primitive",
                "hyperbolic.forms.crossterm", "hyperbolic.forms.annulus_decay", "hyperbolic.gap.sweep",
                "hyperbolic.gap.derivation",
            ),
            checks={"report": check_hyperbolic},
        ),
        Workload(
            name="decompose",
            why="closed loop, one client: same algebra/lefschetz code as identities but a fresh triple per call",
            kind="decompose",
            calls=240,
            expect=(
                "cli.decompose", "algebra", "lefschetz", "algebra.pq_decompose", "algebra.metric_gram",
                "lefschetz.primitive_decompose", "lefschetz.power_matrix",
            ),
            checks={"call": check_decompose},
        ),
    )
}
