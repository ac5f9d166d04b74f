"""The spectral-gap bound and its machine-checkable derivation.

The estimate: on a 2n-manifold with d(bounded) symplectic form
(omega = d theta, |theta|_inf = s) and parallel compatible structure, every
degree k != n has

    lambda_1(Delta_d on k-forms)  >=  c_{n,k} / s^2,

via the chain   L^m alpha = d(theta ^ L^{m-1} alpha) + theta ^ L^{m-1} d alpha
(m = n - min(k, 2n-k)), integration by parts, the commutation
    d* L^m = L^m d* - m L^{m-1} d^{Lambda*},
the identification d^{Lambda*} = J^{-1} d J (so ||d^{Lambda*} a|| <=
sqrt(||d a||^2 + ||d* a||^2)), the pointwise bound |theta ^ xi| <= s |xi|,
and the exact singular-value ladder of Lefschetz powers.  Each link is
numerically recheckable, and gromov_bound_report re-verifies all of them
before assembling the constant: the operator identities on the
xi-coefficients of a torus complex, so at every frequency; the wedge bound
through the anticommutation relation e_theta e_theta^* + e_theta^* e_theta
= |theta|^2, the Weitzenbock identity of that complex; and the factorial
singular values against dense SVDs.  No step is cited; every step is
executed.

At n = 1, k = 0 the constant is exactly 1/4 -- the bottom of the spectrum
of the hyperbolic plane, so the bound is sharp there.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial

import numpy as np

from llab.algebra import build_standard_triple, random_compatible_triple
from llab.hyperbolic.eigensolve import (
    DEFAULT_REL_TOL,
    EigenNonConvergence,
    SpectralResult,
    grid_level,
    multigrid_preconditioner,
    smallest_eigenpairs,
    stiffness_lu,
)
from llab.hyperbolic import mesh as mesh_mod
from llab.hyperbolic.bounds import lower_bound_gate
from llab.hyperbolic.assembly import assemble_hodge_laplacian, stiffness_p1
from llab.hyperbolic.mesh import DiscMesh
from llab.hyperbolic.oracle import SHOOTING_LAMBDA1
from llab.lefschetz import lefschetz_power_matrix

_IDENTITY_TOL = 1e-10
_SIGMA_TOL = 1e-10
# the fixed seed of the random compatible triple the operator identities
# are proven on
_ARENA_SEED = 20260303
# a ring mesh of at most this many vertices is small enough to factor: the
# coarsest of its R's multigrid hierarchy
_BOTTOM_VERTICES = 3000


def _sigma_ladder_sq(n: int, j: int, i: int) -> list[Fraction]:
    """Exact squared singular values of L^j restricted to degree i <= n.

    One value per primitive level r (component L^r of a primitive
    (i-2r)-form):  sigma_r^2 = (j+r)!/r! * (n-i+r)!/(n-i+r-j)!.
    Exact integer arithmetic; increasing in r.
    """
    if i > n:
        raise ValueError("ladder is stated for i <= n; use duality first")
    out = []
    for r in range(i // 2 + 1):
        num = Fraction(math.factorial(j + r), math.factorial(r))
        tail = n - i + r - j
        if tail < 0:
            out.append(Fraction(0))
            continue
        num *= Fraction(math.factorial(n - i + r), math.factorial(tail))
        out.append(num)
    return out


def _sigma_extremes(n: int, j: int, i: int) -> tuple[float, float]:
    lad = _sigma_ladder_sq(n, j, i)
    vals = [math.sqrt(float(x)) for x in lad]
    return min(vals), max(vals)


def _primitive_dim(n: int, kappa: int) -> int:
    if kappa < 0:
        return 0
    d = math.comb(2 * n, kappa)
    if kappa >= 2:
        d -= math.comb(2 * n, kappa - 2)
    return d


def _sigma_svd_check(n: int, j: int, i: int) -> float:
    """Max relative deviation of the factorial ladder vs a dense SVD."""
    t = build_standard_triple(n)
    if j == 0:
        mat = np.eye(math.comb(2 * n, i))
    else:
        mat = lefschetz_power_matrix(t, i, j)
    sv = np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)
    expected = []
    for r, s2 in enumerate(_sigma_ladder_sq(n, j, i)):
        expected.extend([math.sqrt(float(s2))] * _primitive_dim(n, i - 2 * r))
    expected = np.sort(np.array(expected))[::-1]
    sv = np.sort(sv)[::-1][: len(expected)]
    denom = np.maximum(expected, 1e-300)
    return float(np.max(np.abs(sv - expected) / denom))


def _relative_frobenius(pairs) -> float:
    """The worst coefficient's ||A - B|| / (1 + ||A|| + ||B||) over pairs of
    coefficient stacks (..., rows, cols), one pair per degree: a
    coefficient's Frobenius norms add up over its degree blocks."""
    sq = 0.0  # per coefficient: |A - B|^2, |A|^2, |B|^2
    for A, B in pairs:
        sq = sq + np.stack([np.sum(np.abs(X) ** 2, axis=(-2, -1)) for X in (A - B, A, B)])
    diff, a, b = np.sqrt(sq)
    return float(np.max(diff / (1.0 + a + b)))


def _operator_identity_residuals(n_arena: int, m: int) -> dict:
    """Prove the three operator identities, and the wedge bound, on the
    xi-coefficients of the Fourier complex of a random compatible triple,
    whose metric is not the identity, so that an adjoint blind to it shows.

    d*, d^{Lambda*} and d^c = W^{-1} d W are linear in xi, Delta_d and
    Delta_{d^c} quadratic, so each identity holds at every xi exactly when
    it holds for every coefficient j, or every symmetric pair (j, l), degree
    by degree.  Every operator, adjoint and Laplacian is read off the
    complex (`FourierComplex.block`, `FourierComplex.quadratic`), which
    builds d^c with W the J-pullback.  The wedge bound is read off the
    Weitzenbock identity Delta_d(xi) = 4 pi^2 |xi|^2_g I: as d(xi) =
    2 pi i e_xi, it says e_xi e_xi^* + e_xi^* e_xi = |xi|^2_g I for every
    covector xi, so at xi = theta,
    |theta ^ a|^2 = <e_theta^* e_theta a, a> <= |theta|^2_g |a|^2.
    """
    from llab.torus import _weitzenbock, build_fourier_complex

    fc = build_fourier_complex(n_arena, 0, random_compatible_triple(n_arena, np.random.default_rng(_ARENA_SEED)))
    ops, top = fc.triple.ops, 2 * n_arena

    def lpow(k, r):  # L^r on Lambda^k, nothing outside 0..2n
        return ops.lpow(k, r) if 0 <= k <= top else np.zeros((fc.dim(k + 2 * r), 0))

    # d* L^m = L^m d* - m L^{m-1} d^{Lambda*}, on each Lambda^k
    comm = [
        (fc.block("d_star", k + 2 * m) @ lpow(k, m),
         lpow(k - 1, m) @ fc.block("d_star", k) - m * (lpow(k + 1, m - 1) @ fc.block("d_lambda_star", k)))
        for k in range(top + 1)
    ]
    # d^{Lambda*} = W^{-1} d W = d^c, and Delta_{d^c} = Delta_d
    return {
        "arena_n": n_arena,
        "commutation_d_star_Lm": _relative_frobenius(comm),
        "d_lambda_star_is_conjugated_d": _relative_frobenius(
            (fc.block("d_lambda_star", k), fc.block("dc", k)) for k in range(top)),
        "laplacian_dc_equals_laplacian_d": _relative_frobenius(
            (fc.quadratic("laplacian_dc", k), fc.quadratic("laplacian", k)) for k in range(top + 1)),
        "wedge_anticommutator_is_norm_sq": max(_weitzenbock(fc, k)[0] for k in range(top + 1)),
    }


def _bound_factors(n: int, k: int, theta_sup: float) -> tuple[int, int, dict, float]:
    """(k_effective, m, factors, c_{n,k}) of the degree-k bound, after
    validating the inputs as `gromov_bound` documents."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if not (0 <= k <= 2 * n):
        raise ValueError(f"degree k={k} out of range [0, {2 * n}]")
    if k == n:
        raise ValueError("no gap claimed at middle degree")
    if theta_sup <= 0:
        raise ValueError("theta_sup must be positive")
    kk = min(k, 2 * n - k)
    m = n - kk

    sigma_min, B = _sigma_extremes(n, m, kk)
    F1a = _sigma_extremes(n, m, kk - 1)[1] if kk >= 1 else 0.0
    F2 = _sigma_extremes(n, m - 1, kk + 1)[1]
    F_eta = _sigma_extremes(n, m - 1, kk)[1]
    denom = (F1a + m * F2) * F_eta + B * F2
    factors = {"sigma_min": sigma_min, "B": B, "F1a": F1a, "F2": F2, "F_eta": F_eta, "denominator": denom}
    return kk, m, factors, (sigma_min**2 / denom) ** 2


def gromov_bound(n: int, k: int, theta_sup: float = 1.0) -> float:
    """Lower bound c_{n,k} / theta_sup^2 for the degree-k spectral gap.

    Raises ValueError at the middle degree k = n, where no gap is claimed
    (on the hyperbolic plane the function/2-form gap 1/4 is real, but the
    1-form spectrum reaches 0).
    """
    return _bound_factors(n, k, theta_sup)[3] / theta_sup**2


def gromov_bound_report(n: int, k: int, theta_sup: float = 1.0) -> dict:
    """The bound plus a re-execution of every step of its derivation.

    checks_pass is True only if the factorial singular values agree with
    dense SVDs and the operator identities, the wedge bound's Weitzenbock
    identity among them, hold on every xi-coefficient -- all at tight
    tolerances.  The report is the certificate; nothing is quoted.
    """
    kk, m, factors, constant = _bound_factors(n, k, theta_sup)

    # step 1: factorial ladder vs dense SVD (skip SVD above n=5: cost)
    svd_checks = {}
    if n <= 5:
        svd_checks = {
            f"L^{m} on degree {kk}": _sigma_svd_check(n, m, kk),
            f"L^{m - 1} on degree {kk}": _sigma_svd_check(n, m - 1, kk),
            f"L^{m - 1} on degree {kk + 1}": _sigma_svd_check(n, m - 1, kk + 1),
        }
        if kk >= 1:
            svd_checks[f"L^{m} on degree {kk - 1}"] = _sigma_svd_check(n, m, kk - 1)
    sigma_ok = all(v < _SIGMA_TOL for v in svd_checks.values()) if svd_checks else True

    # step 2: operator identities and the wedge bound on the coefficients
    # of a torus complex (its blocks grow like C(2n, n)^2, so verify at
    # min(n, 3); the identities carry no n-dependence beyond what the arena
    # exercises)
    arena_n = min(n, 3)
    arena_m = min(m, arena_n)  # need L^m meaningful on the arena
    idents = _operator_identity_residuals(arena_n, max(arena_m, 1))
    idents_ok = all(r < _IDENTITY_TOL for name, r in idents.items() if name != "arena_n")

    return {
        "n": n,
        "k": k,
        "k_effective": kk,
        "duality_applied": k != kk,
        "m": m,
        "theta_sup": theta_sup,
        "factors": {**factors, "sigma_min_closed_form": float(math.factorial(m))},
        "constant": constant,
        "bound": constant / theta_sup**2,
        "checks": {
            "sigma_svd_max_rel_dev": svd_checks,
            "operator_identities": idents,
        },
        "checks_pass": bool(sigma_ok and idents_ok),
    }


def dirichlet_lambda1(mesh: DiscMesh, k: int, rel_tol: float = DEFAULT_REL_TOL) -> SpectralResult:
    """Smallest Dirichlet eigenvalue of the degree-k Laplacian's pencil,
    with its residual certificate.

    The solve is LOBPCG (`eigensolve.smallest_eigenpairs`) preconditioned
    with the LU of the mesh's own stiffness matrix, and `iterations` counts
    its steps; a singular stiffness matrix raises EigenNonConvergence at its
    factorization.  Either degree stops on its residual alone.  k = 0
    starts from the constant vector; k = 1 from the edge integrals of
    (1 + x) dy on the kept edges, (y_b - y_a)(1 + (x_a + x_b) / 2) on
    the edge from a to b, exactly, as x is linear along the edge.  Nothing
    is drawn.
    """
    A, M = assemble_hodge_laplacian(mesh, k)
    if k == 0:
        # the Dirichlet ground state of the scalar Laplacian is positive, so
        # the constant vector leans on it far more than a random one does
        x0 = np.ones(A.shape[0])
    else:
        # (1 + x) dy is not closed: it has an m = 1 coexact part.  On the
        # sweep R = 2, 4, 6 x h = 0.4, 0.2, 0.1 it meets the residual in 13
        # to 20 steps, where a seeded standard normal start takes 15 to 29
        es = mesh.edge_structure
        (xa, ya), (xb, yb) = (mesh.vertices[es.edges[es.kept, end]].T for end in (0, 1))
        x0 = (yb - ya) * (1 + (xa + xb) / 2)
    return _solved(k, A, M, stiffness_lu(A).solve, x0, rel_tol, "lu")[0]


def _coarser_meshes(R: float, h: float) -> list[DiscMesh]:
    """The ring meshes of R below h, coarse to fine: h is doubled until a
    mesh has at most `_BOTTOM_VERTICES` predicted vertices, until 2h >= R,
    or until the doubled mesh fails its quality check."""
    meshes = []  # fine to coarse
    while _BOTTOM_VERTICES < mesh_mod.predicted_vertex_count(R, h) and 2 * h < R:
        try:
            meshes.append(mesh_mod.build_disc_mesh(R, 2 * h))
        except ArithmeticError:  # the doubled mesh fails its quality check
            break
        h *= 2
    return meshes[::-1]


def _ring_ground_states(R: float, h_values, rel_tol: float):
    """Yield (mesh, result, gate) for each k = 0 row of R, from the coarsest
    h to the finest.

    The ring meshes of R are walked coarse to fine: first
    `_coarser_meshes` below the sweep, which only precondition and get
    their stiffness matrix alone, then the row meshes.  The coarsest is
    factored; each finer one becomes a `GridLevel` prolonged from the mesh
    before it.  A row is solved with the V-cycle through the levels so far
    down to that LU, which on the coarsest mesh is the LU solve itself
    (solver "lu", else "multigrid"), started from the previous row's ground
    state, prolonged, or from the constant vector.  A row whose V-cycle
    solve fails is solved again, from the same start, on its own LU.

    gate is R's record of `bounds.lower_bound_gate`, which tries each mesh
    of the walk, from the coarsest, until one proves lambda_1(B_R) >= b,
    b = gromov_bound(1, 0): {bound: b, certified, meshes: the record of
    each mesh tried}.  It is one dict, complete once the walk ends.
    """
    bound = gromov_bound(1, 0, 1.0)
    gate = {"bound": bound, "certified": False, "meshes": []}
    levels, lu, below, x = [], None, None, None  # levels finest first
    rows = (mesh_mod.build_disc_mesh(R, h) for h in sorted(h_values, reverse=True))
    for mesh in itertools.chain(_coarser_meshes(R, max(h_values)), rows):
        if not gate["certified"]:
            gate["meshes"].append(lower_bound_gate(mesh, bound))
            gate["certified"] = gate["meshes"][-1]["status"] == "certified"
        row = mesh.h in h_values
        A, M = assemble_hodge_laplacian(mesh, 0) if row else (stiffness_p1(mesh, mesh.interior), None)
        if below is None:
            lu = stiffness_lu(A)
        else:
            levels.insert(0, grid_level(A, mesh_mod.ring_prolongation(below, mesh)))
        below = mesh
        if not row:
            continue
        x0 = np.ones(A.shape[0]) if x is None else levels[0].P @ x
        try:
            result, x = _solved(0, A, M, multigrid_preconditioner(levels, lu), x0, rel_tol,
                                "multigrid" if levels else "lu")
        except EigenNonConvergence:
            if not levels:  # that was this mesh's own LU
                raise
            result, x = _solved(0, A, M, stiffness_lu(A).solve, x0, rel_tol, "lu")
        yield mesh, result, gate


def _solved(k, A, M, precondition, x0, rel_tol, solver) -> tuple[SpectralResult, np.ndarray]:
    """(result, eigenvector) of `smallest_eigenpairs` on the degree-k pencil
    (A, M).  The residual is not the solver's own: ||A x - lambda M x|| /
    ||x|| is recomputed from the pencil, lambda and x, by the formula the
    solver stops on, so a solver that understates it fails the verdict's
    residual gate."""
    lam, x, steps, _ = smallest_eigenpairs(A, M, precondition, x0, rel_tol)
    res = float(np.linalg.norm(A @ x - lam * (M @ x)) / np.linalg.norm(x))
    result = SpectralResult(
        k=k,
        eigenvalue=lam,
        residual=res,
        iterations=steps,
        n_dofs=A.shape[0],
        rel_tol=rel_tol,
        solver=solver,
    )
    return result, x


def gap_sweep(
    R_values,
    h_values,
    k: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
) -> dict:
    """lambda_1 over an (R, h) grid: P1 estimates with Richardson
    extrapolation per R and, at k = 0, a proven lower bound per R.

    Rows carry the P1 eigenvalue and the shooting oracle when R is in the
    frozen table.  A P1 eigenvalue lies above the continuum lambda_1, so it
    and its extrapolation are estimates.  With >= 2 mesh sizes per R the
    h -> 0 limit is extrapolated (measured order when >= 3 sizes are
    log-uniform, otherwise the P1 rate 2).  At k = 0,
    "lower_bound" holds for each R the record of the gate that proves
    lambda_1(B_R) >= gromov_bound(1, 0) on a polygon enclosing B_R
    (`bounds.lower_bound_gate`, run by `_ring_ground_states` on R's meshes
    from the coarsest until one certifies); it is empty at k = 1.

    Every row is one LOBPCG solve (`smallest_eigenpairs`).  At k = 0 the
    rows of each R are solved from the coarsest h to the finest by
    `_ring_ground_states`: below the sweep's coarsest h, h is doubled until
    a mesh has at most `_BOTTOM_VERTICES` predicted vertices, until 2h >= R,
    or until the next mesh fails its quality check; those meshes only
    precondition and are neither solved nor reported.  The coarsest mesh of
    R is the only one whose stiffness matrix is factored, and every row takes the multigrid V-cycle
    through the meshes coarser than it down to that LU: on the coarsest
    mesh, the LU solve itself (solver "lu"), elsewhere "multigrid".  A
    row starts from the previous row's ground state, prolonged, or from the
    constant vector, and a row whose V-cycle solve fails is solved again on
    its own LU.  So a row's numbers do not depend on the order of h_values,
    and rows are reported in that order.  Every k = 1 row is solved on its
    own LU (`dirichlet_lambda1`).  Every solve stops on a residual below
    rel_tol * lambda.  "iterations" counts the row's one solve's steps.  A
    singular stiffness matrix raises EigenNonConvergence where it is
    factored.  Raises ValueError, before any mesh is built, on an empty
    list of R or of h, an R or h that is not finite and positive, a
    repeated R or h, a rel_tol outside (0, 1), or an (R, h) pair that
    `mesh.check_disc_request` refuses: out of range or over the vertex
    budget, whatever the order of h_values.

    "finest_mesh" holds the (max R, min h) mesh, with what its solve
    derived from it, for callers that measure more on it; it is not JSON
    and is not part of a report.
    """
    for name, values in (("R", R_values), ("h", h_values)):
        if len(values) == 0:
            raise ValueError(f"no {name} value given: need at least one")
        seen = set()
        for v in map(float, values):
            if not 0 < v < math.inf:  # nan too
                raise ValueError(f"{name} value {v!r} must be finite and positive")
            if v in seen:
                raise ValueError(f"repeated {name} value {v!r}: each {name} may appear once")
            seen.add(v)
    if not 0 < rel_tol < 1:  # nan too
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    for R in R_values:
        for h in h_values:
            mesh_mod.check_disc_request(R, h)
    rows = []
    gates = {}
    per_R: dict[float, list[tuple[float, float]]] = {}
    R_star, h_star = max(R_values), min(h_values)
    finest_mesh = None
    for R in R_values:
        if k == 0:
            solves = _ring_ground_states(R, h_values, rel_tol)
        else:  # built through its module, so a wrapped build_disc_mesh is the one called
            meshes = map(partial(mesh_mod.build_disc_mesh, R), h_values)
            solves = ((mesh, dirichlet_lambda1(mesh, k, rel_tol), None) for mesh in meshes)
        results = {}
        for mesh, result, gate in solves:
            results[mesh.h] = result
            if gate is not None:
                gates[float(R)] = gate
            if R == R_star and mesh.h == h_star:
                finest_mesh = mesh
        for h in h_values:
            result = results[float(h)]
            lam = result.eigenvalue
            oracle = SHOOTING_LAMBDA1.get(float(R)) if k == 0 else None
            rows.append(
                {
                    "R": float(R),
                    "h": float(h),
                    "k": k,
                    "n_dofs": result.n_dofs,
                    "lambda1": lam,
                    "residual": result.residual,
                    "solver": result.solver,
                    "iterations": result.iterations,
                    "oracle": oracle,
                    "rel_err_vs_oracle": (abs(lam - oracle) / oracle) if oracle else None,
                }
            )
            per_R.setdefault(float(R), []).append((float(h), lam))

    extrapolation = {}
    for R, pairs in per_R.items():
        pairs = sorted(pairs, reverse=True)  # coarse -> fine
        if len(pairs) < 2:
            continue
        hs = [p[0] for p in pairs]
        ls = [p[1] for p in pairs]
        order = 2.0
        order_measured = False
        if len(pairs) >= 3:
            r1, r2 = hs[-3] / hs[-2], hs[-2] / hs[-1]
            d1, d2 = ls[-3] - ls[-2], ls[-2] - ls[-1]
            if abs(np.log(r1 / r2)) < 1e-9 and d1 * d2 > 0:
                order = float(np.log(abs(d1 / d2)) / np.log(r1))
                order_measured = True
        ratio = hs[-2] / hs[-1]
        lam_ext = ls[-1] + (ls[-1] - ls[-2]) / (ratio**order - 1.0)
        oracle = SHOOTING_LAMBDA1.get(R) if k == 0 else None
        extrapolation[R] = {
            "lambda_extrapolated": float(lam_ext),
            "order": order,
            "order_measured": order_measured,
            "oracle": oracle,
            "rel_err_vs_oracle": (abs(lam_ext - oracle) / oracle) if oracle else None,
        }
    return {
        "rows": rows, "extrapolation": extrapolation, "lower_bound": gates, "k": k, "finest_mesh": finest_mesh,
    }
