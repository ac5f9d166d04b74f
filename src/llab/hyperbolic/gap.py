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
(operator identities on Fourier-mode arenas, factorial singular values
against dense SVDs, the wedge bound by sampling) before assembling the
constant.  No step is cited; every step is executed.

At n = 1, k = 0 the constant is exactly 1/4 -- the bottom of the spectrum
of the hyperbolic plane, so the bound is sharp there.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from llab.algebra import KForm, build_standard_triple, norm, wedge
from llab.hyperbolic.eigensolve import SpectralResult, smallest_eigenpairs
from llab.hyperbolic import mesh as mesh_mod
from llab.hyperbolic.mesh import DiscMesh
from llab.hyperbolic.oracle import SHOOTING_LAMBDA1
from llab.lefschetz import lefschetz_power_matrix

_IDENTITY_TOL = 1e-10
_SIGMA_TOL = 1e-10
_WEDGE_TOL = 1e-10


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


def _relative_frobenius(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.linalg.norm(A - B) / (1.0 + np.linalg.norm(A) + np.linalg.norm(B)))


def _operator_identity_residuals(n_arena: int, m: int, seed: int = 20260303) -> dict:
    """Re-verify the three operator identities on Fourier-mode arenas.

    Full-algebra matrices over a handful of nonzero integer frequency
    vectors; the identities are frequency-independent, so a few modes in
    general position witness them.
    """
    from llab.torus import build_fourier_complex

    fc = build_fourier_complex(n_arena, 0, build_standard_triple(n_arena))
    mach = fc.triple.ops
    rng = np.random.default_rng(seed)
    modes = [tuple(v) for v in rng.integers(-3, 4, size=(4, 2 * n_arena)) if np.any(v)]
    modes.insert(0, (1,) + (0,) * (2 * n_arena - 1))

    # full-algebra Weil operator and inverse
    size = mach.G.shape[0]
    W = np.zeros((size, size), dtype=complex)
    Winv = np.zeros_like(W)
    for (p, q), proj in mach.pq_proj.items():
        W += (1j) ** ((p - q) % 4) * proj
        Winv += (1j) ** ((q - p) % 4) * proj

    Lm = np.linalg.matrix_power(mach.L, m)
    Lm1 = np.linalg.matrix_power(mach.L, m - 1) if m >= 1 else np.eye(size)

    res_comm, res_weil, res_lap = 0.0, 0.0, 0.0
    for xi in modes:
        ops = fc.mode_ops(xi)
        lhs = ops.d_star @ Lm
        rhs = Lm @ ops.d_star - m * (Lm1 @ ops.d_lambda_star)
        res_comm = max(res_comm, _relative_frobenius(lhs, rhs))

        dc = Winv @ ops.d @ W
        res_weil = max(res_weil, _relative_frobenius(ops.d_lambda_star, dc))

        dc_star = mach.adjoint(dc)
        lap_dc = dc @ dc_star + dc_star @ dc
        lap_d = ops.d @ ops.d_star + ops.d_star @ ops.d
        res_lap = max(res_lap, _relative_frobenius(lap_dc, lap_d))

    return {
        "arena_n": n_arena,
        "n_modes": len(modes),
        "commutation_d_star_Lm": res_comm,
        "d_lambda_star_is_conjugated_d": res_weil,
        "laplacian_dc_equals_laplacian_d": res_lap,
    }


def _wedge_bound_sample(n: int, degrees: tuple[int, ...], samples: int = 24, seed: int = 20260304) -> float:
    """Max of |theta ^ xi| / (|theta| |xi|) over random covector data."""
    t = build_standard_triple(n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in degrees:
        if k > 2 * n - 1:
            continue
        for _ in range(samples):
            th = KForm(n, 1, rng.standard_normal(2 * n))
            dim = math.comb(2 * n, k)
            xi = KForm(n, k, rng.standard_normal(dim))
            num = norm(wedge(th, xi), t)
            den = norm(th, t) * norm(xi, t)
            if den > 0:
                worst = max(worst, num / den)
    return worst


def gromov_bound(n: int, k: int, theta_sup: float = 1.0) -> float:
    """Lower bound c_{n,k} / theta_sup^2 for the degree-k spectral gap.

    Raises ValueError at the middle degree k = n, where no gap is claimed
    (on the hyperbolic plane the function/2-form gap 1/4 is real, but the
    1-form spectrum reaches 0).
    """
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

    sigma_min, _ = _sigma_extremes(n, m, kk)
    _, B = _sigma_extremes(n, m, kk)
    F1a = _sigma_extremes(n, m, kk - 1)[1] if kk >= 1 else 0.0
    F2 = _sigma_extremes(n, m - 1, kk + 1)[1]
    F_eta = _sigma_extremes(n, m - 1, kk)[1]

    denom = (F1a + m * F2) * F_eta + B * F2
    c = (sigma_min**2 / denom) ** 2
    return c / theta_sup**2


def gromov_bound_report(n: int, k: int, theta_sup: float = 1.0) -> dict:
    """The bound plus a re-execution of every step of its derivation.

    checks_pass is True only if the factorial singular values agree with
    dense SVDs, the operator identities hold on fresh arenas, and the
    pointwise wedge bound holds on random samples -- all at tight
    tolerances.  The report is the certificate; nothing is quoted.
    """
    value = gromov_bound(n, k, theta_sup)  # validates inputs
    kk = min(k, 2 * n - k)
    m = n - kk

    sigma_min, B = _sigma_extremes(n, m, kk)
    F1a = _sigma_extremes(n, m, kk - 1)[1] if kk >= 1 else 0.0
    F2 = _sigma_extremes(n, m - 1, kk + 1)[1]
    F_eta = _sigma_extremes(n, m - 1, kk)[1]
    denom = (F1a + m * F2) * F_eta + B * F2

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

    # step 2: operator identities on a mode arena (dimension grows as 4^n,
    # so verify at min(n, 3); the identities carry no n-dependence beyond
    # what the arena exercises)
    arena_n = min(n, 3)
    arena_m = min(m, arena_n)  # need L^m meaningful on the arena
    idents = _operator_identity_residuals(arena_n, max(arena_m, 1))
    idents_ok = (
        idents["commutation_d_star_Lm"] < _IDENTITY_TOL
        and idents["d_lambda_star_is_conjugated_d"] < _IDENTITY_TOL
        and idents["laplacian_dc_equals_laplacian_d"] < _IDENTITY_TOL
    )

    # step 3: pointwise wedge bound on the degrees the chain wedges theta
    # against: L^{m-1} alpha and L^{m-1} d alpha
    arena_wedge_n = min(n, 4)
    degrees = tuple(
        d
        for d in {kk + 2 * (m - 1), kk + 1 + 2 * (m - 1), 1}
        if 0 <= d <= 2 * arena_wedge_n - 1
    )
    wedge_max = _wedge_bound_sample(arena_wedge_n, degrees)
    wedge_ok = wedge_max <= 1.0 + _WEDGE_TOL

    return {
        "n": n,
        "k": k,
        "k_effective": kk,
        "duality_applied": k != kk,
        "m": m,
        "theta_sup": theta_sup,
        "factors": {
            "sigma_min": sigma_min,
            "sigma_min_closed_form": float(math.factorial(m)),
            "B": B,
            "F1a": F1a,
            "F2": F2,
            "F_eta": F_eta,
            "denominator": denom,
        },
        "constant": (sigma_min**2 / denom) ** 2,
        "bound": value,
        "checks": {
            "sigma_svd_max_rel_dev": svd_checks,
            "operator_identities": idents,
            "wedge_bound_max_ratio": wedge_max,
        },
        "checks_pass": bool(sigma_ok and idents_ok and wedge_ok),
    }


def dirichlet_lambda1(
    mesh: DiscMesh,
    k: int,
    nev: int = 1,
    rel_tol: float = 1e-8,
    shift: float = 0.0,
) -> SpectralResult:
    """Certified smallest Dirichlet eigenvalue(s) of the degree-k Laplacian.

    derived_bound carries gromov_bound(1, k) for k != 1 (the surface is
    n = 1; theta has measured sup norm 1) and None at the middle degree.
    """
    from llab.hyperbolic.assembly import assemble_hodge_laplacian

    A, M = assemble_hodge_laplacian(mesh, k)
    # the Dirichlet ground state of the scalar Laplacian is positive, so the
    # constant vector leans on it far more than a random one does
    v0 = np.ones(A.dimension) if k == 0 else None
    # A is exactly symmetric, so the transpose view of its CSR arrays is A
    # in CSC, the layout the solver factors, with no copy
    lams, X, iters = smallest_eigenpairs(
        A.as_scipy().T, M.as_scipy(), nev=nev, shift=shift, rel_tol=rel_tol, v0=v0
    )
    # recompute certificates for the report (cheap, independent of solver)
    from llab.hyperbolic.eigensolve import _pencil_residuals

    res = _pencil_residuals(A.as_scipy(), M.as_scipy(), lams, X)
    bound = None
    if mesh.metric == "hyperbolic" and k != 1:
        bound = gromov_bound(1, k, 1.0)
    return SpectralResult(
        k=k,
        eigenvalues=[float(x) for x in lams],
        residuals=[float(r) for r in res],
        iterations=iters,
        n_dofs=A.dimension,
        mesh_R=mesh.R,
        mesh_h=mesh.h,
        shift=shift,
        rel_tol=rel_tol,
        derived_bound=bound,
        vectors=X,
    )


def gap_sweep(
    R_values,
    h_values,
    k: int = 0,
    rel_tol: float = 1e-8,
) -> dict:
    """lambda_1 over an (R, h) grid with Richardson extrapolation per R.

    Rows carry the certified eigenvalue, the shooting oracle when R is in
    the frozen table, and the derived bound.  With >= 2 mesh sizes per R
    the h -> 0 limit is extrapolated (measured order when >= 3 sizes are
    log-uniform, otherwise the P1 rate 2).

    "finest_mesh" holds the (max R, min h) mesh, with what its solve
    derived from it, for callers that measure more on it; it is not JSON
    and is not part of a report.
    """
    rows = []
    per_R: dict[float, list[tuple[float, float]]] = {}
    R_star, h_star = max(R_values), min(h_values)
    finest_mesh = None
    for R in R_values:
        for h in h_values:
            # looked up on its module, so a wrapped build_disc_mesh is the one called
            mesh = mesh_mod.build_disc_mesh(R, h)
            if R == R_star and h == h_star:
                finest_mesh = mesh
            result = dirichlet_lambda1(mesh, k, rel_tol=rel_tol)
            lam = result.eigenvalues[0]
            oracle = SHOOTING_LAMBDA1.get(float(R)) if k == 0 else None
            rows.append(
                {
                    "R": float(R),
                    "h": float(h),
                    "k": k,
                    "n_dofs": result.n_dofs,
                    "lambda1": lam,
                    "residual": result.residuals[0],
                    "iterations": result.iterations,
                    "oracle": oracle,
                    "rel_err_vs_oracle": (abs(lam - oracle) / oracle) if oracle else None,
                    "derived_bound": result.derived_bound,
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
    return {"rows": rows, "extrapolation": extrapolation, "k": k, "finest_mesh": finest_mesh}
