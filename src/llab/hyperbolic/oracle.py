"""Independent reference values for the FEM pipeline.

The radial Dirichlet ground state of the geodesic ball solves

    u'' + coth(rho) u' + lambda u = 0,  u'(0) = 0,  u(R) = 0,

and Sturm theory makes lambda_1 bisectable: the zero count of u on (0, R]
is nondecreasing in lambda, and lambda_1 is the threshold where the first
zero crosses R.  This shares no code with the assembly path (different
discretization, different unknowns), which is what makes it an oracle.

SHOOTING_LAMBDA1 freezes converged values so tests don't pay for the ODE
solve; lambda1_ball_shooting recomputes any of them on demand.  The values
decrease toward 1/4, the bottom of the spectrum of the full plane.
"""

from __future__ import annotations

import numpy as np

# frozen shooting results (60 bisections, rtol 1e-10); see tests for the
# consistency check that recomputes R=2 from scratch
SHOOTING_LAMBDA1: dict[float, float] = {
    1.0: 6.11308182,
    2.0: 1.76725309,
    4.0: 0.663319627,
    6.0: 0.447622822,
    8.0: 0.367416674,
    12.0: 0.30606169,
}


def _zero_count(lam: float, R: float, rtol: float = 1e-10) -> int:
    """Number of zeros of the radial solution on (0, R]."""
    # imported here: scipy.integrate pulls in scipy.optimize and
    # scipy.spatial, which nothing else in the package needs
    from scipy.integrate import solve_ivp

    rho0 = 1e-6
    # series near 0: u = 1 - lam rho^2/4 + O(rho^4) (2D radial Laplacian)
    y0 = [1.0 - lam * rho0**2 / 4.0, -lam * rho0 / 2.0]

    def rhs(rho, y):
        u, up = y
        return [up, -np.cosh(rho) / np.sinh(rho) * up - lam * u]

    sol = solve_ivp(
        rhs, (rho0, R), y0, method="RK45", rtol=rtol, atol=1e-13, dense_output=True
    )
    if not sol.success:
        raise ArithmeticError(f"shooting integration failed at lambda={lam}: {sol.message}")
    rhos = np.linspace(rho0, R, 4000)
    u = sol.sol(rhos)[0]
    signs = np.sign(u)
    signs[signs == 0] = 1
    return int(np.count_nonzero(np.diff(signs)))


def lambda1_ball_shooting(R: float, iters: int = 60, rtol: float = 1e-10) -> float:
    """Smallest Dirichlet eigenvalue of the geodesic R-ball by bisection."""
    if R <= 0:
        raise ValueError("R > 0 required")
    lo, hi = 1e-9, 1.0 + 40.0 / R**2
    while _zero_count(hi, R, rtol) < 1:
        hi *= 2.0
        if hi > 1e8:
            raise ArithmeticError("bracketing failed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _zero_count(mid, R, rtol) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lambda1_euclidean_disc() -> float:
    """Dirichlet ground state of the Euclidean unit disc: j_{0,1}^2."""
    from scipy.special import jn_zeros

    return float(jn_zeros(0, 1)[0] ** 2)


def lambda1_euclidean_square() -> float:
    """Dirichlet ground state of the unit square: 2 pi^2."""
    return float(2.0 * np.pi**2)


def lambda1_square_k1() -> float:
    """Bottom of the relative 1-form Laplacian on the unit square.

    H^1_rel vanishes, so the spectrum is the union of the exact branch
    (Dirichlet 0-form eigenvalues, bottom 2 pi^2) and the coexact branch
    (nonzero Neumann-type 2-form eigenvalues, bottom pi^2).
    """
    return float(np.pi**2)
