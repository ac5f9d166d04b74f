"""The smallest eigenpair of the symmetric-definite pencil (A, M), certified.

One solver, single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001),
takes whatever preconditioner T ~ A^{-1} its caller passes: a multigrid
V-cycle (`multigrid_preconditioner`) through coarser meshes down to the
sparse LU (`stiffness_lu`) of the coarsest one, which with no level above
it is that LU's solve.  Every pencil, of any dimension, takes that one
route.  A singular stiffness matrix is refused
where it is factored: its smallest eigenvalue is 0, and no residual is
below rel_tol * 0.  The certificates are the point, not the step count:
the returned pair carries the directly recomputed residual
||A x - lambda M x|| / ||x||, and the solve refuses to return a pair whose
residual is not below rel_tol * lambda.  A residual shows that a Ritz pair
is accurate, not which eigenvalue it is; `ground_state_lower` proves, for a
positive approximate ground state, that nothing lies below it, and a
ground-state solve stops only once that proof holds within rel_tol too,
and returns the bound it proved.

scipy supplies the LU factorization and sparse matvecs; the LOBPCG step and
certification are explicit here so that nothing about convergence is taken
on faith from a black box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_REL_TOL = 1e-8
_SEED = 20260301  # the start draw of a solve given no start vector


@dataclass
class SpectralResult:
    """The certified smallest eigenpair of a generalized pencil."""

    k: int
    eigenvalue: float
    residual: float  # ||A x - lambda M x||_2 / ||x||_2, recomputed from x
    iterations: int
    n_dofs: int
    rel_tol: float
    derived_bound: float | None = None
    ground_state_lower: float | None = None  # `ground_state_lower` of the pair
    solver: str = "lu"  # the preconditioner: "lu" (the pencil's own LU) or "multigrid"


class EigenNonConvergence(ArithmeticError):
    """Raised when certificates cannot be met; carries the last estimate
    (eigenvalue and residual), or None for both when no step was made."""

    def __init__(self, message: str, eigenvalue: float | None = None, residual: float | None = None,
                 iterations: int = 0):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.residual = residual
        self.iterations = iterations


def smallest_eigenpairs(
    A,
    M,
    precondition,
    x0: np.ndarray | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    maxiter: int = 40,
    ground_state: bool = False,
) -> tuple[float, np.ndarray, int, float | None, float]:
    """The smallest eigenpair of A x = lambda M x, with its certificates, by
    single-vector LOBPCG preconditioned with precondition: r -> T r,
    T ~ A^{-1}.

    Returns (eigenvalue, eigenvector, steps, lower, residual): lambda, the
    1-D x, the LOBPCG steps taken, with ground_state the bound mu that
    `ground_state_lower` proved for the pair (None without), and the
    residual ||A x - lambda M x|| / ||x|| that the stop rule certified,
    computed from the returned x.  A pencil of any dimension, 1 included,
    takes this route; a start that already meets the stop rule returns
    after 0 steps.  The solve starts from x0, or from a standard normal
    draw with a fixed seed when x0 is None.

    Each step is a Rayleigh-Ritz on {x, w, p} in the M-inner product: the
    iterate x, the preconditioned residual w = precondition(A x - lambda M x)
    and the previous step's direction p.  The three are the rows of one
    (3, n) array S, and A S and M S are kept beside it: only A w and M w
    are multiplied out each step, A x, M x, A p and M p are carried along
    with the coefficients that update x and p, and both Gram matrices,
    S (A S)^T and S (M S)^T, come from one product.  Carried products
    drift from the true ones by rounding, so when they meet the stop rule,
    A x and M x are recomputed from x and the rule is checked again on
    them.  It stops only when the residual ||A x - lambda M x|| / ||x||,
    so recomputed, is below rel_tol * lambda and, with ground_state,
    `ground_state_lower` proves lambda - mu <= rel_tol * lambda.  A and M
    are symmetric, and with ground_state CSR or CSC on one pattern, as
    `ground_state_lower` takes them.  Raises EigenNonConvergence, carrying
    the last estimate, when maxiter steps end without that.
    """
    A = A if sp.issparse(A) and A.format in ("csr", "csc") else sp.csr_matrix(A)
    M = M if sp.issparse(M) and M.format in ("csr", "csc") else sp.csr_matrix(M)
    n = A.shape[0]
    if n != M.shape[0]:
        raise ValueError("pencil dimension mismatch")
    x = np.random.default_rng(_SEED).standard_normal(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"start vector has shape {x.shape}, need ({n},)")
    if not x @ (M @ x) > 0:
        raise ValueError("start vector has zero M-norm")
    if x.sum() < 0:
        x = -x
    # S, A S and M S, each with the rows x, w, p; p is zero until the first
    # step makes one, and a zero direction drops out of the Rayleigh-Ritz
    Y = np.zeros((3, 3, n))
    S, AS, MS = Y
    S[0], AS[0], MS[0] = x, A @ x, M @ x
    x = S[0]

    def rayleigh():
        """(lambda, r, residual, whether x meets the stop rule so far), from the kept A x and M x."""
        Ax, Mx = AS[0], MS[0]
        lam = float(x @ Ax) / float(x @ Mx)
        r = Ax - lam * Mx
        res = float(np.linalg.norm(r) / np.linalg.norm(x))
        ready = res < rel_tol * lam
        if ground_state:
            # the proof's slack is at least max(-r / M x), so a larger one
            # cannot meet the rule: only then does x earn the O(nnz) proof
            ready = ready and np.all(x > 0) and np.max(-r / Mx) <= rel_tol * lam
        return lam, r, res, ready

    lam, res = float("nan"), float("nan")
    for step in range(maxiter + 1):
        lam, r, res, ready = rayleigh()
        if ready:  # the carried products met the rule: check it on true ones
            AS[0], MS[0] = A @ x, M @ x
            lam, r, res, ready = rayleigh()
        if ready:
            lower = _proven_lower(A, M, lam, x, rel_tol) if ground_state else None
            if not ground_state or lower is not None:
                return lam, x.copy(), step, lower, res
        if step == maxiter:
            break
        S[1] = precondition(r)
        AS[1], MS[1] = A @ S[1], M @ S[1]
        # both Gram matrices, (A S) S^T and (M S) S^T, in one product
        G = Y[1:].reshape(6, -1) @ S.T
        keep = [0] + [i for i in (1, 2) if G[3 + i, i] > 0]  # a zero direction adds nothing
        GA, GM = G[:3][np.ix_(keep, keep)].T, G[3:][np.ix_(keep, keep)].T
        # unit diagonal, so that a direction that has shrunk with the
        # residual still carries weight
        d = 1.0 / np.sqrt(np.diag(GM))
        GA, GM = GA * np.outer(d, d), GM * np.outer(d, d)
        c = None
        for k in range(len(keep), 1, -1):  # on a dependent {x, w, p}, drop p
            try:
                c = sla.eigh(GA[:k, :k], GM[:k, :k], subset_by_index=[0, 0])[1][:, 0] * d[:k]
                break
            except (np.linalg.LinAlgError, ValueError):
                continue
        if c is None:
            break
        if c[0] < 0:  # keep x on the side of a positive ground state
            c = -c
        # p <- the new direction and x <- c_0 x + p, in S, A S and M S at
        # once; the directions c weighs (w, p or both) are consecutive rows
        Y[:, 2] = c[1:] @ Y[:, keep[1] : keep[len(c) - 1] + 1]
        Y[:, 0] *= c[0]
        Y[:, 0] += Y[:, 2]
    met = "no ground state proven within rel_tol" if res < rel_tol * lam else "residual certificates not met"
    raise _not_met(met, lam, res, step)


def _proven_lower(A, M, lam: float, x: np.ndarray, rel_tol: float) -> float | None:
    """`ground_state_lower`'s mu when it proves lam - mu <= rel_tol * lam, else None."""
    lower = ground_state_lower(A, M, lam, x)
    return lower if lower is not None and lam - lower <= rel_tol * lam else None


def _not_met(what: str, lam: float, res: float, steps: int) -> EigenNonConvergence:
    return EigenNonConvergence(f"{what} after {steps} steps: eigenvalue {lam}, residual {res}", lam, res, steps)


def stiffness_lu(A):
    """The sparse LU of the symmetric stiffness matrix A.  splu factors
    CSC, and the transpose view of a CSR A is A in CSC, so it is factored
    with no copy.  Raises EigenNonConvergence when splu fails, which it
    does when A is singular: the smallest eigenvalue is then 0, and no
    certificate residual < rel_tol * lambda can hold at 0."""
    try:
        return spla.splu(A.T.tocsc())
    except RuntimeError as e:  # "Factor is exactly singular", or SuperLU out of memory
        what = "is singular" if "singular" in str(e) else "could not be factored"
        raise EigenNonConvergence(f"the stiffness matrix {what} (splu: {e})") from e


class GridLevel(NamedTuple):
    """One level of a V-cycle above its bottom: the level's stiffness matrix
    A, its damped-Jacobi scaling dinv = (2/3) D^{-1}, D = diag A, and P and
    P^T in CSR, where P prolongs the next coarser level's values to this
    level's (`mesh.ring_prolongation`).  Built once by `grid_level`, a
    level serves every V-cycle that passes through it."""

    A: sp.csr_matrix
    dinv: np.ndarray
    P: sp.csr_matrix
    PT: sp.csr_matrix


def grid_level(A, P) -> GridLevel:
    """The `GridLevel` of stiffness matrix A, reached from below through P."""
    return GridLevel(A, (2.0 / 3.0) / A.diagonal(), P, P.T.tocsr())


def multigrid_preconditioner(levels, bottom_lu):
    """r -> T r, T ~ A^{-1}: a symmetric multigrid V-cycle for the stiffness
    matrix A of levels[0], or of the bottom when levels is empty.

    levels are `GridLevel`s, finest first, each prolonged from the next,
    and the last from the bottom, whose stiffness matrix `bottom_lu`
    solves.  On the way down, each level takes one damped-Jacobi step from
    zero on its residual and restricts what is left with P^T; the bottom
    solves exactly; on the way up, each level adds the prolonged correction
    and takes the same Jacobi step again.  With one level this is the
    two-grid cycle, and with none the bottom's solve alone.  The cycle is
    a loop down and a loop up, so the preconditioner holds its levels and
    nothing holds it.
    """
    levels = tuple(levels)

    def apply(r: np.ndarray) -> np.ndarray:
        down = []  # (level, its right-hand side, its pre-smoothed x)
        for level in levels:
            x = level.dinv * r
            down.append((level, r, x))
            r = level.PT @ (r - level.A @ x)
        e = bottom_lu.solve(r)
        for level, r, x in reversed(down):
            x += level.P @ e
            x += level.dinv * (r - level.A @ x)
            e = x
        return e

    return apply


def ground_state_lower(A, M, lam: float, x: np.ndarray) -> float | None:
    """A proven lower bound mu <= lambda_min(A, M) from an approximate
    ground state (lam, x), or None when the proof fails.

    With x's sign fixed by its sum and r = A x - lam M x, take
    mu = lam - max_i((-r_i + a_i) / (M x)_i)_+, less a few rounding units,
    where a_i bounds the rounding of the computed r_i: then (A - mu M) x
    >= 0.  If moreover x > 0 and every off-diagonal of A - mu M is <= 0,
    A - mu M is a symmetric Z-matrix mapping a positive vector to a
    nonnegative one, hence an M-matrix (Collatz-Wielandt; Berman &
    Plemmons, ch. 6), hence positive semidefinite: y^T A y >= mu y^T M y
    for every y.  So only a positive vector, the ground state's, can be
    certified; a sign-changing one gets None, and so do a positive
    off-diagonal and an A or M that is not exactly symmetric.

    A and M are two CSR or two CSC matrices on one pattern (equal `indptr`
    and `indices`), M positive definite, as `assemble_hodge_laplacian`
    builds the degree-0 pencil; ValueError otherwise.  The claim is about
    the discrete pencil, not the continuum operator.
    """
    if A.format not in ("csr", "csc") or A.format != M.format or A.shape != M.shape:
        raise ValueError("the pencil must be two CSR or two CSC matrices of one shape")
    if not (np.array_equal(A.indptr, M.indptr) and np.array_equal(A.indices, M.indices)):
        raise ValueError("the pencil's matrices must share one sparsity pattern")

    def like(data):
        return type(A)((data, A.indices, A.indptr), shape=A.shape)

    # exact symmetry: the transpose, as positions into the pattern, is the
    # pattern itself, and reads the same values
    idx = A.indices.dtype  # wide enough for a position: scipy sizes it by nnz
    swap = like(np.arange(len(A.indices), dtype=idx)).T.asformat(A.format)
    if not (np.array_equal(swap.indptr, A.indptr) and np.array_equal(swap.indices, A.indices)):
        return None
    if not all(np.array_equal(B.data[swap.data], B.data) for B in (A, M)):
        return None
    del swap

    x = np.asarray(x, dtype=float)
    if x.sum() < 0:
        x = -x
    if not np.all(x > 0):
        return None
    eps = np.finfo(float).eps
    absA, absM = like(np.abs(A.data)), like(np.abs(M.data))
    Mx, absMx = M @ x, absM @ x
    r = A @ x - lam * Mx
    # a sum of k products rounds by less than k eps times the sum of their
    # magnitudes; k counts the longest row, the subtraction and the scaling,
    # and is doubled for the rounding of the magnitudes themselves
    k = 2 * (int(np.diff(A.indptr).max(initial=0)) + 2)
    allowance = k * eps * (absA @ x + abs(lam) * absMx)
    floor = Mx - k * eps * absMx  # below the exact (M x)_i
    if not np.all(floor > 0):
        return None
    slack = max(float(np.max((allowance - r) / floor)), 0.0)
    mu = lam - slack * (1 + 4 * eps) - 4 * eps * abs(lam)
    # Z-matrix: every off-diagonal of A - mu M is <= 0, net of its rounding.
    # upper = (A - mu M) + 4 eps (|A| + |mu| |M|), formed in the buffers of
    # |M| and |A|, whose products are done
    upper = absM.data
    upper *= abs(mu)
    upper += absA.data
    upper *= 4 * eps
    upper += np.subtract(A.data, np.multiply(mu, M.data, out=absA.data), out=absA.data)
    outer = np.repeat(np.arange(A.shape[0], dtype=idx), np.diff(A.indptr))  # the row (CSR) or column (CSC)
    if np.any((upper > 0) & (outer != A.indices)):
        return None
    return float(mu)
