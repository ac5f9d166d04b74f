"""The smallest eigenpair of the symmetric-definite pencil (A, M), with its
residual certificate.

One solver, single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001),
takes whatever preconditioner T ~ A^{-1} its caller passes: a multigrid
V-cycle (`multigrid_preconditioner`) through coarser meshes down to the
sparse LU (`stiffness_lu`) of the coarsest one, which with no level above
it is that LU's solve.  Every pencil, of any dimension, takes that one
route.  A singular stiffness matrix is refused where it is factored: its
smallest eigenvalue is 0, and no residual is below rel_tol * 0.  The
certificate is the point, not the step count: the returned pair carries
the directly recomputed residual ||A x - lambda M x|| / ||x||, and the
solve refuses to return a pair whose residual is not below
rel_tol * lambda.  A residual shows that a Ritz pair
is accurate, not which eigenvalue it is, and a conforming eigenvalue is an
upper bound on the continuum one: the eigenvalues here are estimates.  The
hyperbolic gap's lower bound is proven elsewhere, on an enclosing polygon
(`bounds`).

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


@dataclass
class SpectralResult:
    """The smallest eigenpair of a generalized pencil, with its residual."""

    k: int
    eigenvalue: float
    residual: float  # ||A x - lambda M x||_2 / ||x||_2, recomputed from x
    iterations: int
    n_dofs: int
    rel_tol: float
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
    x0: np.ndarray,
    rel_tol: float = DEFAULT_REL_TOL,
    maxiter: int = 40,
) -> tuple[float, np.ndarray, int, float]:
    """The smallest eigenpair of A x = lambda M x, with its residual
    certificate, by single-vector LOBPCG preconditioned with precondition:
    r -> T r, T ~ A^{-1}.

    Returns (eigenvalue, eigenvector, steps, residual): lambda, the 1-D x,
    the LOBPCG steps taken, and the residual ||A x - lambda M x|| / ||x||
    that the stop rule certified, computed from the returned x.  A pencil
    of any dimension, 1 included, takes this route; a start that already
    meets the stop rule returns after 0 steps.  The solve starts from x0,
    which its caller chooses: nothing is drawn.

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
    so recomputed, is below rel_tol * lambda.  A and M are symmetric.
    Raises EigenNonConvergence, carrying the last estimate, when maxiter
    steps end without that.
    """
    A = A if sp.issparse(A) and A.format in ("csr", "csc") else sp.csr_matrix(A)
    M = M if sp.issparse(M) and M.format in ("csr", "csc") else sp.csr_matrix(M)
    n = A.shape[0]
    if n != M.shape[0]:
        raise ValueError("pencil dimension mismatch")
    x = np.array(x0, dtype=float)
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
        """(lambda, r, residual), from the kept A x and M x."""
        Ax, Mx = AS[0], MS[0]
        lam = float(x @ Ax) / float(x @ Mx)
        r = Ax - lam * Mx
        return lam, r, float(np.linalg.norm(r) / np.linalg.norm(x))

    lam, res = float("nan"), float("nan")
    for step in range(maxiter + 1):
        lam, r, res = rayleigh()
        if res < rel_tol * lam:  # the carried products met the rule: check it on true ones
            AS[0], MS[0] = A @ x, M @ x
            lam, r, res = rayleigh()
            if res < rel_tol * lam:
                return lam, x.copy(), step, res
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
    raise EigenNonConvergence(
        f"residual certificates not met after {step} steps: eigenvalue {lam}, residual {res}", lam, res, step)


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
