"""Shift-invert Lanczos for the generalized pencil (A, M).

Written against the sparse LU of (A - shift*M) with full
reorthogonalization in the M-inner product, so the certificates are the
point, not the iteration count: every returned eigenpair carries the
directly recomputed residual ||A x - lambda M x|| / ||x||, and the solve
refuses to return pairs whose residual exceeds rel_tol * lambda.

scipy supplies the LU factorization and sparse matvecs; the Krylov loop,
reorthogonalization, Ritz extraction and certification are explicit here
so that nothing about convergence is taken on faith from a black box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_REL_TOL = 1e-8
_DENSE_CUTOFF = 64


@dataclass
class SpectralResult:
    """Certified eigenpairs of a generalized pencil."""

    k: int
    eigenvalues: list[float]
    residuals: list[float]  # ||A x - lambda M x||_2 / ||x||_2, recomputed
    iterations: int
    n_dofs: int
    mesh_R: float
    mesh_h: float
    shift: float
    rel_tol: float
    derived_bound: float | None = None
    method: str = "lanczos"
    vectors: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "eigenvalues": list(self.eigenvalues),
            "residuals": list(self.residuals),
            "iterations": self.iterations,
            "n_dofs": self.n_dofs,
            "mesh": {"R": self.mesh_R, "h": self.mesh_h},
            "shift": self.shift,
            "rel_tol": self.rel_tol,
            "derived_bound": self.derived_bound,
            "method": self.method,
        }


class LanczosNonConvergence(ArithmeticError):
    """Raised when certificates cannot be met; carries the best estimates."""

    def __init__(self, message: str, best_eigenvalues, best_residuals, iterations: int):
        super().__init__(message)
        self.best_eigenvalues = list(best_eigenvalues)
        self.best_residuals = list(best_residuals)
        self.iterations = iterations


def _pencil_residuals(A, M, lams, X):
    res = []
    for i, lam in enumerate(lams):
        x = X[:, i]
        r = A @ x - lam * (M @ x)
        res.append(float(np.linalg.norm(r) / np.linalg.norm(x)))
    return res


def _dense_eigenpairs(A, M, nev):
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M)
    w, V = sla.eigh(Ad, Md)
    return w[:nev], V[:, :nev]


def smallest_eigenpairs(
    A,
    M,
    nev: int = 1,
    shift: float = 0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    maxiter: int = 160,
    seed: int = 20260301,
    v0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The nev smallest eigenpairs of A x = lambda M x with certificates.

    The Krylov space starts from v0, or from a standard normal draw seeded
    by `seed` when v0 is None.  Returns (eigenvalues, eigenvectors,
    iterations).  Raises LanczosNonConvergence if any certificate misses
    rel_tol * lambda (absolute floor rel_tol for eigenvalues near zero).
    """
    # A is factored in CSC, so a CSC A is kept as it is and costs no copy
    A = A if sp.issparse(A) and A.format == "csc" else sp.csr_matrix(A)
    M = sp.csr_matrix(M)
    n = A.shape[0]
    if n != M.shape[0]:
        raise ValueError("pencil dimension mismatch")
    if nev < 1 or nev > n:
        raise ValueError(f"nev={nev} out of range for dimension {n}")

    if n <= max(_DENSE_CUTOFF, 2 * nev + 8):
        lams, X = _dense_eigenpairs(A, M, nev)
        res = _pencil_residuals(A, M, lams, X)
        _certify(lams, res, rel_tol, iterations=n)
        return np.asarray(lams), X, n

    # factor A - shift*M; retreat to a tiny negative shift if singular
    scale = max(np.abs(A.data).max(initial=0.0), 1e-300)
    mscale = max(np.abs(M.data).max(initial=0.0), 1e-300)
    tried = []
    factor = None
    for sig in (shift, -1e-8 * scale / mscale, -1e-4 * scale / mscale):
        if sig in tried:
            continue
        tried.append(sig)
        try:
            factor = spla.splu((A if sig == 0 else A - sig * M).tocsc())
            shift = sig
            break
        except RuntimeError:
            continue
    if factor is None:
        raise LanczosNonConvergence("shifted operator could not be factored", [], [], 0)

    maxiter = min(maxiter, n - 1)

    # column-major: only the columns the iteration reaches are ever touched,
    # and every V[:, :j+1] product reads contiguous memory
    V = np.empty((n, maxiter + 1), order="F")
    alphas: list[float] = []
    betas: list[float] = []

    if v0 is None:
        v = np.random.default_rng(seed).standard_normal(n)
    else:
        v = np.array(v0, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"start vector has shape {v.shape}, need ({n},)")
    mv = M @ v
    nrm = np.sqrt(v @ mv)
    if not nrm > 0:
        raise ValueError("start vector has zero M-norm")
    V[:, 0] = v / nrm
    mv /= nrm  # M V[:, j], carried from the step that made V[:, j]

    best_lams: np.ndarray = np.array([])
    best_res: list[float] = []
    best_X = V[:, :0]
    j_done = 0
    for j in range(maxiter):
        w = factor.solve(mv)
        alpha = float(w @ mv)
        w -= alpha * V[:, j]
        if j > 0:
            w -= betas[-1] * V[:, j - 1]
        # full reorthogonalization (twice) in the M-inner product; the M w
        # of the last pass is left over for beta and the next step
        mw = M @ w
        for _ in range(2):
            coef = V[:, : j + 1].T @ mw
            w -= V[:, : j + 1] @ coef
            mw = M @ w
        alphas.append(alpha)
        beta = float(np.sqrt(max(w @ mw, 0.0)))
        j_done = j + 1

        breakdown = beta <= 1e-14 * max(abs(alpha), 1.0)
        check_now = breakdown or (j + 1 >= nev + 2 and (j + 1) % 4 == 0) or j == maxiter - 1
        if check_now:
            T = np.diag(alphas)
            if len(betas) > 0:
                off = np.array(betas)
                T += np.diag(off, 1) + np.diag(off, -1)
            theta, S = sla.eigh(T)
            # largest theta of (A - shift M)^{-1} M <-> eigenvalues nearest
            # the shift; for shift below the spectrum these are the smallest.
            order = np.argsort(theta)[::-1]
            take = order[:nev]
            with np.errstate(divide="ignore"):
                lams = shift + 1.0 / theta[take]
            X = V[:, : j + 1] @ S[:, take]
            res = _pencil_residuals(A, M, lams, X)
            keep = np.argsort(lams)
            lams, X, res = lams[keep], X[:, keep], [res[i] for i in keep]
            best_lams, best_res, best_X = lams, res, X
            if _satisfied(lams, res, rel_tol) and len(lams) == nev:
                return np.asarray(lams), X, j_done
            if breakdown:
                break
        if breakdown:
            break
        betas.append(beta)
        V[:, j + 1] = w / beta
        mv = mw / beta

    _certify(best_lams, best_res, rel_tol, iterations=j_done)
    return np.asarray(best_lams), best_X, j_done


def _satisfied(lams, res, rel_tol) -> bool:
    # the contract is relative: residual < rel_tol * lambda (pencils here
    # are positive definite, so lambda > 0)
    return len(lams) > 0 and all(r < rel_tol * abs(l) for l, r in zip(lams, res))


def _certify(lams, res, rel_tol, iterations: int) -> None:
    if len(lams) == 0 or not _satisfied(lams, res, rel_tol):
        raise LanczosNonConvergence(
            f"residual certificates not met after {iterations} iterations: "
            f"eigenvalues {list(map(float, lams))}, residuals {res}",
            lams,
            res,
            iterations,
        )
