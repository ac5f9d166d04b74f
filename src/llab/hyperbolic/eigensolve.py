"""Shift-invert Lanczos for the symmetric-definite pencil (A, M).

Written against the sparse LU of A (of A - shift*M, a shift a little
below 0, when A is singular) with full reorthogonalization in the
M-inner product, so the certificates are the point, not the iteration
count: every returned eigenpair carries the directly recomputed residual
||A x - lambda M x|| / ||x||, and the solve refuses to return pairs whose
residual exceeds rel_tol * lambda.  A residual shows that a Ritz pair is
accurate, not which eigenvalue it is; `ground_state_lower` proves, for a
positive approximate ground state, that nothing lies below it.

A ground state can also be had without factoring its pencil:
`lobpcg_ground_state` runs single-vector LOBPCG, preconditioned with a
two-grid V-cycle (`two_grid_preconditioner`) whose coarse solve is the LU
of a coarser mesh, and stops only on a residual certificate and a
`ground_state_lower` proof, both within rel_tol.

scipy supplies the LU factorization and sparse matvecs; the Krylov loop,
reorthogonalization, Ritz extraction, the LOBPCG step and certification
are explicit here so that nothing about convergence is taken on faith
from a black box.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    rel_tol: float
    derived_bound: float | None = None
    ground_state_lower: float | None = None  # `ground_state_lower` of the first pair
    solver: str = "lanczos"  # or "two_grid": `lobpcg_ground_state` on a coarser mesh's LU


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
    rel_tol: float = DEFAULT_REL_TOL,
    maxiter: int = 160,
    seed: int = 20260301,
    v0: np.ndarray | None = None,
    lu: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The nev smallest eigenpairs of A x = lambda M x, with certificates.

    The pencil is positive definite, or semidefinite and factored a little
    below 0 (`shifted_lu`).  The Krylov space starts from v0, or from a
    standard normal draw seeded by `seed` when v0 is None.  Returns
    (eigenvalues, eigenvectors, iterations), eigenvalues ascending;
    iterations counts Lanczos steps, so a pencil small enough to solve
    dense (n <= 64 for nev <= 28) reports 0.  Raises LanczosNonConvergence
    if any certificate misses rel_tol * lambda.

    A and M are symmetric.  `lu`, when given, is `shifted_lu(A, M)`, made
    by a caller that keeps it; the dense path does not read it.
    """
    # A is factored in CSC, so a CSC A is kept as it is and costs no copy;
    # so is a CSC M, whose products cost what a CSR one's do
    A = A if sp.issparse(A) and A.format == "csc" else sp.csr_matrix(A)
    M = M if sp.issparse(M) and M.format == "csc" else sp.csr_matrix(M)
    n = A.shape[0]
    if n != M.shape[0]:
        raise ValueError("pencil dimension mismatch")
    if nev < 1 or nev > n:
        raise ValueError(f"nev={nev} out of range for dimension {n}")

    if n <= max(_DENSE_CUTOFF, 2 * nev + 8):
        # a dense solve takes no Lanczos step: `iterations` counts only those
        lams, X = _dense_eigenpairs(A, M, nev)
        res = _pencil_residuals(A, M, lams, X)
        _certify(lams, res, rel_tol, iterations=0)
        return np.asarray(lams), X, 0

    factor, shift = lu if lu is not None else shifted_lu(A, M)
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
            # largest |theta| of (A - shift M)^{-1} M <-> eigenvalues nearest
            # the shift; the shift is at or below the spectrum, so every
            # theta is positive and these are the smallest
            take = np.argsort(np.abs(theta))[::-1][:nev]
            with np.errstate(divide="ignore"):
                lams = shift + 1.0 / theta[take]
            X = V[:, : j + 1] @ S[:, take]
            res = _pencil_residuals(A, M, lams, X)
            keep = np.argsort(lams)
            lams, X, res = lams[keep], X[:, keep], [res[i] for i in keep]
            best_lams, best_res, best_X = lams, res, X
            if _satisfied(lams, res, rel_tol) and len(lams) == nev:
                return np.asarray(lams), _refined(factor, A, M, lams, X, res), j_done
            if breakdown:
                break
        if breakdown:
            break
        betas.append(beta)
        V[:, j + 1] = w / beta
        mv = mw / beta

    _certify(best_lams, best_res, rel_tol, iterations=j_done)
    return np.asarray(best_lams), _refined(factor, A, M, best_lams, best_X, best_res), j_done


def _refined(factor, A, M, lams, X, res) -> np.ndarray:
    """The certified Ritz vectors X after one step of inverse iteration with
    the factorization in hand, each kept where that lowers its residual.

    The step divides every other eigencomponent of a vector by
    |lambda_j - shift| / |lambda - shift|; the Ritz values stay as they are.
    A residual bounds the eigenvector's error only in norm, while
    `ground_state_lower` reads it entry by entry, where the step helps most.
    """
    Y = factor.solve(M @ X)
    Y *= np.linalg.norm(X, axis=0) / np.linalg.norm(Y, axis=0)
    better = np.array(_pencil_residuals(A, M, lams, Y)) < np.array(res)
    return np.where(better, Y, X)


def shifted_lu(A, M) -> tuple:
    """(splu of A - shift M, shift), with shift = 0, or a little below 0
    when A is singular.  A and M as `smallest_eigenpairs` takes them;
    raises LanczosNonConvergence when no shift factors."""
    scale = max(np.abs(A.data).max(initial=0.0), 1e-300)
    mscale = max(np.abs(M.data).max(initial=0.0), 1e-300)
    for shift in (0.0, -1e-8 * scale / mscale, -1e-4 * scale / mscale):
        try:
            # splu factors CSC
            return spla.splu(A.tocsc() if shift == 0 else (A - shift * M).tocsc()), shift
        except RuntimeError:
            continue
    raise LanczosNonConvergence("shifted operator could not be factored", [], [], 0)


def two_grid_preconditioner(A, P, coarse_lu):
    """r -> T r, T ~ A^{-1}: a symmetric two-grid V-cycle for the stiffness
    matrix A of a fine mesh.

    One damped-Jacobi step (2/3 D^{-1}, D = diag A) from zero, the coarse
    correction P A_c^{-1} P^T on the residual, where `coarse_lu` solves with
    the coarse mesh's own stiffness matrix A_c and P prolongs coarse values
    to fine ones (`mesh.ring_prolongation`), then the same Jacobi step again.
    """
    dinv = (2.0 / 3.0) / A.diagonal()
    PT = P.T.tocsr()

    def apply(r: np.ndarray) -> np.ndarray:
        x = dinv * r
        x += P @ coarse_lu.solve(PT @ (r - A @ x))
        x += dinv * (r - A @ x)
        return x

    return apply


def lobpcg_ground_state(
    A, M, x0: np.ndarray, precondition, rel_tol: float = DEFAULT_REL_TOL, maxiter: int = 40
) -> tuple[float, np.ndarray, int, float]:
    """A proven ground state of the pencil (A, M) by single-vector LOBPCG
    (Knyazev, SIAM J. Sci. Comput. 23, 2001).

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
    so recomputed, is below rel_tol * lambda and `ground_state_lower`
    proves lambda - mu <= rel_tol * lambda; then it returns (lambda, x,
    steps, mu).  A and M are CSR on one pattern, as `ground_state_lower`
    takes them.  Raises LanczosNonConvergence, carrying the last estimate,
    when maxiter steps end without both.
    """
    x = np.array(x0, dtype=float)
    if not x @ (M @ x) > 0:
        raise ValueError("start vector has zero M-norm")
    if x.sum() < 0:
        x = -x
    # S, A S and M S, each with the rows x, w, p; p is zero until the first
    # step makes one, and a zero direction drops out of the Rayleigh-Ritz
    Y = np.zeros((3, 3, len(x)))
    S, AS, MS = Y
    S[0], AS[0], MS[0] = x, A @ x, M @ x
    x = S[0]

    def rayleigh():
        """(lambda, r, residual, whether x may earn the proof), from the kept A x and M x."""
        Ax, Mx = AS[0], MS[0]
        lam = float(x @ Ax) / float(x @ Mx)
        r = Ax - lam * Mx
        res = float(np.linalg.norm(r) / np.linalg.norm(x))
        # the proof's slack is at least max(-r / M x), so a larger one
        # cannot meet the rule: only then does x earn the O(nnz) proof
        return lam, r, res, res < rel_tol * lam and np.all(x > 0) and np.max(-r / Mx) <= rel_tol * lam

    lam, res = float("nan"), float("nan")
    for step in range(maxiter + 1):
        lam, r, res, ready = rayleigh()
        if ready:  # the carried products met the rule: check it on true ones
            AS[0], MS[0] = A @ x, M @ x
            lam, r, res, ready = rayleigh()
        if ready:
            lower = ground_state_lower(A, M, lam, x)
            if lower is not None and lam - lower <= rel_tol * lam:
                return lam, x.copy(), step, lower
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
        if c[0] < 0:  # keep x on the side of the positive ground state
            c = -c
        # p <- the new direction and x <- c_0 x + p, in S, A S and M S at
        # once; the directions c weighs (w, p or both) are consecutive rows
        Y[:, 2] = c[1:] @ Y[:, keep[1] : keep[len(c) - 1] + 1]
        Y[:, 0] *= c[0]
        Y[:, 0] += Y[:, 2]
    raise LanczosNonConvergence(
        f"LOBPCG proved no ground state in {step} steps: eigenvalue {lam}, residual {res}",
        [lam],
        [res],
        step,
    )


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
