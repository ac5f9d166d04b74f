"""Exact Fourier-space Hodge theory on flat tori T^{2n}.

A constant compatible triple makes every differential operator block-diagonal
over Fourier modes xi in Z^{2n}: on the mode-xi block, d acts as the wedge
with c(xi) = 2*pi*i * sum_j xi_j e^j.  The first-order operators d, d*
(g-adjoint), d^Lambda = d Lambda - Lambda d and d^{Lambda*} are linear in xi,
kept once as 2n coefficient matrices on the full exterior algebra (indexed by
bitmasks); Delta_d = dd* + d*d and D = d* d + d^{Lambda*} d^Lambda (whose
commutation with L and Lambda drives the primitive decomposition of harmonic
forms) are quadratic in xi, with symmetric (j, l) coefficient blocks per
degree.  An identity linear or quadratic in xi holds at every xi, in the
cutoff or beyond, iff its coefficients satisfy it: `check_complex`, the Kahler
Laplacian comparison and the Weitzenbock identity Delta_d(xi) = 4 pi^2
|xi|^2_g I, which confines harmonic content to the xi = 0 block, are proven
there.  L8, L10 and the self-dual relation sample mode-sparse random forms;
L8 and L10 act on column batches, one column per (form, active mode), with no
per-mode matrix.  Only the self-dual relation reads 4^n x 4^n operators off
`FourierComplex.mode_ops` (as does `hyperbolic.gap`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from llab.algebra import (
    CompatibleTriple,
    _holomorphic_degree,
    KForm,
    hodge_star,
    pq_projector_matrices,
    wedge,
)

__all__ = [
    "FourierComplex",
    "HarmonicSpaceReport",
    "build_fourier_complex",
    "harmonic_space",
    "verify_p7_decomposition",
    "verify_lemma_L8",
    "verify_lemma_L10",
    "verify_kahler_identity",
    "anti_invariant_suite",
    "self_dual_invariant_relation",
    "check_complex",
]


_SHIFT = {"d": 1, "d_star": -1, "d_lambda": -1, "d_lambda_star": 1}  # degree change

# second-order operators as sums of products first(xi) second(xi), `second` applied first
_SECOND_ORDER = {
    "laplacian": (("d", "d_star"), ("d_star", "d")),  # Delta_d = d d* + d* d
    "dee": (("d_star", "d"), ("d_lambda_star", "d_lambda")),  # D = d* d + d^{Lambda*} d^Lambda
    "d_squared": (("d", "d"),),
    "d_lambda_squared": (("d_lambda", "d_lambda"),),
}


def _symmetric_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The symmetric coefficients Q[j, l] = -4 pi^2 (X_j Y_l + X_l Y_j) / 2 of
    x(xi) y(xi) = sum_{j,l} xi_j xi_l Q[j, l], for the first-order operators
    x(xi) = 2 pi i sum_j xi_j X_j and y(xi) alike.  A quadratic form in xi
    vanishes at every xi exactly when its symmetric coefficients vanish."""
    P = X[:, None] @ Y[None, :]
    return (-2 * np.pi ** 2) * (P + P.transpose(1, 0, 2, 3))


class _ModeOps:
    """The operators of one frequency xi, each formed the first time it is
    read: a first-order operator is its coefficient stack contracted with
    2 pi i xi."""

    def __init__(self, xi: tuple, coeffs: dict):
        self.xi = xi
        self._coeffs = coeffs

    def _first_order(self, name: str) -> np.ndarray:
        return (2j * np.pi) * np.tensordot(np.asarray(self.xi, dtype=float), self._coeffs[name], axes=1)

    d = cached_property(lambda self: self._first_order("d"))
    d_star = cached_property(lambda self: self._first_order("d_star"))
    d_lambda = cached_property(lambda self: self._first_order("d_lambda"))
    d_lambda_star = cached_property(lambda self: self._first_order("d_lambda_star"))


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierComplex:
    """Finite Fourier truncation of the de Rham complex of (T^{2n}, t).

    Modes are all integer vectors with sup-norm <= N, in lexicographic
    order.  Every first-order operator is linear in xi, so it is kept as
    its 2n coefficient matrices (`coeffs`), built once from the triple's
    full-algebra operators (`triple.ops`); `mode_ops` reads the operators
    of one mode off them, exact up to roundoff.  `block` and `quadratic`
    are built on first use and kept in `_cache`.
    """

    n: int
    N: int
    triple: CompatibleTriple
    modes: tuple = field(repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def coeffs(self) -> dict:
        """Real (2n, 4^n, 4^n) stacks A with op(xi) = sum_j 2 pi i xi_j A[j]
        for d, d*, d^Lambda and d^{Lambda*}.  An adjoint's stack is minus
        the adjoint of the operator's, as conj(2 pi i xi_j) = -2 pi i xi_j."""
        alg = self.triple.ops
        d_lambda = alg.W @ alg.Lam - alg.Lam @ alg.W
        return {
            "d": alg.W,
            "d_star": -np.stack([alg.adjoint(A) for A in alg.W]),
            "d_lambda": d_lambda,
            "d_lambda_star": -np.stack([alg.adjoint(A) for A in d_lambda]),
        }

    def mode_ops(self, xi) -> _ModeOps:
        return _ModeOps(tuple(int(x) for x in xi), self.coeffs)

    def block(self, name: str, k: int) -> np.ndarray:
        """The Lambda^k -> Lambda^{k + shift} slice (2n, rows, C(2n, k)) of a
        first-order operator's coefficient stack."""
        key = ("block", name, k)
        if key not in self._cache:
            alg = self.triple.ops
            self._cache[key] = self.coeffs[name][:, alg.masks(k + _SHIFT[name])[:, None], alg.masks(k)]
        return self._cache[key]

    def quadratic(self, name: str, k: int) -> np.ndarray:
        """The symmetric coefficients Q (2n, 2n, rows, C(2n, k)) of a
        second-order operator on Lambda^k (a key of `_SECOND_ORDER`):
        op(xi) = sum_{j,l} xi_j xi_l Q[j, l].  A product that passes
        through, or lands in, a degree outside 0..2n contributes nothing."""
        key = ("quadratic", name, k)
        if key not in self._cache:
            Q = 0.0
            for first, second in _SECOND_ORDER[name]:
                mid = k + _SHIFT[second]
                if 0 <= mid <= 2 * self.n and 0 <= mid + _SHIFT[first] <= 2 * self.n:
                    Q = Q + _symmetric_product(self.block(first, mid), self.block(second, k))
            self._cache[key] = Q
        return self._cache[key]

    def apply(self, name: str, k: int, xi: np.ndarray, V: np.ndarray) -> np.ndarray:
        """A first-order operator on a batch of degree-k columns, column c at
        mode xi[c]: op(xi) v = 2 pi i sum_j xi_j (A_j v), with A the
        Lambda^k -> Lambda^{k +- 1} slice of the stack.  One real product of
        the reshaped slice with (Re, Im) of every column; no per-mode matrix."""
        A = self.block(name, k)
        V = np.ascontiguousarray(V, dtype=complex)
        AV = (A.reshape(A.shape[0] * A.shape[1], A.shape[2]) @ V.view(float)).view(complex)
        return (2j * np.pi) * np.einsum("jsm,mj->sm", AV.reshape(A.shape[0], A.shape[1], V.shape[1]), xi)

    def random_form(self, k: int, rng: np.random.Generator, active_modes: int = 8,
                    pq: tuple | None = None) -> dict:
        """Mode-sparse random k-form {xi: Lambda^k coefficient vector};
        optionally projected to pure type (p,q).  The active modes' real and
        imaginary parts are one draw, in the order of the modes."""
        alg = self.triple.ops
        n_active = min(active_modes, len(self.modes))
        chosen = np.sort(rng.choice(len(self.modes), size=n_active, replace=False))
        z = rng.standard_normal((n_active, 2, alg.size))
        V = (z[:, 0] + 1j * z[:, 1])[:, alg.masks(k)]
        if pq is not None:
            # one stacked product whose every mode is the matrix-vector product P v
            V = (alg.pq(k)[pq] @ V[:, :, None])[:, :, 0]
        keep = V.any(axis=1)  # a projection may leave a mode with nothing
        return {self.modes[ci]: v for ci, v in zip(chosen[keep], V[keep])}


class _Columns:
    """Forms of one degree k as a column batch: `V` holds the Lambda^k
    coefficients of every (form, active mode) pair (C(2n, k), m), `xi` the
    pair's mode (m, 2n) and `owner` its form (m,)."""

    def __init__(self, fc: FourierComplex, forms: list, k: int):
        cols = [(i, xi, v) for i, a in enumerate(forms) for xi, v in a.items()]
        self.fc, self.count = fc, len(forms)
        self.owner = np.array([c[0] for c in cols], dtype=int)
        self.xi = np.array([c[1] for c in cols], dtype=float).reshape(len(cols), 2 * fc.n)
        self.V = np.array([c[2] for c in cols], dtype=complex).reshape(len(cols), math.comb(2 * fc.n, k)).T

    def apply(self, name: str, k: int, X: np.ndarray) -> np.ndarray:
        return self.fc.apply(name, k, self.xi, X)

    def inner(self, k: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """<x, y> = sum over modes of x^T G conj(y), one per form: the column
        sums of X * (G_k conj(Y)), reduced by owner.  Zero outside 0 <= k <= 2n."""
        if not 0 <= k <= 2 * self.fc.n:
            return np.zeros(self.count, dtype=complex)
        col = np.einsum("sm,sm->m", X, self.fc.triple.ops.gram(k) @ Y.conj())
        return (np.bincount(self.owner, col.real, self.count)
                + 1j * np.bincount(self.owner, col.imag, self.count))

    def norm_sq(self, k: int, X: np.ndarray) -> np.ndarray:
        return self.inner(k, X, X).real


def _squares(fc: FourierComplex, op: str) -> dict:
    """{k: per coefficient j, max over l of |Q[j, l]|} for op(xi)^2 on each
    Lambda^k it maps into 0..2n, relative to max(1, 2 pi max|op coefficient|)^2.
    op(xi)^2 = 0 at every xi iff all vanish, i.e. the 2n coefficient matrices
    pairwise anticommute."""
    degrees = range(2 * fc.n - 1) if _SHIFT[op] > 0 else range(2, 2 * fc.n + 1)
    scale = max(1.0, 2 * np.pi * float(np.max(np.abs(fc.coeffs[op])))) ** 2
    return {k: np.abs(fc.quadratic(f"{op}_squared", k)).max(axis=(1, 2, 3)) / scale for k in degrees}


def _weitzenbock(fc: FourierComplex, k: int) -> tuple[float, bool]:
    """The residual of Delta_d(xi) = 4 pi^2 |xi|^2_g I on Lambda^k, i.e. of
    Q[j, l] = 4 pi^2 (g^{-1})_jl I, and whether it proves Delta_d(xi)
    invertible at every xi != 0.  With every entry of Q / 4 pi^2 - g^{-1} (x) I
    at most e, Delta_d(xi) >= 4 pi^2 |xi|^2 (lambda_min(g^{-1}) - 2n C(2n, k) e)
    for the Euclidean |xi|: a positive bracket proves the kernel trivial."""
    g_inv = fc.triple.g_inv
    Q = fc.quadratic("laplacian", k)
    e = float(np.max(np.abs(Q / (4 * np.pi ** 2) - g_inv[:, :, None, None] * np.eye(Q.shape[-1]))))
    lam_min = float(np.linalg.eigvalsh(g_inv)[0])
    return e / max(1.0, float(np.max(np.abs(g_inv)))), 2 * fc.n * Q.shape[-1] * e < lam_min


def build_fourier_complex(n: int, N: int, t: CompatibleTriple) -> FourierComplex:
    """Assemble the truncated complex; validates the triple and the
    differential structure: d^2 = 0 and (d^Lambda)^2 = 0 on every mode, i.e.
    the 2n coefficient matrices of each pairwise anticommute (`_squares`)."""
    if n < 1 or N < 0:
        raise ValueError(f"need n >= 1 and N >= 0, got n={n}, N={N}")
    if t.n != n:
        raise ValueError(f"triple has n={t.n}, complex wants n={n}")
    t.validate(tol=1e-10)
    modes = tuple(itertools.product(range(-N, N + 1), repeat=2 * n))
    fc = FourierComplex(n=n, N=N, triple=t, modes=modes)
    for op, label in (("d", "d"), ("d_lambda", "d^Lambda")):
        per_j = np.max(list(_squares(fc, op).values()), axis=0)
        bad = np.flatnonzero(per_j > 1e-12)
        if bad.size:
            raise ArithmeticError(f"({label})^2 != 0: its e^{bad[0] + 1} coefficient does not anticommute")
    return fc


# ---------------------------------------------------------------------------
# harmonic space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicSpaceReport:
    """Harmonic content of degree k, split three ways.

    `bidegree_dims` and `lefschetz_dims` are measured from the computed
    kernel basis, not from count formulas; `invariant_dim` /
    `anti_invariant_dim` are populated for k = 2 only (None otherwise).
    """

    k: int
    total_dim: int
    bidegree_dims: dict
    lefschetz_dims: dict
    invariant_dim: int | None
    anti_invariant_dim: int | None
    nonzero_mode_kernel_dims: int  # sum over xi != 0: 0, by the Weitzenbock identity
    residuals: dict

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "total_dim": self.total_dim,
            "bidegree_dims": {f"{p},{q}": d for (p, q), d in sorted(self.bidegree_dims.items())},
            "lefschetz_dims": {str(r): d for r, d in sorted(self.lefschetz_dims.items())},
            "invariant_dim": self.invariant_dim,
            "anti_invariant_dim": self.anti_invariant_dim,
            "nonzero_mode_kernel_dims": self.nonzero_mode_kernel_dims,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
        }


def _image_basis(A: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of A."""
    u, s, _ = np.linalg.svd(A)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def harmonic_space(fc: FourierComplex, k: int) -> HarmonicSpaceReport:
    """Find ker Delta_d over every mode and classify the harmonic space.

    The Weitzenbock identity, checked on the quadratic coefficients of
    Delta_d on Lambda^k, proves Delta_d(xi) invertible at every xi != 0, so
    the harmonic space is exactly the xi = 0 block, where d vanishes and
    all of Lambda^k is harmonic; a failed proof raises ArithmeticError.  The
    xi = 0 kernel is classified by bidegree, by Lefschetz level, and for
    k = 2 into J-invariant / anti-invariant parts.
    """
    if not 0 <= k <= 2 * fc.n:
        raise ValueError(f"degree {k} out of range")
    weitzenbock, proven = _weitzenbock(fc, k)
    if not proven:
        raise ArithmeticError(f"Weitzenbock identity fails on Lambda^{k} (residual {weitzenbock:.1e}): "
                              "the harmonic space is not proven to be the xi = 0 block")
    total = math.comb(2 * fc.n, k)

    projs = pq_projector_matrices(fc.triple, k)
    bidegree = {pq: int(round(np.trace(P).real)) for pq, P in projs.items()}
    residuals = {"bidegree_trace_vs_rank": max(
        abs(np.trace(P).real - np.linalg.matrix_rank(P, tol=1e-8)) for P in projs.values()),
        "weitzenbock": weitzenbock}

    from llab.lefschetz import lefschetz_power_matrix, primitive_basis

    lefschetz = {}
    for r in range(max(0, k - fc.n), k // 2 + 1):
        j = k - 2 * r
        if j > fc.n:
            continue
        P = primitive_basis(fc.triple, j)
        img = lefschetz_power_matrix(fc.triple, j, r) @ P
        lefschetz[r] = int(np.linalg.matrix_rank(img, tol=1e-8)) if img.size else 0

    inv_dim = anti_dim = None
    if k == 2:
        Jk = fc.triple.ops.jpull(2)
        inv_dim = int(np.linalg.matrix_rank(0.5 * (np.eye(total) + Jk), tol=1e-8))
        anti_dim = int(np.linalg.matrix_rank(0.5 * (np.eye(total) - Jk), tol=1e-8))

    rep = HarmonicSpaceReport(
        k=k,
        total_dim=total,
        bidegree_dims=bidegree,
        lefschetz_dims=lefschetz,
        invariant_dim=inv_dim,
        anti_invariant_dim=anti_dim,
        nonzero_mode_kernel_dims=0,
        residuals=residuals,
    )
    if sum(bidegree.values()) != total or sum(lefschetz.values()) != total:
        raise ArithmeticError(f"harmonic dimension split mismatch: {rep}")
    if k == 2 and inv_dim + anti_dim != total:
        raise ArithmeticError(f"invariant split mismatch: {rep}")
    return rep


# ---------------------------------------------------------------------------
# decomposition and identity suites
# ---------------------------------------------------------------------------

def verify_p7_decomposition(fc: FourierComplex, p: int, q: int, tol: float = 1e-10) -> dict:
    """Check H^{p,q} = sum_r L^r (primitive H^{p-r,q-r}) on the harmonic block.

    Computes both sides as explicit bases at xi = 0, asserts equal dimension
    and spanning (projection residual < tol), and reports the principal-angle
    (Gram) spectrum between distinct L^r-blocks instead of asserting
    orthogonality, which the source statement does not claim.
    """
    from llab.lefschetz import lefschetz_power_matrix, primitive_basis

    n = fc.n
    k = p + q
    if k > 2 * n:
        raise ValueError("p + q exceeds 2n")
    t = fc.triple
    projs = pq_projector_matrices(t, k)
    if (p, q) not in projs:
        raise ValueError(f"empty bidegree ({p},{q}) for n={n}")
    P_pq = projs[(p, q)]
    # harmonic (p,q) block at xi = 0 is the full image of the projector
    w, V = np.linalg.eigh(P_pq @ P_pq.conj().T)
    H_basis = V[:, w > 0.5]
    dim_h = H_basis.shape[1]

    blocks = {}
    for r in itertools.count(max(0, k - n)):
        pp, qq = p - r, q - r
        if pp < 0 or qq < 0:
            break
        j = pp + qq
        if j > n:
            continue
        Pb = primitive_basis(t, j)
        if Pb.shape[1] == 0:
            continue
        sub_projs = pq_projector_matrices(t, j)
        if (pp, qq) not in sub_projs:
            continue
        ppq = sub_projs[(pp, qq)] @ Pb
        rank = np.linalg.matrix_rank(ppq, tol=1e-8)
        if rank == 0:
            continue
        u, s, _ = np.linalg.svd(ppq, full_matrices=False)
        prim_pq = u[:, :rank]
        img = lefschetz_power_matrix(t, j, r) @ prim_pq
        blocks[r] = img

    dim_sum = sum(b.shape[1] for b in blocks.values())
    # spanning: every block vector lies in H (residual), and ranks agree
    residual, rank_total = 0.0, 0
    if blocks:  # each block has a column
        stacked = np.hstack(list(blocks.values()))
        proj = H_basis @ (H_basis.conj().T @ stacked)
        residual = float(np.max(np.abs(stacked - proj)) / max(1.0, np.max(np.abs(stacked))))
        rank_total = int(np.linalg.matrix_rank(stacked, tol=1e-8))

    angles = {}
    keys = sorted(blocks)
    for i, r1 in enumerate(keys):
        for r2 in keys[i + 1:]:
            B1, _ = np.linalg.qr(blocks[r1])
            B2, _ = np.linalg.qr(blocks[r2])
            s = np.linalg.svd(B1.conj().T @ B2, compute_uv=False)
            angles[f"{r1}:{r2}"] = float(np.degrees(np.arccos(np.clip(np.max(s), 0, 1))))

    return {
        "p": p,
        "q": q,
        "dim_hpq": dim_h,
        "dims_by_r": {str(r): int(b.shape[1]) for r, b in blocks.items()},
        "dim_sum": dim_sum,
        "rank_of_union": rank_total,
        "projection_residual": residual,
        "min_principal_angle_deg": angles,
        "passed": bool(dim_sum == dim_h == rank_total and residual < tol),
    }


def verify_lemma_L8(fc: FourierComplex, samples: int, seed: int, tol: float = 1e-10) -> dict:
    """|  ||d^Lambda a||^2 - ||d* a||^2 | / ||a||^2 over random pure-type forms,
    the forms of each degree taken as one column batch."""
    drawn: dict[int, list] = {}
    for idx in range(samples):
        rng = np.random.default_rng([seed, idx])
        p = int(rng.integers(0, fc.n + 1))
        q = int(rng.integers(0, fc.n + 1))
        drawn.setdefault(p + q, []).append(fc.random_form(p + q, rng, pq=(p, q)))
    worst = 0.0
    cases = 0
    for k, forms in drawn.items():
        B = _Columns(fc, forms, k)
        ns = B.norm_sq(k, B.V)
        gap = B.norm_sq(k - 1, B.apply("d_lambda", k, B.V)) - B.norm_sq(k - 1, B.apply("d_star", k, B.V))
        keep = ns >= 1e-12
        worst = max(worst, float(np.max(np.abs(gap[keep]) / ns[keep], initial=0.0)))
        cases += int(np.count_nonzero(keep))
    return {"samples": cases, "max_residual": worst, "passed": bool(worst < tol)}


def verify_lemma_L10(fc: FourierComplex, samples: int, seed: int, tol: float = 1e-10) -> dict:
    """Cross-term orthogonality and norm equivalence over Lefschetz components.

    For random finite-mode k-forms a = sum_r L^r b_r:
      * <L^p D b_p, L^q b_q> = 0 for p != q (D = d*d + d^{Lambda*}d^Lambda);
      * ||d a||^2 + ||d^Lambda a||^2 is bounded between measured multiples
        c_min, c_max of sum_r ||d b_r||^2 (the constants are reported, not
        asserted, per degree).
    The samples of one degree are one column batch, decomposed by a single
    `primitive_decompose`.  `cross_cases` counts the (sample, p != q) pairs
    measured; with none, the orthogonality check passes on nothing.
    """
    from llab.lefschetz import primitive_decompose

    alg = fc.triple.ops
    results = {}
    worst_cross = 0.0
    cross_cases = 0
    for k in range(2 * fc.n + 1):
        forms = [fc.random_form(k, np.random.default_rng([seed, k, idx])) for idx in range(samples)]
        B = _Columns(fc, forms, k)
        comps = {r: b.data for r, b in primitive_decompose(KForm(fc.n, k, B.V), fc.triple).components.items()}
        scale = np.maximum(B.norm_sq(k, B.V), 1.0)
        num = B.norm_sq(k + 1, B.apply("d", k, B.V)) + B.norm_sq(k - 1, B.apply("d_lambda", k, B.V))
        den = np.zeros(samples)
        Lb, LDb = {}, {}
        for r, b in comps.items():
            j = k - 2 * r
            db = B.apply("d", j, b)
            den += B.norm_sq(j + 1, db)
            # D b = d*(d b) + d^{Lambda*}(d^Lambda b), one factor at a time
            Db = B.apply("d_star", j + 1, db) + B.apply("d_lambda_star", j - 1, B.apply("d_lambda", j, b))
            Lb[r], LDb[r] = alg.lpow(j, r) @ b, alg.lpow(j, r) @ Db
        pairs = list(itertools.permutations(comps, 2))
        for r1, r2 in pairs:
            cross = np.abs(B.inner(k, LDb[r1], Lb[r2])) / scale
            worst_cross = max(worst_cross, float(np.max(cross, initial=0.0)))
        # a sample without an active mode has no components to pair
        cross_cases += np.unique(B.owner).size * len(pairs)
        keep = den > 1e-12
        if keep.any():
            ratios = num[keep] / den[keep]
            results[k] = {"c_min": float(ratios.min()), "c_max": float(ratios.max()),
                          "samples": int(keep.sum())}
    return {
        "max_cross_term": worst_cross,
        "cross_cases": int(cross_cases),
        "equivalence_constants": results,
        "passed": bool(worst_cross < tol),
    }


def verify_kahler_identity(fc: FourierComplex, tol: float = 1e-10) -> dict:
    """Delta_d = 2 Delta_dbar at every mode (constant J is integrable on
    T^{2n}), proven on the symmetric (j, l) coefficients of both Laplacians,
    one degree at a time.

    In the bigraded frame F_k (`triple.ops.frame_compound(k)`), where
    Pi^{p,q} selects the coordinates of type (p,q), dbar's coefficients keep
    the entries of d's that keep p (so raise q by one); the bidegree leakage
    of Delta_d and Delta_dbar is their largest coefficient entry joining two
    types.  Residuals are relative to max(1, max|coefficient of Delta_d|).
    """
    alg = fc.triple.ops
    top = 2 * fc.n
    F = [alg.frame_compound(k) for k in range(top + 1)]
    Finv = [np.linalg.inv(f) for f in F]
    p = [_holomorphic_degree(top, k) for k in range(top + 1)]
    dbar, dbar_star = [], []
    for k in range(top):
        in_frame = Finv[k + 1] @ fc.block("d", k) @ F[k]
        dbar.append(F[k + 1] @ np.where(p[k + 1][:, None] == p[k], in_frame, 0.0) @ Finv[k])
        # minus the g-adjoint of each coefficient, as for d*
        dbar_star.append(-np.linalg.inv(alg.gram(k)) @ dbar[k].conj().transpose(0, 2, 1) @ alg.gram(k + 1))
    worst = leak_dbar = leak_lap = scale = 0.0
    for k in range(top + 1):
        lap = fc.quadratic("laplacian", k)
        lap_dbar = 0.0  # dbar dbar* through degree k - 1, dbar* dbar through k + 1
        if k:
            lap_dbar = lap_dbar + _symmetric_product(dbar[k - 1], dbar_star[k - 1])
        if k < top:
            lap_dbar = lap_dbar + _symmetric_product(dbar_star[k], dbar[k])
        mixed = p[k][:, None] != p[k]
        scale = max(scale, float(np.max(np.abs(lap))))
        worst = max(worst, float(np.max(np.abs(lap - 2.0 * lap_dbar))))
        leak_dbar = max(leak_dbar, float(np.max(np.abs(Finv[k] @ lap_dbar @ F[k])[..., mixed], initial=0.0)))
        leak_lap = max(leak_lap, float(np.max(np.abs(Finv[k] @ lap @ F[k])[..., mixed], initial=0.0)))
    worst, leak_dbar, leak_lap = (x / max(1.0, scale) for x in (worst, leak_dbar, leak_lap))
    return {
        "max_residual": worst,
        "max_bidegree_leakage_dbar": leak_dbar,
        "max_bidegree_leakage_delta": leak_lap,
        "passed": bool(worst < tol and leak_dbar < tol and leak_lap < tol),
    }


def anti_invariant_suite(fc: FourierComplex, tol: float = 1e-10) -> dict:
    """Anti-invariant (J a = -a) 2-form checks.

    (i) For a basis of constant anti-invariant 2-forms, measures the star
        identity  *a = c * (a ^ omega^{n-2})  against both candidate
        normalizations c = 1/(n-2)! and c = 1/(n-1)!, reporting which
        matches (both coincide at n = 2).
    (ii) Verifies on every mode that closed anti-invariant forms are harmonic:
        for xi != 0 the closed anti-invariant subspace is {0}; at xi = 0
        everything is harmonic.
    (iii) Reports the invariant/anti-invariant dimension split.
    """
    n = fc.n
    if n < 2:
        raise ValueError("anti-invariant star identity needs n >= 2")
    t = fc.triple
    alg = t.ops
    m2 = alg.masks(2)
    J2 = alg.jpull(2)
    # J2^2 = I on 2-forms; split by the (possibly oblique) projectors (I -+ J2)/2
    eye = np.eye(len(m2))
    anti = _image_basis(0.5 * (eye - J2))
    inv = _image_basis(0.5 * (eye + J2))
    anti_dim, inv_dim = anti.shape[1], inv.shape[1]

    # (i) star normalization measurement on the anti-invariant basis
    omega_pow = KForm(n, 0, [1.0])
    for _ in range(n - 2):
        omega_pow = wedge(omega_pow, t.omega_form())
    res_a, res_b = 0.0, 0.0
    for col in range(anti_dim):
        a = KForm(n, 2, anti[:, col])
        star_a = hodge_star(a, t)
        wedge_pow = wedge(a, omega_pow)
        ca = 1.0 / math.factorial(n - 2)
        cb = 1.0 / math.factorial(n - 1)
        scale = max(1.0, float(np.max(np.abs(star_a.data))))
        res_a = max(res_a, float(np.max(np.abs(star_a.data - ca * wedge_pow.data))) / scale)
        res_b = max(res_b, float(np.max(np.abs(star_a.data - cb * wedge_pow.data))) / scale)
    if res_a < tol and res_b < tol:
        matches = "both (coincide at n=2)"
    elif res_a < tol:
        matches = "1/(n-2)!"
    elif res_b < tol:
        matches = "1/(n-1)!"
    else:
        matches = "neither"

    # (ii) closed anti-invariant => harmonic, every mode at once: the
    # Lambda^2 -> Lambda^3 block of d(xi) on the anti-invariant basis, one
    # batched SVD (C(2n, 3) >= anti_dim rows, so s has anti_dim entries).
    # d(xi) / i has the same singular values and kernel, and stays real.
    xi = np.array(fc.modes, dtype=float)
    d_anti = np.tensordot(fc.block("d", 2), anti, axes=1)
    dA = (2 * np.pi) * np.tensordot(xi, d_anti, axes=1)
    s = np.linalg.svd(dA, compute_uv=False)
    ker = anti_dim - np.sum(s > 1e-8 * np.maximum(1.0, s[:, :1]), axis=1)
    nonzero_closed_dim = int(ker[xi.any(axis=1)].sum())
    # Delta_d = d d* + d* d on each closed subspace that is not {0} (all of
    # Lambda^2_- at xi = 0, where d vanishes)
    at = np.flatnonzero(ker)
    Vt = np.linalg.svd(dA[at])[2]
    K = np.hstack([anti @ Vt[i, anti_dim - ker[m]:].conj().T for i, m in enumerate(at)])
    kxi = np.repeat(xi[at], ker[at], axis=0)
    harm = fc.apply("d", 1, kxi, fc.apply("d_star", 2, kxi, K)) + fc.apply(
        "d_star", 3, kxi, fc.apply("d", 2, kxi, K))
    worst_harm = float(np.max(np.abs(harm), initial=0.0))

    return {
        "n": n,
        "anti_invariant_dim": anti_dim,
        "invariant_dim": inv_dim,
        "total_dim": anti_dim + inv_dim,
        "star_residual_over_factorial_nm2": res_a,
        "star_residual_over_factorial_nm1": res_b,
        "star_normalization_match": matches,
        "closed_anti_invariant_dim_nonzero_modes": nonzero_closed_dim,
        "max_harmonicity_residual": worst_harm,
        "passed": bool(
            matches != "neither"
            and worst_harm < tol
            and anti_dim + inv_dim == math.comb(2 * n, 2)
        ),
    }


def self_dual_invariant_relation(fc: FourierComplex, samples: int, tol: float = 1e-10) -> dict:
    """Closed J-invariant 2-forms a+ = f om + a0 (a0 primitive (1,1)).

    Per sampled mode, solves the closedness constraint d(f om + a0) = 0 in
    the (f, a0) coefficient space, then measures
      * ratio ||d a0||^2 / ||d f||^2  (equals n-1; see ledger on the
        stated-direction discrepancy),
      * residual of d^Lambda a+ = n df,
      * the coefficient in d^Lambda(f om) = c df (measured; c = 1).
    """
    from llab.lefschetz import primitive_basis

    n = fc.n
    if n < 2:
        raise ValueError("needs n >= 2")
    t = fc.triple
    alg = t.ops
    rng = np.random.default_rng(97 + 2 * n + fc.N)

    # coefficient space: f (1 complex dof) + primitive (1,1) basis
    Pb = primitive_basis(t, 2)
    p11 = pq_projector_matrices(t, 2)[(1, 1)] @ Pb
    rank = np.linalg.matrix_rank(p11, tol=1e-8)
    u, s, _ = np.linalg.svd(p11, full_matrices=False)
    prim11 = u[:, :rank]                       # basis of P^{1,1}, dim n^2 - 1

    m2 = alg.masks(2)
    cand = np.zeros((alg.size, 1 + rank), dtype=complex)
    cand[m2, 0] = t.omega_form().data
    cand[m2, 1:] = prim11

    worst_ratio_dev = 0.0
    worst_dlam = 0.0
    worst_fomega = 0.0
    worst_fomega_prop = 0.0
    n_nontrivial = 0
    for idx in range(samples):
        mode_idx = int(rng.integers(0, len(fc.modes)))
        xi = fc.modes[mode_idx]
        if not any(xi):
            continue
        ops = fc.mode_ops(xi)
        A = ops.d @ cand                     # closedness constraint matrix
        _, sv, Vt = np.linalg.svd(A)
        ker_dim = cand.shape[1] - int(np.sum(sv > 1e-8 * max(1.0, sv[0])))
        if ker_dim == 0:
            continue
        coeffs = Vt.conj().T[:, cand.shape[1] - ker_dim:] @ (
            rng.standard_normal(ker_dim) + 1j * rng.standard_normal(ker_dim)
        )
        f_coef = coeffs[0]
        a_plus = cand @ coeffs               # closed invariant 2-form, this mode
        a0 = cand[:, 1:] @ coeffs[1:]
        # f is the 0-form f_coef e^{2 pi i xi x}; df lives on the same mode
        df = ops.d[:, 0] * f_coef
        nd_f = float((df @ alg.G @ np.conj(df)).real)
        da0 = ops.d @ a0
        nd_a0 = float((da0 @ alg.G @ np.conj(da0)).real)
        if nd_f > 1e-12:
            n_nontrivial += 1
            worst_ratio_dev = max(worst_ratio_dev, abs(nd_a0 / nd_f - (n - 1)))
            dlam = ops.d_lambda @ a_plus
            worst_dlam = max(
                worst_dlam,
                float(np.max(np.abs(dlam - n * df))) / max(1.0, float(np.max(np.abs(df)))),
            )
            # measured coefficient in d^Lambda(f omega) = c df
            dlam_fom = ops.d_lambda @ (f_coef * cand[:, 0])
            c_meas = complex(dlam_fom @ alg.G @ np.conj(df)) / nd_f
            worst_fomega = max(worst_fomega, abs(c_meas - 1.0))
            prop = dlam_fom - c_meas * df
            worst_fomega_prop = max(
                worst_fomega_prop,
                float(np.max(np.abs(prop))) / max(1.0, float(np.max(np.abs(df)))),
            )

    return {
        "samples": samples,
        "nontrivial_cases": n_nontrivial,
        "max_ratio_deviation_from_nminus1": worst_ratio_dev,
        "max_dlambda_residual": worst_dlam,
        "d_lambda_f_omega_coefficient_minus_1": worst_fomega,
        "d_lambda_f_omega_proportionality_residual": worst_fomega_prop,
        # zero nontrivial cases pass vacuously; torus_suite warns about them
        "passed": bool(worst_ratio_dev < tol and worst_dlam < tol),
    }


# ---------------------------------------------------------------------------
# structural invariants (used by tests and the CLI)
# ---------------------------------------------------------------------------

def check_complex(fc: FourierComplex) -> dict:
    """Prove the operator structure of the complex at every mode, in the
    cutoff or beyond, on the coefficients: d^2 = 0 and (d^Lambda)^2 = 0 (the
    build's anticommutators), d* adjoint to d per coefficient, and
    [D, L] = [D, Lambda] = 0 on the symmetric coefficients of D.  The
    Weitzenbock identity makes Delta_d(xi) invertible at xi != 0, so there
    the harmonic and the closed-and-coclosed forms are both {0}, and
    im d + im d* fills Lambda^k, a direct sum when d^2 = 0 and d* is the
    adjoint; at xi = 0 every operator vanishes.  `hodge_dim_mismatch` counts
    the degrees where one of these premises fails (over 1e-8), and
    `harmonic_iff_closed_coclosed` is the worst Weitzenbock residual.
    """
    alg = fc.triple.ops
    top = 2 * fc.n
    squares = {op: _squares(fc, op) for op in ("d", "d_lambda")}
    adjointness = []  # per edge k -> k + 1
    for k in range(top):
        # <d a, b> = <a, d* b> at every xi iff A_j^T G_{k+1} = -G_k conj(B_j) for every j
        lhs = fc.block("d", k).transpose(0, 2, 1) @ alg.gram(k + 1)
        rhs = -alg.gram(k) @ fc.block("d_star", k + 1).conj()
        adjointness.append(float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs)))))
    dee = [fc.quadratic("dee", k) for k in range(top + 1)]
    scale = max(1.0, max(float(np.max(np.abs(Q))) for Q in dee))
    comm_L = comm_Lambda = 0.0
    for k in range(2, top + 1):
        L, Lam = alg.lpow(k - 2, 1), alg.lam(k)
        comm_L = max(comm_L, float(np.max(np.abs(dee[k] @ L - L @ dee[k - 2]))) / scale)
        comm_Lambda = max(comm_Lambda, float(np.max(np.abs(dee[k - 2] @ Lam - Lam @ dee[k]))) / scale)
    weitzenbock = [_weitzenbock(fc, k) for k in range(top + 1)]
    mismatch = 0
    for k, (_, proven) in enumerate(weitzenbock):
        # degree k rests on its Weitzenbock proof, d^2 on Lambda^{k-1} and the adjointness at both edges
        premises = [*squares["d"].get(k - 1, []), *adjointness[max(0, k - 1):k + 1]]
        mismatch += not (proven and max(premises, default=0.0) < 1e-8)
    return {
        "d_squared": float(np.max(list(squares["d"].values()))),
        "d_lambda_squared": float(np.max(list(squares["d_lambda"].values()))),
        "adjointness": max(adjointness),
        "commutator_L": comm_L,
        "commutator_Lambda": comm_Lambda,
        "harmonic_iff_closed_coclosed": max(r for r, _ in weitzenbock),
        "hodge_dim_mismatch": mismatch,
    }
