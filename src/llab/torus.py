"""Exact Fourier-space Hodge theory on flat tori T^{2n}.

A constant compatible triple makes every differential operator block-diagonal
over Fourier modes xi in Z^{2n}: on the mode-xi block, d acts as the wedge
with c(xi) = 2*pi*i * sum_j xi_j e^j.  The first-order operators d, d*
(g-adjoint), d^Lambda = d Lambda - Lambda d and d^{Lambda*} are linear in xi
and kept once as 2n coefficient matrices on the full exterior algebra
(indexed by bitmasks); with them come Delta_d = dd* + d*d and

    D = d* d + d^{Lambda*} d^Lambda

(whose commutation with L and Lambda drives the primitive decomposition of
harmonic forms).  The sampled identity checks act on column batches, one
column per (form, active mode): an operator is one product with the
Lambda^k -> Lambda^{k+-1} slice of its stack and a xi-weighted sum, with no
per-mode matrix; `check_complex` contracts each degree block with every
sampled mode at once.  Only the Kahler Laplacian comparison and the
self-dual relation read 4^n x 4^n operators off `FourierComplex.mode_ops`
(as does `hyperbolic.gap`).  Harmonic content on a flat torus is exactly
the xi = 0 block, which the harmonic-space scan confirms rather than assumes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from llab.algebra import (
    CompatibleTriple,
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


def _degree_block(alg, A: np.ndarray, k_out: int, k_in: int) -> np.ndarray:
    """The Lambda^{k_in} -> Lambda^{k_out} block of a full-algebra matrix, or
    of each matrix of a stack."""
    return A[..., alg.masks(k_out)[:, None], alg.masks(k_in)]


_SHIFT = {"d": 1, "d_star": -1, "d_lambda": -1, "d_lambda_star": 1}  # degree change


class _ModeOps:
    """The operators of one frequency xi, each formed the first time it is
    read: a first-order operator is its coefficient stack contracted with
    2 pi i xi, and Delta_d is a product of those."""

    def __init__(self, xi: tuple, coeffs: dict):
        self.xi = xi
        self._coeffs = coeffs

    def _first_order(self, name: str) -> np.ndarray:
        return (2j * np.pi) * np.tensordot(np.asarray(self.xi, dtype=float), self._coeffs[name], axes=1)

    d = cached_property(lambda self: self._first_order("d"))
    d_star = cached_property(lambda self: self._first_order("d_star"))
    d_lambda = cached_property(lambda self: self._first_order("d_lambda"))
    d_lambda_star = cached_property(lambda self: self._first_order("d_lambda_star"))
    # Delta_d = d d* + d* d
    laplacian = cached_property(lambda self: self.d @ self.d_star + self.d_star @ self.d)


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
    of one mode off them, exact up to roundoff.
    """

    n: int
    N: int
    triple: CompatibleTriple
    modes: tuple = field(repr=False)

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

    def apply(self, name: str, k: int, xi: np.ndarray, V: np.ndarray) -> np.ndarray:
        """A first-order operator on a batch of degree-k columns, column c at
        mode xi[c]: op(xi) v = 2 pi i sum_j xi_j (A_j v), with A the
        Lambda^k -> Lambda^{k +- 1} slice of the stack.  One real product of
        the reshaped slice with (Re, Im) of every column; no per-mode matrix."""
        A = _degree_block(self.triple.ops, self.coeffs[name], k + _SHIFT[name], k)
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
        return {self.modes[ci]: v for ci, v in zip(chosen, V) if np.max(np.abs(v)) > 0}


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


def build_fourier_complex(n: int, N: int, t: CompatibleTriple) -> FourierComplex:
    """Assemble the truncated complex; validates the triple and the
    differential structure: d^2 = 0 and (d^Lambda)^2 = 0 on every mode,
    i.e. the 2n coefficient matrices of each pairwise anticommute."""
    if n < 1 or N < 0:
        raise ValueError(f"need n >= 1 and N >= 0, got n={n}, N={N}")
    if t.n != n:
        raise ValueError(f"triple has n={t.n}, complex wants n={n}")
    t.validate(tol=1e-10)
    modes = tuple(itertools.product(range(-N, N + 1), repeat=2 * n))
    fc = FourierComplex(n=n, N=N, triple=t, modes=modes)
    for label, A in (("d", fc.coeffs["d"]), ("d^Lambda", fc.coeffs["d_lambda"])):
        bound = 1e-12 * max(1.0, float(np.max(np.abs(A)))) ** 2
        for j in range(2 * n):
            if np.max(np.abs(A[j] @ A + A @ A[j])) > bound:
                raise ArithmeticError(f"({label})^2 != 0: its e^{j + 1} coefficient does not anticommute")
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
    nonzero_mode_kernel_dims: int  # sum over xi != 0; flat torus => 0
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
    """Scan ker Delta_d over every mode and classify the harmonic space.

    On a flat torus only xi = 0 contributes (the scan verifies this); the
    xi = 0 kernel is classified by bidegree, by Lefschetz level, and for
    k = 2 into J-invariant / anti-invariant parts.
    """
    if not 0 <= k <= 2 * fc.n:
        raise ValueError(f"degree {k} out of range")
    alg = fc.triple.ops
    mk = alg.masks(k)
    # On Lambda^k, Delta_d(xi) = sum_{j,l} xi_j xi_l Q[j, l] with Q the degree-k
    # block of (2 pi i)^2 (A_j B_l + B_j A_l), A and B the coefficient stacks
    # of d and d*: d d* passes through degree k - 1, d* d through k + 1.
    A, B = fc.coeffs["d"], fc.coeffs["d_star"]
    Q = 0.0
    for mid, first, second in ((k - 1, A, B), (k + 1, B, A)):
        if 0 <= mid <= 2 * fc.n:
            mm = alg.masks(mid)
            Q = Q + np.einsum("jab,lbc->jlac", first[:, mk[:, None], mm], second[:, mm[:, None], mk])
    xi = np.array([m for m in fc.modes if any(m)], dtype=float).reshape(-1, 2 * fc.n)
    w = np.linalg.eigvalsh(np.tensordot(xi[:, :, None] * xi[:, None, :], -4 * np.pi ** 2 * Q, axes=2))
    # the kernel threshold of check_complex, one mode per row
    nonzero_kernel = int(np.sum(w < 1e-8 * np.maximum(1.0, w[:, -1:])))
    # xi = 0 is always a mode; d vanishes there, so its whole degree block is harmonic
    total = len(mk) + nonzero_kernel

    projs = pq_projector_matrices(fc.triple, k)
    bidegree = {pq: int(round(np.trace(P).real)) for pq, P in projs.items()}
    residuals = {"bidegree_trace_vs_rank": max(
        abs(np.trace(P).real - np.linalg.matrix_rank(P, tol=1e-8)) for P in projs.values())}

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
        Jk = alg.jpull(2)
        inv_dim = int(np.linalg.matrix_rank(0.5 * (np.eye(len(mk)) + Jk), tol=1e-8))
        anti_dim = int(np.linalg.matrix_rank(0.5 * (np.eye(len(mk)) - Jk), tol=1e-8))

    rep = HarmonicSpaceReport(
        k=k,
        total_dim=total,
        bidegree_dims=bidegree,
        lefschetz_dims=lefschetz,
        invariant_dim=inv_dim,
        anti_invariant_dim=anti_dim,
        nonzero_mode_kernel_dims=nonzero_kernel,
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


def verify_kahler_identity(fc: FourierComplex, samples: int, tol: float = 1e-10) -> dict:
    """Delta_d = 2 Delta_dbar per mode (constant J is integrable on T^{2n}).

    Works in the bigraded frame F (`triple.ops.F`), where Pi^{p,q} selects
    the coordinates of type (p,q): dbar keeps the entries of d that raise q
    by one, and the bidegree leakage of Delta_d and Delta_dbar is their
    largest entry joining two types.
    """
    alg = fc.triple.ops
    F = alg.F
    Finv = np.linalg.inv(F)
    low = (1 << fc.n) - 1
    p = np.array([(m & low).bit_count() for m in range(alg.size)])
    q = np.array([(m >> fc.n).bit_count() for m in range(alg.size)])
    same_p = p[:, None] == p[None, :]
    raises_q = same_p & (q[:, None] == q[None, :] + 1)
    mixed = ~same_p | (q[:, None] != q[None, :])
    rng = np.random.default_rng(2 * fc.n + fc.N)  # deterministic; no seed in contract
    worst = 0.0
    leak_dbar = 0.0
    leak_lap = 0.0
    for idx in range(samples):
        mode_idx = int(rng.integers(0, len(fc.modes)))
        ops = fc.mode_ops(fc.modes[mode_idx])
        dbar = F @ np.where(raises_q, Finv @ ops.d @ F, 0.0) @ Finv
        dbar_star = alg.adjoint(dbar)
        lap_dbar = dbar @ dbar_star + dbar_star @ dbar
        diff = ops.laplacian - 2.0 * lap_dbar
        scale = max(1.0, float(np.max(np.abs(ops.laplacian))))
        worst = max(worst, float(np.max(np.abs(diff))) / scale)
        leak_dbar = max(leak_dbar, float(np.max(np.abs(Finv @ lap_dbar @ F)[mixed])) / scale)
        leak_lap = max(leak_lap, float(np.max(np.abs(Finv @ ops.laplacian @ F)[mixed])) / scale)
    return {
        "samples": samples,
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
    d_anti = np.tensordot(_degree_block(alg, fc.coeffs["d"], 3, 2), anti, axes=1)
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
    omega_vec = t.omega_form().data

    m2 = alg.masks(2)
    cand = np.zeros((alg.size, 1 + rank), dtype=complex)
    cand[m2, 0] = omega_vec
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
        f_vec = np.zeros(alg.size, dtype=complex)
        f_vec[0] = f_coef
        df = ops.d @ f_vec
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
            fom = np.zeros(alg.size, dtype=complex)
            fom[m2] = f_coef * omega_vec
            dlam_fom = ops.d_lambda @ fom
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

def check_complex(fc: FourierComplex, max_modes: int | None = 64) -> dict:
    """Verify the per-mode operator structure across modes.

    Checks, per mode: d^2 = 0, (d^Lambda)^2 = 0, adjointness of d*,
    [D, L] = [D, Lambda] = 0, the three-way Hodge decomposition dimension
    count, and harmonic <=> (closed and coclosed).  Returns worst residuals.
    One degree at a time, every sampled mode at once, from the degree blocks
    of the coefficient stacks: no per-mode matrix is formed.
    """
    alg = fc.triple.ops
    top = 2 * fc.n
    rng = np.random.default_rng(0)
    modes = list(fc.modes)
    if max_modes is not None and len(modes) > max_modes:
        keep = rng.choice(len(modes), size=max_modes, replace=False)
        modes = [fc.modes[i] for i in sorted(keep)] + [tuple([0] * top)]
    xi = np.array(modes, dtype=float)
    ab = rng.standard_normal((len(xi), 4, alg.size))  # per mode: Re a, Im a, Re b, Im b
    a, b = ab[:, 0] + 1j * ab[:, 1], ab[:, 2] + 1j * ab[:, 3]

    def edge(k):
        """op(xi) / i between Lambda^k and Lambda^{k+1} at every mode, real
        (modes, rows, cols): d and d^{Lambda*} up, d* and d^Lambda down."""
        if 0 <= k < top:
            return {name: (2 * np.pi) * np.tensordot(xi, _degree_block(alg, fc.coeffs[name], *(
                (k + 1, k) if shift > 0 else (k, k + 1))), axes=1) for name, shift in _SHIFT.items()}

    def rank(A):  # matrix_rank(A, tol=1e-8) per mode
        return np.sum(np.linalg.svd(A, compute_uv=False) > 1e-8, axis=-1)

    def inner(k, x, y):
        return np.einsum("mi,ij,mj->m", x, alg.gram(k), y.conj())

    def peak(A):
        return np.abs(A).max(axis=(1, 2))

    worst = {}  # per quantity, its largest entry so far at each mode

    def note(key, per_mode, at=slice(None)):
        seen = worst.setdefault(key, np.zeros(len(xi)))
        seen[at] = np.maximum(seen[at], per_mode)

    lhs = rhs = 0.0
    mismatch = 0
    dee, lo, hi = {}, None, edge(0)
    for k in range(top + 1):
        if k:
            lo, hi = hi, edge(k)
        mk, n_k = alg.masks(k), math.comb(top, k)
        # op = i * block, so Delta_d = d d* + d* d and D = d* d + d^{Lambda*} d^Lambda
        # on Lambda^k are minus sums of block products
        lap, dee[k] = np.zeros((2, len(xi), n_k, n_k))
        if lo:
            lap -= lo["d"] @ lo["d_star"]
            dee[k] -= lo["d_lambda_star"] @ lo["d_lambda"]
        if hi:
            lap -= hi["d_star"] @ hi["d"]
            dee[k] -= hi["d_star"] @ hi["d"]
            note("d", peak(hi["d"]))
            # the Lambda^k -> Lambda^{k+1} parts of <d a, b> and <a, d* b>
            a_k, b_up = a[:, mk], b[:, alg.masks(k + 1)]
            lhs += inner(k + 1, 1j * np.einsum("mij,mj->mi", hi["d"], a_k), b_up)
            rhs += inner(k, a_k, 1j * np.einsum("mij,mj->mi", hi["d_star"], b_up))
        if lo and hi:
            note("d_squared", peak(hi["d"] @ lo["d"]))
            note("d_lambda_squared", peak(lo["d_lambda"] @ hi["d_lambda"]))
        note("dee", peak(dee[k]))
        if k >= 2:
            L, Lam = alg.lpow(k - 2, 1), alg.lam(k)
            note("commutator_L", peak(dee[k] @ L - L @ dee[k - 2]))
            note("commutator_Lambda", peak(dee.pop(k - 2) @ Lam - Lam @ dee[k]))
        # Hodge decomposition: ker Delta_d, im d and im d* fill Lambda^k
        w, V = np.linalg.eigh(lap)
        kern = np.sum(w < 1e-8 * np.maximum(1.0, w[:, -1:]), axis=1)
        im_d, im_d_star = (rank(e["d"]) if e else 0 for e in (lo, hi))  # d* has the rank of d
        mismatch += np.count_nonzero(kern + im_d + im_d_star != n_k)
        # (=>) the kernel basis, the first kern columns of V, is closed and coclosed
        at = np.flatnonzero(kern)
        in_kernel = (np.arange(n_k) < kern[at, None])[:, None]
        note("harmonic_iff_closed_coclosed", sum(peak(np.where(in_kernel, e[name][at] @ V[at], 0.0))
                                                 for e, name in ((hi, "d"), (lo, "d_star")) if e), at)
        # (<=) the closed-and-coclosed subspace is no bigger than the kernel
        rows = np.concatenate([e[name] for e, name in ((hi, "d"), (lo, "d_star")) if e], axis=1)
        mismatch += np.count_nonzero(n_k - rank(rows) != kern)

    # per-mode scales: max(1, max|d(xi)|)^2 and max(1, max|D(xi)|)
    sc, scD = np.maximum(1.0, worst.pop("d")) ** 2, np.maximum(1.0, worst.pop("dee"))
    scale = {"commutator_L": scD, "commutator_Lambda": scD, "harmonic_iff_closed_coclosed": np.sqrt(sc)}
    out = {key: float(np.max(v / scale.get(key, sc))) for key, v in worst.items()}
    out["adjointness"] = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))))
    out["hodge_dim_mismatch"] = int(mismatch)
    return out
