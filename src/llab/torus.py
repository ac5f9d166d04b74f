"""Exact Fourier-space Hodge theory on flat tori T^{2n}.

A constant compatible triple makes every differential operator block-diagonal
over Fourier modes xi in Z^{2n}: on the mode-xi block, d acts as the wedge
with c(xi) = 2*pi*i * sum_j xi_j e^j.  The first-order operators d, d*
(g-adjoint), d^Lambda = d Lambda - Lambda d and d^{Lambda*} are linear in xi,
kept once per degree as 2n coefficient blocks Lambda^k -> Lambda^{k +- 1},
built from the triple's per-degree operators (`triple.ops`); Delta_d = dd* +
d*d and D = d* d + d^{Lambda*} d^Lambda (whose commutation with L and Lambda
drives the primitive decomposition of harmonic forms) are quadratic in xi,
with symmetric (j, l) coefficient blocks per degree.  An identity linear or
quadratic in xi holds at every xi, in the cutoff or beyond, iff its
coefficients satisfy it: `check_complex`, the Weitzenbock identity
Delta_d(xi) = 4 pi^2 |xi|^2_g I (which confines harmonic content to the
xi = 0 block), the Kahler Laplacian comparison, the d^Lambda/d* norm
identity L8, the L10 cross term and "closed anti-invariant => harmonic" are
proven there.  Two numbers are measured, not proven: L10's equivalence
constants, over mode-sparse random forms taken as one column batch per
degree, and the self-dual relation, which samples modes and reads their
operators on Lambda^0 and Lambda^2 off `FourierComplex.mode_ops`.  No
operator on the whole 4^n-dimensional algebra is formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from llab.algebra import (
    CompatibleTriple,
    Ops,
    _holomorphic_degree,
    _wedge_table,
    KForm,
    pq_projector_matrices,
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
_ADJOINT_OF = {"d_star": "d", "d_lambda_star": "d_lambda"}

# second-order operators as sums of products first(xi) second(xi), `second` applied first
_SECOND_ORDER = {
    "laplacian": (("d", "d_star"), ("d_star", "d")),  # Delta_d = d d* + d* d
    "dee": (("d_star", "d"), ("d_lambda_star", "d_lambda")),  # D = d* d + d^{Lambda*} d^Lambda
    "d_squared": (("d", "d"),),
    "d_lambda_squared": (("d_lambda", "d_lambda"),),
}


def _symmetric_product(X: np.ndarray, Y: np.ndarray, pairs=None) -> np.ndarray:
    """The symmetric coefficients Q[j, l] = -4 pi^2 (X_j Y_l + X_l Y_j) / 2 of
    x(xi) y(xi) = sum_{j,l} xi_j xi_l Q[j, l], for the first-order operators
    x(xi) = 2 pi i sum_j xi_j X_j and y(xi) alike.  A quadratic form in xi
    vanishes at every xi exactly when its symmetric coefficients vanish.
    With `pairs` = (j, l) index arrays, such as np.triu_indices(2n), only
    those coefficients, stacked: Q[pairs] for the price of them alone."""
    if pairs is not None:
        j, l = pairs
        return (-2 * np.pi ** 2) * (X[j] @ Y[l] + X[l] @ Y[j])
    P = X[:, None] @ Y[None, :]
    return (-2 * np.pi ** 2) * (P + P.transpose(1, 0, 2, 3))


def _adjoint_stack(ops: Ops, B: np.ndarray, k: int, k_to: int) -> np.ndarray:
    """The coefficients of x(xi)^*, the g-adjoint of x(xi) = 2 pi i sum_j xi_j
    B[j] : Lambda^k -> Lambda^{k_to}: -G_k^{-1} B[j]^H G_{k_to}, the minus
    because conj(2 pi i xi_j) = -2 pi i xi_j."""
    return -np.linalg.inv(ops.gram(k)) @ B.conj().transpose(0, 2, 1) @ ops.gram(k_to)


class _ModeOps:
    """The operators of one frequency xi, one degree at a time: `ops("d", k)`
    is d(xi) on Lambda^k, its coefficient block contracted with 2 pi i xi,
    formed when asked for."""

    def __init__(self, xi: tuple, fc: "FourierComplex"):
        self.xi = xi
        self._fc = fc

    def __call__(self, name: str, k: int) -> np.ndarray:
        return (2j * np.pi) * np.tensordot(np.asarray(self.xi, dtype=float), self._fc.block(name, k), axes=1)


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierComplex:
    """Finite Fourier truncation of the de Rham complex of (T^{2n}, t).

    Modes are all integer vectors with sup-norm <= N, in lexicographic
    order.  Every first-order operator is linear in xi, so it is kept as
    its 2n coefficient matrices on each degree (`block`), built from the
    triple's per-degree operators (`triple.ops`); `mode_ops` reads the
    operators of one mode off them, exact up to roundoff.  `block` and
    `quadratic` are built on first use and kept in `_cache`.
    """

    n: int
    N: int
    triple: CompatibleTriple
    modes: tuple = field(repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mode_ops(self, xi) -> _ModeOps:
        return _ModeOps(tuple(int(x) for x in xi), self)

    def dim(self, k: int) -> int:
        """C(2n, k), and 0 for a degree outside 0..2n."""
        return math.comb(2 * self.n, k) if 0 <= k <= 2 * self.n else 0

    def block(self, name: str, k: int) -> np.ndarray:
        """The real coefficients A (2n, rows, C(2n, k)) of a first-order
        operator on Lambda^k, op(xi) = 2 pi i sum_j xi_j A[j] : Lambda^k ->
        Lambda^{k + shift}; no rows or no columns where a degree leaves 0..2n.
        Coefficient j of d is e^{j+1} ^ ., d^Lambda is d Lambda - Lambda d,
        and d* and d^{Lambda*} are the adjoints of the blocks they pair with."""
        key = ("block", name, k)
        if key not in self._cache:
            top, to = 2 * self.n, k + _SHIFT[name]
            alg = self.triple.ops
            A = np.zeros((top, self.dim(to), self.dim(k)))  # empty when a degree leaves 0..2n
            if A.size and name == "d":  # one entry per product e^j ^ e^R of the a = 1 table
                p = _wedge_table(top, 1, k)
                A[p.left, p.target, p.right] = p.sign
            elif A.size and name == "d_lambda":
                if k >= 2:
                    A += self.block("d", k - 2) @ alg.lam(k)
                if k < top:
                    A -= alg.lam(k + 1) @ self.block("d", k)
            elif A.size:
                A = _adjoint_stack(alg, self.block(_ADJOINT_OF[name], to), to, k)
            A.flags.writeable = False
            self._cache[key] = A
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

    def random_form(self, k: int, rng: np.random.Generator, active_modes: int = 8) -> dict:
        """Mode-sparse random k-form {xi: Lambda^k coefficient vector}.  The
        active modes' real and imaginary parts are one draw, in the order of
        the modes."""
        alg = self.triple.ops
        n_active = min(active_modes, len(self.modes))
        chosen = np.sort(rng.choice(len(self.modes), size=n_active, replace=False))
        z = rng.standard_normal((n_active, 2, alg.size))
        V = (z[:, 0] + 1j * z[:, 1])[:, alg.masks(k)]
        return {self.modes[ci]: v for ci, v in zip(chosen, V)}


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

    def norm_sq(self, k: int, X: np.ndarray) -> np.ndarray:
        """||x||^2 = sum over modes of x^T G conj(x), one per form: the column
        sums of X * (G_k conj(X)), reduced by owner.  Zero outside 0 <= k <= 2n."""
        if not 0 <= k <= 2 * self.fc.n:
            return np.zeros(self.count)
        col = np.einsum("sm,sm->m", X, self.fc.triple.ops.gram(k) @ X.conj())
        return np.bincount(self.owner, col.real, self.count)


def _squares(fc: FourierComplex, op: str) -> dict:
    """{k: per coefficient j, max over l of |Q[j, l]|} for op(xi)^2 on each
    Lambda^k it maps into 0..2n, relative to max(1, 2 pi max|op coefficient|)^2.
    op(xi)^2 = 0 at every xi iff all vanish, i.e. the 2n coefficient matrices
    pairwise anticommute."""
    degrees = range(2 * fc.n - 1) if _SHIFT[op] > 0 else range(2, 2 * fc.n + 1)
    top = max(float(np.max(np.abs(fc.block(op, k)), initial=0.0)) for k in range(2 * fc.n + 1))
    scale = max(1.0, 2 * np.pi * top) ** 2
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


def verify_lemma_L8(fc: FourierComplex, tol: float = 1e-10) -> dict:
    """||d^Lambda a||^2 = ||d* a||^2 for every pure-type a at every xi, proven
    on the symmetric (j, l) coefficients, one degree at a time.

    ||x(xi) a||^2 = a^H G_k x(xi)^* x(xi) a, so the gap is the quadratic form of
    M = G_k (d^{Lambda*} d^Lambda - d d*)(xi) = G_k (D - Delta_d)(xi); on type
    (p,q) it vanishes at every xi iff Pi^{p,q}^H M[j, l] Pi^{p,q} = 0 for every
    pair (j, l).  Pi^{p,q} = F_pq F^{-1}_pq in the bigraded frame F_k
    (`triple.ops.frame_compound(k)`), so that is F_pq^H M[j, l] F_pq = 0: the
    entries of F^H M F joining two forms of one type.  The residual is
    relative to max(1, largest coefficient of G_k Q_D and G_k Q_Delta);
    `proven_types` counts the (degree, type) pairs the gap is proven on.
    """
    alg = fc.triple.ops
    top = 2 * fc.n
    pairs = np.triu_indices(top)
    worst = scale = 0.0
    types = 0
    for k in range(top + 1):
        G, F, p = alg.gram(k), alg.frame_compound(k), _holomorphic_degree(top, k)
        types += np.unique(p).size
        dee, lap = G @ fc.quadratic("dee", k)[pairs], G @ fc.quadratic("laplacian", k)[pairs]
        scale = max(scale, float(np.max(np.abs(dee))), float(np.max(np.abs(lap))))
        worst = max(worst, float(np.max(np.abs(F.conj().T @ (dee - lap) @ F)[..., p[:, None] == p])))
    worst /= max(1.0, scale)
    return {"max_residual": worst, "proven_types": int(types), "passed": bool(worst < tol)}


def verify_lemma_L10(fc: FourierComplex, samples: int, seed: int, tol: float = 1e-10) -> dict:
    """Cross-term orthogonality, proven, and norm equivalence, measured, over
    Lefschetz components.

    A k-form a = sum_r L^r b_r has components b_r = C_r a, C_r the r-th
    component map of one `primitive_decompose` of the identity on Lambda^k.
      * <L^p D b_p, L^q b_q> = 0 for p != q (D = d*d + d^{Lambda*}d^Lambda) at
        every xi and every a iff (L^q C_q)^T G_k L^p Q_D[j, l] C_p = 0 for
        every pair (j, l); `max_cross_term` is its largest entry, relative to
        max(1, max|Q_D|), and `cross_pairs` counts the (degree, p != q)
        pairs of Lefschetz levels it is proven on.
      * ||d a||^2 + ||d^Lambda a||^2 is bounded between measured multiples
        c_min, c_max of sum_r ||d b_r||^2 (the constants are reported, not
        asserted, per degree), over random finite-mode forms: the samples of
        one degree are one column batch, decomposed by a single
        `primitive_decompose`.
    """
    from llab.lefschetz import primitive_decompose

    alg = fc.triple.ops
    pairs = np.triu_indices(2 * fc.n)
    results = {}
    worst_cross = scale = 0.0
    cross_pairs = 0
    for k in range(2 * fc.n + 1):
        maps = primitive_decompose(KForm(fc.n, k, np.eye(fc.dim(k))), fc.triple).components
        LC, LQC = {}, {}
        for r, b in maps.items():
            j, C = k - 2 * r, b.data.real  # a real triple has real component maps
            Q = fc.quadratic("dee", j)[pairs]
            scale = max(scale, float(np.max(np.abs(Q))))
            LC[r], LQC[r] = alg.lpow(j, r) @ C, alg.lpow(j, r) @ Q @ C
        for p, q in itertools.permutations(maps, 2):
            cross_pairs += 1
            worst_cross = max(worst_cross, float(np.max(np.abs(LC[q].T @ alg.gram(k) @ LQC[p]))))

        forms = [fc.random_form(k, np.random.default_rng([seed, k, idx])) for idx in range(samples)]
        B = _Columns(fc, forms, k)
        comps = primitive_decompose(KForm(fc.n, k, B.V), fc.triple).components
        num = B.norm_sq(k + 1, B.apply("d", k, B.V)) + B.norm_sq(k - 1, B.apply("d_lambda", k, B.V))
        den = np.zeros(samples)
        for r, b in comps.items():
            den += B.norm_sq(k - 2 * r + 1, B.apply("d", k - 2 * r, b.data))
        keep = den > 1e-12
        if keep.any():
            ratios = num[keep] / den[keep]
            results[k] = {"c_min": float(ratios.min()), "c_max": float(ratios.max()),
                          "samples": int(keep.sum())}
    worst_cross /= max(1.0, scale)
    return {
        "max_cross_term": worst_cross,
        "cross_pairs": cross_pairs,
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
        dbar_star.append(_adjoint_stack(alg, dbar[k], k, k + 1))
    pairs = np.triu_indices(top)  # Q[j, l] = Q[l, j]: n(2n + 1) distinct pairs
    worst = leak_dbar = leak_lap = scale = 0.0
    for k in range(top + 1):
        lap = fc.quadratic("laplacian", k)[pairs]
        lap_dbar = 0.0  # dbar dbar* through degree k - 1, dbar* dbar through k + 1
        if k:
            lap_dbar = lap_dbar + _symmetric_product(dbar[k - 1], dbar_star[k - 1], pairs)
        if k < top:
            lap_dbar = lap_dbar + _symmetric_product(dbar_star[k], dbar[k], pairs)
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
    """Anti-invariant (J a = -a) 2-form checks, on a basis of Lambda^2_-.

    (i) Measures the star identity  *a = c L^{n-2} a = c (a ^ omega^{n-2})
        against both candidate normalizations c = 1/(n-2)! and c = 1/(n-1)!,
        reporting which matches (both coincide at n = 2).
    (ii) Proves that closed anti-invariant forms are harmonic at every mode.
        d(xi) commutes with L, so *a = c L^{n-2} a (c = 1/(n-2)!) gives
        d*(xi) a = -* d(xi) * a = T d(xi) a, T = c *_1^{-1} L^{n-2} on
        Lambda^3 (-* = *_1^{-1} on Lambda^{2n-1}), checked per coefficient j
        of d(xi) and d*(xi): a closed anti-invariant form is coclosed, hence
        harmonic, hence zero at xi != 0 by the Weitzenbock identity on
        Lambda^2.  At xi = 0 everything is harmonic.
        `max_harmonicity_residual` is the coefficient residual of d* = T d,
        relative to max(1, max|d* coefficient|), and the closed dimension at
        xi != 0 is 0 when both proofs hold (None when one fails).
    (iii) Reports the invariant/anti-invariant dimension split.
    """
    n = fc.n
    if n < 2:
        raise ValueError("anti-invariant star identity needs n >= 2")
    alg = fc.triple.ops
    J2 = alg.jpull(2)
    # J2^2 = I on 2-forms; split by the (possibly oblique) projectors (I -+ J2)/2
    eye = np.eye(len(J2))
    anti = _image_basis(0.5 * (eye - J2))
    inv = _image_basis(0.5 * (eye + J2))
    anti_dim, inv_dim = anti.shape[1], inv.shape[1]

    # (i) star normalization measurement, column by column of the basis
    star_a, power_a = alg.star(2) @ anti, alg.lpow(2, n - 2) @ anti
    col_scale = np.maximum(1.0, np.max(np.abs(star_a), axis=0))
    res_a, res_b = (float(np.max(np.max(np.abs(star_a - (1.0 / math.factorial(m)) * power_a), axis=0) / col_scale))
                    for m in (n - 2, n - 1))
    if res_a < tol and res_b < tol:
        matches = "both (coincide at n=2)"
    elif res_a < tol:
        matches = "1/(n-2)!"
    elif res_b < tol:
        matches = "1/(n-1)!"
    else:
        matches = "neither"

    # (ii) closed anti-invariant => coclosed, per coefficient of d and d*
    T = (1.0 / math.factorial(n - 2)) * np.linalg.solve(alg.star(1), alg.lpow(3, n - 2))
    d_star, d = fc.block("d_star", 2) @ anti, fc.block("d", 2) @ anti
    coclosed = float(np.max(np.abs(d_star - T @ d))) / max(1.0, float(np.max(np.abs(d_star))))
    proven = coclosed < tol and _weitzenbock(fc, 2)[1]

    return {
        "n": n,
        "anti_invariant_dim": anti_dim,
        "invariant_dim": inv_dim,
        "total_dim": anti_dim + inv_dim,
        "star_residual_over_factorial_nm2": res_a,
        "star_residual_over_factorial_nm1": res_b,
        "star_normalization_match": matches,
        "closed_anti_invariant_dim_nonzero_modes": 0 if proven else None,
        "max_harmonicity_residual": coclosed,
        "passed": bool(matches != "neither" and proven and anti_dim + inv_dim == math.comb(2 * n, 2)),
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

    cand = np.empty((len(prim11), 1 + rank), dtype=complex)  # on Lambda^2
    cand[:, 0] = t.omega_form().data
    cand[:, 1:] = prim11
    G1, G3 = alg.gram(1), alg.gram(3)

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
        d2 = ops("d", 2)
        A = d2 @ cand                        # closedness constraint matrix
        _, sv, Vt = np.linalg.svd(A)
        ker_dim = cand.shape[1] - int(np.sum(sv > 1e-8 * max(1.0, sv[0])))
        if ker_dim == 0:
            continue
        sol = Vt.conj().T[:, cand.shape[1] - ker_dim:] @ (  # a random solution in (f, a0)
            rng.standard_normal(ker_dim) + 1j * rng.standard_normal(ker_dim)
        )
        f_coef = sol[0]
        a_plus = cand @ sol                  # closed invariant 2-form, this mode
        a0 = cand[:, 1:] @ sol[1:]
        # f is the 0-form f_coef e^{2 pi i xi x}; df lives on the same mode
        df = ops("d", 0)[:, 0] * f_coef
        nd_f = float((df @ G1 @ np.conj(df)).real)
        da0 = d2 @ a0
        nd_a0 = float((da0 @ G3 @ np.conj(da0)).real)
        if nd_f > 1e-12:
            n_nontrivial += 1
            worst_ratio_dev = max(worst_ratio_dev, abs(nd_a0 / nd_f - (n - 1)))
            dlam2 = ops("d_lambda", 2)
            dlam = dlam2 @ a_plus
            worst_dlam = max(
                worst_dlam,
                float(np.max(np.abs(dlam - n * df))) / max(1.0, float(np.max(np.abs(df)))),
            )
            # measured coefficient in d^Lambda(f omega) = c df
            dlam_fom = dlam2 @ (f_coef * cand[:, 0])
            c_meas = complex(dlam_fom @ G1 @ np.conj(df)) / nd_f
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
