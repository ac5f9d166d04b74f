"""Exact Fourier-space Hodge theory on flat tori T^{2n}.

A constant compatible triple makes every differential operator block-diagonal
over Fourier modes xi in Z^{2n}: on the mode-xi block, d acts as the wedge
with c(xi) = 2*pi*i * sum_j xi_j e^j.  This module realises the per-mode
operators d, d* (g-adjoint), d^Lambda = d Lambda - Lambda d, the Hodge
Laplacian Delta_d = dd* + d*d, and the degree-preserving operator

    D = d* d + d^{Lambda*} d^Lambda

(whose commutation with L and Lambda is the engine behind the primitive
decomposition of harmonic forms), and verifies the decomposition and identity
suite on this compact model.

Everything lives on the full exterior algebra indexed by bitmasks, so a
per-mode operator is a single (4^n x 4^n) complex matrix; forms with several
active modes are dicts {xi: coefficient vector}.  Harmonic content on a flat
torus is exactly the xi = 0 block, which the harmonic-space scan confirms
rather than assumes.
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
    "TorusForm",
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
    """The Lambda^{k_in} -> Lambda^{k_out} block of a full-algebra matrix."""
    return A[np.ix_(alg.masks(k_out), alg.masks(k_in))]


class _ModeOps:
    """The operators of one frequency xi, each formed the first time it is
    read: a first-order operator is its coefficient stack contracted with
    2 pi i xi, and Delta_d and D are products of those."""

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
    # D = d* d + d^{Lambda*} d^Lambda
    dee = cached_property(lambda self: self.d_star @ self.d + self.d_lambda_star @ self.d_lambda)


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

    def random_form(
        self,
        k: int,
        rng: np.random.Generator,
        active_modes: int = 8,
        pq: tuple | None = None,
    ) -> "TorusForm":
        """Mode-sparse random k-form; optionally projected to pure type (p,q)."""
        alg = self.triple.ops
        mk = alg.masks(k)
        n_active = min(active_modes, len(self.modes))
        chosen = rng.choice(len(self.modes), size=n_active, replace=False)
        comps = {}
        for ci in sorted(chosen):
            xi = self.modes[ci]
            a = rng.standard_normal(alg.size) + 1j * rng.standard_normal(alg.size)
            v = np.zeros(alg.size, dtype=complex)
            v[mk] = a[mk]
            if pq is not None:
                v = alg.pq_proj[pq] @ v
            if np.max(np.abs(v)) > 0:
                comps[xi] = v
        return TorusForm(self, comps)


@dataclass
class TorusForm:
    """A finite-mode form: {xi: full-algebra coefficient vector}."""

    fc: FourierComplex
    comps: dict

    def apply(self, opname: str) -> "TorusForm":
        out = {}
        for xi, v in self.comps.items():
            ops = self.fc.mode_ops(xi)
            out[xi] = getattr(ops, opname) @ v
        return TorusForm(self.fc, out)

    def apply_matrix(self, A: np.ndarray) -> "TorusForm":
        return TorusForm(self.fc, {xi: A @ v for xi, v in self.comps.items()})

    def inner(self, other: "TorusForm") -> complex:
        G = self.fc.triple.ops.G
        total = 0.0 + 0.0j
        for xi, v in self.comps.items():
            w = other.comps.get(xi)
            if w is not None:
                total += v @ G @ np.conj(w)
        return complex(total)

    def norm_sq(self) -> float:
        return float(self.inner(self).real)


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


def _kernel_basis(A: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal kernel basis (columns) of a PSD Hermitian matrix."""
    w, V = np.linalg.eigh(A)
    scale = max(1.0, float(w[-1]) if len(w) else 1.0)
    return V[:, w < tol * scale]


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
    # the kernel threshold of _kernel_basis, one mode per row
    nonzero_kernel = int(np.sum(w < 1e-8 * np.maximum(1.0, w[:, -1:])))
    # xi = 0 is always a mode; d vanishes there, so its whole degree block is harmonic
    total = len(mk) + nonzero_kernel

    residuals = {}
    bidegree = {}
    for (p, q), P in pq_projector_matrices(fc.triple, k).items():
        bidegree[(p, q)] = int(round(np.trace(P).real))
    residuals["bidegree_trace_vs_rank"] = max(
        abs(np.trace(P).real - np.linalg.matrix_rank(P, tol=1e-8))
        for P in pq_projector_matrices(fc.triple, k).values()
    )

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
    stacked = (
        np.hstack(list(blocks.values()))
        if blocks
        else np.zeros((H_basis.shape[0], 0), dtype=complex)
    )
    # spanning: every block vector lies in H (residual), and ranks agree
    if stacked.shape[1]:
        proj = H_basis @ (H_basis.conj().T @ stacked)
        residual = float(np.max(np.abs(stacked - proj)) / max(1.0, np.max(np.abs(stacked))))
        rank_total = int(np.linalg.matrix_rank(stacked, tol=1e-8))
    else:
        residual = 0.0
        rank_total = 0

    angles = {}
    keys = sorted(blocks)
    for i, r1 in enumerate(keys):
        for r2 in keys[i + 1:]:
            B1, _ = np.linalg.qr(blocks[r1])
            B2, _ = np.linalg.qr(blocks[r2])
            s = np.linalg.svd(B1.conj().T @ B2, compute_uv=False)
            angles[f"{r1}:{r2}"] = float(np.degrees(np.arccos(np.clip(np.max(s), 0, 1))))

    report = {
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
    return report


def verify_lemma_L8(fc: FourierComplex, samples: int, seed: int, tol: float = 1e-10) -> dict:
    """|  ||d^Lambda a||^2 - ||d* a||^2 | / ||a||^2 over random pure-type forms."""
    worst = 0.0
    cases = 0
    for idx in range(samples):
        rng = np.random.default_rng([seed, idx])
        n = fc.n
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        a = fc.random_form(p + q, rng, pq=(p, q))
        ns = a.norm_sq()
        if ns < 1e-12:
            continue
        lhs = a.apply("d_lambda").norm_sq()
        rhs = a.apply("d_star").norm_sq()
        worst = max(worst, abs(lhs - rhs) / ns)
        cases += 1
    return {"samples": cases, "max_residual": worst, "passed": bool(worst < tol)}


def _primitive_components(fc: FourierComplex, a: TorusForm, k: int) -> dict:
    """Per-mode Lefschetz components of a degree-k TorusForm: r -> TorusForm."""
    from llab.lefschetz import primitive_decompose

    alg = fc.triple.ops
    out: dict[int, dict] = {}
    for xi, v in a.comps.items():
        dec = primitive_decompose(KForm(fc.n, k, v[alg.masks(k)]), fc.triple)
        for r, beta in dec.components.items():
            full = np.zeros(alg.size, dtype=complex)
            full[alg.masks(beta.k)] = beta.data
            out.setdefault(r, {})[xi] = full
    return {r: TorusForm(fc, comps) for r, comps in out.items()}


def verify_lemma_L10(fc: FourierComplex, samples: int, seed: int, tol: float = 1e-10) -> dict:
    """Cross-term orthogonality and norm equivalence over Lefschetz components.

    For random finite-mode k-forms a = sum_r L^r b_r:
      * <L^p D b_p, L^q b_q> = 0 for p != q (D = d*d + d^{Lambda*}d^Lambda);
      * ||d a||^2 + ||d^Lambda a||^2 is bounded between measured multiples
        c_min, c_max of sum_r ||d b_r||^2 (the constants are reported, not
        asserted, per degree).
    """
    Lr = [np.linalg.matrix_power(fc.triple.ops.L, r) for r in range(fc.n + 1)]
    results = {}
    worst_cross = 0.0
    for k in range(2 * fc.n + 1):
        ratios = []
        for idx in range(samples):
            rng = np.random.default_rng([seed, k, idx])
            a = fc.random_form(k, rng)
            comps = _primitive_components(fc, a, k)
            keys = sorted(comps)
            # cross terms
            scale = max(a.norm_sq(), 1.0)
            Lb = {r: comps[r].apply_matrix(Lr[r]) for r in keys}
            for r1 in keys:
                LDb = comps[r1].apply("dee").apply_matrix(Lr[r1])
                for r2 in keys:
                    if r2 != r1:
                        worst_cross = max(worst_cross, abs(LDb.inner(Lb[r2])) / scale)
            num = a.apply("d").norm_sq() + a.apply("d_lambda").norm_sq()
            den = sum(comps[r].apply("d").norm_sq() for r in keys)
            if den > 1e-12:
                ratios.append(num / den)
        if ratios:
            results[k] = {"c_min": float(min(ratios)), "c_max": float(max(ratios)),
                          "samples": len(ratios)}
    return {
        "max_cross_term": worst_cross,
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
    (ii) Verifies per mode that closed anti-invariant forms are harmonic:
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

    # (ii) closed anti-invariant => harmonic, mode by mode
    anti_full = np.zeros((alg.size, anti_dim), dtype=complex)
    anti_full[m2, :] = anti
    worst_harm = 0.0
    nonzero_closed_dim = 0
    for xi in fc.modes:
        ops = fc.mode_ops(xi)
        dA = ops.d @ anti_full
        if any(xi):
            # closed anti-invariant subspace on this mode
            _, s, Vt = np.linalg.svd(dA)
            ker_dim = anti_dim - int(np.sum(s > 1e-8 * max(1.0, s[0])))
            nonzero_closed_dim += ker_dim
            if ker_dim:
                K = Vt.conj().T[:, anti_dim - ker_dim:]
                harm = ops.laplacian @ (anti_full @ K)
                worst_harm = max(worst_harm, float(np.max(np.abs(harm))))
        else:
            harm = ops.laplacian @ anti_full
            worst_harm = max(worst_harm, float(np.max(np.abs(harm))))

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
        # measured coefficient in d^Lambda(f omega) = c df, any mode with df != 0
        if nd_f > 1e-12:
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
    """
    alg = fc.triple.ops
    rng = np.random.default_rng(0)
    modes = list(fc.modes)
    if max_modes is not None and len(modes) > max_modes:
        keep = rng.choice(len(modes), size=max_modes, replace=False)
        modes = [fc.modes[i] for i in sorted(keep)] + [tuple([0] * 2 * fc.n)]
    out = {
        "d_squared": 0.0, "d_lambda_squared": 0.0, "adjointness": 0.0,
        "commutator_L": 0.0, "commutator_Lambda": 0.0,
        "hodge_dim_mismatch": 0, "harmonic_iff_closed_coclosed": 0.0,
    }
    for xi in modes:
        ops = fc.mode_ops(xi)
        sc = max(1.0, float(np.max(np.abs(ops.d))) ** 2)
        out["d_squared"] = max(out["d_squared"], float(np.max(np.abs(ops.d @ ops.d))) / sc)
        out["d_lambda_squared"] = max(
            out["d_lambda_squared"], float(np.max(np.abs(ops.d_lambda @ ops.d_lambda))) / sc
        )
        a = rng.standard_normal(alg.size) + 1j * rng.standard_normal(alg.size)
        b = rng.standard_normal(alg.size) + 1j * rng.standard_normal(alg.size)
        lhs = (ops.d @ a) @ alg.G @ np.conj(b)
        rhs = a @ alg.G @ np.conj(ops.d_star @ b)
        out["adjointness"] = max(
            out["adjointness"], abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
        )
        scD = max(1.0, float(np.max(np.abs(ops.dee))))
        out["commutator_L"] = max(
            out["commutator_L"], float(np.max(np.abs(ops.dee @ alg.L - alg.L @ ops.dee))) / scD
        )
        out["commutator_Lambda"] = max(
            out["commutator_Lambda"],
            float(np.max(np.abs(ops.dee @ alg.Lam - alg.Lam @ ops.dee))) / scD,
        )
        # Hodge decomposition per degree, and harmonic <=> closed & coclosed
        for k in range(2 * fc.n + 1):
            lap_k = _degree_block(alg, ops.laplacian, k, k)
            kb = _kernel_basis(lap_k)
            kern = kb.shape[1]
            dk = _degree_block(alg, ops.d, k + 1, k) if k < 2 * fc.n else None
            dkm = _degree_block(alg, ops.d, k, k - 1) if k > 0 else None
            im_d = np.linalg.matrix_rank(dkm, tol=1e-8) if dkm is not None and dkm.size else 0
            im_ds = np.linalg.matrix_rank(dk, tol=1e-8) if dk is not None and dk.size else 0
            if kern + im_d + im_ds != lap_k.shape[0]:
                out["hodge_dim_mismatch"] += 1
            # (=>) harmonic basis is closed and coclosed
            if kb.size:
                full = np.zeros((alg.size, kb.shape[1]), dtype=complex)
                full[alg.masks(k)] = kb
                r1 = float(np.max(np.abs(ops.d @ full)))
                r2 = float(np.max(np.abs(ops.d_star @ full)))
                out["harmonic_iff_closed_coclosed"] = max(
                    out["harmonic_iff_closed_coclosed"], (r1 + r2) / np.sqrt(sc)
                )
            # (<=) the closed-and-coclosed subspace is no bigger than the kernel
            rows = []
            if dk is not None and dk.size:
                rows.append(dk)
            ds_k = _degree_block(alg, ops.d_star, k - 1, k) if k > 0 else None
            if ds_k is not None and ds_k.size:
                rows.append(ds_k)
            if rows:
                stack = np.vstack(rows)
                both = stack.shape[1] - np.linalg.matrix_rank(stack, tol=1e-8)
            else:
                both = lap_k.shape[0]
            if both != kern:
                out["hodge_dim_mismatch"] += 1
    return out
