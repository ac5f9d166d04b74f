"""Reference loops: the per-mask constructions of every operator block.

These are the slow, obvious versions of the basis-product tables, of the
operator blocks of `llab.algebra.CompatibleTriple` (index-and-sign tables,
cofactor steps) and of the torus model's whole-algebra operators: one loop
over basis masks per entry, one LAPACK determinant per minor.
Tests compare the fast code against them; nothing in those loops reads a
block of the triple except the (1,0) coframe, whose choice of basis is not
unique.

`ref_is_primitive` is the primitivity test as it was first written: the
norm of L^{n-k+1} a, a form above the middle degree, taken by `norm` from
the Gram compound of that degree, which `llab.lefschetz.is_primitive` now
reads from the complementary one.

`ref_form_from_json` is the wire-format parser that puts every
coefficient entry through every check, in order, the path that the exact
type tests of `llab.algebra.form_from_json` now spare well-formed entries.

`product_compound` is the cofactor step of the compounds with each term's
sign applied by a product, which `llab.algebra._compound` now reads with
the gather; the two must agree bit for bit.

The identity cell of `verify-identities` is kept here too as chains of
operator products applied to each seeded batch (`chain_cell_residuals`),
the evaluation that the residual operators of `llab.lefschetz` replace;
and as those operators each applied to its batch, exactly zero or not,
with the batch's scale taken afresh every time (`product_cell_residuals`),
the evaluation whose numbers `llab.suites._cell_residuals` keeps bit for
bit.

So are the whole-array evaluations of the hyperbolic form checks
(`whole_bounded_primitive`, `whole_crossterm_constant`,
`whole_annulus_decay`) and of the mesh geometry (`whole_geometry`): every
per-edge and per-triangle chain over the whole mesh at once, which
`llab.hyperbolic.forms` and `DiscMesh.geometry` run block by block; and
the COO build of `ring_prolongation` (`whole_ring_prolongation`), which
the mesh module now fills straight into CSR.

`ref_pq_decompose` is the type split as it was first written: one solve
with the frame compound of the form's own degree, which above the middle
degree `llab.algebra.pq_decompose` replaces by a solve in the
complementary degree.  It reads `CompatibleTriple.frame_compound`, so that
up to the middle degree the two agree bit for bit.

`ref_decompose_file` is `llab decompose` as it was before it returned the
document it writes: its residuals scaled by `norm`, its result converted
with `form_to_json`.  `merge_sign`, the sign of one basis product by
transposition counting, and the wire round trip, the triangle areas and
the cutoff f that only tests read (`roundtrip_form_json`,
`triangle_areas`, `cutoff_f`) live here too.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from functools import cached_property
from pathlib import Path

import numpy as np

from llab.algebra import (
    BigradedForm,
    CompatibleTriple,
    KForm,
    _apply,
    _bidegree_columns,
    _check_wire_n,
    _field,
    _is_finite,
    _is_number,
    _wedge_table,
    basis_masks,
    form_from_json,
    form_to_json,
    hodge_star,
    indices_to_mask,
    inner,
    j_action,
    mask_to_indices,
    norm,
    pq_decompose,
    triple_from_json,
    weil_operator,
)
from llab.hyperbolic.forms import (
    _GL_T,
    _GL_W,
    AnnulusDecayTable,
    CutoffProfile,
    PrimitiveOneForm,
    _cutoff_f,
    _theta_components,
    _whitney_midpoint_major,
)
from llab.hyperbolic.mesh import DiscMesh, _ring_counts, _signed_areas
from llab.reports import dump_json_deterministic
from llab.lefschetz import (
    PrimitivityResult,
    _power,
    _primitivity,
    _rel_max,
    dual_lefschetz,
    lefschetz_L,
    lefschetz_power_matrix,
    primitive_basis,
    primitive_decompose,
    symplectic_star,
)


def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of sorting the concatenation e^A wedge e^B into ascending order.

    Counts transpositions: pairs (a in A, b in B) with a > b.
    """
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        # generators of A strictly above this generator of B
        above = mask_a >> low.bit_length()
        if above.bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


def minor_sets(dim: int, k: int) -> list[np.ndarray]:
    return [np.array(mask_to_indices(m), dtype=int) - 1 for m in basis_masks(dim, k)]


def product_compound(M, dim, k, lower):
    """`llab.algebra._compound` with the sign of each cofactor term applied
    by a product, as it was first written; the signed gather there must
    give the same bits."""
    if k == 0:
        return np.ones((1, 1), dtype=M.dtype)
    size = math.comb(dim, k)
    p = _wedge_table(dim, 1, k - 1)
    gen, rest, sign = (x.reshape(size, k) for x in (p.left, p.right, p.sign))
    first, others = M[gen[:, 0]], lower[rest[:, 0]]
    out = np.zeros((size, size), dtype=np.result_type(M, lower))
    for t in range(k):
        out += first.take(gen[:, t], axis=1) * sign[:, t] * others.take(rest[:, t], axis=1)
    return out


def ref_compound(M, dim, k):
    if k == 0:
        return np.ones((1, 1), dtype=M.dtype)
    idx = np.array(minor_sets(dim, k))
    return np.linalg.det(M[idx[:, None, :, None], idx[None, :, None, :]])


def ref_contraction(dim, k, axis):
    rows = {m: i for i, m in enumerate(basis_masks(dim, k - 1))}
    M = np.zeros((len(rows), math.comb(dim, k)))
    bit = 1 << axis
    for c, m in enumerate(basis_masks(dim, k)):
        if m & bit:
            M[rows[m ^ bit], c] = -1.0 if (m & (bit - 1)).bit_count() & 1 else 1.0
    return M


def ref_wedge_table(dim: int, a: int, b: int):
    """The nonzero products e^{left} ^ e^{right} = sign e^{target} of degree-a
    and degree-b basis forms, one `merge_sign` call per entry: (target, left,
    right, sign) columns, by target, then by the left factor's generators in
    lexicographic order."""
    left = {m: i for i, m in enumerate(basis_masks(dim, a))}
    right = {m: i for i, m in enumerate(basis_masks(dim, b))}
    rows = []
    for t, m in enumerate(basis_masks(dim, a + b)):
        gens = [1 << i for i in range(dim) if m >> i & 1]
        for picked in itertools.combinations(gens, a):
            lm = sum(picked)
            rows.append((t, left[lm], right[m ^ lm], merge_sign(lm, m ^ lm)))
    cols = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    return cols[0], cols[1], cols[2], cols[3].astype(float)


def ref_wedge(a: KForm, b: KForm) -> np.ndarray:
    dim, k = 2 * a.n, a.k + b.k
    index = {m: i for i, m in enumerate(basis_masks(dim, k))}
    out = np.zeros(math.comb(dim, k), dtype=complex)
    for ia, ma in enumerate(basis_masks(dim, a.k)):
        for ib, mb in enumerate(basis_masks(dim, b.k)):
            if not ma & mb:
                out[index[ma | mb]] += merge_sign(ma, mb) * a.data[ia] * b.data[ib]
    return out


class ReferenceOps:
    """Every operator block of a triple as the per-mask loops built it, and
    the whole-algebra (4^n x 4^n, indexed by mask) G, L, Lambda and e^j ^ ."""

    def __init__(self, t: CompatibleTriple):
        self.t, self.dim = t, 2 * t.n
        self.size = 1 << self.dim

    def gram(self, k):
        return ref_compound(self.t.g_inv, self.dim, k)

    def omega_gram(self, k):
        return ref_compound(self.t.omega_inv, self.dim, k)

    def _star(self, gram, k):
        index_c = {m: i for i, m in enumerate(basis_masks(self.dim, self.dim - k))}
        vol = self.t.volume_form().data[0].real
        S = np.zeros((len(index_c), gram.shape[1]))
        for i, m in enumerate(basis_masks(self.dim, k)):
            comp = (self.size - 1) ^ m
            S[index_c[comp], :] += merge_sign(m, comp) * gram[i, :] * vol
        return S

    def star(self, k):
        return self._star(self.gram(k), k)

    def sstar(self, k):
        return self._star(self.omega_gram(k), k)

    def jpull(self, k):
        return ref_compound(self.t.J.T, self.dim, k)

    def frame_compound(self, k):
        return ref_compound(self.t.frame, self.dim, k)

    def pq(self, k):
        n = self.t.n
        C = self.frame_compound(k)
        Cinv = np.linalg.inv(C)
        low = (1 << n) - 1
        out = {}
        for p in range(max(0, k - n), min(k, n) + 1):
            sel = np.array([1.0 if (m & low).bit_count() == p else 0.0 for m in basis_masks(self.dim, k)])
            out[(p, k - p)] = C @ (sel[:, None] * Cinv)
        return out

    def weil(self, k):
        return sum((1j ** ((p - q) % 4)) * M for (p, q), M in self.pq(k).items())

    def lpow(self, k, r):
        if r == 0:
            return np.eye(math.comb(self.dim, k))
        if r > 1:
            return self.lpow(k + 2 * (r - 1), 1) @ self.lpow(k, r - 1)
        rows = {m: i for i, m in enumerate(basis_masks(self.dim, k + 2))}
        M = np.zeros((len(rows), math.comb(self.dim, k)))
        w = self.t.omega
        for c, m in enumerate(basis_masks(self.dim, k)):
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    bits = (1 << i) | (1 << j)
                    if not m & bits:
                        M[rows[m | bits], c] += w[i, j] * merge_sign(bits, m)
        return M

    def lam(self, k):
        w = self.t.omega_inv
        M = np.zeros((math.comb(self.dim, k - 2), math.comb(self.dim, k)))
        for i in range(self.dim):
            for j in range(self.dim):
                M += 0.5 * w[i, j] * (ref_contraction(self.dim, k - 1, i) @ ref_contraction(self.dim, k, j))
        return M

    def prim_projector(self, k):
        # the kernel of Lambda, as an orthogonal projector (a basis is not unique)
        if k < 2:
            return np.eye(math.comb(self.dim, k))
        _, s, Vt = np.linalg.svd(self.lam(k))
        rank = int(np.sum(s > 1e-10 * s[0]))
        return Vt[rank:].T @ Vt[rank:].conj()

    # -- the whole algebra, mask-indexed ------------------------------------

    def full(self, block, shift):
        """The 4^n x 4^n matrix with the blocks Lambda^k -> Lambda^{k+shift}."""
        out = np.zeros((self.size, self.size), dtype=complex)
        for k in range(self.dim + 1):
            if 0 <= k + shift <= self.dim:
                out[np.ix_(basis_masks(self.dim, k + shift), basis_masks(self.dim, k))] = block(k)
        return out

    @cached_property
    def W(self):
        """W[j] = e^{j+1} ^ . on the whole algebra."""
        W = np.zeros((self.dim, self.size, self.size))
        for j in range(self.dim):
            b = 1 << j
            for m in range(self.size):
                if not m & b:
                    W[j, m | b, m] = merge_sign(b, m)
        return W

    @cached_property
    def G(self):
        return self.full(self.gram, 0)

    @cached_property
    def L(self):
        return self.full(lambda k: self.lpow(k, 1), 2)

    @cached_property
    def Lam(self):
        return self.full(self.lam, -2)

    @cached_property
    def G_inv(self):
        return np.linalg.inv(self.G)

    def adjoint(self, A):
        """g-adjoint on the whole algebra w.r.t. <a, b> = a^T G conj(b)."""
        return self.G_inv @ A.conj().T @ self.G


# ---------------------------------------------------------------------------
# the identity cell as chains of products on each batch
# ---------------------------------------------------------------------------


class Ladder:
    """The products of one form or column batch `a` that its identities
    share: the powers L^r a, Lambda a and W(a), each formed on first read."""

    def __init__(self, a: KForm, t: CompatibleTriple):
        self.a, self.t = a, t
        self._powers = {0: a}

    def power(self, r: int) -> KForm:
        if r not in self._powers:
            self._powers[r] = _power(self.a, r, self.t)
        return self._powers[r]

    @cached_property
    def lam(self) -> KForm:
        return dual_lefschetz(self.a, self.t)

    @cached_property
    def weil(self) -> KForm:
        return weil_operator(self.a, self.t)


def chain_star_involution(a: KForm, t: CompatibleTriple) -> np.ndarray:
    return symplectic_star(symplectic_star(a, t), t).data - a.data


def chain_conjugations(X: Ladder) -> dict:
    a, t = X.a, X.t
    out = {}
    for name, star, sign in (("symplectic_star", symplectic_star, 1), ("hodge_star", hodge_star, (-1) ** a.k)):
        if a.k < 2:
            out[name] = X.lam.data
        else:
            out[name] = X.lam.data - sign * star(lefschetz_L(star(a, t), t), t).data
    return out


def chain_weil_consistency(a: KForm, t: CompatibleTriple) -> np.ndarray:
    return j_action(a, t).data - weil_operator(a, t).data


def chain_commutators(X: Ladder, levels) -> dict:
    a, t = X.a, X.t
    n, k = a.n, a.k
    out = {}
    for i in levels:
        if k + 2 * (i - 1) > 2 * n:
            out[i] = np.zeros((0,) + a.data.shape[1:], dtype=complex)
            continue
        rhs = i * (k - n + i - 1) * X.power(i - 1).data
        lhs = np.zeros_like(rhs)
        if k >= 2:
            lhs = lhs + _power(X.lam, i, t).data
        if k + 2 * i <= 2 * n:
            lhs = lhs - dual_lefschetz(X.power(i), t).data
        out[i] = lhs - rhs
    return out


def chain_roundtrip(a: KForm, t: CompatibleTriple) -> np.ndarray:
    return primitive_decompose(a, t).reconstruct(t).data - a.data


def chain_primitivity(beta: KForm, t: CompatibleTriple) -> tuple:
    n, k = beta.n, beta.k
    return dual_lefschetz(beta, t).data, _apply(lefschetz_power_matrix(t, k, n - k + 1), beta.data)


def ref_is_primitive(a: KForm, t: CompatibleTriple, tol: float = 1e-12) -> PrimitivityResult:
    n, k = a.n, a.k
    if k > n:
        raise ValueError(f"primitivity is defined for degrees k <= n, got k={k}, n={n}")
    scale = max(1.0, norm(a, t))
    lam_norm = norm(dual_lefschetz(a, t), t)
    ok = lam_norm <= tol * scale
    power_norm = norm(_power(a, n - k + 1, t), t) if k >= 2 else 0.0
    if ok != (power_norm <= tol * scale * 4.0 ** n):
        raise ArithmeticError(f"primitivity tests disagree (k={k}, n={n})")
    return PrimitivityResult(ok, lam_norm, power_norm)


def chain_weil_relation(B: Ladder) -> dict:
    beta, t = B.a, B.t
    n, k = beta.n, beta.k
    top = n - k
    sign = (-1) ** ((k * (k + 1) // 2) % 2)
    out = {}
    for r in range(top + 1):
        lhs = hodge_star(B.power(r), t).data / math.factorial(r)
        rhs = sign * _power(B.weil, top - r, t).data / math.factorial(top - r)
        out[r] = lhs - rhs
    return out


def chain_inner_scaling(B: Ladder, A: Ladder) -> dict:
    """{(i, j): worst column of |lhs - rhs| / max(1, |lhs|)} of the scaling law."""
    t = B.t
    n, k = B.a.n, B.a.k
    out = {}
    for i in range(n - k + 1):
        for j in range(i + 1):
            lhs = inner(B.power(i), A.power(i), t)
            factor = (
                math.factorial(i)
                * math.factorial(n - k - i + j)
                / (math.factorial(i - j) * math.factorial(n - k - i))
            )
            rhs = factor * inner(B.power(i - j), A.power(i - j), t)
            out[(i, j)] = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0), initial=0.0))
    return out


def chain_cross_term(x: KForm, p: int, y: KForm, q: int, t: CompatibleTriple) -> float:
    X, Y = _power(x, p, t), _power(y, q, t)
    cos = np.abs(inner(X, Y, t)) / np.maximum(norm(X, t) * norm(Y, t), 1e-300)
    return float(np.max(cos, initial=0.0))


def chain_cell_residuals(t: CompatibleTriple, n: int, k: int, cases: int, cross_cases: int, rng) -> dict:
    """An identity cell evaluated as chains of products on each seeded batch,
    with the draws (through `llab.suites._random_batch`, looked up at call
    time), keys and scales of `llab.suites._cell_residuals`."""
    from llab import suites

    def primitive_batch(j, m):
        P = primitive_basis(t, j)
        return KForm._own(n, j, _apply(P, suites._random_batch(rng, P.shape[1], m)))

    out = {}
    X = Ladder(KForm._own(n, k, suites._random_batch(rng, math.comb(2 * n, k), cases)), t)
    a = X.a.data
    out["symplectic_star_involution"] = _rel_max(chain_star_involution(X.a, t), a)
    conj = chain_conjugations(X)
    out["symplectic_star_conjugation"] = _rel_max(conj["symplectic_star"], a)
    out["hodge_star_conjugation"] = _rel_max(conj["hodge_star"], a)
    out["weil_operator_consistency"] = _rel_max(chain_weil_consistency(X.a, t), a)
    levels = [i for i in (1, 2, 3) if k + 2 * i <= 2 * n]
    for i, delta in chain_commutators(X, levels).items():
        out[f"commutator_i{i}"] = _rel_max(delta, a)
    A = KForm(n, k, a[:, : suites.ROUNDTRIP_CASES])
    roundtrip = _rel_max(chain_roundtrip(A, t), A.data)
    if k <= n:
        B = Ladder(primitive_batch(k, cases), t)
        lam, power = chain_primitivity(B.a, t)
        out["primitivity_lambda"], out["primitivity_power"] = _rel_max(lam, B.a.data), _rel_max(power, B.a.data)
        out["weil_relation"] = max(_rel_max(d, B.a.data) for d in chain_weil_relation(B).values())
        B2 = Ladder(primitive_batch(k, cases), t)
        out["inner_scaling"] = max(chain_inner_scaling(B, B2).values())
    out["decomposition_roundtrip"] = roundtrip
    levels = range(max(0, k - n), k // 2 + 1)
    pairs = [(p, q) for p in levels for q in levels if p != q]
    if pairs and cross_cases > 0:
        worst = 0.0
        for p, q in pairs:
            x = primitive_batch(k - 2 * p, cross_cases)
            y = primitive_batch(k - 2 * q, cross_cases)
            worst = max(worst, chain_cross_term(x, p, y, q, t))
        out["cross_term_orthogonality"] = worst
    return out



def product_cell_residuals(t: CompatibleTriple, n: int, k: int, cases: int, cross_cases: int, rng) -> dict:
    """An identity cell with every residual operator applied to its batch
    and scored by `_rel_max` against the batch's forms, with the draws,
    keys and operators of `llab.suites._cell_residuals`."""
    from llab import lefschetz as lf
    from llab import suites

    out = {}
    X = suites._random_batch(rng, math.comb(2 * n, k), cases)
    out["symplectic_star_involution"] = _rel_max(_apply(lf.star_involution_operator(t, k), X), X)
    conj = lf.lambda_conjugation_operators(t, k)
    out["symplectic_star_conjugation"] = _rel_max(_apply(conj["symplectic_star"], X), X)
    out["hodge_star_conjugation"] = _rel_max(_apply(conj["hodge_star"], X), X)
    out["weil_operator_consistency"] = _rel_max(_apply(lf.weil_consistency_operator(t, k), X), X)
    levels = [i for i in (1, 2, 3) if k + 2 * i <= 2 * n]
    for i, R in lf.commutator_operators(t, k, levels).items():
        out[f"commutator_i{i}"] = _rel_max(_apply(R, X), X)
    A = X[:, : suites.ROUNDTRIP_CASES]
    roundtrip = _rel_max(_apply(lf.roundtrip_operator(t, k), A), A)
    if k <= n:
        P = primitive_basis(t, k)
        b = suites._random_batch(rng, P.shape[1], cases)
        B = _apply(P, b)
        lam, power = lf.primitivity_operators(t, k)
        out["primitivity_lambda"], out["primitivity_power"] = _rel_max(_apply(lam, b), B), _rel_max(_apply(power, b), B)
        out["weil_relation"] = max(_rel_max(_apply(R, b), B) for R in lf.weil_relation_operators(t, k).values())
        b2 = suites._random_batch(rng, P.shape[1], cases)
        out["inner_scaling"] = max(lf.inner_scaling_residuals(t, k, b, b2).values())
    out["decomposition_roundtrip"] = roundtrip
    levels = range(max(0, k - n), k // 2 + 1)
    pairs = [(p, q) for p in levels for q in levels if p != q]
    if pairs and cross_cases > 0:
        worst = 0.0
        for p, q in pairs:
            x = suites._random_batch(rng, primitive_basis(t, k - 2 * p).shape[1], cross_cases)
            y = suites._random_batch(rng, primitive_basis(t, k - 2 * q).shape[1], cross_cases)
            worst = max(worst, lf.cross_term_residual(t, k, p, x, q, y))
        out["cross_term_orthogonality"] = worst
    return out

# -- the wire-format parser, every check on every entry -----------------------


def ref_form_from_json(obj) -> KForm:
    """Parse the form wire format one entry at a time: each entry goes
    through every check in order, then is refused if its basis element was
    already given."""
    n, k = _field(obj, "n", "form", integer=True), _field(obj, "k", "form", integer=True)
    if n < 1 or not 0 <= k <= 2 * n:
        raise ValueError(f"form: need n >= 1 and 0 <= k <= 2n, got n={n}, k={k}")
    _check_wire_n(n, "form")
    coeffs = _field(obj, "coeffs", "form")
    if not isinstance(coeffs, list):
        raise ValueError(f"form: field 'coeffs' must be a list, got {type(coeffs).__name__}")
    masks = basis_masks(2 * n, k)
    data = np.zeros(len(masks), dtype=complex)
    given = {}
    for pos, entry in enumerate(coeffs):
        where = f"coeffs[{pos}]"
        if not isinstance(entry, dict) or "idx" not in entry or "re" not in entry:
            raise ValueError(f"{where}: expected an object with 'idx' and 're'")
        idx = entry["idx"]
        if not isinstance(idx, (list, tuple)) or not all(_is_number(i, numbers.Integral) for i in idx):
            raise ValueError(f"{where}: 'idx' must be a list of integers, got {idx!r}")
        if len(idx) != k:
            raise ValueError(f"{where}: {len(idx)} indices for a degree-{k} form")
        bad = [i for i in idx if not 1 <= i <= 2 * n]
        if bad:
            raise ValueError(f"{where}: index {bad[0]} outside 1..{2 * n}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{where}: indices {idx} are repeated or not ascending")
        re, im = entry["re"], entry.get("im", 0.0)
        for name, v in (("re", re), ("im", im)):
            if not _is_number(v):
                raise ValueError(f"{where}: coefficient '{name}' must be a number, got {v!r}")
            if not _is_finite(v):
                raise ValueError(f"{where}: coefficient '{name}' must be finite, got {v!r}")
        mask = indices_to_mask(idx)
        if mask in given:
            raise ValueError(
                f"{where}: basis element {list(mask_to_indices(mask))} already given by coeffs[{given[mask]}]"
            )
        given[mask] = pos
        data[masks.index(mask)] = complex(re, im)
    return KForm(n, k, data)


# -- hyperbolic form checks, one pass over the whole mesh --------------------


def whitney_at_midpoints(mesh, es, alpha):
    """Whitney interpolation of edge dofs at the 3 edge midpoints of every
    triangle: (values (nt, 3, 2), d alpha's du^dv coefficient (nt,))."""
    d = alpha[es.tri_edges] * es.tri_signs
    vals = np.ascontiguousarray(_whitney_midpoint_major(mesh.geometry.grad, d).transpose(2, 0, 1))
    # d alpha is constant per triangle: the circulation over the Euclidean area
    return vals, (d[0] + d[1] + d[2]) / mesh.geometry.area


def whole_edge_line_integrals(mesh):
    """4-point Gauss-Legendre line integrals of theta over canonical edges."""
    es = mesh.edge_structure
    a = mesh.vertices[es.edges[:, 0]]
    d = mesh.vertices[es.edges[:, 1]] - a
    total = np.zeros(es.n_edges)
    for t, w in zip(_GL_T, _GL_W):
        c = _theta_components(a + t * d)
        total += w * (c[:, 0] * d[:, 0] + c[:, 1] * d[:, 1])
    return total


def whole_bounded_primitive(mesh):
    """`forms.bounded_primitive`, each chain over the whole mesh."""
    es, geo = mesh.edge_structure, mesh.geometry
    edge_integrals = whole_edge_line_integrals(mesh)
    triangle_omega = -1 * geo.area / 3.0 * mesh.midpoint_mu.sum(axis=0)
    circulation = (edge_integrals[es.tri_edges.T] * es.tri_signs.T).sum(axis=1)
    scale = np.abs(triangle_omega)
    rel = np.abs(circulation - triangle_omega) / np.maximum(scale, np.median(scale))
    samples = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    comp = _theta_components(samples)
    return PrimitiveOneForm(
        expression="pullback of -(dx)/y under w = i(1+z)/(1-z)",
        sup_norm=float(np.sqrt((comp**2).sum(axis=1) / mesh.mu(samples)).max()),
        omega_sign=-1,
        edge_integrals=edge_integrals,
        triangle_omega=triangle_omega,
        stokes_max=float(rel.max()),
        stokes_rms=float(np.sqrt(np.mean(rel**2))),
    )


def whole_crossterm_constant(mesh, profile):
    """`forms.crossterm_constant`, its premise evaluated over every edge
    midpoint at once."""
    mid = mesh.edge_midpoints()
    u, v = mid[:, 0], mid[:, 1]
    r = np.hypot(u, v)
    drho_dr = 2.0 / (1.0 - r**2) if mesh.metric == "hyperbolic" else np.ones_like(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        radial_scale = np.where(r > 0, profile.df_at(mesh.geodesic_radius_of(r)) * drho_dr / r, 0.0)
    gu, gv = radial_scale * u, radial_scale * v
    df_over_eps = float(np.sqrt(((gu * gu + gv * gv) / mesh.mu(mid)).max())) / profile.eps
    return {"eps": profile.eps, "C_sqrtf_bound": 2.0, "max_df_over_eps": df_over_eps}


def whole_annulus_decay(alpha, mesh, jmax=None):
    """`forms.annulus_decay`, the triangle energies and bins over the whole
    mesh at once."""
    if jmax is None:
        jmax = int(np.ceil(mesh.R))
    vals, _ = whitney_at_midpoints(mesh, mesh.edge_structure, alpha)
    tri_energy = (mesh.geometry.area / 3.0) * (vals**2).sum(axis=2).sum(axis=1)
    bins = np.floor(mesh.geodesic_radius(mesh.centroids())).astype(np.int64)
    masses = np.bincount(bins, weights=tri_energy, minlength=jmax)[:jmax]
    return AnnulusDecayTable(masses=masses, total_norm_sq=float(tri_energy.sum()), jmax=jmax)


# -- mesh geometry and ring prolongation, whole-array ------------------------


def whole_geometry(mesh):
    """(area, grad, midpoint mu, smallest angle in degrees) of a mesh, each
    chain over the whole mesh at once from one 2-D gather of the corners."""
    x, y = mesh.vertices.T[:, mesh.triangles.T]  # (3, nt) each
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
    nxt, prev = [1, 2, 0], [2, 0, 1]
    two_area = 2.0 * area
    grad = np.empty((3, 2, len(area)))
    np.divide(-(y[prev] - y[nxt]), two_area, out=grad[:, 0])
    np.divide(x[prev] - x[nxt], two_area, out=grad[:, 1])
    v, es = mesh.vertices, mesh.edge_structure
    mu = mesh.mu(0.5 * (v[es.edges[:, 0]] + v[es.edges[:, 1]]))[es.tri_edges]
    gx, gy = grad[:, 0], grad[:, 1]
    sq = gx * gx + gy * gy
    cos = -(gx[nxt] * gx[prev] + gy[nxt] * gy[prev]) / np.sqrt(sq[nxt] * sq[prev])
    return area, grad, mu, float(np.degrees(np.arccos(np.clip(cos.max(), -1.0, 1.0))))


def whole_ring_prolongation(coarse, fine):
    """`mesh.ring_prolongation` built as COO triplets, zeros dropped, and
    converted to CSR by scipy."""
    import scipy.sparse as sp

    Mc, counts_c = _ring_counts(coarse.R, coarse.h)
    Mf, counts_f = _ring_counts(fine.R, fine.h)
    sizes = np.array([1] + counts_c)
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    per_ring = np.array(counts_f[:-1])
    m = np.repeat(np.arange(1, Mf), per_ring)
    j = np.arange(len(m)) - np.repeat(np.cumsum(per_ring) - per_ring, per_ring)
    n_f = per_ring[m - 1]
    a = m * Mc // Mf
    t = (m * Mc - a * Mf) / Mf
    rows, cols, vals = [np.zeros(1, dtype=np.int64)], [np.zeros(1, dtype=np.int64)], [np.ones(1)]
    for ring, weight in ((a, 1.0 - t), (a + 1, t)):
        n_c = sizes[ring]
        num = (2 * j + m % 2) * n_c - (ring % 2) * n_f
        den = 2 * n_f
        q = num // den
        frac = (num - q * den) / den
        for col, w in ((q % n_c, 1.0 - frac), ((q + 1) % n_c, frac)):
            rows.append(1 + np.arange(len(m)))
            cols.append(starts[ring] + col)
            vals.append(np.where(ring < Mc, weight * w, 0.0))
    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    nonzero = vals != 0
    shape = (1 + int(per_ring.sum()), int(starts[Mc]))
    return sp.csr_matrix((vals[nonzero], (rows[nonzero], cols[nonzero])), shape=shape)


def ref_pq_decompose(a: KForm, t: CompatibleTriple) -> BigradedForm:
    """The (p,q) split of a (a form or a batch) in its own degree k: one
    solve C c = a with C = `frame_compound(k)`, and the (p,q) part the sum
    of the columns of C of that type, each times its coefficient."""
    C = t.frame_compound(a.k)
    c = np.linalg.solve(C, a.data)
    comps = {pq: KForm._own(a.n, a.k, C[:, S] @ c[S]) for pq, S in _bidegree_columns(2 * a.n, a.k).items()}
    return BigradedForm(k=a.k, components=comps)


def ref_decompose_file(in_path, out_path) -> dict:
    """`llab.cli.decompose_file` with the residuals scaled by `norm` of the
    input, which above the middle degree builds the Gram block of the
    input's degree."""
    obj = json.loads(Path(in_path).read_text())
    t = triple_from_json(obj["triple"])
    a = form_from_json(obj["form"])
    n, k = a.n, a.k
    lef = primitive_decompose(a, t)
    scale = max(norm(a, t), 1e-300)
    lef_out = {}
    for r, beta in lef.components.items():
        if not np.any(np.abs(beta.data) > 1e-14 * scale):
            continue
        lam = dual_lefschetz(beta, t)
        lef_out[str(r)] = {
            "form": beta,
            "primitivity_residual": float(np.max(np.abs(lam.data), initial=0.0)) / scale,
            "is_primitive": bool(_primitivity(beta, lam, t, tol=1e-9)),
        }
    big = pq_decompose(a, t)
    big_out = {f"{p},{q}": c for (p, q), c in sorted(big.components.items()) if np.any(c.data)}
    out = {
        "input": {"form": a, "n": n, "k": k},
        "lefschetz_components": lef_out,
        "bidegree_components": big_out,
        "reconstruction_residuals": {
            "lefschetz": lef.residual(a, t),
            "bidegree": float(np.max(np.abs((big.reconstruct() - a).data), initial=0.0)) / scale,
        },
    }
    Path(out_path).write_bytes(dump_json_deterministic(out))
    out["input"]["form"] = form_to_json(a)
    for comp in lef_out.values():
        comp["form"] = form_to_json(comp["form"])
    out["bidegree_components"] = {key: form_to_json(c) for key, c in big_out.items()}
    return out


def roundtrip_form_json(a: KForm) -> KForm:
    """a through the wire format and the standard library's JSON text."""
    return form_from_json(json.loads(json.dumps(form_to_json(a))))


def triangle_areas(mesh: DiscMesh) -> np.ndarray:
    """Signed Euclidean areas of the mesh's triangles (positive for the
    stored CCW orientation), straight from their corners."""
    return _signed_areas(*mesh._corners())


def cutoff_f(profile: CutoffProfile, rho: np.ndarray) -> np.ndarray:
    """The cutoff f(rho) of `profile`."""
    return _cutoff_f(rho, profile.eps, profile.r_plateau)
