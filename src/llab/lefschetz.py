"""Lefschetz sl(2) calculus on the exterior algebra of a compatible triple.

Implements the operator pair (L, Lambda), the symplectic star, primitivity
tests, the primitive (Lefschetz) decomposition, and the identities that the
`verify-identities` suite exercises, each written once:

* star conjugation      Lambda = star_s o L o star_s,  star_s o star_s = id
* Hodge conjugation     Lambda = (-1)^k star o L o star
* Weil operator         J-pullback = sum_{p,q} i^{p-q} Pi^{p,q}
* Weil relation         star(L^r B)/r! = (-1)^{k(k+1)/2} L^{n-k-r} W(B)/(n-k-r)!
* commutator formula    [L^i, Lambda] = i (k - n + i - 1) L^{i-1}   on degree k
* primitivity pair      Lambda B = 0 and L^{n-k+1} B = 0 together
* inner-product scaling <L^i b, L^i a> = i!(n-k-i+j)!/((i-j)!(n-k-i)!) <L^{i-j} b, L^{i-j} a>
* decomposition round trip and cross-degree orthogonality of L^p x, L^q y

Lambda is *defined* by double contraction with omega^{-1}; its agreement with
the metric adjoint of L and with the star conjugation is verified, not
assumed.  The operator matrices live in the triple's bundle `t.ops`.

Each linear identity is its residual operator R = lhs - rhs on one degree,
built by applying the form-level functions to the basis of Lambda^k, or to
the primitive basis P^k (R then acts on primitive coefficients); an identity
with levels (the powers i of the commutators, r of the Weil relation) has
one operator per level.  A column batch X of forms is scored with one
product, the worst column of max|R X| / max(1, max|X|).  The bilinear
identities are Gram blocks (L^p P)^T G (L^q P) of Lefschetz powers on
primitive bases, paired with coefficient batches.  The suite and the unit
tests both call these builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from llab.algebra import (
    CompatibleTriple,
    KForm,
    _apply,
    _complement_norm,
    hodge_star,
    j_action,
    metric_gram,
    norm,
    weil_operator,
)

__all__ = [
    "lefschetz_L",
    "dual_lefschetz",
    "symplectic_star",
    "is_primitive",
    "PrimitivityResult",
    "primitive_decompose",
    "LefschetzComponents",
    "star_involution_operator",
    "lambda_conjugation_operators",
    "weil_consistency_operator",
    "commutator_operators",
    "roundtrip_operator",
    "primitivity_operators",
    "weil_relation_operators",
    "weil_specialization_constant",
    "level_gram",
    "inner_scaling_levels",
    "inner_scaling_residuals",
    "cross_term_residual",
    "lefschetz_power_matrix",
    "primitive_basis",
    "random_primitive",
]

_TINY = 1e-300


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def lefschetz_power_matrix(t: CompatibleTriple, k: int, r: int) -> np.ndarray:
    """Matrix of L^r : Lambda^k -> Lambda^{k+2r} (r >= 0)."""
    return t.ops.lpow(k, r)


def _power(a: KForm, r: int, t: CompatibleTriple) -> KForm:
    """L^r a (the target degree must stay inside the algebra)."""
    return KForm._own(a.n, a.k + 2 * r, _apply(lefschetz_power_matrix(t, a.k, r), a.data))


def lefschetz_L(a: KForm, t: CompatibleTriple) -> KForm:
    """L(a) = omega ^ a.  Raises if the target degree exceeds 2n."""
    if a.k + 2 > 2 * a.n:
        raise ValueError(f"L maps degree {a.k} out of the algebra (n={a.n})")
    return _power(a, 1, t)


def dual_lefschetz(a: KForm, t: CompatibleTriple) -> KForm:
    """Lambda(a), the omega^{-1} double contraction.  Zero on degrees < 2."""
    if a.k < 2:
        return KForm._own(a.n, 0, np.zeros((1,) + a.data.shape[1:], dtype=complex))
    return KForm._own(a.n, a.k - 2, _apply(t.ops.lam(a.k), a.data))


def symplectic_star(a: KForm, t: CompatibleTriple) -> KForm:
    """Symplectic star: alpha ^ star_s(beta) = omega^{-1}(alpha, beta) omega^n/n!.

    The pairing is extended to degree k by Gram minors of omega^{-1} and is
    complex-bilinear (no conjugation); star_s o star_s = id.
    """
    return KForm._own(a.n, 2 * a.n - a.k, _apply(t.ops.sstar(a.k), a.data))


class PrimitivityResult(NamedTuple):
    """Verdict of a primitivity test plus the witnessing residual pair.

    ``lambda_norm`` is ||Lambda a|| and ``power_norm`` is ||L^{n-k+1} a||,
    both in the metric norm of the triple.  Truthiness equals the verdict,
    so the result drops into boolean contexts unchanged.
    """

    primitive: bool
    lambda_norm: float
    power_norm: float

    def __bool__(self) -> bool:
        return self.primitive


def is_primitive(a: KForm, t: CompatibleTriple, tol: float = 1e-12) -> PrimitivityResult:
    """Primitivity test: Lambda(a) = 0, cross-checked against L^{n-k+1}(a) = 0.

    Returns a :class:`PrimitivityResult` carrying the boolean verdict and the
    residual pair (||Lambda a||, ||L^{n-k+1} a||); the form is primitive iff
    the first norm is below tol (scaled by max(1, ||a||)).  The two kernel
    conditions are equivalent by sl(2) representation theory; the check
    raises ArithmeticError if they ever disagree.
    """
    return _primitivity(a, dual_lefschetz(a, t), t, tol)


def _primitivity(a: KForm, lam: KForm, t: CompatibleTriple, tol: float) -> PrimitivityResult:
    """:func:`is_primitive` of a, given lam = Lambda(a), for a caller that
    reads Lambda(a) itself.  L^{n-k+1} a lies in degree 2n-k+2 > n, and its
    norm is read from the Gram block of degree k-2, the one ||Lambda a||
    reads (`_complement_norm`): no Gram block above degree n is built."""
    n, k = a.n, a.k
    if k > n:
        raise ValueError(f"primitivity is defined for degrees k <= n, got k={k}, n={n}")
    scale = max(1.0, norm(a, t))
    lam_norm = norm(lam, t)
    ok = lam_norm <= tol * scale
    if 2 * n - k + 2 <= 2 * n:  # k >= 2: L^{n-k+1} stays inside the algebra
        power_norm = _complement_norm(_power(a, n - k + 1, t), t)
    else:
        power_norm = 0.0  # L^{n-k+1} overflows the top degree: the zero map
    ok_power = power_norm <= tol * scale * 4.0 ** n
    if ok != ok_power:
        raise ArithmeticError(
            "primitivity tests disagree: Lambda-kernel vs L-power kernel "
            f"(k={k}, n={n})"
        )
    return PrimitivityResult(ok, lam_norm, power_norm)


# ---------------------------------------------------------------------------
# primitive decomposition
# ---------------------------------------------------------------------------

def _rel_max(delta: np.ndarray, ref: np.ndarray) -> float:
    """Worst column of max|delta| / max(1, max|ref|); a single form is one column."""
    num = np.max(np.abs(delta), axis=0, initial=0.0)
    den = np.maximum(np.max(np.abs(ref), axis=0, initial=0.0), 1.0)
    return float(np.max(num / den, initial=0.0))


@dataclass(frozen=True)
class LefschetzComponents:
    """Primitive decomposition a = sum_r L^r beta_r, beta_r in P^{k-2r}.

    `components` maps r -> beta_r (a primitive (k-2r)-form, or a batch of
    them when a is a batch).  The expansion starts at r = max(0, k-n) and
    ends at floor(k/2).
    """

    k: int
    components: dict  # r -> KForm

    def reconstruct(self, t: CompatibleTriple) -> KForm:
        out = None
        for r, beta in self.components.items():
            term = _power(beta, r, t)
            out = term if out is None else out + term
        if out is None:
            raise ValueError("empty decomposition")
        return out

    def residual(self, a: KForm, t: CompatibleTriple) -> float:
        """Round-trip residual: the worst column of max|reconstruction - a|
        relative to max(1, max|a|)."""
        return _rel_max(self.reconstruct(t).data - a.data, a.data)


def _ladder_coeff(n: int, k: int, s: int, r: int) -> float:
    """Lambda^s L^r beta = c * L^{r-s} beta for primitive beta of degree k-2r:
    c = prod_{m=0}^{s-1} (r - m)(n - k + r + m + 1)."""
    c = 1.0
    for m in range(s):
        c *= (r - m) * (n - k + r + m + 1)
    return c


def primitive_decompose(a: KForm, t: CompatibleTriple) -> LefschetzComponents:
    """Split a into sum_r L^r beta_r by the triangular Lambda-ladder.

    Applying Lambda^s to the expansion gives an upper-triangular system in the
    beta_r with nonzero diagonal c(s;s) = s! (n-k+2s)!/(n-k+s)!, solved from
    the deepest level downward.  Exact for any k; for k > n the sum starts at
    r = k - n.  A batch is decomposed column by column in one pass.
    """
    n, k = a.n, a.k
    r_min = max(0, k - n)
    r_max = k // 2

    iterates = [a]  # Lambda^s a
    for _ in range(r_max):
        iterates.append(dual_lefschetz(iterates[-1], t))

    comps: dict[int, KForm] = {}
    for r in range(r_max, r_min - 1, -1):
        rhs = iterates[r].data
        for rp in range(r + 1, r_max + 1):
            c = _ladder_coeff(n, k, r, rp)
            if c != 0.0:
                rhs = rhs - c * _power(comps[rp], rp - r, t).data
        comps[r] = KForm._own(n, k - 2 * r, rhs / _ladder_coeff(n, k, r, r))
    return LefschetzComponents(k=k, components=dict(sorted(comps.items())))


def primitive_basis(t: CompatibleTriple, k: int) -> np.ndarray:
    """Orthonormal (columns) basis of the primitive subspace P^k, k <= n."""
    return t.ops.prim(k)


def random_primitive(t: CompatibleTriple, k: int, rng: np.random.Generator) -> KForm:
    """A random complex primitive k-form (coefficients standard normal in the
    primitive basis)."""
    B = primitive_basis(t, k)
    c = rng.standard_normal(B.shape[1]) + 1j * rng.standard_normal(B.shape[1])
    return KForm(t.n, k, B @ c)


# ---------------------------------------------------------------------------
# residual operators: each linear identity as one matrix per degree
#
# A linear identity lhs(a) = rhs(a) on Lambda^k holds for every a exactly
# when its residual operator R = lhs - rhs is zero.  Each builder applies the
# form-level functions above to the basis of Lambda^k (or to the primitive
# basis, for identities of primitive forms; R then acts on coefficients in
# that basis), once per (triple, degree).  A batch X is scored with one
# product, `_rel_max(_apply(R, X), ref)`, ref being the forms themselves.
# ---------------------------------------------------------------------------

def _operator(M: np.ndarray) -> np.ndarray:
    """A basis image as an operator matrix: real when no entry has an
    imaginary part, so that `_apply` runs one real product on a complex
    batch."""
    return M if M.imag.any() else np.ascontiguousarray(M.real)


def _basis(t: CompatibleTriple, k: int) -> KForm:
    """The basis of Lambda^k, as a batch of C(2n, k) forms."""
    return KForm._own(t.n, k, np.eye(math.comb(2 * t.n, k), dtype=complex))


def _primitive_forms(t: CompatibleTriple, k: int) -> KForm:
    """The primitive basis of P^k as a batch of forms; ValueError for k > n."""
    return KForm._own(t.n, k, primitive_basis(t, k).astype(complex))


def star_involution_operator(t: CompatibleTriple, k: int) -> np.ndarray:
    """R = star_s o star_s - id on Lambda^k."""
    e = _basis(t, k)
    return _operator(symplectic_star(symplectic_star(e, t), t).data - e.data)


def lambda_conjugation_operators(t: CompatibleTriple, k: int) -> dict[str, np.ndarray]:
    """{"symplectic_star": Lambda - star_s L star_s, "hodge_star":
    Lambda - (-1)^k star L star} on Lambda^k.  For k < 2 both sides are zero:
    star(a) sits too high for L, and Lambda is the zero map."""
    e = _basis(t, k)
    lam = dual_lefschetz(e, t).data
    out = {}
    for name, star, sign in (("symplectic_star", symplectic_star, 1), ("hodge_star", hodge_star, (-1) ** k)):
        if k < 2:
            out[name] = _operator(lam)
        else:
            out[name] = _operator(lam - sign * star(lefschetz_L(star(e, t), t), t).data)
    return out


def weil_consistency_operator(t: CompatibleTriple, k: int) -> np.ndarray:
    """R = J-pullback - Weil operator (the (p,q)-phase sum) on Lambda^k."""
    e = _basis(t, k)
    return _operator(j_action(e, t).data - weil_operator(e, t).data)


def commutator_operators(t: CompatibleTriple, k: int, levels) -> dict[int, np.ndarray]:
    """{i: [L^i, Lambda] - i (k - n + i - 1) L^{i-1}} on Lambda^k, over i >= 1
    in `levels`.

    Powers of L that leave the top of the algebra act as the zero map, so the
    identity holds for every degree k and every i >= 1; where every term
    overflows, R has no rows.
    """
    n = t.n
    e = _basis(t, k)
    lam = dual_lefschetz(e, t)
    out = {}
    for i in levels:
        if i < 1:
            raise ValueError("need i >= 1")
        if k + 2 * (i - 1) > 2 * n:
            out[i] = np.zeros((0, e.data.shape[1]))  # every term lies above degree 2n
            continue
        rhs = i * (k - n + i - 1) * _power(e, i - 1, t).data
        lhs = np.zeros_like(rhs)  # [L^i, Lambda] = L^i Lambda - Lambda L^i
        if k >= 2:
            lhs = lhs + _power(lam, i, t).data
        if k + 2 * i <= 2 * n:  # otherwise L^i a lies above degree 2n
            lhs = lhs - dual_lefschetz(_power(e, i, t), t).data
        out[i] = _operator(lhs - rhs)
    return out


def roundtrip_operator(t: CompatibleTriple, k: int) -> np.ndarray:
    """R = sum_r L^r C_r - id on Lambda^k, C_r the coefficient map of
    :func:`primitive_decompose`: the decomposition's round trip."""
    e = _basis(t, k)
    return _operator(primitive_decompose(e, t).reconstruct(t).data - e.data)


def primitivity_operators(t: CompatibleTriple, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda P, L^{n-k+1} P) on P^k coefficients, k <= n: the two
    primitivity characterizations, both zero.  Below degree 2, Lambda P is a
    zero row and L^{n-k+1} P has no rows."""
    B = _primitive_forms(t, k)
    power = _apply(lefschetz_power_matrix(t, k, t.n - k + 1), B.data)
    return _operator(dual_lefschetz(B, t).data), _operator(power)


def weil_relation_operators(t: CompatibleTriple, k: int, levels=None) -> dict[int, np.ndarray]:
    """{r: (star L^r / r! - (-1)^{k(k+1)/2} L^{n-k-r} W / (n-k-r)!) P}

    on P^k coefficients, over r in `levels` (default: every 0 <= r <= n - k):
    the Weil relation star(L^r B)/r! = (-1)^{k(k+1)/2} L^{n-k-r} W(B)/(n-k-r)!
    for primitive B of degree k.
    """
    B = _primitive_forms(t, k)
    top = t.n - k
    sign = (-1) ** ((k * (k + 1) // 2) % 2)
    W = weil_operator(B, t)
    out = {}
    for r in range(top + 1) if levels is None else levels:
        if not 0 <= r <= top:
            raise ValueError(f"need 0 <= r <= n-k, got r={r}, n={t.n}, k={k}")
        lhs = hodge_star(_power(B, r, t), t).data / math.factorial(r)
        rhs = sign * _power(W, top - r, t).data / math.factorial(top - r)
        out[r] = _operator(lhs - rhs)
    return out


def weil_specialization_constant(n: int, p: int, q: int) -> complex:
    """C(n, p, q) = i^{p-q} (-1)^{k(k+1)/2} / (n-k)!  with k = p + q.

    Specializes the Weil relation at r = 0 to a primitive form of pure
    bidegree (p, q): the Weil operator acts there as multiplication by
    i^{p-q}, so  star(B) = C(n, p, q) * L^{n-k} B.
    """
    if p < 0 or q < 0:
        raise ValueError(f"need p, q >= 0, got p={p}, q={q}")
    k = p + q
    if k > n:
        raise ValueError(f"need p + q <= n, got p+q={k}, n={n}")
    sign = -1.0 if (k * (k + 1) // 2) % 2 else 1.0
    return (1j) ** ((p - q) % 4) * sign / math.factorial(n - k)


# ---------------------------------------------------------------------------
# bilinear identities: Gram blocks of Lefschetz powers on primitive bases
# ---------------------------------------------------------------------------

def level_gram(t: CompatibleTriple, j: int, p: int, i: int, q: int) -> np.ndarray:
    """K = (L^p P_j)^T G (L^q P_i), P_j the primitive basis of degree j and
    j + 2p = i + 2q: for x = P_j b and y = P_i c, <L^p x, L^q y> is the column
    sum of b * (K conj(c))."""
    m = j + 2 * p
    if i + 2 * q != m:
        raise ValueError(f"L^{p} P^{j} and L^{q} P^{i} lie in different degrees")
    lift_x = lefschetz_power_matrix(t, j, p) @ primitive_basis(t, j)
    lift_y = lefschetz_power_matrix(t, i, q) @ primitive_basis(t, i)
    return lift_x.T @ metric_gram(t, m) @ lift_y


def _pairing(K: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The column sums of b * (K conj(c)): one value per column for batches."""
    return np.sum(b * _apply(K, np.conj(c)), axis=0)


def inner_scaling_levels(t: CompatibleTriple, k: int, b: np.ndarray, a: np.ndarray, pairs=None) -> dict:
    """{(i, j): (lhs, rhs)} of the primitive-pair inner-product scaling law

        <L^i beta, L^i alpha> = [i! (n-k-i+j)! / ((i-j)! (n-k-i)!)] <L^{i-j} beta, L^{i-j} alpha>

    for beta = P b and alpha = P a, b and a coefficients on the primitive
    basis P of degree k, over the pairs 0 <= j <= i <= n - k in `pairs`
    (default: all of them); one value per column for batches.  Each
    <L^r beta, L^r alpha> is one product with its Gram block, read by every
    pair that needs it.
    """
    n = t.n
    if pairs is None:
        pairs = [(i, j) for i in range(n - k + 1) for j in range(i + 1)]
    for i, j in pairs:
        if not (0 <= j <= i <= n - k):
            raise ValueError(f"need 0 <= j <= i <= n-k; got i={i}, j={j}, n-k={n - k}")
    level = {r: _pairing(level_gram(t, k, r, k, r), b, a) for r in sorted({r for i, j in pairs for r in (i, i - j)})}
    out = {}
    for i, j in pairs:
        factor = (
            math.factorial(i)
            * math.factorial(n - k - i + j)
            / (math.factorial(i - j) * math.factorial(n - k - i))
        )
        out[(i, j)] = (level[i], factor * level[i - j])
    return out


def inner_scaling_residuals(t: CompatibleTriple, k: int, b: np.ndarray, a: np.ndarray, pairs=None) -> dict:
    """{(i, j): worst column of |lhs - rhs| / max(1, |lhs|)} for
    :func:`inner_scaling_levels`."""
    return {
        ij: float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0), initial=0.0))
        for ij, (lhs, rhs) in inner_scaling_levels(t, k, b, a, pairs).items()
    }


def cross_term_residual(t: CompatibleTriple, k: int, p: int, x: np.ndarray, q: int, y: np.ndarray) -> float:
    """Worst column of |<L^p X, L^q Y>| / (||L^p X|| ||L^q Y||) for primitive
    X = P_{k-2p} x and Y = P_{k-2q} y, x and y coefficients on the primitive
    bases: distinct Lefschetz levels in degree k are orthogonal.  The cross
    block and the two norm blocks each take one product."""
    jx, jy = k - 2 * p, k - 2 * q
    nx = np.sqrt(np.maximum(np.real(_pairing(level_gram(t, jx, p, jx, p), x, x)), 0.0))
    ny = np.sqrt(np.maximum(np.real(_pairing(level_gram(t, jy, q, jy, q), y, y)), 0.0))
    cos = np.abs(_pairing(level_gram(t, jx, p, jy, q), x, y)) / np.maximum(nx * ny, _TINY)
    return float(np.max(cos, initial=0.0))
