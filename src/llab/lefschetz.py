"""Lefschetz sl(2) calculus on the exterior algebra of a compatible triple.

Implements the operator pair (L, Lambda), the symplectic star, primitivity
tests, the primitive (Lefschetz) decomposition, and the identities that the
`verify-identities` suite exercises, each written once as a residual:

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
assumed.  The operator matrices live in the triple's bundle `t.ops`.  Every
residual takes a single form or a column batch (`KForm` data of shape
(C(2n,k), m)) and returns the worst column, so the suite and the unit tests
call the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from llab.algebra import (
    CompatibleTriple,
    KForm,
    hodge_star,
    inner,
    j_action,
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
    "weil_relation_residual",
    "weil_specialization_constant",
    "star_conjugation_residual",
    "symplectic_star_involution_residual",
    "hodge_star_conjugation_residual",
    "weil_operator_residual",
    "commutator_check",
    "commutator_residual",
    "primitivity_residuals",
    "inner_scaling_check",
    "inner_scaling_residual",
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
    return KForm._own(a.n, a.k + 2 * r, lefschetz_power_matrix(t, a.k, r) @ a.data)


def lefschetz_L(a: KForm, t: CompatibleTriple) -> KForm:
    """L(a) = omega ^ a.  Raises if the target degree exceeds 2n."""
    if a.k + 2 > 2 * a.n:
        raise ValueError(f"L maps degree {a.k} out of the algebra (n={a.n})")
    return _power(a, 1, t)


def dual_lefschetz(a: KForm, t: CompatibleTriple) -> KForm:
    """Lambda(a), the omega^{-1} double contraction.  Zero on degrees < 2."""
    if a.k < 2:
        return KForm._own(a.n, 0, np.zeros((1,) + a.data.shape[1:], dtype=complex))
    return KForm._own(a.n, a.k - 2, t.ops.lam(a.k) @ a.data)


def symplectic_star(a: KForm, t: CompatibleTriple) -> KForm:
    """Symplectic star: alpha ^ star_s(beta) = omega^{-1}(alpha, beta) omega^n/n!.

    The pairing is extended to degree k by Gram minors of omega^{-1} and is
    complex-bilinear (no conjugation); star_s o star_s = id.
    """
    return KForm._own(a.n, 2 * a.n - a.k, t.ops.sstar(a.k) @ a.data)


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
    n, k = a.n, a.k
    if k > n:
        raise ValueError(f"primitivity is defined for degrees k <= n, got k={k}, n={n}")
    scale = max(1.0, norm(a, t))
    lam_norm = norm(dual_lefschetz(a, t), t)
    ok = lam_norm <= tol * scale
    if 2 * n - k + 2 <= 2 * n:  # k >= 2: L^{n-k+1} stays inside the algebra
        power_norm = norm(_power(a, n - k + 1, t), t)
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
# identity residuals (single forms or column batches; worst column returned)
# ---------------------------------------------------------------------------

def _lambda_conjugation(a: KForm, t: CompatibleTriple, star, sign: int) -> float:
    """Residual of Lambda(a) = sign * star(L(star(a))) (both zero for k < 2)."""
    lam = dual_lefschetz(a, t)
    if a.k < 2:
        # star(a) sits too high for L; Lambda already returns exact zero
        return _rel_max(lam.data, a.data)
    rhs = star(lefschetz_L(star(a, t), t), t)
    return _rel_max(lam.data - sign * rhs.data, a.data)


def star_conjugation_residual(a: KForm, t: CompatibleTriple) -> float:
    """Residual of Lambda(a) = star_s(L(star_s(a))) (both zero for k < 2)."""
    return _lambda_conjugation(a, t, symplectic_star, 1)


def hodge_star_conjugation_residual(a: KForm, t: CompatibleTriple) -> float:
    """Residual of Lambda(a) = (-1)^k star(L(star(a))) (both zero for k < 2)."""
    return _lambda_conjugation(a, t, hodge_star, (-1) ** a.k)


def symplectic_star_involution_residual(a: KForm, t: CompatibleTriple) -> float:
    """Residual of star_s(star_s(a)) = a."""
    return _rel_max(symplectic_star(symplectic_star(a, t), t).data - a.data, a.data)


def weil_operator_residual(a: KForm, t: CompatibleTriple) -> float:
    """Residual of J-pullback = Weil operator (the (p,q)-phase sum) on a."""
    return _rel_max(j_action(a, t).data - weil_operator(a, t).data, a.data)


def weil_relation_residual(beta: KForm, r: int, t: CompatibleTriple) -> float:
    """Residual of star(L^r beta)/r! = (-1)^{k(k+1)/2} L^{n-k-r} W(beta)/(n-k-r)!

    for primitive beta of degree k, 0 <= r <= n - k, relative to beta's
    max-abs coefficient.
    """
    n, k = beta.n, beta.k
    if not 0 <= r <= n - k:
        raise ValueError(f"need 0 <= r <= n-k, got r={r}, n={n}, k={k}")
    lhs = hodge_star(_power(beta, r, t), t).data / math.factorial(r)
    sign = (-1) ** ((k * (k + 1) // 2) % 2)
    rhs = sign * _power(weil_operator(beta, t), n - k - r, t).data / math.factorial(n - k - r)
    return _rel_max(lhs - rhs, beta.data)


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


def commutator_check(a: KForm, i: int, t: CompatibleTriple) -> float:
    """Residual of [L^i, Lambda] a = i (k - n + i - 1) L^{i-1} a on degree k.

    Powers of L that leave the top of the algebra act as the zero map, so the
    identity is checked for every degree k and every i >= 1.
    """
    n, k = a.n, a.k
    if i < 1:
        raise ValueError("need i >= 1")
    if k + 2 * (i - 1) > 2 * n:
        return 0.0  # every term of the identity overflows the top degree
    rhs = i * (k - n + i - 1) * _power(a, i - 1, t).data
    lhs = np.zeros_like(rhs)  # [L^i, Lambda] = L^i Lambda - Lambda L^i
    if k >= 2:
        lhs = lhs + _power(dual_lefschetz(a, t), i, t).data
    if k + 2 * i <= 2 * n:  # otherwise L^i a lies above degree 2n
        lhs = lhs - dual_lefschetz(_power(a, i, t), t).data
    return _rel_max(lhs - rhs, a.data)


#: Residual-style alias of :func:`commutator_check` (same callable).
commutator_residual = commutator_check


def primitivity_residuals(beta: KForm, t: CompatibleTriple) -> tuple[float, float]:
    """Residuals of the two primitivity characterizations, (Lambda beta,
    L^{n-k+1} beta), for a primitive k-form beta, k <= n: both vanish."""
    n, k = beta.n, beta.k
    lam = _rel_max(dual_lefschetz(beta, t).data, beta.data)
    power = _rel_max(lefschetz_power_matrix(t, k, n - k + 1) @ beta.data, beta.data)
    return lam, power


def inner_scaling_check(beta: KForm, alpha: KForm, i: int, j: int, t: CompatibleTriple):
    """Return (lhs, rhs) of the primitive-pair inner-product scaling law

        <L^i beta, L^i alpha> = [i! (n-k-i+j)! / ((i-j)! (n-k-i)!)] <L^{i-j} beta, L^{i-j} alpha>

    for primitive alpha, beta of equal degree k, 0 <= j <= i <= n - k
    (one value per column for batches).
    """
    n, k = beta.n, beta.k
    if alpha.k != k or alpha.n != n:
        raise ValueError("alpha and beta must share degree and dimension")
    if not (0 <= j <= i <= n - k):
        raise ValueError(f"need 0 <= j <= i <= n-k; got i={i}, j={j}, n-k={n - k}")
    factor = (
        math.factorial(i)
        * math.factorial(n - k - i + j)
        / (math.factorial(i - j) * math.factorial(n - k - i))
    )
    lhs = inner(_power(beta, i, t), _power(alpha, i, t), t)
    return lhs, factor * inner(_power(beta, i - j, t), _power(alpha, i - j, t), t)


def inner_scaling_residual(beta: KForm, alpha: KForm, i: int, j: int, t: CompatibleTriple) -> float:
    """Worst column of |lhs - rhs| / max(1, |lhs|) for :func:`inner_scaling_check`."""
    lhs, rhs = inner_scaling_check(beta, alpha, i, j, t)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0), initial=0.0))


def cross_term_residual(x: KForm, p: int, y: KForm, q: int, t: CompatibleTriple) -> float:
    """Worst column of |<L^p x, L^q y>| / (||L^p x|| ||L^q y||) for primitive
    x, y with x.k + 2p = y.k + 2q: distinct Lefschetz levels are orthogonal."""
    X, Y = _power(x, p, t), _power(y, q, t)
    cos = np.abs(inner(X, Y, t)) / np.maximum(norm(X, t) * norm(Y, t), _TINY)
    return float(np.max(cos, initial=0.0))
