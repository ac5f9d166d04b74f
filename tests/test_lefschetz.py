"""Unit tests for the Lefschetz/sl2 engine.

Independent oracles: trace identity Lambda(omega) = n, the sl2 weight
formula [L, Lambda] = (k - n) id, factorial singular-value ladders of
L^j, and binomial primitive dimensions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from llab.algebra import (
    KForm,
    build_standard_triple,
    hodge_star,
    norm,
    pq_decompose,
    random_compatible_triple,
)
from llab.lefschetz import (
    commutator_check,
    commutator_residual,
    cross_term_residual,
    dual_lefschetz,
    hodge_star_conjugation_residual,
    inner_scaling_check,
    inner_scaling_residual,
    is_primitive,
    lefschetz_L,
    lefschetz_power_matrix,
    primitive_basis,
    primitive_decompose,
    primitivity_residuals,
    random_primitive,
    star_conjugation_residual,
    symplectic_star,
    symplectic_star_involution_residual,
    weil_operator_residual,
    weil_relation_residual,
    weil_specialization_constant,
)


def _omega(t):
    one = KForm(t.n, 0, np.array([1.0 + 0j]))
    return lefschetz_L(one, t)


# ---------------------------------------------------------------------------
# L and Lambda basics
# ---------------------------------------------------------------------------


def test_L_of_constant_is_omega(std2):
    w = _omega(std2)
    assert w.k == 2
    # standard omega = e1^e2 + e3^e4: exactly two unit coefficients
    nz = np.flatnonzero(np.abs(w.data) > 1e-15)
    assert len(nz) == 2
    assert np.allclose(w.data[nz], 1.0)


def test_lambda_omega_trace(std2, std3):
    for t in (std2, std3):
        lam_w = dual_lefschetz(_omega(t), t)
        assert lam_w.k == 0
        assert complex(lam_w.data[0]) == pytest.approx(t.n, rel=1e-13)


def test_sl2_weight_identity(std2, rng):
    # [L, Lambda] = (k - n) id on degree k.
    n = 2
    for k in range(2 * n + 1):
        dim = math.comb(2 * n, k)
        a = KForm(n, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        Lla = lefschetz_L(dual_lefschetz(a, t := std2), t) if k >= 2 else KForm(n, k, np.zeros(dim, complex))
        laL = (
            dual_lefschetz(lefschetz_L(a, std2), std2)
            if k + 2 <= 2 * n
            else KForm(n, k, np.zeros(dim, complex))
        )
        comm = Lla.data - laL.data
        assert np.allclose(comm, (k - n) * a.data, atol=1e-11)


def test_L_raises_beyond_top(std2):
    top = KForm(2, 4, np.zeros(1, complex))
    with pytest.raises(ValueError):
        lefschetz_L(top, std2)


def test_dual_lefschetz_kills_low_degrees(std2, rng):
    for k in (0, 1):
        dim = math.comb(4, k)
        a = KForm(2, k, rng.standard_normal(dim).astype(complex))
        out = dual_lefschetz(a, std2)
        assert np.allclose(out.data, 0.0)


# ---------------------------------------------------------------------------
# symplectic star
# ---------------------------------------------------------------------------


def test_symplectic_star_is_involution(std2, rng):
    for k in range(5):
        dim = math.comb(4, k)
        a = KForm(2, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        aa = symplectic_star(symplectic_star(a, std2), std2)
        assert np.allclose(aa.data, a.data, atol=1e-12)


def test_star_conjugation_residuals_vanish(std3, rng):
    for k in range(7):
        dim = math.comb(6, k)
        a = KForm(3, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        assert star_conjugation_residual(a, std3) < 1e-11


def test_commutator_residuals_vanish(std3, rng):
    for k in range(4):
        dim = math.comb(6, k)
        a = KForm(3, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        for i in (1, 2, 3):
            if k + 2 * i <= 6:
                assert commutator_residual(a, i, std3) < 1e-11


# ---------------------------------------------------------------------------
# primitivity
# ---------------------------------------------------------------------------


def test_primitive_basis_dimension_oracle(std2, std3):
    # dim P^k = C(2n, k) - C(2n, k-2)
    for t in (std2, std3):
        n = t.n
        for k in range(n + 1):
            P = primitive_basis(t, k)
            expected = math.comb(2 * n, k) - (math.comb(2 * n, k - 2) if k >= 2 else 0)
            assert P.shape[1] == expected
            # orthonormal columns w.r.t. the coefficient inner product
            assert np.allclose(P.conj().T @ P, np.eye(expected), atol=1e-12)


def test_primitive_basis_rejects_high_degree(std2):
    with pytest.raises(ValueError):
        primitive_basis(std2, 3)  # k > n


def test_random_primitive_is_primitive(std3, rng):
    for k in range(4):
        b = random_primitive(std3, k, rng)
        assert b.k == k
        assert is_primitive(b, std3)
        if k >= 2:
            assert np.max(np.abs(dual_lefschetz(b, std3).data)) < 1e-10 * norm(b, std3)


def test_nonprimitive_detected(std2):
    w = _omega(std2)  # Lambda(omega) = n != 0
    assert not is_primitive(w, std2)


def test_primitive_power_vanishing(std3, rng):
    # primitive k-forms are killed by L^{n-k+1}
    n = 3
    for k in (1, 2, 3):
        b = random_primitive(std3, k, rng)
        top = lefschetz_power_matrix(std3, k, n - k + 1) @ b.data
        assert np.max(np.abs(top), initial=0.0) < 1e-10 * max(1.0, np.max(np.abs(b.data)))


# ---------------------------------------------------------------------------
# singular-value ladder of L^j (independent factorial oracle)
# ---------------------------------------------------------------------------


def _norm_law_sq(n: int, r: int, i: int) -> int:
    """||L^r b||^2 for a unit primitive i-form b (factorial norm law):
    r! * (n-i)! / (n-i-r)!."""
    return math.factorial(r) * math.factorial(n - i) // math.factorial(n - i - r)


def test_lefschetz_power_norm_law(std2, std3):
    # For a unit primitive i-form b the norm law gives
    # ||L^r b||^2 = r! (n-i)! / (n-i-r)!, so the ratio at consecutive
    # powers is a pure factorial quotient.  The standard triple has
    # identity Gram, so coefficient norms are metric norms.
    for t, checks in ((std2, [(2, 0, 1), (2, 0, 2), (2, 1, 1)]), (std3, [(3, 1, 2), (3, 0, 2)])):
        for n, i, j in checks:
            P = primitive_basis(t, i)
            b = P[:, 0]
            for r in range(0, n - i - j + 1):
                lr = lefschetz_power_matrix(t, i, r) @ b
                lrj = lefschetz_power_matrix(t, i, r + j) @ b
                ratio = (np.linalg.norm(lrj) / np.linalg.norm(lr)) ** 2
                want = _norm_law_sq(n, r + j, i) / _norm_law_sq(n, r, i)
                assert ratio == pytest.approx(want, rel=1e-10)
    # spot values: omega itself (n=2): ||L 1||^2 = 2, ||L^2 1||^2 = 4
    assert _norm_law_sq(2, 1, 0) == 2
    assert _norm_law_sq(2, 2, 0) == 4


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_primitive_decompose_roundtrip(std3, rng):
    for k in range(7):
        dim = math.comb(6, k)
        a = KForm(3, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        comps = primitive_decompose(a, std3)
        assert comps.residual(a, std3) < 1e-11
        for r, beta in comps.components.items():
            assert beta.k == k - 2 * r
            assert is_primitive(beta, std3, tol=1e-8)


def test_decompose_structural_range(std2):
    # degree k > n: levels below k - n are structurally absent
    a = KForm(2, 3, np.arange(1.0, 5.0).astype(complex))
    comps = primitive_decompose(a, std2)
    assert min(comps.components) >= 3 - 2  # r_min = k - n = 1
    assert comps.residual(a, std2) < 1e-12


def test_decompose_random_triple(rng):
    t = random_compatible_triple(2, rng)
    a = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    comps = primitive_decompose(a, t)
    assert comps.residual(a, t) < 1e-10


# ---------------------------------------------------------------------------
# relation-level helpers
# ---------------------------------------------------------------------------


def test_weil_relation_residual_small(std3, rng):
    n = 3
    for k in (0, 1, 2, 3):
        b = random_primitive(std3, k, rng)
        for r in range(0, n - k + 1):
            assert weil_relation_residual(b, r, std3) < 1e-11


def test_inner_scaling_check(std2, rng):
    b1 = random_primitive(std2, 1, rng)
    b2 = random_primitive(std2, 1, rng)
    n, k = 2, 1
    for i in range(0, n - k + 1):
        for j in range(0, i + 1):
            lhs, rhs = inner_scaling_check(b1, b2, i, j, std2)
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# contract details: residual pairs, aliases, specialization constant
# ---------------------------------------------------------------------------


def test_is_primitive_exposes_residual_pair(std2, rng):
    b = random_primitive(std2, 2, rng)
    res = is_primitive(b, std2)
    assert res.primitive is True and bool(res) is True
    primitive, lam_norm, power_norm = res  # unpacks as (bool, residual pair)
    assert primitive
    assert lam_norm == pytest.approx(norm(dual_lefschetz(b, std2), std2), abs=1e-15)
    assert lam_norm < 1e-10 * norm(b, std2)
    assert power_norm < 1e-8 * norm(b, std2)


def test_is_primitive_pair_for_omega(std2):
    # Lambda(omega) = n and L^{n-1}(omega) = omega^n: both norms equal n at n=2
    res = is_primitive(_omega(std2), std2)
    assert not res
    assert res.lambda_norm == pytest.approx(2.0, rel=1e-12)
    assert res.power_norm == pytest.approx(2.0, rel=1e-12)


def test_is_primitive_rejects_degree_above_n():
    t = build_standard_triple(1)
    with pytest.raises(ValueError, match="k <= n"):
        is_primitive(KForm(1, 2, np.array([1.0 + 0j])), t)


def test_commutator_check_alias_and_top_overflow(std2):
    assert commutator_check is commutator_residual
    # n=1, a = dx^dy, i=1: L a = 0 but L Lambda a = a and i(k-n+i-1) = 1
    t1 = build_standard_triple(1)
    top = KForm(1, 2, np.array([1.0 + 0j]))
    assert commutator_check(top, 1, t1) == 0.0
    # both sides entirely above the top degree -> vacuous zero
    assert commutator_check(top, 3, t1) == 0.0
    # inside the algebra the rename is exercised on a nontrivial case
    assert commutator_check(_omega(std2), 1, std2) < 1e-13


def test_weil_specialization_constant_oracle():
    # n=1, B=dz (p,q)=(1,0): star(dz) = -i dz and C(1,1,0) = i*(-1)/0! = -i
    t1 = build_standard_triple(1)
    dz = KForm(1, 1, np.array([1.0, 1j]))
    C = weil_specialization_constant(1, 1, 0)
    assert C == pytest.approx(-1j)
    assert np.max(np.abs(hodge_star(dz, t1).data - C * dz.data)) < 1e-15
    with pytest.raises(ValueError, match="p \\+ q <= n"):
        weil_specialization_constant(1, 1, 1)
    with pytest.raises(ValueError, match=">= 0"):
        weil_specialization_constant(2, -1, 1)


def test_weil_specialization_constant_random_pure_forms(std3, rng):
    # star(B) = C(n,p,q) L^{n-k} B for primitive B of pure bidegree (p,q)
    n = 3
    for k in (1, 2, 3):
        b = random_primitive(std3, k, rng)
        for (p, q), comp in pq_decompose(b, std3).components.items():
            if norm(comp, std3) < 1e-9:
                continue
            C = weil_specialization_constant(n, p, q)
            Lnk = lefschetz_power_matrix(std3, k, n - k)
            lhs = hodge_star(comp, std3).data
            rhs = C * (Lnk @ comp.data)
            assert np.max(np.abs(lhs - rhs)) < 1e-11 * norm(comp, std3)


# ---------------------------------------------------------------------------
# representation-theoretic guards
# ---------------------------------------------------------------------------


def test_L_power_conformal_on_primitives(std2, std3):
    # ||L^{n-k} b|| = (n-k)! ||b|| for primitive b: smallest singular value of
    # L^{n-k} restricted to P^k equals (n-k)! > 0 (injectivity, quantitatively)
    for t in (std2, std3):
        n = t.n
        for k in range(0, n + 1):
            P = primitive_basis(t, k)  # orthonormal columns
            M = lefschetz_power_matrix(t, k, n - k) @ P
            svals = np.linalg.svd(M, compute_uv=False)
            assert svals[-1] == pytest.approx(math.factorial(n - k), rel=1e-10)
            assert svals[0] == pytest.approx(math.factorial(n - k), rel=1e-10)


def test_decomposition_perturbation_breaks_roundtrip(std2, rng):
    # uniqueness guard: perturbing a single primitive component moves the
    # reconstruction off the input, linearly in the perturbation size
    a = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    comps = primitive_decompose(a, std2)
    assert comps.residual(a, std2) < 1e-12

    def perturbed_residual(delta: float) -> float:
        bumped = dict(comps.components)
        beta0 = bumped[1]  # the r=1 (scalar) component
        bumped[1] = KForm(beta0.n, beta0.k, beta0.data + delta)
        from llab.lefschetz import LefschetzComponents

        return LefschetzComponents(k=2, components=bumped).residual(a, std2)

    r1, r2 = perturbed_residual(1e-3), perturbed_residual(2e-3)
    assert r1 > 1e-5
    assert r2 / r1 == pytest.approx(2.0, rel=1e-6)


def test_weil_relation_on_orientation_reversing_triples(rng):
    # regression: the one-star Weil relation flips sign if the Hodge star is
    # built on the coordinate orientation instead of the omega-orientation
    from llab.algebra import triple_from_omega_j

    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t1 = triple_from_omega_j(omega, J)  # Pf(omega) = -1
    for k in (0, 1):
        b = random_primitive(t1, k, rng)
        for r in range(0, 1 - k + 1):
            assert weil_relation_residual(b, r, t1) < 1e-12

    # the very draw that exposed the bug: orientation-reversing at n = 2
    t2 = random_compatible_triple(2, np.random.default_rng([11, 2, 10_000]))
    assert t2.volume_form().data[0].real < 0
    for k in (0, 1, 2):
        b = random_primitive(t2, k, rng)
        for r in range(0, 2 - k + 1):
            assert weil_relation_residual(b, r, t2) < 1e-11


# ---------------------------------------------------------------------------
# the identity residuals the suite runs, on one form and on a batch
# ---------------------------------------------------------------------------


def _identity_residuals(a: KForm, t) -> dict:
    """Every identity of the suite's cell on a (form or batch) a of degree k,
    with primitive inputs drawn by lifting a's coefficients into P^j."""
    n, k = a.n, a.k
    out = {
        "involution": symplectic_star_involution_residual(a, t),
        "star_s": star_conjugation_residual(a, t),
        "hodge": hodge_star_conjugation_residual(a, t),
        "weil_op": weil_operator_residual(a, t),
        "roundtrip": primitive_decompose(a, t).residual(a, t),
    }
    for i in (1, 2, 3):
        out[f"comm{i}"] = commutator_check(a, i, t)

    def prim(j, conj=False):
        P = primitive_basis(t, j)
        c = a.data[: P.shape[1]]
        return KForm(n, j, P @ (np.conj(c) if conj else c))

    if k <= n:
        b, b2 = prim(k), prim(k, conj=True)
        out["prim_lambda"], out["prim_power"] = primitivity_residuals(b, t)
        for r in range(n - k + 1):
            out[f"weil_rel{r}"] = weil_relation_residual(b, r, t)
        for i in range(n - k + 1):
            for j in range(i + 1):
                out[f"scaling{i}{j}"] = inner_scaling_residual(b, b2, i, j, t)
    levels = range(max(0, k - n), k // 2 + 1)
    for p in levels:
        for q in levels:
            if p != q:
                x, y = prim(k - 2 * p), prim(k - 2 * q, conj=True)
                out[f"cross{p}{q}"] = cross_term_residual(x, p, y, q, t)
    return out


@pytest.mark.parametrize("which", ["standard", "random"])
def test_identity_residuals_vanish_on_single_forms(which, std3, rng):
    t = std3 if which == "standard" else random_compatible_triple(3, rng)
    for k in range(7):
        dim = math.comb(6, k)
        a = KForm(3, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        res = _identity_residuals(a, t)
        assert max(res.values()) < 1e-11, (k, res)


def test_identity_residuals_of_a_batch_are_the_worst_column(rng):
    t = random_compatible_triple(2, rng)
    for k in range(5):
        dim = math.comb(4, k)
        data = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
        batch = _identity_residuals(KForm(2, k, data), t)
        # column c scored alone, at its own place in a batch of zeros: it then
        # runs through the same matrix-matrix products as in the full batch
        # (a 1-D column would take matrix-vector ones, which round differently)
        cols = []
        for c in range(5):
            alone = np.zeros_like(data)
            alone[:, c] = data[:, c]
            cols.append(_identity_residuals(KForm(2, k, alone), t))
        for name, v in batch.items():
            assert v == pytest.approx(max(c[name] for c in cols), abs=1e-15), (k, name)


def test_batch_residual_finds_the_bad_column(std2, rng):
    # a batch residual must not average away one broken column
    from llab.lefschetz import LefschetzComponents

    data = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    comps = dict(primitive_decompose(KForm(2, 2, data), std2).components)
    scalar = comps[1].data.copy()
    scalar[:, 1] += 1e-3  # perturb column 1 of the r=1 (scalar) level
    comps[1] = KForm(2, 0, scalar)
    batch_res = LefschetzComponents(k=2, components=comps).residual(KForm(2, 2, data), std2)
    col = LefschetzComponents(k=2, components={r: KForm(2, c.k, c.data[:, 1]) for r, c in comps.items()})
    assert batch_res > 1e-5
    assert batch_res == col.residual(KForm(2, 2, data[:, 1]), std2)

    mixed = np.stack([random_primitive(std2, 2, rng).data, _omega(std2).data], axis=1)
    lam, _ = primitivity_residuals(KForm(2, 2, mixed), std2)
    assert lam == pytest.approx(2.0, rel=1e-12)  # Lambda(omega) = n, max|omega| = 1
