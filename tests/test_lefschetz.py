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
    _apply,
    _rel_max,
    commutator_operators,
    cross_term_residual,
    dual_lefschetz,
    inner_scaling_levels,
    inner_scaling_residuals,
    is_primitive,
    lambda_conjugation_operators,
    lefschetz_L,
    lefschetz_power_matrix,
    primitive_basis,
    primitive_decompose,
    primitivity_operators,
    random_primitive,
    roundtrip_operator,
    star_involution_operator,
    symplectic_star,
    weil_consistency_operator,
    weil_relation_operators,
    weil_specialization_constant,
)
from reference_loops import ref_is_primitive


def _omega(t):
    one = KForm(t.n, 0, np.array([1.0 + 0j]))
    return lefschetz_L(one, t)


def _worst(R):
    """The largest entry of a residual operator: its residual on the basis."""
    return float(np.max(np.abs(R), initial=0.0))


def _score(R, x, ref):
    """A batch's residual under R, as the suite scores it."""
    return _rel_max(_apply(R, x), ref)


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


def test_star_conjugation_residuals_vanish(std3):
    for k in range(7):
        R = lambda_conjugation_operators(std3, k)["symplectic_star"]
        assert R.shape == (math.comb(6, max(k - 2, 0)), math.comb(6, k))
        assert _worst(R) < 1e-11, k


def test_commutator_residuals_vanish(std3):
    for k in range(4):
        levels = [i for i in (1, 2, 3) if k + 2 * i <= 6]
        for i, R in commutator_operators(std3, k, levels).items():
            assert R.shape == (math.comb(6, k + 2 * i - 2), math.comb(6, k))
            assert _worst(R) < 1e-11, (k, i)


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


def test_weil_relation_residual_small(std3):
    n = 3
    for k in (0, 1, 2, 3):
        ops = weil_relation_operators(std3, k)
        assert list(ops) == list(range(0, n - k + 1))
        for r, R in ops.items():
            # acting on coefficients in the primitive basis
            assert R.shape == (math.comb(6, 6 - k - 2 * r), primitive_basis(std3, k).shape[1])
            assert _worst(R) < 1e-11, (k, r)


def test_inner_scaling_check(std2, rng):
    n, k = 2, 1
    b1, b2 = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2))
    levels = inner_scaling_levels(std2, k, b1, b2)
    assert list(levels) == [(i, j) for i in range(0, n - k + 1) for j in range(0, i + 1)]
    for lhs, rhs in levels.values():
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# contract details: residual pairs, top-degree overflow, specialization constant
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


def test_primitivity_residuals_reject_degree_above_n(std2):
    # a 4-form at n = 2 once scored (1.0, 0.0) through L^{n-k+1} = L^{-1}
    with pytest.raises(ValueError, match="degree 4 > n"):
        primitivity_operators(std2, 4)
    with pytest.raises(ValueError, match="degree 3 > n"):
        weil_relation_operators(std2, 3)


# ---------------------------------------------------------------------------
# the L-power certificate through the complementary Gram block
# ---------------------------------------------------------------------------


def _three_triples(n):
    """The standard triple of R^{2n} and two random ones."""
    return [build_standard_triple(n)] + [random_compatible_triple(n, np.random.default_rng([n, s])) for s in (1, 2)]


def _worst_complement_error(n_values) -> float:
    """Worst relative gap between `_complement_norm` and `norm` over every
    degree p > n, on single forms and on a batch, for each of
    `_three_triples(n)`."""
    import llab.algebra as algebra

    worst = 0.0
    for n in n_values:
        rng = np.random.default_rng(32 + n)
        for t in _three_triples(n):
            for p in range(n + 1, 2 * n + 1):
                a = _batch(n, p, rng, m=3)
                want = norm(a, t)
                got = algebra._complement_norm(a, t)
                singles = [algebra._complement_norm(KForm(n, p, col), t) for col in a.data.T]
                worst = max(worst, float(np.max(np.abs(np.r_[got, singles] - np.r_[want, want]) / np.r_[want, want])))
    return worst


@pytest.mark.parametrize("n", range(1, 7))
def test_the_complement_norm_is_the_metric_norm_above_the_middle(n):
    assert _worst_complement_error([n]) <= 1e-13


@pytest.mark.parametrize("name, old, new", [
    ("_complement", "(p.sign * x[src].T).T", "x[src]"),
    ("_complement_norm", "metric_gram(t, 2 * a.n - a.k)", "metric_gram(t, a.k)"),
], ids=["complement sign dropped", "Gram block of the form's own degree"])
def test_a_broken_complement_norm_fails_loudly(mutant, name, old, new):
    # the standard triple's Gram blocks are identities, so only the random
    # triples can tell either mutant
    import llab.algebra as algebra

    mutant(algebra, name, old, new)
    assert _worst_complement_error([2, 3]) > 1e-3


@pytest.mark.parametrize("n", range(1, 6))
def test_is_primitive_matches_the_compound_gram_reference(n):
    rng = np.random.default_rng(320 + n)
    for t in _three_triples(n):
        for k in range(n + 1):
            dim = math.comb(2 * n, k)
            generic = KForm(n, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            for a in (random_primitive(t, k, rng), generic):
                got, want = is_primitive(a, t), ref_is_primitive(a, t)
                assert got.primitive == want.primitive and got.lambda_norm == want.lambda_norm, (k, want)
                assert abs(got.power_norm - want.power_norm) <= 1e-12 * max(1.0, want.power_norm), (k, got, want)


def test_primitivity_builds_no_gram_block_above_the_middle_degree():
    # at n = 6 the L-power certificate of the 4-form and of its components
    # of degrees 4 and 2 lands in degrees 10 and 12; read from the
    # complementary Gram blocks, it builds none above the middle degree
    rng = np.random.default_rng(326)
    t = random_compatible_triple(6, rng)
    a = KForm(6, 4, rng.standard_normal(495) + 1j * rng.standard_normal(495))
    assert not is_primitive(a, t)
    for beta in primitive_decompose(a, t).components.values():
        assert is_primitive(beta, t, tol=1e-9)
    grams = sorted(key[1] for key in t.ops._blocks if key[0] == "gram")
    assert grams and max(grams) <= 6, grams


def test_lefschetz_power_rejects_a_negative_power(std2):
    # L^{-1} on degree 0 once returned the block of L
    with pytest.raises(ValueError, match="r >= 0"):
        lefschetz_power_matrix(std2, 0, -1)


def test_commutator_check_alias_and_top_overflow(std2):
    # n=1, a = dx^dy, i=1: L a = 0 but L Lambda a = a and i(k-n+i-1) = 1;
    # i=3: both sides entirely above the top degree -> vacuous zero
    t1 = build_standard_triple(1)
    ops = commutator_operators(t1, 2, (1, 3))
    assert {i: _worst(R) for i, R in ops.items()} == {1: 0.0, 3: 0.0}
    assert ops[1].shape == (1, 1) and ops[3].shape == (0, 1)
    # inside the algebra, a nontrivial case
    w = _omega(std2).data
    assert _score(commutator_operators(std2, 2, (1,))[1], w, w) < 1e-13


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


def test_weil_relation_on_orientation_reversing_triples():
    # regression: the one-star Weil relation flips sign if the Hodge star is
    # built on the coordinate orientation instead of the omega-orientation
    from llab.algebra import triple_from_omega_j

    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t1 = triple_from_omega_j(omega, J)  # Pf(omega) = -1
    for k in (0, 1):
        assert max(map(_worst, weil_relation_operators(t1, k).values())) < 1e-12

    # the very draw that exposed the bug: orientation-reversing at n = 2
    t2 = random_compatible_triple(2, np.random.default_rng([11, 2, 10_000]))
    assert t2.volume_form().data[0].real < 0
    for k in (0, 1, 2):
        assert max(map(_worst, weil_relation_operators(t2, k).values())) < 1e-11


# ---------------------------------------------------------------------------
# the identity residuals the suite runs, on one form and on a batch
# ---------------------------------------------------------------------------


def _identity_residuals(a: KForm, t) -> dict:
    """Every identity of the suite's cell on a (form or batch) a of degree k,
    scored under the residual operators as the suite scores its batches, with
    primitive coefficients taken from a's leading coefficients."""
    n, k = a.n, a.k
    x = a.data
    conj = lambda_conjugation_operators(t, k)
    out = {
        "involution": _score(star_involution_operator(t, k), x, x),
        "star_s": _score(conj["symplectic_star"], x, x),
        "hodge": _score(conj["hodge_star"], x, x),
        "weil_op": _score(weil_consistency_operator(t, k), x, x),
        "roundtrip": _score(roundtrip_operator(t, k), x, x),
    }
    for i, R in commutator_operators(t, k, (1, 2, 3)).items():
        out[f"comm{i}"] = _score(R, x, x)

    def coeffs(j, conj=False):
        c = x[: primitive_basis(t, j).shape[1]]
        return np.conj(c) if conj else c

    if k <= n:
        b, b2 = coeffs(k), coeffs(k, conj=True)
        B = _apply(primitive_basis(t, k), b)
        lam, power = primitivity_operators(t, k)
        out["prim_lambda"], out["prim_power"] = _score(lam, b, B), _score(power, b, B)
        for r, R in weil_relation_operators(t, k).items():
            out[f"weil_rel{r}"] = _score(R, b, B)
        for (i, j), res in inner_scaling_residuals(t, k, b, b2).items():
            out[f"scaling{i}{j}"] = res
    levels = range(max(0, k - n), k // 2 + 1)
    for p in levels:
        for q in levels:
            if p != q:
                out[f"cross{p}{q}"] = cross_term_residual(t, k, p, coeffs(k - 2 * p), q, coeffs(k - 2 * q, conj=True))
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

    # Lambda scores a primitive column 0 and omega n, max|omega| = 1
    mixed = np.stack([random_primitive(std2, 2, rng).data, _omega(std2).data], axis=1)
    assert _score(std2.ops.lam(2), mixed, mixed) == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# residual operators: one per identity, level and degree
# ---------------------------------------------------------------------------


def _batch(n, k, rng, m=6):
    dim = math.comb(2 * n, k)
    return KForm(n, k, rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m)))


def _coeff_batch(t, k, rng, m=6):
    d = primitive_basis(t, k).shape[1]
    return rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))


@pytest.mark.parametrize("which", ["standard", "random"])
def test_per_level_functions_read_the_shared_implementation(which, std3, rng):
    # one level built alone gives, bit for bit, that level of the family the
    # suite builds over all levels at once
    t = std3 if which == "standard" else random_compatible_triple(3, rng)
    n = 3
    for k in range(2 * n + 1):
        comm = commutator_operators(t, k, (1, 2, 3, 4))
        assert list(comm) == [1, 2, 3, 4]
        for i, R in comm.items():
            assert np.array_equal(commutator_operators(t, k, (i,))[i], R), (k, i)
            assert _worst(R) < 1e-11, (k, i)
        if k > n:
            continue
        weil = weil_relation_operators(t, k)
        assert list(weil) == list(range(n - k + 1))
        for r, R in weil.items():
            assert np.array_equal(weil_relation_operators(t, k, (r,))[r], R), (k, r)
            assert _worst(R) < 1e-11, (k, r)
        b, b2 = _coeff_batch(t, k, rng), _coeff_batch(t, k, rng)
        levels, scaled = inner_scaling_levels(t, k, b, b2), inner_scaling_residuals(t, k, b, b2)
        assert list(levels) == list(scaled) == [(i, j) for i in range(n - k + 1) for j in range(i + 1)]
        for (i, j), (lhs, rhs) in levels.items():
            one = ((i, j),)
            got_lhs, got_rhs = inner_scaling_levels(t, k, b, b2, one)[(i, j)]
            assert np.array_equal(got_lhs, lhs) and np.array_equal(got_rhs, rhs), (k, i, j)
            got = inner_scaling_residuals(t, k, b, b2, one)[(i, j)]
            assert got == scaled[(i, j)] < 1e-11, (k, i, j)


def test_the_scaling_law_forms_each_level_gram_once(monkeypatch, rng):
    import llab.lefschetz as lefschetz

    calls = []
    real = lefschetz.level_gram

    def counted(t, j, p, i, q):
        calls.append((j, p, i, q))
        return real(t, j, p, i, q)

    monkeypatch.setattr(lefschetz, "level_gram", counted)
    t = build_standard_triple(4)
    b, a = _coeff_batch(t, 0, rng), _coeff_batch(t, 0, rng)
    assert len(inner_scaling_residuals(t, 0, b, a)) == 15
    # one Gram block per power r = 0..4, where pair by pair formed 30
    assert sorted(calls) == [(0, r, 0, r) for r in range(5)]
    assert len(weil_relation_operators(t, 0)) == 5
    with pytest.raises(ValueError, match="n-k"):
        weil_relation_operators(t, 0, (5,))
    with pytest.raises(ValueError, match="i >= 1"):
        commutator_operators(t, 0, (0,))
    with pytest.raises(ValueError, match="different degrees"):
        lefschetz.level_gram(t, 0, 1, 0, 2)


@pytest.mark.parametrize("name, old, new, check", [
    ("inner_scaling_levels", "math.factorial(i - j)", "math.factorial(i - j + 1)", "inner_scaling"),
    ("weil_relation_operators", "sign * _power(W", "-sign * _power(W", "weil_relation"),
], ids=["wrong factorial in the scaling factor", "flipped Weil sign"])
def test_a_broken_identity_family_fails_the_suite_loudly(mutant, name, old, new, check):
    import llab.lefschetz as lefschetz
    from llab.suites import identity_suite, worst_cell

    mutant(lefschetz, name, old, new)
    rep = identity_suite(n_values=(2, 3), cases=8, cross_cases=4)
    assert not rep["passed"]
    cell, value = worst_cell(rep)
    assert cell.split(".")[2].startswith(check) and value > 1e-3, (cell, value)


def test_lambda_from_the_wrong_level_fails_the_commutators_loudly(mutant, std3, rng):
    # Lambda L^i a read as L^i Lambda a: the two terms of [L^i, Lambda] cancel.
    # In degrees 2 and 4 of n = 3, i = 1 has both terms and i(k - n + i - 1) != 0
    import llab.lefschetz as lefschetz

    mutant(lefschetz, "commutator_operators", "dual_lefschetz(_power(e, i, t), t)", "_power(lam, i, t)")

    for k in (2, 4):
        a = _batch(3, k, rng).data
        worst = max(_score(R, a, a) for R in lefschetz.commutator_operators(std3, k, (1, 2)).values())
        assert worst > 1e-3, k
        assert _score(lefschetz.commutator_operators(std3, k, (1,))[1], a, a) > 1e-3, k


def test_a_metric_blind_gram_block_fails_the_random_triple_loudly(mutant):
    # G replaced by the coefficient inner product in the Gram blocks of the
    # scaling law and the cross term: the standard triple, whose Gram
    # matrices are the identity, cannot tell; the random triple must
    import llab.lefschetz as lefschetz
    from llab.suites import _identity_residuals, identity_suite, worst_cell

    mutant(lefschetz, "level_gram", "metric_gram(t, m)", "np.eye(math.comb(2 * t.n, m))")
    rep = identity_suite(n_values=(2, 3), cases=8, cross_cases=4)
    assert not rep["passed"]
    cell, value = worst_cell(rep)
    assert cell.endswith("[random_triple]") and value > 1e-3, (cell, value)
    assert cell.split(".")[2].startswith(("inner_scaling", "cross_term_orthogonality")), cell
    named = _identity_residuals(rep["cells"])
    for family in ("inner_scaling", "cross_term_orthogonality"):
        assert max(v for c, v in named.items() if f".{family}[random_triple]" in c) > 1e-3, family
    assert max(v for c, v in named.items() if "[random_triple]" not in c) < 1e-12
