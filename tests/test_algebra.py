"""Unit tests for the exterior-algebra core.

Oracles come first: every derived quantity is checked against an
independent closed form (hand-expanded wedge signs, binomial dimensions,
explicit n = 1 star images) before the operator-level consistency tests.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from llab.algebra import (
    BigradedForm,
    CompatibleTriple,
    KForm,
    basis_masks,
    build_standard_triple,
    contract_vector,
    form_from_json,
    form_to_json,
    hodge_star,
    indices_to_mask,
    inner,
    j_action,
    mask_to_indices,
    merge_sign,
    metric_gram,
    norm,
    pq_decompose,
    random_compatible_triple,
    roundtrip_form_json,
    triple_from_json,
    triple_from_omega_j,
    triple_to_json,
    weil_operator,
    wedge,
)


# ---------------------------------------------------------------------------
# bitmask combinatorics
# ---------------------------------------------------------------------------


def test_basis_masks_counts_and_order():
    for dim in (2, 4, 6):
        for k in range(dim + 1):
            masks = basis_masks(dim, k)
            assert len(masks) == math.comb(dim, k)
            assert list(masks) == sorted(masks)  # ascending-mask convention
            assert all(bin(m).count("1") == k for m in masks)


def test_mask_index_roundtrip():
    for mask in (0b0, 0b1, 0b1010, 0b110101):
        assert indices_to_mask(mask_to_indices(mask)) == mask


def test_merge_sign_oracle():
    # e1 ^ e2 needs no transposition; e2 ^ e1 needs one.
    assert merge_sign(0b01, 0b10) == +1
    assert merge_sign(0b10, 0b01) == -1
    # moving e3 past e1 e2: two transpositions
    assert merge_sign(0b100, 0b011) == +1
    # overlap is a wedge-kill, handled by callers; sign itself is defined
    assert merge_sign(0b1, 0b1) in (-1, +1)


def test_wedge_anticommutes_on_one_forms(std2, rng):
    a = KForm(2, 1, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    b = KForm(2, 1, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert np.allclose(ab.data, -ba.data, atol=1e-14)
    assert np.allclose(wedge(a, a).data, 0.0, atol=1e-14)


def test_wedge_associative(rng):
    n = 3
    a = KForm(n, 1, rng.standard_normal(6))
    b = KForm(n, 2, rng.standard_normal(15))
    c = KForm(n, 1, rng.standard_normal(6))
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert np.allclose(lhs.data, rhs.data, atol=1e-13)


def test_wedge_graded_commutativity(rng):
    n = 3
    for ka, kb in ((1, 1), (1, 2), (2, 2), (2, 3)):
        a = KForm(n, ka, rng.standard_normal(math.comb(6, ka)))
        b = KForm(n, kb, rng.standard_normal(math.comb(6, kb)))
        sign = (-1) ** (ka * kb)
        assert np.allclose(wedge(a, b).data, sign * wedge(b, a).data, atol=1e-13)


def test_contraction_is_antiderivation(rng):
    n = 2
    v = rng.standard_normal(4)
    a = KForm(n, 1, rng.standard_normal(4))
    b = KForm(n, 2, rng.standard_normal(6))
    lhs = contract_vector(wedge(a, b), v)
    rhs_data = (
        wedge(contract_vector(a, v), b).data
        - wedge(a, contract_vector(b, v)).data
    )
    assert np.allclose(lhs.data, rhs_data, atol=1e-13)


# ---------------------------------------------------------------------------
# compatible triples
# ---------------------------------------------------------------------------


def test_standard_triple_structure(std2):
    n = std2.n
    assert n == 2
    assert np.allclose(std2.g, np.eye(2 * n))
    assert np.allclose(std2.J @ std2.J, -np.eye(2 * n))
    # compatibility g = omega J
    assert np.allclose(std2.g, std2.omega @ std2.J)
    assert np.allclose(std2.omega, -std2.omega.T)


def test_random_triple_compatible(rng):
    for n in (1, 2, 3):
        t = random_compatible_triple(n, rng)
        assert np.allclose(t.J @ t.J, -np.eye(2 * n), atol=1e-12)
        assert np.allclose(t.g, t.omega @ t.J, atol=1e-12)
        assert np.allclose(t.g, t.g.T, atol=1e-12)
        evals = np.linalg.eigvalsh(t.g)
        assert evals.min() > 0  # positive definite


def test_triple_from_omega_j_rejects_incompatible():
    n = 1
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    bad_J = np.eye(2)  # J^2 = +I, not a complex structure
    with pytest.raises(ValueError):
        triple_from_omega_j(omega, bad_J)


def test_triple_json_roundtrip(rng):
    t = random_compatible_triple(2, rng)
    t2 = triple_from_json(triple_to_json(t))
    assert np.array_equal(t.omega, t2.omega)
    assert np.array_equal(t.J, t2.J)
    assert np.array_equal(t.g, t2.g)


def test_triple_from_json_standard_shorthand():
    t = triple_from_json({"standard": 2})
    ref = build_standard_triple(2)
    assert np.array_equal(t.omega, ref.omega)


# ---------------------------------------------------------------------------
# metric structure, Hodge star, J-action
# ---------------------------------------------------------------------------


def test_standard_gram_is_identity(std2):
    for k in range(5):
        G = metric_gram(std2, k)
        assert np.allclose(G, np.eye(math.comb(4, k)), atol=1e-13)


def test_hodge_star_n1_oracle(std1):
    # n = 1, coordinates (x1, y1), volume form dx1 ^ dy1:
    # *dx1 = dy1 and *dy1 = -dx1.
    dx = KForm(1, 1, np.array([1.0, 0.0], dtype=complex))
    dy = KForm(1, 1, np.array([0.0, 1.0], dtype=complex))
    assert np.allclose(hodge_star(dx, std1).data, dy.data, atol=1e-14)
    assert np.allclose(hodge_star(dy, std1).data, -dx.data, atol=1e-14)
    one = KForm(1, 0, np.array([1.0 + 0j]))
    vol = hodge_star(one, std1)
    assert vol.k == 2 and np.allclose(vol.data, [1.0])


def test_hodge_star_involution_sign(std2, rng):
    # In even dimension 2n, ** = (-1)^{k(2n-k)} = (-1)^k on degree k.
    for k in range(5):
        dim = math.comb(4, k)
        a = KForm(2, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        aa = hodge_star(hodge_star(a, std2), std2)
        assert np.allclose(aa.data, (-1) ** k * a.data, atol=1e-12)


def test_hodge_star_isometry(std2, rng):
    a = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    assert norm(hodge_star(a, std2), std2) == pytest.approx(norm(a, std2), rel=1e-12)


def test_inner_product_defining_property(std2, rng):
    # <a, b> vol = a ^ *conj(b); check the top coefficient.
    a = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    b = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    top = wedge(a, hodge_star(KForm(2, 2, np.conj(b.data)), std2))
    assert top.k == 4
    assert complex(top.data[0]) == pytest.approx(complex(inner(a, b, std2)), rel=1e-12)


def test_j_action_squares_to_parity(std2, rng):
    # Pullback by J on k-forms squares to (-1)^k.
    for k in range(5):
        dim = math.comb(4, k)
        a = KForm(2, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        jja = j_action(j_action(a, std2), std2)
        assert np.allclose(jja.data, (-1) ** k * a.data, atol=1e-12)


def test_j_action_is_isometry(std2, rng):
    a = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    assert norm(j_action(a, std2), std2) == pytest.approx(norm(a, std2), rel=1e-12)


# ---------------------------------------------------------------------------
# (p,q)-decomposition and the Weil operator
# ---------------------------------------------------------------------------


def test_pq_decomposition_reconstructs(std2, rng):
    for k in range(5):
        dim = math.comb(4, k)
        a = KForm(2, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        bg = pq_decompose(a, std2)
        assert isinstance(bg, BigradedForm)
        total = sum(c.data for c in bg.components.values())
        assert np.allclose(total, a.data, atol=1e-12)
        assert all(p + q == k for (p, q) in bg.components)


def test_pq_components_are_weil_eigenvectors(std2, rng):
    a = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    bg = pq_decompose(a, std2)
    for (p, q), comp in bg.components.items():
        w = weil_operator(comp, std2)
        assert np.allclose(w.data, (1j) ** (p - q) * comp.data, atol=1e-12)


def test_weil_operator_squares_to_parity(std2, rng):
    for k in range(5):
        dim = math.comb(4, k)
        a = KForm(2, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        ww = weil_operator(weil_operator(a, std2), std2)
        assert np.allclose(ww.data, (-1) ** k * a.data, atol=1e-12)


def test_weil_matches_j_pullback(std3, rng):
    # The module exposes both routes; they must agree everywhere.
    for k in range(7):
        dim = math.comb(6, k)
        a = KForm(3, k, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        assert np.allclose(
            weil_operator(a, std3).data, j_action(a, std3).data, atol=1e-11
        )


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_form_json_roundtrip_is_exact(rng):
    a = KForm(2, 2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    b = roundtrip_form_json(a)
    assert b.n == a.n and b.k == a.k
    assert np.array_equal(a.data, b.data)  # bit-exact floats


def test_form_json_shape():
    a = KForm(2, 2, np.array([1.5, 0, 0, 0, 0, -2.0], dtype=complex))
    obj = form_to_json(a)
    assert set(obj) == {"n", "k", "coeffs"}
    assert obj["n"] == 2 and obj["k"] == 2
    # zero coefficients are dropped, indices are 1-based ascending lists
    assert len(obj["coeffs"]) == 2
    assert all(set(c) == {"idx", "re", "im"} for c in obj["coeffs"])
    text = json.dumps(obj)
    back = form_from_json(json.loads(text))
    assert np.array_equal(back.data, a.data)


def test_form_from_json_defaults_imaginary_to_zero():
    obj = {"n": 1, "k": 1, "coeffs": [{"idx": [1], "re": 3.0}]}
    a = form_from_json(obj)
    assert a.data[0] == 3.0 + 0.0j


def test_kform_validates_shape():
    with pytest.raises((ValueError, TypeError)):
        KForm(2, 2, np.zeros(5))  # wrong length: C(4,2) = 6


# ---------------------------------------------------------------------------
# orientation-reversing triples (regression: star must follow omega^n/n!)
# ---------------------------------------------------------------------------


def _conjugate_triple_n1():
    # omega = -dx^dy, J dx = -dy: compatible (g = id) but orientation-reversing
    # with respect to the coordinate order -- Pf(omega) = -1.
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return triple_from_omega_j(omega, J)


def test_orientation_reversing_triple_is_compatible():
    t = _conjugate_triple_n1()
    assert np.allclose(np.asarray(t.g), np.eye(2))
    assert t.volume_form().data[0] == pytest.approx(-1.0)  # signed Pfaffian


def test_star_follows_symplectic_orientation():
    # star(1) must be the volume form omega^n/n! itself, not +dx^dy
    t = _conjugate_triple_n1()
    one = KForm(1, 0, np.array([1.0 + 0j]))
    assert np.allclose(hodge_star(one, t).data, t.volume_form().data)
    # star(star) = (-1)^k survives the sign choice
    a = KForm(1, 1, np.array([0.3 + 0.1j, -0.7 + 0j]))
    assert np.max(np.abs(hodge_star(hodge_star(a, t), t).data + a.data)) < 1e-14


def test_defining_property_on_reversed_orientation(rng):
    # <a, b> vol = a ^ *conj(b) with vol the *signed* volume form
    t = _conjugate_triple_n1()
    a = KForm(1, 1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    b = KForm(1, 1, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    top = wedge(a, hodge_star(KForm(1, 1, np.conj(b.data)), t))
    vol_coeff = complex(t.volume_form().data[0])
    assert complex(top.data[0]) == pytest.approx(inner(a, b, t) * vol_coeff, rel=1e-12)


# ---------------------------------------------------------------------------
# the operator bundle: one compound helper, batches, lifetime
# ---------------------------------------------------------------------------


def test_compound_matches_minor_loop(rng):
    # reference: one determinant per (I, J) pair of k-subsets
    from llab.algebra import _compound

    for n in (2, 3):
        dim = 2 * n
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for k in range(dim + 1):
            sets = [np.array(mask_to_indices(m), dtype=int) - 1 for m in basis_masks(dim, k)]

            def minor(I, J):
                if k == 0:
                    return 1.0
                if k == 1:
                    return M[I[0], J[0]]
                return np.linalg.det(M[np.ix_(I, J)])

            ref = np.array([[minor(I, J) for J in sets] for I in sets])
            assert np.array_equal(_compound(M, dim, k), ref)


def test_batched_forms_act_column_by_column(rng):
    t = random_compatible_triple(2, rng)
    data = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    batch = KForm(2, 2, data)
    star_b, norm_b = hodge_star(batch, t), norm(batch, t)
    ip_b = inner(batch, batch.conjugate(), t)
    for c in range(4):
        a = KForm(2, 2, data[:, c])
        assert np.allclose(star_b.data[:, c], hodge_star(a, t).data, rtol=0, atol=1e-13)
        assert norm_b[c] == pytest.approx(norm(a, t), rel=1e-14)
        assert ip_b[c] == pytest.approx(inner(a, a.conjugate(), t), rel=1e-14)
    comps = pq_decompose(batch, t).components
    assert comps[(1, 1)].data.shape == (6, 4)


def test_operators_die_with_their_triple():
    import gc
    import weakref

    import llab.algebra as algebra
    import llab.lefschetz as lefschetz
    from llab.lefschetz import primitive_decompose

    def exercise(seed):
        rng = np.random.default_rng(seed)
        t = random_compatible_triple(3, rng)
        a = KForm(3, 3, rng.standard_normal(20) + 1j * rng.standard_normal(20))
        primitive_decompose(a, t)
        pq_decompose(a, t)
        hodge_star(a, t)
        return weakref.ref(t)

    def cache_sizes():
        return {
            (mod.__name__, name): obj.cache_info().currsize
            for mod in (algebra, lefschetz)
            for name, obj in vars(mod).items()
            if callable(getattr(obj, "cache_info", None))
        }

    ref = exercise(0)
    gc.collect()
    assert ref() is None
    before = cache_sizes()
    for seed in range(1, 51):
        exercise(seed)
    assert cache_sizes() == before
