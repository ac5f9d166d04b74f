"""Unit tests for the exterior-algebra core.

Oracles come first: every derived quantity is checked against an
independent closed form (hand-expanded wedge signs, binomial dimensions,
explicit n = 1 star images) before the operator-level consistency tests.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from llab.algebra import (
    BigradedForm,
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
    metric_gram,
    norm,
    pq_decompose,
    pq_projector_matrices,
    random_compatible_triple,
    triple_from_json,
    triple_from_omega_j,
    triple_to_json,
    weil_operator,
    wedge,
)
from reference_loops import (
    ReferenceOps,
    merge_sign,
    minor_sets,
    product_compound,
    ref_pq_decompose,
    ref_wedge,
    ref_wedge_table,
    roundtrip_form_json,
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


@pytest.mark.parametrize("dim", range(2, 13))
def test_wedge_tables_equal_the_merge_sign_loop(dim):
    # the whole-array tables, entry for entry and bit for bit, against one
    # merge_sign call per product
    from llab.algebra import _wedge_table

    for a in range(dim + 1):
        for b in range(dim + 1 - a):
            got, want = _wedge_table(dim, a, b), ref_wedge_table(dim, a, b)
            for name, g, w in zip(("target", "left", "right", "sign"), got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (dim, a, b, name)


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


def test_wedge_rejects_batches(rng):
    # a (C, 1) batch would otherwise broadcast the signs into an outer product
    a = KForm(2, 1, rng.standard_normal((4, 1)))
    b = KForm(2, 1, rng.standard_normal(4))
    for x, y in ((a, b), (b, a), (a, a)):
        with pytest.raises(ValueError, match="single forms"):
            wedge(x, y)


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


def _assert_pq_parts_are_the_projections(t, k, rng):
    """pq_decompose's parts equal the projectors applied to the form and are
    eigenvectors of the Weil operator, to 1e-12 of the form's largest
    coefficient.  Both routes solve with the frame compound C, whose
    orthonormal coframe keeps cond(C) below 200 at n = 6."""
    size = math.comb(2 * t.n, k)
    a = KForm(t.n, k, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    tol = 1e-12 * np.max(np.abs(a.data))
    parts = pq_decompose(a, t).components
    projectors = pq_projector_matrices(t, k)
    assert list(parts) == list(projectors)
    for (p, q), part in parts.items():
        assert np.max(np.abs(part.data - projectors[(p, q)] @ a.data)) <= tol, (k, p)
        eigen = (1j) ** ((p - q) % 4) * part.data
        assert np.max(np.abs(weil_operator(part, t).data - eigen)) <= tol, (k, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pq_decompose_matches_the_projectors_in_every_degree(n):
    rng = np.random.default_rng(290 + n)
    t = random_compatible_triple(n, rng)
    for k in range(2 * n + 1):
        _assert_pq_parts_are_the_projections(t, k, rng)


def test_pq_decompose_matches_the_projectors_at_the_wire_cap():
    # the middle degree, and two above it, read through degrees 5 and 4
    rng = np.random.default_rng(296)
    t = random_compatible_triple(6, rng)
    for k in (6, 7, 8):
        _assert_pq_parts_are_the_projections(t, k, rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("which", ["standard", "random"])
def test_pq_decompose_matches_the_split_in_the_forms_own_degree(n, which):
    # up to the middle degree pq_decompose is the reference split; above it
    # the complementary route differs in rounding only, to the 1e-12 of
    # the form's largest coefficient that the projector comparison allows
    rng = np.random.default_rng(390 + n)
    t = build_standard_triple(n) if which == "standard" else random_compatible_triple(n, rng)
    for k in range(2 * n + 1):
        size = math.comb(2 * n, k)
        for shape in ((size,), (size, 3)):
            a = KForm(n, k, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            got, want = pq_decompose(a, t).components, ref_pq_decompose(a, t).components
            assert list(got) == list(want), (n, k)
            for pq, part in want.items():
                if k <= n:
                    assert np.array_equal(got[pq].data, part.data), (n, k, pq, shape)
                else:
                    assert got[pq].data.shape == shape
                    assert np.max(np.abs(got[pq].data - part.data)) <= 1e-12 * np.max(np.abs(a.data)), (n, k, pq)


def test_the_split_of_a_function_or_a_top_form_reads_no_frame(monkeypatch):
    # Lambda^0 and Lambda^2n are one type each, (0,0) and (n,n): the split
    # hands the form back, through the degree-0 frame compound [[1]]
    from llab.algebra import CompatibleTriple

    def refuse(self):
        raise AssertionError("CompatibleTriple.frame built")

    monkeypatch.setattr(CompatibleTriple, "frame", property(refuse))
    rng = np.random.default_rng(39)
    for n in range(1, 7):
        t = random_compatible_triple(n, rng)
        for k in (0, 2 * n):
            a = KForm(n, k, rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)))
            parts = pq_decompose(a, t).components
            assert list(parts) == [(k // 2, k // 2)]
            assert np.array_equal(parts[(k // 2, k // 2)].data, a.data)


def test_no_frame_compound_above_the_middle_degree(monkeypatch):
    # the projectors, and the Weil operator the identity suite reads, are
    # the pq_decompose split, which reads a k > n form through degree 2n - k;
    # the torus checks and the derivation read types only through them
    from llab.algebra import CompatibleTriple
    from llab.hyperbolic.gap import gromov_bound_report
    from llab.suites import identity_suite, torus_suite

    real_frame_compound, above = CompatibleTriple.frame_compound, []

    def frame_compound(self, k):
        if k > self.n:
            above.append((self.n, k))
        return real_frame_compound(self, k)

    monkeypatch.setattr(CompatibleTriple, "frame_compound", frame_compound)
    rng = np.random.default_rng(40)
    for n in range(1, 5):
        for t in (build_standard_triple(n), random_compatible_triple(n, rng)):
            for k in range(2 * n + 1):
                pq_projector_matrices(t, k)
    assert above == []
    assert identity_suite(n_values=(1, 2, 3), cases=4, cross_cases=2)["passed"]
    assert torus_suite(n_values=(2, 3), N=1, samples=4)["passed"]
    assert all(gromov_bound_report(n, k)["checks_pass"] for n, k in ((1, 0), (2, 1), (3, 0)))
    assert above == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_batch_above_the_middle_degree_splits_as_its_columns(n):
    rng = np.random.default_rng(490 + n)
    t = random_compatible_triple(n, rng)
    for k in range(n + 1, 2 * n + 1):
        size = math.comb(2 * n, k)
        data = rng.standard_normal((size, 4)) + 1j * rng.standard_normal((size, 4))
        tol = 1e-12 * np.max(np.abs(data))
        parts = pq_decompose(KForm(n, k, data), t).components
        projectors = pq_projector_matrices(t, k)
        assert list(parts) == list(projectors)
        for c in range(4):
            single = pq_decompose(KForm(n, k, data[:, c]), t).components
            assert list(single) == list(parts)
            for pq, part in parts.items():
                assert np.max(np.abs(part.data[:, c] - single[pq].data)) <= tol, (k, pq, c)
        for pq, part in parts.items():
            assert np.max(np.abs(part.data - projectors[pq] @ data)) <= tol, (k, pq)


def _two_norm_estimate(W: np.ndarray, rng, steps: int = 10) -> float:
    """||W||_2 from below: ||W x|| / ||x|| after `steps` power iterations of
    W^H W from a random x."""
    x = rng.standard_normal(W.shape[1]).astype(complex)
    for _ in range(steps):
        x = W.conj().T @ (W @ x)
        x /= np.linalg.norm(x)
    return float(np.linalg.norm(W @ x))


@pytest.mark.parametrize("s", [0, 1, 2])
def test_orthonormal_coframe_keeps_the_n6_frame_compound_well_conditioned(s):
    # with the eigenvectors of J^T normalized one by one, cond(C) of these
    # triples was 7.4e3-6.8e4; orthonormalized it is 59-152.  The Weil
    # operator W = C diag(i^(p-q)) C^-1 has 2-norm 58.9, 151.7 and 145.8 here
    # whatever the frame (the real basis is not g-orthonormal), and the
    # Weil relation's rounding floor is about 1e-14 ||W||_2 of the form's
    # largest coefficient: 4.5e-13, 2.0e-12 and 8.1e-13 measured, under
    # gates of 1.12e-12, 2.88e-12 and 2.69e-12 (||W||_2 estimated from below
    # as 58.9, 151.7 and 141.6), each tighter than the flat 3e-12 it replaces
    t = random_compatible_triple(6, np.random.default_rng([s, 6]))
    frame = t.frame
    phi = frame[:, :6]
    assert np.abs(phi.conj().T @ phi - np.eye(6)).max() < 1e-14
    assert np.abs(t.J.T @ phi - 1j * phi).max() < 1e-12
    assert np.array_equal(frame[:, 6:], phi.conj())
    assert np.linalg.cond(t.frame_compound(6)) < 200
    rng = np.random.default_rng([s, 66])
    a = KForm(6, 6, rng.standard_normal(924) + 1j * rng.standard_normal(924))
    W = weil_operator(KForm(6, 6, np.eye(924)), t).data
    gate = 1.9e-14 * _two_norm_estimate(W, np.random.default_rng([s, 7])) * np.max(np.abs(a.data))
    assert gate < 3e-12 * np.max(np.abs(a.data))
    for (p, q), part in pq_decompose(a, t).components.items():
        eigen = (1j) ** ((p - q) % 4) * part.data
        assert np.max(np.abs(weil_operator(part, t).data - eigen)) <= gate, p


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


def _exact_det(A) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    A = [[Fraction(int(x)) for x in row] for row in A]
    det = Fraction(1)
    for c in range(len(A)):
        piv = next((r for r in range(c, len(A)) if A[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, len(A)):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def test_compound_matches_minor_loop(rng):
    from llab.algebra import _compound

    for n in (2, 3):
        dim = 2 * n
        # (a) small integers: every product and partial sum of the cofactor
        # expansion is an exact float, so each minor must come out exact; each
        # degree is one cofactor step from the one below, as the bundle builds it
        Z = rng.integers(-3, 4, size=(dim, dim)).astype(float)
        C = None
        for k in range(dim + 1):
            sets = minor_sets(dim, k)
            ref = np.array([[float(_exact_det(Z[np.ix_(I, J)])) for J in sets] for I in sets])
            C = _compound(Z, dim, k, C)
            assert np.array_equal(C, ref), (n, k)
        # (b) complex entries against one LAPACK determinant per minor
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        C = None
        for k in range(dim + 1):
            sets = minor_sets(dim, k)
            ref = np.array([[np.linalg.det(M[np.ix_(I, J)]) if k else 1.0 for J in sets] for I in sets])
            C = _compound(M, dim, k, C)
            assert np.max(np.abs(C - ref)) <= 1e-13 * np.max(np.abs(ref)), (n, k)
    # (c) the signed gather gives the bits of the product by the sign, on
    # real and complex matrices and on a zero row (0 * -1 is -0.0)
    for n in (2, 3, 4):
        dim = 2 * n
        for M in (rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))):
            M[0] = 0.0
            C = None
            for k in range(dim + 1):
                want = product_compound(M, dim, k, C)
                C = _compound(M, dim, k, C)
                assert C.dtype == want.dtype and C.tobytes() == want.tobytes(), (n, k)


# ---------------------------------------------------------------------------
# every block against the per-mask reference loops (tests/reference_loops.py)
# ---------------------------------------------------------------------------


def _assert_close(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, what
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * np.max(np.abs(ref), initial=1.0), what


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_blocks_match_the_reference_loops(n):
    rng = np.random.default_rng(100 + n)
    triples = [build_standard_triple(n)] + [random_compatible_triple(n, rng) for _ in range(3)]
    dim = 2 * n
    for which, t in enumerate(triples):
        ops, ref = t, ReferenceOps(t)
        for k in range(dim + 1):
            where = (which, k)
            for name in ("gram", "omega_gram", "star", "sstar", "jpull", "frame_compound"):
                _assert_close(getattr(ops, name)(k), getattr(ref, name)(k), (name,) + where)
            basis = KForm(n, k, np.eye(math.comb(dim, k)))
            _assert_close(weil_operator(basis, t).data, ref.weil(k), ("weil",) + where)
            pq = ops.pq(k)
            for key, M in ref.pq(k).items():
                _assert_close(pq[key], M, ("pq", key) + where)
            assert set(pq) == set(ref.pq(k))
            for r in range((dim - k) // 2 + 2):  # one power past the top: no rows
                _assert_close(ops.lpow(k, r), ref.lpow(k, r), ("lpow", r) + where)
            if k >= 2:
                _assert_close(ops.lam(k), ref.lam(k), ("lam",) + where)
            if k <= n:
                B = ops.prim(k)
                _assert_close(B @ B.conj().T, ref.prim_projector(k), ("prim",) + where)

        def form(k):
            size = math.comb(dim, k)
            return KForm(n, k, rng.standard_normal(size) + 1j * rng.standard_normal(size))

        for ka in range(dim + 1):
            for kb in range(dim + 1 - ka):
                a, b = form(ka), form(kb)
                _assert_close(wedge(a, b).data, ref_wedge(a, b), ("wedge", ka, kb, which))


def test_kform_copies_the_callers_array_and_owns_its_own(rng):
    data = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a = KForm(2, 2, data)
    data[0] = 99.0  # the caller's array stays the caller's
    assert a.data[0] != 99.0
    assert not a.data.flags.writeable
    fresh = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = KForm._own(2, 2, fresh)  # an array just computed is taken as it is
    assert b.data is fresh and not fresh.flags.writeable
    with pytest.raises(ValueError):
        KForm._own(2, 2, np.zeros(5, dtype=complex))
    with pytest.raises(TypeError):
        KForm._own(2, 2, np.zeros(6))


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


def _real_product_cases(rng):
    """(M, x) pairs in every layout a real block meets: a contiguous batch,
    a column slice of one, an F-ordered batch and a single column."""
    M = rng.standard_normal((15, 20))
    X = rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))
    return {
        "contiguous": (M, X),
        "column slice": (M, X[:, :4]),
        "F-ordered": (M, np.asfortranarray(X)),
        "one column": (M, X[:, 2:3]),
    }


@pytest.mark.parametrize("layout", ["contiguous", "column slice", "F-ordered", "one column"])
def test_real_blocks_act_on_complex_batches_as_real_products(layout, rng):
    from llab.algebra import _apply

    M, x = _real_product_cases(rng)[layout]
    got, want = _apply(M, x), M.astype(complex) @ x
    assert got.shape == want.shape and got.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    if layout == "F-ordered":  # no (Re, Im) view of the rows: the plain product
        assert np.array_equal(got, M @ x)


def test_complex_blocks_and_single_forms_take_the_plain_product(rng):
    from llab.algebra import _apply

    M = rng.standard_normal((15, 20))
    X = rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))
    Mc = M + 1j * rng.standard_normal((15, 20))
    assert np.array_equal(_apply(Mc, X), Mc @ X)
    assert np.array_equal(_apply(M, X[:, 0].copy()), M @ X[:, 0])
    assert np.array_equal(_apply(M, X.real.copy()), M @ X.real)


def test_a_kept_value_is_built_once_per_owner_and_arguments():
    # `_kept` keys each value by (builder name, *args) in its owner's own
    # memo: a None result is kept like any other, a failed build is not,
    # and the arrays of a result are frozen at any depth
    from llab.algebra import _kept

    calls = []

    class Owner:
        @_kept
        def block(self, k):
            calls.append(k)
            if k < 0:
                raise ValueError("no block")
            return None if k == 0 else {"m": (np.zeros(k),)}

    a, b = Owner(), Owner()
    assert a.block(0) is None and a.block(0) is None
    first = a.block(2)
    assert a.block(2) is first and not first["m"][0].flags.writeable
    assert b.block(2) is not first
    for _ in range(2):
        with pytest.raises(ValueError, match="no block"):
            a.block(-1)
    assert calls == [0, 2, 2, -1, -1]
    assert list(vars(a)["_kept"]) == [("block", 0), ("block", 2)]


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

    # reference counting alone frees the triple and its operator bundle:
    # the bundle holds no reference back that would make a cycle
    gc.disable()
    try:
        ref = exercise(0)
        assert ref() is None
    finally:
        gc.enable()
    before = cache_sizes()
    for seed in range(1, 51):
        exercise(seed)
    assert cache_sizes() == before
