"""The identity cells of `verify-identities` against their chain evaluation.

`llab.lefschetz` builds each identity of a (triple, degree) cell as one
residual operator (or Gram block), and the suite scores a seeded batch with
one product per identity.  `tests/reference_loops.py` keeps the evaluation
those operators replace: chains of products applied to each batch.  Here
the two see the same draws, and every operator column is checked against
the chain run on that one basis vector.  The suite scores an exactly-zero
operator without a product; that must give the very numbers every product
gives.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from reference_loops import (
    Ladder,
    chain_cell_residuals,
    chain_commutators,
    chain_conjugations,
    chain_primitivity,
    chain_roundtrip,
    chain_star_involution,
    chain_weil_consistency,
    chain_weil_relation,
    product_cell_residuals,
)

from llab import suites
from llab.algebra import KForm, build_standard_triple, inner, random_compatible_triple
from llab.lefschetz import (
    _power,
    commutator_operators,
    lambda_conjugation_operators,
    level_gram,
    primitive_basis,
    primitivity_operators,
    roundtrip_operator,
    star_involution_operator,
    weil_consistency_operator,
    weil_relation_operators,
)

SEED = 7


def _triple(which, n):
    if which == "standard":
        return build_standard_triple(n)
    return random_compatible_triple(n, np.random.default_rng([SEED, n, 10_000]))


def _suite_cells(which, n):
    """Each cell's (t, n, k, cases, cross_cases, seed) as the suite runs it:
    1000 forms and 500 cross pairs on the standard triple,
    RANDOM_TRIPLE_CASES of each on the random one."""
    t = _triple(which, n)
    if which == "standard":
        cases, cross, key = 1000, 500, []
    else:
        cases, cross, key = suites.RANDOM_TRIPLE_CASES, suites.RANDOM_TRIPLE_CASES, [1]
    return [(t, n, k, cases, cross, [SEED, n, k, *key]) for k in range(2 * n + 1)]


@pytest.mark.parametrize("which", ["standard", "random"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_cells_match_the_chain_evaluation(monkeypatch, n, which):
    shapes = []
    real = suites._random_batch

    def recorded(rng, dim, cases):
        shapes.append((dim, cases))
        return real(rng, dim, cases)

    monkeypatch.setattr(suites, "_random_batch", recorded)
    for t, n, k, cases, cross, seed in _suite_cells(which, n):
        got = suites._cell_residuals(t, n, k, cases, cross, np.random.default_rng(seed))
        got_shapes = shapes[:]
        del shapes[:]
        want = chain_cell_residuals(t, n, k, cases, cross, np.random.default_rng(seed))
        # the same forms are scored: the same draws, in the same order
        assert got_shapes == shapes and got_shapes, k
        del shapes[:]
        assert list(got) == list(want), k
        for name, v in want.items():
            assert abs(got[name] - v) <= 1e-13, (k, name, got[name], v)
            assert got[name] < 1e-13, (k, name)


def _close(column, delta, scale):
    """An operator column against the chain's residual on one basis vector."""
    assert column.shape == delta.shape
    return np.max(np.abs(column - delta), initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("which", ["standard", "random"])
@pytest.mark.parametrize("n", [2, 3])
def test_every_operator_column_is_its_form_level_residual(n, which):
    t = _triple(which, n)
    for k in range(2 * n + 1):
        dim = math.comb(2 * n, k)
        conj = lambda_conjugation_operators(t, k)
        comm = commutator_operators(t, k, (1, 2, 3, 4))
        linear = {
            "involution": (star_involution_operator(t, k), chain_star_involution),
            "weil_op": (weil_consistency_operator(t, k), chain_weil_consistency),
            "roundtrip": (roundtrip_operator(t, k), chain_roundtrip),
        }
        for c in range(dim):
            e = KForm(n, k, np.eye(dim)[:, c])
            X = Ladder(e, t)
            for name, (R, chain) in linear.items():
                assert _close(R[:, c], chain(e, t), max(1.0, np.max(np.abs(R)))), (k, c, name)
            for name, delta in chain_conjugations(X).items():
                assert _close(conj[name][:, c], delta, max(1.0, np.max(np.abs(conj[name])))), (k, c, name)
            for i, delta in chain_commutators(X, (1, 2, 3, 4)).items():
                assert _close(comm[i][:, c], delta, max(1.0, np.max(np.abs(comm[i]), initial=0.0))), (k, c, i)
        if k > n:
            continue
        # primitive identities: column c acts on the c-th primitive basis form
        P = primitive_basis(t, k)
        lam, power = primitivity_operators(t, k)
        weil = weil_relation_operators(t, k)
        for c in range(P.shape[1]):
            B = Ladder(KForm(n, k, P[:, c]), t)
            got_lam, got_power = chain_primitivity(B.a, t)
            assert _close(lam[:, c], got_lam, 1.0) and _close(power[:, c], got_power, 1.0), (k, c)
            for r, delta in chain_weil_relation(B).items():
                assert _close(weil[r][:, c], delta, max(1.0, np.max(np.abs(weil[r])))), (k, c, r)


@pytest.mark.parametrize("which", ["standard", "random"])
@pytest.mark.parametrize("n", [2, 3])
def test_every_gram_block_column_is_its_form_level_pairing(n, which):
    # K[:, c] = <L^p P_j, L^q P_i[:, c]>, taken with `inner` on the lifted forms
    t = _triple(which, n)
    for m in range(2 * n + 1):
        levels = range(max(0, m - n), m // 2 + 1)
        for p in levels:
            for q in levels:
                j, i = m - 2 * p, m - 2 * q
                K = level_gram(t, j, p, i, q)
                x = _power(KForm(n, j, primitive_basis(t, j)), p, t)
                Pi = primitive_basis(t, i)
                assert K.shape == (x.data.shape[1], Pi.shape[1])
                for c in range(Pi.shape[1]):
                    y = _power(KForm(n, i, np.repeat(Pi[:, c : c + 1], x.data.shape[1], axis=1)), q, t)
                    want = inner(x, y, t)
                    assert np.max(np.abs(K[:, c] - want)) <= 1e-13 * max(1.0, np.max(np.abs(K))), (m, p, q, c)


@pytest.mark.parametrize("which", ["standard", "random"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_skipped_products_leave_every_residual_bit_for_bit(n, which):
    for t, n, k, cases, cross, seed in _suite_cells(which, n):
        got = suites._cell_residuals(t, n, k, cases, cross, np.random.default_rng(seed))
        want = product_cell_residuals(t, n, k, cases, cross, np.random.default_rng(seed))
        # as JSON, so that a -0.0 for 0.0 shows too
        assert list(got) == list(want), k
        assert got == want and json.dumps(got) == json.dumps(want), k


def test_a_round_trip_on_part_of_the_batch_keeps_its_residual_bit_for_bit(monkeypatch):
    # with more forms than the round trip reads, it scores the first
    # ROUNDTRIP_CASES columns on their own scale
    monkeypatch.setattr(suites, "ROUNDTRIP_CASES", 5)
    for which in ("standard", "random"):
        t = _triple(which, 2)
        for k in range(5):
            got = suites._cell_residuals(t, 2, k, 40, 4, np.random.default_rng([SEED, 2, k]))
            want = product_cell_residuals(t, 2, k, 40, 4, np.random.default_rng([SEED, 2, k]))
            assert json.dumps(got) == json.dumps(want), (which, k)


@pytest.mark.parametrize("which", ["standard", "random"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_zero_operator_reads_no_batch(monkeypatch, n, which):
    # every product in the cell records its operator; every scored operator
    # records whether it is zero and which batch it read
    products, scored = [], []
    real_apply, real_score = suites._apply, suites._Batch.score

    def applied(M, x):
        products.append(M)
        return real_apply(M, x)

    def spied(batch, R):
        scored.append((R, batch._forms))
        return real_score(batch, R)

    monkeypatch.setattr(suites, "_apply", applied)
    monkeypatch.setattr(suites._Batch, "score", spied)
    zeros = 0
    for t, n, k, cases, cross, seed in _suite_cells(which, n):
        del products[:], scored[:]
        suites._cell_residuals(t, n, k, cases, cross, np.random.default_rng(seed))
        nonzero = [(R, forms) for R, forms in scored if R.any()]
        zeros += len(scored) - len(nonzero)
        # one product per nonzero operator, and P b once, only when a nonzero
        # primitive operator needs its scale
        P = [forms for _, forms in nonzero if forms is not None]
        assert all(M.any() for M in products), k
        assert len(products) == len(nonzero) + bool(P), k
        if P:
            assert sum(M is P[0] for M in products) == 1, k
    # the skip is not vacuous here: most of the standard triple's operators
    # are exactly zero, and some of the random triple's at k = 0 and 1
    assert zeros > 0


@pytest.mark.parametrize("entry, scores", [(0.0, lambda v: v == 0.0), (1e-3, lambda v: v > 0), (np.nan, math.isnan)])
def test_one_nonzero_entry_is_scored(monkeypatch, entry, scores):
    # a broken operator still shows: one entry of 1e-3 (or NaN) in an
    # otherwise zero operator, on the batch and on the primitive batch (at
    # n = 2 both primitivity operators have rows only at k = 2)
    t = build_standard_triple(2)

    def patched(R):
        R = np.zeros_like(R)
        R[0, 0] = entry
        return R

    monkeypatch.setattr(suites, "star_involution_operator", lambda t, k: patched(star_involution_operator(t, k)))
    monkeypatch.setattr(suites, "primitivity_operators", lambda t, k: tuple(map(patched, primitivity_operators(t, k))))
    out = suites._cell_residuals(t, 2, 2, 50, 10, np.random.default_rng([SEED, 2, 2]))
    for name in ("symplectic_star_involution", "primitivity_lambda", "primitivity_power"):
        assert scores(out[name]), (name, out[name])
