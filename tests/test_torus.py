"""Unit tests for the flat-torus Fourier-mode complex.

Dimension oracles are classical: constant forms give binomial Betti
numbers C(2n, k); the degree-2 split is (1,1) of dimension n^2 plus
(2,0)+(0,2) of dimension n^2 - n, equivalently J-invariant n^2 and
J-anti-invariant n^2 - n.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from llab.algebra import KForm, Ops, basis_masks, random_compatible_triple
from llab.lefschetz import primitive_decompose
from llab.torus import (
    FourierComplex,
    build_fourier_complex,
    check_complex,
    harmonic_space,
    verify_kahler_identity,
    verify_lemma_L8,
    verify_lemma_L10,
    verify_p7_decomposition,
    anti_invariant_suite,
    self_dual_invariant_relation,
)
from reference_loops import ReferenceOps


# ---------------------------------------------------------------------------
# construction and operator structure
# ---------------------------------------------------------------------------


def test_build_validation(std2):
    with pytest.raises(ValueError):
        build_fourier_complex(2, -1, std2)
    with pytest.raises(ValueError):
        build_fourier_complex(3, 1, std2)  # triple dimension mismatch


@pytest.fixture(scope="module")
def fc4_random():
    """T^4 at cutoff N=1 with a random triple, whose metric is far from the
    identity: the g-adjoint is not the conjugate transpose there."""
    return build_fourier_complex(2, 1, random_compatible_triple(2, np.random.default_rng(5)))


_SHIFT = {"d": 1, "d_star": -1, "d_lambda": -1, "d_lambda_star": 1,
          "laplacian": 0, "dee": 0, "d_squared": 2, "d_lambda_squared": -2}


def _direct_mode_ops(ref, xi) -> dict:
    """Reference: the operators of mode xi on the whole 4^n-dimensional
    algebra, built from scratch out of the per-mask loops."""
    d = sum(2j * np.pi * x * ref.W[j] for j, x in enumerate(xi))
    d_lambda = d @ ref.Lam - ref.Lam @ d
    return _WholeOps(d=d, d_star=ref.adjoint(d), d_lambda=d_lambda, d_lambda_star=ref.adjoint(d_lambda))


class _WholeOps(dict):
    """A mode's first-order operators on the whole algebra; Delta_d = dd* +
    d*d, D = d*d + d^{Lambda*}d^Lambda, d^2 and (d^Lambda)^2 are formed
    when first read."""

    _PRODUCTS = {
        "laplacian": (("d", "d_star"), ("d_star", "d")),
        "dee": (("d_star", "d"), ("d_lambda_star", "d_lambda")),
        "d_squared": (("d", "d"),),
        "d_lambda_squared": (("d_lambda", "d_lambda"),),
    }

    def __missing__(self, name):
        self[name] = sum(self[a] @ self[b] for a, b in self._PRODUCTS[name])
        return self[name]


def _degree_block(fc, op, name, k):
    """The Lambda^k -> Lambda^{k + shift} block of a whole-algebra operator."""
    return op[np.ix_(basis_masks(2 * fc.n, k + _SHIFT[name]), basis_masks(2 * fc.n, k))]


@pytest.mark.parametrize("which", ["standard", "random"])
def test_mode_ops_match_direct_construction(which, fc4, fc4_random):
    fc = fc4 if which == "standard" else fc4_random
    ref = ReferenceOps(fc.triple)
    for xi in ((1, 0, 0, 0), (0, 0, 0, -1), (0, 1, -1, 0), fc.modes[0], fc.modes[-1]):
        ops = fc.mode_ops(xi)
        assert ops.xi == xi
        for name, whole in _direct_mode_ops(ref, xi).items():
            for k in range(5):
                got, want = ops(name, k), _degree_block(fc, whole, name, k)
                assert got.shape == want.shape, (xi, name, k)
                scale = max(1.0, np.max(np.abs(want), initial=0.0))
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale, (xi, name, k)
    if which == "random":
        ops = fc.mode_ops((1, 0, 0, 0))
        assert np.max(np.abs(ops("d_star", 2) - ops("d", 1).conj().T)) > 1e-2  # the metric matters here


def test_torus_checks_on_a_random_triple(fc4_random):
    fc = fc4_random
    out = check_complex(fc)
    for key in ("d_squared", "d_lambda_squared", "adjointness", "commutator_L", "commutator_Lambda"):
        assert out[key] < 1e-11, (key, out[key])
    assert out["hodge_dim_mismatch"] == 0
    assert out["harmonic_iff_closed_coclosed"] < 1e-8
    for k in range(5):
        hs = harmonic_space(fc, k)
        assert hs.total_dim == math.comb(4, k)
        assert hs.nonzero_mode_kernel_dims == 0
    for p in range(3):
        for q in range(3):
            assert verify_p7_decomposition(fc, p, q)["passed"], (p, q)
    assert verify_lemma_L8(fc)["passed"]
    assert verify_lemma_L10(fc, samples=20, seed=3)["passed"]
    assert verify_kahler_identity(fc)["passed"]


def _patch_block(monkeypatch, mutate):
    """Replace each block the complex builds, or reads to build another, by
    mutate(fc, name, k, A), A the correct block."""
    block = FourierComplex.block
    monkeypatch.setattr(FourierComplex, "block", lambda fc, name, k: mutate(fc, name, k, block(fc, name, k)))


def test_build_rejects_a_complex_whose_square_is_not_zero(std2, monkeypatch):
    # drops the wedge signs
    _patch_block(monkeypatch, lambda fc, name, k, A: np.abs(A) if name == "d" else A)
    with pytest.raises(ArithmeticError, match=r"\(d\)\^2 != 0"):
        build_fourier_complex(2, 0, std2)


def test_check_complex_structure(fc4):
    out = check_complex(fc4)
    for key in ("d_squared", "d_lambda_squared", "adjointness", "commutator_L", "commutator_Lambda"):
        assert out[key] < 1e-11, (key, out[key])
    assert out["hodge_dim_mismatch"] == 0
    assert out["harmonic_iff_closed_coclosed"] < 1e-8


def test_check_complex_t6(fc6):
    out = check_complex(fc6)
    assert out["d_squared"] < 1e-11
    assert out["hodge_dim_mismatch"] == 0


# ---------------------------------------------------------------------------
# harmonic dimensions (classical oracles)
# ---------------------------------------------------------------------------


def test_betti_numbers_t4(fc4):
    for k in range(5):
        hs = harmonic_space(fc4, k)
        assert hs.total_dim == math.comb(4, k)
        assert hs.nonzero_mode_kernel_dims == 0  # flat torus: no twisted kernels


def test_degree2_split_t4(fc4):
    hs = harmonic_space(fc4, 2)
    assert hs.total_dim == 6
    assert hs.bidegree_dims[(1, 1)] == 4
    assert hs.bidegree_dims[(2, 0)] + hs.bidegree_dims[(0, 2)] == 2
    assert hs.invariant_dim == 4
    assert hs.anti_invariant_dim == 2
    # Lefschetz split: primitive (r=0) plus omega-line (r=1)
    assert hs.lefschetz_dims[0] == 5
    assert hs.lefschetz_dims[1] == 1
    assert max(hs.residuals.values()) < 1e-10


def test_degree2_split_t6(fc6):
    hs = harmonic_space(fc6, 2)
    assert hs.total_dim == 15
    assert hs.bidegree_dims[(1, 1)] == 9
    assert hs.bidegree_dims[(2, 0)] + hs.bidegree_dims[(0, 2)] == 6
    assert hs.invariant_dim == 9
    assert hs.anti_invariant_dim == 6


# ---------------------------------------------------------------------------
# named verification routines
# ---------------------------------------------------------------------------


def test_p7_spot_checks(fc4):
    for p, q in ((1, 1), (2, 1), (2, 2), (0, 2)):
        out = verify_p7_decomposition(fc4, p, q)
        assert out["passed"], out
        assert out["projection_residual"] < 1e-10


def test_p7_rejects_bad_bidegree(fc4):
    with pytest.raises(ValueError):
        verify_p7_decomposition(fc4, 3, 3)  # p + q > 2n


def test_lemma_L8(fc4):
    out = verify_lemma_L8(fc4)
    assert out["passed"]
    assert out["max_residual"] < 1e-10
    assert "samples" not in out  # proven on coefficients: nothing is drawn
    assert out["proven_types"] == 9  # (n + 1)^2 types (p, q) over the degrees


def test_lemma_L8_without_the_type_restriction_fails_loudly(fc4_random, monkeypatch):
    # every form one type: the gap ||d^Lambda a||^2 - ||d* a||^2 on all of
    # Lambda^k, which is nowhere near 0
    import llab.torus

    monkeypatch.setattr(llab.torus, "_holomorphic_degree", lambda dim, k: np.zeros(math.comb(dim, k), dtype=int))
    out = verify_lemma_L8(fc4_random)
    assert not out["passed"] and out["max_residual"] > 0.1, out


def test_torus_sub_verdicts_honour_tol():
    from llab.suites import torus_suite

    # every residual here is roundoff, some exactly 0 (L8 and the L10 cross
    # term on the standard triple), which a tol of 0 does not pass either; at
    # the default tol all of them pass
    for tol, want in ((0.0, False), (1e-10, True)):
        block = torus_suite(n_values=(2,), N=1, samples=20, tol=tol)["blocks"]["n2"]
        for check in ("lemma_L8", "lemma_L10", "kahler_identity", "anti_invariant", "self_dual"):
            assert block[check]["passed"] is want, (tol, check)


def test_lemma_L10(fc4):
    out = verify_lemma_L10(fc4, samples=50, seed=3)
    assert out["passed"]
    assert out["max_cross_term"] < 1e-10
    # equivalence constants: the decomposed norm sits between c_min and
    # c_max times the plain norm, with c_min >= 1 (cross terms vanish, so
    # the decomposition can only add weight); degree 0 is trivially 1.
    consts = out["equivalence_constants"]
    assert consts[0]["c_min"] == pytest.approx(1.0, abs=1e-12)
    assert all(v["c_min"] >= 1.0 - 1e-12 for v in consts.values())
    assert all(v["c_max"] >= v["c_min"] for v in consts.values())


def test_kahler_identity(fc4):
    out = verify_kahler_identity(fc4)
    assert out["passed"]
    assert out["max_residual"] < 1e-10


def _reference_kahler(fc, tol=1e-10):
    """verify_kahler_identity on all (2n)^2 coefficient pairs per degree."""
    from llab.torus import _adjoint_stack, _holomorphic_degree, _symmetric_product

    alg, top = fc.triple.ops, 2 * fc.n
    F = [alg.frame_compound(k) for k in range(top + 1)]
    Finv = [np.linalg.inv(f) for f in F]
    p = [_holomorphic_degree(top, k) for k in range(top + 1)]
    dbar, dbar_star = [], []
    for k in range(top):
        in_frame = Finv[k + 1] @ fc.block("d", k) @ F[k]
        dbar.append(F[k + 1] @ np.where(p[k + 1][:, None] == p[k], in_frame, 0.0) @ Finv[k])
        dbar_star.append(_adjoint_stack(alg, dbar[k], k, k + 1))
    worst = leak_dbar = leak_lap = scale = 0.0
    for k in range(top + 1):
        lap = fc.quadratic("laplacian", k)
        lap_dbar = 0.0
        if k:
            lap_dbar = lap_dbar + _symmetric_product(dbar[k - 1], dbar_star[k - 1])
        if k < top:
            lap_dbar = lap_dbar + _symmetric_product(dbar_star[k], dbar[k])
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("triple", ["standard", "random"])
def test_kahler_identity_on_the_symmetric_pairs_equals_all_pairs(n, triple):
    # Q[j, l] = Q[l, j], so the n(2n + 1) pairs j <= l carry every value
    # the (2n)^2 pairs do: the report is the same, bit for bit
    from llab.algebra import build_standard_triple

    if triple == "standard":
        t = build_standard_triple(n)
    else:
        t = random_compatible_triple(n, np.random.default_rng(5))
    fc = build_fourier_complex(n, 0, t)
    assert verify_kahler_identity(fc) == _reference_kahler(fc)


def test_anti_invariant_n2(fc4):
    out = anti_invariant_suite(fc4)
    assert out["passed"]
    assert out["anti_invariant_dim"] == 2
    assert out["invariant_dim"] == 4
    assert out["star_normalization_match"] == "both (coincide at n=2)"
    assert out["star_residual_over_factorial_nm2"] < 1e-10


def test_anti_invariant_n3(fc6):
    out = anti_invariant_suite(fc6)
    assert out["passed"]
    assert out["anti_invariant_dim"] == 6
    assert out["star_normalization_match"] == "1/(n-2)!"
    assert out["star_residual_over_factorial_nm2"] < 1e-10
    # the competing normalization is measurably wrong at n = 3
    assert out["star_residual_over_factorial_nm1"] > 1e-3


@pytest.mark.parametrize("case", ["sign flipped at n=2", "sign flipped at n=3", "1/(n-1)! at n=3"])
def test_anti_invariant_closedness_with_a_wrong_T_fails_loudly(case, fc4, fc6, monkeypatch):
    # T = c *_1^{-1} L^{n-2} on Lambda^3, mutated through its L^{n-2} factor:
    # -1 flips its sign, 1/2 turns c = 1/(n-2)! into 1/(n-1)! at n = 3
    fc, factor = {"sign flipped at n=2": (fc4, -1.0), "sign flipped at n=3": (fc6, -1.0),
                  "1/(n-1)! at n=3": (fc6, 0.5)}[case]
    real = Ops.lpow
    monkeypatch.setattr(Ops, "lpow", lambda self, k, r: factor * real(self, k, r) if k == 3 else real(self, k, r))
    out = anti_invariant_suite(fc)
    assert not out["passed"] and out["max_harmonicity_residual"] > 0.1, out
    assert out["closed_anti_invariant_dim_nonzero_modes"] is None
    assert out["star_normalization_match"] != "neither"  # part (i) reads no L^{n-2} on Lambda^3


def test_self_dual_relation_n2(fc4):
    out = self_dual_invariant_relation(fc4, samples=60)
    assert out["passed"]
    assert out["nontrivial_cases"] > 0
    assert out["max_ratio_deviation_from_nminus1"] < 1e-10
    assert out["max_dlambda_residual"] < 1e-10
    # d^Lambda(f omega) = c df with measured c = 1
    assert out["d_lambda_f_omega_coefficient_minus_1"] < 1e-10


def test_self_dual_relation_n3(fc6):
    out = self_dual_invariant_relation(fc6, samples=40)
    assert out["passed"]
    assert out["max_ratio_deviation_from_nminus1"] < 1e-10
    assert out["max_dlambda_residual"] < 1e-10


def test_self_dual_needs_n_at_least_2(std1):
    fc = build_fourier_complex(1, 1, std1)
    with pytest.raises(ValueError):
        self_dual_invariant_relation(fc, samples=5)


def test_lemma_L10_proves_its_cross_term_without_samples(fc4_random):
    # the cross term is proven on the component maps; samples only measure
    # the equivalence constants
    out = verify_lemma_L10(fc4_random, samples=0, seed=7)
    assert out["passed"] and 0.0 < out["max_cross_term"] < 1e-10
    assert out["equivalence_constants"] == {} and "cross_cases" not in out
    # at n = 2 only k = 2 has two Lefschetz levels (r = 0, 1): two ordered pairs
    assert out["cross_pairs"] == 2
    assert out["max_cross_term"] == verify_lemma_L10(fc4_random, samples=20, seed=7)["max_cross_term"]


@pytest.mark.parametrize("emptied", ["lemma_L8", "lemma_L10"])
def test_torus_suite_warns_when_L8_or_L10_measured_nothing(emptied, monkeypatch):
    # the proofs count what they cover, (degree, type) pairs for L8 and
    # (degree, p != q) Lefschetz pairs for the L10 cross term; a proof over
    # none of them passes on nothing
    import llab.torus
    from llab.suites import torus_suite

    assert "warning" not in torus_suite(n_values=(2,), N=1, samples=20)
    if emptied == "lemma_L8":
        real = llab.torus.verify_lemma_L8
        monkeypatch.setattr(llab.torus, "verify_lemma_L8", lambda fc, tol: dict(real(fc, tol), proven_types=0))
    else:
        real = llab.torus.verify_lemma_L10
        monkeypatch.setattr(llab.torus, "verify_lemma_L10",
                            lambda fc, samples, seed, tol: dict(real(fc, samples, seed, tol), cross_pairs=0))
    report = torus_suite(n_values=(2,), N=1, samples=20)
    assert report["passed"] and report["warning"] == "vacuous"


def test_torus_suite_warns_when_the_self_dual_relation_saw_no_case(monkeypatch):
    # no sample count leaves L8 or the L10 cross term vacuous; a self-dual
    # relation with no nontrivial case still does
    import llab.torus
    from llab.suites import torus_suite

    assert "warning" not in torus_suite(n_values=(2,), N=1, samples=20)
    real = llab.torus.self_dual_invariant_relation
    monkeypatch.setattr(llab.torus, "self_dual_invariant_relation",
                        lambda fc, samples, tol: dict(real(fc, samples, tol), nontrivial_cases=0))
    report = torus_suite(n_values=(2,), N=1, samples=20)
    assert report["passed"] and report["warning"] == "vacuous"


# ---------------------------------------------------------------------------
# the coefficient proofs and batched checks against the per-mode loops they
# replaced
# ---------------------------------------------------------------------------


def _embed(fc, k, v):
    full = np.zeros(1 << 2 * fc.n, dtype=complex)
    full[list(basis_masks(2 * fc.n, k))] = v
    return full


def _assembled_mode_ops(fc, ref, xi) -> dict:
    """The complex's own per-degree operators of mode xi, placed on the
    whole algebra by the reference loop: a mutated complex shows here."""
    ops = fc.mode_ops(xi)
    names = ("d", "d_star", "d_lambda", "d_lambda_star")
    return _WholeOps({name: ref.full(lambda k: ops(name, k), _SHIFT[name]) for name in names})


def _per_mode(mode, form, name):
    """One whole 4^n x 4^n operator per active mode of a {xi: full vector} form."""
    return {xi: mode(xi)[name] @ v for xi, v in form.items()}


def _inner(ref, a, b):
    return sum(v @ ref.G @ np.conj(b[xi]) for xi, v in a.items())


def _norm_sq(ref, a):
    return float(_inner(ref, a, a).real)


def _reference_L8(fc, samples, seed):
    ref = ReferenceOps(fc.triple)
    mode = functools.cache(lambda xi: _direct_mode_ops(ref, xi))
    worst, cases = 0.0, 0
    for idx in range(samples):
        rng = np.random.default_rng([seed, idx])
        p, q = int(rng.integers(0, fc.n + 1)), int(rng.integers(0, fc.n + 1))
        a = {xi: _embed(fc, p + q, v) for xi, v in _reference_random_form(fc, p + q, rng, pq=(p, q)).items()}
        ns = _norm_sq(ref, a)
        if ns < 1e-12:
            continue
        lhs, rhs = _norm_sq(ref, _per_mode(mode, a, "d_lambda")), _norm_sq(ref, _per_mode(mode, a, "d_star"))
        worst = max(worst, abs(lhs - rhs) / ns)
        cases += 1
    return {"samples": cases, "max_residual": worst, "passed": bool(worst < 1e-10)}


def _reference_L10(fc, samples, seed):
    ref = ReferenceOps(fc.triple)
    mode = functools.cache(lambda xi: _direct_mode_ops(ref, xi))
    Lr = [np.linalg.matrix_power(ref.L, r) for r in range(fc.n + 1)]
    results, worst = {}, 0.0
    for k in range(2 * fc.n + 1):
        ratios = []
        for idx in range(samples):
            a = fc.random_form(k, np.random.default_rng([seed, k, idx]))
            comps = {}
            for xi, v in a.items():
                for r, beta in primitive_decompose(KForm(fc.n, k, v), fc.triple).components.items():
                    comps.setdefault(r, {})[xi] = _embed(fc, beta.k, beta.data)
            a = {xi: _embed(fc, k, v) for xi, v in a.items()}
            scale = max(_norm_sq(ref, a), 1.0)
            for r1, b1 in comps.items():
                LDb = {xi: Lr[r1] @ v for xi, v in _per_mode(mode, b1, "dee").items()}
                for r2, b2 in comps.items():
                    if r2 != r1:
                        Lb2 = {xi: Lr[r2] @ v for xi, v in b2.items()}
                        worst = max(worst, abs(_inner(ref, LDb, Lb2)) / scale)
            num = _norm_sq(ref, _per_mode(mode, a, "d")) + _norm_sq(ref, _per_mode(mode, a, "d_lambda"))
            den = sum(_norm_sq(ref, _per_mode(mode, b, "d")) for b in comps.values())
            if den > 1e-12:
                ratios.append(num / den)
        if ratios:
            results[k] = {"c_min": min(ratios), "c_max": max(ratios), "samples": len(ratios)}
    return {"max_cross_term": worst, "equivalence_constants": results, "passed": bool(worst < 1e-10)}


def _agree(x, y):
    # the loop sums per mode on the whole algebra, the batch per degree block:
    # the same constant, up to the order of its roundoff
    return abs(x - y) <= 1e-12 * max(abs(x), abs(y)) or max(abs(x), abs(y)) < 1e-12


@pytest.fixture(scope="module", params=["standard n=2", "random n=2", "standard n=3"])
def fc_case(request, fc4, fc4_random, fc6):
    return {"standard n=2": fc4, "random n=2": fc4_random, "standard n=3": fc6}[request.param]


def test_batched_L8_and_L10_match_the_per_mode_loops(fc_case):
    # the L8 proof and the cross-term proof hold at every xi, the loops score
    # sampled forms at sampled modes: their verdicts agree, their residuals
    # measure different things; L10's constants are measured on both paths
    fc = fc_case
    got, want = verify_lemma_L8(fc), _reference_L8(fc, 20, 7)
    assert want["samples"] > 0
    assert got["passed"] == want["passed"] is True
    got, want = verify_lemma_L10(fc, 20, 7), _reference_L10(fc, 20, 7)
    assert got["passed"] == want["passed"] is True
    assert got["equivalence_constants"].keys() == want["equivalence_constants"].keys()
    for k, c in want["equivalence_constants"].items():
        assert got["equivalence_constants"][k]["samples"] == c["samples"], k
        for name in ("c_min", "c_max"):
            assert _agree(got["equivalence_constants"][k][name], c[name]), (k, name)


def test_batched_anti_invariant_closedness_matches_the_per_mode_loop(fc_case):
    # the loop finds the closed anti-invariant forms of every nonzero mode
    # and applies Delta_d to each; the proof (d* = T d on Lambda^2_-, then
    # Weitzenbock) must reach the same verdict and the same dimension
    fc = fc_case
    ref = ReferenceOps(fc.triple)
    J2 = ref.jpull(2)
    u, s, _ = np.linalg.svd(0.5 * (np.eye(len(J2)) - J2))
    anti = np.stack([_embed(fc, 2, u[:, c]) for c in range(int(np.sum(s > 1e-8 * max(1.0, s[0]))))], axis=1)
    closed, worst = 0, 0.0
    for xi in fc.modes:
        ops = _direct_mode_ops(ref, xi)
        if any(xi):
            _, sv, Vt = np.linalg.svd(ops["d"] @ anti)
            ker = anti.shape[1] - int(np.sum(sv > 1e-8 * max(1.0, sv[0])))
            closed += ker
            K = anti @ Vt.conj().T[:, anti.shape[1] - ker:]
        else:
            K = anti
        if K.shape[1]:
            worst = max(worst, float(np.max(np.abs(ops["laplacian"] @ K))))
    out = anti_invariant_suite(fc)
    assert out["passed"] is (worst < 1e-10) is True
    assert out["closed_anti_invariant_dim_nonzero_modes"] == closed == 0
    assert out["max_harmonicity_residual"] < 1e-10


def test_L8_and_anti_invariant_draw_nothing_and_run_no_per_mode_svd(fc6, monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert verify_lemma_L8(fc6)["passed"]
    assert calls == []
    assert anti_invariant_suite(fc6)["passed"]
    assert calls == [(15, 15), (15, 15)]  # the two bases of Lambda^2_+- only


def _reference_check_complex(fc, max_modes=64):
    """check_complex as a loop over modes, each with the complex's own
    operators on the whole 4^n-dimensional algebra, ranking each degree
    block one at a time."""
    ref = ReferenceOps(fc.triple)
    size = ref.size
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
        ops = _assembled_mode_ops(fc, ref, xi)
        d, d_star, d_lambda = ops["d"], ops["d_star"], ops["d_lambda"]
        dee, lap = ops["dee"], ops["laplacian"]
        sc = max(1.0, float(np.max(np.abs(d))) ** 2)
        out["d_squared"] = max(out["d_squared"], float(np.max(np.abs(d @ d))) / sc)
        out["d_lambda_squared"] = max(out["d_lambda_squared"], float(np.max(np.abs(d_lambda @ d_lambda))) / sc)
        a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        lhs = (d @ a) @ ref.G @ np.conj(b)
        rhs = a @ ref.G @ np.conj(d_star @ b)
        out["adjointness"] = max(out["adjointness"], abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
        scD = max(1.0, float(np.max(np.abs(dee))))
        out["commutator_L"] = max(out["commutator_L"], float(np.max(np.abs(dee @ ref.L - ref.L @ dee))) / scD)
        out["commutator_Lambda"] = max(
            out["commutator_Lambda"], float(np.max(np.abs(dee @ ref.Lam - ref.Lam @ dee))) / scD)
        masks = [list(basis_masks(2 * fc.n, k)) for k in range(2 * fc.n + 1)]
        for k, mk in enumerate(masks):
            lap_k = lap[np.ix_(mk, mk)]
            w, V = np.linalg.eigh(lap_k)
            kb = V[:, w < 1e-8 * max(1.0, float(w[-1]))]
            dk = d[np.ix_(masks[k + 1], mk)] if k < 2 * fc.n else None
            dkm = d[np.ix_(mk, masks[k - 1])] if k > 0 else None
            im_d = np.linalg.matrix_rank(dkm, tol=1e-8) if dkm is not None else 0
            im_ds = np.linalg.matrix_rank(dk, tol=1e-8) if dk is not None else 0
            if kb.shape[1] + im_d + im_ds != len(mk):
                out["hodge_dim_mismatch"] += 1
            if kb.size:
                full = np.zeros((size, kb.shape[1]), dtype=complex)
                full[mk] = kb
                r1, r2 = float(np.max(np.abs(d @ full))), float(np.max(np.abs(d_star @ full)))
                out["harmonic_iff_closed_coclosed"] = max(
                    out["harmonic_iff_closed_coclosed"], (r1 + r2) / np.sqrt(sc))
            rows = [B for B in (dk, d_star[np.ix_(masks[k - 1], mk)] if k > 0 else None) if B is not None]
            if len(mk) - np.linalg.matrix_rank(np.vstack(rows), tol=1e-8) != kb.shape[1]:
                out["hodge_dim_mismatch"] += 1
    return out


def test_batched_check_complex_matches_the_per_mode_loop(fc_case):
    # the coefficient proofs and the sampled per-mode oracle measure
    # different things (every xi against 64 modes), so both must pass, not agree
    got, want = check_complex(fc_case), _reference_check_complex(fc_case)
    assert got.keys() == want.keys()
    for out in (got, want):
        assert out["hodge_dim_mismatch"] == 0
        assert out["harmonic_iff_closed_coclosed"] < 1e-8
        for key in ("d_squared", "d_lambda_squared", "adjointness", "commutator_L", "commutator_Lambda"):
            assert out[key] < 1e-11, (key, out)


@pytest.mark.parametrize("broken", ["d without signs", "d^Lambda* zeroed"])
def test_check_complex_catches_a_broken_complex(broken, fc4, monkeypatch):
    def mutated(fc, name, k, A):
        if broken == "d without signs" and name == "d":
            return np.abs(A)  # and every block built from d with it
        if broken == "d^Lambda* zeroed" and name == "d_lambda_star":
            return np.zeros_like(A)
        return A

    _patch_block(monkeypatch, mutated)
    fc = FourierComplex(n=2, N=1, triple=fc4.triple, modes=fc4.modes)  # not validated: d^2 = 0 fails
    for out in (check_complex(fc), _reference_check_complex(fc)):
        assert max(out["d_squared"], out["commutator_L"]) >= 0.5, out
        assert (out["hodge_dim_mismatch"] > 0) == (broken == "d without signs"), out


def test_hodge_count_rests_on_d_squared_too(fc4, monkeypatch):
    # with Weitzenbock intact, a d^2 that fails on Lambda^1 -> Lambda^3 leaves
    # im d and im d* in Lambda^2 unproven to be orthogonal: one degree
    import llab.torus

    real = llab.torus._squares

    def broken(fc, op):
        out = real(fc, op)
        return {**out, 1: out[1] + 1.0} if op == "d" else out

    monkeypatch.setattr(llab.torus, "_squares", broken)
    out = check_complex(fc4)
    assert out["harmonic_iff_closed_coclosed"] < 1e-8 and out["d_squared"] >= 1.0
    assert out["hodge_dim_mismatch"] == 1


def test_a_metric_blind_adjoint_fails_loudly(fc4_random, monkeypatch):
    # d* built as the adjoint for the identity Gram: Delta_d(xi) is then
    # 4 pi^2 |xi|^2 I for the Euclidean |xi|, invertible at every xi != 0, so
    # a kernel scan sees nothing wrong; the Weitzenbock coefficients do
    _patch_block(monkeypatch, lambda fc, name, k, A: (
        -fc.block("d", k - 1).transpose(0, 2, 1) if name == "d_star" else A))
    fc = FourierComplex(n=2, N=1, triple=fc4_random.triple, modes=fc4_random.modes)
    for k in range(5):
        with pytest.raises(ArithmeticError, match="Weitzenbock identity fails"):
            harmonic_space(fc, k)
    out = check_complex(fc)
    assert out["adjointness"] > 1e-2 and out["harmonic_iff_closed_coclosed"] > 1e-2, out
    assert out["hodge_dim_mismatch"] == 5
    assert _reference_check_complex(fc)["hodge_dim_mismatch"] == 0  # the scan's counts all add up
    # D = d*d + d^{Lambda*}d^Lambda built on the blind d* breaks the cross term
    out = verify_lemma_L10(fc, samples=0, seed=7)
    assert not out["passed"] and out["max_cross_term"] > 0.1, out


def test_quadratic_coefficients_match_the_mode_operators(fc4_random):
    # xi beyond the cutoff N = 1 too: the coefficients hold at every mode
    fc = fc4_random
    ref = ReferenceOps(fc.triple)
    for xi in ((1, 0, 0, 0), (0, 1, -1, 0), (2, -3, 0, 1)):
        ops = _direct_mode_ops(ref, xi)
        x = np.array(xi, dtype=float)
        for name in ("laplacian", "dee", "d_squared", "d_lambda_squared"):
            for k in range(5):
                if 0 <= k + _SHIFT[name] <= 4:
                    got = np.einsum("j,l,jlab->ab", x, x, fc.quadratic(name, k))
                    want = _degree_block(fc, ops[name], name, k)
                    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), (xi, name, k)
        # the Weitzenbock identity, read off one mode's whole Laplacian
        lap = ops["laplacian"]
        assert np.max(np.abs(lap - 4 * np.pi ** 2 * (x @ fc.triple.g_inv @ x) * np.eye(ref.size))) < 1e-10


def _reference_random_form(fc, k, rng, active_modes=8, pq=None):
    """random_form drawn one active mode at a time; optionally projected to
    pure type (p,q), as the sampled L8 oracle draws its forms."""
    alg = fc.triple.ops
    chosen = rng.choice(len(fc.modes), size=min(active_modes, len(fc.modes)), replace=False)
    comps = {}
    for ci in sorted(chosen):
        v = (rng.standard_normal(alg.size) + 1j * rng.standard_normal(alg.size))[alg.masks(k)]
        if pq is not None:
            v = alg.pq(k)[pq] @ v
        if np.max(np.abs(v)) > 0:
            comps[fc.modes[ci]] = v
    return comps


def test_random_form_draws_as_the_per_mode_loop(fc_case, std2):
    cases = [(fc_case, k) for k in range(2 * fc_case.n + 1)]
    cases.append((build_fourier_complex(2, 0, std2), 2))  # one mode, fewer than active_modes
    for fc, k in cases:
        rng, ref_rng = np.random.default_rng([11, k]), np.random.default_rng([11, k])
        got, want = fc.random_form(k, rng), _reference_random_form(fc, k, ref_rng)
        assert list(got) == list(want), k
        assert all(np.array_equal(got[xi], want[xi]) for xi in want), k
        assert rng.standard_normal() == ref_rng.standard_normal()  # the stream is left where it was


def test_batched_checks_form_no_per_mode_matrix(fc4, monkeypatch):
    calls = []
    real = FourierComplex.mode_ops

    def counting(self, xi):
        calls.append(xi)
        return real(self, xi)

    monkeypatch.setattr(FourierComplex, "mode_ops", counting)
    verify_lemma_L10(fc4, samples=5, seed=7)
    verify_lemma_L8(fc4)
    anti_invariant_suite(fc4)
    check_complex(fc4)
    verify_kahler_identity(fc4)
    assert calls == []
    self_dual_invariant_relation(fc4, samples=2)  # the counter does see the per-mode matrix checks
    assert calls
