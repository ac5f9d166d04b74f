"""Tests for the derived spectral-gap constant and its certification.

The surface case has an exact value: c = 1/4 at (n, k) = (1, 0), which is
sharp against the bottom of the spectrum of the hyperbolic plane.  Higher
cases are pinned as regression decimals and re-derived in-test from the
factorial ladder, an independent expansion of the same closed form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from llab.hyperbolic.gap import (
    dirichlet_lambda1,
    gap_sweep,
    gromov_bound,
    gromov_bound_report,
)
from llab.hyperbolic.mesh import build_disc_mesh
from llab.hyperbolic.oracle import SHOOTING_LAMBDA1


def _sigma_max_sq(n: int, j: int, i: int) -> int:
    """max_r (j+r)!/r! * (n-i+r)!/(n-i+r-j)! over the admissible levels
    r of Lambda^i = sum_s L^s P^{i-2s}; increasing in r, so the top level
    r = i//2 ... enumerated directly for safety."""
    best = 0
    for r in range(0, i // 2 + 1):
        p = i - 2 * r  # primitive degree at this level
        if p < 0 or p > n or n - p - r < j + 0:
            # L^j must stay inside the algebra: needs r + j <= n - p
            continue
        val = (
            math.factorial(j + r)
            // math.factorial(r)
            * math.factorial(n - i + r)
            // math.factorial(n - i + r - j)
        )
        best = max(best, val)
    return best


def _constant_from_ladder(n: int, k: int) -> float:
    """Re-derive the constant from the factorial ladder, independently of
    the implementation's Fraction pipeline.

    The numerator is sigma_min^2 = (m!)^2: the r = 0 ladder entry of
    L^m on degree kk is m! * m!/0! = (m!)^2, and the ladder increases
    in r, so the closed-form minimum singular value is m!.
    """
    kk = min(k, 2 * n - k)
    m = n - kk
    sigma_min = float(math.factorial(m))
    B = math.sqrt(_sigma_max_sq(n, m, kk))
    F1a = math.sqrt(_sigma_max_sq(n, m, kk - 1)) if kk >= 1 else 0.0
    F2 = math.sqrt(_sigma_max_sq(n, m - 1, kk + 1)) if m >= 1 else 0.0
    F_eta = math.sqrt(_sigma_max_sq(n, m - 1, kk)) if m >= 1 else 0.0
    denom = (F1a + m * F2) * F_eta + B * F2
    return (sigma_min**2 / denom) ** 2


def test_surface_constant_exact():
    # n = 1, k = 0: c = 1/4, exactly representable and sharp against the
    # L^2 spectrum bottom of the hyperbolic plane
    assert gromov_bound(1, 0) == 0.25
    assert gromov_bound(1, 2) == 0.25  # dual degree
    assert gromov_bound(1, 0, theta_sup=2.0) == 0.25 / 4.0


def test_pinned_constants_n2():
    assert gromov_bound(2, 1) == pytest.approx(0.08578643762690495, rel=1e-12)
    assert gromov_bound(2, 0) == pytest.approx(0.6862915010152397, rel=1e-12)


def test_constants_match_independent_ladder():
    for n, k in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
        assert gromov_bound(n, k) == pytest.approx(_constant_from_ladder(n, k), rel=1e-12)


def test_duality_in_degree():
    for n in (1, 2, 3):
        for k in range(0, n):
            assert gromov_bound(n, k) == gromov_bound(n, 2 * n - k)


def test_theta_scaling():
    for s in (0.5, 1.0, 3.0):
        assert gromov_bound(2, 1, theta_sup=s) == pytest.approx(
            gromov_bound(2, 1) / s**2, rel=1e-14
        )


def test_middle_degree_refused():
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="middle degree"):
            gromov_bound(n, n)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        gromov_bound(2, 5)
    with pytest.raises(ValueError):
        gromov_bound(2, -1)


def test_report_certifies_every_link():
    rep = gromov_bound_report(2, 1)
    assert rep["checks_pass"]
    assert rep["constant"] == pytest.approx(gromov_bound(2, 1), rel=1e-15)
    assert rep["bound"] == rep["constant"]  # theta_sup = 1
    checks = rep["checks"]
    assert max(checks["sigma_svd_max_rel_dev"].values()) < 1e-10
    idents = checks["operator_identities"]
    for name in (
        "commutation_d_star_Lm",
        "d_lambda_star_is_conjugated_d",
        "laplacian_dc_equals_laplacian_d",
    ):
        assert idents[name] < 1e-10, name
    assert checks["wedge_bound_max_ratio"] < 1.0 + 1e-10
    # the closed-form minimum singular value is m! on the nose
    f = rep["factors"]
    assert f["sigma_min"] == f["sigma_min_closed_form"]


def test_report_surface_case():
    rep = gromov_bound_report(1, 0, theta_sup=1.0)
    assert rep["checks_pass"]
    assert rep["constant"] == 0.25
    assert rep["factors"]["sigma_min"] == 1.0


# ---------------------------------------------------------------------------
# FEM integration
# ---------------------------------------------------------------------------


def test_dirichlet_lambda1_k0(small_mesh):
    res = dirichlet_lambda1(small_mesh, k=0)
    assert res.k == 0
    assert res.derived_bound == 0.25
    assert res.eigenvalues[0] == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=3e-2)
    assert res.eigenvalues[0] > res.derived_bound
    assert all(r < res.rel_tol * abs(l) for r, l in zip(res.residuals, res.eigenvalues))
    d = res.to_json_dict()
    assert d["mesh"] == {"R": 2.0, "h": 0.25}
    assert d["method"] == "lanczos"


def test_dirichlet_lambda1_k1_no_bound(small_mesh):
    res = dirichlet_lambda1(small_mesh, k=1)
    assert res.derived_bound is None  # middle degree of the surface
    assert res.eigenvalues[0] > 0


def test_dirichlet_lambda1_k0_starts_from_the_constant_vector():
    # the constant vector leans on the positive ground state: at R = 6,
    # h = 0.2 (28,465 dofs) a random start needed 20 steps
    result = dirichlet_lambda1(build_disc_mesh(6.0, 0.2), 0)
    assert result.iterations <= 12
    assert result.residuals[0] < result.rel_tol * result.eigenvalues[0]


def test_gap_sweep_small():
    out = gap_sweep(R_values=(2.0,), h_values=(0.3, 0.2), k=0)
    assert out["k"] == 0
    assert len(out["rows"]) == 2
    for row in out["rows"]:
        assert row["lambda1"] >= 0.25
        assert row["derived_bound"] == 0.25
        assert row["residual"] < 1e-8 * row["lambda1"]
        assert row["oracle"] == SHOOTING_LAMBDA1[2.0]
    ext = out["extrapolation"][2.0]
    assert ext["order"] == 2.0 and not ext["order_measured"]
    assert ext["oracle"] == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=1e-12)
    assert ext["rel_err_vs_oracle"] < 0.01


@pytest.mark.parametrize("k", [0, 1])
def test_hyperbolic_suite_builds_each_mesh_and_edge_complex_once(monkeypatch, k):
    from llab.hyperbolic import assembly, mesh
    from llab.suites import hyperbolic_suite

    built, edged = [], []
    real_build, real_edges = mesh.build_disc_mesh, assembly.edge_structure

    def counting_build(R, h):
        built.append((R, h))
        return real_build(R, h)

    def counting_edges(m):
        edged.append((m.R, m.h))
        return real_edges(m)

    monkeypatch.setattr(mesh, "build_disc_mesh", counting_build)
    monkeypatch.setattr(assembly, "edge_structure", counting_edges)
    hyperbolic_suite(R_values=(2.0, 3.0), h_values=(0.4, 0.3), k=k)
    grid = [(R, h) for R in (2.0, 3.0) for h in (0.4, 0.3)]
    assert built == grid
    # both degrees assemble on the edge complex of every mesh (k = 0 sums
    # its P1 matrices per edge), and the forms reuse the finest one
    assert edged == grid
