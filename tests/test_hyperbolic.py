"""Unit tests for the hyperbolic-disc FEM stack.

Oracles first: the Euclidean unit square has Dirichlet lambda_1 = 2 pi^2
for functions and relative lambda_1 = pi^2 for 1-forms; the hyperbolic
ball values come from an independent radial shooting table; the model
primitive of the area form has pointwise norm identically 1.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from llab.hyperbolic.assembly import (
    SparseSymmetricMatrix,
    assemble_hodge_laplacian,
    edge_structure,
    incidence_d0,
    incidence_d1,
    mass_p1,
    mass_whitney1,
    mass_whitney2,
    stiffness_p1,
)
from llab.hyperbolic.eigensolve import (
    LanczosNonConvergence,
    smallest_eigenpairs,
)
from llab.hyperbolic.forms import (
    AnnulusDecayTable,
    annulus_decay,
    bounded_primitive,
    crossterm_constant,
    cutoff_family,
)
from llab.hyperbolic import assembly as assembly_mod
from llab.hyperbolic.mesh import (
    DiscMesh,
    MeshBudgetError,
    build_disc_mesh,
    predicted_vertex_count,
    square_patch,
)
from llab.hyperbolic.oracle import (
    SHOOTING_LAMBDA1,
    lambda1_ball_shooting,
    lambda1_euclidean_disc,
    lambda1_euclidean_square,
    lambda1_square_k1,
)


# ---------------------------------------------------------------------------
# mesh construction
# ---------------------------------------------------------------------------


def test_mesh_invariants(small_mesh):
    m = small_mesh
    assert m.metric == "hyperbolic"
    assert m.triangles.dtype == np.int32
    # all triangles CCW: positive signed areas
    assert m.triangle_areas().min() > 0
    # quality floor enforced by the builder
    assert m.min_angle_degrees() >= 15.0
    # boundary ring sits at geodesic radius R
    rho = m.geodesic_radius(m.vertices)
    assert rho[m.boundary].min() == pytest.approx(m.R, rel=1e-9)
    assert rho.max() == pytest.approx(m.R, rel=1e-9)
    # interior = complement of boundary
    assert len(m.interior) + int(m.boundary.sum()) == m.n_vertices


def test_mesh_euler_characteristic(small_mesh):
    # disc: V - E + F = 1
    es = edge_structure(small_mesh)
    V, E, F = small_mesh.n_vertices, len(es.edges), small_mesh.n_triangles
    assert V - E + F == 1


def _min_angle_reference(mesh):
    """Smallest angle, from one arccos per angle."""
    p = mesh.vertices[mesh.triangles]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosang = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


@pytest.mark.parametrize("h", [0.2, 0.1])
@pytest.mark.parametrize("R", [2.0, 6.0])
def test_stitched_disc_mesh_triangulates_the_outer_polygon(R, h):
    m = build_disc_mesh(R, h)
    assert m.triangle_areas().min() > 0  # every triangle CCW
    t = m.triangles.astype(np.int64)
    local = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    key = local.min(axis=1) * m.n_vertices + local.max(axis=1)
    edges, count = np.unique(key, return_counts=True)
    # interior edges lie in exactly two triangles, boundary edges in one,
    # and the boundary edges are exactly those of the outer ring
    assert set(np.unique(count).tolist()) == {1, 2}
    ring = np.flatnonzero(m.boundary)
    nxt = np.roll(ring, -1)
    ring_keys = np.sort(np.minimum(ring, nxt) * m.n_vertices + np.maximum(ring, nxt))
    assert np.array_equal(edges[count == 1], ring_keys)
    assert m.n_vertices - len(edges) + m.n_triangles == 1
    # the triangles tile the outer polygon: their areas add up to its area
    N, r = len(ring), float(np.hypot(*m.vertices[ring[0]]))
    assert m.triangle_areas().sum() == pytest.approx(0.5 * N * r**2 * np.sin(2 * np.pi / N), rel=1e-12)
    assert m.min_angle_degrees() >= 15.0
    assert m.min_angle_degrees() == pytest.approx(_min_angle_reference(m), abs=1e-9)


def test_importing_the_hyperbolic_package_skips_scipy_spatial():
    import llab

    src = str(Path(llab.__file__).resolve().parents[1])
    code = "import sys, llab.hyperbolic; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def _edge_structure_reference(mesh):
    """Lexicographic 2-D unique over the canonical (low, high) edge rows."""
    t = mesh.triangles
    local = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1)
    canon = np.stack([local.min(axis=2), local.max(axis=2)], axis=2).reshape(-1, 2)
    edges, inverse = np.unique(canon, axis=0, return_inverse=True)
    signs = np.where(local[:, :, 0] < local[:, :, 1], 1, -1)
    return edges, inverse.reshape(-1, 3), signs


@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh", "square24"])
def test_edge_structure_matches_lexicographic_unique(request, which):
    mesh = request.getfixturevalue(which)
    edges, tri_edges, signs = _edge_structure_reference(mesh)
    es = edge_structure(mesh)
    assert np.array_equal(es.edges, edges)
    assert np.array_equal(es.tri_edges, tri_edges)
    assert np.array_equal(es.tri_signs, signs)
    assert np.array_equal(es.boundary_edge, np.bincount(tri_edges.ravel()) == 1)
    assert es.edges.dtype == es.tri_edges.dtype == np.int64


def test_mesh_derived_quantities_are_kept_and_die_with_the_mesh():
    mesh = build_disc_mesh(R=1.5, h=0.3)
    geo, es = mesh.geometry, mesh.edge_structure
    assert mesh.geometry is geo and mesh.edge_structure is es
    assert np.array_equal(geo.area, mesh.triangle_areas())
    # shared by every reader, so nobody may write into them
    assert not geo.grads.flags.writeable and not es.tri_edges.flags.writeable
    refs = [weakref.ref(x) for x in (mesh, geo, es)]
    del mesh, geo, es
    gc.collect()
    assert all(r() is None for r in refs)


@pytest.mark.parametrize("fault", ["clockwise", "degenerate"])
def test_mesh_geometry_refuses_a_clockwise_or_degenerate_triangle(fault, square24):
    triangles = square24.triangles.copy()
    triangles[5] = triangles[5][[0, 2, 1]] if fault == "clockwise" else triangles[5][[0, 1, 1]]
    mesh = dataclasses.replace(square24, triangles=triangles)
    with pytest.raises(ArithmeticError, match="degenerate or clockwise"):
        mesh.geometry


def test_predicted_vertex_count_matches(small_mesh):
    assert predicted_vertex_count(2.0, 0.25) == small_mesh.n_vertices


def test_mesh_parameter_validation():
    with pytest.raises(ValueError):
        build_disc_mesh(R=0.0, h=0.1)
    with pytest.raises(ValueError):
        build_disc_mesh(R=2.0, h=3.0)  # h >= R
    with pytest.raises(ValueError):
        build_disc_mesh(R=14.0, h=0.5)  # R > 12: conformal factor overflow risk


def test_mesh_budget_error():
    # area growth ~ e^R: R = 12 at tiny h blows the vertex budget before
    # any allocation happens
    with pytest.raises(MeshBudgetError):
        build_disc_mesh(R=12.0, h=0.01)


def test_mu_and_radius():
    m = build_disc_mesh(R=1.0, h=0.3)
    pts = np.array([[0.0, 0.0], [0.3, 0.0]])
    mu = m.mu(pts)
    assert mu[0] == pytest.approx(4.0)
    assert mu[1] == pytest.approx(4.0 / (1 - 0.09) ** 2)
    assert m.geodesic_radius(pts)[0] == 0.0
    assert m.geodesic_radius(pts)[1] == pytest.approx(2.0 * np.arctanh(0.3))


def test_square_patch_is_euclidean():
    sq = square_patch(8)
    assert sq.metric == "euclidean"
    assert np.allclose(sq.mu(sq.vertices), 1.0)
    assert sq.triangle_areas().min() > 0
    assert sq.n_vertices == 81


# ---------------------------------------------------------------------------
# assembly: Euclidean oracles
# ---------------------------------------------------------------------------


def test_square_lambda1_k0(square24):
    A, M = assemble_hodge_laplacian(square24, k=0)
    lams, _, _ = smallest_eigenpairs(A.as_scipy(), M.as_scipy(), nev=1, shift=0.0)
    oracle = lambda1_euclidean_square()
    assert oracle == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert lams[0] == pytest.approx(oracle, rel=7e-3)  # P1 at h = 1/24


def test_square_lambda1_k1(square24):
    A, M = assemble_hodge_laplacian(square24, k=1)
    lams, _, _ = smallest_eigenpairs(A.as_scipy(), M.as_scipy(), nev=3, shift=0.0)
    oracle = lambda1_square_k1()
    assert oracle == pytest.approx(math.pi**2, rel=1e-14)
    # pi^2 is doubly degenerate for relative-boundary 1-forms on a square
    assert lams[0] == pytest.approx(oracle, rel=1e-2)
    assert lams[1] == pytest.approx(oracle, rel=1e-2)
    assert lams[2] == pytest.approx(2 * math.pi**2, rel=3e-2)


def test_square_k0_richardson_hits_oracle():
    # two mesh sizes + second-order extrapolation: error drops well below
    # the single-mesh discretization error
    vals = {}
    for nx in (12, 24):
        A, M = assemble_hodge_laplacian(square_patch(nx), k=0)
        lams, _, _ = smallest_eigenpairs(A.as_scipy(), M.as_scipy(), nev=1, shift=0.0)
        vals[nx] = lams[0]
    lam_ext = vals[24] + (vals[24] - vals[12]) / (2**2 - 1)
    assert lam_ext == pytest.approx(2 * math.pi**2, rel=2e-4)


def test_stiffness_conformal_invariance(small_mesh):
    # k = 0 stiffness in 2D is metric-independent: hyperbolic == flat cotan
    K = stiffness_p1(small_mesh)
    flat = DiscMesh(
        vertices=small_mesh.vertices,
        triangles=small_mesh.triangles,
        boundary=small_mesh.boundary,
        R=small_mesh.R,
        h=small_mesh.h,
        metric="euclidean",
    )
    K_flat = stiffness_p1(flat)
    assert abs(K - K_flat).max() < 1e-12 * abs(K).max()


def test_mass_matrices_positive(small_mesh):
    es = edge_structure(small_mesh)
    for mat in (mass_p1(small_mesh), mass_whitney1(small_mesh, es)):
        mat_d = mat.toarray()
        assert np.allclose(mat_d, mat_d.T, atol=1e-14)
        assert np.linalg.eigvalsh(mat_d).min() > 0
    m2 = mass_whitney2(small_mesh).toarray()
    assert np.all(np.diag(m2) > 0)


def test_hyperbolic_mass_total_area(small_mesh):
    # sum of the P1 mass matrix = |B_R| = 4 pi sinh^2(R/2), approximated
    # by midpoint quadrature on a piecewise-flat mesh (O(h^2) accurate)
    M = mass_p1(small_mesh)
    area = float(M.sum())
    exact = 4 * math.pi * math.sinh(small_mesh.R / 2) ** 2
    assert area == pytest.approx(exact, rel=2e-2)


def test_discrete_complex_d1_after_d0_vanishes(small_mesh):
    es = edge_structure(small_mesh)
    D0 = incidence_d0(small_mesh, es)
    D1 = incidence_d1(small_mesh, es)
    comp = D1 @ D0
    assert abs(comp).max() == 0  # exact integer cancellation


def test_sparse_symmetric_wrapper(small_mesh):
    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    assert isinstance(A, SparseSymmetricMatrix)
    As = A.as_scipy()
    assert abs(As - As.T).max() == 0.0
    # Dirichlet stiffness is positive definite: an exact dense spectrum
    assert np.linalg.eigvalsh(As.toarray()).min() > 0.0
    d = A.to_json_dict()
    assert d["dimension"] == A.dimension and d["symmetric"]
    # from_scipy rejects visibly asymmetric input
    bad = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        SparseSymmetricMatrix.from_scipy(bad)


def _p1_coo_reference(mesh):
    """(K, M) scattered as 9 COO entries per triangle, duplicates summed."""
    area, grads, mu_mid = mesh.geometry.area, mesh.geometry.grads, mesh.geometry.mu_mid
    phi = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    t = mesh.triangles
    rows = np.concatenate([t[:, i] for i in range(3) for j in range(3)])
    cols = np.concatenate([t[:, j] for i in range(3) for j in range(3)])
    k_vals = [area * (grads[:, i] * grads[:, j]).sum(axis=1) for i in range(3) for j in range(3)]
    m_vals = [
        area / 3.0 * (mu_mid * phi[:, i] * phi[:, j]).sum(axis=1) for i in range(3) for j in range(3)
    ]
    shape = (mesh.n_vertices, mesh.n_vertices)
    return tuple(
        sp.coo_matrix((np.concatenate(v), (rows, cols)), shape=shape).tocsr() for v in (k_vals, m_vals)
    )


@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh", "square24"])
def test_p1_matrices_summed_per_edge_match_the_coo_scatter(request, which):
    mesh = request.getfixturevalue(which)
    es = mesh.edge_structure
    for got, ref in zip((stiffness_p1(mesh), mass_p1(mesh)), _p1_coo_reference(mesh)):
        assert got.shape == (mesh.n_vertices, mesh.n_vertices)
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
        # one entry per vertex and two per edge, each pair the same float
        assert got.nnz == mesh.n_vertices + 2 * es.n_edges
        assert got.has_canonical_format
        assert (got != got.T).nnz == 0


def test_hyperbolic_lambda1_vs_shooting(small_mesh):
    # R = 2, h = 0.25: P1 error is O(h^2) ~ a few percent
    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    lams, _, _ = smallest_eigenpairs(A.as_scipy(), M.as_scipy(), nev=1, shift=0.0)
    assert lams[0] == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=3e-2)
    assert lams[0] > SHOOTING_LAMBDA1[2.0]  # conforming FEM from above


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def test_dense_path_matches_scipy(rng):
    # below the dense cutoff the solver defers to eigh; compare explicitly
    n = 30
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.linspace(1, 50, n)) @ Q.T)
    M = sp.identity(n, format="csr")
    lams, X, _ = smallest_eigenpairs(A, M, nev=4, shift=0.0)
    ref = np.sort(scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True))[:4]
    assert np.allclose(lams, ref, rtol=1e-10)
    assert X.shape == (n, 4)


def test_lanczos_path_certificates(small_mesh):
    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    As, Ms = A.as_scipy(), M.as_scipy()
    assert As.shape[0] > 64  # actually exercises the sparse path
    lams, X, iters = smallest_eigenpairs(As, Ms, nev=3, shift=0.0, rel_tol=1e-9)
    assert iters >= 1
    assert list(lams) == sorted(lams)
    for j in range(3):
        x = X[:, j]
        r = np.linalg.norm(As @ x - lams[j] * (Ms @ x)) / np.linalg.norm(x)
        assert r < 1e-9 * lams[j]


@pytest.mark.parametrize("start", ["random", "constant"])
def test_lanczos_makes_three_mass_products_a_step(small_mesh, monkeypatch, start):
    from llab.hyperbolic import eigensolve

    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    As, Ms = A.as_scipy(), M.as_scipy()
    products, checks = [], []
    real_matmul, real_residuals = sp.csr_matrix.__matmul__, eigensolve._pencil_residuals

    def counting_matmul(self, other):
        if np.shares_memory(self.data, Ms.data):  # the solver's M views the caller's
            products.append(1)
        return real_matmul(self, other)

    def counting_residuals(*args):
        checks.append(1)
        return real_residuals(*args)

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(eigensolve, "_pencil_residuals", counting_residuals)
    v0 = np.ones(A.dimension) if start == "constant" else None
    lams, X, iters = smallest_eigenpairs(As, Ms, nev=2, v0=v0)
    monkeypatch.undo()

    # one product for the start vector, one per residual check and
    # eigenpair, and three per step
    assert len(products) <= 1 + 2 * len(checks) + 3 * iters
    ref = scipy.linalg.eigh(As.toarray(), Ms.toarray(), eigvals_only=True, subset_by_index=[0, 1])
    assert np.allclose(lams, ref, rtol=1e-12, atol=0)
    for j in range(2):
        r = np.linalg.norm(As @ X[:, j] - lams[j] * (Ms @ X[:, j])) / np.linalg.norm(X[:, j])
        assert r < 1e-8 * lams[j]


def test_lanczos_start_vector_is_checked(small_mesh):
    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    As, Ms = A.as_scipy(), M.as_scipy()
    with pytest.raises(ValueError, match="shape"):
        smallest_eigenpairs(As, Ms, v0=np.ones(3))
    with pytest.raises(ValueError, match="zero M-norm"):
        smallest_eigenpairs(As, Ms, v0=np.zeros(A.dimension))
    # the default start is the seeded random draw, unchanged by v0's arrival
    seeded = smallest_eigenpairs(As, Ms, seed=5)
    drawn = smallest_eigenpairs(As, Ms, v0=np.random.default_rng(5).standard_normal(A.dimension))
    assert np.array_equal(seeded[0], drawn[0]) and seeded[2] == drawn[2]
    # the CSC view of the symmetric A is factored as it is, to the same pairs
    viewed = smallest_eigenpairs(As.T, Ms, seed=5)
    assert As.T.format == "csc" and np.shares_memory(As.T.data, As.data)
    assert np.array_equal(viewed[0], seeded[0]) and np.array_equal(viewed[1], seeded[1])


def test_lanczos_nonconvergence_carries_best(small_mesh):
    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    with pytest.raises(LanczosNonConvergence) as exc:
        # an impossible certificate: residual < 1e-300 * lambda
        smallest_eigenpairs(A.as_scipy(), M.as_scipy(), nev=1, shift=0.0, rel_tol=1e-300, maxiter=6)
    err = exc.value
    assert err.iterations >= 1
    assert len(err.best_eigenvalues) >= 1
    # the best estimate is still a decent eigenvalue
    assert err.best_eigenvalues[0] == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=0.05)


# ---------------------------------------------------------------------------
# shooting oracle
# ---------------------------------------------------------------------------


def test_shooting_table_monotone_to_quarter():
    Rs = sorted(SHOOTING_LAMBDA1)
    vals = [SHOOTING_LAMBDA1[R] for R in Rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in R
    assert all(v > 0.25 for v in vals)  # infinite-volume floor
    assert vals[-1] == pytest.approx(0.25, rel=0.25)  # approaching 1/4 at R = 12


def test_shooting_recomputes_frozen_value():
    assert lambda1_ball_shooting(2.0) == pytest.approx(SHOOTING_LAMBDA1[2.0], abs=1e-7)


def test_euclidean_oracle_values():
    assert lambda1_euclidean_square() == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert lambda1_square_k1() == pytest.approx(math.pi**2, rel=1e-15)
    assert lambda1_euclidean_disc() == pytest.approx(5.783185962946785, rel=1e-12)


# ---------------------------------------------------------------------------
# the bounded primitive theta
# ---------------------------------------------------------------------------


def test_theta_sup_norm_is_one(fine_mesh):
    theta = bounded_primitive(fine_mesh)
    assert theta.sup_norm == pytest.approx(1.0, abs=1e-3)
    assert theta.omega_sign == -1


def test_theta_stokes_defect_second_order():
    # d(theta) = omega on every triangle up to quadrature error O(h^2)
    defects = {}
    for h in (0.3, 0.15):
        m = build_disc_mesh(R=2.0, h=h)
        defects[h] = bounded_primitive(m).stokes_max
    assert defects[0.3] < 50 * 0.3**2
    assert defects[0.15] < 50 * 0.15**2
    # halving h cuts the defect by roughly 4 (allow a loose factor)
    assert defects[0.15] < 0.5 * defects[0.3]


def test_theta_rejects_euclidean(square24):
    with pytest.raises(ValueError):
        bounded_primitive(square24)


# ---------------------------------------------------------------------------
# cutoff family
# ---------------------------------------------------------------------------


def test_cutoff_feasibility(fine_mesh):
    # R = 4: feasible iff 2/eps < 4, i.e. eps > 1/2
    prof = cutoff_family(fine_mesh, eps=0.8)
    assert prof.feasible
    assert prof.r_plateau == pytest.approx(4.0 - 2.0 / 0.8)
    infeas = cutoff_family(fine_mesh, eps=0.4)
    assert not infeas.feasible
    assert infeas.r_plateau == 0.0


def test_cutoff_gradient_bounds(fine_mesh):
    for eps in (0.5, 0.8, 1.0):
        prof = cutoff_family(fine_mesh, eps=eps)
        assert prof.sup_df <= eps * (1 + 1e-12)
        assert prof.sup_df_sq_over_f <= eps**2 * (1 + 1e-9)
        assert prof.sup_df_sq_over_f <= eps * (1 + 1e-9)  # the bound the argument uses
        # plateau value is exactly 1, support edge decays to 0
        assert prof.f_at(np.array([0.0]))[0] == 1.0
        assert prof.f_at(np.array([prof.r_plateau + 2.0 / eps + 0.1]))[0] == 0.0


def test_cutoff_validation(fine_mesh):
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            cutoff_family(fine_mesh, eps=bad)


def test_crossterm_constant_within_proved_bound(fine_mesh):
    prof = cutoff_family(fine_mesh, eps=0.8)
    out = crossterm_constant(fine_mesh, prof)
    assert out["C_sqrtf_bound"] == 2.0
    assert out["C_sqrtf_max"] <= 2.0
    assert np.isfinite(out["C_f_max"])


def _crossterm_reference(mesh, profile, n_samples, seed):
    """The per-sample loop, every midpoint field rebuilt for each sample."""
    from llab.hyperbolic.forms import _whitney_at_midpoints

    es = mesh.edge_structure
    rng = np.random.default_rng(seed)
    eps = profile.eps
    area, mu_mid = mesh.geometry.area, mesh.geometry.mu_mid
    p = mesh.vertices[mesh.triangles]
    mids = 0.5 * np.stack([p[:, 0] + p[:, 1], p[:, 1] + p[:, 2], p[:, 2] + p[:, 0]], axis=1)
    out_cf, out_csqrt = [], []
    for _ in range(n_samples):
        alpha = rng.standard_normal(es.n_edges)
        w = area[:, None] / 3.0
        p_mid = mids.reshape(-1, 2)
        rho_mid = mesh.geodesic_radius(p_mid)
        f_mid = profile.f_at(rho_mid).reshape(-1, 3)
        r = np.hypot(p_mid[:, 0], p_mid[:, 1])
        drho_dr = 2.0 / (1.0 - r**2) if mesh.metric == "hyperbolic" else np.ones_like(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            radial = np.where(r[:, None] > 0, p_mid / np.maximum(r, 1e-300)[:, None], 0.0)
        grad_f = ((profile.df_at(rho_mid) * drho_dr)[:, None] * radial).reshape(-1, 3, 2)
        vals, d_uv = _whitney_at_midpoints(mesh, es, alpha)
        wedge_uv = 2.0 * f_mid * (grad_f[:, :, 0] * vals[:, :, 1] - grad_f[:, :, 1] * vals[:, :, 0])
        pairing = float((w * d_uv[:, None] * wedge_uv / mu_mid).sum())
        alpha_sq = (vals**2).sum(axis=2)
        n_fa = np.sqrt((w * f_mid**2 * alpha_sq).sum())
        n_fda = np.sqrt((w * f_mid**2 * d_uv[:, None] ** 2 / mu_mid).sum())
        n_sfa = np.sqrt((w * f_mid * alpha_sq).sum())
        n_sfda = np.sqrt((w * f_mid * d_uv[:, None] ** 2 / mu_mid).sum())
        out_cf.append(abs(pairing) / (eps * n_fa * n_fda))
        out_csqrt.append(abs(pairing) / (eps * n_sfa * n_sfda))
    return max(out_cf), max(out_csqrt)


@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh", "square24"])
def test_crossterm_constant_matches_the_per_sample_loop(request, which):
    mesh = request.getfixturevalue(which)
    profile = cutoff_family(mesh, eps=0.8 if mesh.metric == "hyperbolic" else 1.0)
    out = crossterm_constant(mesh, profile, n_samples=3, seed=11)
    c_f, c_sqrtf = _crossterm_reference(mesh, profile, n_samples=3, seed=11)
    assert out["C_f_max"] == pytest.approx(c_f, rel=1e-13)
    assert out["C_sqrtf_max"] == pytest.approx(c_sqrtf, rel=1e-13)


@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh"])
def test_theta_sup_norm_over_edge_midpoints_equals_the_triangle_midpoints(request, which):
    from llab.hyperbolic.forms import _theta_components

    mesh = request.getfixturevalue(which)
    p = mesh.vertices[mesh.triangles]
    mids = 0.5 * np.stack([p[:, 0] + p[:, 1], p[:, 1] + p[:, 2], p[:, 2] + p[:, 0]], axis=1)
    samples = np.vstack([mesh.vertices, mids.reshape(-1, 2)])
    comp = _theta_components(samples)
    ref = float(np.sqrt((comp**2).sum(axis=1) / mesh.mu(samples)).max())
    assert bounded_primitive(mesh).sup_norm == ref


@pytest.mark.parametrize("which", ["small_mesh", "square24"])
def test_whitney_at_midpoints_matches_triangle_major_loop(request, which, rng):
    from llab.hyperbolic.forms import _LAMBDA_MID, _whitney_at_midpoints

    mesh = request.getfixturevalue(which)
    es = mesh.edge_structure
    alpha = rng.standard_normal(es.n_edges)
    # reference: the same products accumulated in (triangle, midpoint) order
    grads = mesh.geometry.grads
    dofs = alpha[es.tri_edges] * es.tri_signs
    ref = np.zeros((mesh.n_triangles, 3, 2))
    for e, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)]):
        for m in range(3):
            w_e = _LAMBDA_MID[m, a] * grads[:, b] - _LAMBDA_MID[m, b] * grads[:, a]
            ref[:, m] += dofs[:, e, None] * w_e
    vals, d_uv = _whitney_at_midpoints(mesh, es, alpha)
    assert np.array_equal(vals, ref)
    assert vals.flags.c_contiguous
    assert np.array_equal(d_uv, dofs.sum(axis=1) / mesh.geometry.area)


# ---------------------------------------------------------------------------
# annulus decay
# ---------------------------------------------------------------------------


def test_annulus_decay_oracle(fine_mesh):
    # alpha = d(Re z^m): continuum annulus mass is
    # pi m (tanh^{2m}((j+1)/2) - tanh^{2m}(j/2)) -- conformal invariance
    # makes the Euclidean computation exact, so only binning fuzz remains
    m_pow = 2
    es = edge_structure(fine_mesh)
    z = fine_mesh.vertices[:, 0] + 1j * fine_mesh.vertices[:, 1]
    pot = (z**m_pow).real
    alpha = pot[es.edges[:, 1]] - pot[es.edges[:, 0]]  # exact d of P1 potential
    table = annulus_decay(alpha, fine_mesh)
    assert table.jmax == 4
    for j in range(table.jmax):
        exact = math.pi * m_pow * (
            math.tanh((j + 1) / 2) ** (2 * m_pow) - math.tanh(j / 2) ** (2 * m_pow)
        )
        assert table.masses[j] == pytest.approx(exact, rel=0.15)
    assert table.partial_sums_consistent()


@pytest.mark.parametrize("jmax", [None, 2])
def test_annulus_masses_match_one_mask_per_annulus(fine_mesh, jmax):
    from llab.hyperbolic.forms import _whitney_at_midpoints

    es = fine_mesh.edge_structure
    alpha = np.random.default_rng(3).standard_normal(es.n_edges)
    table = annulus_decay(alpha, fine_mesh, jmax=jmax)
    vals, _ = _whitney_at_midpoints(fine_mesh, es, alpha)
    energy = (fine_mesh.geometry.area / 3.0) * (vals**2).sum(axis=2).sum(axis=1)
    bins = np.floor(fine_mesh.geodesic_radius(fine_mesh.centroids())).astype(int)
    ref = [energy[bins == j].sum() for j in range(table.jmax)]
    assert table.jmax == (4 if jmax is None else jmax)
    assert np.allclose(table.masses, ref, rtol=1e-13, atol=0)
    assert table.total_norm_sq == pytest.approx(energy.sum(), rel=1e-13)


def test_annulus_divergence_certificate_synthetic():
    # weighted mass exactly 0.5 in each of 4 annuli but claimed total 1.0:
    # the harmonic sum forces 0.5 * (1 + 1/2 + 1/3 + 1/4) ~ 1.0417 > 1.0
    masses = [0.5, 0.25, 1.0 / 6.0, 0.125]
    table = AnnulusDecayTable.from_masses(masses, total_norm_sq=1.0)
    assert table.min_weighted == pytest.approx(0.5)
    cert = table.divergence_certificate(0.5)
    assert cert["forced_mass"] == pytest.approx(0.5 * (1 + 0.5 + 1 / 3 + 0.25))
    assert cert["contradiction"]
    # with an honest total the same bound is not contradictory
    honest = AnnulusDecayTable.from_masses(masses)
    assert not honest.divergence_certificate(honest.min_weighted)["contradiction"]


def test_annulus_weighted_column(fine_mesh):
    es = edge_structure(fine_mesh)
    rng = np.random.default_rng(5)
    alpha = rng.standard_normal(len(es.edges))
    table = annulus_decay(alpha, fine_mesh, jmax=3)
    assert table.jmax == 3
    assert np.allclose(table.weighted, (np.arange(3) + 1) * table.masses)
    assert table.total_norm_sq >= 0.0
