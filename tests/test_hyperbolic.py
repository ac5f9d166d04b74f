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
import scipy.sparse.linalg

from llab.hyperbolic.assembly import (
    _PHI_MID,
    _symmetrized,
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
    EigenNonConvergence,
    grid_level,
    ground_state_lower,
    multigrid_preconditioner,
    smallest_eigenpairs,
    stiffness_lu,
)
from llab.hyperbolic.forms import (
    AnnulusDecayTable,
    annulus_decay,
    bounded_primitive,
    crossterm_constant,
    cutoff_family,
)
from llab.hyperbolic import assembly as assembly_mod
from llab.hyperbolic import eigensolve as eigensolve_mod
from llab.hyperbolic.mesh import (
    DiscMesh,
    MeshBudgetError,
    build_disc_mesh,
    predicted_vertex_count,
    ring_prolongation,
    square_patch,
)
from llab.hyperbolic.oracle import (
    SHOOTING_LAMBDA1,
    lambda1_ball_shooting,
    lambda1_euclidean_disc,
    lambda1_euclidean_square,
    lambda1_square_k1,
)
from reference_loops import (
    whitney_at_midpoints,
    whole_annulus_decay,
    whole_bounded_primitive,
    whole_crossterm_constant,
    whole_geometry,
    whole_ring_prolongation,
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


def _geometry_reference(mesh):
    """(area, grads (nt, 3, 2), mu at the triangle midpoints (nt, 3)) from
    triangle-major gathers, one corner at a time."""
    p = mesh.vertices[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    grads = np.empty((len(area), 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1] / (2.0 * area)
        grads[:, i, 1] = e[:, 0] / (2.0 * area)
    mids = 0.5 * np.stack([p[:, 0] + p[:, 1], p[:, 1] + p[:, 2], p[:, 2] + p[:, 0]], axis=1)
    return area, grads, mesh.mu(mids.reshape(-1, 2)).reshape(-1, 3)


@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh", "square24"])
def test_geometry_and_min_angle_match_the_reference_loops(request, which):
    # one gather, corner-major gradients and mu once per edge midpoint give
    # the same floats as the triangle-major loops, and so do the centroids;
    # the smallest angle read from the gradients matches one arccos per angle
    mesh = request.getfixturevalue(which)
    geo = mesh.geometry
    area, grads, mu_mid = _geometry_reference(mesh)
    assert np.array_equal(geo.area, area)
    assert np.array_equal(geo.grad, grads.transpose(1, 2, 0))
    assert np.array_equal(mesh.midpoint_mu, mu_mid.T)
    assert geo.grad.flags.c_contiguous and mesh.midpoint_mu.flags.c_contiguous
    assert mesh.min_angle_degrees() == pytest.approx(_min_angle_reference(mesh), abs=1e-9)
    assert np.array_equal(mesh.centroids(), mesh.vertices[mesh.triangles].mean(axis=1))


@pytest.mark.parametrize("build", [lambda: build_disc_mesh(6.0, 0.2), lambda: square_patch(40)],
                         ids=["R6 h0.2", "square40"])
def test_blocked_geometry_equals_the_whole_array_evaluation(build):
    # build_disc_mesh(6, 0.2) has 63,265 triangles, seven full blocks and a
    # short eighth, and square_patch(40) 3,200, one short block
    mesh = build()
    area, grad, mu, min_angle = whole_geometry(mesh)
    assert np.array_equal(mesh.geometry.area, area)
    assert np.array_equal(mesh.geometry.grad, grad)
    assert np.array_equal(mesh.midpoint_mu, mu)
    assert mesh.min_angle_degrees() == min_angle
    assert np.array_equal(mesh.edge_midpoints(), 0.5 * (mesh.vertices[mesh.edge_structure.edges].sum(axis=1)))


def test_mu_is_evaluated_only_on_meshes_whose_mass_is_read(monkeypatch):
    # the sweep's chain-only meshes precondition with their stiffness alone
    from llab.hyperbolic import gap, mesh as mesh_mod

    built = []
    real_build = mesh_mod.build_disc_mesh

    def keeping_build(R, h):
        built.append(real_build(R, h))
        return built[-1]

    monkeypatch.setattr(mesh_mod, "build_disc_mesh", keeping_build)
    gap.gap_sweep(R_values=(4.0,), h_values=(0.2, 0.1))
    assert [m.h for m in built] == [0.4, 0.2, 0.1]
    assert [("midpoint_mu" in vars(m)) for m in built] == [False, True, True]


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
    # one contiguous row per local edge
    assert np.array_equal(es.tri_edges, tri_edges.T) and es.tri_edges.flags.c_contiguous
    assert np.array_equal(es.tri_signs, signs.T) and es.tri_signs.flags.c_contiguous
    assert np.array_equal(es.boundary_edge, np.bincount(tri_edges.ravel()) == 1)
    assert es.edges.dtype == es.tri_edges.dtype == np.int64


def test_mesh_derived_quantities_are_kept_and_die_with_the_mesh():
    mesh = build_disc_mesh(R=1.5, h=0.3)
    geo, es = mesh.geometry, mesh.edge_structure
    assert mesh.geometry is geo and mesh.edge_structure is es
    assert np.array_equal(geo.area, mesh.triangle_areas())
    # shared by every reader, so nobody may write into them
    assert not geo.grad.flags.writeable and not es.tri_edges.flags.writeable
    refs = [weakref.ref(x) for x in (mesh, geo, es)]
    del mesh, geo, es
    gc.collect()
    assert all(r() is None for r in refs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fault", ["clockwise", "degenerate"])
def test_mesh_geometry_refuses_a_clockwise_or_degenerate_triangle(fault, square24):
    triangles = square24.triangles.copy()
    triangles[5] = triangles[5][[0, 2, 1]] if fault == "clockwise" else triangles[5][[0, 1, 1]]
    mesh = dataclasses.replace(square24, triangles=triangles)
    with pytest.raises(ArithmeticError, match="degenerate or clockwise"):
        mesh.geometry


def test_predicted_vertex_count_matches(small_mesh):
    assert predicted_vertex_count(2.0, 0.25) == small_mesh.n_vertices


def _ring_prolongation_reference(coarse, fine):
    """Dense P, one fine vertex at a time, from the vertex coordinates: the
    coarse rings are the distinct radii, and each value is interpolated
    linearly in rho between the two rings around the fine vertex and, on
    each ring, linearly in angle between the two vertices around it."""
    rho_c = coarse.geodesic_radius(coarse.vertices)
    radii, ring_of = np.unique(np.round(rho_c, 9), return_inverse=True)
    rings = [np.flatnonzero(ring_of == r) for r in range(len(radii))]
    inner_c, inner_f = coarse.interior, fine.interior
    col = {int(v): i for i, v in enumerate(inner_c)}
    P = np.zeros((len(inner_f), len(inner_c)))
    for row, v in enumerate(inner_f):
        x, y = fine.vertices[v]
        rho, phi = fine.geodesic_radius(fine.vertices[v])[0], math.atan2(y, x)
        a = int(np.searchsorted(radii, rho + 1e-9)) - 1
        t = (rho - radii[a]) / (radii[a + 1] - radii[a])
        for ring, weight in ((a, 1 - t), (a + 1, t)):
            ids = rings[ring]
            if len(ids) == 1:  # the centre
                pairs = [(ids[0], 1.0)]
            else:
                ang = np.mod(np.arctan2(coarse.vertices[ids, 1], coarse.vertices[ids, 0]), 2 * np.pi)
                order = np.argsort(ang)
                ids, ang = ids[order], ang[order]
                i = (int(np.searchsorted(ang, np.mod(phi, 2 * np.pi) + 1e-9)) - 1) % len(ids)
                j = (i + 1) % len(ids)
                # phi may sit a rounding error before ang[i]
                s = (np.mod(phi - ang[i] + 1e-9, 2 * np.pi) - 1e-9) / np.mod(ang[j] - ang[i], 2 * np.pi)
                pairs = [(ids[i], 1 - s), (ids[j], s)]
            for u, w in pairs:
                if int(u) in col:  # the Dirichlet ring carries 0
                    P[row, col[int(u)]] += weight * w
    return P


@pytest.mark.parametrize("coarse_h, fine_h", [(0.25, 0.1), (0.5, 0.3), (0.2, 0.5)])
def test_ring_prolongation_interpolates_between_rings_and_along_them(coarse_h, fine_h):
    coarse, fine = build_disc_mesh(2.0, coarse_h), build_disc_mesh(2.0, fine_h)
    P = ring_prolongation(coarse, fine)
    assert sp.isspmatrix_csr(P)
    assert P.shape == (len(fine.interior), len(coarse.interior))
    assert np.abs(P.toarray() - _ring_prolongation_reference(coarse, fine)).max() < 1e-9
    # f = R - rho is linear in rho between rings, constant along them and 0
    # on the Dirichlet ring: reproduced at every fine interior vertex
    def f(m):
        return m.R - m.geodesic_radius(m.vertices[m.interior])

    assert np.abs(P @ f(coarse) - f(fine)).max() < 1e-13


@pytest.mark.parametrize("R", [2.0, 4.0, 6.0])
def test_ring_prolongation_fills_the_csr_arrays_of_the_coo_build(R):
    # every (coarse, fine) pair the benchmark sweep --h 0.2,0.1 prolongs
    # between: the meshes below the sweep, then its two rows
    from llab.hyperbolic.gap import _coarser_meshes

    meshes = _coarser_meshes(R, 0.2) + [build_disc_mesh(R, 0.2), build_disc_mesh(R, 0.1)]
    for coarse, fine in zip(meshes, meshes[1:]):
        got, want = ring_prolongation(coarse, fine), whole_ring_prolongation(coarse, fine)
        assert got.shape == want.shape and got.has_canonical_format
        for name in ("data", "indices", "indptr"):
            ours, theirs = getattr(got, name), getattr(want, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), (coarse.h, fine.h, name)


def test_ring_prolongation_needs_two_ring_meshes_of_one_radius(small_mesh):
    with pytest.raises(ValueError, match="different radii"):
        ring_prolongation(small_mesh, build_disc_mesh(3.0, 0.25))
    for pair in ((small_mesh, square_patch(8)), (square_patch(8), small_mesh)):
        with pytest.raises(ValueError, match="ring meshes"):
            ring_prolongation(*pair)


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


def _lu_eigenvalue(A, M) -> float:
    """The smallest eigenvalue of (A, M), preconditioned with its own LU."""
    return smallest_eigenpairs(A, M, stiffness_lu(A).solve)[0]


def test_square_lambda1_k0(square24):
    A, M = assemble_hodge_laplacian(square24, k=0)
    lam = _lu_eigenvalue(A, M)
    oracle = lambda1_euclidean_square()
    assert oracle == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert lam == pytest.approx(oracle, rel=7e-3)  # P1 at h = 1/24


def test_square_lambda1_k1(square24):
    A, M = assemble_hodge_laplacian(square24, k=1)
    oracle = lambda1_square_k1()
    assert oracle == pytest.approx(math.pi**2, rel=1e-14)
    assert _lu_eigenvalue(A, M) == pytest.approx(oracle, rel=1e-2)
    # pi^2 is doubly degenerate for relative-boundary 1-forms on a square;
    # the solver returns one pair, so the three lowest come from a dense
    # solve at h = 1/12
    A, M = assemble_hodge_laplacian(square_patch(12), k=1)
    lams = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True, subset_by_index=[0, 2])
    assert lams[0] == pytest.approx(oracle, rel=1e-2)
    assert lams[1] == pytest.approx(oracle, rel=1e-2)
    assert lams[2] == pytest.approx(2 * math.pi**2, rel=3e-2)


def test_square_k0_richardson_hits_oracle():
    # two mesh sizes + second-order extrapolation: error drops well below
    # the single-mesh discretization error
    vals = {}
    for nx in (12, 24):
        A, M = assemble_hodge_laplacian(square_patch(nx), k=0)
        vals[nx] = _lu_eigenvalue(A, M)
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
    assert abs(A - A.T).max() == 0.0
    # Dirichlet stiffness is positive definite: an exact dense spectrum
    assert np.linalg.eigvalsh(A.toarray()).min() > 0.0
    # the k = 1 symmetrization rejects visibly asymmetric input
    bad = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        _symmetrized(bad)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("which", ["small_mesh", "square24"])
def test_assembled_pencil_is_exactly_symmetric_csr(request, which, k):
    # dirichlet_lambda1 hands the solver A.T as A in CSC, which holds only
    # if every (a, b) and (b, a) entry is the same float
    mesh = request.getfixturevalue(which)
    for mat in assemble_hodge_laplacian(mesh, k):
        assert mat.format == "csr" and mat.has_canonical_format
        assert (mat != mat.T).nnz == 0


def _p1_coo_reference(mesh):
    """(K, M) scattered as 9 COO entries per triangle, duplicates summed."""
    area, grads, mu_mid = _geometry_reference(mesh)
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


def _p1_matrix_reference(mesh, local, vertices):
    """The P1 matrix from per-vertex and per-edge bincounts, restricted to
    `vertices` and converted from COO on its own, with no shared pattern."""
    t, es = mesh.triangles, mesh.edge_structure
    nv, ne = mesh.n_vertices, es.n_edges
    diag, off = np.zeros(nv), np.zeros(ne)
    for i in range(3):
        diag += np.bincount(t[:, i], weights=local(i, i), minlength=nv)
    for e, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)]):
        off += np.bincount(es.tri_edges[e], weights=local(a, b), minlength=ne)
    lo, hi = es.edges[:, 0], es.edges[:, 1]
    pos = np.full(nv, -1)
    pos[vertices] = np.arange(len(vertices))
    both = (pos[lo] >= 0) & (pos[hi] >= 0)
    nv, diag, off, lo, hi = len(vertices), diag[vertices], off[both], pos[lo[both]], pos[hi[both]]
    rows = np.concatenate([np.arange(nv), lo, hi])
    cols = np.concatenate([np.arange(nv), hi, lo])
    return sp.csr_matrix((np.concatenate([diag, off, off]), (rows, cols)), shape=(nv, nv))


@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh", "square24"])
def test_interior_p1_blocks_equal_the_restricted_matrices(request, which):
    # k = 0 fills the interior-vertex blocks into one pattern; they must be
    # the whole matrices restricted, then checked and symmetrized, bit for
    # bit apart from the explicit zeros that the symmetrizing sum drops, and
    # the per-matrix scatter, zeros and all
    mesh = request.getfixturevalue(which)
    idx = mesh.interior
    area, grads, mu_mid = _geometry_reference(mesh)
    locals_ = (
        lambda i, j: area * (grads[:, i] * grads[:, j]).sum(axis=1),
        lambda i, j: area / 3.0 * ((_PHI_MID[:, i] * _PHI_MID[:, j]) @ mu_mid.T),
    )
    A, M = assemble_hodge_laplacian(mesh, 0)
    for got, P, local in zip((A, M), (stiffness_p1, mass_p1), locals_):
        ref = _p1_matrix_reference(mesh, local, idx)
        want = _symmetrized(P(mesh)[idx][:, idx])
        nonzero = got.copy()
        nonzero.eliminate_zeros()
        assert got.shape == want.shape == ref.shape == (len(idx), len(idx))
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert np.array_equal(getattr(nonzero, name), getattr(want, name)), name
    # one pattern, held once: M has no zero, so it holds every entry of A
    assert np.shares_memory(A.indices, M.indices) and np.shares_memory(A.indptr, M.indptr)
    assert np.all(M.data > 0)
    if which == "square24":  # right angles give zero cotan weights, kept
        assert np.count_nonzero(A.data == 0) > 0


def test_hyperbolic_lambda1_vs_shooting(small_mesh):
    # R = 2, h = 0.25: P1 error is O(h^2) ~ a few percent
    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    lam = _lu_eigenvalue(A, M)
    assert lam == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=3e-2)
    assert lam > SHOOTING_LAMBDA1[2.0]  # conforming FEM from above


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def test_an_explicit_pencil_on_its_own_lu_matches_eigh(rng):
    n = 30
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = sp.csr_matrix(Q @ np.diag(np.linspace(1, 50, n)) @ Q.T)
    M = sp.identity(n, format="csr")
    lam, x, _, lower, res = smallest_eigenpairs(A, M, stiffness_lu(A).solve)
    assert lower is None  # proven only for a ground state
    ref = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[0]
    assert lam == pytest.approx(ref, rel=1e-10)
    assert x.shape == (n,)
    assert res == np.linalg.norm(A @ x - lam * (M @ x)) / np.linalg.norm(x) < 1e-8 * lam


def test_the_smallest_sweep_rows_take_the_lobpcg_route():
    # 7 and 8 dofs: the first row is the chain's bottom and takes its LU,
    # the second the V-cycle down to it
    from llab.hyperbolic.gap import gap_sweep

    rel_tol = 1e-8
    rows = gap_sweep(R_values=(2.0,), h_values=(1.5, 1.0), k=0, rel_tol=rel_tol)["rows"]
    assert [(r["n_dofs"], r["solver"]) for r in rows] == [(7, "lu"), (8, "multigrid")]
    for row in rows:
        lam = row["lambda1"]
        A, M = assemble_hodge_laplacian(build_disc_mesh(2.0, row["h"]), 0)
        assert lam == pytest.approx(scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[0], rel=1e-10)
        assert 0 <= lam - row["ground_state_lower"] <= rel_tol * lam


def test_a_one_dof_pencil_returns_at_step_0_with_its_proof():
    from llab.hyperbolic.gap import dirichlet_lambda1

    mesh = square_patch(2)
    A, M = assemble_hodge_laplacian(mesh, 0)
    assert A.shape == (1, 1)
    result = dirichlet_lambda1(mesh, 0)
    assert (result.n_dofs, result.solver, result.iterations) == (1, "lu", 0)
    lam = result.eigenvalue
    assert lam == pytest.approx(A[0, 0] / M[0, 0], rel=1e-15)
    assert 0 <= lam - result.ground_state_lower <= result.rel_tol * lam


def test_a_singular_pencil_is_refused_at_its_factorization(monkeypatch, capsys):
    # the Neumann Laplacian of a 200-point path is singular: lambda_min = 0,
    # which no certificate residual < rel_tol * lambda can accept
    from llab.cli import main
    from llab.hyperbolic import gap

    n = 200
    A = sp.diags([-np.ones(n - 1), np.r_[1.0, np.full(n - 2, 2.0), 1.0], -np.ones(n - 1)], [-1, 0, 1], format="csr")
    M = sp.identity(n, format="csr")
    with pytest.raises(EigenNonConvergence, match="stiffness matrix is singular") as exc:
        stiffness_lu(A)
    assert (exc.value.eigenvalue, exc.value.residual, exc.value.iterations) == (None, None, 0)

    # in a sweep, before any LOBPCG step; the CLI exits 2 and says why
    def no_solve(*args, **kwargs):
        raise AssertionError("LOBPCG reached on a singular pencil")

    monkeypatch.setattr(gap, "assemble_hodge_laplacian", lambda mesh, k: (A, M))
    monkeypatch.setattr(gap, "smallest_eigenpairs", no_solve)
    assert main(["hyperbolic", "--R", "2", "--h", "0.4"]) == 2
    assert "error: the stiffness matrix is singular" in capsys.readouterr().err


# The two tests below keep the names they had under the shift-invert
# Lanczos solver; what they check holds of the LOBPCG solve too.


def test_lanczos_start_vector_is_checked(small_mesh):
    As, Ms = assemble_hodge_laplacian(small_mesh, k=0)
    T = stiffness_lu(As).solve
    with pytest.raises(ValueError, match="shape"):
        smallest_eigenpairs(As, Ms, T, np.ones(3))
    with pytest.raises(ValueError, match="zero M-norm"):
        smallest_eigenpairs(As, Ms, T, np.zeros(As.shape[0]))
    # the default start is the fixed-seed draw
    default = smallest_eigenpairs(As, Ms, T)
    drawn = smallest_eigenpairs(As, Ms, T, np.random.default_rng(eigensolve_mod._SEED).standard_normal(As.shape[0]))
    assert default[0] == drawn[0] and np.array_equal(default[1], drawn[1]) and default[2] == drawn[2]
    # the CSC view of the symmetric pencil is solved as it is, to the same pair
    viewed = smallest_eigenpairs(As.T, Ms.T, T)
    assert As.T.format == "csc" and np.shares_memory(As.T.data, As.data)
    assert viewed[0] == pytest.approx(default[0], rel=1e-12)


def test_lanczos_nonconvergence_carries_best(small_mesh):
    A, M = assemble_hodge_laplacian(small_mesh, k=0)
    with pytest.raises(EigenNonConvergence) as exc:
        # an impossible certificate: residual < 1e-300 * lambda
        smallest_eigenpairs(A, M, stiffness_lu(A).solve, rel_tol=1e-300, maxiter=6)
    err = exc.value
    assert err.iterations == 6
    assert isinstance(err.eigenvalue, float) and isinstance(err.residual, float) and err.residual > 0
    # the best estimate is still a decent eigenvalue
    assert err.eigenvalue == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=0.05)


def test_lobpcg_ground_state_stops_only_on_a_proof(small_mesh):
    coarse = build_disc_mesh(2.0, 0.5)
    A, M = assemble_hodge_laplacian(small_mesh, 0)
    Ac, _ = assemble_hodge_laplacian(coarse, 0)
    P = ring_prolongation(coarse, small_mesh)
    T = multigrid_preconditioner([grid_level(A, P)], scipy.sparse.linalg.splu(Ac.tocsc()))
    exact = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[0]
    ones = np.ones(A.shape[0])
    # from the constant vector, a long way from the ground state
    lam, x, steps, lower, res = smallest_eigenpairs(A, M, T, ones, ground_state=True)
    assert lam == pytest.approx(exact, rel=1e-12)
    assert res == np.linalg.norm(A @ x - lam * (M @ x)) / np.linalg.norm(x) < 1e-8 * lam
    # the bound the stop rule proved is returned: the proof run again on
    # the returned pair gives it to the last bit
    assert lower == ground_state_lower(A, M, lam, x)
    assert lower <= exact and (lam - lower) / lam <= 1e-8
    # one step short of that, it refuses, carrying its estimate
    with pytest.raises(EigenNonConvergence) as exc:
        smallest_eigenpairs(A, M, T, ones, maxiter=steps - 1, ground_state=True)
    assert exc.value.iterations == steps - 1
    assert exc.value.eigenvalue == pytest.approx(exact, rel=1e-6)
    # at rel_tol = 1e-13 the residual gets below it, but the proof's
    # rounding allowance leaves a gap near 5e-13: no proof, no result
    with pytest.raises(EigenNonConvergence, match="no ground state proven"):
        smallest_eigenpairs(A, M, T, x, rel_tol=1e-13, maxiter=20, ground_state=True)
    # without the proof, the residual alone stops it
    assert smallest_eigenpairs(A, M, T, x, rel_tol=1e-13, maxiter=20)[2] < 20


def test_multigrid_v_cycle_is_the_two_grid_cycle_on_one_level_and_symmetric_on_three(small_mesh, rng):
    import scipy.sparse.linalg as spla

    # one level: the damped-Jacobi step, the coarse correction and the
    # same step again, bit for bit
    coarse = build_disc_mesh(2.0, 0.5)
    A, _ = assemble_hodge_laplacian(small_mesh, 0)
    P = ring_prolongation(coarse, small_mesh)
    lu = spla.splu(assemble_hodge_laplacian(coarse, 0)[0].tocsc())
    r = rng.standard_normal(A.shape[0])
    dinv = (2.0 / 3.0) / A.diagonal()
    x = dinv * r
    x += P @ lu.solve(P.T.tocsr() @ (r - A @ x))
    x += dinv * (r - A @ x)
    assert np.array_equal(multigrid_preconditioner([grid_level(A, P)], lu)(r), x)
    # three levels above the bottom, R = 2 at h = 0.25, 0.125 and 0.0625
    # over 0.5: the cycle is a symmetric positive operator, as LOBPCG needs
    meshes = [coarse, small_mesh, build_disc_mesh(2.0, 0.125), build_disc_mesh(2.0, 0.0625)]
    levels = [grid_level(assemble_hodge_laplacian(fine, 0)[0], ring_prolongation(below, fine))
              for below, fine in zip(meshes, meshes[1:])][::-1]
    T = multigrid_preconditioner(levels, lu)
    n = levels[0].A.shape[0]
    U, V = rng.standard_normal((2, n)), rng.standard_normal((2, n))
    TU = np.array([T(u) for u in U])
    pairs = [(u @ T(v), v @ tu) for u, tu in zip(U, TU) for v in V]
    assert all(a == pytest.approx(b, rel=1e-12) for a, b in pairs)
    assert all(u @ tu > 0 for u, tu in zip(U, TU))
    # the right-hand side is read, not written
    r0 = U[0].copy()
    T(U[0])
    assert np.array_equal(U[0], r0)


def _ground_pair(A, M, pairs=1):
    return scipy.linalg.eigh(A.toarray(), M.toarray(), subset_by_index=[0, pairs - 1])


@pytest.mark.parametrize("which", ["small_mesh", "square12"])
def test_ground_state_lower_brackets_the_smallest_eigenvalue(request, which):
    mesh = request.getfixturevalue(which) if which == "small_mesh" else square_patch(12)
    A, M = assemble_hodge_laplacian(mesh, 0)
    lams, X = _ground_pair(A, M)
    lower = ground_state_lower(A, M, lams[0], X[:, 0])
    exact = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[0]
    assert lower is not None
    assert lower <= exact <= lams[0] * (1 + 1e-13)
    assert 0 <= (lams[0] - lower) / lams[0] < 1e-6
    # the sign of the vector is immaterial
    assert ground_state_lower(A, M, lams[0], -X[:, 0]) == lower


def test_ground_state_lower_refuses_what_it_cannot_prove(small_mesh):
    A, M = assemble_hodge_laplacian(small_mesh, 0)
    lams, X = _ground_pair(A, M, pairs=2)
    # the second eigenvector changes sign: no certificate
    assert ground_state_lower(A, M, lams[1], X[:, 1]) is None
    # one off-diagonal pair of A made positive, beyond what lambda M offsets
    # there: the ground state stays positive, but A - mu M is no Z-matrix
    bad = A.copy()
    i, j = int(A.indices[A.indptr[0] + 1]), 0  # dof 0 and a neighbour
    assert i != j and A[i, j] < 0
    bad[i, j] = bad[j, i] = 3 * lams[0] * M[i, j]
    assert np.array_equal(bad.indices, A.indices)  # the pattern is unchanged
    bad_M = sp.csr_matrix((M.data, bad.indices, bad.indptr), shape=M.shape)
    lam_b, X_b = _ground_pair(bad, bad_M)
    x = X_b[:, 0] * np.sign(X_b[:, 0].sum())
    assert np.all(x > 0)
    assert ground_state_lower(bad, bad_M, lam_b[0], X_b[:, 0]) is None
    # an asymmetric pencil proves nothing either
    skew = A.copy()
    skew[i, j] = 0.5 * skew[i, j]
    assert ground_state_lower(skew, M, lams[0], X[:, 0]) is None
    with pytest.raises(ValueError, match="pattern"):
        ground_state_lower(A, sp.identity(A.shape[0], format="csr"), lams[0], X[:, 0])


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
    # under the suite's stokes_small gate 0.5 h^2
    assert defects[0.3] < 0.5 * 0.3**2
    assert defects[0.15] < 0.5 * 0.15**2
    # halving h cuts the defect by roughly 4 (allow a loose factor)
    assert defects[0.15] < 0.5 * defects[0.3]


def test_theta_rejects_euclidean(square24):
    with pytest.raises(ValueError):
        bounded_primitive(square24)


def test_theta_components_in_real_arithmetic_match_the_complex_formula(fine_mesh):
    from llab.hyperbolic.forms import _theta_components

    pts = np.vstack([fine_mesh.vertices, fine_mesh.edge_midpoints()])
    z = pts[:, 0] + 1j * pts[:, 1]
    wp = 2j / (1.0 - z) ** 2
    y = (1.0 - np.abs(z) ** 2) / np.abs(1.0 - z) ** 2
    ref = np.column_stack([-np.real(wp) / y, np.imag(wp) / y])
    got = _theta_components(pts)
    scale = np.linalg.norm(ref, axis=1)[:, None]
    assert np.max(np.abs(got - ref) / scale) < 1e-11


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
    # the premise and the bound it proves, and nothing sampled
    assert out.keys() == {"eps", "C_sqrtf_bound", "max_df_over_eps"}
    assert out["C_sqrtf_bound"] == 2.0
    # the bound's premise |df|_g <= eps at the pairing's midpoints: |df|_g
    # is |f'(rho)|, since the distance rho has |grad rho|_g = 1
    rho = fine_mesh.geodesic_radius(fine_mesh.edge_midpoints())
    assert out["max_df_over_eps"] == pytest.approx(np.abs(prof.df_at(rho)).max() / 0.8, rel=1e-12)
    assert out["max_df_over_eps"] <= 1.0 + 1e-9


def _crossterm_premise_reference(mesh, profile):
    """max |df|_g / eps over the 3 edge midpoints of every triangle, each
    edge's midpoint once per triangle on it."""
    p = mesh.vertices[mesh.triangles]
    p_mid = 0.5 * np.stack([p[:, 0] + p[:, 1], p[:, 1] + p[:, 2], p[:, 2] + p[:, 0]], axis=1).reshape(-1, 2)
    r = np.hypot(p_mid[:, 0], p_mid[:, 1])
    drho_dr = 2.0 / (1.0 - r**2) if mesh.metric == "hyperbolic" else np.ones_like(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        radial = np.where(r[:, None] > 0, p_mid / np.maximum(r, 1e-300)[:, None], 0.0)
    grad_f = (profile.df_at(mesh.geodesic_radius(p_mid)) * drho_dr)[:, None] * radial
    return float(np.sqrt(((grad_f**2).sum(axis=1) / mesh.mu(p_mid)).max())) / profile.eps


@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh", "square24"])
def test_crossterm_premise_matches_the_triangle_midpoints(request, which, monkeypatch):
    # no random draw: numpy's generator raises if asked for
    def no_draw(*args, **kwargs):
        raise AssertionError("crossterm_constant drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    mesh = request.getfixturevalue(which)
    profile = cutoff_family(mesh, eps=0.8 if mesh.metric == "hyperbolic" else 1.0)
    out = crossterm_constant(mesh, profile)
    assert out["max_df_over_eps"] == pytest.approx(_crossterm_premise_reference(mesh, profile), rel=1e-13)
    assert out == crossterm_constant(mesh, profile, mesh.edge_midpoints())


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
    mesh = request.getfixturevalue(which)
    es = mesh.edge_structure
    alpha = rng.standard_normal(es.n_edges)
    # reference: the same products accumulated in (triangle, midpoint) order
    grads = mesh.geometry.grad.transpose(2, 0, 1)
    dofs = (alpha[es.tri_edges] * es.tri_signs).T
    ref = np.zeros((mesh.n_triangles, 3, 2))
    for e, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)]):
        for m in range(3):
            w_e = _PHI_MID[m, a] * grads[:, b] - _PHI_MID[m, b] * grads[:, a]
            ref[:, m] += dofs[:, e, None] * w_e
    vals, d_uv = whitney_at_midpoints(mesh, es, alpha)
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
    # the total has no binning fuzz: pi m tanh^{2m}(R/2) over the whole ball
    assert table.total_norm_sq == pytest.approx(math.pi * m_pow * math.tanh(2.0) ** (2 * m_pow), rel=5e-3)


@pytest.mark.parametrize("jmax", [None, 2])
def test_annulus_masses_match_one_mask_per_annulus(fine_mesh, jmax):
    es = fine_mesh.edge_structure
    alpha = np.random.default_rng(3).standard_normal(es.n_edges)
    table = annulus_decay(alpha, fine_mesh, jmax=jmax)
    vals, _ = whitney_at_midpoints(fine_mesh, es, alpha)
    energy = (fine_mesh.geometry.area / 3.0) * (vals**2).sum(axis=2).sum(axis=1)
    bins = np.floor(fine_mesh.geodesic_radius(fine_mesh.centroids())).astype(int)
    ref = [energy[bins == j].sum() for j in range(table.jmax)]
    assert table.jmax == (4 if jmax is None else jmax)
    assert np.allclose(table.masses, ref, rtol=1e-13, atol=0)
    assert table.total_norm_sq == pytest.approx(energy.sum(), rel=1e-13)


@pytest.mark.parametrize("block", [11, None], ids=["block 11", "default block"])
@pytest.mark.parametrize("which", ["small_mesh", "fine_mesh"])
def test_blocked_form_checks_equal_the_whole_array_evaluation(monkeypatch, request, which, block):
    # a prime block size that divides neither nt nor ne puts block
    # boundaries everywhere and leaves a short last block; the values must
    # not move by a bit, since every reduction still runs over the whole mesh
    from llab.hyperbolic import mesh as mesh_mod

    mesh = request.getfixturevalue(which)
    if block is not None:
        monkeypatch.setattr(mesh_mod, "_BLOCK", block)
        assert all(n % block for n in (mesh.n_triangles, mesh.edge_structure.n_edges, mesh.n_vertices))
    theta, ref = bounded_primitive(mesh), whole_bounded_primitive(mesh)
    assert np.array_equal(theta.edge_integrals, ref.edge_integrals)
    assert np.array_equal(theta.triangle_omega, ref.triangle_omega)
    assert theta.to_json_dict() == ref.to_json_dict()
    profile = cutoff_family(mesh, eps=0.8)
    assert crossterm_constant(mesh, profile) == whole_crossterm_constant(mesh, profile)
    x = mesh.vertices[:, 0]
    lo, hi = mesh.edge_structure.edges.T
    for alpha in (x[hi] - x[lo], np.random.default_rng(3).standard_normal(len(lo))):  # d Re z, and noise
        table, ref = annulus_decay(alpha, mesh), whole_annulus_decay(alpha, mesh)
        assert np.array_equal(table.masses, ref.masses)
        assert table.total_norm_sq == ref.total_norm_sq and table.jmax == ref.jmax


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
