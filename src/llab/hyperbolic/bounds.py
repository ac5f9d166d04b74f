"""A proven lower bound on lambda_1 of the geodesic ball B_R, by one LU.

A conforming P1 eigenvalue approximates lambda_1 from above, so it cannot
show lambda_1(B_R) >= b.  The Crouzeix-Raviart (CR) element can: with
C^2 = kappa^2 max_T (diam_T^2 max_T w), kappa = 0.1893, its smallest
eigenvalue lambda_CR gives

    lambda_1(P, w) >= lambda_CR / (1 + C^2 lambda_CR)

(Carstensen & Gedicke, Math. Comp. 83, 2014; Liu, Appl. Math. Comput. 267,
2015).  The CR interpolation error obeys ||v||_T <= kappa diam_T ||grad v||_T,
and ||v||^2_{w,T} <= max_T w ||v||^2_T, so the Euclidean constant carries
over to the weight w.  Each inequality of the chain

    b <= lambda_1(P, w) <= lambda_1(P, mu) <= lambda_1(B_R)

has its reason here:
  * P, the enclosing polygon: a `build_disc_mesh` mesh has its boundary
    ring of N equally spaced vertices on |z| = tanh(R/2), so it is inscribed
    in B_R; moved out by 1/cos(pi/N), the ring bounds a regular N-gon of
    inradius tanh(R/2), which contains B_R (domain monotonicity);
  * w, the weight: on each triangle, the linear interpolant of
    mu = 4 / (1 - |z|^2)^2 at the corners; mu is convex, so w >= mu, and
    a larger weight lowers every Rayleigh quotient;
  * the stiffness carries no weight: the Dirichlet energy is conformally
    invariant in dimension 2.

The gate needs no eigenvalue: b <= lambda_CR / (1 + C^2 lambda_CR) holds iff
lambda_CR >= sigma* = b / (1 - C^2 b), for C^2 b < 1, and that holds when
K - sigma* M is positive definite.  One sparse LU with a symmetric
permutation and no pivoting is an L D L^T, whose pivots have the matrix's
inertia (Sylvester), so every pivot > 0 shows it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
# bound at import, so a counter wrapped around the eigensolver's splu sees
# its factorizations only
from scipy.sparse.linalg import splu

from llab.hyperbolic.mesh import DiscMesh

# the CR interpolation constant of any triangle (Liu, 2015)
KAPPA = 0.1893
# the gate factors K - sigma* (1 + _MARGIN) M, so that rounding in the
# assembly, in C^2 and in the factorization cannot tip a pivot's sign
_MARGIN = 1e-6
# the enclosing polygon's boundary ring moves out this much more, relative,
# far above the few rounding units of its vertices' coordinates
_ROUNDING = 1e-12

# _MOMENTS[k, m, n] = int_T lambda_k lambda_m lambda_n / area: 1/10 when
# k = m = n, 1/30 when exactly two agree, 1/60 when all three differ
_MOMENTS = np.array([[[(1 / 10, 1 / 30, 1 / 60)[len({k, m, n}) - 1] for n in range(3)] for m in range(3)]
                     for k in range(3)])
# the CR hat of the edge opposite corner i is 1 - 2 lambda_i =
# sum_m (1 - 2 delta_im) lambda_m; so int_T w psi_i psi_j, w = sum_k w_k lambda_k,
# is area * sum_k w_k _WEIGHTED[k, i, j], made exactly symmetric in (i, j)
_HAT = 1.0 - 2.0 * np.eye(3)
_WEIGHTED = np.einsum("im,jn,kmn->kij", _HAT, _HAT, _MOMENTS)
_WEIGHTED = 0.5 * (_WEIGHTED + _WEIGHTED.transpose(0, 2, 1))


def enclosing_mesh(mesh: DiscMesh) -> DiscMesh:
    """The mesh with its boundary ring moved out by 1/cos(pi/N), N the ring's
    vertex count, and by _ROUNDING more: the triangles and the edge complex
    stay those of mesh.  For a ring of N equally spaced vertices on a
    circle, as `build_disc_mesh` lays out, the polygon then contains the
    circle's disc."""
    ring = mesh.boundary
    vertices = mesh.vertices.copy()
    vertices[ring] *= (1.0 + _ROUNDING) / np.cos(np.pi / np.count_nonzero(ring))
    return DiscMesh(vertices, mesh.triangles, mesh.boundary, mesh.R, mesh.h, mesh.metric)


def crouzeix_raviart_pencil(mesh: DiscMesh, edges) -> tuple[sp.csc_matrix, sp.csc_matrix, float]:
    """(K, M, C^2) of the CR pencil on the interior edges of mesh, whose
    edge complex is edges (an `assembly.EdgeStructure`, which depends on
    the triangles alone): K = 4 area grad(lambda_i) . grad(lambda_j) and
    M = int w psi_e psi_f with w the linear interpolant of the metric factor
    at the corners, integrated exactly.  C^2 = KAPPA^2 max_T(diam_T^2
    max_T w), diam_T the longest Euclidean edge of T."""
    geo = mesh.geometry
    gx, gy = geo.grad[:, 0], geo.grad[:, 1]
    w = mesh.mu(mesh.vertices)[mesh.triangles.T]  # (3, nt), at the corners
    x, y = mesh._corners()
    diam_sq = np.max([(x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2 for i, j in ((0, 1), (1, 2), (2, 0))], axis=0)
    C2 = KAPPA**2 * float(np.max(diam_sq * w.max(axis=0)))
    # CR dof of each corner's opposite edge, -1 on the boundary: local edge e
    # joins corners (e, e + 1), so corner i faces local edge i + 1
    dof = np.full(edges.n_edges, -1)
    kept = edges.kept
    dof[kept] = np.arange(len(kept))
    opposite = dof[edges.tri_edges[[1, 2, 0]]]
    rows, cols, k_vals, m_vals = [], [], [], []
    for i in range(3):
        for j in range(3):
            on = (opposite[i] >= 0) & (opposite[j] >= 0)
            rows.append(opposite[i][on])
            cols.append(opposite[j][on])
            k_vals.append((4.0 * geo.area * (gx[i] * gx[j] + gy[i] * gy[j]))[on])
            m_vals.append((geo.area * (_WEIGHTED[:, i, j] @ w))[on])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    n = len(kept)
    K, M = (sp.coo_matrix((np.concatenate(v), (rows, cols)), shape=(n, n)).tocsc() for v in (k_vals, m_vals))
    return K, M, C2


def lower_bound_gate(mesh: DiscMesh, bound: float) -> dict:
    """Whether the CR pencil of mesh's enclosing polygon proves
    lambda_1 >= bound on the ball mesh is inscribed in.

    Returns the record {h, cr_dofs, C2, sigma_star, min_pivot, lu_nnz,
    status}, status "certified" or "not certified: <reason>": C^2 b >= 1,
    splu failed, the permutation it chose is not symmetric, or a pivot of
    K - sigma* (1 + _MARGIN) M is <= 0.  A field the gate did not reach is
    None.  The factorization and the pencil are released on return."""
    record = dict.fromkeys(("h", "cr_dofs", "C2", "sigma_star", "min_pivot", "lu_nnz"))
    enclosing = enclosing_mesh(mesh)
    K, M, C2 = crouzeix_raviart_pencil(enclosing, mesh.edge_structure)
    record.update(h=mesh.h, cr_dofs=K.shape[0], C2=C2)
    if not C2 * bound < 1:
        return {**record, "status": f"not certified: C^2 b = {C2 * bound:.3g} >= 1"}
    sigma = bound / (1.0 - C2 * bound)
    record["sigma_star"] = sigma
    try:
        lu = splu(K - (sigma * (1.0 + _MARGIN)) * M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError as e:  # an exactly zero pivot, or out of memory
        return {**record, "status": f"not certified: splu failed ({e})"}
    record["lu_nnz"] = int(lu.L.nnz + lu.U.nnz)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return {**record, "status": "not certified: the permutation is not symmetric"}
    smallest = float(lu.U.diagonal().min())
    record["min_pivot"] = smallest
    if not smallest > 0:
        return {**record, "status": f"not certified: a pivot <= 0 (smallest {smallest:.3g})"}
    return {**record, "status": "certified"}
