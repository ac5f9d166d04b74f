"""Finite-element assembly for 0- and 1-form Hodge Laplacians.

Everything exploits 2D conformal structure:
  * the P1 stiffness matrix of the Laplace-Beltrami operator equals the
    flat cotan stiffness matrix (conformal invariance of the Dirichlet
    energy in dimension 2), so no metric enters the k=0 stiffness;
  * the L2 norm of a 1-form is likewise conformally invariant, so the
    Whitney 1-form mass matrix is assembled flat;
  * the metric enters only through mu-weighted 0-form masses and
    mu^{-1}-weighted 2-form masses (midpoint quadrature, second order).

The k=1 operator is the mixed-form Hodge Laplacian with relative
(Dirichlet, vanishing tangential trace) boundary conditions:
    A1 = D1^T M2 D1 + M1 D0 diag(M0_lump)^{-1} D0^T M1
restricted to interior edges, with D0 restricted to interior vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from llab.hyperbolic.mesh import DiscMesh

# local edge e of a triangle joins its corners _PAIRS[e]
_PAIRS = ((0, 1), (1, 2), (2, 0))

# values of the three P1 hats at the three edge midpoints (01, 12, 20)
_PHI_MID = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])


@dataclass
class SparseSymmetricMatrix:
    """CSR payload of a symmetric sparse matrix, the wire type for reports.

    Symmetry is enforced at construction (max |A - A^T| entry below
    sym_tol * scale) rather than trusted.
    """

    dimension: int
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    symmetric: bool = True
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_scipy(cls, A: sp.spmatrix, sym_tol: float = 1e-12) -> "SparseSymmetricMatrix":
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"not square: {A.shape}")
        scale = max(np.abs(A.data).max(initial=0.0), 1e-300)
        asym = sp.csr_matrix(abs(A - A.T))
        gap = asym.data.max(initial=0.0)
        if gap > sym_tol * scale:
            raise ValueError(f"matrix is not symmetric: max asymmetry {gap:.3e} vs scale {scale:.3e}")
        # symmetrize exactly so downstream solvers see a bitwise-symmetric operator
        A = ((A + A.T) * 0.5).tocsr()
        A.sum_duplicates()
        return cls(
            dimension=A.shape[0],
            data=A.data,
            indices=A.indices,
            indptr=A.indptr,
            symmetric=True,
            _csr=A,
        )

    def as_scipy(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(self.dimension, self.dimension),
            )
        return self._csr

    @property
    def nnz(self) -> int:
        return int(len(self.data))

    def scale(self) -> float:
        return float(np.abs(self.data).max(initial=0.0))

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "nnz": self.nnz,
            "symmetric": self.symmetric,
            "scale": self.scale(),
        }


@dataclass(frozen=True)
class EdgeStructure:
    """Combinatorics of the edge complex shared by k=1 assembly and forms.

    edges : (ne, 2) int, each row sorted ascending (canonical orientation
            low -> high vertex index)
    tri_edges : (nt, 3) indices into `edges` for local edges (01, 12, 20)
    tri_signs : (nt, 3) +-1, local CCW traversal vs canonical orientation
    boundary_edge : (ne,) bool, True for edges on exactly one triangle
    """

    edges: np.ndarray
    tri_edges: np.ndarray
    tri_signs: np.ndarray
    boundary_edge: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def kept(self) -> np.ndarray:
        """Interior-edge indices (the relative-BC 1-form dofs)."""
        return np.flatnonzero(~self.boundary_edge)


def edge_structure(mesh: DiscMesh) -> EdgeStructure:
    """Build the edge complex of a mesh; `mesh.edge_structure` keeps one.

    Edges are deduplicated on the scalar key lo * nv + hi, whose ascending
    order is the lexicographic (lo, hi) order of the edge rows.
    """
    t = mesh.triangles
    local = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1)  # (nt, 3, 2)
    lo = local.min(axis=2).astype(np.int64)
    hi = local.max(axis=2).astype(np.int64)
    signs = np.where(local[:, :, 0] < local[:, :, 1], 1, -1).astype(np.int8)
    nv = np.int64(mesh.n_vertices)
    keys, inverse = np.unique((lo * nv + hi).ravel(), return_inverse=True)
    edges = np.column_stack([keys // nv, keys % nv])
    tri_edges = inverse.reshape(-1, 3).astype(np.int64)
    counts = np.bincount(tri_edges.ravel(), minlength=len(edges))
    if counts.max() > 2:
        raise ArithmeticError("non-manifold edge in triangulation")
    boundary_edge = counts == 1
    return EdgeStructure(
        edges=edges,
        tri_edges=tri_edges,
        tri_signs=signs,
        boundary_edge=boundary_edge,
    )


def _coo_accumulate(rows, cols, vals, shape) -> sp.csr_matrix:
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape)
    return A.tocsr()


def _p1_matrix(mesh: DiscMesh, local) -> sp.csr_matrix:
    """Sum the symmetric per-triangle 3 x 3 blocks local(i, j) -> (nt,) into
    an nv x nv CSR matrix, one entry per vertex and two per edge.

    The diagonal is one bincount per corner and each edge entry one
    bincount per local edge, so (a, b) and (b, a) hold the same float: the
    matrix is exactly symmetric and carries no duplicates.
    """
    t = mesh.triangles
    es = mesh.edge_structure
    nv, ne = mesh.n_vertices, es.n_edges
    diag = np.zeros(nv)
    off = np.zeros(ne)
    for i in range(3):
        diag += np.bincount(t[:, i], weights=local(i, i), minlength=nv)
    for e, (a, b) in enumerate(_PAIRS):
        off += np.bincount(es.tri_edges[:, e], weights=local(a, b), minlength=ne)
    lo, hi = es.edges[:, 0], es.edges[:, 1]
    rows = np.concatenate([np.arange(nv), lo, hi])
    cols = np.concatenate([np.arange(nv), hi, lo])
    return sp.csr_matrix((np.concatenate([diag, off, off]), (rows, cols)), shape=(nv, nv))


def stiffness_p1(mesh: DiscMesh) -> sp.csr_matrix:
    """Flat cotan stiffness; equals the Laplace-Beltrami stiffness in 2D."""
    area = mesh.geometry.area
    g = mesh.geometry.grads.transpose(1, 2, 0)
    gx, gy = np.ascontiguousarray(g[:, 0]), np.ascontiguousarray(g[:, 1])  # (3, nt) each
    return _p1_matrix(mesh, lambda i, j: area * (gx[i] * gx[j] + gy[i] * gy[j]))


def mass_p1(mesh: DiscMesh) -> sp.csr_matrix:
    """mu-weighted consistent P1 mass, edge-midpoint quadrature."""
    w = mesh.geometry.area / 3.0
    mu = np.ascontiguousarray(mesh.geometry.mu_mid.T)  # (3, nt), midpoint-major
    return _p1_matrix(mesh, lambda i, j: w * ((_PHI_MID[:, i] * _PHI_MID[:, j]) @ mu))


def incidence_d0(mesh: DiscMesh, es: EdgeStructure) -> sp.csr_matrix:
    """d: 0-forms -> 1-forms on canonical edges, (d phi)_(a,b) = phi_b - phi_a."""
    ne = es.n_edges
    rows = np.concatenate([np.arange(ne), np.arange(ne)])
    cols = np.concatenate([es.edges[:, 0], es.edges[:, 1]])
    vals = np.concatenate([-np.ones(ne), np.ones(ne)])
    return sp.coo_matrix((vals, (rows, cols)), shape=(ne, mesh.n_vertices)).tocsr()


def incidence_d1(mesh: DiscMesh, es: EdgeStructure) -> sp.csr_matrix:
    """d: 1-forms -> 2-forms, (d alpha)_T = signed sum over the CCW boundary."""
    nt = mesh.n_triangles
    rows = np.repeat(np.arange(nt), 3)
    cols = es.tri_edges.ravel()
    vals = es.tri_signs.ravel().astype(float)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nt, es.n_edges)).tocsr()


def mass_whitney1(mesh: DiscMesh, es: EdgeStructure) -> sp.csr_matrix:
    """Euclidean Whitney 1-form mass (conformally invariant in 2D)."""
    area, grads = mesh.geometry.area, mesh.geometry.grads
    gdot = np.einsum("tix,tjx->tij", grads, grads)  # (nt, 3, 3)
    rows, cols, vals = [], [], []
    for e, (a, b) in enumerate(_PAIRS):
        for f, (c, d) in enumerate(_PAIRS):
            # int (la gb - lb ga) . (lc gd - ld gc), with int la lc = A(1+delta)/12
            m = (
                (1 + (a == c)) * gdot[:, b, d]
                - (1 + (a == d)) * gdot[:, b, c]
                - (1 + (b == c)) * gdot[:, a, d]
                + (1 + (b == d)) * gdot[:, a, c]
            ) * (area / 12.0)
            rows.append(es.tri_edges[:, e])
            cols.append(es.tri_edges[:, f])
            vals.append(es.tri_signs[:, e] * es.tri_signs[:, f] * m)
    return _coo_accumulate(rows, cols, vals, (es.n_edges, es.n_edges))


def mass_whitney2(mesh: DiscMesh) -> sp.dia_matrix:
    """Diagonal 2-form mass: M2[T] = (1/area^2) * int_T mu^{-1} dA."""
    area, mu_mid = mesh.geometry.area, mesh.geometry.mu_mid
    diag = (1.0 / mu_mid).sum(axis=1) / (3.0 * area)
    return sp.diags(diag)


def assemble_hodge_laplacian(
    mesh: DiscMesh, k: int
) -> tuple[SparseSymmetricMatrix, SparseSymmetricMatrix]:
    """(stiffness, mass) for the degree-k Hodge Laplacian, Dirichlet/relative BC.

    k=0 dofs: interior vertices.  k=1 dofs: interior edges.  Boundary rows
    and columns are eliminated, not penalized.
    """
    if k == 0:
        K = stiffness_p1(mesh)
        M = mass_p1(mesh)
        idx = mesh.interior
        Ki = K[idx][:, idx]
        Mi = M[idx][:, idx]
        return SparseSymmetricMatrix.from_scipy(Ki), SparseSymmetricMatrix.from_scipy(Mi)
    if k == 1:
        es = mesh.edge_structure
        D0 = incidence_d0(mesh, es)
        D1 = incidence_d1(mesh, es)
        M1 = mass_whitney1(mesh, es)
        M2 = mass_whitney2(mesh)
        M0 = mass_p1(mesh)
        lump = np.asarray(M0.sum(axis=1)).ravel()
        if lump.min() <= 0:
            raise ArithmeticError("non-positive lumped mass entry")

        kept = es.kept
        interior = mesh.interior
        D1k = D1[:, kept]
        M1k = M1[kept][:, kept]
        # delta-part: D0 restricted to kept edges x interior vertices.
        # Boundary-edge rows of D0 only touch boundary vertices, so the
        # restriction loses nothing.
        D0k = D0[kept][:, interior]
        Minv = sp.diags(1.0 / lump[interior])
        A_d = D1k.T @ M2 @ D1k
        B = D0k.T @ M1k  # (n_int_vert x n_kept_edges)
        A_delta = B.T @ Minv @ B
        A1 = A_d + A_delta
        return SparseSymmetricMatrix.from_scipy(A1), SparseSymmetricMatrix.from_scipy(M1k)
    raise ValueError(f"k must be 0 or 1 for the surface model, got {k}")
