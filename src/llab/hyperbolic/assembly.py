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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EdgeStructure:
    """Combinatorics of the edge complex shared by k=1 assembly and forms.

    edges : (ne, 2) int, each row sorted ascending (canonical orientation
            low -> high vertex index), the rows in lexicographic order
    tri_edges : (3, nt) indices into `edges` of each triangle's local edges
            (01, 12, 20), one contiguous row per local edge
    tri_signs : (3, nt) +-1, local CCW traversal vs canonical orientation
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
    order is the lexicographic (lo, hi) order of the edge rows.  The keys
    are laid out local edge by local edge.  A ring mesh lists its triangles
    band by band, so its first row of keys is sorted but for one step back
    per band, and the other two rows each interleave two ascending
    sequences.  A stable argsort (timsort, which merges the ascending runs
    it finds) orders such keys faster than the quicksort of `np.unique`,
    and a first-of-run mask over the sorted keys gives the edges and every
    key's edge index.
    """
    t = mesh.triangles.T  # (3, nt): corner i of every triangle in one row
    ends = t[[1, 2, 0]]  # local edge e runs from corner e to corner e + 1
    signs = np.where(t < ends, np.int8(1), np.int8(-1))
    nv = np.int64(mesh.n_vertices)
    # the keys lo * nv + hi, built in place in one int64 array
    keys = np.empty(t.shape, dtype=np.int64)
    np.minimum(t, ends, out=keys)
    keys *= nv
    keys += np.maximum(t, ends)
    keys = keys.ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    position = np.cumsum(first)
    position -= 1
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = position
    starts = np.flatnonzero(first)
    edges = np.column_stack(np.divmod(ordered[starts], nv))
    counts = np.diff(starts, append=len(keys))  # triangles on each edge
    if counts.max() > 2:
        raise ArithmeticError("non-manifold edge in triangulation")
    return EdgeStructure(
        edges=edges,
        tri_edges=inverse.reshape(3, -1),
        tri_signs=signs,
        boundary_edge=counts == 1,
    )


def _coo_accumulate(rows, cols, vals, shape) -> sp.csr_matrix:
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape)
    return A.tocsr()


def _p1_pattern(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, source) of the canonical n x n CSR pattern with a
    diagonal and the entries (lo, hi) and (hi, lo) of each edge, the edges
    (lo < hi) in lexicographic order; source[i] is the index of stored
    entry i in the concatenation [diagonal, (lo, hi) entries, (hi, lo)
    entries].

    Row i holds the edges ending at i, then the diagonal, then the edges
    starting at i.  Lexicographic order lists the edges starting at each
    row together and by column, so those land by an offset; the edges
    ending at each row, by ascending start, are the rows of the transposed
    upper triangle, which one CSR-to-CSC conversion (a counting sort)
    gives.  No entry is sorted twice and nothing goes through COO.
    """
    m = len(lo)
    below = np.bincount(hi, minlength=n)  # entries left of the diagonal, per row
    above = np.bincount(lo, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + above + 1, out=indptr[1:])
    diag = indptr[:-1] + below
    k = np.arange(m)
    upper_ptr = np.concatenate([[0], np.cumsum(above)])
    lower = sp.csr_matrix((k, hi, upper_ptr), shape=(n, n)).T.tocsr()
    at_upper = k + (diag + 1 - upper_ptr[:-1])[lo]
    at_lower = k + np.repeat(indptr[:-1] - lower.indptr[:-1], below)
    indices = np.empty(indptr[-1], dtype=np.int32 if indptr[-1] < 2**31 else np.int64)
    source = np.empty(indptr[-1], dtype=np.int64)
    indices[diag], source[diag] = np.arange(n), np.arange(n)
    indices[at_upper], source[at_upper] = hi, n + k
    indices[at_lower], source[at_lower] = lower.indices, n + m + lower.data
    return indptr.astype(indices.dtype), indices, source


def _p1_matrices(mesh: DiscMesh, locals_, vertices: np.ndarray | None = None) -> list[sp.csr_matrix]:
    """Sum the symmetric per-triangle 3 x 3 blocks local(i, j) -> (nt,) of
    each of `locals_` into an nv x nv CSR matrix, one entry per vertex and
    two per edge; with `vertices` (ascending indices), into its block on
    those vertices only.

    The diagonal is one bincount per corner and each edge entry one
    bincount per local edge, so (a, b) and (b, a) hold the same float: the
    matrices are exactly symmetric and carry no duplicates.  They are
    filled into one canonical pattern (`_p1_pattern`), built once, straight
    from the sorted edge list: all share its `indptr` and `indices`, and
    entries that sum to zero (right angles give zero cotan weights) stay.
    """
    t = mesh.triangles
    es = mesh.edge_structure
    nv, ne = mesh.n_vertices, es.n_edges
    lo, hi = es.edges[:, 0], es.edges[:, 1]
    n = nv
    if vertices is not None:  # renumber, keeping the edges with both ends kept
        pos = np.full(nv, -1)
        pos[vertices] = np.arange(len(vertices))
        both = (pos[lo] >= 0) & (pos[hi] >= 0)
        # the renumbering keeps the order, so the kept edges stay sorted
        n, lo, hi = len(vertices), pos[lo[both]], pos[hi[both]]
    indptr, indices, source = _p1_pattern(n, lo, hi)
    out = []
    for local in locals_:
        diag = np.zeros(nv)
        off = np.zeros(ne)
        for i in range(3):
            diag += np.bincount(t[:, i], weights=local(i, i), minlength=nv)
        for e, (a, b) in enumerate(_PAIRS):
            off += np.bincount(es.tri_edges[e], weights=local(a, b), minlength=ne)
        if vertices is not None:
            diag, off = diag[vertices], off[both]
        data = np.concatenate([diag, off, off])[source]
        out.append(sp.csr_matrix((data, indices, indptr), shape=(n, n)))
    return out


def _stiffness_local(geo):
    gx, gy = geo.grad[:, 0], geo.grad[:, 1]  # (3, nt) each
    return lambda i, j: geo.area * (gx[i] * gx[j] + gy[i] * gy[j])


def _mass_local(mesh: DiscMesh):
    w, mu = mesh.geometry.area / 3.0, mesh.midpoint_mu
    return lambda i, j: w * ((_PHI_MID[:, i] * _PHI_MID[:, j]) @ mu)


def stiffness_p1(mesh: DiscMesh, vertices: np.ndarray | None = None) -> sp.csr_matrix:
    """Flat cotan stiffness; equals the Laplace-Beltrami stiffness in 2D.
    `vertices` restricts it as in `_p1_matrices`."""
    return _p1_matrices(mesh, [_stiffness_local(mesh.geometry)], vertices)[0]


def mass_p1(mesh: DiscMesh, vertices: np.ndarray | None = None) -> sp.csr_matrix:
    """mu-weighted consistent P1 mass, edge-midpoint quadrature.  `vertices`
    restricts it as in `_p1_matrices`."""
    return _p1_matrices(mesh, [_mass_local(mesh)], vertices)[0]


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
    rows = np.tile(np.arange(nt), 3)
    cols = es.tri_edges.ravel()
    vals = es.tri_signs.ravel().astype(float)
    return sp.coo_matrix((vals, (rows, cols)), shape=(nt, es.n_edges)).tocsr()


def mass_whitney1(mesh: DiscMesh, es: EdgeStructure) -> sp.csr_matrix:
    """Euclidean Whitney 1-form mass (conformally invariant in 2D)."""
    area, g = mesh.geometry.area, mesh.geometry.grad
    gx, gy = g[:, 0], g[:, 1]  # (3, nt) each
    gdot = gx[:, None] * gx + gy[:, None] * gy  # (3, 3, nt)
    rows, cols, vals = [], [], []
    for e, (a, b) in enumerate(_PAIRS):
        for f, (c, d) in enumerate(_PAIRS):
            # int (la gb - lb ga) . (lc gd - ld gc), with int la lc = A(1+delta)/12
            m = (
                (1 + (a == c)) * gdot[b, d]
                - (1 + (a == d)) * gdot[b, c]
                - (1 + (b == c)) * gdot[a, d]
                + (1 + (b == d)) * gdot[a, c]
            ) * (area / 12.0)
            rows.append(es.tri_edges[e])
            cols.append(es.tri_edges[f])
            vals.append(es.tri_signs[e] * es.tri_signs[f] * m)
    return _coo_accumulate(rows, cols, vals, (es.n_edges, es.n_edges))


def mass_whitney2(mesh: DiscMesh) -> sp.dia_matrix:
    """Diagonal 2-form mass: M2[T] = (1/area^2) * int_T mu^{-1} dA."""
    area, mu = mesh.geometry.area, mesh.midpoint_mu
    diag = (1.0 / mu).sum(axis=0) / (3.0 * area)
    return sp.diags(diag)


def _symmetrized(A: sp.spmatrix) -> sp.csr_matrix:
    """A as canonical CSR, checked symmetric and then made exactly so.

    Raises ValueError when A is not square or when max |A - A^T| exceeds
    1e-12 * max |A|; otherwise returns (A + A^T) / 2, whose (a, b) and
    (b, a) entries are the same float.
    """
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"not square: {A.shape}")
    scale = max(np.abs(A.data).max(initial=0.0), 1e-300)
    gap = sp.csr_matrix(abs(A - A.T)).data.max(initial=0.0)
    if gap > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {gap:.3e} vs scale {scale:.3e}")
    A = ((A + A.T) * 0.5).tocsr()
    A.sum_duplicates()
    return A


def assemble_hodge_laplacian(mesh: DiscMesh, k: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(stiffness, mass) for the degree-k Hodge Laplacian, Dirichlet/relative BC.

    k=0 dofs: interior vertices.  k=1 dofs: interior edges.  Boundary rows
    and columns are eliminated, not penalized.  Both matrices are exactly
    symmetric canonical CSR, so their transposes are the same matrices in
    CSC.  The k=0 pair is filled into one pattern: A and M share their
    `indptr` and `indices`, and A keeps the entries that sum to zero.
    """
    if k == 0:
        A, M = _p1_matrices(mesh, [_stiffness_local(mesh.geometry), _mass_local(mesh)], mesh.interior)
        return A, M
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
        return _symmetrized(A1), _symmetrized(M1k)
    raise ValueError(f"k must be 0 or 1 for the surface model, got {k}")
