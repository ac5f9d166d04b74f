"""Triangulated geodesic discs in the Poincare model.

The mesh lives in the unit-disc coordinates (u, v); the metric is conformal,
g = mu(z) (du^2 + dv^2) with mu = 4 / (1 - |z|^2)^2.  Conformality is what
makes the construction cheap: angles in the (u, v) picture are the
hyperbolic angles, so triangles shaped well in the Euclidean coordinates
are shaped well for the metric, and the P1 stiffness matrix needs no
metric weights at all.

Vertices are laid out on concentric geodesic circles rho = m * dr whose
point counts track the circumference 2*pi*sinh(rho), so triangle geodesic
diameters stay ~h all the way to the boundary even though the Euclidean
picture crushes everything against |z| = 1.  Each pair of neighbouring
rings is stitched into a band of triangles by merging the edges of both
rings in the angular order of their midpoints, and the centre is joined
to the first ring by a fan.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from llab.algebra import _kept

VERTEX_BUDGET = 2_000_000
R_MAX = 12.0
MIN_ANGLE_DEG = 15.0


class MeshBudgetError(ValueError):
    """Requested mesh would exceed the vertex budget."""


# Triangles or edges per block of the elementwise chains over a mesh (the
# geometry here, the form checks in `forms`): about 8k keeps each chain's
# temporaries in L2.  Every reduction (dot, sum, max, bincount) still runs
# once over the whole array, and each element's value does not depend on
# the block it falls in, so the results do not depend on this size.
_BLOCK = 8192


def _blocks(n: int):
    """Slices of at most _BLOCK consecutive elements covering range(n)."""
    return (slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


@dataclass(frozen=True)
class TriangleGeometry:
    """Per-triangle quantities shared by assembly and quadrature, stored
    corner-major so that every per-corner row is contiguous.

    area : (nt,) Euclidean areas, checked positive
    grad : (3, 2, nt) Euclidean gradients of the three P1 hats, by corner
        and component
    max_cos : the largest cosine of an angle of any triangle, that of the
        smallest angle

    The conformal factor at the edge midpoints is `DiscMesh.midpoint_mu`,
    evaluated only when a mass or a form check first reads it.
    """

    area: np.ndarray
    grad: np.ndarray
    max_cos: float


def _signed_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed areas from the (3, nt) corner coordinates x and y."""
    d1x, d1y = x[1] - x[0], y[1] - y[0]
    d2x, d2y = x[2] - x[0], y[2] - y[0]
    return 0.5 * (d1x * d2y - d1y * d2x)


@dataclass(frozen=True)
class DiscMesh:
    """Triangulation of a geodesic ball (or a Euclidean test patch).

    vertices : (nv, 2) float64, unit-disc coordinates
    triangles : (nt, 3) int32, CCW in the (u, v) plane
    boundary : (nv,) bool, True on the outermost ring
    R, h : requested geodesic radius / target edge length
    metric : "hyperbolic" or "euclidean" (the latter only for oracle patches)

    What is derived from the arrays is built on first use and kept,
    read-only, in the mesh's own memo (`llab.algebra._kept`), so it dies
    with it: `geometry` (areas, P1 gradients and the smallest angle),
    `midpoint_mu` (mu at the edge midpoints) and `edge_structure` (the edge
    complex of `assembly.edge_structure`).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    R: float
    h: float
    metric: str = "hyperbolic"

    def __post_init__(self):
        if self.metric not in ("hyperbolic", "euclidean"):
            raise ValueError(f"unknown metric tag {self.metric!r}")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def interior(self) -> np.ndarray:
        """Indices of interior (non-Dirichlet) vertices."""
        return np.flatnonzero(~self.boundary)

    def mu(self, points: np.ndarray) -> np.ndarray:
        """Conformal factor of the metric at an (m, 2) array of points."""
        pts = np.atleast_2d(points)
        if self.metric == "euclidean":
            return np.ones(pts.shape[0])
        s = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return 4.0 / (1.0 - s) ** 2

    def geodesic_radius(self, points: np.ndarray) -> np.ndarray:
        """Distance to the origin.  rho = 2 artanh|z| in the hyperbolic case."""
        pts = np.atleast_2d(points)
        return self.geodesic_radius_of(np.hypot(pts[:, 0], pts[:, 1]))

    def geodesic_radius_of(self, r: np.ndarray) -> np.ndarray:
        """Distance to the origin of points at Euclidean radius r = |z|."""
        if self.metric == "euclidean":
            return r
        return 2.0 * np.arctanh(np.clip(r, 0.0, 1.0 - 1e-15))

    # -- per-triangle geometry used by assembly and quadrature ------------

    def _corners(self, rows: slice = slice(None)) -> np.ndarray:
        """(2, 3, nt) coordinates of the corners of the triangles `rows`
        (every triangle by default), one gather."""
        return self.vertices.T[:, self.triangles[rows].T]

    @property
    @_kept
    def geometry(self) -> TriangleGeometry:
        """The mesh's `TriangleGeometry`; raises on a non-CCW triangle.

        One pass over blocks of `_BLOCK` triangles: each block gathers its
        corners, checks its areas before dividing by them, and gives its
        hat gradients and its largest angle cosine.
        """
        nt = self.n_triangles
        area, grad = np.empty(nt), np.empty((3, 2, nt))
        max_cos = -1.0
        # grad(lambda_i) = perp(p_{i+2} - p_{i+1}) / (2 area), perp(x, y) = (-y, x)
        nxt, prev = [1, 2, 0], [2, 0, 1]
        for b in _blocks(nt):
            corners = self.vertices.take(self.triangles[b], axis=0)  # (nb, 3, 2)
            x, y = corners[:, :, 0].T, corners[:, :, 1].T  # (3, nb) each
            a = _signed_areas(x, y)
            if a.min() <= 0:
                raise ArithmeticError("degenerate or clockwise triangle in the mesh")
            area[b] = a
            two_area = 2.0 * a
            gx, gy = grad[:, 0, b], grad[:, 1, b]
            np.divide(-(y[prev] - y[nxt]), two_area, out=gx)
            np.divide(x[prev] - x[nxt], two_area, out=gy)
            # grad(lambda_i) is the inward normal of the edge opposite corner
            # i, scaled, so the angle at corner i is pi minus the angle
            # between the gradients of i+1 and i+2
            sq = gx * gx + gy * gy
            cos = -(gx[nxt] * gx[prev] + gy[nxt] * gy[prev]) / np.sqrt(sq[nxt] * sq[prev])
            max_cos = max(max_cos, float(cos.max()))
        return TriangleGeometry(area, grad, max_cos)

    @property
    @_kept
    def midpoint_mu(self) -> np.ndarray:
        """(3, nt) conformal factor at the midpoints of the edges (01, 12,
        20) of every triangle: evaluated once per edge midpoint, on first
        read, and gathered per triangle."""
        return np.take(self.mu(self.edge_midpoints()), self.edge_structure.tri_edges)

    @property
    @_kept
    def edge_structure(self):
        """The mesh's `assembly.EdgeStructure`."""
        from llab.hyperbolic import assembly

        return assembly.edge_structure(self)

    def edge_midpoints(self) -> np.ndarray:
        """(ne, 2) midpoints of the edges of `edge_structure`, in its order."""
        v, e = self.vertices, self.edge_structure.edges
        return 0.5 * (v.take(e[:, 0], axis=0) + v.take(e[:, 1], axis=0))

    def centroids(self, rows: slice = slice(None)) -> np.ndarray:
        """(nt, 2) centroids of the triangles `rows` (every triangle by default)."""
        x, y = self._corners(rows)
        return np.column_stack([(x[0] + x[1] + x[2]) / 3.0, (y[0] + y[1] + y[2]) / 3.0])

    def min_angle_degrees(self) -> float:
        """Smallest angle, from the largest cosine that `geometry` found."""
        return float(np.degrees(np.arccos(np.clip(self.geometry.max_cos, -1.0, 1.0))))


def _ring_count(R: float, h: float) -> int:
    """The ring count M = round(R / h), at least 2.  Past sys.maxsize rings,
    R / h = inf included, it is sys.maxsize: no array indexes more, and
    1 + 6 M exceeds VERTEX_BUDGET either way."""
    rings = R / h
    return max(2, int(round(rings))) if rings < sys.maxsize else sys.maxsize


def _ring_counts(R: float, h: float) -> tuple[int, list[int]]:
    """Ring count M and per-ring vertex counts, without building anything."""
    M = _ring_count(R, h)
    dr = R / M
    counts = []
    for m in range(1, M + 1):
        rho = m * dr
        counts.append(max(6, int(round(2.0 * np.pi * np.sinh(rho) / h))))
    return M, counts


def predicted_vertex_count(R: float, h: float) -> int:
    """The vertex count of `build_disc_mesh(R, h)`, without building it;
    or, when M rings of at least 6 vertices each already exceed
    VERTEX_BUDGET, that lower bound 1 + 6 M, with no loop over the rings."""
    M = _ring_count(R, h)
    if 1 + 6 * M > VERTEX_BUDGET:
        return 1 + 6 * M
    return 1 + sum(_ring_counts(R, h)[1])


def ring_prolongation(coarse: DiscMesh, fine: DiscMesh):
    """Sparse (fine interior x coarse interior) map of nodal values between
    two `build_disc_mesh` meshes of one R: linear in rho between the coarse
    rings and linear in angle along each of them, zero on the Dirichlet ring.

    A fine vertex on ring m sits at rho = m R / M_f, a fraction t of the way
    from coarse ring a to a + 1; both are computed exactly as rationals, and
    so is the angular position on each coarse ring.  The centre is a ring of
    one vertex.  So a function of rho alone that is linear between the
    coarse rings is reproduced exactly.  Each fine row has at most four
    nonzero weights, whose columns are known in order, so the CSR arrays
    are filled directly.  ValueError for meshes of different R or not laid
    out in rings (`square_patch`).
    """
    import scipy.sparse as sp

    for mesh in (coarse, fine):
        if mesh.metric != "hyperbolic" or mesh.n_vertices != predicted_vertex_count(mesh.R, mesh.h):
            raise ValueError("ring_prolongation needs two ring meshes made by build_disc_mesh")
    if coarse.R != fine.R:
        raise ValueError(f"the meshes have different radii, R = {coarse.R} and {fine.R}")
    Mc, counts_c = _ring_counts(coarse.R, coarse.h)
    Mf, counts_f = _ring_counts(fine.R, fine.h)
    # coarse ring r (0 the centre) holds sizes[r] vertices from starts[r] on
    sizes = np.array([1] + counts_c)
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    # every fine interior vertex but the centre: its ring m and index j there
    per_ring = np.array(counts_f[:-1])
    m = np.repeat(np.arange(1, Mf), per_ring)
    j = np.arange(len(m)) - np.repeat(np.cumsum(per_ring) - per_ring, per_ring)
    n_f = per_ring[m - 1]
    a = m * Mc // Mf
    t = (m * Mc - a * Mf) / Mf
    # fine vertex j of ring m is at angle pi (2j + m % 2) / n_f, coarse
    # vertex q of ring r at pi (2q + r % 2) / sizes[r]: the fine vertex sits
    # num / den coarse spacings past coarse vertex 0
    twice_j, den = 2 * j + (m & 1), 2 * n_f
    # the four candidates of each fine row, ring a's two and then ring
    # a + 1's, in ascending column order: a ring's pair is (q, q + 1), but
    # (0, q) where it wraps at q = n_c - 1
    cols = np.empty((len(m), 4), dtype=np.int64)
    vals = np.empty((len(m), 4))
    for lo, (ring, weight) in zip((0, 2), ((a, 1.0 - t), (a + 1, t))):
        hi = lo + 1
        n_c = sizes[ring]
        num = twice_j * n_c - (ring & 1) * n_f
        q = num // den
        frac = (num - q * den) / den
        behind = np.flatnonzero(q < 0)  # q = -1: past coarse vertex n_c - 1
        q[behind] += n_c[behind]
        np.add(starts[ring], q, out=cols[:, lo])
        np.add(cols[:, lo], 1, out=cols[:, hi])
        np.multiply(weight, 1.0 - frac, out=vals[:, lo])
        np.multiply(weight, frac, out=vals[:, hi])
        vals[ring == Mc, lo:hi + 1] = 0.0  # ring Mc is the Dirichlet ring
        wraps = np.flatnonzero(q == n_c - 1)
        cols[wraps, hi] = cols[wraps, lo]
        cols[wraps, lo] -= q[wraps]
        vals[wraps, lo], vals[wraps, hi] = vals[wraps, hi], vals[wraps, lo]
    # ring a = 0, the centre, is one vertex: its two candidates share a
    # column, and the second takes the sum
    centre = slice(0, int(np.searchsorted(a, 1)))
    vals[centre, 1] += vals[centre, 0]
    vals[centre, 0] = 0.0
    # row 0 maps the fine centre to the coarse centre; zero weights are dropped
    keep = vals != 0
    indptr = np.empty(len(m) + 2, dtype=np.int64)
    indptr[:2] = 0, 1
    np.add(np.cumsum(keep.ravel())[3::4], 1, out=indptr[2:])
    indices = np.concatenate([[0], cols[keep]])
    data = np.concatenate([[1.0], vals[keep]])
    return sp.csr_matrix((data, indices, indptr), shape=(1 + len(m), int(starts[Mc])))


def _stitch_rings(counts: list[int]) -> np.ndarray:
    """Triangles of the ring layout: a fan from the centre (vertex 0) to
    ring 1, then one band per pair of neighbouring rings.

    Ring m holds N = counts[m-1] vertices, numbered on from the rings inside
    it, at the angles 2 pi (2j + s) / (2N) with stagger s = m % 2.  A band
    merges the edges of both rings in the angular order of their midpoints;
    each edge closes a CCW triangle with the vertex of the other ring whose
    angle is nearest its midpoint.  Edge k of a ring, the one whose midpoint
    sits at 2 pi (2k + 1 - s) / (2N), runs from vertex k - s to k - s + 1
    (mod N).  The midpoints are compared exactly, as integers over the
    common denominator 2 N_in N_out; on a tie the inner edge goes first.
    """
    starts = np.concatenate([[1], 1 + np.cumsum(counts[:-1])])
    j = np.arange(counts[0])
    bands = [np.column_stack([np.zeros_like(j), starts[0] + j, starts[0] + (j + 1) % counts[0]])]
    for m in range(1, len(counts)):
        n_in, n_out = counts[m - 1], counts[m]
        s_in, s_out = m % 2, (m + 1) % 2  # ring m is the inner ring of band m
        mid_in = (2 * np.arange(n_in) + 1 - s_in) * n_out
        mid_out = (2 * np.arange(n_out) + 1 - s_out) * n_in
        order = np.argsort(np.concatenate([mid_in, mid_out]), kind="stable")
        inner = order < n_in
        # edges of each ring merged before this one; the next edge of a
        # ring starts at the last vertex that ring has reached
        before_in = np.cumsum(inner) - inner
        before_out = np.arange(n_in + n_out) - before_in
        last_in = (before_in - s_in) % n_in
        last_out = (before_out - s_out) % n_out
        new = np.where(inner, starts[m - 1] + (last_in + 1) % n_in, starts[m] + (last_out + 1) % n_out)
        bands.append(np.column_stack([starts[m - 1] + last_in, starts[m] + last_out, new]))
    return np.vstack(bands).astype(np.int32)


def check_disc_request(R: float, h: float) -> None:
    """Refuse an (R, h) that `build_disc_mesh` cannot mesh, building
    nothing: ValueError unless 0 < h < R <= R_MAX, MeshBudgetError when the
    ring layout would exceed VERTEX_BUDGET."""
    if not (0.0 < h < R):
        raise ValueError(f"need 0 < h < R, got h={h}, R={R}")
    if R > R_MAX:
        raise ValueError(f"R={R} exceeds supported radius {R_MAX}")
    n_pred = predicted_vertex_count(R, h)
    if n_pred > VERTEX_BUDGET:
        raise MeshBudgetError(
            f"mesh for R={R}, h={h} needs at least {n_pred} vertices "
            f"(budget {VERTEX_BUDGET}); coarsen h or shrink R"
        )


def build_disc_mesh(R: float, h: float) -> DiscMesh:
    """Mesh the geodesic ball B(0, R) with target edge length h.

    Refuses an (R, h) out of range or over the vertex budget before
    allocating anything (`check_disc_request`), and raises ArithmeticError
    when a triangle is degenerate or clockwise, or when its smallest angle
    is below MIN_ANGLE_DEG.  The stitched triangles are CCW by construction;
    the angle check reads them from `geometry`, which computes their signed
    areas, once per mesh, and raises on any that is not positive.
    """
    check_disc_request(R, h)

    M, counts = _ring_counts(R, h)
    dr = R / M
    pts = [np.zeros((1, 2))]
    for m, N_m in enumerate(counts, start=1):
        rho = m * dr
        r_eucl = np.tanh(rho / 2.0)
        # stagger alternate rings by half a step so triangles stay close
        # to equilateral instead of forming thin radial quads
        offset = (m % 2) * np.pi / N_m
        ang = offset + 2.0 * np.pi * np.arange(N_m) / N_m
        pts.append(np.column_stack([r_eucl * np.cos(ang), r_eucl * np.sin(ang)]))
    vertices = np.vstack(pts)

    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[len(vertices) - counts[-1]:] = True

    mesh = DiscMesh(
        vertices=vertices,
        triangles=_stitch_rings(counts),
        boundary=boundary,
        R=float(R),
        h=float(h),
        metric="hyperbolic",
    )
    ang = mesh.min_angle_degrees()
    if ang < MIN_ANGLE_DEG:
        raise ArithmeticError(
            f"mesh quality violation: min angle {ang:.2f} deg < {MIN_ANGLE_DEG}"
        )
    return mesh


def square_patch(nx: int) -> DiscMesh:
    """Euclidean unit-square mesh (nx intervals per side) for oracle tests.

    The same assembly code runs on it with mu = 1, so the classical
    eigenvalues of the square/disc pin down the k=0 and k=1 pipelines
    against closed-form values.
    """
    if nx < 2:
        raise ValueError("nx >= 2")
    xs = np.linspace(0.0, 1.0, nx + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (nx + 1) + j

    tris = []
    for i in range(nx):
        for j in range(nx):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            # alternate the diagonal for an unbiased (criss-cross) pattern
            if (i + j) % 2 == 0:
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))
    triangles = np.array(tris, dtype=np.int32)
    boundary = (
        np.isclose(vertices[:, 0], 0.0)
        | np.isclose(vertices[:, 0], 1.0)
        | np.isclose(vertices[:, 1], 0.0)
        | np.isclose(vertices[:, 1], 1.0)
    )
    return DiscMesh(
        vertices=vertices,
        triangles=triangles,
        boundary=boundary,
        R=1.0,
        h=1.0 / nx,
        metric="euclidean",
    )
