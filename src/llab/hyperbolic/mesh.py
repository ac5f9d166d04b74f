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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

VERTEX_BUDGET = 2_000_000
R_MAX = 12.0
MIN_ANGLE_DEG = 15.0


class MeshBudgetError(ValueError):
    """Requested mesh would exceed the vertex budget."""


@dataclass(frozen=True)
class TriangleGeometry:
    """Per-triangle quantities shared by assembly and quadrature.

    area : (nt,) Euclidean areas, checked positive
    grads : (nt, 3, 2) Euclidean gradients of the three P1 hats
    mu_mid : (nt, 3) conformal factor at the midpoints of edges (01, 12, 20)

    The midpoints themselves are not kept: every mesh holds its geometry
    for life, and its only reader, the cutoff sampling of
    `forms.crossterm_constant`, rebuilds them in its own layout.
    """

    area: np.ndarray
    grads: np.ndarray
    mu_mid: np.ndarray


@dataclass(frozen=True)
class DiscMesh:
    """Triangulation of a geodesic ball (or a Euclidean test patch).

    vertices : (nv, 2) float64, unit-disc coordinates
    triangles : (nt, 3) int32, CCW in the (u, v) plane
    boundary : (nv,) bool, True on the outermost ring
    R, h : requested geodesic radius / target edge length
    metric : "hyperbolic" or "euclidean" (the latter only for oracle patches)

    What is derived from the arrays is built on first use and kept on the
    mesh, so it dies with it: `geometry` (areas, P1 gradients, mu at the
    edge midpoints) and `edge_structure` (the edge complex of
    `assembly.edge_structure`).
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
        r = np.hypot(pts[:, 0], pts[:, 1])
        if self.metric == "euclidean":
            return r
        return 2.0 * np.arctanh(np.clip(r, 0.0, 1.0 - 1e-15))

    # -- per-triangle geometry used by assembly and quadrature ------------

    def triangle_areas(self) -> np.ndarray:
        """Signed Euclidean areas (positive for the stored CCW orientation)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def geometry(self) -> TriangleGeometry:
        """The mesh's `TriangleGeometry`; raises on a non-CCW triangle."""
        area = self.triangle_areas()
        if area.min() <= 0:
            raise ArithmeticError("degenerate or clockwise triangle in the mesh")
        p = self.vertices[self.triangles]
        # grad(lambda_i) = perp(p_{i+2} - p_{i+1}) / (2 area), perp(x, y) = (-y, x)
        grads = np.empty((len(area), 3, 2))
        for i in range(3):
            e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
            grads[:, i, 0] = -e[:, 1] / (2.0 * area)
            grads[:, i, 1] = e[:, 0] / (2.0 * area)
        mids = 0.5 * np.stack([p[:, 0] + p[:, 1], p[:, 1] + p[:, 2], p[:, 2] + p[:, 0]], axis=1)
        mu_mid = self.mu(mids.reshape(-1, 2)).reshape(-1, 3)
        return TriangleGeometry(*_read_only(area, grads, mu_mid))

    @cached_property
    def edge_structure(self):
        """The mesh's `assembly.EdgeStructure`."""
        from llab.hyperbolic import assembly

        es = assembly.edge_structure(self)
        _read_only(es.edges, es.tri_edges, es.tri_signs, es.boundary_edge)
        return es

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def min_angle_degrees(self) -> float:
        t = self.triangles.T
        x, y = self.vertices[:, 0][t], self.vertices[:, 1][t]  # (3, nt)
        nxt, prev = [1, 2, 0], [2, 0, 1]
        # e_i = p_{i+1} - p_i; the angle at vertex i lies between e_i and
        # -e_{i-1}, and the smallest angle has the largest cosine, so one
        # arccos is enough
        ex, ey = x[nxt] - x, y[nxt] - y
        sq = ex * ex + ey * ey
        cos = -(ex * ex[prev] + ey * ey[prev]) / np.sqrt(sq * sq[prev])
        return float(np.degrees(np.arccos(np.clip(cos.max(), -1.0, 1.0))))


def _read_only(*arrays):
    """Lock arrays that every reader of a mesh shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _ring_counts(R: float, h: float) -> tuple[int, list[int]]:
    """Ring count M and per-ring vertex counts, without building anything."""
    M = max(2, int(round(R / h)))
    dr = R / M
    counts = []
    for m in range(1, M + 1):
        rho = m * dr
        counts.append(max(6, int(round(2.0 * np.pi * np.sinh(rho) / h))))
    return M, counts


def predicted_vertex_count(R: float, h: float) -> int:
    _, counts = _ring_counts(R, h)
    return 1 + sum(counts)


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


def build_disc_mesh(R: float, h: float) -> DiscMesh:
    """Mesh the geodesic ball B(0, R) with target edge length h.

    Raises MeshBudgetError before allocating anything if the ring layout
    would exceed the vertex budget, ValueError on out-of-range (R, h), and
    ArithmeticError when a triangle's smallest angle is below MIN_ANGLE_DEG
    (a degenerate triangle's is 0).  The stitched triangles are CCW by
    construction; `geometry` computes their signed areas, once per mesh,
    and raises on any that is not positive.
    """
    if not (0.0 < h < R):
        raise ValueError(f"need 0 < h < R, got h={h}, R={R}")
    if R > R_MAX:
        raise ValueError(f"R={R} exceeds supported radius {R_MAX}")
    n_pred = predicted_vertex_count(R, h)
    if n_pred > VERTEX_BUDGET:
        raise MeshBudgetError(
            f"mesh for R={R}, h={h} needs ~{n_pred} vertices "
            f"(budget {VERTEX_BUDGET}); coarsen h or shrink R"
        )

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
