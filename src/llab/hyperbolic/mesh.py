"""Triangulated geodesic discs in the Poincare model.

The mesh lives in the unit-disc coordinates (u, v); the metric is conformal,
g = mu(z) (du^2 + dv^2) with mu = 4 / (1 - |z|^2)^2.  Conformality is what
makes the construction cheap: Euclidean Delaunay on the pulled-back vertex
set is automatically angle-correct for the hyperbolic metric, and the P1
stiffness matrix needs no metric weights at all.

Vertices are laid out on concentric geodesic circles rho = m * dr whose
point counts track the circumference 2*pi*sinh(rho), so triangle geodesic
diameters stay ~h all the way to the boundary even though the Euclidean
picture crushes everything against |z| = 1.
"""

from __future__ import annotations

import io
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

VERTEX_BUDGET = 2_000_000
R_MAX = 12.0
MIN_ANGLE_DEG = 15.0

_CACHE_MAGIC = b"LLABMESH"
_CACHE_VERSION = 3  # bump whenever the layout below changes


class MeshBudgetError(ValueError):
    """Requested mesh would exceed the vertex budget."""


@dataclass(frozen=True)
class TriangleGeometry:
    """Per-triangle quantities shared by assembly and quadrature.

    area : (nt,) Euclidean areas, checked positive
    grads : (nt, 3, 2) Euclidean gradients of the three P1 hats
    mids : (nt, 3, 2) midpoints of edges (01, 12, 20)
    mu_mid : (nt, 3) conformal factor at those midpoints
    """

    area: np.ndarray
    grads: np.ndarray
    mids: np.ndarray
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
    mesh, so it dies with it: `geometry` (areas, P1 gradients, edge
    midpoints, mu at the midpoints) and `edge_structure` (the edge complex
    of `assembly.edge_structure`).
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
            raise ArithmeticError("triangle with non-positive orientation in the mesh")
        p = self.vertices[self.triangles]
        # grad(lambda_i) = perp(p_{i+2} - p_{i+1}) / (2 area), perp(x, y) = (-y, x)
        grads = np.empty((len(area), 3, 2))
        for i in range(3):
            e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
            grads[:, i, 0] = -e[:, 1] / (2.0 * area)
            grads[:, i, 1] = e[:, 0] / (2.0 * area)
        mids = 0.5 * np.stack([p[:, 0] + p[:, 1], p[:, 1] + p[:, 2], p[:, 2] + p[:, 0]], axis=1)
        mu_mid = self.mu(mids.reshape(-1, 2)).reshape(-1, 3)
        return TriangleGeometry(*_read_only(area, grads, mids, mu_mid))

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
        p = self.vertices[self.triangles]
        angles = []
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            cosang = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))

    def stats(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "n_triangles": self.n_triangles,
            "n_boundary": int(self.boundary.sum()),
            "min_angle_deg": self.min_angle_degrees(),
            "R": self.R,
            "h": self.h,
            "metric": self.metric,
        }


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


def build_disc_mesh(R: float, h: float) -> DiscMesh:
    """Mesh the geodesic ball B(0, R) with target edge length h.

    Raises MeshBudgetError before allocating anything if the ring layout
    would exceed the vertex budget, and ValueError on out-of-range (R, h).
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

    tri = Delaunay(vertices)
    triangles = tri.simplices.astype(np.int32)

    # enforce CCW orientation
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    flip = signed < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    signed = np.abs(signed)
    if signed.min() <= 0:
        raise ArithmeticError("degenerate triangle in Delaunay output")

    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[len(vertices) - counts[-1]:] = True

    mesh = DiscMesh(
        vertices=vertices,
        triangles=triangles,
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


# -- binary mesh cache ----------------------------------------------------
#
# layout: magic(8) | version u32 | metric u8 | R f64 | h f64
#         | nv u64 | nt u64 | vertices f64[nv*2] | triangles i32[nt*3]
#         | boundary u8[nv] | crc32 u32 of everything before it
# Little-endian throughout.  Version mismatches invalidate, never migrate.

_METRIC_CODE = {"hyperbolic": 0, "euclidean": 1}
_METRIC_NAME = {v: k for k, v in _METRIC_CODE.items()}


def save_mesh(mesh: DiscMesh, path: str | os.PathLike) -> None:
    """Write the mesh atomically: a private temporary file, then a rename,
    so concurrent writers of one path never interleave their bytes."""
    buf = io.BytesIO()
    buf.write(_CACHE_MAGIC)
    buf.write(struct.pack("<IBdd", _CACHE_VERSION, _METRIC_CODE[mesh.metric], mesh.R, mesh.h))
    buf.write(struct.pack("<QQ", mesh.n_vertices, mesh.n_triangles))
    buf.write(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    buf.write(np.ascontiguousarray(mesh.triangles, dtype="<i4").tobytes())
    buf.write(np.ascontiguousarray(mesh.boundary, dtype=np.uint8).tobytes())
    buf.write(struct.pack("<I", zlib.crc32(buf.getvalue())))
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_mesh(path: str | os.PathLike) -> DiscMesh:
    raw = Path(path).read_bytes()
    if raw[:8] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not a mesh cache file")
    off = 8
    version, metric_code, R, h = struct.unpack_from("<IBdd", raw, off)
    off += struct.calcsize("<IBdd")
    if version != _CACHE_VERSION:
        raise ValueError(
            f"{path}: cache version {version} != current {_CACHE_VERSION}; rebuild"
        )
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) != crc:
        raise ValueError(f"{path}: checksum mismatch; rebuild")
    nv, nt = struct.unpack_from("<QQ", raw, off)
    off += struct.calcsize("<QQ")
    vertices = np.frombuffer(raw, dtype="<f8", count=nv * 2, offset=off).reshape(nv, 2).copy()
    off += nv * 2 * 8
    triangles = np.frombuffer(raw, dtype="<i4", count=nt * 3, offset=off).reshape(nt, 3).copy()
    off += nt * 3 * 4
    boundary = np.frombuffer(raw, dtype=np.uint8, count=nv, offset=off).astype(bool)
    return DiscMesh(
        vertices=vertices,
        triangles=triangles,
        boundary=boundary,
        R=R,
        h=h,
        metric=_METRIC_NAME[metric_code],
    )


def cached_disc_mesh(R: float, h: float, cache_dir: str | os.PathLike | None = None) -> DiscMesh:
    """build_disc_mesh with a transparent on-disk cache.

    The file name carries R and h exactly (repr round-trips a float), so
    two radii that differ in any bit get two files.
    """
    if cache_dir is None:
        return build_disc_mesh(R, h)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = f"disc_R{float(R)!r}_h{float(h)!r}_v{_CACHE_VERSION}.llabmesh"
    path = cache_dir / key
    if path.exists():
        try:
            mesh = load_mesh(path)
            if mesh.R == R and mesh.h == h:
                return mesh
        except (ValueError, struct.error):
            pass  # stale or corrupt cache entry; fall through and rebuild
    mesh = build_disc_mesh(R, h)
    save_mesh(mesh, path)
    return mesh
