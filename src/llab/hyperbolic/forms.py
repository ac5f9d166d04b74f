"""Continuum objects sampled onto the mesh: the bounded primitive of the
area form, cutoff families, and annulus energy tables.

The primitive comes from the half-plane: theta = -dx/y has |theta| = 1
pointwise and d theta = -dx dy / y^2, i.e. the area 2-form up to sign.
Pulled back through the Moebius map w = i(1+z)/(1-z) it lives on the disc
model, where all meshes are built.  The sign convention is measured, not
assumed: the per-triangle Stokes residual compares the discrete exterior
derivative of the sampled edge integrals against the sampled 2-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from llab.hyperbolic.assembly import EdgeStructure
from llab.hyperbolic.mesh import DiscMesh, _blocks

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL_T = 0.5 * (_GL_NODES + 1.0)  # nodes on [0, 1]
_GL_W = 0.5 * _GL_WEIGHTS

def _theta_uv(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean (a_u, a_v) of the pulled-back -dx/y at the disc points (u, v).

    w = i(1+z)/(1-z), w' = 2i/(1-z)^2, y = Im w = (1-|z|^2)/|1-z|^2;
    theta = -dx/y = -(Re w' du - Im w' dv)/y.  In real arithmetic, with
    p = 1 - u, q = v and D = |1 - z|^2 = p^2 + q^2:
    a_u = 4 p q / (D (1 - |z|^2)) and a_v = 2 (p^2 - q^2) / (D (1 - |z|^2)).
    """
    p, q = 1.0 - u, v
    pp, qq = p * p, q * q
    scale = 1.0 / ((pp + qq) * (1.0 - (u * u + v * v)))
    return 4.0 * p * q * scale, 2.0 * (pp - qq) * scale


def _theta_components(points: np.ndarray) -> np.ndarray:
    """(m, 2) `_theta_uv` at an (m, 2) array of disc points."""
    return np.column_stack(_theta_uv(points[:, 0], points[:, 1]))


@dataclass
class PrimitiveOneForm:
    """A 1-form theta with d theta = (sign) * area form, sampled on a mesh.

    edge_integrals : line integrals over canonical (low -> high) edges;
        these are exactly the Whitney dofs of the sampled form.
    triangle_omega : per-triangle integral of d theta computed from the
        continuum 2-form (mu-weighted quadrature with the measured sign).
    stokes_max / stokes_rms : relative defect of (D1 @ edge_integrals)
        against triangle_omega; O(h^2) for a correct sign and pairing.
    """

    expression: str
    sup_norm: float
    omega_sign: int
    edge_integrals: np.ndarray
    triangle_omega: np.ndarray
    stokes_max: float
    stokes_rms: float

    def to_json_dict(self) -> dict:
        return {
            "expression": self.expression,
            "sup_norm": self.sup_norm,
            "omega_sign": self.omega_sign,
            "n_edges": int(len(self.edge_integrals)),
            "stokes_max": self.stokes_max,
            "stokes_rms": self.stokes_rms,
        }


def _edge_line_integrals(mesh: DiscMesh, es: EdgeStructure) -> np.ndarray:
    """4-point Gauss-Legendre line integrals of theta over canonical edges,
    block by block."""
    u, v = mesh.vertices[:, 0], mesh.vertices[:, 1]
    total = np.zeros(es.n_edges)
    for b in _blocks(es.n_edges):
        lo, hi = es.edges[b, 0], es.edges[b, 1]
        au, av = u[lo], v[lo]
        du, dv = u[hi] - au, v[hi] - av  # tangent, canonical orientation
        out = total[b]
        for t, w in zip(_GL_T, _GL_W):
            cu, cv = _theta_uv(au + t * du, av + t * dv)
            out += w * (cu * du + cv * dv)
    return total


def _sup_theta_norm(mesh: DiscMesh, *point_sets: np.ndarray) -> float:
    """max |theta|_g over (m, 2) arrays of points, block by block."""
    tops = []
    for points in point_sets:
        for b in _blocks(len(points)):
            comp = _theta_components(points[b])
            tops.append(np.sqrt((comp**2).sum(axis=1) / mesh.mu(points[b])).max())
    return float(np.max(tops))


def bounded_primitive(mesh: DiscMesh, midpoints: np.ndarray | None = None) -> PrimitiveOneForm:
    """Sample theta = -(dx/y) pulled back to the disc model onto the mesh.

    Available only for the hyperbolic metric: the Euclidean area form on a
    plane patch has primitives, but none with bounded pointwise norm, and
    none is provided.  `midpoints` is `mesh.edge_midpoints()`, built here
    when not given.
    """
    if mesh.metric != "hyperbolic":
        raise ValueError("bounded primitive is defined for the hyperbolic metric only")
    es = mesh.edge_structure
    geo = mesh.geometry

    edge_integrals = _edge_line_integrals(mesh, es)

    # continuum 2-form: d theta = -mu du dv (measured sign -1 in CCW (u,v))
    sign = -1
    triangle_omega = sign * geo.area / 3.0 * mesh.midpoint_mu.sum(axis=0)

    # the discrete d of the edge integrals: each triangle's signed sum
    circulation = (edge_integrals[es.tri_edges] * es.tri_signs).sum(axis=0)
    defect = np.abs(circulation - triangle_omega)
    scale = np.abs(triangle_omega)
    rel = defect / np.maximum(scale, np.median(scale))
    stokes_max = float(rel.max())
    stokes_rms = float(np.sqrt(np.mean(rel**2)))

    # |theta|_g should be identically 1; measure on vertices and edge
    # midpoints, one per edge (the triangles' midpoints repeat interior ones)
    if midpoints is None:
        midpoints = mesh.edge_midpoints()
    sup_norm = _sup_theta_norm(mesh, mesh.vertices, midpoints)

    return PrimitiveOneForm(
        expression="pullback of -(dx)/y under w = i(1+z)/(1-z)",
        sup_norm=sup_norm,
        omega_sign=sign,
        edge_integrals=edge_integrals,
        triangle_omega=triangle_omega,
        stokes_max=stokes_max,
        stokes_rms=stokes_rms,
    )


# -- cutoff families -------------------------------------------------------


def _cutoff_f(rho, eps: float, r_plateau: float) -> np.ndarray:
    s = np.maximum(0.0, np.asarray(rho, dtype=float) - r_plateau)
    base = np.maximum(0.0, 1.0 - 0.5 * eps * s)
    return base**2


def _cutoff_df(rho, eps: float, r_plateau: float) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    s = np.maximum(0.0, rho - r_plateau)
    base = np.maximum(0.0, 1.0 - 0.5 * eps * s)
    on = (rho > r_plateau) & (base > 0.0)
    return np.where(on, -eps * base, 0.0)


@dataclass
class CutoffProfile:
    """Radial cutoff f(rho) = (1 - (eps/2) max(0, rho - r0))_+^2.

    The square makes |df|^2 / f bounded: both sup|df| <= eps and
    sup(|df|^2/f) = eps^2 <= eps hold on {f > 0} for eps <= 1, and both
    are measured on a dense radial grid rather than trusted.
    """

    eps: float
    r_plateau: float
    r_support: float
    feasible: bool
    sup_df: float
    sup_df_sq_over_f: float

    def df_at(self, rho: np.ndarray) -> np.ndarray:
        """Radial derivative f'(rho) (signed; nonpositive)."""
        return _cutoff_df(rho, self.eps, self.r_plateau)

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "r_plateau": self.r_plateau,
            "r_support": self.r_support,
            "feasible": self.feasible,
            "sup_df": self.sup_df,
            "sup_df_sq_over_f": self.sup_df_sq_over_f,
        }


def cutoff_family(mesh: DiscMesh, eps: float) -> CutoffProfile:
    """Cutoff adapted to the mesh: plateau as wide as the support allows.

    Feasible iff the ramp of width 2/eps fits inside radius R, i.e.
    R > 2/eps; an infeasible profile is still returned (plateau radius 0)
    with the flag cleared, since the point of the family is the eps -> 0
    limit on exhausting balls.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"need 0 < eps <= 1, got {eps}")
    r_support = 2.0 / eps
    r_plateau = max(0.0, mesh.R - r_support)
    rho = np.linspace(0.0, mesh.R, 2048)
    f = _cutoff_f(rho, eps, r_plateau)
    df = _cutoff_df(rho, eps, r_plateau)
    pos = f > 0
    return CutoffProfile(
        eps=eps,
        r_plateau=r_plateau,
        r_support=min(mesh.R, r_plateau + r_support),
        feasible=mesh.R > r_support,
        sup_df=float(np.abs(df).max()),
        sup_df_sq_over_f=float((df[pos] ** 2 / f[pos]).max()),
    )


def _local_dofs(es: EdgeStructure, alpha: np.ndarray, b: slice) -> np.ndarray:
    """(3, len(b)) edge dofs of the triangles b in their local CCW orientation."""
    return np.take(alpha, es.tri_edges[:, b]) * es.tri_signs[:, b]


def _whitney_midpoint_major(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Whitney interpolant at the 3 edge midpoints, (midpoint, component,
    triangle) order, from the (3, 2, nt) hat gradients g and the (3, nt)
    local dofs d; every product runs over contiguous memory.

    At the midpoint of local edge m the hats of its ends are 1/2 and the
    third hat is 0, so the Whitney field of local edge e = (a, b) there,
    la g_b - lb g_a, is (g_{m+1} - g_m) / 2 for e = m, g_{m+2} / 2 for
    e = m + 1 and -g_{m+2} / 2 for e = m + 2.  The halves are taken last,
    which is exact, and the terms are summed in the order e = 0, 1, 2.
    """
    acc = np.empty((3,) + g.shape[1:])
    term = np.empty(g.shape[1:])
    for m in range(3):
        m1, m2 = (m + 1) % 3, (m + 2) % 3
        out = acc[m]
        for e in range(3):
            into = out if e == 0 else term
            if e == m:
                np.subtract(g[m1], g[m], out=into)
                into *= d[e]
            else:
                np.multiply(g[m2], d[e], out=into)
            if e == 0:
                if m2 == 0:
                    np.negative(out, out=out)
            elif e == m2:
                out -= term
            else:
                out += term
        out *= 0.5
    return acc


def crossterm_constant(mesh: DiscMesh, profile: CutoffProfile, midpoints: np.ndarray | None = None) -> dict:
    """The premise of the bound on the cross term |<d a, 2 f df ^ a>|.

    The bound C_sqrtf <= 2, that is |<d a, 2 f df ^ a>| <= 2 eps
    ||sqrt f a|| ||sqrt f d a||, is a theorem: 2 f |df| <= 2 eps f = 2 eps
    sqrt(f) sqrt(f) pointwise wherever |df|_g <= eps, then Cauchy-Schwarz.
    The edge-midpoint quadrature of the pairing and of the norms has
    positive weights, so the bound holds for every discrete 1-form a once
    |df|_g <= eps at every edge midpoint.  `max_df_over_eps` is that
    premise: max |df|_g / eps = |grad f| / (sqrt(mu) eps) over `midpoints`
    (`mesh.edge_midpoints()`, built here when not given), with the mu of
    `DiscMesh.mu` there, in one pass over blocks of `_BLOCK` midpoints.
    """
    if midpoints is None:
        midpoints = mesh.edge_midpoints()
    df_sq = 0.0  # max |df|_g^2 so far
    for b in _blocks(len(midpoints)):
        u, v = midpoints[b, 0], midpoints[b, 1]
        r = np.hypot(u, v)
        # Euclidean gradient of rho: d rho/d r_eucl * radial unit vector
        if mesh.metric == "hyperbolic":
            drho_dr = 2.0 / (1.0 - r**2)
        else:
            drho_dr = np.ones_like(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            radial_scale = np.where(r > 0, profile.df_at(mesh.geodesic_radius_of(r)) * drho_dr / r, 0.0)
        gu, gv = radial_scale * u, radial_scale * v
        # |df|_g^2 = |grad f|^2 / mu
        df_sq = max(df_sq, float(((gu * gu + gv * gv) / mesh.mu(midpoints[b])).max()))
    return {"eps": profile.eps, "C_sqrtf_bound": 2.0, "max_df_over_eps": float(np.sqrt(df_sq)) / profile.eps}


# -- annulus decay ----------------------------------------------------------


@dataclass
class AnnulusDecayTable:
    """Energy of a 1-form over unit-width geodesic annuli.

    masses[j] = integral of |alpha|^2 dvol over {j <= rho < j+1};
    weighted[j] = (j+1) * masses[j].  If every weighted entry stayed above
    a > 0 on an infinite cone, the total mass would dominate
    a * sum 1/(j+1), a divergent series -- so for L2 forms the inf of the
    weighted column must vanish.  min_weighted is the witness.
    """

    masses: np.ndarray
    total_norm_sq: float
    jmax: int

    @classmethod
    def from_masses(cls, masses, total_norm_sq: float | None = None) -> "AnnulusDecayTable":
        masses = np.asarray(masses, dtype=float)
        if total_norm_sq is None:
            total_norm_sq = float(masses.sum())
        return cls(masses=masses, total_norm_sq=total_norm_sq, jmax=len(masses))

    @property
    def weighted(self) -> np.ndarray:
        return (np.arange(self.jmax) + 1.0) * self.masses

    @property
    def min_weighted(self) -> float:
        return float(self.weighted.min()) if self.jmax else float("nan")

    def divergence_certificate(self, a: float) -> dict:
        """What total mass a uniform weighted lower bound a would force."""
        harmonic = float(np.sum(1.0 / (np.arange(self.jmax) + 1.0)))
        return {
            "assumed_lower_bound": a,
            "forced_mass": a * harmonic,
            "actual_mass": float(self.masses.sum()),
            "contradiction": a * harmonic > self.total_norm_sq + 1e-12,
        }

    def to_json_dict(self) -> dict:
        return {
            "masses": [float(x) for x in self.masses],
            "weighted": [float(x) for x in self.weighted],
            "min_weighted": self.min_weighted,
            "total_norm_sq": self.total_norm_sq,
            "jmax": self.jmax,
        }


def annulus_decay(alpha: np.ndarray, mesh: DiscMesh, jmax: int | None = None) -> AnnulusDecayTable:
    """Annulus energy table of a discrete (edge-dof) 1-form.

    Triangles are binned by centroid geodesic radius.  The 1-form energy
    density is conformally invariant in 2D, so the integrals are plain
    Euclidean quadrature of the Whitney interpolant at the edge midpoints.
    Each triangle's energy and bin are computed block by block (`_BLOCK`
    triangles); the table sums them over the whole mesh at once.
    """
    es = mesh.edge_structure
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (es.n_edges,):
        raise ValueError(f"alpha must have one dof per edge ({es.n_edges}), got {alpha.shape}")
    if jmax is None:
        jmax = int(np.ceil(mesh.R))
    area, g = mesh.geometry.area, mesh.geometry.grad
    nt = mesh.n_triangles
    tri_energy, bins = np.empty(nt), np.empty(nt, dtype=np.int64)
    for b in _blocks(nt):
        vals = _whitney_midpoint_major(g[:, :, b], _local_dofs(es, alpha, b))
        sq = vals[:, 0] ** 2 + vals[:, 1] ** 2  # (midpoint, triangle)
        tri_energy[b] = (area[b] / 3.0) * (sq[0] + sq[1] + sq[2])
        bins[b] = np.floor(mesh.geodesic_radius(mesh.centroids(b)))
    # annuli from jmax outward are not in the table
    masses = np.bincount(bins, weights=tri_energy, minlength=jmax)[:jmax]
    total = float(tri_energy.sum())
    return AnnulusDecayTable(masses=masses, total_norm_sq=total, jmax=jmax)
