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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from llab.hyperbolic.assembly import EdgeStructure, incidence_d1
from llab.hyperbolic.mesh import DiscMesh

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL_T = 0.5 * (_GL_NODES + 1.0)  # nodes on [0, 1]
_GL_W = 0.5 * _GL_WEIGHTS

# P1 hat values at the three edge midpoints (01, 12, 20); rows = midpoints.
# `_whitney_midpoint_major` works from the pattern of this table: 1/2 at
# the two ends of the midpoint's edge, 0 at the third corner.
_LAMBDA_MID = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])


def _theta_components(points: np.ndarray) -> np.ndarray:
    """Euclidean (a_u, a_v) of the pulled-back -dx/y at disc points.

    w = i(1+z)/(1-z), w' = 2i/(1-z)^2, y = Im w = (1-|z|^2)/|1-z|^2;
    theta = -dx/y = -(Re w' du - Im w' dv)/y.
    """
    z = points[:, 0] + 1j * points[:, 1]
    wp = 2j / (1.0 - z) ** 2
    y = (1.0 - np.abs(z) ** 2) / np.abs(1.0 - z) ** 2
    a_u = -np.real(wp) / y
    a_v = np.imag(wp) / y
    return np.column_stack([a_u, a_v])


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
    theta_at: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "expression": self.expression,
            "sup_norm": self.sup_norm,
            "omega_sign": self.omega_sign,
            "n_edges": int(len(self.edge_integrals)),
            "stokes_max": self.stokes_max,
            "stokes_rms": self.stokes_rms,
        }


def _edge_line_integrals(mesh: DiscMesh, es: EdgeStructure, comp_at) -> np.ndarray:
    """4-point Gauss-Legendre line integrals over canonical edges."""
    a = mesh.vertices[es.edges[:, 0]]
    b = mesh.vertices[es.edges[:, 1]]
    d = b - a  # tangent, canonical orientation
    total = np.zeros(es.n_edges)
    for t, w in zip(_GL_T, _GL_W):
        pts = a + t * d
        c = comp_at(pts)
        total += w * (c[:, 0] * d[:, 0] + c[:, 1] * d[:, 1])
    return total


def bounded_primitive(mesh: DiscMesh) -> PrimitiveOneForm:
    """Sample theta = -(dx/y) pulled back to the disc model onto the mesh.

    Available only for the hyperbolic metric: the Euclidean area form on a
    plane patch has primitives, but none with bounded pointwise norm, and
    none is provided.
    """
    if mesh.metric != "hyperbolic":
        raise ValueError("bounded primitive is defined for the hyperbolic metric only")
    es = mesh.edge_structure
    geo = mesh.geometry

    edge_integrals = _edge_line_integrals(mesh, es, _theta_components)

    # continuum 2-form: d theta = -mu du dv (measured sign -1 in CCW (u,v))
    sign = -1
    triangle_omega = sign * geo.area / 3.0 * geo.mu_mid.sum(axis=1)

    D1 = incidence_d1(mesh, es)
    circulation = D1 @ edge_integrals
    defect = np.abs(circulation - triangle_omega)
    scale = np.abs(triangle_omega)
    rel = defect / np.maximum(scale, np.median(scale))
    stokes_max = float(rel.max())
    stokes_rms = float(np.sqrt(np.mean(rel**2)))

    # |theta|_g should be identically 1; measure on vertices and edge
    # midpoints, one per edge (the triangles' midpoints repeat interior ones)
    v = mesh.vertices
    samples = np.vstack([v, 0.5 * (v[es.edges[:, 0]] + v[es.edges[:, 1]])])
    comp = _theta_components(samples)
    norms = np.sqrt((comp**2).sum(axis=1) / mesh.mu(samples))
    sup_norm = float(norms.max())

    return PrimitiveOneForm(
        expression="pullback of -(dx)/y under w = i(1+z)/(1-z)",
        sup_norm=sup_norm,
        omega_sign=sign,
        edge_integrals=edge_integrals,
        triangle_omega=triangle_omega,
        stokes_max=stokes_max,
        stokes_rms=stokes_rms,
        theta_at=_theta_components,
    )


# -- cutoff families -------------------------------------------------------


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
    rho_grid: np.ndarray = field(repr=False)
    f_grid: np.ndarray = field(repr=False)
    df_grid: np.ndarray = field(repr=False)
    vertex_values: np.ndarray = field(repr=False)

    def f_at(self, rho: np.ndarray) -> np.ndarray:
        s = np.maximum(0.0, np.asarray(rho, dtype=float) - self.r_plateau)
        base = np.maximum(0.0, 1.0 - 0.5 * self.eps * s)
        return base**2

    def df_at(self, rho: np.ndarray) -> np.ndarray:
        """Radial derivative f'(rho) (signed; nonpositive)."""
        rho = np.asarray(rho, dtype=float)
        s = np.maximum(0.0, rho - self.r_plateau)
        base = np.maximum(0.0, 1.0 - 0.5 * self.eps * s)
        on = (rho > self.r_plateau) & (base > 0.0)
        return np.where(on, -self.eps * base, 0.0)

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
    feasible = mesh.R > r_support

    profile = CutoffProfile(
        eps=eps,
        r_plateau=r_plateau,
        r_support=min(mesh.R, r_plateau + r_support),
        feasible=feasible,
        sup_df=0.0,
        sup_df_sq_over_f=0.0,
        rho_grid=np.zeros(0),
        f_grid=np.zeros(0),
        df_grid=np.zeros(0),
        vertex_values=np.zeros(0),
    )
    rho = np.linspace(0.0, mesh.R, 2048)
    f = profile.f_at(rho)
    df = profile.df_at(rho)
    pos = f > 0
    profile.rho_grid = rho
    profile.f_grid = f
    profile.df_grid = df
    profile.sup_df = float(np.abs(df).max())
    profile.sup_df_sq_over_f = float((df[pos] ** 2 / f[pos]).max())
    profile.vertex_values = profile.f_at(mesh.geodesic_radius(mesh.vertices))
    return profile


def _local_dofs(es: EdgeStructure, alpha: np.ndarray) -> np.ndarray:
    """(3, nt) edge dofs of each triangle in its local CCW orientation."""
    return np.ascontiguousarray((alpha[es.tri_edges] * es.tri_signs).T)


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


def _whitney_at_midpoints(mesh: DiscMesh, es: EdgeStructure, alpha: np.ndarray):
    """Whitney interpolation of edge dofs at the 3 edge midpoints per triangle.

    Returns (values (nt, 3, 2), d_alpha_uv (nt,)).
    """
    area = mesh.geometry.area
    g = np.ascontiguousarray(mesh.geometry.grads.transpose(1, 2, 0))
    d = _local_dofs(es, alpha)
    vals = np.ascontiguousarray(_whitney_midpoint_major(g, d).transpose(2, 0, 1))
    # d alpha is constant per triangle; its du^dv coefficient is the
    # circulation divided by the Euclidean area
    d_alpha_uv = (d[0] + d[1] + d[2]) / area
    return vals, d_alpha_uv


def _crossterm_fields(mesh: DiscMesh, profile: CutoffProfile):
    """The sample-independent midpoint fields of `crossterm_constant`.

    Returns (wf, wf2, pair_u, pair_v, wf_mu, wf2_mu): with w the midpoint
    quadrature weight, f the cutoff and grad f its Euclidean gradient at the
    3 edge midpoints of every triangle, the (3, nt) midpoint-major arrays
    w f, w f^2, 2 w f (d f / d u) / mu, 2 w f (d f / d v) / mu, and the
    per-triangle sums over midpoints of w f / mu and w f^2 / mu.
    """
    geo = mesh.geometry
    t = mesh.triangles.T
    x, y = mesh.vertices[:, 0][t], mesh.vertices[:, 1][t]  # (3, nt)
    nxt = [1, 2, 0]
    mid = np.column_stack([(0.5 * (x + x[nxt])).ravel(), (0.5 * (y + y[nxt])).ravel()])
    rho = mesh.geodesic_radius(mid)
    f = profile.f_at(rho).reshape(3, -1)

    # Euclidean gradient of rho: d rho/d r_eucl * radial unit vector
    r = np.hypot(mid[:, 0], mid[:, 1])
    if mesh.metric == "hyperbolic":
        drho_dr = 2.0 / (1.0 - r**2)
    else:
        drho_dr = np.ones_like(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        radial_scale = np.where(r > 0, profile.df_at(rho) * drho_dr / r, 0.0)

    w = geo.area / 3.0  # quadrature weight of each midpoint
    w_mu = w / np.ascontiguousarray(geo.mu_mid.T)
    pair = 2.0 * f * w_mu
    pair_u = pair * (radial_scale * mid[:, 0]).reshape(3, -1)
    pair_v = pair * (radial_scale * mid[:, 1]).reshape(3, -1)
    wf = w * f
    return wf, wf * f, pair_u, pair_v, (f * w_mu).sum(axis=0), (f * f * w_mu).sum(axis=0)


def crossterm_constant(
    mesh: DiscMesh,
    profile: CutoffProfile,
    n_samples: int = 8,
    seed: int = 20260302,
) -> dict:
    """Measured constants in |<d a, 2 f df ^ a>| against cutoff-weighted norms.

    For each random discrete 1-form a, evaluates the pairing by quadrature
    and reports
        C_f     = |<..>| / (eps ||f a|| ||f d a||)      (reported, no bound)
        C_sqrtf = |<..>| / (eps ||sqrt f a|| ||sqrt f d a||)  (provably <= 2)
    The sqrt-f constant is the load-bearing one: 2 f |df| <= 2 eps f <=
    2 eps sqrt(f) * sqrt(f) pointwise, then Cauchy-Schwarz.

    The midpoint fields that do not depend on a are built once; each sample
    only interpolates its edge dofs and reduces.
    """
    es = mesh.edge_structure
    rng = np.random.default_rng(seed)
    eps = profile.eps
    area = mesh.geometry.area
    wf, wf2, pair_u, pair_v, wf_mu, wf2_mu = _crossterm_fields(mesh, profile)
    g = np.ascontiguousarray(mesh.geometry.grads.transpose(1, 2, 0))

    out_cf, out_csqrt = [], []
    for _ in range(n_samples):
        d = _local_dofs(es, rng.standard_normal(es.n_edges))
        vals = _whitney_midpoint_major(g, d)
        d_uv = (d[0] + d[1] + d[2]) / area

        # <d alpha, 2 f df ^ alpha>_g dvol = (d_uv * wedge_uv / mu^2) * mu dA,
        # the weights w / mu folded into pair_u and pair_v
        wedge = np.einsum("mt,mt->t", pair_u, vals[:, 1]) - np.einsum("mt,mt->t", pair_v, vals[:, 0])
        pairing = float(d_uv @ wedge)

        alpha_sq = np.einsum("mct,mct->mt", vals, vals).ravel()  # |alpha|^2_eucl, conformally exact
        d_sq = d_uv**2
        n_fa = np.sqrt(wf2.ravel() @ alpha_sq)
        n_fda = np.sqrt(wf2_mu @ d_sq)
        n_sfa = np.sqrt(wf.ravel() @ alpha_sq)
        n_sfda = np.sqrt(wf_mu @ d_sq)

        tiny = 1e-300
        out_cf.append(abs(pairing) / (eps * n_fa * n_fda + tiny))
        out_csqrt.append(abs(pairing) / (eps * n_sfa * n_sfda + tiny))

    return {
        "eps": eps,
        "n_samples": n_samples,
        "C_f_max": float(max(out_cf)),
        "C_sqrtf_max": float(max(out_csqrt)),
        "C_sqrtf_bound": 2.0,
    }


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

    def partial_sums_consistent(self, tol: float = 1e-8) -> bool:
        return float(self.masses.sum()) <= self.total_norm_sq + tol

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
    Euclidean quadrature of the Whitney interpolant.
    """
    es = mesh.edge_structure
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (es.n_edges,):
        raise ValueError(f"alpha must have one dof per edge ({es.n_edges}), got {alpha.shape}")
    if jmax is None:
        jmax = int(np.ceil(mesh.R))
    vals, _ = _whitney_at_midpoints(mesh, es, alpha)
    tri_energy = (mesh.geometry.area / 3.0) * (vals**2).sum(axis=2).sum(axis=1)

    rho_c = mesh.geodesic_radius(mesh.centroids())
    bins = np.floor(rho_c).astype(np.int64)
    # annuli from jmax outward are not in the table
    masses = np.bincount(bins, weights=tri_energy, minlength=jmax)[:jmax]
    total = float(tri_energy.sum())
    return AnnulusDecayTable(masses=masses, total_norm_sq=total, jmax=jmax)
