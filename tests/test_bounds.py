"""Tests for the proven lower bound on lambda_1(B_R): the Crouzeix-Raviart
pencil on an enclosing polygon and the inertia gate that reads it.

The bound lambda_CR / (1 + C^2 lambda_CR) must stay below the exact
eigenvalue of every domain whose closed form is known, and rise towards it
as the mesh is refined; the polygon must contain B_R and stay in the unit
disc; and the gate must certify exactly the bounds below that value.
"""

from __future__ import annotations

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from llab.hyperbolic import bounds
from llab.hyperbolic.gap import gap_sweep
from llab.hyperbolic.mesh import DiscMesh, build_disc_mesh, square_patch
from llab.hyperbolic.oracle import lambda1_euclidean_disc, lambda1_euclidean_square


def _cr_bound(mesh: DiscMesh, polygon: DiscMesh) -> float:
    """lambda_CR / (1 + C^2 lambda_CR) of the CR pencil on polygon, which
    has mesh's triangles."""
    K, M, C2 = bounds.crouzeix_raviart_pencil(polygon, mesh.edge_structure)
    lam = spla.eigsh(K, k=1, M=M, sigma=0, which="LM")[0][0]
    return lam / (1 + C2 * lam)


def _unit_disc(R: float, h: float) -> DiscMesh:
    """A ring mesh scaled to the Euclidean unit disc, with mu = 1."""
    ring = build_disc_mesh(R, h)
    scaled = ring.vertices / math.tanh(R / 2)
    return DiscMesh(scaled, ring.triangles, ring.boundary, ring.R, ring.h, "euclidean")


def test_the_bound_on_the_unit_square_stays_below_two_pi_squared_and_rises():
    # mu = 1 and the square is its own polygon: no enlargement
    values = [_cr_bound(mesh, mesh) for mesh in map(square_patch, (8, 16, 32))]
    assert all(v <= lambda1_euclidean_square() for v in values)
    assert values[0] < values[1] < values[2]
    assert values[2] == pytest.approx(lambda1_euclidean_square(), rel=2e-3)


def test_the_bound_on_the_euclidean_unit_disc_stays_below_j01_squared():
    values = []
    for h in (0.4, 0.2):
        disc = _unit_disc(2.0, h)
        values.append(_cr_bound(disc, bounds.enclosing_mesh(disc)))
    assert all(v <= lambda1_euclidean_disc() == pytest.approx(5.7832, abs=1e-4) for v in values)
    assert values[0] < values[1]


@pytest.mark.parametrize("R", [2.0, 4.0, 6.0])
def test_the_enclosing_polygon_contains_the_ball_and_stays_in_the_unit_disc(R):
    mesh = build_disc_mesh(R, 0.4)
    polygon = bounds.enclosing_mesh(mesh)
    assert np.array_equal(polygon.triangles, mesh.triangles)
    assert np.array_equal(polygon.vertices[~mesh.boundary], mesh.vertices[~mesh.boundary])
    # the squared distance from 0 to the line of each boundary edge, in
    # exact arithmetic on the float corners
    lo, hi = mesh.edge_structure.edges[mesh.edge_structure.boundary_edge].T
    ends = [[tuple(map(Fraction, v)) for v in polygon.vertices[e]] for e in (lo, hi)]
    inradius_sq = min((p[0] * q[1] - p[1] * q[0]) ** 2 / ((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2)
                      for p, q in zip(*ends))
    assert inradius_sq >= Fraction(math.tanh(R / 2)) ** 2
    assert np.hypot(*polygon.vertices.T).max() < 1


def test_the_gate_certifies_a_bound_below_the_cr_bound_and_no_bound_above_it():
    disc = _unit_disc(2.0, 0.4)
    value = _cr_bound(disc, bounds.enclosing_mesh(disc))
    below, above = bounds.lower_bound_gate(disc, 0.999 * value), bounds.lower_bound_gate(disc, 1.001 * value)
    assert below["status"] == "certified" and below["min_pivot"] > 0
    assert above["status"].startswith("not certified: a pivot <= 0") and above["min_pivot"] <= 0
    assert below["cr_dofs"] == len(disc.edge_structure.kept) and below["lu_nnz"] > below["cr_dofs"]
    assert below["sigma_star"] == pytest.approx(0.999 * value / (1 - below["C2"] * 0.999 * value), rel=1e-15)


def test_the_gate_refuses_what_it_cannot_read(monkeypatch):
    mesh = build_disc_mesh(2.0, 0.5)
    # C^2 b >= 1: no sigma* exists, and nothing is factored
    huge = bounds.lower_bound_gate(mesh, 1e6)
    assert huge["status"].startswith("not certified: C^2 b = ") and huge["status"].endswith(">= 1")
    assert (huge["sigma_star"], huge["lu_nnz"], huge["min_pivot"]) == (None, None, None)

    def failing(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(bounds, "splu", failing)
    failed = bounds.lower_bound_gate(mesh, 0.25)
    assert failed["status"] == "not certified: splu failed (Factor is exactly singular)"
    assert failed["min_pivot"] is None

    real = spla.splu

    class Permuted:  # an LU whose row permutation is not its column one
        def __init__(self, lu):
            self.L, self.U, self.perm_c = lu.L, lu.U, lu.perm_c
            self.perm_r = np.roll(lu.perm_r, 1)

    monkeypatch.setattr(bounds, "splu", lambda *args, **kwargs: Permuted(real(*args, **kwargs)))
    permuted = bounds.lower_bound_gate(mesh, 0.25)
    assert permuted["status"] == "not certified: the permutation is not symmetric"
    assert permuted["min_pivot"] is None and permuted["lu_nnz"] > 0


def test_the_gate_releases_its_factorization_and_pencil_on_return(monkeypatch):
    # reference counting alone frees them, before the walk builds the next mesh
    refs = []
    real = spla.splu

    class Held:  # the factorization, in an object a weak reference can follow
        def __init__(self, lu):
            self.lu, self.L, self.U, self.perm_r, self.perm_c = lu, lu.L, lu.U, lu.perm_r, lu.perm_c

    def recording(S, **kwargs):
        held = Held(real(S, **kwargs))
        refs.extend([weakref.ref(S), weakref.ref(held)])
        return held

    monkeypatch.setattr(bounds, "splu", recording)
    gc.disable()
    try:
        assert bounds.lower_bound_gate(build_disc_mesh(2.0, 0.5), 0.25)["status"] == "certified"
        assert len(refs) == 2 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_a_mesh_that_does_not_certify_passes_the_gate_to_the_next_finer_one():
    # R = 6 at h = 1.2 is the negative control: its bound, 0.225, is below
    # 1/4; the walk goes on to h = 0.6, which certifies it
    gate = gap_sweep(R_values=(6.0,), h_values=(1.2, 0.6), k=0)["lower_bound"][6.0]
    assert gate["certified"] and gate["bound"] == 0.25
    coarse, fine = gate["meshes"]
    assert (coarse["h"], fine["h"]) == (1.2, 0.6)
    assert coarse["status"] == "not certified: a pivot <= 0 (smallest -5.53)"
    assert fine["status"] == "certified" and fine["min_pivot"] > 0


def test_the_benchmark_sweep_certifies_each_R_on_its_coarsest_mesh():
    # at R = 2, 4 and 6 the walk starts at h = 0.2, 0.4 and 0.8, and the
    # first mesh certifies; no finer mesh is tried
    lower = gap_sweep(R_values=(2.0, 4.0, 6.0), h_values=(0.2,), k=0)["lower_bound"]
    assert {R: [(m["h"], m["cr_dofs"]) for m in gate["meshes"]] for R, gate in lower.items()} == {
        2.0: [(0.2, 1248)], 4.0: [(0.4, 2925)], 6.0: [(0.8, 5805)]}
    for gate in lower.values():
        (record,) = gate["meshes"]
        assert gate["certified"] and record["C2"] * 0.25 < 1
        assert record["sigma_star"] == pytest.approx(0.25 / (1 - record["C2"] * 0.25), rel=1e-15)
