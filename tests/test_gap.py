"""Tests for the derived spectral-gap constant and its certification.

The surface case has an exact value: c = 1/4 at (n, k) = (1, 0), which is
sharp against the bottom of the spectrum of the hyperbolic plane.  Higher
cases are pinned as regression decimals and re-derived in-test from the
factorial ladder, an independent expansion of the same closed form.
"""

from __future__ import annotations

import importlib
import itertools
import math

import numpy as np
import pytest

from llab.hyperbolic.gap import (
    dirichlet_lambda1,
    gap_sweep,
    gromov_bound,
    gromov_bound_report,
)
from llab.hyperbolic.mesh import build_disc_mesh
from llab.hyperbolic.oracle import SHOOTING_LAMBDA1


def _sigma_max_sq(n: int, j: int, i: int) -> int:
    """max_r (j+r)!/r! * (n-i+r)!/(n-i+r-j)! over the admissible levels
    r of Lambda^i = sum_s L^s P^{i-2s}; increasing in r, so the top level
    r = i//2 ... enumerated directly for safety."""
    best = 0
    for r in range(0, i // 2 + 1):
        p = i - 2 * r  # primitive degree at this level
        if p < 0 or p > n or n - p - r < j + 0:
            # L^j must stay inside the algebra: needs r + j <= n - p
            continue
        val = (
            math.factorial(j + r)
            // math.factorial(r)
            * math.factorial(n - i + r)
            // math.factorial(n - i + r - j)
        )
        best = max(best, val)
    return best


def _constant_from_ladder(n: int, k: int) -> float:
    """Re-derive the constant from the factorial ladder, independently of
    the implementation's Fraction pipeline.

    The numerator is sigma_min^2 = (m!)^2: the r = 0 ladder entry of
    L^m on degree kk is m! * m!/0! = (m!)^2, and the ladder increases
    in r, so the closed-form minimum singular value is m!.
    """
    kk = min(k, 2 * n - k)
    m = n - kk
    sigma_min = float(math.factorial(m))
    B = math.sqrt(_sigma_max_sq(n, m, kk))
    F1a = math.sqrt(_sigma_max_sq(n, m, kk - 1)) if kk >= 1 else 0.0
    F2 = math.sqrt(_sigma_max_sq(n, m - 1, kk + 1)) if m >= 1 else 0.0
    F_eta = math.sqrt(_sigma_max_sq(n, m - 1, kk)) if m >= 1 else 0.0
    denom = (F1a + m * F2) * F_eta + B * F2
    return (sigma_min**2 / denom) ** 2


def test_surface_constant_exact():
    # n = 1, k = 0: c = 1/4, exactly representable and sharp against the
    # L^2 spectrum bottom of the hyperbolic plane
    assert gromov_bound(1, 0) == 0.25
    assert gromov_bound(1, 2) == 0.25  # dual degree
    assert gromov_bound(1, 0, theta_sup=2.0) == 0.25 / 4.0


def test_pinned_constants_n2():
    assert gromov_bound(2, 1) == pytest.approx(0.08578643762690495, rel=1e-12)
    assert gromov_bound(2, 0) == pytest.approx(0.6862915010152397, rel=1e-12)


def test_constants_match_independent_ladder():
    for n, k in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
        assert gromov_bound(n, k) == pytest.approx(_constant_from_ladder(n, k), rel=1e-12)


def test_duality_in_degree():
    for n in (1, 2, 3):
        for k in range(0, n):
            assert gromov_bound(n, k) == gromov_bound(n, 2 * n - k)


def test_theta_scaling():
    for s in (0.5, 1.0, 3.0):
        assert gromov_bound(2, 1, theta_sup=s) == pytest.approx(
            gromov_bound(2, 1) / s**2, rel=1e-14
        )


def test_middle_degree_refused():
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="middle degree"):
            gromov_bound(n, n)


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        gromov_bound(2, 5)
    with pytest.raises(ValueError):
        gromov_bound(2, -1)


def test_report_certifies_every_link():
    rep = gromov_bound_report(2, 1)
    assert rep["checks_pass"]
    assert rep["constant"] == pytest.approx(gromov_bound(2, 1), rel=1e-15)
    assert rep["bound"] == rep["constant"]  # theta_sup = 1
    checks = rep["checks"]
    assert max(checks["sigma_svd_max_rel_dev"].values()) < 1e-10
    idents = checks["operator_identities"]
    for name in (
        "commutation_d_star_Lm",
        "d_lambda_star_is_conjugated_d",
        "laplacian_dc_equals_laplacian_d",
        "wedge_anticommutator_is_norm_sq",
    ):
        assert idents[name] < 1e-10, name
    # the closed-form minimum singular value is m! on the nose
    f = rep["factors"]
    assert f["sigma_min"] == f["sigma_min_closed_form"]


def test_report_surface_case():
    rep = gromov_bound_report(1, 0, theta_sup=1.0)
    assert rep["checks_pass"]
    assert rep["constant"] == 0.25
    assert rep["factors"]["sigma_min"] == 1.0


@pytest.mark.parametrize("module, function, old, new, broken", [
    ("llab.hyperbolic.gap", "_operator_identity_residuals", "- m * (", "+ m * (", "commutation_d_star_Lm"),
    # d^c = W d W without the sign that makes the first W its inverse
    ("llab.torus", "FourierComplex.block", "(-1) ** (k + 1) * t.jpull(k + 1)", "t.jpull(k + 1)",
     "d_lambda_star_is_conjugated_d"),
    ("llab.torus", "_adjoint_stack", "-_gram_inverse(fc, k) @ B.conj().transpose(0, 2, 1) @ fc.triple.gram(k_to)",
     "-B.conj().transpose(0, 2, 1)", "laplacian_dc_equals_laplacian_d"),
], ids=["sign of m flipped", "W for W^-1", "metric-blind adjoint"])
def test_a_broken_operator_identity_fails_loudly(mutant, module, function, old, new, broken):
    mutant(importlib.import_module(module), function, old, new)
    for n, k in ((1, 0), (2, 1)):
        rep = gromov_bound_report(n, k)
        idents = rep["checks"]["operator_identities"]
        assert idents[broken] > 1e-3, (n, k, idents)
        assert not rep["checks_pass"], (n, k)


def test_a_scaled_wedge_fails_only_the_weitzenbock_link(mutant):
    # e^j ^ scaled by 1.01 keeps every identity that is linear in d, and
    # both sides of Delta_{d^c} = Delta_d; only |theta ^ a| <= |theta||a| breaks
    import llab.torus as torus

    mutant(torus, "FourierComplex.block", "A[p.left, p.target, p.right] = p.sign",
           "A[p.left, p.target, p.right] = 1.01 * p.sign")
    for n, k in ((1, 0), (2, 1)):
        rep = gromov_bound_report(n, k)
        idents = rep["checks"]["operator_identities"]
        assert idents.pop("wedge_anticommutator_is_norm_sq") > 1e-3, (n, k)
        assert all(v < 1e-10 for name, v in idents.items() if name != "arena_n"), (n, k, idents)
        assert not rep["checks_pass"], (n, k)


# ---------------------------------------------------------------------------
# FEM integration
# ---------------------------------------------------------------------------


def test_dirichlet_lambda1_k0(small_mesh):
    res = dirichlet_lambda1(small_mesh, k=0)
    assert res.k == 0
    assert res.eigenvalue == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=3e-2)
    assert res.eigenvalue > gromov_bound(1, 0)
    assert res.residual < res.rel_tol * res.eigenvalue


def test_dirichlet_lambda1_k1_no_bound(small_mesh):
    res = dirichlet_lambda1(small_mesh, k=1)
    # no result carries a bound: the sweep's per-R gate holds the k = 0 one,
    # and the middle degree of the surface has none
    assert not hasattr(res, "derived_bound")
    assert res.eigenvalue > 0


def test_dirichlet_lambda1_k1_matches_dense_eigh_and_repeats():
    # k = 1 starts from the edge integrals of (1 + x) dy and stops on its
    # residual alone: the eigenvalue is the pencil's smallest, and a second
    # call repeats the first bit for bit
    import scipy.linalg as sla

    from llab.hyperbolic.assembly import assemble_hodge_laplacian

    mesh = build_disc_mesh(2.0, 0.4)
    A, M = assemble_hodge_laplacian(mesh, 1)
    exact = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
    first, again = dirichlet_lambda1(mesh, 1), dirichlet_lambda1(mesh, 1)
    assert first.solver == "lu" and first.iterations > 0
    assert first.eigenvalue == pytest.approx(exact, rel=1e-10)
    assert first.residual < first.rel_tol * first.eigenvalue
    assert first == again


def test_dirichlet_lambda1_k0_starts_from_the_constant_vector():
    # the constant vector leans on the positive ground state: at R = 6,
    # h = 0.2 (28,465 dofs) LOBPCG on the mesh's own LU meets the residual
    # in 19 steps from a random start and in 9 from this one
    result = dirichlet_lambda1(build_disc_mesh(6.0, 0.2), 0)
    assert result.iterations <= 9
    assert result.residual < result.rel_tol * result.eigenvalue


def _count_factorizations(monkeypatch) -> list:
    """The dimension of every matrix `eigensolve` hands to splu, in order."""
    from llab.hyperbolic import eigensolve

    factored = []
    real_splu = eigensolve.spla.splu

    def counting_splu(*args, **kwargs):
        factored.append(args[0].shape[0])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(eigensolve.spla, "splu", counting_splu)
    return factored


def test_gap_sweep_solves_the_finer_mesh_on_the_coarser_lu(monkeypatch):
    factored = _count_factorizations(monkeypatch)
    out = gap_sweep(R_values=(4.0,), h_values=(0.2, 0.1), k=0)
    coarse, fine = out["rows"]
    # one factorization per R, of the h = 0.4 mesh added below the sweep
    # (833 dofs, 1,262 predicted vertices): both rows are solved by LOBPCG
    # with the V-cycle down to it
    assert factored == [833] == [len(build_disc_mesh(4.0, 0.4).interior)]
    assert (coarse["solver"], fine["solver"]) == ("multigrid", "multigrid")
    # each solve stops on its residual within rel_tol
    for row in out["rows"]:
        lam = row["lambda1"]
        assert row["residual"] < 1e-8 * lam
        alone = dirichlet_lambda1(build_disc_mesh(4.0, row["h"]), 0)
        assert lam == pytest.approx(alone.eigenvalue, rel=1e-12)


def _recording_multigrid(monkeypatch, broken=None) -> tuple[list, list]:
    """The V-cycles `gap` makes: the dimensions of each one's levels, finest
    first, with its bottom's last, and the preconditioners themselves;
    broken, when given, is made in place of each one."""
    from llab.hyperbolic import gap

    real = gap.multigrid_preconditioner
    made, cycles = [], []

    def recording(levels, bottom_lu):
        levels = list(levels)
        made.append([level.A.shape[0] for level in levels] + [bottom_lu.shape[0]])
        cycles.append(real(levels, bottom_lu) if broken is None else broken)
        return cycles[-1]

    monkeypatch.setattr(gap, "multigrid_preconditioner", recording)
    return made, cycles


@pytest.mark.parametrize("broken", ["zero preconditioner", "step cap of 1"])
def test_a_failed_multigrid_solve_falls_back_to_its_own_lu(monkeypatch, broken):
    from llab.hyperbolic import gap

    real_solve = gap.smallest_eigenpairs
    made, cycles = _recording_multigrid(monkeypatch, np.zeros_like if broken == "zero preconditioner" else None)

    def capped(A, M, precondition, *args, **kwargs):
        if broken == "step cap of 1" and any(precondition is T for T in cycles):
            kwargs["maxiter"] = 1
        return real_solve(A, M, precondition, *args, **kwargs)

    monkeypatch.setattr(gap, "smallest_eigenpairs", capped)
    factored = _count_factorizations(monkeypatch)
    out = gap_sweep(R_values=(4.0,), h_values=(0.2, 0.1), k=0)
    coarse, fine = out["rows"]
    # both rows tried the V-cycle, down to the h = 0.4 bottom, then took the
    # LU path: the bottom's factorization, then one more per row, its own,
    # and the same solve, from the same start, preconditioned with it
    assert made == [[3718, 833], [15687, 3718, 833]]
    assert factored == [833, coarse["n_dofs"], fine["n_dofs"]]
    assert (coarse["solver"], fine["solver"]) == ("lu", "lu")
    alone = dirichlet_lambda1(build_disc_mesh(4.0, 0.2), 0)  # from the constant vector, as the first row
    assert (coarse["lambda1"], coarse["iterations"]) == (alone.eigenvalue, alone.iterations)
    alone = dirichlet_lambda1(out["finest_mesh"], 0)
    assert fine["lambda1"] == pytest.approx(alone.eigenvalue, rel=1e-12)


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
def test_the_proof_precheck_never_delays_the_two_grid_stop(mutant, small_mesh, rel_tol):
    # the stop rule is checked first on the carried products and proven
    # only then on A x and M x recomputed from x; on one level, the V-cycle
    # is the two-grid cycle
    import scipy.sparse.linalg as spla

    from llab.hyperbolic import eigensolve
    from llab.hyperbolic.assembly import assemble_hodge_laplacian
    from llab.hyperbolic.mesh import ring_prolongation

    coarse = build_disc_mesh(2.0, 0.5)
    A, M = assemble_hodge_laplacian(small_mesh, 0)
    T = eigensolve.multigrid_preconditioner(
        [eigensolve.grid_level(A, ring_prolongation(coarse, small_mesh))],
        spla.splu(assemble_hodge_laplacian(coarse, 0)[0].tocsc()))
    start = np.ones(A.shape[0])
    steps = eigensolve.smallest_eigenpairs(A, M, T, start, rel_tol)[2]
    # the same solve with the products recomputed at every step stops at that step
    mutant(eigensolve, "smallest_eigenpairs", "if res < rel_tol * lam:  # the carried", "if True:  # the carried")
    assert eigensolve.smallest_eigenpairs(A, M, T, start, rel_tol)[2] == steps


def test_the_two_grid_rows_keep_their_solver_and_step_count():
    # both rows of R = 4 take the V-cycle down to the h = 0.4 bottom: the
    # first from the constant vector, the second from the first's ground
    # state through the h = 0.2 level the first row left in the chain
    out = gap_sweep(R_values=(4.0,), h_values=(0.2, 0.1), k=0)
    assert [(row["solver"], row["iterations"]) for row in out["rows"]] == [("multigrid", 10), ("multigrid", 8)]


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
def test_lobpcg_certifies_the_x_it_returns(rel_tol):
    # the carried products drift from A x and M x by rounding, so the stop
    # rule is checked again on products recomputed from x: x as returned
    # meets the residual certificate it reports
    import scipy.sparse.linalg as spla

    from llab.hyperbolic import eigensolve
    from llab.hyperbolic.assembly import assemble_hodge_laplacian
    from llab.hyperbolic.mesh import ring_prolongation

    coarse, fine = build_disc_mesh(4.0, 0.2), build_disc_mesh(4.0, 0.1)
    Ac, Mc = assemble_hodge_laplacian(coarse, 0)
    A, M = assemble_hodge_laplacian(fine, 0)
    P = ring_prolongation(coarse, fine)
    lu = spla.splu(Ac.tocsc())
    start = P @ eigensolve.smallest_eigenpairs(Ac, Mc, lu.solve, np.ones(Ac.shape[0]))[1]
    lam, x, _, res = eigensolve.smallest_eigenpairs(
        A, M, eigensolve.multigrid_preconditioner([eigensolve.grid_level(A, P)], lu), start, rel_tol)
    assert res == np.linalg.norm(A @ x - lam * (M @ x)) / np.linalg.norm(x)
    assert res < rel_tol * lam


@pytest.mark.parametrize("h_values, solvers", [
    # each row's solver and the dimensions of its V-cycle's levels, finest
    # first, with the bottom's last, from the coarsest row to the finest
    ((0.4, 0.2, 0.1), [("lu", [833]), ("multigrid", [3718, 833]), ("multigrid", [15687, 3718, 833])]),
    ((0.2, 0.1), [("multigrid", [3718, 833]), ("multigrid", [15687, 3718, 833])]),
])
def test_gap_sweep_takes_no_finer_mesh_as_the_coarse_grid(monkeypatch, h_values, solvers):
    # every ordering of h solves each row as the descending sweep does, bit
    # for bit, through the meshes coarser than it only, down to the LU of the
    # h = 0.4 mesh, on the sweep or below it; rows come in the caller's order
    factored = _count_factorizations(monkeypatch)
    made = _recording_multigrid(monkeypatch)[0]
    descending = gap_sweep(R_values=(4.0,), h_values=h_values, k=0)["rows"]
    assert [row["solver"] for row in descending] == [solver for solver, _ in solvers]
    for order in itertools.permutations(h_values):
        del made[:], factored[:]
        rows = gap_sweep(R_values=(4.0,), h_values=order, k=0)["rows"]
        assert [row["h"] for row in rows] == list(order)
        by_h = {row["h"]: row for row in rows}
        assert [by_h[row["h"]] for row in descending] == descending
        assert made == [cycle for _, cycle in solvers]
        assert factored == [833]
    for row in descending:
        # a row on the bottom is solved as it would be alone
        if row["solver"] == "lu":
            alone = dirichlet_lambda1(build_disc_mesh(4.0, row["h"]), 0)
            assert (row["lambda1"], row["iterations"]) == (alone.eigenvalue, alone.iterations)


def test_a_k0_row_is_the_positive_ground_state_of_its_pencil(monkeypatch):
    # the rows stop on their residual alone: each x is still the positive
    # ground state, and its lambda the smallest eigenvalue of a dense solve
    import scipy.linalg as sla

    from llab.hyperbolic import gap

    solved = []

    def recording(k, A, M, *args):
        result, x = real(k, A, M, *args)
        solved.append((A, M, result, x))
        return result, x

    real = gap._solved
    monkeypatch.setattr(gap, "_solved", recording)
    gap_sweep(R_values=(2.0,), h_values=(0.5, 0.4), k=0)
    assert [result.solver for *_, result, _ in solved] == ["lu", "multigrid"]
    for A, M, result, x in solved:
        assert np.all(x > 0)
        exact = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
        assert result.eigenvalue == pytest.approx(exact, rel=1e-10)


def test_gap_sweep_proves_every_k0_row_within_rel_tol():
    # every k = 0 solve stops only on its residual within rel_tol, whatever
    # its preconditioner: the bottom of each R too, not only the finer
    # meshes; and R's lower bound is proven on its coarsest mesh
    out = gap_sweep(R_values=(2.0,), h_values=(0.3, 0.25), k=0, rel_tol=1e-8)
    assert [row["solver"] for row in out["rows"]] == ["lu", "multigrid"]
    for row in out["rows"]:
        assert row["residual"] < 1e-8 * row["lambda1"]
    gate = out["lower_bound"][2.0]
    assert gate["certified"] and [m["h"] for m in gate["meshes"]] == [0.3]


def test_gap_sweep_k1_carries_no_ground_state_bound(monkeypatch):
    made = _recording_multigrid(monkeypatch)[0]
    out = gap_sweep(R_values=(2.0,), h_values=(0.5, 0.4), k=1)
    assert out["lower_bound"] == {}
    # k = 1 builds no chain: every row is preconditioned with its own LU
    assert [row["solver"] for row in out["rows"]] == ["lu", "lu"]
    assert made == []


@pytest.mark.parametrize("R, bottom, above", [(2.0, 0.2, []), (4.0, 0.4, []), (6.0, 0.8, [0.4])])
def test_the_benchmark_sweep_extends_each_R_below_its_coarsest_h(R, bottom, above):
    # h = 0.2 doubles until a mesh has at most 3,000 predicted vertices:
    # 493 at R = 2 (no extra mesh), 4,575 then 1,262 at R = 4, and 34,802,
    # 9,573, then 2,992 at R = 6; R's hierarchy, coarse to fine, runs from
    # the bottom through the meshes above it to the sweep's h = 0.2
    from llab.hyperbolic.gap import _BOTTOM_VERTICES, _coarser_meshes
    from llab.hyperbolic.mesh import predicted_vertex_count

    below = _coarser_meshes(R, 0.2)
    assert [mesh.R for mesh in below] == [R] * len(below)
    hierarchy = [mesh.h for mesh in below] + [0.2]
    assert hierarchy[0] == bottom and hierarchy[1:-1] == above
    assert predicted_vertex_count(R, bottom) <= _BOTTOM_VERTICES
    assert all(predicted_vertex_count(R, h) > _BOTTOM_VERTICES for h in hierarchy[1:])


def test_no_chain_only_mesh_has_its_mass_assembled(monkeypatch):
    # the h = 0.4 mesh below the R = 4 sweep only preconditions: its stiffness
    # matrix is assembled alone, the same bits the full pencil would give,
    # and the mass, its mu and its pattern are made for the two rows only
    from llab.hyperbolic import assembly, gap

    assembled = {"pencil": [], "stiffness": [], "mass": 0}
    for name, key in (("assemble_hodge_laplacian", "pencil"), ("stiffness_p1", "stiffness")):
        def recording(mesh, *args, _real=getattr(gap, name), _key=key):
            assembled[_key].append(mesh.h)
            return _real(mesh, *args)

        monkeypatch.setattr(gap, name, recording)
    real_mass = assembly._mass_local

    def mass(geo):
        assembled["mass"] += 1
        return real_mass(geo)

    monkeypatch.setattr(assembly, "_mass_local", mass)
    gap_sweep(R_values=(4.0,), h_values=(0.2, 0.1), k=0)
    assert assembled == {"pencil": [0.2, 0.1], "stiffness": [0.4], "mass": 2}
    mesh = build_disc_mesh(4.0, 0.4)
    A, pencil_A = assembly.stiffness_p1(mesh, mesh.interior), assembly.assemble_hodge_laplacian(mesh, 0)[0]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(pencil_A, name))


def test_a_doubled_mesh_that_fails_its_quality_check_ends_the_chain(monkeypatch):
    from llab.hyperbolic import mesh

    tried = []
    real_build = mesh.build_disc_mesh

    def recording(R, h):
        try:
            m = real_build(R, h)
        except ArithmeticError:
            tried.append((R, h, "fails"))
            raise
        tried.append((R, h, m.n_vertices))
        return m

    monkeypatch.setattr(mesh, "build_disc_mesh", recording)
    factored = _count_factorizations(monkeypatch)
    out = gap_sweep(R_values=(7.0,), h_values=(0.8, 0.4), k=0)
    # h = 0.8 has more vertices than a bottom may, but the doubled h = 1.6
    # mesh fails its quality check (min angle 10.1 deg): the run goes on,
    # with the h = 0.8 row as the bottom, on its own LU
    assert tried[:2] == [(7.0, 1.6, "fails"), (7.0, 0.8, 7957)]
    assert [(R, h) for R, h, _ in tried[2:]] == [(7.0, 0.4)]
    coarse, fine = out["rows"]
    assert (coarse["solver"], fine["solver"]) == ("lu", "multigrid")
    assert factored == [coarse["n_dofs"]]


def test_a_sweeps_chain_dies_with_it_without_the_cyclic_collector(monkeypatch):
    # the V-cycle and the generator that walks R's ring meshes hold their
    # levels and nothing holds them, so reference counting alone frees a
    # hierarchy, its LU too, before the next R meshes and every level once
    # the sweep returns
    import gc
    import weakref

    from llab.hyperbolic import gap

    real_states, real_multigrid = gap._ring_ground_states, gap.multigrid_preconditioner
    refs = []

    def ground_states(*args):
        assert all(ref() is None for ref in refs)  # the last R's hierarchy is gone
        made = real_states(*args)
        refs.append(weakref.ref(made))
        yield from made

    def multigrid(levels, bottom_lu):
        levels = list(levels)
        refs.extend(weakref.ref(array) for level in levels for array in level)
        T = real_multigrid(levels, bottom_lu)
        refs.append(weakref.ref(T))
        return T

    monkeypatch.setattr(gap, "_ring_ground_states", ground_states)
    monkeypatch.setattr(gap, "multigrid_preconditioner", multigrid)
    gc.disable()
    try:
        out = gap_sweep(R_values=(2.0, 4.0), h_values=(0.2, 0.1), k=0)
        assert [row["solver"] for row in out["rows"]] == ["lu", "multigrid", "multigrid", "multigrid"]
        # two hierarchies, and four V-cycles of 0, 1, 1 and 2 levels of 4 arrays each
        assert len(refs) == 2 + (0 + 1) + (4 + 1) + (4 + 1) + (8 + 1)
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("R_values, h_values, repeated", [
    ((2.0,), (0.4, 0.4), "h value 0.4"),
    ((2.0, 2.0), (0.4, 0.2), "R value 2.0"),
])
def test_gap_sweep_rejects_a_repeated_R_or_h_before_meshing(monkeypatch, R_values, h_values, repeated):
    from llab.hyperbolic import mesh

    def no_mesh(R, h):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(mesh, "build_disc_mesh", no_mesh)
    with pytest.raises(ValueError, match=f"repeated {repeated}"):
        gap_sweep(R_values=R_values, h_values=h_values)


@pytest.mark.parametrize("R, h, named", [
    ("6", "1e-9,0.1", "R=6.0, h=1e-09 needs at least 36000000001 vertices (budget 2000000)"),
    ("6", "0.1,1e-9", "R=6.0, h=1e-09 needs at least 36000000001 vertices (budget 2000000)"),
    ("2,6", "0.2,0.01", "R=6.0, h=0.01 needs at least"),
    ("2,13", "0.2,0.1", "R=13.0 exceeds supported radius 12.0"),
    ("2,4", "0.2,3", "need 0 < h < R, got h=3.0, R=2.0"),
], ids=["fine h first", "fine h last", "over budget at the second R", "R over R_MAX", "h over R"])
def test_an_unmeshable_R_h_pair_exits_two_before_any_mesh_is_built(monkeypatch, capsys, R, h, named):
    # every (R, h) pair is checked before the first row is meshed, so no
    # order of --R or --h solves the coarser rows first
    from llab.cli import main
    from llab.hyperbolic import mesh

    def no_mesh(R, h):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(mesh, "build_disc_mesh", no_mesh)
    assert main(["hyperbolic", "--R", R, "--h", h]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("eps", [2.0, 1.5, 0.0, -0.6, float("nan"), float("inf")])
def test_hyperbolic_suite_rejects_an_eps_outside_0_1_before_meshing(monkeypatch, eps):
    # cutoff_family refuses such an eps too, but only once the sweep has
    # meshed and solved every row
    from llab.hyperbolic import mesh
    from llab.suites import hyperbolic_suite

    built = []
    real_build = mesh.build_disc_mesh

    def counting_build(R, h):
        built.append((R, h))
        return real_build(R, h)

    monkeypatch.setattr(mesh, "build_disc_mesh", counting_build)
    with pytest.raises(ValueError, match="eps must lie in"):
        hyperbolic_suite(R_values=(4.0,), h_values=(0.2, 0.1), eps=eps)
    assert built == []


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1.0, float("nan"), float("inf")])
def test_gap_sweep_rejects_a_rel_tol_outside_0_1_before_meshing(monkeypatch, rel_tol):
    from llab.hyperbolic import mesh

    def no_mesh(R, h):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(mesh, "build_disc_mesh", no_mesh)
    with pytest.raises(ValueError, match="rel_tol"):
        gap_sweep(R_values=(2.0,), h_values=(0.5,), rel_tol=rel_tol)


def test_gap_sweep_small():
    out = gap_sweep(R_values=(2.0,), h_values=(0.3, 0.2), k=0)
    assert out["k"] == 0
    assert len(out["rows"]) == 2
    for row in out["rows"]:
        assert row["lambda1"] >= 0.25
        assert "derived_bound" not in row
        assert row["residual"] < 1e-8 * row["lambda1"]
        assert row["oracle"] == SHOOTING_LAMBDA1[2.0]
    # the bound the rows are checked against is the gate's, one per R
    assert out["lower_bound"][2.0]["bound"] == 0.25
    ext = out["extrapolation"][2.0]
    assert ext["order"] == 2.0 and not ext["order_measured"]
    assert ext["oracle"] == pytest.approx(SHOOTING_LAMBDA1[2.0], rel=1e-12)
    assert ext["rel_err_vs_oracle"] < 0.01


@pytest.mark.parametrize("k", [0, 1])
def test_hyperbolic_suite_builds_each_mesh_and_edge_complex_once(monkeypatch, k):
    from llab.hyperbolic import assembly, mesh
    from llab.suites import hyperbolic_suite

    built, edged, midpoints = [], [], []
    real_build, real_edges = mesh.build_disc_mesh, assembly.edge_structure
    real_midpoints = mesh.DiscMesh.edge_midpoints

    def counting_build(R, h):
        built.append((R, h))
        return real_build(R, h)

    def counting_edges(m):
        edged.append((m.R, m.h))
        return real_edges(m)

    def counting_midpoints(m):
        midpoints.append((m.R, m.h))
        return real_midpoints(m)

    monkeypatch.setattr(mesh, "build_disc_mesh", counting_build)
    monkeypatch.setattr(assembly, "edge_structure", counting_edges)
    monkeypatch.setattr(mesh.DiscMesh, "edge_midpoints", counting_midpoints)
    hyperbolic_suite(R_values=(2.0, 3.0), h_values=(0.4, 0.3), k=k)
    grid = [(R, h) for R in (2.0, 3.0) for h in (0.4, 0.3)]
    assert built == grid
    # both degrees assemble on the edge complex of every mesh (k = 0 sums
    # its P1 matrices per edge), and the forms reuse the finest one
    assert edged == grid
    # each row mesh's mass reads mu, which builds its edge midpoints and
    # lets them go; after the sweep, the form checks of the finest mesh
    # share one more build
    assert midpoints == grid + [(3.0, 0.3)]


@pytest.mark.parametrize("k", [0, 1])
def test_hyperbolic_suite_draws_only_from_its_fixed_seeds(monkeypatch, k):
    # no seed reaches the suite: numpy's generator raises on any seed but
    # the derivation's arena triple, at either degree; the eigensolver
    # draws no start
    from llab.hyperbolic import gap
    from llab.suites import hyperbolic_suite

    fixed = {gap._ARENA_SEED}
    real, seeds = np.random.default_rng, []

    def fixed_only(seed=None):
        seeds.append(seed)
        if seed not in fixed:
            raise AssertionError(f"hyperbolic suite drew with seed {seed!r}")
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", fixed_only)
    assert hyperbolic_suite(R_values=(2.0,), h_values=(0.4, 0.3), k=k)["passed"]
    assert set(seeds) == fixed


def test_every_rel_tol_default_is_the_eigensolvers():
    # hyperbolic_suite states it as a literal, since llab.suites loads no
    # scipy; this pins it to the one default
    import inspect

    from llab.hyperbolic.eigensolve import DEFAULT_REL_TOL, smallest_eigenpairs
    from llab.hyperbolic.gap import dirichlet_lambda1, gap_sweep
    from llab.suites import hyperbolic_suite

    for f in (smallest_eigenpairs, dirichlet_lambda1, gap_sweep, hyperbolic_suite):
        assert inspect.signature(f).parameters["rel_tol"].default == DEFAULT_REL_TOL, f.__name__
