import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

from ldglayer import solver
from ldglayer.basis import PiecewisePoly, gauss_quadrature
from ldglayer.cases import boundary_layer_case
from ldglayer.errors import error_record
from ldglayer.meshes import MeshKind, MeshSpec, build_mesh, uniform_mesh
from ldglayer.solver import Problem, assemble, solve, solve_ldg

from conftest import solve_and_measure
from oracles import (bilinear_form, energy_norm, flux_table, l2, polynomial_case,
                     refined_solution, zero_poly)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def unit_problem(eps, f, b_sign=1.0):
    b = (lambda x: b_sign * _ones(x))
    return Problem(a=_ones, b=b, bprime=_zeros, c=_ones, f=f,
                   eps=eps, alpha=1.0, gamma=1.0)


# -- numerical fluxes ------------------------------------------------------

def make_random_solution(mesh, k, seed=0):
    rng = np.random.default_rng(seed)
    from ldglayer.solver import LdgSolution
    return LdgSolution(
        U=PiecewisePoly(mesh, k, rng.standard_normal((mesh.n_elements, k + 1))),
        P=PiecewisePoly(mesh, k, rng.standard_normal((mesh.n_elements, k + 1))),
        Q=PiecewisePoly(mesh, k, rng.standard_normal((mesh.n_elements, k + 1))))


def solution_fluxes(w, problem):
    """``flux_table`` of the solution triple: (Uhat, Phat, Qhat, Ptilde, bU),
    each indexed by node j = 0..N."""
    return flux_table(problem, w.U.mesh,
                      *((v.trace_minus_all(), v.trace_plus_all())
                        for v in (w.U, w.P, w.Q)))


def test_flux_upwind_positive_b():
    mesh = uniform_mesh(4)
    w = make_random_solution(mesh, 2)
    problem = unit_problem(0.1, _zeros, b_sign=1.0)
    uhat, phat, qhat, ptilde, bu = solution_fluxes(w, problem)
    for j in (1, 2, 3):
        assert bu[j] == pytest.approx(w.U.trace_minus_all()[j - 1], rel=1e-14)
        assert uhat[j] == pytest.approx(w.U.trace_minus_all()[j - 1], rel=1e-14)
        assert phat[j] == pytest.approx(w.P.trace_plus_all()[j], rel=1e-14)
        assert qhat[j] == pytest.approx(w.Q.trace_plus_all()[j], rel=1e-14)
        assert ptilde[j] == phat[j]


def test_flux_upwind_negative_b():
    mesh = uniform_mesh(4)
    w = make_random_solution(mesh, 2)
    problem = unit_problem(0.1, _zeros, b_sign=-1.0)
    bu = solution_fluxes(w, problem)[4]
    for j in (1, 2, 3):
        assert bu[j] == pytest.approx(-w.U.trace_plus_all()[j], rel=1e-14)


def test_flux_boundaries():
    mesh = uniform_mesh(4)
    w = make_random_solution(mesh, 1, seed=3)
    problem = unit_problem(0.1, _zeros)
    uhat, phat, qhat, ptilde, bu = solution_fluxes(w, problem)
    assert uhat[0] == 0.0
    assert phat[0] == pytest.approx(w.P.trace_plus_all()[0], rel=1e-14)
    assert qhat[0] == pytest.approx(w.Q.trace_plus_all()[0], rel=1e-14)
    assert bu[0] == 0.0  # (b - |b|)/2 vanishes for b = 1
    assert uhat[4] == 0.0
    assert phat[4] == 0.0
    assert qhat[4] == pytest.approx(w.Q.trace_minus_all()[-1], rel=1e-14)
    assert ptilde[4] == pytest.approx(w.P.trace_minus_all()[-1], rel=1e-14)


# -- assembly --------------------------------------------------------------

def test_zero_forcing_gives_zero_rhs():
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 8, 1e-2, 2.5))
    system = assemble(unit_problem(1e-2, _zeros), mesh, 2)
    assert np.all(system.rhs == 0.0)


def test_block_tridiagonal_sparsity():
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 16, 1e-4, 2.5))
    k = 2
    system = assemble(boundary_layer_case(1e-4).problem, mesh, k)
    coo = system.matrix.tocoo()
    m = 3 * (k + 1)
    assert np.all(np.abs(coo.row // m - coo.col // m) <= 1)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_assembled_pattern(n, k):
    """The BSR pattern of (k+1) x (k+1) blocks is fixed by (N, k): the U-,
    P- and Q-rows of an interior element hold 3, 3 and 7 blocks, 13 in all,
    against 11 and 9 at the two ends and 7 on a single element; block
    indices are sorted without duplicates, and both identity blocks of
    every element are stored in full, explicit zeros included."""
    m = k + 1
    matrix = assemble(_varying_problem(0.05), uniform_mesh(n), k).matrix
    assert matrix.blocksize == (m, m)
    assert matrix.nnz == (m * m * (13 * n - 6) if n > 1 else 7 * m * m)
    assert matrix.has_canonical_format
    blocks_per_row = ([[2, 2, 3]] if n == 1
                      else [[2, 3, 6]] + [[3, 3, 7]] * (n - 2) + [[3, 2, 4]])
    assert np.array_equal(np.diff(matrix.indptr).reshape(n, 3), blocks_per_row)
    for e in range(n):
        for row_field, col_field in ((0, 1), (1, 2)):
            block_row = 3 * e + row_field
            span = slice(matrix.indptr[block_row], matrix.indptr[block_row + 1])
            stored = matrix.indices[span]
            assert np.all(np.diff(stored) > 0)
            pos = np.searchsorted(stored, 3 * e + col_field)
            assert stored[pos] == 3 * e + col_field
            assert np.array_equal(matrix.data[span][pos], np.eye(m))
    assert np.count_nonzero(matrix.data == 0.0) >= 2 * n * (m * m - m)


def test_assembly_memory_is_bounded_by_the_output():
    """Assembly writes the BSR arrays in place, so its traced peak stays
    within 3x the bytes it returns: the BSR arrays, the rhs and the compact
    node data (the diagonal blocks are stored in the BSR data only, the
    node factors nowhere)."""
    case = boundary_layer_case(1e-8)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 4096, 1e-8, 2.5))
    for k in (1, 3):
        tracemalloc.start()
        try:
            system = assemble(case.problem, mesh, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        a = system.matrix
        out = sum(arr.nbytes for arr in (a.data, a.indices, a.indptr, system.rhs,
                                         *_node_data(system)))
        assert peak <= 3 * out, (k, peak / out)


def _node_data(system):
    """The compact node data a BlockSystem keeps in place of node factors."""
    return (system.trace_r, system.trace_l, system.node_a, system.node_b_dn,
            system.node_b_up)


@pytest.mark.parametrize("k", range(4))
def test_node_data_is_compact(k):
    """The node data costs at most 2x the rhs: two traces of k+1 entries
    and three nodal coefficients per interior node, against 3(k+1) rhs
    entries per element, where the dense X, Y, Z and R of 18(k+1) entries
    per node would cost 6x."""
    system = assemble(_varying_problem(0.05), uniform_mesh(64), k)
    assert sum(arr.nbytes for arr in _node_data(system)) <= 2 * system.rhs.nbytes


def test_hand_assembled_two_element_k0_system():
    """Degree 0 on two equal elements of [0, 1] with a = b = c = 1,
    eps = 0.1.  Basis value on each element is sqrt(2), so every flux or
    mass entry is hand-computable; rows are the three equations of each
    element, columns the (U, P, Q) coefficients of each element."""
    mesh = uniform_mesh(2)
    eps = 0.1
    problem = unit_problem(eps, _ones)
    system = assemble(problem, mesh, 0)
    got = system.matrix.toarray()
    expected = np.array([
        # U1    P1   Q1   U2    P2   Q2
        [-2.0, 1.0, 0.0, 0.0, 0.0, 0.0],    # eq (u',r): -Uhat_1 r_1^- + <P,r>
        [0.0, 0.2, 1.0, 0.0, -0.2, 0.0],    # eq (q,s) with eps = 0.1
        [3.0, 2.0, -2.0, 0.0, -2.0, 2.0],   # eq (f,v) on element 1
        [2.0, 0.0, 0.0, 0.0, 1.0, 0.0],     # eq (u',r) on element 2
        [0.0, 0.0, 0.0, 0.0, 0.2, 1.0],     # eq (q,s) on element 2
        [-2.0, 0.0, 0.0, 3.0, 0.0, 0.0],    # eq (f,v) on element 2
    ])
    assert np.allclose(got, expected, rtol=1e-13, atol=1e-14)
    # rhs: <1, sqrt(2)> = sqrt(2)/2 on each element, in the third row slot
    expected_rhs = np.array([0, 0, math.sqrt(2) / 2, 0, 0, math.sqrt(2) / 2])
    assert np.allclose(system.rhs, expected_rhs, rtol=1e-14, atol=1e-15)


def test_matrix_dump_roundtrip():
    mesh = uniform_mesh(2)
    system = assemble(unit_problem(0.1, _ones), mesh, 0)
    dense = np.zeros((6, 6))
    for line in system.dump_coo().strip().splitlines():
        r, c, v = line.split()
        dense[int(r), int(c)] += float(v)
    assert np.allclose(dense, system.matrix.toarray())


# -- solve -----------------------------------------------------------------

def test_zero_forcing_gives_zero_solution():
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 8, 1e-3, 2.5))
    w = solve_ldg(unit_problem(1e-3, _zeros), mesh, 1)
    assert l2(w.U) == 0.0
    assert l2(w.P) == 0.0
    assert l2(w.Q) == 0.0


@pytest.mark.parametrize("kind", list(MeshKind))
def test_cubic_manufactured_exactness(kind):
    case = polynomial_case(0.37)
    mesh = build_mesh(MeshSpec(kind, 8, 0.37 / 64, 4.5))
    problem = Problem(a=case.problem.a, b=case.problem.b,
                      bprime=case.problem.bprime, c=case.problem.c,
                      f=case.problem.f, eps=0.37, alpha=1.0, gamma=1.0)
    w = solve(assemble(problem, mesh, 3))
    err = error_record(case.exact_u, case.exact_p, case.exact_q, w, problem).energy
    assert err <= 1e-10


def test_energy_error_anchor():
    # frozen benchmark value 3.01e-03 for the layer case on the Shishkin
    # mesh with k = 1, eps = 1e-8, N = 64, sigma = 2.5
    _case, _mesh, _w, rec = solve_and_measure(MeshKind.SHISHKIN, 1, 1e-8, 64)
    assert rec.energy == pytest.approx(3.01e-3, rel=0.05)


def test_solution_map_is_linear_in_f():
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV_SHISHKIN, 8, 1e-2, 2.5))
    f1 = lambda x: np.sin(3.0 * np.asarray(x)) + 2.0
    f2 = lambda x: np.cos(2.0 * np.asarray(x)) * np.asarray(x)
    f12 = lambda x: f1(x) + f2(x)
    w1 = solve_ldg(unit_problem(1e-2, f1), mesh, 2)
    w2 = solve_ldg(unit_problem(1e-2, f2), mesh, 2)
    w12 = solve_ldg(unit_problem(1e-2, f12), mesh, 2)
    for part in ("U", "P", "Q"):
        lhs = getattr(w12, part).coeffs
        rhs = getattr(w1, part).coeffs + getattr(w2, part).coeffs
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_residual_invariant():
    case = boundary_layer_case(1e-8)
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 64, 1e-8, 2.5))
    system = assemble(case.problem, mesh, 1)
    w = solve(system)
    x = np.concatenate([np.stack([w.U.coeffs[e], w.P.coeffs[e], w.Q.coeffs[e]])
                        .ravel() for e in range(mesh.n_elements)])
    resid = system.rhs - system.matrix @ x
    assert np.abs(resid).max() <= 1e-10 * np.abs(system.rhs).max()
    assert w.info.residual_inf <= 1e-10 * w.info.rhs_inf
    assert np.isfinite(w.info.growth_factor)


def test_refinement_reaches_the_rounding_floor():
    """At scale the k = 3 error sits at the float64 rounding floor, which
    only the refined solve reaches: the unrefined condensed solve leaves
    l2u at 1.9e-13, about 190x the bound, and one refinement step brings it
    to 1.6e-16, stopping at the floor before max_refine."""
    case = boundary_layer_case(1e-8)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 8192, 1e-8, 4.5))
    system = assemble(case.problem, mesh, 3)
    quad = gauss_quadrature(20)

    def measure(w):
        rec = error_record(case.exact_u, case.exact_p, case.exact_q, w,
                           case.problem, quad)
        return rec.l2_u, rec.l2_p

    max_refine = 4
    refined = solve(system, max_refine=max_refine)
    l2_u, l2_p = measure(refined)
    assert l2_u <= 1e-15 and l2_p <= 5e-15
    assert 1 <= refined.info.refine_steps < max_refine

    unrefined = solve(system, max_refine=0)
    assert unrefined.info.refine_steps == 0
    assert measure(unrefined)[0] > 1e-15


def test_refinement_keeps_a_refined_iterate_at_the_rounding_floor():
    """At Bakhvalov k = 1, N = 65536 refinement stagnates at the rounding
    floor: no step brings the residual below the unrefined iterate's, yet
    the refined iterates' l2u agree with the converged value (the one all
    of them approach) to about 1e-11, while the unrefined solve's is 5e-5
    off.  So solve must not return the unrefined iterate for its residual
    alone."""
    case = boundary_layer_case(1e-8)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 65536, 1e-8, 2.5))
    system = assemble(case.problem, mesh, 1)
    converged = 2.5559211249945e-10

    def l2u(w):
        return error_record(case.exact_u, case.exact_p, case.exact_q, w,
                            case.problem).l2_u

    refined = solve(system)
    assert refined.info.refine_steps >= 1
    assert abs(l2u(refined) / converged - 1.0) <= 1e-9
    assert abs(l2u(solve(system, max_refine=0)) / converged - 1.0) > 1e-6


def test_refinement_falls_back_to_the_iterate_that_passes():
    """At Bakhvalov-Shishkin k = 2, eps = 1e-12, N = 4096 the unrefined
    iterate passes the final check (long-double residual 2.4e-8 against 4x
    a floor of 2.4e-8) but its refinement step lands at 1.6e-7 and fails
    it; solve returns the unrefined iterate with its own residual instead
    of raising."""
    case = boundary_layer_case(1e-12)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV_SHISHKIN, 4096, 1e-12, 3.5))
    system = assemble(case.problem, mesh, 2)
    w = solve(system)
    assert w.info.refine_steps == 1
    x = np.stack([w.U.coeffs, w.P.coeffs, w.Q.coeffs], axis=1).ravel()
    unrefined = solve(system, max_refine=0)
    assert np.array_equal(x, np.stack([unrefined.U.coeffs, unrefined.P.coeffs,
                                       unrefined.Q.coeffs], axis=1).ravel())
    a, b = system.matrix, system.rhs
    r_inf = float(np.abs(b - a.astype(np.longdouble) @ x.astype(np.longdouble)).max())
    assert w.info.residual_inf == r_inf
    floor = solver._rounding_floor(a, x)
    assert r_inf <= max(solver.RESIDUAL_RTOL * w.info.rhs_inf, 4.0 * floor)


_FLOOR_STOP = pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="ROADMAP item 2: floor stop")


@pytest.mark.parametrize("kind, k, eps, n", [
    *((MeshKind.SHISHKIN, k, 1e-4, n) for k, n in ((2, 8192), (3, 1024), (3, 2048),
                                                     (3, 4096), (3, 8192))),
    *((MeshKind.BAKHVALOV_SHISHKIN, k, 1e-4, n) for k, n in ((2, 8192), (3, 1024),
                                                              (3, 2048), (3, 4096))),
    *((MeshKind.BAKHVALOV, 3, 1e-4, n) for n in (2048, 4096)),
    *(pytest.param(kind, 3, 1e-8, 2048, marks=_FLOOR_STOP)
      for kind in (MeshKind.BAKHVALOV, MeshKind.BAKHVALOV_SHISHKIN)),
])
def test_solve_matches_forced_refinement(kind, k, eps, n):
    """On the eps = 1e-4 rows the float64 residual lies far below
    RESIDUAL_RTOL * ||rhs||_inf but above the rounding floor, and the
    unrefined solve's l2u, l2p or energy error is 5.6% to 1520% off that
    of forced refinement (Shishkin k = 3, N = 8192: l2u 1.62e-13 against
    1.32e-16), so solve must step.  l2u, l2p and the energy error must
    each lie within 5% of the refined.  On the two eps = 1e-8 rows the
    first long-double residual is already below the floor, so solve takes
    no step, and l2u is 7.8e-14 and 8.1e-14 against 9.0e-15."""
    case = boundary_layer_case(eps)
    system = assemble(case.problem, build_mesh(MeshSpec(kind, n, eps, k + 1.5)), k)
    got, ref = (error_record(case.exact_u, case.exact_p, case.exact_q, w, case.problem)
                for w in (solve(system), refined_solution(system)))
    for field in ("l2_u", "l2_p", "energy"):
        assert abs(getattr(got, field) / getattr(ref, field) - 1.0) <= 0.05, field


def _product(a, x, dtype=np.float64, **kwargs):
    """The y of _matvec, written in dtype, and the norm it returns."""
    y = np.empty(a.shape[0], dtype=dtype)
    norm = solver._matvec(a, x, dtype=dtype, out=y, **kwargs)
    return y, norm


def test_chunked_matvec_is_bit_identical(monkeypatch):
    """The extended residual and the rounding floor read A one element's
    block rows at a time, yet add the same products in the same order as a
    full product with a converted copy of A, and take the norm of the
    result."""
    system = assemble(_varying_problem(0.05), uniform_mesh(6), 3)
    a = system.matrix
    monkeypatch.setattr(solver, "_CHUNK", 1)
    assert system.mesh.n_elements > 3 * solver._CHUNK
    rng = np.random.default_rng(7)
    x = rng.standard_normal(a.shape[1])
    x_ld = x.astype(np.longdouble) * (1 + np.longdouble(2.0) ** -60)
    y, norm = _product(a, x_ld, np.longdouble)
    ref = a.astype(np.longdouble) @ x_ld
    assert np.array_equal(y, ref) and norm == float(np.abs(ref).max())
    y, norm = _product(a, x)
    assert np.array_equal(y, a @ x) and norm == np.abs(a @ x).max()
    abs_a = abs(a)
    assert solver._rounding_floor(a, x) == (float((abs_a @ np.abs(x)).max())
                                            * float(np.finfo(float).eps))


@pytest.mark.parametrize("chunk", [1, 2, 1 << 9])
def test_streamed_residual_matches_the_whole_array_form(chunk, monkeypatch):
    """b - A x accumulated in long double a run of elements at a time is
    written as the float64 rounding of the whole-array b - a_ld @ x_ld, and
    its norm is that array's, taken before rounding; the float64 residual's
    norm is that of b - A @ x."""
    system = assemble(_varying_problem(0.05), uniform_mesh(9), 2)
    a = system.matrix
    monkeypatch.setattr(solver, "_CHUNK", chunk)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(a.shape[1])
    b = a @ x + 1e-12 * rng.standard_normal(a.shape[0])     # a small residual
    whole = b - a.astype(np.longdouble) @ x.astype(np.longdouble)
    out = np.empty(a.shape[0])
    norm = solver._matvec(a, x, b, dtype=np.longdouble, out=out)
    assert np.array_equal(out, whole.astype(float))
    assert norm == float(np.abs(whole).max())
    assert solver._matvec(a, x, b) == np.abs(b - a @ x).max()


def test_matvec_matches_the_public_product_on_every_path(monkeypatch):
    """_matvec and _rounding_floor equal scipy's product bit for bit with
    int64 index arrays (what ``assemble`` writes above 2**31 entries), with
    |A| |x| for a long-double x, and with a last run of elements shorter
    than the rest."""
    a = assemble(_varying_problem(0.05), uniform_mesh(7), 3).matrix
    monkeypatch.setattr(solver, "_CHUNK", 2)
    assert 7 % solver._CHUNK != 0
    wide = a.copy()
    # scipy stores small index arrays as int32 on construction, so widen after.
    wide.indptr = wide.indptr.astype(np.int64)
    wide.indices = wide.indices.astype(np.int64)
    assert wide.indptr.dtype == wide.indices.dtype == np.int64
    rng = np.random.default_rng(11)
    x = rng.standard_normal(a.shape[1])
    x_ld = x.astype(np.longdouble) * (1 + np.longdouble(2.0) ** -60)
    a_ld, abs_a = a.astype(np.longdouble), abs(a)
    floor = float((abs_a @ np.abs(x)).max()) * float(np.finfo(float).eps)
    for m in (a, wide):
        assert np.array_equal(_product(m, x)[0], a @ x)
        assert np.array_equal(_product(m, x_ld, np.longdouble)[0], a_ld @ x_ld)
        assert np.array_equal(_product(m, x_ld, np.longdouble, absolute=True)[0],
                              abs(a_ld) @ abs(x_ld))
        assert np.array_equal(_product(m, x, absolute=True)[0], abs_a @ np.abs(x))
        assert solver._rounding_floor(m, x) == floor


def test_matvec_refuses_a_block_outside_the_pattern(monkeypatch):
    """A block beyond the columns of a row's own and neighbouring elements
    would send the kernel past the x window of its run; _matvec raises
    instead."""
    monkeypatch.setattr(solver, "_CHUNK", 1)
    a = assemble(_varying_problem(0.05), uniform_mesh(6), 1).matrix.copy()
    a.indices[0] = a.shape[1] // a.blocksize[1] - 1        # element 5's Q column
    with pytest.raises(ValueError, match="block pattern"):
        solver._matvec(a, np.ones(a.shape[1]))


def test_solve_refuses_a_block_outside_the_pattern_in_default_runs():
    """In the default runs all six elements share one x window, so _matvec's
    per-run check passes a block row pointed at element 5's Q column.  The
    condensed solve reads A's blocks by their place in the pattern, not by
    their column index, so it solves the unaltered system, and solve's
    residual check against the altered A refuses the result."""
    system = assemble(_varying_problem(0.05), uniform_mesh(6), 1)
    assert system.mesh.n_elements <= solver._CHUNK
    a = system.matrix.copy()
    a.indices[0] = a.shape[1] // a.blocksize[1] - 1        # element 5's Q column
    with pytest.raises(RuntimeError, match="exceeds"):
        solve(dataclasses.replace(system, matrix=a))


def test_matvec_memory_is_one_chunk_of_buffers(monkeypatch):
    """Every run of C = _CHUNK elements releases the blocks and the x
    window it converted right after its product, and its y before the next
    run's product, so the traced peak of _matvec stays within one run's
    blocks of A in the accumulation dtype, its x window, its rows of y and
    the cast of b's rows that subtracting
    them takes (at most 3(C + 2) block columns or rows each) and 64 KiB of
    slack (index offsets of one run, loop bookkeeping).  Nothing of x's or
    y's size is allocated: the floor and the float64 residual return their
    norm only, the long-double residual is rounded into the caller's array,
    and the float64 residual reads A's blocks where they are, with no
    converted copy of them at all."""
    monkeypatch.setattr(solver, "_CHUNK", 256)
    a = assemble(_varying_problem(0.05), uniform_mesh(2048), 3).matrix
    r, c = a.blocksize
    n_brow = a.shape[0] // r
    assert n_brow > 4 * 3 * solver._CHUNK
    bounds = a.indptr[[*range(0, n_brow, 3 * solver._CHUNK), n_brow]]
    chunk_nnz = int(np.diff(bounds).max()) * r * c
    rng = np.random.default_rng(3)
    x = rng.standard_normal(a.shape[1])
    b = rng.standard_normal(a.shape[0])
    out = np.empty(a.shape[0])
    for dtype, kwargs, buffered in ((np.longdouble, dict(b=b, out=out), True),
                                    (np.float64, dict(absolute=True), True),
                                    (np.float64, dict(b=b), False)):
        tracemalloc.start()
        try:
            solver._matvec(a, x, dtype=dtype, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        window = 3 * 3 * (solver._CHUNK + 2) * c
        bound = (buffered * chunk_nnz + window) * np.dtype(dtype).itemsize + (64 << 10)
        assert peak <= bound, (dtype, kwargs.keys(), peak / x.nbytes)


def test_solve_memory_is_bounded_by_the_rhs():
    """solve forms each refined float64 iterate in the buffer of its
    correction, which the local solves and the back substitution overwrite
    a run at a time, and rounds a long-double residual, formed a run of
    elements at a time, into a correction only when a step follows, so it
    holds two iterate-sized vectors and no long-double vector whole; it
    gathers the local blocks and forms the node factors one chunk at a
    time, frees the trace matrix once it is factored, and holds the banded
    LU factor of the trace system, which tracemalloc sees, so its traced
    peak on top of the system stays within 14.5x the bytes of the rhs
    (13.9x measured at k = 1, 13.0x at k = 3, the top set by one 512-element
    run of the long-double residual; 5% margin).  Both rows take one
    refinement step."""
    case = boundary_layer_case(1e-8)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 4096, 1e-8, 2.5))
    for k in (1, 3):
        system = assemble(case.problem, mesh, k)
        tracemalloc.start()
        try:
            w = solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.info.refine_steps >= 1
        assert peak <= 14.5 * system.rhs.nbytes, (k, peak / system.rhs.nbytes)


def test_assemble_and_solve_memory_is_bounded_by_the_rhs():
    """assemble forms D's blocks a chunk of elements at a time and keeps
    only compact node data, and solve forms its residuals and its back
    substitutions a run of elements at a time, holds two iterate-sized
    vectors and frees the condensed factors before the final floor, so the
    traced peak of assemble-then-solve at Bakhvalov N = 16384 stays within
    25.0x the bytes of the rhs at k = 1 and 30.5x at k = 3 (23.8x and 29.0x
    measured, 5% margin; k = 3 takes a refinement step)."""
    case = boundary_layer_case(1e-8)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 16384, 1e-8, 2.5))
    for k, bound in ((1, 25.0), (3, 30.5)):
        tracemalloc.start()
        try:
            system = assemble(case.problem, mesh, k)
            w = solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.info.refine_steps == (k == 3)
        assert peak <= bound * system.rhs.nbytes, (k, peak / system.rhs.nbytes)


@pytest.mark.parametrize("kind, eps, n, k, steps", [
    (MeshKind.BAKHVALOV, 1e-8, 4096, 1, 1),
    (MeshKind.BAKHVALOV, 1e-8, 16384, 3, 1),
    (MeshKind.SHISHKIN, 1e-12, 8192, 1, 2),
])
def test_solve_memory_is_its_stated_budget(kind, eps, n, k, steps, monkeypatch):
    """Above the assembled system, solve holds D^-1 [X Z], the band LU
    factor of the trace system and its pivots, two iterate-sized vectors,
    the node traces of D^-1 [X Z] and D^-1 b while the trace system is
    formed, and the buffers of one run of C = _CHUNK elements: a
    correction is formed only when a step follows, and the back
    substitution subtracts D^-1 [X Z] t in place a run at a time.  One
    run's buffers are bounded by twice its C + 2 elements' 13 blocks in
    long double, the slack by 64 KiB (index offsets, loop bookkeeping).
    Measured 0.8x to 1.5x the rhs bytes below the budget; whole-mesh back
    substitution temporaries and a third vector put Bakhvalov k = 3
    0.24x above it.  Shishkin k = 1, eps = 1e-12, N = 8192 is the one row
    of the 360 configs (s, bs, b; k = 0..3; eps in {1e-4, 1e-8, 1e-12};
    N = 16..8192) that takes two steps, so its first step's residual is
    formed a second time, into the next correction.  Each solution and
    its diagnostics match, bit for bit, those of the default runs."""
    case = boundary_layer_case(eps)
    system = assemble(case.problem, build_mesh(MeshSpec(kind, n, eps, 2.5)), k)
    default = solve(system)
    monkeypatch.setattr(solver, "_CHUNK", 16)
    m, nodes = k + 1, n - 1
    band = (2 * solver._KL + solver._KU + 1) * 3 * nodes * 8
    budget = (n * 3 * m * 3 * 8                               # D^-1 [X Z]
              + band + 3 * nodes * 4                          # band factor, pivots
              + 2 * system.rhs.nbytes                         # two iterates
              + nodes * 3 * 4 * 8                             # node traces
              + 2 * (solver._CHUNK + 2) * 13 * m * m * 16     # one run's buffers
              + (64 << 10))                                   # slack
    tracemalloc.start()
    try:
        w = solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.info.refine_steps == steps
    assert peak <= budget, (peak - budget) / system.rhs.nbytes
    for got, want in ((w.U, default.U), (w.P, default.P), (w.Q, default.Q)):
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert w.info == default.info


@pytest.mark.parametrize("k", range(4))
def test_chunk_sizes_leave_assembly_and_solve_bit_identical(k, monkeypatch):
    """Assembly, local solves and residuals run five elements at a time
    give the bits of A, the rhs, the node data, the solution and its
    diagnostics that the default runs give: every chunked step works
    element by element or row by row in one order.
    Shishkin eps = 1e-12, N = 64 refines at k = 0 and 2."""
    case = boundary_layer_case(1e-12)
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 64, 1e-12, 3.5))

    def run():
        system = assemble(case.problem, mesh, k)
        w = solve(system)
        a = system.matrix
        return ([arr.tobytes() for arr in (a.data, a.indices, a.indptr, system.rhs,
                                           *_node_data(system), w.U.coeffs,
                                           w.P.coeffs, w.Q.coeffs)], w.info)

    default = run()
    monkeypatch.setattr(solver, "_CHUNK", 5)
    chunked = run()
    assert chunked == default
    assert (chunked[1].refine_steps >= 1) == (k in (0, 2))


def _in_assembled_pattern(dense, n, k):
    """``dense`` written into the BSR block pattern ``assemble`` uses on n
    elements of degree k; it must vanish outside that pattern."""
    pattern = assemble(_varying_problem(0.05), uniform_mesh(n), k).matrix
    m = k + 1
    rows = np.repeat(np.arange(3 * n), np.diff(pattern.indptr))
    data = np.stack([dense[r * m:(r + 1) * m, c * m:(c + 1) * m]
                     for r, c in zip(rows, pattern.indices)])
    matrix = sparse.bsr_matrix((data, pattern.indices, pattern.indptr), shape=dense.shape)
    assert np.array_equal(matrix.toarray(), dense)
    return matrix


def _singular_trace_system():
    """N = 2, k = 0 with invertible local blocks D (element 0's U-row reads
    P, element 1's P-row reads Q) and node data r = l = 1, a = b_dn = 0,
    b_up = 2, eps = 1/2, so X = [-e_P/2, e_Q], Y = [e_P, e_Q], Z = e_U -
    2 e_Q and R = e_U.  Then S = I + [Y R]^T D^-1 [X Z] = [[1, 0, 2],
    [0, 1, -2], [1/2, 0, 1]] and A = D + X Y^T + Z R^T are both singular."""
    eye = np.eye(3)
    x_f = np.stack([-0.5 * eye[1], eye[2]], axis=1)
    y_f = np.stack([eye[1], eye[2]], axis=1)
    z_f, r_f = (eye[0] - 2.0 * eye[2])[:, None], eye[:, :1]
    dense = np.eye(6)
    dense[0, 1] = dense[4, 5] = 1.0
    dense[:3, 3:] += x_f @ y_f.T
    dense[3:, :3] += z_f @ r_f.T
    assert np.linalg.matrix_rank(dense) < 6
    one = np.ones((1, 1))
    system = solver.BlockSystem(matrix=_in_assembled_pattern(dense, 2, 0), rhs=np.ones(6),
                                mesh=uniform_mesh(2), k=0, eps=0.5, trace_r=one,
                                trace_l=one, node_a=np.zeros(1), node_b_dn=np.zeros(1),
                                node_b_up=np.full(1, 2.0))
    for built, factor in zip(system._node_factors(0, 1), (x_f, y_f, z_f, r_f)):
        assert np.array_equal(built[0], factor)
    return system


def _singular_local_block():
    """The regular N = 3 system with one row of the second element's
    diagonal block zeroed inside A's data: condensation needs every local
    block to be invertible."""
    system = assemble(_varying_problem(0.05), uniform_mesh(3), 1)
    a = system.matrix.copy()
    row = 3                                         # element 1's U-row
    for slot in range(a.indptr[row], a.indptr[row + 1]):
        if a.indices[slot] // 3 == 1:               # a block of D, column element 1
            a.data[slot, 0, :] = 0.0
    assert not a.toarray()[6, 6:12].any()
    return dataclasses.replace(system, matrix=a)


def _zero_system():
    none = np.zeros(0)
    return solver.BlockSystem(matrix=_in_assembled_pattern(np.zeros((3, 3)), 1, 0),
                              rhs=np.ones(3), mesh=uniform_mesh(1), k=0, eps=0.5,
                              trace_r=np.zeros((0, 1)), trace_l=np.zeros((0, 1)),
                              node_a=none, node_b_dn=none, node_b_up=none)


def test_singular_system_raises():
    """A zero system, one singular local block in a regular system, and a
    singular trace system each raise instead of returning garbage."""
    for build in (_zero_system, _singular_local_block, _singular_trace_system):
        with pytest.raises(RuntimeError, match="singular LDG system"):
            solve(build())


@pytest.mark.parametrize("f", [lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0),
                               lambda x: np.full(np.shape(x), 1e308)],
                         ids=["nan-forcing", "overflowing-forcing"])
def test_non_finite_residual_raises(f):
    """A forcing with NaN, or one whose solution overflows, leaves a NaN
    residual, which compares false with any bound; solve raises instead of
    returning it."""
    system = assemble(unit_problem(1e-2, f), uniform_mesh(16), 1)
    with pytest.raises(RuntimeError, match="non-finite"):
        solve(system)


def _dense_trace_system(system):
    """S = I + [Y R]^T D^-1 [X Z] formed densely from the block form, with
    D the diagonal blocks of the dense A and node e's columns of [X Z] (X in
    element e, Z in element e+1) and of [Y R] (Y in element e+1, R in
    element e) ordered 3e, 3e+1, 3e+2."""
    n, width = system.mesh.n_elements, 3 * (system.k + 1)
    dim, n_trace = n * width, 3 * (n - 1)
    a = system.matrix.toarray()
    d = np.zeros((dim, dim))
    xz = np.zeros((dim, n_trace))
    yr = np.zeros((dim, n_trace))
    for e in range(n):
        block = slice(e * width, (e + 1) * width)
        d[block, block] = a[block, block]
    node_x, node_y, node_z, node_r = system._node_factors(0, n - 1)
    for e in range(n - 1):
        here, there = slice(e * width, (e + 1) * width), slice((e + 1) * width, (e + 2) * width)
        xz[here, 3 * e:3 * e + 2] = node_x[e]
        xz[there, 3 * e + 2] = node_z[e, :, 0]
        yr[there, 3 * e:3 * e + 2] = node_y[e]
        yr[here, 3 * e + 2] = node_r[e, :, 0]
    return np.eye(n_trace) + yr.T @ np.linalg.solve(d, xz)


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_trace_band_matches_a_dense_oracle(n, k):
    """The band that dgbtrf factors holds S = I + [Y R]^T D^-1 [X Z] at
    ab[kl + ku + i - j, j], S has nothing outside kl = 3, ku = 4, the fill
    rows are zero, and solve reports growth_factor as max|U| / max|S| of a
    dense LU."""
    kind = MeshKind.BAKHVALOV if n >= 4 else None      # Bakhvalov needs N >= 4
    problem, mesh, _ = _bilinear_setup("varying", kind, n, k)
    system = assemble(problem, mesh, k)
    s = _dense_trace_system(system)
    cond = solver._Condensed(system)
    ab = solver._trace_band(cond._node_traces(cond.dxz)[0])
    kl, ku = solver._KL, solver._KU
    assert ab.shape == (2 * kl + ku + 1, s.shape[0])

    i, j = np.indices(s.shape)
    in_band = (i - j <= kl) & (j - i <= ku)
    assert not np.any(s[~in_band])
    unpacked = np.zeros_like(s)
    unpacked[in_band] = ab[(kl + ku + i - j)[in_band], j[in_band]]
    # Relative to max|S|: a small entry formed by cancellation carries the
    # rounding of its O(1) terms on either side.
    assert np.abs(unpacked - s).max() <= 1e-14 * np.abs(s).max()
    assert not np.any(ab[:kl])
    # Band slots that fall outside S (the corners) are zero as well.
    assert np.count_nonzero(ab) == np.count_nonzero(unpacked)

    u = scipy.linalg.lu(s)[2]
    assert solve(system).info.growth_factor == pytest.approx(np.abs(u).max() / np.abs(s).max(),
                                                             rel=1e-12)


@pytest.mark.parametrize("k", [0, 3])
def test_growth_factor_is_zero_without_a_trace_system(k):
    """One element has no interior node, so no trace system is factored and
    solve reports growth_factor 0."""
    system = assemble(_varying_problem(0.05), uniform_mesh(1), k)
    assert solve(system).info.growth_factor == 0.0


def test_import_leaves_the_sparse_lu_unloaded():
    """The solver factors with LAPACK's banded LU and the layer moments use a
    numpy kernel, so importing the package and its CLI loads neither
    scipy.sparse.linalg nor scipy.special (start-up costs)."""
    code = ("import sys, ldglayer, ldglayer.cli; "
            "print([m for m in ('scipy.sparse.linalg', 'scipy.special') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- bilinear form ---------------------------------------------------------

def test_bilinear_form_zero_solution():
    mesh = uniform_mesh(4)
    k = 1
    problem = unit_problem(0.1, _ones)
    zero = (zero_poly(mesh, k), zero_poly(mesh, k), zero_poly(mesh, k))
    rng = np.random.default_rng(1)
    chi = tuple(PiecewisePoly(mesh, k, rng.standard_normal((4, 2)))
                for _ in range(3))
    assert bilinear_form(zero, chi, problem, mesh, k) == 0.0


def _varying_problem(eps):
    """b = x - 0.4 changes sign, so both upwind branches of bU are used."""
    return Problem(a=lambda x: 1.0 + np.asarray(x), b=lambda x: np.asarray(x) - 0.4,
                   bprime=_ones, c=lambda x: 2.0 + np.sin(x),
                   f=lambda x: np.sin(2.0 * np.asarray(x)) + 1.5,
                   eps=eps, alpha=1.0, gamma=1.0)


_BILINEAR_CASES = [pytest.param("unit", MeshKind.SHISHKIN, 4, 1, id="unit-s-k1")] + [
    pytest.param("varying", kind, n, k, id=f"varying-{tag}-k{k}")
    for kind, tag, n in ((None, "uniform", 6), (MeshKind.BAKHVALOV, "b", 6),
                         (None, "uniform1", 1), (None, "uniform2", 2))
    for k in range(4)]


def _basis_triple(mesh, k, field, e, mode):
    """(U, P, Q) triple, zero but for basis function ``mode`` of element e
    in slot ``field``."""
    coeffs = np.zeros((mesh.n_elements, k + 1))
    coeffs[e, mode] = 1.0
    triple = [zero_poly(mesh, k)] * 3
    triple[field] = PiecewisePoly(mesh, k, coeffs)
    return tuple(triple)


def _bilinear_setup(problem_name, kind, n, k):
    """(problem, mesh, quadrature) of a ``_BILINEAR_CASES`` entry."""
    if problem_name == "unit":
        mesh = build_mesh(MeshSpec(kind, n, 0.05, 2.5))
        return unit_problem(0.05, lambda x: np.sin(2.0 * np.asarray(x)) + 1.5), mesh, None
    mesh = (uniform_mesh(n) if kind is None
            else build_mesh(MeshSpec(kind, n, 0.05, k + 1.5)))
    return _varying_problem(0.05), mesh, gauss_quadrature(k + 3)


@pytest.mark.parametrize("problem_name, kind, n, k", _BILINEAR_CASES)
def test_block_form_matches_matrix(problem_name, kind, n, k):
    """The diagonal blocks the condensed solve gathers from A's data and the
    node products X Y^T, Z R^T of the factors that the node data builds over
    all nodes at once rebuild the assembled matrix bit for bit."""
    problem, mesh, _ = _bilinear_setup(problem_name, kind, n, k)
    system = assemble(problem, mesh, k)
    width = 3 * (k + 1)
    rebuilt = np.zeros((n * width, n * width))
    for lo, hi, d in solver._Condensed(system)._local_blocks():
        for e in range(lo, hi):
            rebuilt[e * width:(e + 1) * width, e * width:(e + 1) * width] = d[e - lo]
    node_x, node_y, node_z, node_r = system._node_factors(0, n - 1)
    for e in range(n - 1):
        here, there = slice(e * width, (e + 1) * width), slice((e + 1) * width, (e + 2) * width)
        rebuilt[here, there] = node_x[e] @ node_y[e].T
        rebuilt[there, here] = node_z[e] @ node_r[e].T
    assert np.array_equal(rebuilt, system.matrix.toarray())


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_local_blocks_are_the_diagonal_blocks_of_a(n, k, monkeypatch):
    """Gathered one or three elements at a time, so that each end element
    sits alone in its chunk or chunks straddle the first, interior and last
    elements, the local blocks equal the dense A's diagonal 3(k+1) blocks
    bit for bit, their (U, Q) and (P, U) field blocks are zero, and every
    element comes once, in order."""
    system = assemble(_varying_problem(0.05), uniform_mesh(n), k)
    a, m = system.matrix.toarray(), k + 1
    width = 3 * m
    for chunk in (1, 3):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        seen = []
        for lo, hi, d in solver._Condensed(system)._local_blocks():
            assert d.shape == (hi - lo, width, width) and hi - lo <= chunk
            for e in range(lo, hi):
                block = slice(e * width, (e + 1) * width)
                assert np.array_equal(d[e - lo], a[block, block])
                assert not d[e - lo, :m, 2 * m:].any() and not d[e - lo, m:2 * m, :m].any()
                seen.append(e)
        assert seen == list(range(n))


@pytest.mark.parametrize("n, k, digest", [
    (1, 0, "21ddb1f59e84904e7d226e4bdfcf1b6ce65f8039e67087043311917814453e34"),
    (1, 3, "d131c45399d2b9326006d38641c80198d8624b203a9aea40eeee45cfb8b35237"),
    (2, 0, "1fc2192a0985a0a6800b3d68e004397121dbd21a8cac6783fc45cbc9c6718eb2"),
    (2, 3, "e5a8a584150540a39ce7eb3de767cd9e8768dca8ad462145dc500040d2561afc"),
    (3, 0, "e0975d242b08c27b4d0836c95d9f95b3f08bd421d8fe8c8b4a35945f2678d980"),
    (3, 3, "c2d0584d698d31f4170f10aea56ebc2d8caaeb56976d0c690e349ab9145b0d70"),
])
def test_end_element_matrix_bytes(n, k, digest):
    """On one to three elements, where the end elements are most of A, the
    bytes of A's data, indices and indptr match the pinned digests."""
    a = assemble(_varying_problem(0.05), uniform_mesh(n), k).matrix
    h = hashlib.sha256()
    for arr in (a.data, a.indices, a.indptr):
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def test_a_one_block_short_is_refused_before_any_local_solve(monkeypatch):
    """A system whose A lacks one of assemble's blocks raises ValueError
    before a local block is solved."""
    system = assemble(_varying_problem(0.05), uniform_mesh(4), 1)
    a = system.matrix
    indptr = a.indptr.copy()
    indptr[-1] -= 1
    system.matrix = sparse.bsr_matrix((a.data[:-1], a.indices[:-1], indptr), shape=a.shape)
    solves = []
    monkeypatch.setattr(solver, "_solve_local", lambda *args: solves.append(1))
    with pytest.raises(ValueError, match="A holds 45 blocks, not the 46"):
        solve(system)
    assert solves == []


def test_chunked_local_solves_are_bit_identical(monkeypatch):
    """A solve whose local blocks are gathered and solved five elements at
    a time, in the first solve and in its refinement step, returns the same
    bits and diagnostics as one chunk spanning every element."""
    case = boundary_layer_case(1e-12)
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 64, 1e-12, 3.5))
    system = assemble(case.problem, mesh, 2)
    whole = solve(system)
    assert whole.info.refine_steps >= 1
    monkeypatch.setattr(solver, "_CHUNK", 5)
    chunked = solve(system)
    for part in ("U", "P", "Q"):
        assert np.array_equal(getattr(chunked, part).coeffs, getattr(whole, part).coeffs)
    assert chunked.info == whole.info


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("n, kind", [(1, None), (2, None), (3, None), (5, None),
                                     (6, MeshKind.BAKHVALOV)])
def test_condensed_solve_matches_direct_reference(n, kind, k):
    """Without refinement, the condensed solve agrees with a sparse direct
    solve of the assembled matrix; N = 1 and 2 give an empty and a one-node
    trace system."""
    problem, mesh, _ = _bilinear_setup("varying", kind, n, k)
    system = assemble(problem, mesh, k)
    w = solve(system, max_refine=0)
    x = np.stack([w.U.coeffs, w.P.coeffs, w.Q.coeffs], axis=1).ravel()
    reference = spsolve(system.matrix.tocsc(), system.rhs)
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("problem_name, kind, n, k", _BILINEAR_CASES)
def test_bilinear_form_reproduces_discrete_equations(problem_name, kind, n, k):
    """B(W; chi) = <f, v> for every basis test triple: an independent
    evaluation of the compact form against the assembled equations, and
    B(W; e_i) against the matrix row (A x_W)_i.  The varying-coefficient
    cases pass one quadrature to both sides.  On one and two elements,
    where every column is a first or last element column, each entry
    A[i, j] is also checked against B(e_j; e_i)."""
    problem, mesh, quad_bf = _bilinear_setup(problem_name, kind, n, k)
    system = assemble(problem, mesh, k)
    w = solve(system)
    triple = (w.U, w.P, w.Q)
    m = k + 1
    x_w = np.stack([w.U.coeffs, w.P.coeffs, w.Q.coeffs], axis=1).ravel()
    a_x = system.matrix @ x_w
    a_max = abs(system.matrix).max()
    a_scale = a_max * np.abs(x_w).max()
    scale = max(np.abs(system.rhs).max(), 1.0)
    dense = system.matrix.toarray() if n <= 2 else None
    # rows are ordered (r-block, s-block, v-block) per element: row field R
    # tests against slot (R + 1) % 3 of the (v, r, s) triple
    for row, (e, row_field, l) in enumerate(np.ndindex(n, 3, m)):
        chi = _basis_triple(mesh, k, (row_field + 1) % 3, e, l)
        got = bilinear_form(triple, chi, problem, mesh, k, quad_bf)
        assert got == pytest.approx(system.rhs[row], abs=1e-10 * scale)
        assert abs(got - a_x[row]) <= 1e-14 * a_scale
        if dense is not None:
            for col, (ec, col_field, mode) in enumerate(np.ndindex(n, 3, m)):
                trial = _basis_triple(mesh, k, col_field, ec, mode)
                entry = bilinear_form(trial, chi, problem, mesh, k, quad_bf)
                assert abs(entry - dense[row, col]) <= 1e-14 * a_max


def test_energy_identity():
    """B(W; (U, aP - Q, P)) equals the four-term energy norm squared."""
    for kind, k, eps, n in [(MeshKind.SHISHKIN, 1, 1e-4, 16),
                            (MeshKind.BAKHVALOV, 2, 1e-8, 32)]:
        case, mesh, w, _rec = solve_and_measure(kind, k, eps, n)
        chi = (w.U, PiecewisePoly(mesh, k, w.P.coeffs - w.Q.coeffs), w.P)   # a = 1
        b_val = bilinear_form((w.U, w.P, w.Q), chi, case.problem, mesh, k)
        en2 = energy_norm(w, case.problem) ** 2
        assert abs(b_val - en2) <= 1e-10 * en2


def test_galerkin_orthogonality():
    """B(w - W; chi) vanishes for discrete chi when w is the exact triple
    (evaluated by quadrature at a gentle eps)."""
    eps = 0.25
    case = boundary_layer_case(eps)
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 8, eps, 2.5))
    k = 2
    w = solve_ldg(case.problem, mesh, k)
    exact = (case.exact_u, case.exact_p, case.exact_q)
    discrete = (w.U, w.P, w.Q)
    quad = gauss_quadrature(30)
    rng = np.random.default_rng(4)
    scale = max(abs(case.problem.f(np.linspace(0, 1, 64))).max(), 1.0)
    for _ in range(5):
        chi = tuple(PiecewisePoly(mesh, k, rng.standard_normal((8, k + 1)))
                    for _ in range(3))
        b_exact = bilinear_form(exact, chi, case.problem, mesh, k, quad)
        b_disc = bilinear_form(discrete, chi, case.problem, mesh, k, quad)
        assert abs(b_exact - b_disc) <= 1e-9 * scale


def test_bilinear_form_rejects_callable_test_functions():
    mesh = uniform_mesh(2)
    problem = unit_problem(0.1, _ones)
    zero = zero_poly(mesh, 0)
    with pytest.raises(TypeError):
        bilinear_form((zero, zero, zero), (zero, zero, _ones), problem, mesh, 0)


# -- outputs pinned across the per-row caching -------------------------------

# (kind, k, eps, N) -> SolveInfo and ErrorRecord fields, measured before the
# per-process caches (memoised case, block pattern, Legendre tables and
# basis traces) went in; the first row refines, the second is a k = 0 row
# whose float64 residual is already at the rounding floor, the third the
# Bakhvalov k = 3, eps = 1e-12, N = 512 row.
_PINNED = {
    (MeshKind.SHISHKIN, 2, 1e-12, 64): (
        (4.625789604462826e-10, 1.6773160576175885, 1.0, 1),
        (1.8518349960949452e-05, 1.3036958561546793e-06, 4.882914164001156e-06,
         3.0638645863700085e-10, 1.2522564242380529e-15, 2.5194714145828583e-05,
         0.0015574537512061874, 1.2128310935731124e-18, 2.384285073300311e-11,
         1.6996228853548822e-12, 3.1738681044500744e-10)),
    (MeshKind.BAKHVALOV_SHISHKIN, 0, 1e-8, 32): (
        (1.464295440068851e-11, 2.363005263377151, 1.0, 0),
        (0.24026426594684597, 0.0424951000700616, 0.11165251626401132,
         7.660865764880927e-06, 1.2245822624478814e-08, 0.2948043178373204,
         1.1545703034800825, 6.665162928390448e-09, 0.012466284388085313,
         0.0018058335299645496, 0.043454792907763926)),
    (MeshKind.BAKHVALOV, 3, 1e-12, 512): (
        (3.1571894916365627e-09, 0.5940308564595301, 1.0, 1),
        (1.0327766351639333e-10, 2.293948080557994e-12, 7.158853866632426e-12,
         6.088789337901046e-17, 1.2702936620645574e-15, 1.4566924448214285e-10,
         1.3609645448221755e-09, 9.261122461315157e-31, 5.124918868379804e-23,
         5.262197796295705e-24, 1.0609764393999154e-20)),
}


def _study_row(kind, k, eps, n):
    """A study row's system, solution and error record, as ``study`` runs it."""
    case = boundary_layer_case(eps)
    mesh = build_mesh(MeshSpec(kind, n, eps, k + 1.5, case.problem.alpha))
    system = assemble(case.problem, mesh, k)
    w = solve(system)
    rec = error_record(case.exact_u, case.exact_p, case.exact_q, w, case.problem,
                       gauss_quadrature(20))
    return system, w, rec


@pytest.mark.parametrize("row", list(_PINNED), ids=lambda r: f"{r[0].value}-k{r[1]}-{r[2]:g}-N{r[3]}")
def test_study_rows_match_pinned_outputs(row):
    """SolveInfo and every ErrorRecord field equal the pinned values exactly."""
    _, w, rec = _study_row(*row)
    info, fields = _PINNED[row]
    assert dataclasses.astuple(w.info) == info
    assert dataclasses.astuple(rec) == fields


def _row_bytes(system, w, rec) -> tuple:
    a = system.matrix
    return (a.data.tobytes(), a.indices.tobytes(), a.indptr.tobytes(),
            system.rhs.tobytes(), w.U.coeffs.tobytes(), w.P.coeffs.tobytes(),
            w.Q.coeffs.tobytes(), dataclasses.astuple(w.info), dataclasses.astuple(rec))


@pytest.mark.parametrize("row", [(MeshKind.SHISHKIN, 2, 1e-12, 64),
                                 (MeshKind.BAKHVALOV, 1, 1e-8, 600)])
def test_row_is_the_same_with_cold_and_warm_caches(row, monkeypatch):
    """A row run with every per-process cache emptied and then again with
    them filled gives the same bytes of A, rhs and solution and the same
    SolveInfo and ErrorRecord; chunked so that the block pattern's three
    element runs fall in different chunks."""
    from ldglayer import basis, cases
    monkeypatch.setattr(solver, "_CHUNK", 7)
    for cached in (cases.boundary_layer_case, basis.gauss_quadrature):
        cached.cache_clear()
    cold = _row_bytes(*_study_row(*row))
    warm = _row_bytes(*_study_row(*row))
    assert cold == warm


def test_memoised_arrays_are_read_only():
    """Every array a per-process cache or a mesh holds refuses writes."""
    from ldglayer.basis import mesh_traces
    quad = gauss_quadrature(6)
    assert quad is gauss_quadrature(6)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 16, 1e-8, 2.5))
    held = [quad.nodes, quad.weights, *quad.legendre(3), *mesh_traces(mesh, 2),
            mesh.nodes, mesh.offsets, mesh.widths]
    held += [solver._FIELDS, solver._COLS, *solver._KEPT.values(), *solver._D_AT.values()]
    for arr in held:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    assert quad.legendre(3)[0] is quad.legendre(3)[0]
    assert mesh_traces(mesh, 2)[1] is mesh_traces(mesh, 2)[1]


def _absolute_products(monkeypatch) -> list:
    """Record each |A| |x| product ``_matvec`` forms."""
    calls = []
    matvec = solver._matvec

    def counted(*args, **kwargs):
        if kwargs.get("absolute"):
            calls.append(1)
        return matvec(*args, **kwargs)
    monkeypatch.setattr(solver, "_matvec", counted)
    return calls


def test_refining_row_forms_the_floor_before_and_after_refining(monkeypatch):
    """A refining row forms its floors and keeps its pinned SolveInfo."""
    calls = _absolute_products(monkeypatch)
    refining = (MeshKind.SHISHKIN, 2, 1e-12, 64)
    _, w, _ = _study_row(*refining)
    assert len(calls) == 2          # the floor before refining and after it
    assert dataclasses.astuple(w.info) == _PINNED[refining][0]


def test_nan_residual_still_raises_with_the_floor(monkeypatch):
    """A non-finite float64 residual is never taken for one at the floor:
    the floor is formed and the solve refuses with its message."""
    system = assemble(unit_problem(0.1, lambda x: np.sin(np.asarray(x))), uniform_mesh(8), 1)
    system.rhs[3] = np.nan
    calls = _absolute_products(monkeypatch)
    with pytest.raises(RuntimeError, match=r"non-finite or exceeds .* float64 floor"):
        solve(system)
    assert calls


def test_coupling_blocks_store_positive_zeros():
    """Where b vanishes or changes sign, a coupling block's one nonzero
    term is a signed zero; A stores it as +0, as the matrix product of the
    node factors does."""
    problem = Problem(a=_ones, b=lambda x: np.asarray(x) - 0.4, bprime=_ones,
                      c=lambda x: 2.0 + np.asarray(x), f=_ones, eps=0.05,
                      alpha=1.0, gamma=1.0)
    for k in range(4):
        data = assemble(problem, uniform_mesh(10), k).matrix.data
        assert (data == 0.0).any()
        assert not (np.signbit(data) & (data == 0.0)).any()
