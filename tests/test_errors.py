import math

import numpy as np
import pytest

from ldglayer.basis import PiecewisePoly, gauss_quadrature
from ldglayer.cases import boundary_layer_case
from ldglayer.errors import error_record, rate_r2, rate_rs
from ldglayer.meshes import MeshKind, MeshSpec, build_mesh, uniform_mesh
from ldglayer.solver import LdgSolution, Problem

from conftest import solve_and_measure
from oracles import (ProjectionErrors, ProjectionSign, auxiliary_identity_residuals, fit_rate,
                     polynomial_case, project_gauss_radau, projection_error_suite, zero_poly)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


UNIT_PROBLEM = Problem(a=_ones, b=_ones, bprime=_zeros, c=_ones, f=_zeros,
                       eps=0.1, alpha=1.0, gamma=1.0)


def constant_solution(mesh, k, u_value):
    coeffs = np.zeros((mesh.n_elements, k + 1))
    coeffs[:, 0] = u_value * np.sqrt(mesh.widths)
    return LdgSolution(U=PiecewisePoly(mesh, k, coeffs),
                       P=zero_poly(mesh, k), Q=zero_poly(mesh, k))


def u_record(exact, v):
    """``error_record`` of v as the U field against ``exact``, with P = Q = 0
    against zero."""
    zero = zero_poly(v.mesh, v.k)
    return error_record(exact, _zeros, _zeros, LdgSolution(v, zero, zero),
                        UNIT_PROBLEM)


def test_energy_of_unit_constant_is_sqrt_two():
    # exact solution 0, U = 1, P = Q = 0, a = b = c = 1: the volume term
    # contributes 1 and the two boundary u-jumps contribute 1/2 each.
    mesh = uniform_mesh(4)
    w = constant_solution(mesh, 1, 1.0)
    e = error_record(_zeros, _zeros, _zeros, w, UNIT_PROBLEM).energy
    assert e == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_energy_zero_for_projected_polynomial_solution():
    case = polynomial_case(0.25)
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 8, 0.01, 4.5))
    w = LdgSolution(
        U=project_gauss_radau(ProjectionSign.MINUS, case.exact_u, mesh, 3),
        P=project_gauss_radau(ProjectionSign.PLUS, case.exact_p, mesh, 3),
        Q=project_gauss_radau(ProjectionSign.PLUS, case.exact_q, mesh, 3))
    e = error_record(case.exact_u, case.exact_p, case.exact_q, w,
                     case.problem).energy
    assert e <= 1e-10


def test_energy_homogeneity():
    mesh = uniform_mesh(4)
    w1 = constant_solution(mesh, 1, 1.0)
    w3 = constant_solution(mesh, 1, 3.0)
    e1 = error_record(_zeros, _zeros, _zeros, w1, UNIT_PROBLEM).energy
    e3 = error_record(_zeros, _zeros, _zeros, w3, UNIT_PROBLEM).energy
    assert e3 == pytest.approx(3.0 * e1, rel=1e-13)


def test_energy_record_bookkeeping():
    _case, _mesh, _w, rec = solve_and_measure(MeshKind.SHISHKIN, 1, 1e-4, 16)
    total = (rec.part_p_jump + rec.part_p_l2 + rec.part_u_l2 + rec.part_u_jump)
    assert rec.energy**2 == pytest.approx(total, rel=1e-12)
    assert rec.l2_u > 0 and rec.l2_p > 0 and rec.l2_q > 0
    assert rec.linf_u_fine > 0


def test_l2_error_of_exact_polynomial():
    mesh = uniform_mesh(3)
    coeffs = np.zeros((3, 2))
    coeffs[:, 0] = 2.0 * np.sqrt(mesh.widths)
    v = PiecewisePoly(mesh, 1, coeffs)   # v = 2
    assert u_record(lambda x: 2.0 * _ones(x), v).l2_u <= 1e-13


def test_l2_error_unit_constant():
    v = zero_poly(uniform_mesh(4), 1)
    assert u_record(_ones, v).l2_u == pytest.approx(1.0, rel=1e-13)


def test_linf_fine_unit_constant():
    v = zero_poly(uniform_mesh(4), 1)
    assert u_record(_ones, v).linf_u_fine == pytest.approx(1.0, rel=1e-13)


# -- rates -----------------------------------------------------------------

def test_rate_r2_examples():
    assert rate_r2(4e-2, 1e-2) == pytest.approx(2.0, rel=1e-14)
    assert round(rate_r2(2.40e-01, 1.56e-01), 2) == 0.62
    assert round(rate_r2(1.76e-06, 1.52e-07), 2) == 3.53


def test_rate_rs_examples():
    assert round(rate_rs(2.57e-02, 8.71e-03, 16), 2) == 2.30
    assert round(rate_rs(3.01e-03, 1.05e-03, 64), 2) == 1.95
    assert rate_rs(5e-3, 5e-3, 32) == 0.0


def test_rate_validation():
    with pytest.raises(ValueError):
        rate_r2(0.0, 1e-3)
    with pytest.raises(ValueError):
        rate_r2(1e-3, -1e-3)
    with pytest.raises(ValueError):
        rate_rs(1e-2, 1e-3, 2)


def test_rates_scale_invariant():
    assert rate_r2(3e-4, 1e-4) == pytest.approx(rate_r2(3e2, 1e2), rel=1e-13)
    assert rate_rs(3e-4, 1e-4, 32) == pytest.approx(rate_rs(3e2, 1e2, 32),
                                                    rel=1e-13)


def test_fit_rate_recovers_power_law():
    ns = np.array([16, 32, 64, 128])
    errs = 3.7 * ns**-2.5
    assert fit_rate(ns, errs) == pytest.approx(-2.5, abs=1e-12)


def test_energy_anchor_k2_moderate_eps():
    # frozen benchmark value 9.31e-07: Shishkin mesh, k=2, eps=1e-4, N=256
    _case, _mesh, _w, rec = solve_and_measure(MeshKind.SHISHKIN, 2, 1e-4, 256)
    assert rec.energy == pytest.approx(9.31e-7, rel=0.05)


def test_energy_monotone_in_n():
    for kind in MeshKind:
        errs = [solve_and_measure(kind, 1, 1e-4, n)[3].energy
                for n in (16, 32, 64, 128)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


# -- projection suite ------------------------------------------------------

def test_projection_suite_exact_for_polynomials():
    case = polynomial_case(1e-4)
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 16, 1e-4, 4.5))
    pe = projection_error_suite(mesh, 3, 1e-4, case=case)
    assert max(pe.l2_u, pe.l2_p, pe.l2_q, pe.linf_p_fine, pe.linf_q_fine,
               pe.jump_u, pe.jump_p) <= 1e-12


def test_projection_suite_layer_rate():
    # approximation error of the u-projection decays at (ln N / N)^(k+1)
    k, eps = 1, 1e-8
    xs, errs, jumps = [], [], []
    for n in (32, 64, 128, 256):
        mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, n, eps, k + 1.5))
        pe = projection_error_suite(mesh, k, eps)
        xs.append(math.log(n) / n)
        errs.append(pe.l2_u)
        jumps.append(pe.jump_u)
    assert fit_rate(xs, errs) >= k + 0.9
    assert -fit_rate([32, 64, 128, 256], jumps) >= k + 0.4


def test_projection_suite_pinned_values():
    # frozen bit for bit: any change in the order or form of the misfits,
    # the L2 sums, the fine-region max norms or the jump sums shows here
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 64, 1e-8, 2.5))
    assert projection_error_suite(mesh, 1, 1e-8) == ProjectionErrors(
        l2_u=0.0002673795718500663, l2_p=0.0005203779190693566,
        l2_q=4.423477626890522e-07, linf_p_fine=0.014995953644829862,
        linf_q_fine=0.01499595364482964, jump_u=0.004151662543994904,
        jump_p=0.023142024278977876)


# -- quadrature self-check and identity ------------------------------------

def test_energy_quadrature_drift_small():
    for kind, k, eps, n in [(MeshKind.SHISHKIN, 1, 1e-4, 32),
                            (MeshKind.BAKHVALOV, 2, 1e-8, 64),
                            (MeshKind.BAKHVALOV_SHISHKIN, 3, 1e-12, 32)]:
        case, _mesh, w, _rec = solve_and_measure(kind, k, eps, n)
        e20, e40 = (error_record(case.exact_u, case.exact_p, case.exact_q, w,
                                 case.problem, gauss_quadrature(points)).energy
                    for points in (20, 40))
        drift = abs(e20 - e40) / max(e40, 1e-300)
        assert drift < 1e-3


def test_auxiliary_identity_pinned_case(layer_solution_s_k1):
    case, mesh, solution = layer_solution_s_k1
    res = auxiliary_identity_residuals(case, mesh, 1, solution=solution)
    assert res.max() <= 1e-10


def test_auxiliary_identity_absolute_scale():
    """On configurations where the relation's terms sit near roundoff, check
    the mismatch against the relation's global scale instead."""
    for kind, k, eps, n in [(MeshKind.SHISHKIN, 2, 1e-4, 64),
                            (MeshKind.BAKHVALOV, 1, 1e-8, 32)]:
        case = boundary_layer_case(eps)
        mesh = build_mesh(MeshSpec(kind, n, eps, k + 1.5))
        res = auxiliary_identity_residuals(case, mesh, k)
        # deviations are measured against per-element scales floored at
        # machine epsilon times the global scale
        assert res.max() <= 1e-4
