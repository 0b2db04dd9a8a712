"""Energy/L2/Linf error measures, convergence rates, and identity checks.

The energy norm of the error e = (u - U, p - P, q - Q) is the scheme-induced
norm's ``energy_parts`` applied to e.  Its jumps are -[v]_j of
``PiecewisePoly.jumps`` plus the exact boundary values, since the exact
functions are continuous ([e]_0 = e_0^+, [e]_N = -e_N^-).  Exact node
values (``basis.node_values``) feed the jumps and the fine-region max norm,
and inner products with exact functions use ``basis.element_moments``.

Error quadrature defaults to 20 Gauss points per element; layer-adapted
meshes resolve the layer factor within each fine element (the tests check
that doubling the points to 40 moves the energy error by less than 1e-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (PiecewisePoly, ProjectionSign, Quadrature, element_moments,
                    element_weights, gauss_quadrature, node_values,
                    project_gauss_radau, quad_offsets, quad_points, sample)
from .cases import TestCase, boundary_layer_case
from .meshes import Mesh
from .solver import LdgSolution, Problem, energy_parts, solve_ldg

ERROR_QUAD_POINTS = 20


@dataclass(frozen=True)
class ErrorRecord:
    """Error measures of one solved case.

    ``energy`` is the square root of the sum of the four stored parts
    (eps-weighted P jumps, a-weighted P misfit, (c-b'/2)-weighted U misfit,
    b-weighted U jumps); ``jump_u`` / ``jump_p`` are the unweighted jump-sum
    roots.
    """

    energy: float
    l2_u: float
    l2_p: float
    l2_q: float
    linf_u_fine: float
    jump_u: float
    jump_p: float
    part_p_jump: float
    part_p_l2: float
    part_u_l2: float
    part_u_jump: float


def _error_jumps(ends: np.ndarray, v: PiecewisePoly) -> np.ndarray:
    """[exact - v]_j for j = 0..N from the exact function's ``node_values``
    ``ends``: the exact function is continuous, so only its boundary values
    add to -[v]_j."""
    out = -v.jumps()
    out[0] += ends[0]
    out[-1] -= ends[-1]
    return out


def _misfits(exact: tuple, v: tuple, quad: Quadrature) -> tuple:
    """What both error suites read of three pairs of an exact function and
    a PiecewisePoly on one mesh: the weights hw and points x of ``quad`` on
    every element, the misfits exact - v at x, their L2 norms and the exact
    functions' ``node_values``.  Exact functions with one eps share one
    layer factor."""
    mesh = v[0].mesh
    hw, x, omx = element_weights(mesh, quad), quad_points(mesh, quad), quad_offsets(mesh, quad)
    layers = {}
    diffs = [sample(f, x, omx, layers) - poly.values_at(quad) for f, poly in zip(exact, v)]
    return (hw, x, diffs, [math.sqrt((hw * d**2).sum()) for d in diffs],
            [node_values(f, mesh) for f in exact])


def _linf_fine(ends: np.ndarray, v: PiecewisePoly, diff: np.ndarray) -> float:
    """Max |exact - v| over the fine region: the quadrature-point misfits
    ``diff`` plus the element endpoints, against the exact function's
    ``node_values`` ``ends``."""
    fine = slice(v.mesh.n_coarse, None)
    lefts = np.abs(ends[:-1][fine] - v.trace_plus_all()[fine])
    rights = np.abs(ends[1:][fine] - v.trace_minus_all()[fine])
    return float(max(np.abs(diff[fine]).max(), lefts.max(), rights.max()))


def error_record(exact_u, exact_p, exact_q, w: LdgSolution, problem: Problem,
                 quad: Quadrature | None = None) -> ErrorRecord:
    """All error measures of a solved case against the exact triple."""
    if quad is None:
        quad = gauss_quadrature(ERROR_QUAD_POINTS)
    hw, x, (eu, ep, _), (l2_u, l2_p, l2_q), (ends_u, ends_p, _) = _misfits(
        (exact_u, exact_p, exact_q), (w.U, w.P, w.Q), quad)
    jumps_p = _error_jumps(ends_p, w.P)
    jumps_u = _error_jumps(ends_u, w.U)
    parts = energy_parts(problem, w.U.mesh, hw, x, ep, eu, jumps_p, jumps_u)

    return ErrorRecord(
        energy=math.sqrt(sum(parts)),
        l2_u=l2_u, l2_p=l2_p, l2_q=l2_q,
        linf_u_fine=_linf_fine(ends_u, w.U, eu),
        jump_u=math.sqrt((jumps_u**2).sum()),
        jump_p=math.sqrt((jumps_p**2).sum()),
        part_p_jump=parts[0],
        part_p_l2=parts[1],
        part_u_l2=parts[2],
        part_u_jump=parts[3],
    )


# ---------------------------------------------------------------------------
# Convergence rates
# ---------------------------------------------------------------------------

def rate_r2(e_n: float, e_2n: float) -> float:
    """log2 error-ratio rate between N and 2N elements."""
    if e_n <= 0.0 or e_2n <= 0.0:
        raise ValueError("errors must be positive")
    return math.log(e_n / e_2n) / math.log(2.0)


def rate_rs(e_n: float, e_2n: float, n: int) -> float:
    """Rate with respect to the logarithmic factor: the N -> 2N error ratio
    measured against log(2 ln N / ln 2N)."""
    if e_n <= 0.0 or e_2n <= 0.0:
        raise ValueError("errors must be positive")
    if n < 4:
        raise ValueError(f"N must be >= 4, got {n}")
    return math.log(e_n / e_2n) / math.log(2.0 * math.log(n) / math.log(2 * n))


def fit_rate(xs, errs) -> float:
    """Least-squares slope of log(err) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if xs.size != errs.size or xs.size < 2:
        raise ValueError("need at least two matching samples")
    return float(np.polyfit(np.log(xs), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# Gauss-Radau approximation-error suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionErrors:
    """The seven approximation-error measures of the projection triple."""

    l2_u: float          # ||u - proj_minus u||
    l2_p: float          # ||p - proj_plus p||
    l2_q: float          # ||q - proj_plus q||
    linf_p_fine: float
    linf_q_fine: float
    jump_u: float        # sqrt(sum_j [u - proj_minus u]_j^2)
    jump_p: float        # sqrt(sum_j [p - proj_plus p]_j^2)


def projection_error_suite(mesh: Mesh, k: int, eps: float,
                           case: TestCase | None = None) -> ProjectionErrors:
    """Approximation errors of the Gauss-Radau projections for the benchmark
    layer case (or an explicit case) on the given mesh, with
    ERROR_QUAD_POINTS Gauss points per element."""
    quad = gauss_quadrature(ERROR_QUAD_POINTS)
    if case is None:
        case = boundary_layer_case(eps)
    proj_u = project_gauss_radau(ProjectionSign.MINUS, case.exact_u, mesh, k, quad)
    proj_p = project_gauss_radau(ProjectionSign.PLUS, case.exact_p, mesh, k, quad)
    proj_q = project_gauss_radau(ProjectionSign.PLUS, case.exact_q, mesh, k, quad)
    _, _, (_, ep, eq), (l2_u, l2_p, l2_q), (ends_u, ends_p, ends_q) = _misfits(
        (case.exact_u, case.exact_p, case.exact_q), (proj_u, proj_p, proj_q), quad)
    return ProjectionErrors(
        l2_u=l2_u, l2_p=l2_p, l2_q=l2_q,
        linf_p_fine=_linf_fine(ends_p, proj_p, ep),
        linf_q_fine=_linf_fine(ends_q, proj_q, eq),
        jump_u=math.sqrt((_error_jumps(ends_u, proj_u) ** 2).sum()),
        jump_p=math.sqrt((_error_jumps(ends_p, proj_p) ** 2).sum()),
    )


# ---------------------------------------------------------------------------
# Local identity for the auxiliary variable
# ---------------------------------------------------------------------------

def auxiliary_identity_residuals(case: TestCase, mesh: Mesh, k: int,
                                 solution: LdgSolution | None = None) -> np.ndarray:
    """Element-wise check of the local relation satisfied by X = P - proj(p),
    Y = Q - proj(q):

        ||Y||_j^2 = eps * (<X', Y>_j + Y_j^- [X]_j) + <q - proj(q), Y>_j,

    with [X]_N = -X_N^- on the last element.  The relation follows from the
    scheme's second equation combined with the moment and collocation
    properties of the plus-side Gauss-Radau projection.

    Evaluation notes keeping this closed at roundoff level: the volume and
    jump pair is evaluated in the integration-by-parts-equivalent grouping

        -eps <X, Y'>_j + eps (Xhat_j Y_j^- - Xhat_{j-1} Y_{j-1}^+),

    where Xhat are the plus-side traces with the projection's endpoint
    collocation applied exactly (Xhat_j = P_j^+ - p(x_j), Xhat_N = 0);
    summing rounded projection coefficients instead would reintroduce the
    eps_machine * |p| collocation defect, amplified by eps/h.  The
    projections share one integration rule with the <q - proj(q), Y> term.

    Returns |lhs - rhs| / (|lhs| + sum |rhs terms|) per element, the
    denominator floored at machine epsilon times its global maximum so that
    elements whose terms consist purely of solver roundoff dust are measured
    against the relation's actual scale.
    """
    quad = gauss_quadrature(ERROR_QUAD_POINTS)
    if solution is None:
        solution = solve_ldg(case.problem, mesh, k)
    eps = case.eps

    proj_p = project_gauss_radau(ProjectionSign.PLUS, case.exact_p, mesh, k, quad)
    proj_q = project_gauss_radau(ProjectionSign.PLUS, case.exact_q, mesh, k, quad)
    xi_p = solution.P - proj_p
    xi_q = solution.Q - proj_q

    lhs = (xi_q.coeffs**2).sum(axis=1)

    dxq = xi_q.derivative()
    t_vol = -eps * (xi_p.coeffs * dxq.coeffs).sum(axis=1)

    # nodes 0..N-1; Xhat_N = 0
    xhat = solution.P.trace_plus_all() - node_values(case.exact_p, mesh)[:-1]
    y_minus = xi_q.trace_minus_all()
    y_plus = xi_q.trace_plus_all()
    xhat_right = np.append(xhat[1:], 0.0)
    t_flux = eps * (xhat_right * y_minus - xhat * y_plus)

    t_eta = ((element_moments(case.exact_q, mesh, k, quad) - proj_q.coeffs)
             * xi_q.coeffs).sum(axis=1)

    denom = np.abs(lhs) + np.abs(t_vol) + np.abs(t_flux) + np.abs(t_eta)
    denom = denom + np.finfo(float).eps * denom.max() + 1e-300
    return np.abs(lhs - t_vol - t_flux - t_eta) / denom
