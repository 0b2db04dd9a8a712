"""Verification oracles, which no pipeline stage reads: the compact bilinear
form and its fluxes (``bilinear_form`` never reads the assembled matrix, so
it is the independent oracle for ``assemble``), the Gauss-Radau projections
and their errors, the auxiliary-variable identity of the paper's proofs, a
cubic consistency case, and a forced refinement of the condensed solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ldglayer.basis import (PiecewisePoly, Quadrature, element_moments, element_weights,
                            gauss_quadrature, mesh_traces, node_values, quad_offsets,
                            quad_points, sample)
from ldglayer.cases import _ONE, _ZERO, TestCase, boundary_layer_case
from ldglayer.errors import ERROR_QUAD_POINTS, _error_jumps, _linf_fine
from ldglayer.meshes import Mesh
from ldglayer.solver import (BlockSystem, LdgSolution, Problem, _Condensed, _matvec,
                             energy_parts, solve_ldg, upwind_split)


def zero_poly(mesh: Mesh, k: int) -> PiecewisePoly:
    return PiecewisePoly(mesh, k, np.zeros((mesh.n_elements, k + 1)))


def deriv_values_at(v: PiecewisePoly, quad: Quadrature) -> np.ndarray:
    """Derivative values of v at the quadrature points, (N, nq)."""
    scaled = v.coeffs * v.scale * (2.0 / v.mesh.widths[:, None])
    return np.einsum("em,mq->eq", scaled, quad.legendre(v.k)[1])


def derivative(v: PiecewisePoly) -> PiecewisePoly:
    """Element-wise derivative of v, expanded in the same basis (degree k)."""
    m = v.k + 1
    pair = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            if b > a and (b - a) % 2 == 1:
                pair[a, b] = 2.0 * math.sqrt((2 * a + 1) * (2 * b + 1))
    dcoeffs = np.einsum("ab,eb->ea", pair, v.coeffs) / v.mesh.widths[:, None]
    return PiecewisePoly(v.mesh, v.k, dcoeffs)


def l2(v: PiecewisePoly) -> float:
    """Global L2 norm (orthonormal basis: Euclidean coefficient norm)."""
    return float(np.sqrt((v.coeffs**2).sum()))


class ProjectionSign(Enum):
    """Endpoint collocated by the Gauss-Radau projection."""

    MINUS = "minus"  # collocates the right endpoint of each element
    PLUS = "plus"    # collocates the left endpoint of each element


def project_gauss_radau(sign: ProjectionSign, f, mesh: Mesh, k: int,
                        quad: Quadrature | None = None) -> PiecewisePoly:
    """Local Gauss-Radau projection of f onto degree-k piecewise polynomials.

    On each element the result matches the first k moments of f and
    collocates f exactly at one endpoint: the right one for MINUS, the left
    one for PLUS.  For k = 0 there are no moment conditions and the
    projection is endpoint interpolation.

    Each element solves a (k+1)x(k+1) system (k identity moment rows plus
    one collocation row); a singular system is impossible for positive
    widths but numpy's solve still guards the pivots.
    """
    if quad is None:
        quad = gauss_quadrature(k + 3)
    n = mesh.n_elements
    m = k + 1
    moments = element_moments(f, mesh, k, quad)

    left, right = mesh_traces(mesh, k)
    if sign is ProjectionSign.MINUS:
        trace_row, fvals = right, node_values(f, mesh)[1:]
    elif sign is ProjectionSign.PLUS:
        trace_row, fvals = left, node_values(f, mesh)[:-1]
    else:
        raise ValueError(f"unknown projection sign {sign!r}")

    system = np.zeros((n, m, m))
    rhs = np.empty((n, m))
    for l in range(k):
        system[:, l, l] = 1.0
        rhs[:, l] = moments[:, l]
    system[:, k, :] = trace_row
    rhs[:, k] = fvals
    coeffs = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    return PiecewisePoly(mesh, k, coeffs)


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
    ERROR_QUAD_POINTS Gauss points per element.  The misfits exact -
    projection are sampled at the quadrature points, exact functions with
    one eps sharing one layer factor."""
    quad = gauss_quadrature(ERROR_QUAD_POINTS)
    if case is None:
        case = boundary_layer_case(eps)
    exact = (case.exact_u, case.exact_p, case.exact_q)
    proj_u = project_gauss_radau(ProjectionSign.MINUS, case.exact_u, mesh, k, quad)
    proj_p = project_gauss_radau(ProjectionSign.PLUS, case.exact_p, mesh, k, quad)
    proj_q = project_gauss_radau(ProjectionSign.PLUS, case.exact_q, mesh, k, quad)
    hw, x, omx = element_weights(mesh, quad), quad_points(mesh, quad), quad_offsets(mesh, quad)
    layers = {}
    eu, ep, eq = (sample(f, x, omx, layers) - proj.values_at(quad)
                  for f, proj in zip(exact, (proj_u, proj_p, proj_q)))
    l2_u, l2_p, l2_q = (math.sqrt((hw * d**2).sum()) for d in (eu, ep, eq))
    ends_u, ends_p, ends_q = (node_values(f, mesh) for f in exact)
    return ProjectionErrors(
        l2_u=l2_u, l2_p=l2_p, l2_q=l2_q,
        linf_p_fine=_linf_fine(ends_p, proj_p, ep),
        linf_q_fine=_linf_fine(ends_q, proj_q, eq),
        jump_u=math.sqrt((_error_jumps(ends_u, proj_u) ** 2).sum()),
        jump_p=math.sqrt((_error_jumps(ends_p, proj_p) ** 2).sum()),
    )


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
    xi_p = PiecewisePoly(mesh, k, solution.P.coeffs - proj_p.coeffs)
    xi_q = PiecewisePoly(mesh, k, solution.Q.coeffs - proj_q.coeffs)

    lhs = (xi_q.coeffs**2).sum(axis=1)

    t_vol = -eps * (xi_p.coeffs * derivative(xi_q).coeffs).sum(axis=1)

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


def flux_table(problem: Problem, mesh: Mesh, u, p, q) -> tuple[np.ndarray, ...]:
    """Numerical fluxes (Uhat, Phat, Qhat, Ptilde, bU) at nodes 0..N, as the
    ``ldglayer.solver`` docstring states them.

    ``u``, ``p`` and ``q`` are trace pairs (v^-, v^+) with v^- at nodes
    1..N and v^+ at nodes 0..N-1.
    """
    (u_m, u_p), (p_m, p_p), (q_m, q_p) = u, p, q
    b_up, b_dn = upwind_split(node_values(problem.b, mesh))
    zero = np.zeros(1)
    return (np.concatenate([zero, u_m[:-1], zero]),
            np.concatenate([p_p, zero]),
            np.concatenate([q_p, q_m[-1:]]),
            np.concatenate([p_p, p_m[-1:]]),
            b_up * np.concatenate([zero, u_m]) + b_dn * np.concatenate([u_p, zero]))


def _on_mesh(obj, mesh: Mesh, quad: Quadrature):
    """Quadrature values and trace pair (v^-, v^+) of a PiecewisePoly or a
    callable (sampled offset-aware)."""
    if isinstance(obj, PiecewisePoly):
        return obj.values_at(quad), (obj.trace_minus_all(), obj.trace_plus_all())
    ends = node_values(obj, mesh)
    return sample(obj, quad_points(mesh, quad), quad_offsets(mesh, quad)), (ends[1:], ends[:-1])


def bilinear_form(w, chi, problem: Problem, mesh: Mesh, k: int,
                  quad: Quadrature | None = None) -> float:
    """Evaluate the compact-form LDG functional B(w; chi).

    ``w`` is a triple (U, P, Q) of PiecewisePoly or plain callables (exact
    solutions are admitted for orthogonality checks); ``chi`` is a triple
    (v, r, s) of PiecewisePoly, whose derivatives are taken exactly.  The
    volume terms are integrated by quadrature and every node j = 0..N
    contributes its ``flux_table`` entries times the test jumps [chi]_j of
    ``PiecewisePoly.jumps``.
    """
    if quad is None:
        quad = gauss_quadrature(max(k + 3, 10))
    v, r, s = chi
    for part in chi:
        if not isinstance(part, PiecewisePoly):
            raise TypeError("test triple chi must consist of PiecewisePoly")

    hw = element_weights(mesh, quad)
    x = quad_points(mesh, quad)
    aq, bq, cq, bpq = problem.at(x)
    (u_vals, u_tr), (p_vals, p_tr), (q_vals, q_tr) = (
        _on_mesh(part, mesh, quad) for part in w)
    uhat, phat, qhat, ptilde, bu = flux_table(problem, mesh, u_tr, p_tr, q_tr)
    an = node_values(problem.a, mesh)
    v_vals, r_vals, s_vals = (part.values_at(quad) for part in chi)
    dv, dr, ds = (deriv_values_at(part, quad) for part in chi)

    def integ(fa: np.ndarray, fb: np.ndarray, weight=1.0) -> float:
        return float((hw * weight * fa * fb).sum())

    total = integ(p_vals, r_vals) + integ(u_vals, dr) + float(uhat @ r.jumps())
    total += integ(q_vals, s_vals)
    total += problem.eps * (integ(p_vals, ds) + float(phat @ s.jumps()))
    total += (integ(p_vals, dv, aq) - integ(q_vals, dv) - integ(u_vals, dv, bq)
              + integ(u_vals, v_vals, cq - bpq))
    total += float((an * ptilde - qhat - bu) @ v.jumps())
    return total


def energy_norm(w: LdgSolution, problem: Problem) -> float:
    """Scheme-induced energy norm of a discrete triple: the root of the sum
    of ``energy_parts`` over max(k+3, 10) Gauss points per element, jumps
    running over all nodes j = 0..N with the boundary convention of
    ``PiecewisePoly.jumps``."""
    quad = gauss_quadrature(max(w.U.k + 3, 10))
    mesh = w.U.mesh
    parts = energy_parts(problem, mesh, element_weights(mesh, quad),
                         quad_points(mesh, quad), w.P.values_at(quad),
                         w.U.values_at(quad), w.P.jumps(), w.U.jumps())
    return math.sqrt(sum(parts))


def polynomial_case(eps: float) -> TestCase:
    """Cubic u = x (1-x)^2 with unit coefficients (consistency oracle).

    Satisfies u(0) = u(1) = u'(1) = 0; a degree >= 3 scheme reproduces it to
    roundoff, which pins down flux signs and boundary handling.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    def u(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x) ** 2

    def p(x):
        x = np.asarray(x, dtype=float)
        return 1.0 - 4.0 * x + 3.0 * x * x

    def q(x):
        x = np.asarray(x, dtype=float)
        return eps * (6.0 * x - 4.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        return 6.0 * eps + 5.0 - 9.0 * x + x * x + x**3

    problem = Problem(a=_ONE, b=_ONE, bprime=_ZERO, c=_ONE, f=f,
                      eps=eps, alpha=1.0, gamma=1.0)
    return TestCase(name=f"cubic(eps={eps:g})", eps=eps, problem=problem,
                    exact_u=u, exact_p=p, exact_q=q)


def fit_rate(xs, errs) -> float:
    """Least-squares slope of log(err) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if xs.size != errs.size or xs.size < 2:
        raise ValueError("need at least two matching samples")
    return float(np.polyfit(np.log(xs), np.log(errs), 1)[0])


def refined_solution(system: BlockSystem) -> LdgSolution:
    """The condensed solve of ``system`` refined with stop line 0: each step
    corrects x by the condensed solve of its long-double residual against
    the assembled A, at most 4 steps, and a step that does not lower that
    residual's norm is undone and ends the refinement."""
    lu = _Condensed(system)
    a, b = system.matrix, system.rhs
    x, r = lu.x, np.empty_like(lu.x)
    r_inf = _matvec(a, x, b, dtype=np.longdouble, out=r)
    for _ in range(4):
        x_new, r_new = x + lu.solve(r), np.empty_like(x)
        r_new_inf = _matvec(a, x_new, b, dtype=np.longdouble, out=r_new)
        if not r_new_inf < r_inf:
            break
        x, r, r_inf = x_new, r_new, r_new_inf
    fields = x.reshape(system.mesh.n_elements, 3, system.k + 1).transpose(1, 0, 2)
    return LdgSolution(*(PiecewisePoly(system.mesh, system.k, v.copy()) for v in fields))
