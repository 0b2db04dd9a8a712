"""Energy/L2/Linf error measures and convergence rates.

The energy norm of the error e = (u - U, p - P, q - Q) is the scheme-induced
norm's ``energy_parts`` applied to e.  Its jumps are -[v]_j of
``PiecewisePoly.jumps`` plus the exact boundary values, since the exact
functions are continuous ([e]_0 = e_0^+, [e]_N = -e_N^-).  Exact node
values (``basis.node_values``) feed the jumps and the fine-region max norm.

Error quadrature defaults to 20 Gauss points per element; layer-adapted
meshes resolve the layer factor within each fine element (the tests check
that doubling the points to 40 moves the energy error by less than 1e-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (PiecewisePoly, Quadrature, element_weights, gauss_quadrature,
                    node_values, quad_offsets, quad_points, sample)
from .solver import LdgSolution, Problem, energy_parts

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
    # Misfits at the quadrature points; exact functions with one eps share a layer factor.
    mesh = w.U.mesh
    hw, x, omx = element_weights(mesh, quad), quad_points(mesh, quad), quad_offsets(mesh, quad)
    layers = {}
    eu, ep, eq = (sample(f, x, omx, layers) - v.values_at(quad)
                  for f, v in ((exact_u, w.U), (exact_p, w.P), (exact_q, w.Q)))
    l2_u, l2_p, l2_q = (math.sqrt((hw * d**2).sum()) for d in (eu, ep, eq))
    ends_u, ends_p = node_values(exact_u, mesh), node_values(exact_p, mesh)
    jumps_p = _error_jumps(ends_p, w.P)
    jumps_u = _error_jumps(ends_u, w.U)
    parts = energy_parts(problem, mesh, hw, x, ep, eu, jumps_p, jumps_u)

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
