"""LDG discretisation of  eps u''' - (a u')' + b u' + c u = f  on (0, 1).

The third-order equation is rewritten as the first-order system p = u',
q = eps p', q' - (a p)' + b u' + c u = f and discretised element by element
with discontinuous piecewise polynomials (U, P, Q).  Interface values are
replaced by one-sided numerical fluxes: upwind for the convective term,
alternating one-sided pairs for the diffusive and dispersive terms, and
boundary values chosen to enforce u(0) = u(1) = u'(1) = 0 weakly:

    interior j:  Uhat = U^-,  Phat = P^+,  Qhat = Q^+,  Ptilde = P^+,
                 bU = (b+|b|)/2 U^- + (b-|b|)/2 U^+
    j = 0:       Uhat = 0, Phat = P^+, Qhat = Q^+, Ptilde = P^+,
                 bU = (b-|b|)/2 U^+
    j = N:       Uhat = 0, Phat = 0, Qhat = Q^-, Ptilde = P^-,
                 bU = (b+|b|)/2 U^-

``flux_table`` is the one vectorised statement of these rules;
``flux_values`` reads one node from it and ``bilinear_form`` tests the
fluxes against the jumps of the test functions.  ``assemble`` writes the
same rules out a second time as matrix blocks, and ``bilinear_form``, which
never looks at the matrix, is the independent oracle those blocks are tested
against.  Coefficients are sampled only through ``Problem.at`` (all four)
or ``_sample`` (one), and the four terms of the energy norm live in
``energy_parts``.

The resulting linear system is block tridiagonal with 3(k+1) unknowns per
element.  ``assemble`` writes its CSC arrays directly: column (c, field,
mode) holds, in ascending row order, that mode's column of a fixed list of
blocks of elements c-1, c and c+1, so the pattern follows from (N, k) alone
and each block is copied once, transposed, into its slot.  The system is
solved by a sparse direct LU factorisation with partial pivoting, followed
by extended-precision iterative refinement that stops once the residual
meets the advertised tolerance or reaches the float64 rounding floor
eps_mach * || |A| |x| ||_inf, below which no float64-stored solution can go.
The long-double residuals and the floor are accumulated by ``_matvec``,
which converts A a chunk of columns at a time rather than copying it whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .basis import (PiecewisePoly, Quadrature, basis_scale, element_moments,
                    element_values, element_weights, eval_fn, gauss_quadrature,
                    legendre_deriv_table, legendre_table, quad_points)
from .meshes import Mesh

RESIDUAL_RTOL = 1e-10
_MATVEC_CHUNK = 1 << 16     # columns of A converted at a time by _matvec
_VALIDATION_GRID = 2001


@dataclass(frozen=True)
class Problem:
    """Coefficients and data of the two-point boundary-value problem.

    Requires a(x) >= alpha > 0 and c(x) - b'(x)/2 >= gamma > 0; both are
    sampled on a dense grid at construction, and bprime is spot-checked
    against a central difference of b at fixed pseudo-random points.
    """

    a: Callable
    b: Callable
    bprime: Callable
    c: Callable
    f: Callable
    eps: float
    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.alpha <= 0.0 or self.gamma <= 0.0:
            raise ValueError("alpha and gamma must be positive")
        x = np.linspace(0.0, 1.0, _VALIDATION_GRID)
        av = np.asarray(self.a(x), dtype=float)
        if np.any(av < self.alpha - 1e-12):
            raise ValueError(f"a(x) dips below alpha={self.alpha}")
        cv = np.asarray(self.c(x), dtype=float) - 0.5 * np.asarray(self.bprime(x), dtype=float)
        if np.any(cv < self.gamma - 1e-12):
            raise ValueError(f"c(x) - b'(x)/2 dips below gamma={self.gamma}")
        rng = np.random.default_rng(20240601)
        xs = rng.uniform(0.05, 0.95, size=16)
        step = 1e-5
        fd = (np.asarray(self.b(xs + step)) - np.asarray(self.b(xs - step))) / (2 * step)
        bp = np.asarray(self.bprime(xs), dtype=float)
        if np.any(np.abs(bp - fd) > 1e-6 * (1.0 + np.abs(bp))):
            raise ValueError("bprime disagrees with a central difference of b")

    def at(self, x) -> tuple[np.ndarray, ...]:
        """Coefficients (a, b, c, b') at the points x, each of x's shape."""
        return tuple(_sample(fn, x) for fn in (self.a, self.b, self.c, self.bprime))


def _sample(fn: Callable, x) -> np.ndarray:
    """One coefficient at the points x, as a float array of x's shape; for
    callers that need fewer than the four of ``Problem.at``."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)


def upwind_split(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b+|b|)/2 and (b-|b|)/2, the weights of U^- and U^+ in the flux bU."""
    return 0.5 * (b + np.abs(b)), 0.5 * (b - np.abs(b))


@dataclass(frozen=True)
class SolveInfo:
    """Direct-solve diagnostics."""

    residual_inf: float
    rhs_inf: float
    growth_factor: float
    refine_steps: int


@dataclass(frozen=True)
class LdgSolution:
    """Discrete triple (U, P, Q) approximating (u, u', eps u'')."""

    U: PiecewisePoly
    P: PiecewisePoly
    Q: PiecewisePoly
    info: SolveInfo | None = None


@dataclass(frozen=True)
class FluxValues:
    """Numerical flux record at one node."""

    uhat: float
    phat: float
    qhat: float
    ptilde: float
    bu: float


def flux_table(problem: Problem, mesh: Mesh, u, p, q) -> tuple[np.ndarray, ...]:
    """Numerical fluxes (Uhat, Phat, Qhat, Ptilde, bU) at nodes 0..N.

    ``u``, ``p`` and ``q`` are trace pairs (v^-, v^+) with v^- at nodes
    1..N and v^+ at nodes 0..N-1.
    """
    (u_m, u_p), (p_m, p_p), (q_m, q_p) = u, p, q
    b_up, b_dn = upwind_split(_sample(problem.b, mesh.nodes))
    zero = np.zeros(1)
    return (np.concatenate([zero, u_m[:-1], zero]),
            np.concatenate([p_p, zero]),
            np.concatenate([q_p, q_m[-1:]]),
            np.concatenate([p_p, p_m[-1:]]),
            b_up * np.concatenate([zero, u_m]) + b_dn * np.concatenate([u_p, zero]))


def _traces(v: PiecewisePoly) -> tuple[np.ndarray, np.ndarray]:
    return v.trace_minus_all(), v.trace_plus_all()


def flux_values(w: LdgSolution, j: int, problem: Problem) -> FluxValues:
    """Numerical fluxes of the solution triple at node j (0 <= j <= N)."""
    n = w.U.mesh.n_elements
    if not 0 <= j <= n:
        raise ValueError(f"node index must satisfy 0 <= j <= {n}, got {j}")
    table = flux_table(problem, w.U.mesh, _traces(w.U), _traces(w.P), _traces(w.Q))
    return FluxValues(*(float(column[j]) for column in table))


@dataclass
class BlockSystem:
    """Assembled linear system in per-element (U, P, Q) coefficient blocks.

    Unknown ordering: element by element, each contributing k+1 U
    coefficients, then k+1 P, then k+1 Q.  Rows follow the same layout with
    the U-equation, P-equation and Q-equation row groups.
    """

    matrix: sparse.csc_matrix
    rhs: np.ndarray
    mesh: Mesh
    k: int

    def dump_coo(self) -> str:
        """'row col value' per line (debugging aid)."""
        coo = self.matrix.tocoo()
        lines = [f"{r} {c} {float(v)!r}"
                 for r, c, v in zip(coo.row, coo.col, coo.data)]
        return "\n".join(lines) + "\n"


def _outer(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.einsum("el,em->elm", left, right)


def assemble(problem: Problem, mesh: Mesh, k: int,
             quad: Quadrature | None = None) -> BlockSystem:
    """Assemble the LDG system for ``problem`` on ``mesh`` with degree k.

    Volume integrals evaluate the coefficient functions pointwise at the
    quadrature nodes (default k+3 Gauss points, exact for the polynomial
    parts); nodal coefficient values a_j, b_j in the fluxes are exact
    evaluations at the mesh nodes.
    """
    if k < 0:
        raise ValueError(f"degree k must be >= 0, got {k}")
    if quad is None:
        quad = gauss_quadrature(k + 3)
    n = mesh.n_elements
    m = k + 1
    eps = problem.eps
    h = mesh.widths

    tq, wq = quad.nodes, quad.weights
    p_tab = legendre_table(k, tq)
    dp_tab = legendre_deriv_table(k, tq)
    x, _ = quad_points(mesh, quad)
    aq, bq, cq, bpq = problem.at(x)
    cbq = cq - bpq

    s = basis_scale(h, k)                                        # (n, m)
    right = s
    left = s * ((-1.0) ** np.arange(m))[None, :]
    eye = np.broadcast_to(np.eye(m), (n, m, m))

    # <coeff * trial_m, test_l'>; the h factors cancel into the s scales.
    d_a = np.einsum("eq,lq,mq->elm", wq[None, :] * aq, dp_tab, p_tab)
    d_a *= s[:, :, None] * s[:, None, :]
    d_b = np.einsum("eq,lq,mq->elm", wq[None, :] * bq, dp_tab, p_tab)
    d_b *= s[:, :, None] * s[:, None, :]
    d_one = np.einsum("q,lq,mq->lm", wq, dp_tab, p_tab)[None, :, :]
    d_one = d_one * (s[:, :, None] * s[:, None, :])
    mass_cb = np.einsum("eq,lq,mq->elm", (wq[None, :] * cbq) * (0.5 * h[:, None]),
                        p_tab, p_tab)
    mass_cb *= s[:, :, None] * s[:, None, :]

    an = _sample(problem.a, mesh.nodes)
    b_up, b_dn = upwind_split(_sample(problem.b, mesh.nodes))

    rxr = _outer(right, right)
    lxl = _outer(left, left)
    rxl_next = _outer(right[:-1], left[1:])   # node e+1, elements e -> e+1
    lxr_prev = _outer(left[1:], right[:-1])   # node e,   elements e -> e-1

    # Diagonal blocks (element e tested against its own unknowns).
    a_uu = d_one.copy()
    a_uu[:-1] -= rxr[:-1]                      # Uhat_N = 0 drops the last one
    a_up = eye
    b_pp = eps * (d_one + lxl)
    b_pq = eye
    c_qq = -d_one - lxl
    c_qq[-1] = c_qq[-1] + rxr[-1]              # Qhat_N = Q_N^-
    c_qp = d_a + an[:-1, None, None] * lxl
    c_qp[-1] = c_qp[-1] - an[-1] * rxr[-1]     # Ptilde_N = P_N^-
    c_qu = (-d_b + mass_cb + b_up[1:, None, None] * rxr
            - b_dn[:-1, None, None] * lxl)

    # Couplings to the right neighbour (interior node j = e+1).
    s_pp = -eps * rxl_next
    s_qq = rxl_next
    s_qp = -an[1:-1, None, None] * rxl_next
    s_qu = b_dn[1:-1, None, None] * rxl_next

    # Couplings to the left neighbour (interior node j = e).
    p_uu = lxr_prev
    p_qu = -b_up[1:-1, None, None] * lxr_prev

    # Column (c, field, mode) holds that mode's column of these blocks in
    # ascending row order, as (block, row element - c, row field).  Blocks
    # of row element c-1 exist for c > 0 and those of c+1 for c < N-1; the
    # neighbour arrays are indexed by c-1 (s_*) and by c (p_*).
    fields = (
        ((s_qu, -1, 2), (a_uu, 0, 0), (c_qu, 0, 2), (p_uu, 1, 0), (p_qu, 1, 2)),
        ((s_pp, -1, 1), (s_qp, -1, 2), (a_up, 0, 0), (b_pp, 0, 1), (c_qp, 0, 2)),
        ((s_qq, -1, 2), (b_pq, 0, 1), (c_qq, 0, 2)),
    )
    dim = 3 * m * n
    nnz = m * m * (13 * n - 6) if n > 1 else 7 * m * m
    idx_dtype = np.int32 if max(nnz, dim) <= np.iinfo(np.int32).max else np.int64
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=idx_dtype)
    col_counts = np.empty((n, 3), dtype=np.int64)

    # Elements 0, 1..N-2 and N-1 each share one column pattern; every
    # block is written transposed through a view of its contiguous slice.
    groups = [(0, 1)] + [(1, n - 1)] * (n > 2) + [(n - 1, n)] * (n > 1)
    start = 0
    for lo, hi in groups:
        present = {-1: lo > 0, 0: True, 1: hi < n}
        per_field = [[blk for blk in blocks if present[blk[1]]] for blocks in fields]
        col_counts[lo:hi] = [m * len(blocks) for blocks in per_field]
        size = (hi - lo) * m * m * sum(len(blocks) for blocks in per_field)
        region_d = data[start:start + size].reshape(hi - lo, -1)
        region_i = indices[start:start + size].reshape(hi - lo, -1)
        base = 3 * m * np.arange(lo, hi)[:, None, None]
        offset = 0
        for blocks in per_field:
            width = m * len(blocks) * m
            view_d = region_d[:, offset:offset + width].reshape(hi - lo, m, len(blocks), m)
            view_i = region_i[:, offset:offset + width].reshape(hi - lo, m, len(blocks), m)
            for slot, (blk, row_shift, row_field) in enumerate(blocks):
                first = lo + min(row_shift, 0)
                view_d[:, :, slot, :] = blk[first:first + hi - lo].transpose(0, 2, 1)
                view_i[:, :, slot, :] = (base + 3 * m * row_shift + row_field * m
                                         + np.arange(m))
            offset += width
        start += size

    indptr = np.zeros(dim + 1, dtype=idx_dtype)
    np.cumsum(np.repeat(col_counts.ravel(), m), out=indptr[1:])
    matrix = sparse.csc_matrix((data, indices, indptr), shape=(dim, dim))

    rhs = np.zeros(dim)
    rhs.reshape(n, 3, m)[:, 2, :] = element_moments(problem.f, mesh, k, quad)

    return BlockSystem(matrix=matrix, rhs=rhs, mesh=mesh, k=k)


def _matvec(a: sparse.csc_matrix, x: np.ndarray, absolute: bool = False) -> np.ndarray:
    """A @ x, or |A| @ x, accumulated in x's dtype without a copy of A.

    A's values are converted to x's dtype one chunk of _MATVEC_CHUNK columns
    at a time, and the products are added into y in CSC entry order: the
    same per-row addition sequence as scipy's own CSC product, so the result
    is bit-identical to ``a.astype(x.dtype) @ x``.
    """
    y = np.zeros(a.shape[0], dtype=x.dtype)
    for c0 in range(0, a.shape[1], _MATVEC_CHUNK):
        c1 = min(c0 + _MATVEC_CHUNK, a.shape[1])
        lo, hi = a.indptr[c0], a.indptr[c1]
        vals = a.data[lo:hi].astype(x.dtype)
        if absolute:
            np.abs(vals, out=vals)
        vals *= np.repeat(x[c0:c1], np.diff(a.indptr[c0:c1 + 1]))
        np.add.at(y, a.indices[lo:hi], vals)
    return y


def _rounding_floor(a: sparse.csc_matrix, x: np.ndarray) -> float:
    """eps_mach * || |A| |x| ||_inf, the residual that storing x in float64
    leaves by itself."""
    return float(_matvec(a, np.abs(x), absolute=True).max()) * float(np.finfo(float).eps)


def solve(system: BlockSystem, max_refine: int = 4) -> LdgSolution:
    """Direct sparse LU solve with partial pivoting and iterative refinement.

    Refinement stops at max(0.3 * RESIDUAL_RTOL * ||rhs||_inf, floor), where
    floor = eps_mach * || |A| |x| ||_inf: below the floor no float64-stored x
    can carry a smaller residual, so further steps cannot pay.  Each of at
    most ``max_refine`` steps corrects x against a residual accumulated in
    extended precision (near the floor a double-precision residual is
    dominated by its own rounding noise), then evaluates the rounded float64
    iterate; the iterate with the smallest residual is returned.

    Raises RuntimeError if the factorisation hits a singular pivot or the
    residual exceeds the stricter of RESIDUAL_RTOL * ||rhs||_inf and four
    times the floor.
    """
    a = system.matrix
    b = system.rhs
    try:
        lu = splu(a)
    except RuntimeError as exc:
        raise RuntimeError(f"singular LDG system: {exc}") from exc

    x = lu.solve(b)
    b_inf = float(np.abs(b).max()) if b.size else 0.0
    target = RESIDUAL_RTOL * b_inf
    floor = _rounding_floor(a, x)
    stop = max(0.3 * target, floor)

    # Fast path: a float64 residual already at the stop threshold is
    # trustworthy (measurement noise only adds to it).
    r_inf = float(np.abs(b - a @ x).max())
    steps = 0
    if r_inf > stop:
        b_ld = b.astype(np.longdouble)
        x_ld = x.astype(np.longdouble)
        resid_ld = b_ld - _matvec(a, x_ld)     # x_ld == x: also x's own residual
        r_inf = min(r_inf, float(np.abs(resid_ld).max()))
        while r_inf > stop and steps < max_refine:
            if steps:
                resid_ld = b_ld - _matvec(a, x_ld)
            x_ld = x_ld + lu.solve(np.asarray(resid_ld, dtype=float)).astype(np.longdouble)
            steps += 1
            x64 = np.asarray(x_ld, dtype=float)
            r64 = float(np.abs(b_ld - _matvec(a, x64.astype(np.longdouble))).max())
            if r64 < r_inf:
                x, r_inf = x64, r64
        del b_ld, x_ld, resid_ld
        floor = _rounding_floor(a, x)

    # Below the floor the stated relative bound is unattainable regardless
    # of solver.  Enforce the stricter of the relative bound and four times
    # the floor.
    allowed = max(target, 4.0 * floor)
    if r_inf > allowed:
        raise RuntimeError(
            f"solve residual {r_inf:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||rhs||_inf "
            f"(and the float64 floor {floor:.3e})"
        )

    growth = float(np.abs(lu.U.data).max() / np.abs(a.data).max()) if a.nnz else 0.0
    info = SolveInfo(residual_inf=r_inf, rhs_inf=b_inf, growth_factor=growth,
                     refine_steps=steps)

    m = system.k + 1
    packed = x.reshape(system.mesh.n_elements, 3, m)
    return LdgSolution(
        U=PiecewisePoly(system.mesh, system.k, packed[:, 0, :].copy()),
        P=PiecewisePoly(system.mesh, system.k, packed[:, 1, :].copy()),
        Q=PiecewisePoly(system.mesh, system.k, packed[:, 2, :].copy()),
        info=info)


def solve_ldg(problem: Problem, mesh: Mesh, k: int,
              quad: Quadrature | None = None) -> LdgSolution:
    """Assemble and solve in one call."""
    return solve(assemble(problem, mesh, k, quad))


# ---------------------------------------------------------------------------
# Bilinear form and energy norm
# ---------------------------------------------------------------------------

def _on_mesh(obj, mesh: Mesh, quad: Quadrature):
    """Quadrature values and trace pair (v^-, v^+) of a PiecewisePoly or a
    callable."""
    if isinstance(obj, PiecewisePoly):
        return obj.values_at(quad), _traces(obj)
    ends = np.broadcast_to(np.asarray(eval_fn(obj, mesh.nodes, mesh.offsets),
                                      dtype=float), mesh.nodes.shape)
    return element_values(obj, mesh, quad), (ends[1:], ends[:-1])


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
    x, _ = quad_points(mesh, quad)
    aq, bq, cq, bpq = problem.at(x)
    (u_vals, u_tr), (p_vals, p_tr), (q_vals, q_tr) = (
        _on_mesh(part, mesh, quad) for part in w)
    uhat, phat, qhat, ptilde, bu = flux_table(problem, mesh, u_tr, p_tr, q_tr)
    an = _sample(problem.a, mesh.nodes)
    v_vals, r_vals, s_vals = (part.values_at(quad) for part in chi)
    dv, dr, ds = (part.deriv_values_at(quad) for part in chi)

    def integ(fa: np.ndarray, fb: np.ndarray, weight=1.0) -> float:
        return float((hw * weight * fa * fb).sum())

    total = integ(p_vals, r_vals) + integ(u_vals, dr) + float(uhat @ r.jumps())
    total += integ(q_vals, s_vals)
    total += problem.eps * (integ(p_vals, ds) + float(phat @ s.jumps()))
    total += (integ(p_vals, dv, aq) - integ(q_vals, dv) - integ(u_vals, dv, bq)
              + integ(u_vals, v_vals, cq - bpq))
    total += float((an * ptilde - qhat - bu) @ v.jumps())
    return total


def energy_parts(problem: Problem, mesh: Mesh, hw: np.ndarray, x: np.ndarray,
                 p_vals: np.ndarray, u_vals: np.ndarray, jumps_p: np.ndarray,
                 jumps_u: np.ndarray) -> tuple[float, float, float, float]:
    """The four squared terms of the scheme-induced energy norm,

        eps/2 sum_j [P]_j^2,  ||a^(1/2) P||^2,  ||(c - b'/2)^(1/2) U||^2,
        1/2 sum_j |b_j| [U]_j^2,

    from values of P and U at the quadrature points x (weights hw, both as
    given by ``element_weights`` and ``quad_points``) and their jumps at
    nodes j = 0..N.
    """
    aq = _sample(problem.a, x)
    c_half_bp = _sample(problem.c, x) - 0.5 * _sample(problem.bprime, x)
    bn = _sample(problem.b, mesh.nodes)
    return (0.5 * problem.eps * float((jumps_p**2).sum()),
            float((hw * aq * p_vals**2).sum()),
            float((hw * c_half_bp * u_vals**2).sum()),
            0.5 * float((np.abs(bn) * jumps_u**2).sum()))


def energy_norm(w: LdgSolution, problem: Problem,
                quad: Quadrature | None = None) -> float:
    """Scheme-induced energy norm of a discrete triple: the root of the sum
    of ``energy_parts``, jumps running over all nodes j = 0..N with the
    boundary convention of ``PiecewisePoly.jumps``."""
    if quad is None:
        quad = gauss_quadrature(max(w.U.k + 3, 10))
    mesh = w.U.mesh
    parts = energy_parts(problem, mesh, element_weights(mesh, quad),
                         quad_points(mesh, quad)[0], w.P.values_at(quad),
                         w.U.values_at(quad), w.P.jumps(), w.U.jumps())
    return math.sqrt(sum(parts))
