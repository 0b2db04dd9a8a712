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

``assemble`` writes these rules out as matrix blocks.  Coefficients are
sampled only through ``Problem.at`` (all four, at points), ``basis.sample``
(one, at points) or ``basis.node_values`` (one, at the mesh nodes), and the
four terms of the energy norm live in ``energy_parts``.

The resulting linear system is block tridiagonal with 3(k+1) unknowns per
element, and the coupling across each interior node has low rank: the
upper block is X Y^T (rank 2, through P^+ and b_dn U^+ + Q^+) and the
lower block Z R^T (rank 1, through U^-).  ``BlockSystem._node_terms`` is
the one statement of the four factors: A's coupling blocks read it, and
the condensed solve reads the dense factors ``_node_factors`` builds.
The a P^+ term of the flux is carried by X, not Y, so the two upper node
unknowns do not both contain P^+: that choice leaves far fewer condensed
solves above the refinement threshold.

``assemble`` writes A in block sparse row (BSR) storage of (k+1) x (k+1)
field blocks.  Block row (e, field) holds, in ascending column order, a
fixed list of blocks of elements e-1, e and e+1: 3 for a U-row, 3 for a
P-row and 7 for a Q-row of an interior element.  The pattern thus follows
from (N, k) alone, and one index is stored per block rather than per
entry; ``_SLOTS`` states it.
The blocks are formed _CHUNK elements at a time, each in the slot
where A keeps it: a coupling block as the one outer product of node-term
pieces it is, each of the 7 nonzero field blocks of element e's diagonal
block D from quadrature samples and traces that live for the chunk only.
A's data is the only store of D, and the node factors are stored nowhere.

``solve`` condenses statically: it eliminates each element's unknowns with
local solves of D, gathered from A's data and solved a chunk of elements at
a time, factors only the block-tridiagonal trace system of 3(N-1) node
unknowns (whatever k is) with LAPACK's banded LU with partial pivoting
(kl = 3, ku = 4), and recovers the element unknowns from the node values.
It then runs extended-precision iterative refinement against the assembled
A, which stops once the residual reaches the float64 rounding floor
eps_mach * || |A| |x| ||_inf, below which no float64-stored solution can
go.  Every residual and the floor are formed by ``_matvec`` in
512-element runs through scipy's public BSR product.  Each run converts
its blocks and its x window with one call each (the float64 residual
reads them in place), and the residual's norm is taken before it is
rounded, so neither A nor x is copied whole and no long-double vector is
held whole.  During refinement ``solve`` holds, beside the assembled system, only D^-1 [X Z],
the band LU of the trace system and two iterate-sized vectors: the back
substitution works in place a run at a time, and the iterate before the
last step is released before a long-double residual is rounded into a
new correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .basis import (PiecewisePoly, _read_only, element_moments, gauss_quadrature,
                    mesh_traces, node_values, quad_points, sample)
from .meshes import Mesh

RESIDUAL_RTOL = 1e-10
_CHUNK = 1 << 9             # elements per run of every chunked pass (``_chunks``)
_KL, _KU = 3, 4             # lower and upper bandwidths of the trace system S
_INT32_MAX = np.iinfo(np.int32).max
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
        return tuple(sample(fn, x) for fn in (self.a, self.b, self.c, self.bprime))


def upwind_split(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b+|b|)/2 and (b-|b|)/2, the weights of U^- and U^+ in the flux bU."""
    return 0.5 * (b + np.abs(b)), 0.5 * (b - np.abs(b))


@dataclass(frozen=True)
class SolveInfo:
    """Direct-solve diagnostics.

    ``residual_inf`` is ||b - A x||_inf of the returned x, accumulated in
    long double when the float64 residual lay above the rounding floor
    (even if the long-double one then met it, ``refine_steps`` = 0) and
    in float64 otherwise; the long-double norm is taken before the
    residual is rounded to float64.  ``refine_steps`` counts the correction solves
    run; when the last one was undone (see ``solve``), x is the iterate
    before it.
    ``growth_factor`` is max|U_S| / max|S| for the LU factor U_S of the
    condensed trace system S, the only matrix factored whole, by LAPACK's
    banded LU (kl = 3, ku = 4); it is 0 for N = 1, where there is no trace
    system.  It has read exactly 1.0 on every config measured so far (s, bs,
    b; k = 0..3; eps in {1e-4, 1e-8, 1e-12}; N in {16, 128, 1024, 4096}),
    so it does not tell rows apart.
    """

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


@dataclass
class BlockSystem:
    """Assembled linear system in per-element (U, P, Q) coefficient blocks.

    Unknown ordering: element by element, each contributing k+1 U
    coefficients, then k+1 P, then k+1 Q.  Rows follow the same layout with
    the U-equation, P-equation and Q-equation row groups.

    ``matrix`` is stored as BSR with (k+1) x (k+1) blocks, one block row per
    (element, field), in the block layout stated next to ``_SLOTS``, which
    depends on (N, k) alone.  Its diagonal blocks D, element e's (3(k+1), 3(k+1))
    block, are held there only.  At each interior node e+1 (index e =
    0..N-2) the coupling of element e's rows to element e+1's columns is
    X_e Y_e^T and that of element e+1's rows to element e's columns is
    Z_e R_e^T.  Those factors are not stored: only the node data they are
    made of is kept, and ``_node_terms`` forms their nonzero pieces for a
    range of nodes.
    """

    matrix: sparse.bsr_matrix
    rhs: np.ndarray
    mesh: Mesh
    k: int
    eps: float
    trace_r: np.ndarray     # (N-1, k+1), right trace r of element e
    trace_l: np.ndarray     # (N-1, k+1), left trace l of element e+1
    node_a: np.ndarray      # (N-1,), a at node e+1
    node_b_dn: np.ndarray   # (N-1,), (b-|b|)/2 at node e+1
    node_b_up: np.ndarray   # (N-1,), (b+|b|)/2 at node e+1

    def dump_coo(self) -> str:
        """'row col value' per line in column-major order (debugging aid)."""
        coo = self.matrix.tocsc().tocoo()
        lines = [f"{r} {c} {float(v)!r}"
                 for r, c, v in zip(coo.row, coo.col, coo.data)]
        return "\n".join(lines) + "\n"

    def _node_terms(self, lo: int, hi: int) -> dict[str, list[tuple[int, int, np.ndarray]]]:
        """The nonzero pieces of the node factors X, Y, Z and R at nodes
        lo..hi-1, by name, each as (field, factor column, values of shape
        (hi - lo, k+1)): the one statement of the node couplings.

        X = [-eps r e_P - a r e_Q, r e_Q] and Y = [l e_P, b_dn l e_U + l e_Q]
        carry the upper coupling, Z = l e_U - b_up l e_Q and R = r e_U the
        lower one, with e_F placing a trace in field F's rows.
        """
        r, l = self.trace_r[lo:hi], self.trace_l[lo:hi]
        return {"x": [(1, 0, -self.eps * r), (2, 0, -self.node_a[lo:hi, None] * r), (2, 1, r)],
                "y": [(1, 0, l), (0, 1, self.node_b_dn[lo:hi, None] * l), (2, 1, l)],
                "z": [(0, 0, l), (2, 0, -self.node_b_up[lo:hi, None] * l)],
                "r": [(0, 0, r)]}

    def _node_factors(self, lo: int, hi: int, which: str = "xyzr") -> list[np.ndarray]:
        """The ``_node_terms`` named in ``which`` as dense factors, in that
        order: X and Y as (hi - lo, 3(k+1), 2), Z and R as (hi - lo,
        3(k+1), 1), rows in (U, P, Q) field order."""
        terms = self._node_terms(lo, hi)
        count, m = self.trace_r[lo:hi].shape
        out = []
        for name in which:
            f = np.zeros((count, 3, m, 2 if name in "xy" else 1))
            for field, col, vals in terms[name]:
                f[:, field, :, col] = vals
            out.append(f.reshape(count, 3 * m, f.shape[-1]))
        return out


def _chunks(n: int):
    """Yield (lo, hi) for runs of _CHUNK indices covering 0..n-1."""
    for lo in range(0, n, _CHUNK):
        yield lo, min(lo + _CHUNK, n)


# Block row (e, field) holds these (k+1) x (k+1) blocks in ascending column
# order, as (column element - e, column field): Z R^T of node e-1 (e > 0),
# D for column element e and X Y^T of node e (e < N-1).
_ROW_BLOCKS = (((-1, 0), (0, 0), (0, 1)),
               ((0, 1), (0, 2), (1, 1)),
               ((-1, 0), (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)))
# An interior element's 13 blocks in slot order, as (row field, column
# element - e, column field), and the slot of each.
_SLOTS = tuple((row_field, *blk) for row_field, row in enumerate(_ROW_BLOCKS) for blk in row)
_SLOT = {blk: slot for slot, blk in enumerate(_SLOTS)}
# A's data holds interior element e's slot s as block 13e + s - 2.  An end
# element lacks its outer neighbour: the first keeps the slots whose column
# shift is >= 0, the last those <= 0 and a lone element those = 0, each in
# slot order from block 0 (first) or 13e - 2 (last) on.  ``_KEPT[e == 0,
# e == N-1]`` lists the slots element e keeps and ``_D_AT`` where D's 7
# blocks, the slots ``_D_SLOTS`` of shift 0, sit among them.  Slot s of
# element e lies in block column 3e + _COLS[s].
_FIELDS = np.array(_SLOTS)
_COLS = 3 * _FIELDS[:, 1] + _FIELDS[:, 2]
_KEPT = {(first, last): np.flatnonzero(((_FIELDS[:, 1] >= 0) | (not first))
                                       & ((_FIELDS[:, 1] <= 0) | (not last)))
         for first in (False, True) for last in (False, True)}
_D_SLOTS = _KEPT[True, True]
_D_AT = {ends: np.searchsorted(kept, _D_SLOTS) for ends, kept in _KEPT.items()}
_read_only(_FIELDS, _COLS, *_KEPT.values(), *_D_AT.values())


def _end_elements(n: int) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """(e, start, kept, d_at) for the first and the last of n elements: A's
    data holds element e's ``kept`` slots from block ``start`` on, its D
    blocks at start + d_at, and the last element's end is A's block count."""
    return [(e, max(13 * e - 2, 0), _KEPT[e == 0, e == n - 1], _D_AT[e == 0, e == n - 1])
            for e in sorted({0, n - 1})]


def _pack_ends(padded: np.ndarray, ends: list) -> None:
    """Pack the ``_end_elements`` of ``padded``, which holds 13 slots per
    element and A's data or indices from its block 2 on, into the slots
    they keep."""
    for e, start, kept, _ in ends:
        padded[2 + start:2 + start + kept.size] = padded[13 * e + kept]


def assemble(problem: Problem, mesh: Mesh, k: int) -> BlockSystem:
    """Assemble the LDG system for ``problem`` on ``mesh`` with degree k.

    Volume integrals evaluate the coefficient functions pointwise at k+3
    Gauss points per element, exact for the polynomial parts; nodal
    coefficient values a_j, b_j in the fluxes are the ``node_values`` of
    a and b.
    """
    if k < 0:
        raise ValueError(f"degree k must be >= 0, got {k}")
    quad = gauss_quadrature(k + 3)
    n = mesh.n_elements
    m = k + 1
    eps = problem.eps
    h = mesh.widths

    left, right = mesh_traces(mesh, k)                           # (n, m)
    an = node_values(problem.a, mesh)
    b_up, b_dn = upwind_split(node_values(problem.b, mesh))

    dim = 3 * m * n
    ends = _end_elements(n)
    _, start, kept, _ = ends[-1]
    nnzb = start + kept.size
    idx_dtype = np.int32 if max(nnzb, dim) <= _INT32_MAX else np.int64
    indices = np.empty(13 * n, dtype=idx_dtype)      # laid out like ``padded`` below
    np.add(3 * np.arange(n, dtype=idx_dtype)[:, None], _COLS, out=indices.reshape(n, 13))
    _pack_ends(indices, ends)
    row_counts = np.empty((n, 3), dtype=idx_dtype)
    row_counts[:] = np.bincount(_FIELDS[:, 0])
    for e, _, kept, _ in ends:
        row_counts[e] = np.bincount(_FIELDS[kept, 0], minlength=3)
    indptr = np.zeros(3 * n + 1, dtype=idx_dtype)
    np.cumsum(row_counts.ravel(), out=indptr[1:])

    rhs = np.zeros(dim)
    rhs.reshape(n, 3, m)[:, 2, :] = element_moments(problem.f, mesh, k, quad)

    # The blocks are written below into the matrix's own data, which sits
    # in ``padded`` with two spare blocks before it and four after: interior
    # element e's 13 blocks are then blocks 13e.. of ``padded`` in slot
    # order, where A keeps them, and every element is formed in that layout.
    # Node e+1 keeps element e's right trace r and element e+1's left trace l.
    padded = np.empty((13 * n, m, m))
    system = BlockSystem(
        matrix=sparse.bsr_matrix((padded[2:2 + nnzb], indices[2:2 + nnzb], indptr),
                                 shape=(dim, dim)),
        rhs=rhs, mesh=mesh, k=k, eps=eps, trace_r=right[:-1], trace_l=left[1:],
        node_a=an[1:-1], node_b_dn=b_dn[1:-1], node_b_up=b_up[1:-1])

    def volume(weight: np.ndarray, test_tab: np.ndarray, out: np.ndarray | None = None):
        """<weight * trial_m, test_l> per element, times the basis scales
        s_l s_m, into out; against test derivatives the h factors cancel
        into them."""
        out = np.einsum("eq,lq,mq->elm", weight, test_tab, p_tab, out=out)
        out *= ss
        return out

    wq = quad.weights
    p_tab, dp_tab = quad.legendre(k)
    x = quad_points(mesh, quad)
    d_ref = np.einsum("q,lq,mq->lm", wq, dp_tab, p_tab)[None, :, :]
    eye = np.eye(m)

    # _CHUNK elements at a time: D's 7 nonzero field blocks (element e
    # tested against its own unknowns; (U, Q) and (P, U) are zero) are formed
    # in their slots from pieces that live for the chunk only, and each
    # coupling block as the one outer product it is.
    for lo, hi in _chunks(n):
        n0, n1 = max(lo - 1, 0), min(hi, n - 1)      # Z R^T from node n0, X Y^T to n1
        blk = padded[13 * lo:13 * hi].reshape(hi - lo, 13, m, m)
        blk[:, _SLOT[0, 0, 1]] = blk[:, _SLOT[1, 0, 2]] = eye
        uu, pp, qu, qp, qq = (blk[:, _SLOT[blk_id]] for blk_id in
                              ((0, 0, 0), (1, 0, 1), (2, 0, 0), (2, 0, 1), (2, 0, 2)))
        s = right[lo:hi]                                         # basis scales
        ss = s[:, :, None] * s[:, None, :]                       # r r^T
        lxl = left[lo:hi, :, None] * left[lo:hi, None, :]
        aq, bq, cq, bpq = problem.at(x[lo:hi])
        np.multiply(d_ref, ss, out=uu)
        np.add(uu, lxl, out=pp)
        pp *= eps
        np.negative(uu, out=qq)
        qq -= lxl
        volume(wq[None, :] * aq, dp_tab, qp)
        qp += an[lo:hi, None, None] * lxl
        if hi == n:
            qq[-1] += ss[-1]                       # Qhat_N = Q_N^-
            qp[-1] -= an[-1] * ss[-1]              # Ptilde_N = P_N^-
        uu[:n1 - lo] -= ss[:n1 - lo]               # Uhat_N = 0
        volume(wq[None, :] * bq, dp_tab, qu)
        np.negative(qu, out=qu)
        qu += volume((wq[None, :] * (cq - bpq)) * (0.5 * h[lo:hi, None]), p_tab)
        qu += b_up[lo + 1:hi + 1, None, None] * ss
        qu -= b_dn[lo:hi, None, None] * lxl
        # Each block of X Y^T and Z R^T has one nonzero term, the outer
        # product of the X (or Z) piece of ``BlockSystem._node_terms`` with
        # the Y (or R) piece in the same factor column: element e's X Y^T
        # blocks are those of node index e (e < N-1), its Z R^T blocks those
        # of index e-1 (e > 0).  Each is formed as a sum from +0, as a matrix
        # product forms it, so a -0 term is stored as +0.
        terms = system._node_terms(n0, n1)
        for x_name, y_name, shift, rows, nodes in (
                ("x", "y", 1, slice(None, n1 - lo), slice(lo - n0, None)),
                ("z", "r", -1, slice(max(lo, 1) - lo, None), slice(None, hi - 1 - n0))):
            for row_field, column, xv in terms[x_name]:
                for col_field, _, yv in (t for t in terms[y_name] if t[1] == column):
                    out = blk[rows, _SLOT[row_field, shift, col_field]]
                    np.multiply(xv[nodes, :, None], yv[nodes, None, :], out=out)
                    out += 0.0
    # The first and last elements store fewer blocks: pack each into the
    # slots it keeps, which A's data, two blocks into ``padded``, holds
    # from where its 13 were formed on.
    _pack_ends(padded, ends)
    return system


def _matvec(a: sparse.bsr_matrix, x: np.ndarray, b: np.ndarray | None = None, *,
            absolute: bool = False, dtype=np.float64, out: np.ndarray | None = None) -> float:
    """||y||_inf for y = b - A x, for y = A x without b, or for y = |A| |x|
    with ``absolute``, accumulated in ``dtype``; y itself is written into
    ``out``, rounded to out's dtype, when out is given.

    A must have ``assemble``'s block pattern, in which block row
    (e, field) reads only the block columns of elements e-1..e+1.
    y is formed in 512-element runs (``_chunks``) through scipy's public
    BSR product: run lo..hi-1 multiplies a view of block rows 3lo..3hi-1
    by its x window, the block columns of elements lo-1..hi.  That
    product runs the kernel ``a @ x`` runs, so every row sums the
    same products in the same order and y is bit-identical to
    ``b - a.astype(dtype) @ x``.  Only the window is checked: a block
    outside it raises ValueError before the kernel could read past it,
    and one pointed at another element inside it passes.  Each run's x
    window and blocks are converted to dtype (|.| for |A| |x|) with one
    call each, which the float64 residual skips by reading them in place,
    and released right after the product.  The norm is taken in dtype before y is rounded,
    and A and x are never copied whole.
    """
    r, c = a.blocksize
    n = a.shape[0] // (3 * r)                        # elements
    convert = np.abs if absolute else np.asarray
    norm = dtype(0.0)
    for lo, hi in _chunks(n):
        b0, b1 = a.indptr[3 * lo], a.indptr[3 * hi]
        c0, c1 = 3 * max(lo - 1, 0), 3 * min(hi + 1, n)    # of elements lo-1..hi
        cols = a.indices[b0:b1] - c0
        if b1 > b0 and (cols.min() < 0 or cols.max() >= c1 - c0):
            raise ValueError("A has a block outside assemble's block pattern")
        xs = convert(x[c0 * c:c1 * c], dtype=dtype)
        chunk = convert(a.data[b0:b1], dtype=dtype)
        y = sparse.bsr_matrix((chunk, cols, a.indptr[3 * lo:3 * hi + 1] - b0),
                              shape=(3 * (hi - lo) * r, xs.size), copy=False) @ xs
        del xs, chunk                                # one run's conversions at a time
        if b is not None:
            np.subtract(b[3 * lo * r:3 * hi * r], y, out=y)
        if out is not None:
            out[3 * lo * r:3 * hi * r] = y
        norm = np.maximum(norm, np.abs(y, out=y).max())
        del y                                        # before the next run's product
    return float(norm)


def _rounding_floor(a: sparse.bsr_matrix, x: np.ndarray) -> float:
    """eps_mach * || |A| |x| ||_inf, the residual that storing x in float64
    leaves by itself."""
    return _matvec(a, x, absolute=True) * float(np.finfo(float).eps)


def _inf_norm(v: np.ndarray) -> float:
    """max_i |v_i| without an |v| temporary; 0 for an empty v."""
    return abs(float(max(v.max(), -v.min()))) if v.size else 0.0


class _Condensed:
    """A = D + X Y^T + Z R^T solved by static condensation onto the nodes.

    With t = [Y R]^T x, the three node unknowns (P^+, b_dn U^+ + Q^+, U^-)
    at each interior node solve the block-tridiagonal trace system
    S t = [Y R]^T D^-1 b, S = I + [Y R]^T D^-1 [X Z], and
    x = D^-1 b - D^-1 [X Z] t.  S is banded (kl = 3, ku = 4) and factored
    by LAPACK's ``dgbtrf``; ``x`` is the solution for the assembled rhs, and
    ``solve`` repeats the elimination for a new right-hand side with
    ``dgbtrs``, so refinement steps reuse the LU of S.  D^-1 [X Z] and the
    band factor are all it holds beyond the system: the back substitution
    subtracts D^-1 [X Z] t from D^-1 b in place, _CHUNK elements at a
    time, so it forms no temporary of the solution's size.

    The diagonal blocks D are read from A's BSR data, where ``assemble``
    wrote them, _CHUNK elements at a time: each chunk's blocks are
    gathered into one reused buffer and solved by one batched LAPACK call,
    which solves every block on its own, so the chunking leaves the results
    bit-identical to a single batch.  The node factors are formed a chunk
    at a time too, by ``BlockSystem._node_factors``: dense X and Z fill the
    first local solve's right-hand sides, dense Y and R each reduction onto
    the nodes.  ``growth``, max|U_S| / max|S| with U_S the first kl + ku + 1
    rows of the band factor (0 for N = 1), is formed right after ``dgbtrf``.
    """

    def __init__(self, system: BlockSystem) -> None:
        self.system = system
        self.n, self.m = system.mesh.n_elements, system.k + 1
        n, width = self.n, 3 * self.m
        _, start, kept, _ = _end_elements(n)[-1]
        if system.matrix.data.shape[0] != start + kept.size:
            raise ValueError(f"A holds {system.matrix.data.shape[0]} blocks, not the "
                             f"{start + kept.size} of assemble's pattern on {n} elements")
        # The first local solve gives D^-1 X, D^-1 Z and D^-1 b together;
        # X of node e sits in element e, Z in element e+1.
        self.dxz = np.empty((n, width, 3))      # D^-1 [X Z]
        x = np.empty((n, width))
        rhs = system.rhs.reshape(n, width)
        for lo, hi, d in self._local_blocks():
            n0, n1 = max(lo - 1, 0), min(hi, n - 1)    # X of nodes lo.., Z of nodes lo-1..
            fx, fz = system._node_factors(n0, n1, "xz")
            local = np.zeros((hi - lo, width, 4))
            local[:n1 - lo, :, :2] = fx[lo - n0:]
            local[max(lo, 1) - lo:, :, 2:3] = fz[:hi - 1 - n0]
            local[:, :, 3] = rhs[lo:hi]
            sol = _solve_local(d, local)
            self.dxz[lo:hi] = sol[:, :, :3]
            x[lo:hi] = sol[:, :, 3]
        del fx, fz, local, sol, d         # d holds the gather buffer
        t_dxz, t_x = self._node_traces(self.dxz, x[:, :, None])
        self.lub, self.growth = None, 0.0
        if n > 1:
            ab = _trace_band(t_dxz)
            max_s = _inf_norm(ab)
            self.lub, self.ipiv, info = dgbtrf(ab, _KL, _KU, overwrite_ab=1)
            if info > 0:
                raise RuntimeError(f"singular LDG system: trace pivot {info} is zero")
            self.growth = _inf_norm(self.lub[:_KL + _KU + 1]) / max_s
        del t_dxz
        self.x = self._back_substitute(x, t_x)

    def _local_blocks(self):
        """Yield (lo, hi, D) for each run of _CHUNK elements lo..hi-1,
        D their diagonal blocks gathered from A's data into one buffer
        reused for every run, as (hi - lo, 3(k+1), 3(k+1))."""
        n, m = self.n, self.m
        data, ends = self.system.matrix.data, _end_elements(n)
        rows, cols = _FIELDS[_D_SLOTS, 0], _FIELDS[_D_SLOTS, 2]
        buf = np.zeros((min(n, _CHUNK), 3, m, 3, m))  # (U, Q), (P, U) stay 0
        for lo, hi in _chunks(n):
            d = buf[:hi - lo]
            a, b = max(lo, 1), min(hi, n - 1)          # the chunk's interior elements
            if a < b:
                for s, row, col in zip(_D_SLOTS.tolist(), rows.tolist(), cols.tolist()):
                    d[a - lo:b - lo, row, :, col] = data[13 * a + s - 2:13 * b + s - 2:13]
            for e, start, _, d_at in ends:
                if lo <= e < hi:
                    d[e - lo, rows, :, cols] = data[start + d_at]
            yield lo, hi, d.reshape(hi - lo, 3 * m, 3 * m)

    def _node_traces(self, *ws: np.ndarray) -> list[np.ndarray]:
        """[Y_e^T w_{e+1}; R_e^T w_e] at each node e for each local field w
        of shape (N, 3(k+1), c), as (N-1, 3, c), with one pass over the
        node factors for all of them."""
        outs = [np.empty((self.n - 1, 3, w.shape[2])) for w in ws]
        for lo, hi in _chunks(self.n - 1):
            fy, fr = self.system._node_factors(lo, hi, "yr")
            yt, rt = fy.transpose(0, 2, 1), fr.transpose(0, 2, 1)
            for w, out in zip(ws, outs):
                out[lo:hi, :2] = yt @ w[lo + 1:hi + 1]
                out[lo:hi, 2:] = rt @ w[lo:hi]
        return outs

    def _back_substitute(self, local: np.ndarray, traces: np.ndarray) -> np.ndarray:
        """x = D^-1 b - D^-1 [X Z] t, formed in place in local = D^-1 b of
        shape (N, 3(k+1)) from its node traces, and returned flat.  Element
        e subtracts its X term (node e, e < N-1) and then its Z term (node
        e-1, e > 0), a run of _CHUNK elements at a time."""
        if self.lub is not None:
            t = dgbtrs(self.lub, _KL, _KU, traces.reshape(-1, 1), self.ipiv,
                       overwrite_b=1)[0].reshape(-1, 3)
            for lo, hi in _chunks(self.n):
                x_hi, z_lo = min(hi, self.n - 1), max(lo, 1)
                local[lo:x_hi] -= (self.dxz[lo:x_hi, :, :2] @ t[lo:x_hi, :2, None])[:, :, 0]
                local[z_lo:hi] -= self.dxz[z_lo:hi, :, 2] * t[z_lo - 1:hi - 1, 2:]
        return local.ravel()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The condensed solve for a new right-hand side, written over the
        contiguous float64 array rhs and returned."""
        local = rhs.reshape(self.n, 3 * self.m)
        for lo, hi, d in self._local_blocks():
            local[lo:hi] = _solve_local(d, local[lo:hi, :, None])[:, :, 0]
        return self._back_substitute(local, *self._node_traces(local[:, :, None]))


def _solve_local(d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """D^-1 rhs for a batch of local blocks D, one LAPACK solve per block."""
    try:
        return np.linalg.solve(d, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular LDG system: local block: {exc}") from exc


def _trace_band(t: np.ndarray) -> np.ndarray:
    """S = I + [Y R]^T D^-1 [X Z] in LAPACK band storage from the node traces
    t of D^-1 [X Z]: S[i, j] = ab[kl + ku + i - j, j], and rows 0..kl-1 are
    left zero as ``dgbtrf``'s fill space.

    Node e's unknowns are 3e, 3e+1 (the Y part) and 3e+2 (the R part).
    ``t[e, :, c]`` is [Y_e^T (D^-1 X)_{e+1}; R_e^T (D^-1 X)_e] for c = 0, 1
    and [Y_e^T (D^-1 Z)_{e+1}; R_e^T (D^-1 Z)_e] for c = 2, so the Y rows of
    node e reach the Y columns of node e+1 (3 or 4 above the diagonal) and
    its R row the R column of node e-1 (3 below).  No entry of t lands on
    the diagonal, which is 1.
    """
    d = _KL + _KU                                    # band row of the diagonal
    ab = np.zeros((2 * _KL + _KU + 1, 3 * t.shape[0]), order="F")
    ab[d] = 1.0
    for c in range(2):
        for j in range(2):
            ab[d - 3 + j - c, 3 + c::3] = t[:-1, j, c]     # S[3(e-1)+j, 3e+c]
        ab[d + 2 - c, c::3] = t[:, 2, c]                  # S[3e+2, 3e+c]
        ab[d - 2 + c, 2::3] = t[:, c, 2]                  # S[3e+c, 3e+2]
    ab[d + 3, 2:-3:3] = t[1:, 2, 2]                      # S[3e+5, 3e+2]
    return ab


def solve(system: BlockSystem, max_refine: int = 4) -> LdgSolution:
    """Direct solve by static condensation with iterative refinement.

    Each element's 3(k+1) unknowns are eliminated locally.  The couplings
    across an interior node are X Y^T and Z R^T (``BlockSystem``), of rank
    2 and 1, so with D the block diagonal the node unknowns t = [Y R]^T x,
    that is (P^+, b_dn U^+ + Q^+, U^-), at the N-1 interior nodes
    solve a block-tridiagonal system of 3(N-1) unknowns, whatever k is, and
    x = D^-1 b - D^-1 [X Z] t follows element by element.  Only that trace
    system is factored whole, by LAPACK's banded LU (kl = 3, ku = 4, partial
    pivoting); N = 1 has no nodes, and x = D^-1 b.  The condensed operator
    agrees with A only to one rounding per coupling entry: A stores the
    float64 products fl(X Y^T) and fl(Z R^T) that ``assemble`` wrote, while
    the elimination uses X, Y, Z and R unmultiplied.  At Bakhvalov
    N = 65536, k = 3 the long-double products of the two forms with the
    solution differ by 1.9e-10, about 0.19 times the rounding floor
    (1.0e-9).

    Refinement therefore measures every residual against the assembled A,
    not the condensed system: A is the operator the result is checked
    against, and its residual and floor are what the stop rule and the
    final check read.  It stops at the rounding floor
    floor = eps_mach * || |A| |x| ||_inf of the unrefined x: below it no
    float64-stored x can carry a smaller residual, so further steps cannot
    pay.  A float64 residual decides whether to refine at all (its rounding
    noise only adds to it).  Refinement is the classical scheme: the
    float64 iterate x is corrected by the condensed solve of its residual
    accumulated in extended precision (near the floor a double-precision
    residual is dominated by its own rounding noise), at most
    ``max_refine`` times.  It stops once that residual is at or below the
    floor, or once a step leaves it no smaller, the sign that it has
    reached the floor.  Besides the system, D^-1 [X Z] and the band factor,
    refinement holds two iterate-sized vectors: each pass releases the
    iterate before the last step, rounds the long-double residual into a
    fresh correction and forms the new iterate in its buffer, and the new
    iterate's residual gives only its norm until the next pass.
    The last iterate is returned:
    at the floor the residual is noise (Bakhvalov k = 1, N = 65536: the
    refined iterate's l2u is within 1e-11 of the converged value, the
    unrefined one's 5e-5 off, though its residual is smaller).  Only when
    the last iterate fails the final check below and the one before the
    last step passes it is that one returned, with its own residual: near
    eps = 1e-12 a step can land 6-7 times above a residual that already met
    the check (Bakhvalov-Shishkin k = 2, N = 4096: 2.4e-8 to 1.6e-7 against
    an allowed 9.6e-8).

    A residual at the floor bounds the backward error, not the forward
    error.  On Bakhvalov and Bakhvalov-Shishkin k = 3, eps = 1e-8, N = 2048
    the first long-double residual is already below the floor, so no step
    runs and l2u is about 9x that of the refined solution (README,
    "Numerical notes"; item 2 of ROADMAP.md; the xfail rows of
    ``test_solve_matches_forced_refinement``).

    Raises RuntimeError if a local block or the trace system is singular,
    or if the residual is not finite (NaN or inf in the data or the
    solution) or exceeds the stricter of RESIDUAL_RTOL * ||rhs||_inf and
    four times the floor.
    """
    a = system.matrix
    b = system.rhs
    lu = _Condensed(system)
    x = lu.x
    del lu.x                # the iterate is held only here
    b_inf = _inf_norm(b)
    target = RESIDUAL_RTOL * b_inf

    def passes(r: float, floor: float) -> bool:
        # Below the floor the stated relative bound is unattainable
        # regardless of solver, so the check enforces the stricter of the
        # relative bound and four times the floor.  A NaN residual fails the
        # comparison, and an infinite one is refused even when an infinite
        # ||rhs||_inf would allow it.
        return r <= max(target, 4.0 * floor) and math.isfinite(r)

    # x_prev goes before each fresh correction, whose buffer the new iterate
    # reuses: at most two iterate-sized vectors are held.
    r_inf = _matvec(a, x, b)
    floor = _rounding_floor(a, x)
    steps = 0
    while r_inf > floor and steps < max_refine:
        x_prev = None                   # spent: this pass keeps x
        correction = np.empty_like(x)
        r_inf = _matvec(a, x, b, dtype=np.longdouble, out=correction)
        if r_inf <= floor:
            del correction
            break
        x_prev, r_prev = x, r_inf       # kept for the final check
        x = np.add(x_prev, lu.solve(correction), out=correction)
        steps += 1
        r_inf = _matvec(a, x, b, dtype=np.longdouble)
        if r_inf >= r_prev:
            break
    growth = lu.growth
    del lu                  # D^-1 [X Z] and the band factor are spent
    if steps:
        floor = _rounding_floor(a, x)
        if not passes(r_inf, floor):
            prev_floor = _rounding_floor(a, x_prev)
            if passes(r_prev, prev_floor):
                x, r_inf, floor = x_prev, r_prev, prev_floor
        del x_prev

    if not passes(r_inf, floor):
        raise RuntimeError(
            f"solve residual {r_inf:.3e} is non-finite or exceeds {RESIDUAL_RTOL:.0e} "
            f"* ||rhs||_inf (and the float64 floor {floor:.3e})"
        )

    info = SolveInfo(residual_inf=r_inf, rhs_inf=b_inf, growth_factor=growth,
                     refine_steps=steps)

    m = system.k + 1
    packed = x.reshape(system.mesh.n_elements, 3, m)
    return LdgSolution(
        U=PiecewisePoly(system.mesh, system.k, packed[:, 0, :].copy()),
        P=PiecewisePoly(system.mesh, system.k, packed[:, 1, :].copy()),
        Q=PiecewisePoly(system.mesh, system.k, packed[:, 2, :].copy()),
        info=info)


def solve_ldg(problem: Problem, mesh: Mesh, k: int) -> LdgSolution:
    """Assemble and solve in one call."""
    return solve(assemble(problem, mesh, k))


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
    aq = sample(problem.a, x)
    c_half_bp = sample(problem.c, x) - 0.5 * sample(problem.bprime, x)
    bn = node_values(problem.b, mesh)
    return (0.5 * problem.eps * float((jumps_p**2).sum()),
            float((hw * aq * p_vals**2).sum()),
            float((hw * c_half_bp * u_vals**2).sum()),
            0.5 * float((np.abs(bn) * jumps_u**2).sum()))
