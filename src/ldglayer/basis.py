"""Reference-element polynomials, quadrature, and piecewise representation.

Every element carries the L2-orthonormal shifted-Legendre basis

    phi_l(x) = sqrt((2l+1)/h_j) * P_l(2(x - x_{j-1})/h_j - 1),

so the element L2 norm of a piecewise polynomial equals the Euclidean norm of
its coefficient vector and mass matrices are identities regardless of h_j.

Only this module states the element conventions that fluxes, projections
and error norms share: the basis endpoint values (``basis_traces``), a
function's values at points (``sample``), its offset-aware node values
(``node_values``) and its moments against the basis (``element_moments``).

Everything that the degree k, the quadrature rule or the mesh alone fixes
is formed once and kept read-only: ``gauss_quadrature`` returns one
``Quadrature`` per point count, each rule keeps its Legendre value and
derivative tables per k (``Quadrature.legendre``), and each mesh keeps its
basis traces per k (``mesh_traces``), so they are freed with the mesh.

Functions with a boundary-layer factor exp(-(1-x)/eps) are represented by
``LayerFn`` (smooth part + layer coefficient).  Their moments against the
basis are integrated exactly through scaled modified spherical Bessel
functions, computed in numpy, accurate for element-width-to-eps ratios from
~0 to 1e12; plain callables fall back to Gauss quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .meshes import Mesh

_MAX_QUAD_POINTS = 64


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule on [-1, 1]: exact for degree <= 2n - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.nodes.size

    def legendre(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``legendre_table`` and ``legendre_deriv_table`` of degree k at the
        nodes, each (k+1, n); formed once per k and read-only."""
        tables = self._tables.get(k)
        if tables is None:
            tables = self._tables[k] = _read_only(
                legendre_table(k, self.nodes), legendre_deriv_table(k, self.nodes))
        return tables


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def gauss_quadrature(n: int) -> Quadrature:
    """n-point Gauss-Legendre rule on [-1, 1], the same read-only object on
    every call with the same n (a refused n raises each time)."""
    if not 1 <= n <= _MAX_QUAD_POINTS:
        raise ValueError(f"supported point counts are 1..{_MAX_QUAD_POINTS}, got {n}")
    return Quadrature(*np.polynomial.legendre.leggauss(n))


def legendre_table(k: int, t: np.ndarray) -> np.ndarray:
    """P_0..P_k evaluated at points t, shape (k+1, len(t))."""
    t = np.asarray(t, dtype=float)
    table = np.empty((k + 1, t.size))
    table[0] = 1.0
    if k >= 1:
        table[1] = t
    for l in range(2, k + 1):
        table[l] = ((2 * l - 1) * t * table[l - 1] - (l - 1) * table[l - 2]) / l
    return table


def legendre_deriv_table(k: int, t: np.ndarray) -> np.ndarray:
    """P_0'..P_k' at points t via P_l' = P_{l-2}' + (2l-1) P_{l-1}."""
    t = np.asarray(t, dtype=float)
    p = legendre_table(k, t)
    table = np.zeros((k + 1, t.size))
    if k >= 1:
        table[1] = 1.0
    for l in range(2, k + 1):
        table[l] = table[l - 2] + (2 * l - 1) * p[l - 1]
    return table


class LayerFn:
    """A function smooth(x) + coeff * exp(-(1 - x)/eps).

    The layer factor is evaluated from 1 - x directly when the caller can
    supply it (mesh offsets), which preserves full relative accuracy inside
    the layer where float64 x has absorbed into 1.0.
    """

    __slots__ = ("smooth", "coeff", "eps")

    def __init__(self, smooth: Callable, coeff: float, eps: float):
        self.smooth = smooth
        self.coeff = float(coeff)
        self.eps = float(eps)

    def __call__(self, x, one_minus_x=None):
        """Values at x, the layer factor from one_minus_x when given."""
        return sample(self, x, one_minus_x)


def sample(f, x, one_minus_x=None, layers=None) -> np.ndarray:
    """f at the points x, as a float array of x's shape (f's own array when
    it has that shape).  A LayerFn forms its layer factor exp(-(1-x)/eps)
    from the offsets one_minus_x when given, else from 1 - x; callers that
    sample several LayerFns at the same points pass one ``layers`` dict,
    which keeps each factor by eps so that it is formed once."""
    x = np.asarray(x, dtype=float)
    if isinstance(f, LayerFn):
        layer = None if layers is None else layers.get(f.eps)
        if layer is None:
            omx = 1.0 - x if one_minus_x is None else np.asarray(one_minus_x, dtype=float)
            layer = np.exp(-omx / f.eps)
            if layers is not None:
                layers[f.eps] = layer
        vals = f.smooth(x) + f.coeff * layer
    else:
        vals = np.asarray(f(x), dtype=float)
    return vals if vals.shape == x.shape else np.broadcast_to(vals, x.shape)


def basis_scale(widths: np.ndarray, k: int) -> np.ndarray:
    """sqrt((2l+1)/h) scale factors of phi_0..phi_k per width, (len(widths), k+1)."""
    return np.sqrt((2.0 * np.arange(k + 1)[None, :] + 1.0) / widths[:, None])


def basis_traces(widths: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint values of phi_0..phi_k per width, each (len(widths), k+1):
    phi_l(x_{j-1}^+) = (-1)^l s_l on the left and phi_l(x_j^-) = s_l on the
    right, s = ``basis_scale``."""
    right = basis_scale(widths, k)
    return right * (-1.0) ** np.arange(k + 1), right


def mesh_traces(mesh: Mesh, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``basis_traces`` of the mesh's widths, formed once per k, held by
    the mesh and read-only; the right traces are the basis scales."""
    traces = mesh.memo.get(("traces", k))
    if traces is None:
        traces = mesh.memo["traces", k] = _read_only(*basis_traces(mesh.widths, k))
    return traces


def node_values(f, mesh: Mesh) -> np.ndarray:
    """f at nodes 0..N, offset-aware, shape (N+1,)."""
    return sample(f, mesh.nodes, mesh.offsets)


def element_weights(mesh: Mesh, quad: Quadrature) -> np.ndarray:
    """Physical quadrature weights h_j/2 * w_q of every element, (N, nq)."""
    return 0.5 * mesh.widths[:, None] * quad.weights[None, :]


def quad_points(mesh: Mesh, quad: Quadrature) -> np.ndarray:
    """Physical quadrature points x of every element, (N, nq)."""
    theta = 0.5 * (quad.nodes + 1.0)
    return mesh.nodes[:-1, None] + theta[None, :] * mesh.widths[:, None]


def quad_offsets(mesh: Mesh, quad: Quadrature) -> np.ndarray:
    """Offsets 1 - x of the ``quad_points``, (N, nq), from ``Mesh.one_minus_x``."""
    return mesh.one_minus_x(np.arange(mesh.n_elements)[:, None], 0.5 * (quad.nodes + 1.0))


def _scaled_sph_bessel(k: int, beta: np.ndarray) -> np.ndarray:
    """exp(-beta) * i_l(beta) for l = 0..k, shape (len(beta), k+1).

    i_l is the modified spherical Bessel function of the first kind.  Two
    regimes per degree: up to beta = max(5, l^2/2.5) the power series (DLMF
    section 10.53)

        e^{-b} b^l sum_{j<40+6l} (b^2/2)^j / (j! (2l+2j+1)!!),

    whose terms are all positive, so nothing cancels, and which stops early
    once the terms no longer change the sum; above it the exact
    finite closed form (DLMF section 10.49)

        (1/2b) [sum_m (-1)^m c_m b^-m  -  (-1)^l e^{-2b} sum_m c_m b^-m],
        c_m = (l+m)! / (m! (l-m)! 2^m),

    whose alternating sum cancels more as l grows, but only mildly beyond
    that split.  Relative error below 2e-15 for l <= 12.
    """
    beta = np.asarray(beta, dtype=float)
    out = np.empty((beta.size, k + 1))
    half_sq = 0.5 * beta * beta
    lead = np.exp(-beta)                    # e^{-b} b^l / (2l+1)!!
    for l in range(k + 1):
        series = beta <= max(5.0, l * l / 2.5)
        total = lead[series]
        hs = half_sq[series]
        # Relative to the sum, the terms shrink more slowly the larger b is,
        # so the largest b sets the cut: from its first term at or below
        # 2^-60 times its sum on, every term at every b is below half an ulp
        # of its sum and would leave it unchanged.
        cut = 40 + 6 * l
        if hs.size:
            top = hs.argmax()
            h, term, sum_top = float(hs[top]), float(total[top]), float(total[top])
            for j in range(1, cut):
                term = term * h / (j * (2 * l + 2 * j + 1))
                if not term > 2.0**-60 * sum_top:
                    cut = j
                    break
                sum_top += term
        term = total.copy()
        for j in range(1, cut):
            term *= hs
            term /= j * (2 * l + 2 * j + 1)
            total += term
        out[series, l] = total
        lead = lead * beta / (2 * l + 3)
        bl = beta[~series]
        alt = np.zeros_like(bl)
        plain = np.zeros_like(bl)
        for m in range(l + 1):
            c = math.factorial(l + m) // (math.factorial(m) * math.factorial(l - m) * 2**m)
            term = c * bl ** (-m)
            alt += (-1.0) ** m * term
            plain += term
        out[~series, l] = (alt - (-1.0) ** l * np.exp(-2.0 * bl) * plain) / (2.0 * bl)
    return out


def layer_moments(mesh: Mesh, eps: float, k: int) -> np.ndarray:
    """Exact moments of exp(-(1-x)/eps) against the orthonormal basis.

    Returns (N, k+1) with entry (e, l) = integral over element e of
    exp(-(1-x)/eps) * phi_l(x) dx, computed as

        sqrt((2l+1) h) * exp(-d_right/eps) * [exp(-beta) i_l(beta)],

    beta = h/(2 eps), d_right the offset of the element's right node.
    """
    h = mesh.widths
    d_right = mesh.offsets[1:]
    beta = h / (2.0 * eps)
    bess = _scaled_sph_bessel(k, beta)
    scale = np.sqrt((2.0 * np.arange(k + 1)[None, :] + 1.0) * h[:, None])
    return scale * np.exp(-d_right / eps)[:, None] * bess


def element_moments(f, mesh: Mesh, k: int, quad: Quadrature) -> np.ndarray:
    """Per-element moments <f, phi_l>, shape (N, k+1).

    The smooth part goes through Gauss quadrature; a LayerFn's layer part is
    integrated exactly via ``layer_moments``.
    """
    vals = sample(f.smooth if isinstance(f, LayerFn) else f, quad_points(mesh, quad))
    core = np.einsum("q,eq,lq->el", quad.weights, vals, quad.legendre(k)[0])
    moments = mesh_traces(mesh, k)[1] * (0.5 * mesh.widths[:, None]) * core
    if isinstance(f, LayerFn):
        moments = moments + f.coeff * layer_moments(mesh, f.eps, k)
    return moments


def element_values(f, mesh: Mesh, quad: Quadrature) -> np.ndarray:
    """f at the quadrature points of every element, offset-aware, (N, nq)."""
    return sample(f, quad_points(mesh, quad), quad_offsets(mesh, quad))


@dataclass
class PiecewisePoly:
    """Element-wise polynomial of degree <= k in the orthonormal basis.

    coeffs has shape (N, k+1); row j-1 holds the coefficients on element j.
    """

    mesh: Mesh
    k: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = (self.mesh.n_elements, self.k + 1)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}")

    @property
    def scale(self) -> np.ndarray:
        """sqrt((2l+1)/h_j) basis scale factors, (N, k+1), read-only."""
        return mesh_traces(self.mesh, self.k)[1]

    # -- evaluation ---------------------------------------------------------

    def values_at(self, quad: Quadrature) -> np.ndarray:
        """Values at the quadrature points of every element, (N, nq)."""
        return np.einsum("em,mq->eq", self.coeffs * self.scale, quad.legendre(self.k)[0])

    def deriv_values_at(self, quad: Quadrature) -> np.ndarray:
        """Derivative values at the quadrature points, (N, nq)."""
        scaled = self.coeffs * self.scale * (2.0 / self.mesh.widths[:, None])
        return np.einsum("em,mq->eq", scaled, quad.legendre(self.k)[1])

    def __call__(self, x) -> np.ndarray:
        """Global evaluation (points at interior nodes use the left element)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        elem = np.clip(np.searchsorted(self.mesh.nodes, x, side="left") - 1,
                       0, self.mesh.n_elements - 1)
        t = 2.0 * (x - self.mesh.nodes[elem]) / self.mesh.widths[elem] - 1.0
        p = legendre_table(self.k, t)  # (k+1, npts)
        s = basis_scale(self.mesh.widths[elem], self.k)
        return np.einsum("ml,ml->l", (self.coeffs[elem] * s).T, p)

    # -- traces and jumps ---------------------------------------------------

    def trace_minus_all(self) -> np.ndarray:
        """Left-limit values v_j^- at nodes j = 1..N, shape (N,)."""
        return (self.coeffs * mesh_traces(self.mesh, self.k)[1]).sum(axis=1)

    def trace_plus_all(self) -> np.ndarray:
        """Right-limit values v_j^+ at nodes j = 0..N-1, shape (N,)."""
        return (self.coeffs * mesh_traces(self.mesh, self.k)[0]).sum(axis=1)

    def jumps(self) -> np.ndarray:
        """[v]_j for j = 0..N: v^+ - v^- inside, v_0^+ at 0, -v_N^- at N."""
        minus = self.trace_minus_all()
        plus = self.trace_plus_all()
        out = np.empty(self.mesh.n_elements + 1)
        out[0] = plus[0]
        out[1:-1] = plus[1:] - minus[:-1]
        out[-1] = -minus[-1]
        return out

    # -- algebra ------------------------------------------------------------

    def derivative(self) -> "PiecewisePoly":
        """Element-wise derivative, expanded in the same basis (degree k)."""
        m = self.k + 1
        l = np.arange(m)
        pair = np.zeros((m, m))
        for a in range(m):
            for b in range(m):
                if b > a and (b - a) % 2 == 1:
                    pair[a, b] = 2.0 * math.sqrt((2 * a + 1) * (2 * b + 1))
        dcoeffs = np.einsum("ab,eb->ea", pair, self.coeffs) / self.mesh.widths[:, None]
        return PiecewisePoly(self.mesh, self.k, dcoeffs)

    def l2(self) -> float:
        """Global L2 norm (orthonormal basis: Euclidean coefficient norm)."""
        return float(np.sqrt((self.coeffs**2).sum()))

    def _check_same(self, other: "PiecewisePoly") -> None:
        if self.mesh is not other.mesh or self.k != other.k:
            raise ValueError("operands must share mesh and degree")

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        self._check_same(other)
        return PiecewisePoly(self.mesh, self.k, self.coeffs - other.coeffs)


def zero_poly(mesh: Mesh, k: int) -> PiecewisePoly:
    return PiecewisePoly(mesh, k, np.zeros((mesh.n_elements, k + 1)))


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
