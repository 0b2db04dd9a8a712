"""Layer-adapted meshes on [0, 1] for a boundary layer at x = 1.

Three mesh families are supported (Shishkin, Bakhvalov-Shishkin, Bakhvalov).
Each is defined by a grading function ``phi`` on [0, 1/2]; the unit interval
is split at the transition point ``1 - tau`` into N/2 equal coarse elements
and N/2 graded fine elements, with

    tau = min(1/2, (sigma * eps / alpha) * phi(1/2)).

Fine-region geometry is stored as offsets ``d_i = 1 - x_i`` computed directly
from ``phi``, never by subtracting rounded nodes: at eps near 1e-12 the node
values collapse toward 1.0 in float64 while the offsets keep full relative
precision, and element widths are offset differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class MeshKind(Enum):
    """The three layer-adapted mesh families."""

    SHISHKIN = "s"
    BAKHVALOV_SHISHKIN = "bs"
    BAKHVALOV = "b"

    @classmethod
    def from_tag(cls, tag: str) -> "MeshKind":
        try:
            return cls(tag.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown mesh kind {tag!r}; expected one of 's', 'bs', 'b'"
            ) from None


def phi_eval(kind: MeshKind, t, N: int, eps: float):
    """Grading function phi(t) on [0, 1/2] for the given mesh kind.

    Shishkin:            2 t ln N
    Bakhvalov-Shishkin: -ln[1 - 2 (1 - 1/N) t]
    Bakhvalov:          -ln[1 - 2 (1 - eps) t]

    phi(0) = 0 and phi is monotonically increasing.  Accepts scalars or
    arrays for ``t``.
    """
    t = np.asarray(t, dtype=float)
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if (t < 0.0).any() or (t > 0.5).any():
        raise ValueError("phi is defined on [0, 1/2]")
    if kind is MeshKind.SHISHKIN:
        out = 2.0 * t * math.log(N)
    else:
        slope = (1.0 - 1.0 / N) if kind is MeshKind.BAKHVALOV_SHISHKIN else (1.0 - eps)
        arg = -2.0 * slope * t
        # log1p argument stays > -1 for t <= 1/2; guard against roundoff anyway.
        if (1.0 + arg <= 0.0).any():
            raise ValueError("grading function log argument is non-positive")
        out = -np.log1p(arg)
    return float(out) if out.ndim == 0 else out


def max_abs_psi_prime(kind: MeshKind, N: int, eps: float) -> float:
    """max |psi'| of the mesh-characterising function psi = exp(-phi).

    2 ln N for the Shishkin mesh, 2 (1 - 1/N) for Bakhvalov-Shishkin and
    2 (1 - eps) for Bakhvalov.  Governs the per-kind fine-element width bound
    and the convergence factor.
    """
    if kind is MeshKind.SHISHKIN:
        return 2.0 * math.log(N)
    if kind is MeshKind.BAKHVALOV_SHISHKIN:
        return 2.0 * (1.0 - 1.0 / N)
    return 2.0 * (1.0 - eps)


@dataclass(frozen=True)
class MeshSpec:
    """Parameters defining a layer-adapted mesh.

    The intended regime is eps <= 1/N (convection dominated); larger eps is
    accepted but the built mesh then records that tau clamped to 1/2.
    """

    kind: MeshKind
    N: int
    eps: float
    sigma: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be an even integer >= 4, got {self.N}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def transition_tau(spec: MeshSpec) -> tuple[float, bool]:
    """Transition width tau = min(1/2, (sigma eps / alpha) phi(1/2)).

    Returns (tau, clamped); clamped is True when the min saturated at 1/2,
    i.e. the run is outside the convection-dominated regime.
    """
    phi_half = phi_eval(spec.kind, 0.5, spec.N, spec.eps)
    layer_tau = (spec.sigma * spec.eps / spec.alpha) * phi_half
    if layer_tau >= 0.5:
        return 0.5, True
    return layer_tau, False


@dataclass(frozen=True)
class Mesh:
    """A built mesh: nodes x_0..x_N, offsets d_i = 1 - x_i, widths h_1..h_N.

    Offsets are the source of truth for geometry near x = 1; nodes are their
    rounded images.  Immutable after construction; ``memo`` holds read-only
    arrays derived from the mesh alone (``basis.mesh_traces``), so they are
    freed with it.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    widths: np.ndarray
    tau: float
    clamped: bool
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for arr in (self.nodes, self.offsets, self.widths):
            arr.setflags(write=False)

    @property
    def n_elements(self) -> int:
        return self.widths.size

    @property
    def n_coarse(self) -> int:
        """Number of elements left of the transition point."""
        return self.n_elements // 2

    def one_minus_x(self, elem: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """1 - x at relative position theta in [0, 1] of 0-based elements,
        ``elem`` and ``theta`` broadcast against each other.

        Interpolates in offset space, so the result keeps full relative
        precision arbitrarily close to x = 1.
        """
        d_left = self.offsets[elem]
        d_right = self.offsets[elem + 1]
        return d_left * (1.0 - theta) + d_right * theta

    def dump_nodes(self) -> str:
        """One node per line at full precision (CLI debugging aid)."""
        return "\n".join(repr(float(x)) for x in self.nodes) + "\n"


def build_mesh(spec: MeshSpec) -> Mesh:
    """Construct the layer-adapted mesh for ``spec``.

    Coarse nodes: x_i = (2 i / N)(1 - tau) for i < N/2.  Fine nodes come from
    offsets d_i = (sigma eps / alpha) phi(1 - i/N) for i >= N/2; when tau is
    clamped the offsets are rescaled by tau / ((sigma eps/alpha) phi(1/2)) so
    the two regions still meet at 1 - tau.

    Raises ValueError if any width underflows to <= 0 or nodes stop being
    strictly increasing (N too large for the floating-point resolution of
    eps).
    """
    N = spec.N
    half = N // 2
    tau, clamped = transition_tau(spec)

    i = np.arange(N + 1)
    t_fine = (N - i[half:]) / N  # 1 - i/N, exact for the fine indices
    phi_fine = np.asarray(phi_eval(spec.kind, t_fine, N, spec.eps))
    if clamped:
        d_fine = 0.5 * phi_fine / phi_fine[0]
    else:
        d_fine = (spec.sigma * spec.eps / spec.alpha) * phi_fine

    offsets = np.empty(N + 1)
    # Coarse offsets by the cancellation-free form tau + (1 - 2i/N)(1 - tau).
    offsets[:half] = tau + (1.0 - 2.0 * i[:half] / N) * (1.0 - tau)
    offsets[half:] = d_fine

    nodes = np.empty(N + 1)
    nodes[:half] = (2.0 * i[:half] / N) * (1.0 - tau)
    nodes[half:] = 1.0 - d_fine
    nodes[0] = 0.0
    nodes[N] = 1.0  # phi(0) = 0 exactly

    widths = np.empty(N)
    widths[:half] = 2.0 * (1.0 - tau) / N
    widths[half:] = d_fine[:-1] - d_fine[1:]

    if (widths <= 0.0).any():
        raise ValueError(
            f"mesh degenerated: non-positive element width at N={N}, eps={spec.eps} "
            "(N too large for the floating-point resolution of eps)"
        )
    if (nodes[1:] <= nodes[:-1]).any():
        raise ValueError(
            f"mesh degenerated: coincident nodes at N={N}, eps={spec.eps}"
        )
    return Mesh(nodes=nodes, offsets=offsets, widths=widths, tau=tau, clamped=clamped)


def mesh_from_nodes(nodes) -> Mesh:
    """Mesh from an explicit strictly increasing node array on [0, 1].

    Intended for tests and debugging; offsets are formed by direct
    subtraction, so this constructor should not be used for layer geometry
    at extreme eps.
    """
    nodes = np.asarray(nodes, dtype=float).copy()
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("need at least two nodes")
    if nodes[0] != 0.0 or nodes[-1] != 1.0:
        raise ValueError("nodes must span exactly [0, 1]")
    widths = np.diff(nodes)
    if np.any(widths <= 0.0):
        raise ValueError("nodes must be strictly increasing")
    offsets = 1.0 - nodes
    offsets[-1] = 0.0
    return Mesh(nodes=nodes, offsets=offsets, widths=widths,
                tau=float(1.0 - nodes[nodes.size // 2]), clamped=False)


def uniform_mesh(n: int) -> Mesh:
    """Uniform n-element mesh on [0, 1] (testing helper)."""
    return mesh_from_nodes(np.linspace(0.0, 1.0, n + 1))
