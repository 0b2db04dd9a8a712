import math

import numpy as np
import pytest

from ldglayer.meshes import (MeshKind, MeshSpec, build_mesh,
                             max_abs_psi_prime, mesh_from_nodes, phi_eval,
                             transition_tau, uniform_mesh)

ALL_KINDS = list(MeshKind)

# The study regime: eps <= 1/N, N a power of two, sigma = k + 1.5.
GRID = [(kind, n, eps, sigma)
        for kind in ALL_KINDS
        for n in (4, 16, 64, 512)
        for eps in (1e-2, 1e-4, 1e-8, 1e-12)
        for sigma in (1.5, 2.5, 4.5)
        if eps <= 1.0 / n]


def test_phi_at_zero_is_zero():
    for kind in ALL_KINDS:
        assert phi_eval(kind, 0.0, 16, 1e-4) == 0.0


def test_phi_shishkin_half():
    # 2 * (1/2) * ln 16 = ln 16
    assert phi_eval(MeshKind.SHISHKIN, 0.5, 16, 1e-4) == pytest.approx(
        math.log(16.0), rel=1e-15)


def test_phi_bakhvalov_half():
    # 1 - 2 (1 - eps) (1/2) = eps, so phi(1/2) = -ln eps
    assert phi_eval(MeshKind.BAKHVALOV, 0.5, 16, 1e-4) == pytest.approx(
        -math.log(1e-4), rel=1e-14)


def test_phi_monotone_increasing():
    t = np.linspace(0.0, 0.5, 201)
    for kind in ALL_KINDS:
        vals = phi_eval(kind, t, 32, 1e-6)
        assert np.all(np.diff(vals) > 0.0)


def test_phi_domain_validation():
    with pytest.raises(ValueError):
        phi_eval(MeshKind.SHISHKIN, 0.6, 16, 1e-4)
    with pytest.raises(ValueError):
        phi_eval(MeshKind.SHISHKIN, -0.1, 16, 1e-4)
    with pytest.raises(ValueError):
        phi_eval(MeshKind.SHISHKIN, 0.3, 1, 1e-4)
    with pytest.raises(ValueError):
        phi_eval(MeshKind.BAKHVALOV, 0.3, 16, 1.5)


def test_max_abs_psi_prime_per_kind():
    # psi = exp(-phi): 2 ln N, 2 (1 - 1/N), 2 (1 - eps) for the three kinds
    assert max_abs_psi_prime(MeshKind.SHISHKIN, 16, 1e-3) == pytest.approx(
        2.0 * math.log(16.0), rel=1e-15)
    assert max_abs_psi_prime(MeshKind.BAKHVALOV_SHISHKIN, 16, 1e-3) == pytest.approx(
        2.0 * (1.0 - 1.0 / 16.0), rel=1e-15)
    assert max_abs_psi_prime(MeshKind.BAKHVALOV, 16, 1e-3) == pytest.approx(
        2.0 * (1.0 - 1e-3), rel=1e-15)


def test_mesh_kind_tags():
    assert MeshKind.from_tag("s") is MeshKind.SHISHKIN
    assert MeshKind.from_tag("BS") is MeshKind.BAKHVALOV_SHISHKIN
    assert MeshKind.from_tag(" b ") is MeshKind.BAKHVALOV
    with pytest.raises(ValueError):
        MeshKind.from_tag("x")


def test_spec_validation():
    with pytest.raises(ValueError):
        MeshSpec(MeshKind.SHISHKIN, 7, 1e-4, 2.5)   # odd
    with pytest.raises(ValueError):
        MeshSpec(MeshKind.SHISHKIN, 2, 1e-4, 2.5)   # too small
    with pytest.raises(ValueError):
        MeshSpec(MeshKind.SHISHKIN, 16, 1.2, 2.5)   # eps out of range
    with pytest.raises(ValueError):
        MeshSpec(MeshKind.SHISHKIN, 16, 1e-4, 0.0)  # sigma
    with pytest.raises(ValueError):
        MeshSpec(MeshKind.SHISHKIN, 16, 1e-4, 2.5, alpha=-1.0)
    # NaN passes a "<= 0" test, and an infinite sigma clamps to a uniform mesh
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            MeshSpec(MeshKind.SHISHKIN, 16, 1e-4, sigma)
    with pytest.raises(ValueError, match="alpha"):
        MeshSpec(MeshKind.SHISHKIN, 16, 1e-4, 2.5, alpha=float("nan"))


def test_transition_tau_shishkin():
    # 2.5 * 1e-4 * ln 16 (hand evaluation)
    tau, clamped = transition_tau(MeshSpec(MeshKind.SHISHKIN, 16, 1e-4, 2.5))
    assert tau == pytest.approx(2.5e-4 * math.log(16.0), rel=1e-14, abs=0)
    assert not clamped


def test_transition_tau_clamps():
    # 2 * 0.5 * ln 16 = 2.77 > 1/2
    tau, clamped = transition_tau(MeshSpec(MeshKind.SHISHKIN, 16, 0.5, 2.0))
    assert tau == 0.5
    assert clamped


def test_transition_tau_bakhvalov():
    tau, clamped = transition_tau(MeshSpec(MeshKind.BAKHVALOV, 64, 1e-8, 2.5))
    assert tau == pytest.approx(2.5e-8 * math.log(1e8), rel=1e-13)
    assert not clamped


def test_build_small_shishkin_by_hand():
    # N=4, eps=0.01, sigma=2.5: tau = 0.025 ln 4, x1 = (1-tau)/2, x2 = 1-tau,
    # both fine widths equal (0.025 * 2 ln 4) / 4.
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 4, 0.01, 2.5))
    tau = 0.025 * math.log(4.0)
    assert mesh.tau == pytest.approx(tau, rel=1e-15)
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[4] == 1.0
    assert mesh.nodes[1] == pytest.approx((1.0 - tau) / 2.0, rel=1e-15)
    assert mesh.nodes[2] == pytest.approx(1.0 - tau, rel=1e-15)
    fine = 0.025 * 2.0 * math.log(4.0) / 4.0
    assert mesh.widths[2] == pytest.approx(fine, rel=1e-13)
    assert mesh.widths[3] == pytest.approx(fine, rel=1e-13)


def test_build_bakhvalov_first_fine_width_lower_bound():
    # first fine width >= sigma*eps/(2*alpha) = 0.0125
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 8, 0.01, 2.5))
    assert mesh.widths[4] >= 0.0125


@pytest.mark.parametrize("kind,n,eps,sigma", GRID)
def test_mesh_invariants(kind, n, eps, sigma):
    spec = MeshSpec(kind, n, eps, sigma)
    mesh = build_mesh(spec)
    half = n // 2

    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    assert np.all(np.diff(mesh.nodes) > 0.0)
    assert np.all(mesh.widths > 0.0)
    assert not mesh.clamped

    # transition point and equal coarse widths
    assert mesh.nodes[half] == pytest.approx(1.0 - mesh.tau, rel=1e-15)
    coarse = mesh.widths[:half]
    assert np.all(coarse == coarse[0])
    assert coarse[0] == pytest.approx(2.0 * (1.0 - mesh.tau) / n, rel=1e-15)
    assert coarse[0] <= 2.0 / n

    # fine widths obey the per-kind bound sigma*eps/alpha * max|phi'| / N
    fine_bound = sigma * eps * _max_phi_prime(kind, n, eps) / n
    assert np.all(mesh.widths[half:] <= fine_bound * (1.0 + 1e-12))

    # characterising function at the transition argument
    psi_half = math.exp(-phi_eval(kind, 0.5, n, eps))
    assert psi_half <= 1.0 / n + 1e-15

    # offsets are the source of truth: 1 - x_i reproduces d_i to one ulp of 1
    back = 1.0 - mesh.nodes[half:]
    assert np.all(np.abs(back - mesh.offsets[half:]) <= 2.0**-53)


def _max_phi_prime(kind: MeshKind, n: int, eps: float) -> float:
    if kind is MeshKind.SHISHKIN:
        return 2.0 * math.log(n)
    if kind is MeshKind.BAKHVALOV_SHISHKIN:
        return 2.0 * (n - 1.0)
    return 2.0 * (1.0 - eps) / eps


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_global_width_bound_study_regime(kind):
    # max_j h_j <= 2/N across the convergence-study grid
    for n in (16, 64, 256, 512):
        for eps in (1e-4, 1e-8, 1e-12):
            for sigma in (1.5, 2.5, 3.5, 4.5):
                mesh = build_mesh(MeshSpec(kind, n, eps, sigma))
                assert mesh.widths.max() <= 2.0 / n * (1.0 + 1e-12)


def test_shishkin_fine_widths_uniform():
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 64, 1e-8, 2.5))
    fine = mesh.widths[32:]
    expected = 2.5e-8 * 2.0 * math.log(64.0) / 64.0
    assert np.allclose(fine, expected, rtol=1e-12)


def test_bakhvalov_width_lower_bounds():
    # h_{N/2+j} >= sigma*eps/(alpha*(j+1)) and the layer-interior widths sum
    # to at most (sigma*eps/alpha) ln(N/2).
    for n, eps in ((16, 1e-4), (64, 1e-8), (256, 1e-8)):
        sigma = 2.5
        mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, n, eps, sigma))
        half = n // 2
        j = np.arange(1, half + 1)
        assert np.all(mesh.widths[half + j - 1] >= sigma * eps / (j + 1) * (1 - 1e-12))
        tail = mesh.widths[half + 1:].sum()
        assert tail <= sigma * eps * math.log(n / 2.0) * (1 + 1e-12)


def test_extreme_eps_keeps_positive_widths():
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 512, 1e-12, 4.5))
    assert np.all(mesh.widths > 0.0)
    assert np.all(np.diff(mesh.nodes) > 0.0)


def test_degenerate_eps_raises():
    with pytest.raises(ValueError):
        build_mesh(MeshSpec(MeshKind.SHISHKIN, 512, 1e-300, 4.5))


def test_clamped_mesh_still_valid():
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 8, 0.3, 2.5))
    assert mesh.clamped
    assert mesh.tau == 0.5
    assert np.all(mesh.widths > 0.0)
    assert np.all(np.diff(mesh.nodes) > 0.0)
    assert mesh.nodes[4] == pytest.approx(0.5, rel=1e-15)


def test_one_minus_x_matches_offsets_at_endpoints():
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 32, 1e-8, 2.5))
    elems = np.arange(32)
    left = mesh.one_minus_x(elems, np.zeros(32))
    right = mesh.one_minus_x(elems, np.ones(32))
    assert np.array_equal(left, mesh.offsets[:-1])
    assert np.array_equal(right, mesh.offsets[1:])


def test_mesh_is_immutable():
    mesh = uniform_mesh(4)
    with pytest.raises(ValueError):
        mesh.nodes[0] = 0.5


def test_dump_nodes_roundtrip():
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 8, 1e-4, 2.5))
    text = mesh.dump_nodes()
    values = [float(line) for line in text.strip().splitlines()]
    assert values == list(mesh.nodes)


def test_mesh_from_nodes_validation():
    with pytest.raises(ValueError):
        mesh_from_nodes([0.0, 0.5, 0.4, 1.0])
    with pytest.raises(ValueError):
        mesh_from_nodes([0.1, 0.5, 1.0])
    mesh = mesh_from_nodes([0.0, 0.25, 0.5, 1.0])
    assert mesh.n_elements == 3
