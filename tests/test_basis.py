import math

import mpmath as mp
import numpy as np
import pytest

from ldglayer.basis import (LayerFn, PiecewisePoly, _scaled_sph_bessel, basis_scale,
                            basis_traces, element_moments, gauss_quadrature,
                            layer_moments, legendre_table, legendre_deriv_table,
                            node_values, quad_offsets, quad_points, sample)
from ldglayer.meshes import MeshKind, MeshSpec, build_mesh, mesh_from_nodes, uniform_mesh

from oracles import (ProjectionSign, deriv_values_at, derivative, l2, project_gauss_radau,
                     zero_poly)


# -- quadrature ----------------------------------------------------------

def test_one_point_rule_is_midpoint():
    q = gauss_quadrature(1)
    assert q.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert q.weights[0] == pytest.approx(2.0, rel=1e-15)


def test_two_point_rule():
    q = gauss_quadrature(2)
    assert np.allclose(np.sort(q.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                       rtol=1e-15)
    assert np.allclose(q.weights, [1.0, 1.0], rtol=1e-15)


def test_five_point_rule_integrates_t8():
    q = gauss_quadrature(5)
    val = (q.weights * q.nodes**8).sum()
    assert val == pytest.approx(2.0 / 9.0, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 20, 64])
def test_rule_exactness_and_weight_sum(n):
    q = gauss_quadrature(n)
    assert q.weights.sum() == pytest.approx(2.0, rel=1e-14)
    assert np.all(q.weights > 0.0)
    # exact up to degree 2n-1; oracle: int_{-1}^{1} t^m = 2/(m+1), m even
    for m in range(2 * n):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        val = (q.weights * q.nodes**m).sum()
        assert val == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_unsupported_point_counts():
    with pytest.raises(ValueError):
        gauss_quadrature(0)
    with pytest.raises(ValueError):
        gauss_quadrature(65)


def test_legendre_tables_match_numpy():
    t = np.linspace(-1.0, 1.0, 17)
    table = legendre_table(5, t)
    dtable = legendre_deriv_table(5, t)
    for l in range(6):
        coef = np.zeros(l + 1)
        coef[l] = 1.0
        assert np.allclose(table[l], np.polynomial.legendre.legval(t, coef),
                           rtol=1e-13, atol=1e-14)
        dcoef = np.polynomial.legendre.legder(coef)
        assert np.allclose(dtable[l], np.polynomial.legendre.legval(t, dcoef),
                           rtol=1e-13, atol=1e-13)


# -- piecewise polynomials ------------------------------------------------

def test_traces_constant():
    mesh = uniform_mesh(4)
    coeffs = np.zeros((4, 3))
    coeffs[:, 0] = 7.0 * np.sqrt(mesh.widths)  # represents v = 7
    v = PiecewisePoly(mesh, 2, coeffs)
    for j in range(1, 4):
        assert v.trace_minus_all()[j - 1] == pytest.approx(7.0, rel=1e-14)
        assert v.trace_plus_all()[j] == pytest.approx(7.0, rel=1e-14)


def test_traces_zero_poly():
    v = zero_poly(uniform_mesh(3), 1)
    assert v.trace_minus_all()[0] == 0.0
    assert v.trace_plus_all()[1] == 0.0


def test_traces_linear_mode():
    # the degree-1 orthonormal mode takes values +-sqrt(3/h) at the ends
    mesh = uniform_mesh(4)
    coeffs = np.zeros((4, 2))
    coeffs[1, 1] = 1.0  # element 2
    v = PiecewisePoly(mesh, 1, coeffs)
    h = mesh.widths[1]
    assert v.trace_minus_all()[1] == pytest.approx(math.sqrt(3.0 / h), rel=1e-14)
    assert v.trace_plus_all()[1] == pytest.approx(-math.sqrt(3.0 / h), rel=1e-14)


def test_basis_traces_are_endpoint_values():
    widths = np.array([0.5, 1e-9, 3.0])
    left, right = basis_traces(widths, 3)
    ends = legendre_table(3, np.array([-1.0, 1.0]))     # P_l(-1), P_l(1)
    scale = basis_scale(widths, 3)
    assert np.array_equal(left, scale * ends[:, 0])
    assert np.array_equal(right, scale * ends[:, 1])


def test_node_values_are_offset_aware_and_full_length():
    eps = 1e-12
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 16, eps, 2.5))
    layer = node_values(LayerFn(lambda x: np.zeros_like(x), 1.0, eps), mesh)
    assert np.array_equal(layer, np.exp(-mesh.offsets / eps))
    assert layer[-2] > 0.0      # 1 - nodes[-2] would round the layer away
    const = node_values(lambda x: 2.0, mesh)
    assert const.shape == (mesh.n_elements + 1,) and np.all(const == 2.0)


def test_l2_norm_is_coefficient_norm():
    rng = np.random.default_rng(7)
    mesh = uniform_mesh(5)
    coeffs = rng.standard_normal((5, 4))
    v = PiecewisePoly(mesh, 3, coeffs)
    quad = gauss_quadrature(8)
    hw = 0.5 * mesh.widths[:, None] * quad.weights[None, :]
    norm_quad = math.sqrt(float((hw * v.values_at(quad) ** 2).sum()))
    assert l2(v) == pytest.approx(norm_quad, rel=1e-13)
    assert l2(v) == pytest.approx(float(np.sqrt((coeffs**2).sum())), rel=1e-15)


def test_derivative_matches_value_table():
    rng = np.random.default_rng(11)
    mesh = mesh_from_nodes([0.0, 0.3, 0.7, 1.0])
    v = PiecewisePoly(mesh, 3, rng.standard_normal((3, 4)))
    quad = gauss_quadrature(6)
    assert np.allclose(derivative(v).values_at(quad), deriv_values_at(v, quad),
                       rtol=1e-12, atol=1e-12)


def test_quad_offsets_are_one_minus_quad_points():
    quad = gauss_quadrature(6)
    mesh = uniform_mesh(8)
    assert np.allclose(quad_offsets(mesh, quad), 1.0 - quad_points(mesh, quad),
                       rtol=0.0, atol=1e-15)
    # in the last layer element 1 - x has lost most of its digits; the
    # offsets interpolate the node offsets to full relative precision
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 64, 1e-12, 2.5))
    theta = 0.5 * (quad.nodes + 1.0)
    exact = (1.0 - theta) * mesh.offsets[-2] + theta * mesh.offsets[-1]
    omx = quad_offsets(mesh, quad)[-1]
    assert np.allclose(omx, exact, rtol=1e-15, atol=0.0)
    assert not np.allclose(1.0 - quad_points(mesh, quad)[-1], exact,
                           rtol=1e-3, atol=0.0)


def test_quad_offsets_match_a_gather_of_every_point():
    """Element indices of shape (N, 1) give the same bits as indices and
    positions both broadcast to (N, nq)."""
    quad = gauss_quadrature(20)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 64, 1e-12, 2.5))
    theta = np.broadcast_to(0.5 * (quad.nodes + 1.0), (64, quad.n))
    elem = np.broadcast_to(np.arange(64)[:, None], theta.shape)
    assert np.array_equal(quad_offsets(mesh, quad), mesh.one_minus_x(elem, theta))


def test_eval_fns_share_one_layer_factor_per_eps(monkeypatch):
    """Evaluated together, LayerFns with one eps form exp(-(1-x)/eps) once
    and give the bits each gives alone; other functions pass through."""
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV, 32, 1e-8, 2.5))
    quad = gauss_quadrature(20)
    x, omx = quad_points(mesh, quad), quad_offsets(mesh, quad)
    fns = (LayerFn(np.sin, 1e-8, 1e-8), LayerFn(np.cos, 2.0, 1e-8),
           LayerFn(np.sin, -1.0, 1e-4), np.cos)
    alone = [sample(f, x, omx) for f in fns]
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda v: calls.append(1) or exp(v))
    layers = {}
    together = [sample(f, x, omx, layers) for f in fns]
    assert len(calls) == 2
    for a, b in zip(alone, together):
        assert np.array_equal(a, b)


def test_global_eval_matches_element_values():
    rng = np.random.default_rng(13)
    mesh = uniform_mesh(4)
    v = PiecewisePoly(mesh, 2, rng.standard_normal((4, 3)))
    quad = gauss_quadrature(5)
    x = quad_points(mesh, quad)
    assert np.allclose(v(x.ravel()), v.values_at(quad).ravel(), rtol=1e-13)


def test_jump_conventions():
    mesh = uniform_mesh(2)
    coeffs = np.zeros((2, 1))
    coeffs[0, 0] = 3.0 * math.sqrt(mesh.widths[0])   # v = 3 on (0, 1/2)
    coeffs[1, 0] = 5.0 * math.sqrt(mesh.widths[1])   # v = 5 on (1/2, 1)
    v = PiecewisePoly(mesh, 0, coeffs)
    jumps = v.jumps()
    assert jumps[0] == pytest.approx(3.0, rel=1e-14)    # v_0^+
    assert jumps[1] == pytest.approx(2.0, rel=1e-13)    # v^+ - v^-
    assert jumps[2] == pytest.approx(-5.0, rel=1e-14)   # -v_N^-


# -- layer functions and exact moments ------------------------------------

def test_layer_fn_uses_offsets():
    f = LayerFn(lambda x: np.zeros_like(x), 1.0, 1e-12)
    # 1 - x computed from x loses the layer; an explicit offset keeps it
    omx = 2.5e-13
    assert f(1.0 - omx, omx) == pytest.approx(math.exp(-0.25), rel=1e-12)
    assert sample(f, np.array([0.0]), np.array([1.0]))[0] == pytest.approx(
        math.exp(-1e12), abs=1e-300)


def _exact_layer_moments(h, d_right, eps, k):
    """Moments of exp(-(1-x)/eps) against phi_0..phi_k on one element, in
    60-digit arithmetic from the closed form.

    With s = distance from the right end, P_l(1 - 2s/h) = sum_m c_m s^m,
    c_m = (-1)^m C(l, m) C(l+m, m) / h^m (shifted Legendre), and
    int_0^h e^{-s/eps} s^m ds = eps^(m+1) gamma(m+1, h/eps), so

        int_0^h e^{-(d+s)/eps} P_l(1-2s/h) ds
            = e^{-d/eps} sum_m c_m eps^(m+1) gamma(m+1, h/eps).

    h, d_right and eps enter as the exact float64 values the program uses.
    Returned as floats; entries below the float64 range round to 0.
    """
    with mp.workdps(60):
        h, d, eps = mp.mpf(float(h)), mp.mpf(float(d_right)), mp.mpf(float(eps))
        lam = h / eps
        powers = [eps ** (m + 1) * mp.gammainc(m + 1, 0, lam) / h**m
                  for m in range(k + 1)]
        out = []
        for l in range(k + 1):
            core = sum((-1) ** m * mp.binomial(l, m) * mp.binomial(l + m, m)
                       * powers[m] for m in range(l + 1))
            out.append(float(mp.sqrt((2 * l + 1) / h) * mp.exp(-d / eps) * core))
    return np.array(out)


@pytest.mark.parametrize("eps,kind", [(0.05, MeshKind.SHISHKIN),
                                      (1e-3, MeshKind.BAKHVALOV),
                                      (1e-8, MeshKind.BAKHVALOV_SHISHKIN)])
def test_layer_moments_against_quadrature(eps, kind):
    """Oracle: the exact moments from the incomplete-gamma closed form in
    60-digit arithmetic (``_exact_layer_moments``), so the only error in the
    comparison is the program's.  A float64 quadrature oracle is not good
    enough here: on layer elements with beta = h/(2 eps) ~ 0.3 its degree-3
    moment loses ~1e-12 relative to cancellation, above the 5e-13 bound, and
    tanh-sinh mpmath quadrature is off by ~1e-11 on the coarse Bakhvalov
    elements, whose moments are ~1e-224 and ~1e-117."""
    mesh = build_mesh(MeshSpec(kind, 8, eps, 2.5))
    k = 3
    got = layer_moments(mesh, eps, k)
    for e in range(mesh.n_elements):
        ref = _exact_layer_moments(mesh.widths[e], mesh.offsets[e + 1], eps, k)
        assert np.allclose(got[e], ref, rtol=5e-13, atol=1e-280)


def test_scaled_sph_bessel_against_mpmath():
    """Oracle: e^{-b} i_l(b) = e^{-b} sqrt(pi/(2b)) I_{l+1/2}(b) in 40-digit
    arithmetic for l = 0..12, over a log grid of beta in [1e-9, 1e9] plus the
    points where a truncated series or a regime switch would show: around
    1e-6, at 7.2e-7, at 30, and at each degree's split max(5, l^2/2.5) and
    just above it."""
    splits = sorted({max(5.0, l * l / 2.5) for l in range(13)})
    betas = np.concatenate([np.logspace(-9, 9, 54),
                            [1e-6 * (1 - 1e-12), 1e-6 * (1 + 1e-12), 7.2e-7, 30.0],
                            splits, [np.nextafter(s, np.inf) for s in splits]])
    got = _scaled_sph_bessel(12, betas)
    worst = 0.0
    with mp.workdps(40):
        for b, row in zip(betas, got):
            b = mp.mpf(float(b))
            for l in range(13):
                ref = mp.exp(-b) * mp.sqrt(mp.pi / (2 * b)) * mp.besseli(l + mp.mpf(0.5), b)
                worst = max(worst, float(abs((mp.mpf(float(row[l])) - ref) / ref)))
    assert worst <= 1e-14


def test_element_moments_layer_vs_plain():
    # moderate eps: plain Gauss on the full function agrees with the hybrid
    eps = 0.2
    mesh = uniform_mesh(4)
    f = LayerFn(lambda x: np.sin(x), 0.7, eps)
    hybrid = element_moments(f, mesh, 2, gauss_quadrature(10))
    plain = element_moments(lambda x: np.sin(x) + 0.7 * np.exp(-(1 - x) / eps),
                            mesh, 2, gauss_quadrature(30))
    assert np.allclose(hybrid, plain, rtol=1e-12, atol=1e-15)


# -- Gauss-Radau projections ----------------------------------------------

@pytest.mark.parametrize("sign", [ProjectionSign.MINUS, ProjectionSign.PLUS])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_projection_reproduces_polynomials(sign, k):
    coef = np.array([0.3, -1.2, 0.8, -0.5][: k + 1])

    def f(x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coef)

    mesh = mesh_from_nodes([0.0, 0.2, 0.55, 1.0])
    proj = project_gauss_radau(sign, f, mesh, k)
    xs = np.linspace(0.001, 0.999, 53)
    assert np.allclose(proj(xs), f(xs), rtol=1e-13, atol=1e-13)


def test_projection_x_squared_k1_hand_case():
    # pi-minus of x^2 on [0, 1] with k = 1: solve int r = 1/3, r(1) = 1
    # by hand: r(x) = -1/3 + (4/3) x.
    mesh = uniform_mesh(1)
    proj = project_gauss_radau(ProjectionSign.MINUS, lambda x: np.asarray(x)**2,
                               mesh, 1)
    xs = np.array([0.0, 0.3, 1.0])
    assert np.allclose(proj(xs), -1.0 / 3.0 + 4.0 / 3.0 * xs, rtol=0, atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projection_moment_conditions(k):
    # independent check with a 2k+4-point rule
    mesh = mesh_from_nodes([0.0, 0.4, 0.75, 1.0])

    def f(x):
        return np.exp(x) * np.sin(3.0 * x)

    check = gauss_quadrature(2 * k + 4)
    hw = 0.5 * mesh.widths[:, None] * check.weights[None, :]
    x = quad_points(mesh, check)
    table = legendre_table(k, check.nodes)
    for sign in ProjectionSign:
        proj = project_gauss_radau(sign, f, mesh, k, gauss_quadrature(20))
        resid = f(x) - proj.values_at(check)
        fnorm = np.sqrt((hw * f(x) ** 2).sum(axis=1))
        for l in range(k):
            phi = np.sqrt((2 * l + 1) / mesh.widths)[:, None] * table[l][None, :]
            moments = (hw * resid * phi).sum(axis=1)
            assert np.all(np.abs(moments) <= 1e-12 * fnorm)


def test_projection_collocation_exact():
    mesh = build_mesh(MeshSpec(MeshKind.SHISHKIN, 16, 1e-4, 2.5))
    f = LayerFn(lambda x: np.cos(2.0 * x), 1.0, 1e-4)
    fmax = 2.0
    minus = project_gauss_radau(ProjectionSign.MINUS, f, mesh, 2)
    plus = project_gauss_radau(ProjectionSign.PLUS, f, mesh, 2)
    f_nodes = f(mesh.nodes, mesh.offsets)
    assert np.all(np.abs(minus.trace_minus_all() - f_nodes[1:]) <= 1e-13 * fmax)
    assert np.all(np.abs(plus.trace_plus_all() - f_nodes[:-1]) <= 1e-13 * fmax)


def test_projection_k0_is_endpoint_interpolation():
    mesh = uniform_mesh(3)

    def f(x):
        return np.asarray(x) ** 3

    minus = project_gauss_radau(ProjectionSign.MINUS, f, mesh, 0)
    for j in range(1, 4):
        assert minus.trace_minus_all()[j - 1] == pytest.approx(
            f(mesh.nodes[j]), rel=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_projection_linf_stability(k):
    """Measured stability constant over a randomized corpus stays below 10."""
    rng = np.random.default_rng(2024)
    mesh = mesh_from_nodes([0.0, 0.35, 0.8, 1.0])
    tdense = np.linspace(-1.0, 1.0, 400)
    worst = 0.0
    for trial in range(40):
        if trial % 2 == 0:
            coef = rng.standard_normal(k + 4)
            f = lambda x: np.polynomial.polynomial.polyval(np.asarray(x), coef)
        else:
            lam = 10.0 ** rng.uniform(0.0, 2.0)
            f = lambda x: np.exp(-lam * (1.0 - np.asarray(x)))
        for sign in ProjectionSign:
            proj = project_gauss_radau(sign, f, mesh, k, gauss_quadrature(30))
            for e in range(mesh.n_elements):
                xd = mesh.nodes[e] + 0.5 * (tdense + 1.0) * mesh.widths[e]
                fvals = f(xd)
                pvals = (proj.coeffs[e] * proj.scale[e]) @ legendre_table(k, tdense)
                worst = max(worst, np.abs(pvals).max() / np.abs(fvals).max())
    assert worst <= 10.0


@pytest.mark.parametrize("sign", [ProjectionSign.MINUS, ProjectionSign.PLUS])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_projection_approximation_order(sign, k):
    """||f - proj f||_I / ||f^(k+1)||_I = O(h^{k+1}) on a shrinking element.

    Normalising by the derivative norm removes the h^(1/2) measure factor,
    so the fitted rate is k + 1.
    """

    def deriv(x, m):
        # d^m/dx^m of e^x sin(2x + 0.3): amplitude 5^(m/2), phase m*atan(2)
        x = np.asarray(x, dtype=float)
        return 5.0 ** (m / 2.0) * np.exp(x) * np.sin(2.0 * x + 0.3 + m * math.atan(2.0))

    f = lambda x: deriv(x, 0)
    hs = [2.0**-m for m in range(2, 9)]
    ratios = []
    quad = gauss_quadrature(16)
    for h in hs:
        mesh = mesh_from_nodes([0.0, h, 1.0])
        proj = project_gauss_radau(sign, f, mesh, k, quad)
        hw = 0.5 * mesh.widths[0] * quad.weights
        x = mesh.nodes[0] + 0.5 * (quad.nodes + 1.0) * mesh.widths[0]
        err = math.sqrt(float((hw * (f(x) - proj.values_at(quad)[0]) ** 2).sum()))
        dnorm = math.sqrt(float((hw * deriv(x, k + 1) ** 2).sum()))
        ratios.append(err / dnorm)
    slope = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
    assert slope == pytest.approx(k + 1, abs=0.1)
