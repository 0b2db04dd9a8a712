import mpmath as mp
import numpy as np
import pytest

from ldglayer.cases import boundary_layer_case
from ldglayer.meshes import MeshKind, MeshSpec, build_mesh
from ldglayer.solver import Problem, solve_ldg
from ldglayer.errors import error_record

from oracles import polynomial_case

EPS_SET = [1e-2, 1e-4, 1e-8, 1e-12]


@pytest.mark.parametrize("eps", EPS_SET)
def test_boundary_conditions(eps):
    case = boundary_layer_case(eps)
    assert abs(case.exact_u(0.0, 1.0)) <= 1e-13
    assert abs(case.exact_u(1.0, 0.0)) <= 1e-13
    assert abs(case.exact_p(1.0, 0.0)) <= 1e-13


@pytest.mark.parametrize("eps", EPS_SET)
def test_p_q_match_finite_differences(eps):
    """exact_p vs a central difference of exact_u, exact_q vs eps * second
    difference, at random interior points away from the layer."""
    case = boundary_layer_case(eps)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.05, 0.9, size=32)
    h = 2e-5  # truncation ~ h^2 |u'''| stays below the 1e-6 relative budget
    fd1 = (case.exact_u(x + h) - case.exact_u(x - h)) / (2 * h)
    fd2 = (case.exact_u(x + h) - 2 * case.exact_u(x) + case.exact_u(x - h)) / h**2
    assert np.allclose(case.exact_p(x), fd1, rtol=1e-6, atol=1e-8)
    # the second difference carries cancellation noise ~ 4 eps_mach |u| / h^2,
    # which the eps factor scales into the comparison
    assert np.allclose(case.exact_q(x), eps * fd2, rtol=1e-6,
                       atol=4e-6 * eps + 1e-12)


def _mp_u_stencil(eps, h, offsets):
    """The solution formula in mpmath arithmetic (only u is transcribed; the
    forcing is recomputed from it by high-order finite differences), as a
    function of x returning u(x + i h) for i in ``offsets``.

    Each stencil costs one sin, one cos and one exp: sin(pi (x + i h) / 2)
    follows by angle addition from x and i h, and exp(-(1 - x - i h) / eps)
    is exp(-(1 - x) / eps) times exp(h / eps)^i."""
    c1 = mp.e**(-1 / eps)
    big_a = 1 - 2 * eps + 2 * eps * c1
    big_b = eps - eps * c1 - 1
    shifts = [i * h for i in offsets]
    turn = [(mp.cos(mp.pi * d / 2), mp.sin(mp.pi * d / 2)) for d in shifts]
    grow = [eps * mp.e**(i * h / eps) for i in offsets]

    def u(x):
        sx, cx = mp.sin(mp.pi * x / 2), mp.cos(mp.pi * x / 2)
        layer = mp.e**(-(1 - x) / eps)
        out = []
        for d, (cd, sd), g in zip(shifts, turn, grow):
            s = sx * cd + cx * sd
            xi = x + d
            out.append(-eps * c1 + s * (big_a + big_b * s) + layer * g
                       + xi * (1 - xi))
        return out

    return u


def test_forcing_matches_ode_residual():
    """Independent oracle: rebuild eps u''' - u'' + u' + u from u alone by
    9-point finite differences in 40-digit arithmetic and compare with the
    closed-form forcing at random points."""
    eps = 1e-2
    case = boundary_layer_case(eps)
    rng = np.random.default_rng(17)
    points = rng.uniform(0.01, 0.99, size=10_000)
    f_vals = case.problem.f(points)

    with mp.workdps(40):
        # central difference weights on a 9-point stencil (order 8 for the
        # first two derivatives, order 6 for the third); built inside the
        # precision context so they carry the full 40 digits
        w1 = [mp.mpf(c) / 840 for c in (3, -32, 168, -672, 0, 672, -168, 32, -3)]
        w2 = [mp.mpf(c) / 5040 for c in (-9, 128, -1008, 8064, -14350,
                                         8064, -1008, 128, -9)]
        w3 = [mp.mpf(c) / 240 for c in (-7, 72, -338, 488, 0, -488, 338, -72, 7)]
        # h small enough that the order-6 u''' truncation inside the layer
        # (~ eps h^6 max|u^(9)| ~ exp(-(1-x)/eps) h^6 / eps^7) is < 1e-12;
        # 40 digits leave ample headroom for the h^3 cancellation.
        h = mp.mpf("2e-5")
        u = _mp_u_stencil(mp.mpf(eps), h, range(-4, 5))
        worst = 0.0
        for x, f_val in zip(points, f_vals):
            uvals = u(mp.mpf(float(x)))
            d1 = mp.fdot(w1, uvals) / h
            d2 = mp.fdot(w2, uvals) / h**2
            d3 = mp.fdot(w3, uvals) / h**3
            f_ref = float(eps * d3 - d2 + d1 + uvals[4])
            worst = max(worst, abs(float(f_val) - f_ref) / max(abs(f_ref), 1.0))
    assert worst <= 1e-9


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_layer_part_magnitude(eps):
    # |u - smooth part| <= 2 eps exp(-(1-x)/eps) on a dense grid
    case = boundary_layer_case(eps)
    x = np.linspace(0.0, 1.0, 2001)
    layer = case.exact_u(x) - case.exact_u.smooth(x)
    bound = 2.0 * eps * np.exp(-(1.0 - x) / eps)
    assert np.all(np.abs(layer) <= bound + 1e-300)


def test_polynomial_case_values():
    case = polynomial_case(0.3)
    assert case.exact_u(0.0) == 0.0
    assert case.exact_u(1.0) == 0.0
    assert case.exact_p(1.0) == pytest.approx(0.0, abs=1e-15)  # 1 - 4 + 3
    assert case.problem.f(0.0) == pytest.approx(6 * 0.3 + 5.0, rel=1e-15)


def test_polynomial_case_reproduced_by_scheme():
    case = polynomial_case(1e-2)
    mesh = build_mesh(MeshSpec(MeshKind.BAKHVALOV_SHISHKIN, 8, 1e-2, 4.5))
    w = solve_ldg(case.problem, mesh, 3)
    err = error_record(case.exact_u, case.exact_p, case.exact_q, w,
                       case.problem).energy
    assert err <= 1e-10


def test_eps_validation():
    with pytest.raises(ValueError):
        boundary_layer_case(0.0)
    with pytest.raises(ValueError):
        polynomial_case(1.0)


def test_problem_invariant_validation():
    ok = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(ValueError):
        # a(x) = x dips below alpha = 1
        Problem(a=lambda x: np.asarray(x, dtype=float), b=ok, bprime=zero,
                c=ok, f=zero, eps=0.1, alpha=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        # c - b'/2 = 1 - 1 = 0 < gamma
        Problem(a=ok, b=lambda x: 2.0 * np.asarray(x, dtype=float),
                bprime=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                c=ok, f=zero, eps=0.1, alpha=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        # bprime inconsistent with b
        Problem(a=ok, b=lambda x: np.sin(np.asarray(x, dtype=float)),
                bprime=zero, c=lambda x: 5 * ok(x), f=zero,
                eps=0.1, alpha=1.0, gamma=1.0)


def test_boundary_layer_case_is_shared_per_eps():
    """One case per eps: equal eps give the same object, different eps
    different ones, and a rejected eps raises on every call, not once."""
    assert boundary_layer_case(1e-8) is boundary_layer_case(1e-8)
    assert boundary_layer_case(1e-8) is boundary_layer_case(float("1e-8"))
    assert boundary_layer_case(1e-8) is not boundary_layer_case(1e-12)
    assert boundary_layer_case(1e-12).eps == 1e-12
    for eps in (0.0, 2.0):
        for _ in range(2):
            with pytest.raises(ValueError):
                boundary_layer_case(eps)


def test_constant_coefficients_are_read_only_broadcasts():
    """The unit coefficients return one value broadcast to x's shape and
    refuse writes, so no caller can change them for the next one."""
    problem = boundary_layer_case(1e-8).problem
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    for fn, value in ((problem.a, 1.0), (problem.b, 1.0), (problem.c, 1.0),
                      (problem.bprime, 0.0)):
        vals = fn(x)
        assert vals.shape == x.shape and vals.dtype == np.float64
        assert np.all(vals == value)
        with pytest.raises(ValueError):
            vals[0, 0] = 5.0
    assert problem.a(0.5).shape == ()
