"""Manufactured test problems with known exact solutions.

``boundary_layer_case`` is the benchmark problem with unit coefficients and a
weak exponential layer of width O(eps) at x = 1; its forcing term was derived
by hand from the closed-form solution, with the exp(-(1-x)/eps)/eps terms
cancelled analytically so no catastrophic cancellation occurs at small eps.

``boundary_layer_case`` is memoised per eps: its ``Problem`` validates the
coefficients once per process, and every row at that eps shares the one
immutable case.

Underflow of exp(-1/eps) and exp(-(1-x)/eps) to zero at small eps is silent
and harmless: every occurrence is additive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .basis import LayerFn
from .solver import Problem


@dataclass(frozen=True)
class TestCase:
    """A problem instance bundled with its exact solution triple.

    exact_u, exact_p, exact_q are u, u' and eps*u''; the forcing lives in
    ``problem.f``.
    """

    __test__ = False  # not a pytest class despite the name

    name: str
    eps: float
    problem: Problem
    exact_u: Callable
    exact_p: Callable
    exact_q: Callable


def _const(value: float) -> Callable:
    """A constant coefficient: ``value`` at every point, as a read-only
    broadcast (zero strides) of one stored value to x's shape."""
    cell = np.full(1, float(value))
    cell.setflags(write=False)

    def fn(x):
        shape = np.shape(x)
        return np.ndarray(shape, buffer=cell, strides=(0,) * len(shape))
    return fn


_ONE = _const(1.0)
_ZERO = _const(0.0)


@lru_cache(maxsize=64)
def boundary_layer_case(eps: float) -> TestCase:
    """Unit-coefficient benchmark with a layer of width O(eps) at x = 1.

    The exact solution combines sin(pi x / 2), sin^2(pi x / 2), x(1-x) and
    eps * exp(-(1-x)/eps), with constants chosen so that
    u(0) = u(1) = u'(1) = 0.  The operator is

        eps u''' - u'' + u' + u = f.

    Equal eps return the same object; a rejected eps raises on every call.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    c1 = math.exp(-1.0 / eps)  # underflows to 0.0 for eps <= ~1e-3
    big_a = 1.0 - 2.0 * eps + 2.0 * eps * c1
    big_b = eps - eps * c1 - 1.0
    half_pi = 0.5 * math.pi

    def u_smooth(x):
        s = np.sin(half_pi * x)
        return -eps * c1 + big_a * s + x * (1.0 - x) + big_b * s * s

    def p_smooth(x):
        return (big_a * half_pi * np.cos(half_pi * x) + 1.0 - 2.0 * x
                + big_b * half_pi * np.sin(math.pi * x))

    def q_smooth(x):
        return (-eps * big_a * half_pi**2 * np.sin(half_pi * x) - 2.0 * eps
                + eps * big_b * (math.pi**2 / 2.0) * np.cos(math.pi * x))

    def f_smooth(x):
        s = np.sin(half_pi * x)
        return (big_a * half_pi * (1.0 - eps * half_pi**2) * np.cos(half_pi * x)
                + big_a * (1.0 + half_pi**2) * s
                + big_b * half_pi * (1.0 - eps * math.pi**2) * np.sin(math.pi * x)
                - big_b * (math.pi**2 / 2.0) * np.cos(math.pi * x)
                + big_b * s * s
                + 3.0 - x - x * x - eps * c1)

    exact_u = LayerFn(u_smooth, eps, eps)
    exact_p = LayerFn(p_smooth, 1.0, eps)
    exact_q = LayerFn(q_smooth, 1.0, eps)
    forcing = LayerFn(f_smooth, 1.0 + eps, eps)

    problem = Problem(a=_ONE, b=_ONE, bprime=_ZERO, c=_ONE, f=forcing,
                      eps=eps, alpha=1.0, gamma=1.0)
    return TestCase(name=f"boundary_layer(eps={eps:g})", eps=eps,
                    problem=problem, exact_u=exact_u, exact_p=exact_p,
                    exact_q=exact_q)
