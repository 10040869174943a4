"""The blowflies birth nonlinearity f(u) = p*u*exp(-u) and its hypothesis checks.

Holds the model parameters (p, tau) with their derived constants, the
birth function with derivatives up to third order, its Schwarz
derivative, the conditions used by the region logic: negative feedback
around the positive equilibrium, the global-convergence inequality that
guarantees u(+inf) = ln p, and the nm-wave window P tau e^{1+tau} < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Finite birth amplitude p > 1 and finite delay tau >= 0.

    Derived constants: kappa = ln p is the positive equilibrium of
    u' = -u + f(u(t-tau)); P = ln p - 1 is minus the slope of f at kappa;
    f_max = p/e is the value of f at its unique maximum u = 1.
    mu keeps the result of charroots.mu_root on first use, so every layer
    asking about one point shares it; only mu is cached.
    """

    p: float
    tau: float

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and exceed 1, got {self.p}")
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")

    @property
    def kappa(self) -> float:
        return math.log(self.p)

    @property
    def P(self) -> float:
        return math.log(self.p) - 1.0

    @property
    def f_max(self) -> float:
        return self.p / math.e

    @cached_property
    def mu(self) -> float:
        from .charroots import mu_root
        return mu_root(self)


def birth(u: float, order: int, params: ModelParams) -> float:
    """f(u) = p*u*e^{-u} or one of its first three derivatives.

    order 0: p*u*e^{-u}
    order 1: p*(1-u)*e^{-u}
    order 2: p*(u-2)*e^{-u}
    order 3: p*(3-u)*e^{-u}
    """
    e = math.exp(-u)
    p = params.p
    if order == 0:
        return p * u * e
    if order == 1:
        return p * (1.0 - u) * e
    if order == 2:
        return p * (u - 2.0) * e
    if order == 3:
        return p * (3.0 - u) * e
    raise ValueError(f"order must be 0..3, got {order}")


def schwarz(u: float, params: ModelParams) -> float:
    """Schwarz derivative f'''/f' - 1.5*(f''/f')^2 of the birth function.

    For f = p*u*e^{-u} the amplitude p cancels and the value reduces to
    (3-u)/(1-u) - 1.5*((u-2)/(1-u))^2, which is negative on (0,1) and
    (1, inf). Undefined at u = 1 where f' vanishes.
    """
    if not u > 0.0:
        raise ValueError(f"Schwarz derivative evaluated only for u > 0, got {u}")
    if u == 1.0:
        raise ValueError("f'(1) = 0: Schwarz derivative singular at u = 1")
    r = (u - 2.0) / (1.0 - u)
    return (3.0 - u) / (1.0 - u) - 1.5 * r * r


def feedback_holds(params: ModelParams) -> bool:
    """Negative feedback of f around kappa on the invariant interval.

    Checks (f(x) - kappa)*(x - kappa) < 0 for x in the open interval
    (f(f(1)), f(1)) excluding kappa itself. The interval endpoints are
    the second and first iterates of the maximum of f, so f maps the
    interval into itself. The unimodality of f makes the closed-form
    endpoint analysis conclusive:

    * p >= e (kappa >= 1): the x > kappa side always holds since f is
      decreasing past its maximum; the x < kappa side holds iff
      f(f(f(1))) >= kappa.
    * p < e (kappa < 1): the whole interval lies right of kappa and the
      supremum of f there is f(f(1)), so the condition holds iff
      f(f(1)) <= kappa.

    The interval is empty at p = e (f(1) = kappa = 1) and the condition
    holds vacuously.
    """
    f = lambda x: birth(x, 0, params)
    kappa = params.kappa
    b = f(1.0)
    a = f(b)
    tol = 1e-9 * (1.0 + kappa)

    if b - a <= tol:
        return True  # empty (or pointlike) interval, vacuous
    if kappa >= 1.0 - tol:
        return f(a) >= kappa - tol
    return a <= kappa + tol


def gsc_holds(params: ModelParams) -> bool:
    """Convergence condition for the positive heteroclinic at +infinity.

    For p <= e^2 the condition holds unconditionally. For p > e^2 it is
    the inequality e^{-tau} > P*ln((P^2+P)/(P^2+1)) with P = ln p - 1.
    """
    if params.p <= math.e ** 2:
        return True
    P = params.P
    return math.exp(-params.tau) > P * math.log((P * P + P) / (P * P + 1.0))


@np.errstate(divide="ignore", invalid="ignore")
def window_margin(P, tau):
    """ln(P tau e^{1+tau}) = ln P + ln tau + 1 + tau, broadcast; quiet on
    ln 0 (-inf) and on the ln of a negative P (NaN)."""
    return np.log(P) + np.log(tau) + 1.0 + tau


def in_p_window(P, tau):
    """P > 1 (p > e^2), tau > 0 and window_margin(P, tau) < 0, broadcast."""
    return (P > 1.0) & (tau > 0.0) & (window_margin(P, tau) < 0.0)
