"""Exponential-series expansion of the heteroclinic solution near -infinity.

The positive solution u(t) of u' = -u + p u(t-tau) e^{-u(t-tau)} with
u(-inf) = 0 is represented, after normalizing the leading coefficient to
one, by the series

    u(t) = e^{mu t} + qbar_2 e^{2 mu t} + qbar_3 e^{3 mu t} + ...

where mu is the unique positive root of z + 1 - p e^{-z tau}. The
coefficients alternate in sign and satisfy a recurrence obtained by
matching coefficients of e^{(n+1) mu t} once the birth nonlinearity is
expanded as a power series. The series converges absolutely up to a
computable horizon T(eps) parameterized by a free growth parameter
eps in (0, e^{mu tau} - 1). Its partial sums have one code path for a
float and for a 1-D array of times, so each array element gets the bits
of the same time given as a float.

Also provided here: the sandwich bounds u2(t) < u(t) < u1(t) = e^{mu t}
for t <= 0, and the peak lower bound zeta, in both its incomplete-gamma
closed form and its direct quadrature form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, birth
from .numerics import (DomainError, integrate_adaptive,
                       lower_incomplete_gamma, solve_bracketed)

OVERFLOW_BOUND = 1e12  # the sanity bound on |qbar_n|


class CoefficientOverflow(DomainError):
    """A series coefficient exceeded the sanity bound."""


def _chi(z: float, params: ModelParams) -> float:
    return z + 1.0 - params.p * math.exp(-z * params.tau)


def coefficients(params: ModelParams, n_coeffs: int) -> list[float]:
    """qbar_1 = 1, qbar_2, ...: at most n_coeffs, ending before the first
    above OVERFLOW_BOUND; CoefficientOverflow if that is qbar_2 or qbar_3.

    With v_j = qbar_j e^{-j mu tau}, the coefficient of order n+1 in
    p * V * exp(-V) (whose linear part drops out because the order-n+1
    slot of V is still zero) divided by chi((n+1) mu) gives qbar_{n+1}.
    The coefficients b_k of exp(-V) depend only on v_1..v_k, so each is
    computed once, from (k+1) b_{k+1} = sum_j j a_j b_{k+1-j} with a = -v.
    """
    if n_coeffs < 2:
        raise ValueError("need at least two coefficients")
    p, tau, mu = params.p, params.tau, params.mu
    emt = math.exp(-mu * tau)
    qb = [1.0]
    v = [0.0]   # coefficients of V: v_0 = 0, then v_1..v_n
    b = [1.0]   # coefficients of exp(-V)
    for n in range(1, n_coeffs):
        v.append(qb[n - 1] * emt ** n)
        acc = 0.0
        for j in range(1, n + 1):
            acc += j * -v[j] * b[n - j]
        b.append(acc / n)
        # order n+1 of V exp(-V): the schoolbook truncated product's sum,
        # in its order and with its zero terms skipped
        w = 0.0
        for i in range(1, n + 1):
            if v[i] != 0.0:
                w += v[i] * b[n + 1 - i]
        q_next = p * w / _chi((n + 1) * mu, params)
        if abs(q_next) > OVERFLOW_BOUND:
            if n >= 3:
                break
            raise CoefficientOverflow(
                f"|qbar_{n + 1}| = {abs(q_next):.3e} exceeds {OVERFLOW_BOUND:.0e}")
        qb.append(q_next)
    return qb


def _qbar2(p, tau, mu):
    """qbar_2 = -p e^{-2 mu tau} / chi(2 mu) for arrays of (p, tau, mu)."""
    e2 = p * np.exp(-2.0 * mu * tau)
    return -e2 / (2.0 * mu + 1.0 - e2)


def qbar2_closed_form(params: ModelParams) -> float:
    """qbar_2 = -p e^{-2 mu tau} / chi(2 mu), always negative."""
    return float(_qbar2(params.p, params.tau, params.mu))


def qbar3_closed_form(params: ModelParams) -> float:
    """qbar_3 = p (0.5 - 2 qbar_2) e^{-3 mu tau} / chi(3 mu), always positive."""
    mu = params.mu
    qb2 = qbar2_closed_form(params)
    return (params.p * (0.5 - 2.0 * qb2) * math.exp(-3.0 * mu * params.tau)
            / _chi(3.0 * mu, params))


def _eps_cap(mu: float, tau: float) -> float:
    """e^{mu tau} - 1, the upper end of eps's range; ValueError where it
    rounds to 0 (mu tau below about 1.1e-16)."""
    hi = math.exp(mu * tau) - 1.0
    if hi == 0.0:
        raise ValueError(f"the eps cap e^{{mu tau}} - 1 rounds to 0 at mu tau "
                         f"= {mu * tau:.3g}; the series horizon is undefined")
    return hi


def _horizon_value(mu: float, tau: float, qb2: float, eps: float,
                   hi: float) -> float:
    """Horizon T(eps); eps must lie in (0, hi), hi = _eps_cap(mu, tau)."""
    if not 0.0 < eps < hi:
        raise ValueError(f"eps must lie in (0, {hi:.6g}), got {eps}")
    inner = eps / (1.0 + eps) * math.log(1.0 + 1.0 / (abs(qb2) * (1.0 + eps)))
    return tau + math.log(inner) / mu


def _best_eps(qb2: float, hi: float) -> float:
    """The eps in (0, hi) that maximizes the horizon, hi being the cap
    e^{mu tau} - 1.

    With a = 1/|qbar_2| and r = a/(1 + eps), the horizon is
    tau + ln((1 - r/a) ln(1 + r))/mu, and its derivative vanishes exactly
    where r + (1 + r) ln(1 + r) = a. The left side increases from 0, so
    the root is unique and lies in (0, a]; the horizon tends to -infinity
    at both ends of eps's range, so the root is the maximum. Past the
    cap the horizon increases all the way up to it.
    """
    a = 1.0 / abs(qb2)
    r = solve_bracketed(lambda r: r + (1.0 + r) * math.log1p(r) - a, 0.0, a,
                        tol=0.0)
    return min(a / r - 1.0, hi * (1.0 - 1e-12))


@dataclass(frozen=True)
class DirichletExpansion:
    """Normalized series data: mu, coefficients, growth parameter, horizon."""

    params: ModelParams
    mu: float
    coeffs: tuple[float, ...]
    eps: float
    horizon: float

    @property
    def qbar2(self) -> float:
        return self.coeffs[1]

    @property
    def handoff(self) -> float:
        """min(0, horizon - 0.5/mu): the last time the series is used,
        a safety margin inside the certified horizon."""
        return min(0.0, self.horizon - 0.5 / self.mu)

    def u1(self, t: float) -> float:
        """Upper bound e^{mu t}, valid for all t."""
        return math.exp(self.mu * t)

    def u2(self, t: float) -> float:
        """Lower bound e^{mu t} + qbar_2 e^{2 mu t}, valid for t <= 0."""
        x = math.exp(self.mu * t)
        return x + self.coeffs[1] * x * x

    def _sums(self, t, derivative: bool = False) -> tuple:
        """(u, u') at t with derivative set, else (u, |u's last term|).

        The one code path for a float (floats back) and a 1-D array: the
        powers e^{n mu t}, one row per n, are the running products of
        math.exp's e^{mu t}, and each sum adds its terms in order of n.
        sum(axis=0) does that over two or more lanes but sums one lane
        pairwise, so a single time runs as two equal lanes; each element
        thus gets the bits of the same time given as a float. Refuses t
        (the largest, for an array) at or beyond the certified horizon.
        """
        t_max = float(np.max(t))
        if t_max >= self.horizon:
            raise ValueError(
                f"t = {t_max} is not below the series horizon {self.horizon}; "
                "the series is not certified there")
        times = np.atleast_1d(t).tolist()
        x = np.array([math.exp(self.mu * ti)
                      for ti in (times * 2 if len(times) == 1 else times)])
        powers = np.cumprod(np.broadcast_to(x, (len(self.coeffs), x.size)),
                            axis=0)
        q = np.array(self.coeffs)
        terms = q[:, None] * powers
        second = (((np.arange(1.0, q.size + 1) * self.mu * q)[:, None]
                   * powers).sum(axis=0) if derivative else np.abs(terms[-1]))
        u = terms.sum(axis=0)
        if np.ndim(t) == 0:
            return float(u[0]), float(second[0])
        return u[:len(times)], second[:len(times)]

    def evaluate_with_tail(self, t: float | np.ndarray) -> tuple:
        """Partial sum at t plus the magnitude of the last kept term."""
        return self._sums(t)

    def evaluate(self, t: float | np.ndarray) -> float | np.ndarray:
        """Partial sum of the series at t (t must lie below the horizon)."""
        return self._sums(t)[0]

    def derivative(self, t: float | np.ndarray) -> float | np.ndarray:
        """Termwise derivative sum(n mu qbar_n e^{n mu t})."""
        return self._sums(t, derivative=True)[1]

    def evaluate_with_derivative(self, t: float | np.ndarray) -> tuple:
        """(evaluate(t), derivative(t)) from one set of powers e^{n mu t}."""
        return self._sums(t, derivative=True)

    def defect(self, t: float) -> float:
        """Residual u'(t) + u(t) - f(u(t - tau)) of the truncated series."""
        u_delayed = self.evaluate(t - self.params.tau)
        return (self.derivative(t) + self.evaluate(t)
                - birth(u_delayed, 0, self.params))


def build(params: ModelParams, n_coeffs: int = 40,
          eps: float | None = None) -> DirichletExpansion:
    """The expansion on coefficients(params, n_coeffs), choosing eps by
    horizon maximization if unset."""
    if params.tau <= 0.0:
        raise ValueError("the series requires a positive delay")
    mu = params.mu
    qb = coefficients(params, n_coeffs)
    if qb[1] == 0.0:
        raise ValueError(f"qbar_2 underflows to 0 at p = {params.p:g}, tau = "
                         f"{params.tau:g}; the series horizon is undefined")
    hi = _eps_cap(mu, params.tau)
    if eps is None:
        eps = _best_eps(qb[1], hi)
    T = _horizon_value(mu, params.tau, qb[1], eps, hi)
    return DirichletExpansion(params=params, mu=mu, coeffs=tuple(qb),
                              eps=eps, horizon=T)


def horizon(expansion: DirichletExpansion, eps: float) -> float:
    """Convergence horizon for a growth parameter eps in (0, e^{mu tau} - 1)."""
    mu, tau = expansion.mu, expansion.params.tau
    return _horizon_value(mu, tau, expansion.qbar2, eps, _eps_cap(mu, tau))


@np.errstate(over="ignore")  # p m = inf where mu underflows qbar_2 to 0
def _zeta(p, tau, mu):
    """Peak lower bound zeta for (p, tau, mu) of one shape; see ``zeta``:
    one series pass, exponents m + 1, m + 2 against limits 1, e^{-mu tau};
    p (m [...]) only where p m overflows, so other lanes keep their bits."""
    qb2 = _qbar2(p, tau, mu)
    m = 1.0 / mu
    limits = np.array([np.exp(-mu * tau)] * 2)
    limits[0] = 1.0
    (g1, ge1), (g2, ge2) = lower_incomplete_gamma(
        limits, np.array([m + 1.0, m + 2.0])[:, None])
    gaps = g1 - ge1 + qb2 * (g2 - ge2)
    pm = p * m
    return ((1.0 + qb2) * np.exp(-tau)
            + np.where(np.isfinite(pm), pm * gaps, p * (m * gaps)))


def zeta(params: ModelParams) -> float:
    """Peak lower bound for the heteroclinic, incomplete-gamma closed form.

    With m = 1/mu and qbar_2 from the series,

        zeta = (1 + qbar_2) e^{-tau}
             + p m [ G(1, m+1) - G(e^{-mu tau}, m+1)
                     + qbar_2 (G(1, m+2) - G(e^{-mu tau}, m+2)) ]

    where G is the lower incomplete gamma function with argument order
    (limit, exponent).
    """
    return float(_zeta(params.p, params.tau, params.mu))


def zeta_by_quadrature(params: ModelParams) -> float:
    """Peak lower bound via direct quadrature of its defining integral.

    Independent route used to cross-check the closed form: it shares mu
    and qbar_2 but no incomplete gamma function and never calls the
    closed-form zeta:

        zeta = (1 + qbar_2) e^{-tau}
             + p * integral(-tau..0) e^{mu s} e^s (1 + qbar_2 e^{mu s})
                   exp(-e^{mu s}) ds

    The integrand carries the factor p, so the quadrature's target
    1e-12 (1 + |result|) is 1e-12 (1/p + |integral|) on the integral: the
    tolerance scaled by 1/p, plus 1e-12 relative, so that the target for
    zeta never falls below rounding when zeta is large.
    """
    mu = params.mu
    p = params.p
    qb2 = qbar2_closed_form(params)

    def f(s):
        x = np.exp(mu * s)
        return p * x * np.exp(s) * (1.0 + qb2 * x) * np.exp(-x)

    return ((1.0 + qb2) * math.exp(-params.tau)
            + integrate_adaptive(f, -params.tau, 0.0, tol=1e-12))
