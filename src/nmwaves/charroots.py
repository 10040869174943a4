"""Characteristic functions at the equilibria, their real roots, and wave speeds.

Three characteristic functions appear in the commands, with P = ln p - 1:

* z + 1 - p e^{-z tau}             the delay ODE at 0: its positive root
                                   mu is the decay rate of the series
* z^2 - cz - 1 + p e^{-zc tau}     a speed-c profile at 0: the smallest c
                                   with a positive root is the minimal
                                   speed, and fixing z = beta gives the
                                   speed selected by decay rate beta
                                   (minimal_speed: s = zc turns this into
                                   one increasing root in s)
* z^2 - cz - 1 - P e^{-zc tau}     a speed-c profile at ln p: a real
                                   negative root makes the tail
                                   eventually monotone

The commands decide the last one with negative_root_exists; the root
listing negative_roots_at_kappa is its reference in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelParams
from .numerics import bracketed_roots, double_until, solve_bracketed


class TrajectoryTail(Enum):
    """Tail at ln p: the linear class (classify_tail) and a run's tail
    (heteroclinic), which alone can be INCONCLUSIVE."""
    MONOTONE_TAIL = "monotone_tail"
    OSCILLATING = "oscillating"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RootReport:
    """Negative roots of the profile function at ln p in a certified window.

    Roots are sorted ascending and repeated according to multiplicity;
    a double (tangency) root appears twice.
    """

    real_roots: tuple[float, ...]
    search_window: tuple[float, float]


def _mu(p, tau):
    """Positive root of z + 1 - p e^{-z tau} for arrays of (p > 1, tau >= 0).

    Newton on the log form g(z) = z tau + log1p(z) - ln p, which neither
    overflows nor cancels. g is increasing and concave, and g <= 0 at the
    start z = ln p / (1 + tau), so the iterates rise monotonically to the
    root. A lane stops, and stays frozen, once its iterate stops rising
    or its step is within 4e-16 z: at most 12 steps over ln p in
    [1e-4, 709] and tau in [1e-6, 1e16]. At tau = 0, mu = p - 1 exactly.
    """
    p, tau = np.broadcast_arrays(p, tau)
    lnp = np.log(p)
    active = tau > 0.0
    z = np.where(active, lnp / (1.0 + tau), p - 1.0)
    while active.any():
        step = (z * tau + np.log1p(z) - lnp) / (tau + 1.0 / (1.0 + z))
        np.subtract(z, step, out=z, where=active)
        active &= step < -4e-16 * z  # else it stopped rising, or nearly
    return z


def mu_root(params: ModelParams) -> float:
    """Unique positive root of z + 1 - p e^{-z tau}, to machine precision
    (the series recurrence depends on it). ValueError where the root is
    below the smallest normal float, as at p = 1.5, tau = 1e308."""
    mu = float(_mu(params.p, params.tau))
    if not mu >= np.finfo(float).tiny:
        raise ValueError(f"the decay rate mu at tau = {params.tau} is below "
                         f"the smallest normal float")
    return mu


def minimal_speed(params: ModelParams) -> float:
    """Smallest c > 0 for which z^2 - cz - 1 + p e^{-zc tau} has a positive root.

    With s = zc the function is z^2 - g(s), g(s) = s + 1 - p e^{-s tau}, so
    its positive roots lie on z = sqrt(g(s)), c = s / sqrt(g(s)). c is
    least where 2 g = s g', i.e. p e^{-s tau} = (s + 2)/(2 + s tau): in
    x = s/2, which keeps the bracket in the float range, the root of the
    increasing, non-cancelling k(x) = log1p(x (1 - tau)/(1 + x tau))
    + 2 x tau - ln p, where c^2 = 4 x (1 + x tau)/(1 + tau + 2 x tau).
    At tau = 0, c = 2 sqrt(p - 1), past the bracket's reach for p > 2^1023;
    BracketingError where tau < ~1e-307 puts the root there too.
    """
    p, tau = params.p, params.tau
    if tau == 0.0:
        return 2.0 * math.sqrt(p - 1.0)
    lnp = math.log(p)
    # 2 (x tau), not 2 x tau: 2 x overflows at the last doubling, 2^1023
    k = lambda x: (math.log1p(x * (1.0 - tau) / (1.0 + x * tau))
                   + 2.0 * (x * tau) - lnp)
    x_hi = double_until(lambda x: k(x) >= 0.0, 1.0, "minimal speed search")
    x = solve_bracketed(k, 0.0, x_hi, tol=0.0)
    return 2.0 * math.sqrt(x * ((1.0 + x * tau)
                                / (1.0 + tau + 2.0 * (x * tau))))


def linear_spreading_speed(params: ModelParams, beta: float) -> float:
    """Front speed selected by an initial datum with tail decay rate beta.

    Solves beta^2 - c*beta - 1 + p e^{-beta c tau} = 0 for c; the left
    side is strictly decreasing in c and positive at c = 0, so the root
    is unique.
    """
    if not beta > 0.0:
        raise ValueError(f"decay rate must be positive, got {beta}")
    p, tau = params.p, params.tau
    F = lambda c: beta * beta - c * beta - 1.0 + p * math.exp(-beta * c * tau)
    c_hi = double_until(lambda c: F(c) <= 0.0, 1.0, "spreading speed search")
    return solve_bracketed(F, 0.0, c_hi, tol=0.0)


def _chi(z, P, c, h):
    """z^2 - cz - 1 - P e^{-zh}, with h = c tau (callers silence overflow)."""
    return z * z - c * z - 1.0 - P * np.exp(-z * h)


def _dchi(z, P, c, h):
    """The z-derivative 2z - c + P h e^{-zh} of _chi."""
    return 2.0 * z - c + P * h * np.exp(-z * h)


def _window_edge_holds(z_lo, P, c, h):
    """Whether z_lo (<= -2 max(1, c)) certifies a window edge for P > 0.

    Uses the monotonicity of (c - 2z)/(z^2 - cz - 1) on the region where
    the denominator is positive: once the log-derivative of the quadratic
    falls below h and the exponential term exceeds the quadratic at the
    edge, domination (hence constant negative sign of the characteristic
    function) persists for every z below the edge.
    """
    # the quadratic's negative root lies in (-1, 0), so any edge below -2
    # keeps its value positive and the log comparisons well defined
    square = z_lo * z_lo
    quad = square - c * z_lo - 1.0
    dominated = -z_lo * h > np.log(quad) - np.log(P)
    return np.isfinite(square) & dominated & ((c - 2.0 * z_lo) / quad < h)


def _certified_window(P: float, c, h):
    """Left edges z_lo below which P e^{-zh} dominates z^2 - cz - 1.

    Per lane of (c, h) (floats, or arrays of one shape), the smallest edge
    -2 max(1, c) 2^k certified by _window_edge_holds.
    """
    with np.errstate(all="ignore"):
        return double_until(lambda z: _window_edge_holds(z, P, c, h),
                            -2.0 * np.maximum(1.0, c), "window certification")


# depth below zero, relative to the hump's own size (_touches_zero), at
# which a hump maximum still counts as a double root
TANGENCY_TOL = 1e-9


@np.errstate(over="ignore")
def negative_roots_at_kappa(params: ModelParams, c: float) -> RootReport:
    """All real negative roots of z^2 - cz - 1 - P e^{-zc tau}.

    The root count is 0, 1 or 2:

    * P <= 0 (p <= e): the function is strictly decreasing on z < 0 and
      crosses once.
    * P > 0: the function tends to -infinity on both ends of the negative
      axis (value -ln p at z = 0) and has a single hump in between, giving
      two roots, one double root at tangency, or none.

    The search window's left edge is certified so that the exponential
    term dominates below it. A hump maximum (where the derivative also
    vanishes) within ``TANGENCY_TOL`` of zero, relative to the hump's
    size, is reported as a double root, so boundary cases count as "root
    exists". The commands run negative_root_exists; this listing is its
    reference in the tests.
    """
    P, tau, c = params.P, float(params.tau), float(c)
    if not c > 0.0:
        raise ValueError(f"speed must be positive, got {c}")
    h = c * tau

    if tau == 0.0 or P == 0.0:
        # quadratic z^2 - cz - (1+P): 1 + P = ln p > 0 gives one negative root
        z = 0.5 * (c - math.sqrt(c * c + 4.0 * (1.0 + params.P)))
        return RootReport((z,), (z - 1.0, 0.0))

    # Python floats from here on: their products overflow to inf silently
    chi = lambda z: float(_chi(z, P, c, h))
    dchi = lambda z: float(_dchi(z, P, c, h))

    def polish(z):
        # bisection tolerances scale with the window; Newton steps bring
        # the residual down to the report contract regardless of |chi'|
        for _ in range(3):
            d = dchi(z)
            if not math.isfinite(d) or d == 0.0:
                break
            step = chi(z) / d
            if not math.isfinite(step):
                break
            z -= step
        return z

    if P < 0.0:
        # strictly decreasing on the negative axis; expand until positive
        z_lo = double_until(lambda z: chi(z) > 0.0, -max(1.0, c),
                            "negative root search")
        z = solve_bracketed(chi, z_lo, 0.0, tol=1e-13 * (1.0 + abs(z_lo)))
        return RootReport((polish(z),), (z_lo, 0.0))

    z_lo = float(_certified_window(P, c, h))

    # critical points of chi on [z_lo, 0]: chi'' is increasing with a single
    # zero, so chi' is monotone on each side of it
    crit: list[float] = []
    z_dd = math.log(P * h * h / 2.0) / h  # zero of chi'' = 2 - P h^2 e^{-zh}
    seams = [z_lo]
    if z_lo < z_dd < 0.0:
        seams.append(z_dd)
    seams.append(0.0)
    for a, b in zip(seams[:-1], seams[1:]):
        fa, fb = dchi(a), dchi(b)
        if fa * fb < 0.0:
            crit.append(solve_bracketed(dchi, a, b,
                                        tol=1e-13 * (1.0 + abs(a))))

    nodes = [z_lo] + sorted(crit) + [0.0]
    roots: list[float] = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        if b - a <= 0.0:
            continue
        fa, fb = chi(a), chi(b)
        if fa * fb < 0.0:
            z = solve_bracketed(chi, a, b, tol=1e-13 * (1.0 + abs(a)))
            roots.append(polish(z))

    if not roots and crit:
        # tangency: the hump maximum touching zero counts as a double root
        z_m = max(crit, key=chi)
        if z_m < 0.0 and _touches_zero(chi(z_m), z_m, c):
            roots = [z_m, z_m]

    return RootReport(tuple(sorted(roots)), (z_lo, 0.0))


def _touches_zero(chi_max, z_m, c):
    """Whether the hump maximum chi_max, at z_m, counts as reaching zero.

    The hump's size is 1 + z_m^2 + c |z_m|, the size of the quadratic
    part of chi at z_m, which the exponential part cancels there when
    the maximum is near zero: the scale of chi's rounding error at z_m.
    """
    return chi_max >= -TANGENCY_TOL * (1.0 + z_m * z_m + c * np.abs(z_m))


def negative_root_exists(p: float, tau, c):
    """Whether z^2 - cz - 1 - P e^{-zc tau} has a real negative root.

    The one root-existence test of the commands: at one p > 1, for tau >= 0
    and c > 0 given as floats or broadcast arrays, a boolean array of
    their shape (a numpy bool for floats). P <= 0 or tau = 0 always gives a root.
    Otherwise the function is concave left of the zero z_dd of its second
    derivative and convex right of it, and negative at both ends of the
    negative axis, so a root exists exactly when its maximum there
    reaches zero. That maximum is the zero of chi' on the concave side
    inside the certified window; numerics.bracketed_roots finds it for
    every lane with such a hump, and the tangency rule (TANGENCY_TOL)
    decides.
    """
    P = ModelParams(p=p, tau=0.0).P
    # [()] turns 0-d arrays into numpy scalars, whose arithmetic is several
    # times cheaper, and leaves other arrays as they are
    taus, cs = (a[()] for a in np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(c, dtype=float)))
    if not np.all(cs > 0.0):
        raise ValueError(f"speed must be positive, got {c}")
    if not np.all(taus >= 0.0):
        raise ValueError(f"tau must be >= 0, got {tau}")
    if P <= 0.0:
        return np.ones(np.shape(taus), dtype=bool)[()]
    no_delay = taus == 0.0
    # lanes without delay have their root already; (c, h) = (1, 1) keeps
    # their window and hump arithmetic harmless
    cs = np.where(no_delay, 1.0, cs)[()]
    h = np.where(no_delay, 1.0, cs * taus)[()]
    z_lo = _certified_window(P, cs, h)
    with np.errstate(all="ignore"):
        right = np.minimum(np.log(P * h * h / 2.0) / h, 0.0)
        hump = ((z_lo < right) & (_dchi(z_lo, P, cs, h) > 0.0)
                & (_dchi(right, P, cs, h) < 0.0))
        if not hump.any():
            return no_delay
        # a lane without a hump gets the empty bracket [right, right]
        z_m = bracketed_roots(lambda z: _dchi(z, P, cs, h),
                              np.where(hump, z_lo, right), right)
        return no_delay | (hump & _touches_zero(_chi(z_m, P, cs, h), z_m, cs))


def classify_tail(params: ModelParams, c: float) -> TrajectoryTail:
    """MONOTONE_TAIL if negative_root_exists(p, tau, c), else OSCILLATING."""
    return (TrajectoryTail.MONOTONE_TAIL
            if negative_root_exists(params.p, params.tau, c)
            else TrajectoryTail.OSCILLATING)
