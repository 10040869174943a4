"""Parameter-region logic: necessary conditions, boundary curves, and sweeps.

For a fixed birth amplitude (through P = ln p - 1) the (tau, c) quadrant
splits along two boundary curves:

* T(c): below it the wave-frame characteristic function at ln p has a
  real negative root (region of eventually monotone tails), defined as
  the unique positive root in tau of

      e c^2 tau^2 / (2 + sqrt(c^4 tau^2 + 4 c^2 tau^2 + 4))
        * exp((sqrt(c^4 tau^2 + 4 c^2 tau^2 + 4) - c^2 tau) / 2) = 1/P.

* tau(c): below it Phi(tau, c) >= 1 - 1/P, where
  Phi(tau, c) = (nu - lambda) / (nu e^{-lambda tau} - lambda e^{-nu tau})
  and lambda < 0 < nu are the roots of eps z^2 - z - 1 with eps = c^{-2}.

T(c) < tau(c) for every c; the strict inequality (certified here by
numeric sweeps and by the positivity of the coefficients of an auxiliary
power series) gives the inclusion of the first region in the second.
Both regions are treated as closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charroots import _mu, negative_root_exists
from .dirichlet import _zeta
from .model import ModelParams, gsc_holds, in_p_window, window_margin
from .numerics import DomainError, TrajectoryTail, increasing_root


class MembershipInconsistency(DomainError):
    """The two region-membership computations disagree off the boundary band."""


@dataclass(frozen=True)
class SpeedFrame:
    """Wave speed c with the derived quantities of the profile quadratic.

    lam and nu are the negative and positive roots of eps z^2 - z - 1
    with eps = c^{-2}; their product is -c^2.
    """

    c: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"speed must be positive, got {self.c}")

    @property
    def eps(self) -> float:
        return self.c ** -2

    @property
    def lam(self) -> float:
        return float(_speed_roots(self.c)[0])

    @property
    def nu(self) -> float:
        return float(_speed_roots(self.c)[1])


def _all_finite(x) -> bool:
    """x < inf everywhere, for x >= 0 or NaN; one comparison for a float
    (numpy's float64 included) and one reduction for an array, as it runs
    on every step of the root searches."""
    if isinstance(x, float):
        return x < math.inf
    return x.max() < math.inf  # a NaN maximum compares False too


@np.errstate(over="ignore", invalid="ignore")
def _speed_roots(c):
    """(lam, nu) of SpeedFrame(c), as arrays of c's shape.

    Where c^2 overflows (c past about 1.3e154), lam is -1 to rounding and
    nu is inf.
    """
    s = c + np.sqrt(c * c + 4.0)
    # c(c - sqrt(c^2+4))/2 rewritten to avoid cancellation at large c
    lam = -2.0 * c / s
    if not _all_finite(s):
        lam = np.where(s < math.inf, lam, -1.0)
    return lam, 0.5 * c * s


def tau_star() -> float:
    """Root of tau e^{1+tau} = 1, the nm-wave delay cap: T_star at P = 1."""
    return T_star(1.0)


@dataclass(frozen=True)
class NecessaryConditions:
    """The necessary conditions for a non-monotone non-oscillating wave;
    overall is model.in_p_window (p > e^2, growth_product < 1) and
    delay_product > 1."""

    p_gt_e2: bool
    growth_product: float        # P tau e^{1+tau}, must be < 1
    delay_product: float         # p tau e^{tau-1}, must be > 1
    overall: bool


def nm_necessary(params: ModelParams) -> NecessaryConditions:
    """Evaluate the necessary conditions at (p, tau)."""
    p, tau = params.p, params.tau
    growth = params.P * tau * math.exp(1.0 + tau)
    delay = p * tau * math.exp(tau - 1.0)
    return NecessaryConditions(
        p_gt_e2=p > math.e ** 2, growth_product=growth, delay_product=delay,
        overall=bool(in_p_window(params.P, tau)) and delay > 1.0)


def Phi(tau: float, frame: SpeedFrame) -> float:
    """(nu - lambda) / (nu e^{-lambda tau} - lambda e^{-nu tau}).

    Equals 1 at tau = 0 and decreases strictly to 0 as tau grows.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return float(_phi(tau, frame.lam, frame.nu))


def _phi(tau, lam, nu):
    """Unchecked Phi from the roots, broadcast over arrays.

    Where nu e^{-lam tau} overflows, (lam/nu) e^{-nu tau} is below
    1e-308 e^{-lam tau}, so dividing through by nu gives Phi =
    (1 - lam/nu) e^{lam tau} to rounding.
    """
    grow = nu * np.exp(-lam * tau)
    phi = (nu - lam) / (grow - lam * np.exp(-nu * tau))
    if _all_finite(grow):
        return phi
    return np.where(grow < math.inf, phi, (1.0 - lam / nu) * np.exp(lam * tau))


# the largest P at which tau_of_c is solved
TAU_OF_C_MAX_P = 2.0 ** 26


def tau_of_c(P, c):
    """Unique positive root of Phi(tau, c) = 1 - 1/P (1 < P <= 2^26).

    Float P and c give a float, numpy arrays broadcast; every lane is
    solved to rounding level (numerics.increasing_root). Rounding 1 - 1/P
    costs tau(c) about P 1e-16 of relative accuracy, hence the bound on P.
    """
    if not np.all((P > 1.0) & (P <= TAU_OF_C_MAX_P)):
        raise ValueError(f"tau(c) needs 1 < P <= 2^26, got {P}")
    if not np.all(c > 0.0):
        raise ValueError(f"speed must be positive, got {c}")
    lam, nu = _speed_roots(c)
    target = 1.0 - 1.0 / P
    return increasing_root(lambda t: target - _phi(t, lam, nu),
                           np.broadcast(P, c).shape, "bracketing tau(c)")


def tau_hat(P: float) -> float:
    """Large-speed limit ln(P/(P-1)) = log1p(1/(P-1)) of tau(c), P > 1; the
    log1p form is within an ulp for every P, also where P - 1 rounds to P."""
    if not P > 1.0:
        raise ValueError(f"tau_hat needs P > 1, got {P}")
    return math.log1p(1.0 / (P - 1.0))


def _monotone_boundary_lhs(tau, c):
    """Left side of the T(c) defining equation, conditioned via h = c tau.

    With X = h^2 (c^2 + 4) + 4 the exponent (sqrt(X) - c h)/2 is
    rewritten as 2 (h^2 + 1)/(sqrt(X) + c h) to avoid cancellation at
    large c. Where X overflows (c^2 h^2 past about 1.8e308), sqrt(X) is
    c h s with s = sqrt(1 + 4/c^2 + 4/(c h)^2), and the left side is
    e tau/(s + 2/(c h)) exp(2 (tau + 1/(c h))/(1 + s)), finite for every
    finite c. Broadcast over arrays of tau and c.
    """
    h = c * tau
    X = h * h * (c * c + 4.0) + 4.0
    sX = np.sqrt(X)
    expo = 2.0 * (h * h + 1.0) / (sX + c * h)
    lhs = math.e * h * h / (2.0 + sX) * np.exp(expo)
    if _all_finite(X):
        return lhs
    # a = c h; both quotients divided by a^2 (a = 0 at tau = 0, where the
    # left side is 0 and X is 0 * inf once c^2 overflows)
    a = np.multiply(c, h)  # numpy division: 1/0 is inf, not an error
    s = np.sqrt(1.0 + 4.0 / (c * c) + (2.0 / a) ** 2)
    scaled = (math.e * tau / (s + 2.0 / a)
              * np.exp(2.0 * (tau + 1.0 / a) / (1.0 + s)))
    return np.where(X < math.inf, lhs, np.where(a > 0.0, scaled, 0.0))


def T_of_c(P, c):
    """Unique positive root in tau of the monotone-tail boundary equation.

    The left side increases strictly from 0, so its crossing of 1/P is
    unique (requires P > 0); past c^2 tau of about 1e154, where X =
    (c tau)^2 (c^2 + 4) + 4 overflows, the left side takes a scaled form
    that is finite for every finite c. Float P and c give a float,
    numpy arrays broadcast; every lane is solved to rounding level
    (numerics.increasing_root).
    """
    if not np.all(P > 0.0):
        raise ValueError(f"the boundary needs P > 0, got {P}")
    target = 1.0 / P
    return increasing_root(lambda t: _monotone_boundary_lhs(t, c) - target,
                           np.broadcast(P, c).shape, "bracketing T(c)")


def T_star(P: float) -> float:
    """Large-speed limit of T(c): the root of window_margin(P, T) = 0, that
    is of P e T e^T = 1 (P > 0)."""
    if not P > 0.0:
        raise ValueError(f"T_star needs P > 0, got {P}")
    return increasing_root(lambda t: window_margin(P, t), (),
                           "bracketing T_star")


# width of the strip around T(c) where the boundary comparison decides
MEMBERSHIP_BAND = 1e-6


def _region_flags(p: float, tau, c):
    """(in_dm, in_ds, disagree, has_root) at one p over broadcast tau, c.

    in_dm, the closed monotone-tail region, is tau <= T(c), and for
    P <= 0 True. has_root, from charroots.negative_root_exists, is its
    independent second computation; disagree marks where they differ off
    a MEMBERSHIP_BAND-wide strip around T(c). in_ds is Phi(tau, c) >=
    1 - 1/P, True by convention for P <= 1 (threshold <= 0 < Phi).
    """
    P = ModelParams(p=p, tau=0.0).P
    has_root = negative_root_exists(p, tau, c)
    if P <= 0.0:
        in_dm, disagree = has_root, ~has_root
    else:
        T_c = T_of_c(P, c)
        in_dm = tau <= T_c
        disagree = ((np.abs(tau - T_c) > MEMBERSHIP_BAND)
                    & (has_root != in_dm))
    if P <= 1.0:
        in_ds = np.ones(has_root.shape, dtype=bool)
    else:
        in_ds = _phi(tau, *_speed_roots(c)) >= 1.0 - 1.0 / P
    return in_dm, in_ds, disagree, has_root


def _point_flags(params: ModelParams, c: float) -> tuple[bool, bool, bool]:
    """(in_dm, in_ds, has_root) at one point; MembershipInconsistency
    where _region_flags marks a disagreement."""
    in_dm, in_ds, disagree, has_root = _region_flags(params.p, params.tau, c)
    if disagree:
        raise MembershipInconsistency(
            f"root test says {bool(has_root)}, boundary says {bool(in_dm)} "
            f"at (p={params.p}, tau={params.tau}, c={c})")
    return bool(in_dm), bool(in_ds), bool(has_root)


def membership(params: ModelParams, c: float) -> tuple[bool, bool]:
    """(in the monotone-tail region, in the slow-oscillation region);
    see _region_flags and _point_flags."""
    return _point_flags(params, c)[:2]


def membership_grid(p: float, taus: Sequence[float],
                    cs: Sequence[float]) -> tuple[np.ndarray, ...]:
    """``membership`` over the grid taus x cs at one p, as arrays.

    Returns (in_dm, in_ds, disagree), each of shape (len(taus), len(cs)),
    from _region_flags; T(c) is solved once per column. disagree marks
    the points where ``membership`` raises MembershipInconsistency.
    """
    tau = np.asarray(taus, dtype=float)[:, None]
    c = np.asarray(cs, dtype=float)[None, :]
    return _region_flags(p, tau, c)[:3]


# ---------------------------------------------------------------------------
# inclusion sweep and its positivity certificate
# ---------------------------------------------------------------------------

def certificate_coefficient(k, w):
    """Closed-form coefficient A_k(w) of the positivity certificate series.

    A(w, sigma) = e^{w sigma}(e sigma^2 (w-1) - (4 + w sigma))
                + e sigma^2 (w-1)^2 + (4 + w sigma)(1 + w(e^sigma - 1))
    expands as w * sum_{k>=2} A_k(w) sigma^k / k!. A_2 has its own form;
    for k >= 3 the general formula applies. Positivity of the A_k on
    w in (1, 2] (k = 3 only up to 1.75) certifies the inequality. k and
    w broadcast as arrays; scalars give a float.
    """
    k = np.asarray(k)
    if np.any(k < 2):
        raise ValueError(f"coefficients start at k = 2, got {k}")
    e = math.e
    general = (-w ** (k - 1) * (k + 4) + e * k * (k - 1) * w ** (k - 2)
               - e * k * (k - 1) * w ** (k - 3) + 4.0 + k * w)
    return np.where(k == 2, 2.0 * (e - 2.0) * (w - 1.0), general)[()]


def certificate_value(w, sigma):
    """The positivity certificate A(w, sigma) evaluated directly.

    A(w, sigma) = e^{w sigma}(e sigma^2 (w-1) - (4 + w sigma))
                + e sigma^2 (w-1)^2 + (4 + w sigma)(1 + w(e^sigma - 1)),
    positive for w in (1, 2] and sigma > 0; its positivity is equivalent
    to the boundary-separation inequality after the substitutions
    w = (1/z)^2 + 1, sigma = h z with h = c tau and z the scaled speed
    variable. w and sigma broadcast as arrays.
    """
    e = math.e
    return (np.exp(w * sigma) * (e * sigma * sigma * (w - 1.0)
                                 - (4.0 + w * sigma))
            + e * sigma * sigma * (w - 1.0) ** 2
            + (4.0 + w * sigma) * (1.0 + w * np.expm1(sigma)))


def certificate_quadratic_discriminant(w):
    """Discriminant of 12 A_2 + 4 A_3 s + A_4 s^2 (as a polynomial in s).

    Negative on (1, 2], which makes that quadratic positive for every
    s > 0 and covers the region where A_3 itself changes sign.
    """
    a2 = certificate_coefficient(2, w)
    a3 = certificate_coefficient(3, w)
    a4 = certificate_coefficient(4, w)
    return 16.0 * (a3 * a3 - 3.0 * a2 * a4)


def certificate_series(w: float, order: int) -> np.ndarray:
    """A_k(w) for k = 0..order (order >= 2) by expanding A(w, sigma) directly.

    Independent of the closed forms: the sigma-series of A is built from
    the Taylor coefficients of its factors with truncated np.convolve
    products and rescaled by k!/w. The k = 0, 1 entries are zero.
    """
    n = order + 1
    e = math.e
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, n))))  # k!
    exp_ws = w ** np.arange(n) / fact
    # e^{w sigma}(e (w-1) sigma^2 - (4 + w sigma)) + e (w-1)^2 sigma^2
    A = np.convolve(exp_ws, [-4.0, -w, e * (w - 1.0)])[:n]
    A[2] += e * (w - 1.0) ** 2
    # (4 + w sigma)(1 + w (e^sigma - 1))
    A += np.convolve([4.0, w], np.concatenate(([1.0], w / fact[1:])))[:n]
    return A * fact / w


@dataclass(frozen=True)
class SweepReport:
    """Result of the region-inclusion sweep.

    min_boundary_margin: smallest gap tau(c) - T(c) over the (P, c)
        grid, required > 0.
    min_inequality_margin: smallest left-minus-right value of the
        separation inequality over the (tau, c) grid.
    limit_errors: |tau(c_max) - tau_hat| and |T(c_max) - T_star| per P.
    violations: descriptions of any failures (empty on success).
    """

    min_boundary_margin: float
    min_inequality_margin: float
    limit_errors: tuple[tuple[float, float, float], ...]
    violations: tuple[str, ...]


# largest accepted distance of tau(c) and T(c) at c_max from their limits
LIMIT_TOL = 1e-3


def verify_inclusion(P_grid: Sequence[float] = (1.1, 2.0, 4.8999, 10.0),
                     n_c: int = 200,
                     c_range: tuple[float, float] = (0.01, 1e3),
                     n_tau_grid: int = 300) -> SweepReport:
    """Sweep T(c) < tau(c) and the separation inequality over grids.

    The inequality grid spans tau in [1e-3, 10] and c_range. Any
    violation is collected rather than raised, so the report can be
    rendered; callers treat a non-empty violation list as failure.
    """
    c_lo, c_hi = c_range
    cs = [c_lo * (c_hi / c_lo) ** (i / (n_c - 1)) for i in range(n_c)]
    # every (P, c) lane and the c_hi limit lanes in one array solve per curve
    P_col = np.array(P_grid, dtype=float)[:, None]
    c_row = np.array(cs + [c_hi])
    T_all = T_of_c(P_col, c_row)
    tau_all = tau_of_c(P_col, c_row)
    gaps = tau_all[:, :-1] - T_all[:, :-1]
    violations = [f"T(c) >= tau(c) at P={P_grid[i]}, c={cs[j]}: "
                  f"{float(T_all[i, j])} vs {float(tau_all[i, j])}"
                  for i, j in np.argwhere(gaps <= 0.0)]
    limit_errors = []
    for P, T_lim, tau_lim in zip(P_grid, T_all[:, -1].tolist(),
                                 tau_all[:, -1].tolist()):
        err_tau = abs(tau_lim - tau_hat(P))
        err_T = abs(T_lim - T_star(P))
        limit_errors.append((P, err_tau, err_T))
        if err_tau > LIMIT_TOL:
            violations.append(f"tau(c) limit off by {err_tau} at P={P}")
        if err_T > LIMIT_TOL:
            violations.append(f"T(c) limit off by {err_T} at P={P}")

    t_lo, t_hi = 1e-3, 10.0
    taus = [t_lo * (t_hi / t_lo) ** (i / (n_tau_grid - 1))
            for i in range(n_tau_grid)]
    cs_ineq = [c_lo * (c_hi / c_lo) ** (i / (n_tau_grid - 1))
               for i in range(n_tau_grid)]
    c_row = np.array(cs_ineq)
    lam, nu = _speed_roots(c_row)
    # blocks of about 10 tau rows keep the expression's temporaries small
    margins = np.vstack([
        _monotone_boundary_lhs(t, c_row) - (1.0 - _phi(t, lam, nu))
        for t in np.array_split(np.array(taus)[:, None],
                                max(1, n_tau_grid // 10))])
    for i, j in np.argwhere(margins <= 0.0):
        violations.append(f"separation inequality non-positive at "
                          f"tau={taus[i]}, c={cs_ineq[j]}")

    return SweepReport(min_boundary_margin=float(gaps.min()),
                       min_inequality_margin=float(margins.min()),
                       limit_errors=tuple(limit_errors),
                       violations=tuple(violations))


# ---------------------------------------------------------------------------
# (tau, p) region map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionReport:
    """Region flags at (p, tau), with memberships and tail class at c.

    The window and zeta criteria are the verdict's (heteroclinic.NmVerdict).
    """

    params: ModelParams
    c: float | None
    nm_necessary: NecessaryConditions
    gsc: bool
    in_dm: bool | None
    in_ds: bool | None
    tail_class: TrajectoryTail | None


def region_report(params: ModelParams, c: float | None = None) -> RegionReport:
    """Region flags at one point; at a speed c, one _point_flags call
    gives the memberships and, from its root test, the tail class."""
    in_dm = in_ds = tail = None
    if c is not None:
        in_dm, in_ds, has_root = _point_flags(params, c)
        tail = (TrajectoryTail.MONOTONE_TAIL if has_root
                else TrajectoryTail.OSCILLATING)
    return RegionReport(params=params, c=c, nm_necessary=nm_necessary(params),
                        gsc=gsc_holds(params), in_dm=in_dm, in_ds=in_ds,
                        tail_class=tail)


def region_grid(tau_values: Sequence[float],
                p_values: Sequence[float]) -> list[tuple[float, float, bool]]:
    """(tau, ln ln p, flag) rows over a (tau, p) grid, tau by tau.

    The flag is p_window and zeta > ln p: model.in_p_window, one call over
    the tau column against the P row (ln P taken once per p), masks the
    grid, and zeta runs once, as an array, over the points inside.
    """
    ps = np.array(p_values, dtype=float)
    bad_p = ps.size and not 1.0 < ps.min() <= ps.max() < math.inf
    if bad_p or not all(0.0 <= t < math.inf for t in tau_values):
        raise ValueError("region_grid needs finite p > 1 and tau >= 0")
    kappa = [math.log(p) for p in p_values]
    lnp = np.array(kappa)
    taus = np.array(tau_values, dtype=float)
    flags = in_p_window(lnp - 1.0, taus.reshape(-1, 1))
    it, ip = np.nonzero(flags)
    p, t = ps[ip], taus[it]
    flags[it, ip] = _zeta(p, t, _mu(p, t)) > lnp[ip]
    return [(t, math.log(k), flag)
            for t, row in zip(tau_values, flags.tolist())
            for k, flag in zip(kappa, row)]
