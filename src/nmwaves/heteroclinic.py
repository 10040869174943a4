"""Extends the heteroclinic solution past the series horizon by the method of steps.

The delay equation u' = -u + p u(t-tau) e^{-u(t-tau)} is integrated with
the classical 4-stage Runge-Kutta method on a uniform grid whose step
divides the delay exactly. Delayed values fall on stored grid nodes for
whole-step stage times and on half-nodes for the two middle stages, where
a cubic Hermite interpolant built from stored (u, u') keeps the scheme at
fourth order. The history on [t0 - tau, t0] is seeded from the series
expansion, which represents the exact solution there, so no derivative
discontinuities propagate from the handoff. Within one delay interval
every delayed value is already known, so each Runge-Kutta step is an
affine map u_{n+1} = R u_n + g_n (the method of steps taken literally).
Unrolled over a chunk of min(K, 64) steps, the recurrence is one linear
map from the chunk's delayed birth terms and its first node to its new
nodes; since u' = f(u(t - tau)) - u, the Hermite half-node values are
linear in the same inputs, so the same product yields the half-node
values a later chunk reads. With the node and half-node birth terms
interleaved in one array, each chunk is one matrix-vector product and
one exp pass; the map depends on the step alone, not on p, and the
range check is one array pass after the last chunk.

Also here: crossings of ln p with the tail class, the first interior
maximum, and the combined verdict for existence of a non-monotone
non-oscillating wave.
Crossing count and tail class come from the grid nodes alone, and every
maximum from _peak, in closed form; crossings() refines every crossing
time on the interpolant, nm_verdict at most the last (_classify_tail).
A tail the run leaves undecided is INCONCLUSIVE, with a one-line reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charroots import TrajectoryTail
from .dirichlet import CoefficientOverflow, DirichletExpansion, build, zeta
from .model import ModelParams
from .numerics import (DomainError, bisect_lockstep, hermite_cubic,
                       is_monotone, level_crossings, level_tol)


# steps advanced by one matrix-vector product (fewer when K is smaller)
CHUNK = 64
# nodes one run may allocate: t, u, u' and the two interleaved birth
# terms take 40 bytes per node
MAX_NODES = 20_000_000


class BlowUpError(DomainError):
    """The integration left the physical range: |u| above max(1e6, 2 p/e)
    (p/e bounds the invariant range) or not finite."""


@dataclass(frozen=True)
class Trajectory:
    """Dense-output record at uniform step h = tau / K.

    Samples cover [t0 - tau, t_end]; u' is the equation right-hand side
    evaluated on the grid.
    """

    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    t0: float
    h: float
    params: ModelParams

    def interpolate(self, t: float) -> float:
        """Cubic Hermite evaluation anywhere inside the sample range."""
        if t < self.t[0] or t > self.t[-1]:
            raise ValueError(f"t = {t} outside sampled range")
        i = min(int((t - self.t[0]) / self.h), len(self.t) - 2)
        return hermite_cubic(*self._segments(i), t)

    def _segments(self, i):
        """(t, u, u') at both ends of the sample segments i."""
        return (self.t[i], self.t[i + 1], self.u[i], self.u[i + 1],
                self.du[i], self.du[i + 1])


@dataclass(frozen=True)
class CrossingReport:
    """Crossings of a level by the trajectory, with shape diagnostics.

    crossings: (time, slope sign) pairs, slope sign +1 for upward; the
        times are refined on the interpolant.
    gaps: consecutive crossing-time differences.
    global_max: the interpolant's maximum, in closed form (_node_stage).
    tail_class: MONOTONE_TAIL, OSCILLATING or INCONCLUSIVE.
    anomalies: human-readable violations (a gap <= tau, a first crossing
        not upward, equal slope signs in a row), then _classify_tail's reason.
    """

    level: float
    crossings: tuple[tuple[float, int], ...]
    gaps: tuple[float, ...]
    global_max: float
    tail_class: TrajectoryTail
    anomalies: tuple[str, ...]


def integrate(expansion: DirichletExpansion, t_end: float | None = None,
              K: int = 64) -> Trajectory:
    """Integrate forward from the series handoff time.

    The history on [t0 - tau, t0], t0 = expansion.handoff, is evaluated
    from the series directly. t_end defaults to t0 + max(10, 20 tau):
    time is in units of the linear decay rate, so a fixed budget covers
    both the excursion and the settling tail.

    Each chunk of min(K, 64) steps is one product of _chunk_matrix(h, B),
    which does not depend on p, with the chunk's interleaved delayed
    birth terms and first node: it yields the new nodes and the half-node
    values a later chunk reads. The range is checked once all chunks are
    stepped; BlowUpError names the first node where |u| > max(1e6, 2 p/e)
    or u is not finite, an overflowing birth term included, found by
    stepping its chunk again node by node. Raises ValueError, before
    allocating, for a t_end that is not finite, more than MAX_NODES nodes
    or a step h = tau/K whose h^4 overflows (tau above about 7.4e78 at
    K = 64).
    """
    if K < 20:
        raise ValueError(f"need at least 20 steps per delay interval, got {K}")
    params = expansion.params
    tau = params.tau
    if tau <= 0.0:
        raise ValueError("method of steps requires a positive delay")
    p = params.p
    bound = max(1e6, 2.0 * params.f_max)
    bound_text = "1e6" if bound == 1e6 else f"2p/e = {bound:.6g}"
    t0 = expansion.handoff
    if t_end is None:
        t_end = t0 + max(10.0, 20.0 * tau)
        if not math.isfinite(t_end):
            raise ValueError(f"tau = {tau:g} overflows the default "
                             f"t_end = t0 + 20 tau")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not t_end > t0:
        raise ValueError(f"t_end = {t_end} must exceed the handoff t0 = {t0}")

    h = tau / K
    B = min(K, CHUNK)
    try:
        W = _chunk_matrix(h, B)
    except OverflowError:  # from h ** 4
        raise ValueError(f"tau = {tau:g} gives the step h = tau/K = {h:g} "
                         f"(K = {K}), whose h^4 in the RK4 step overflows"
                         ) from None
    n_steps = int(math.ceil((t_end - t0) / h - 1e-12))
    n_total = K + n_steps + 1  # history nodes + integrated nodes
    if n_total > MAX_NODES:
        raise ValueError(f"the run needs K + n_steps + 1 = {n_total} nodes "
                         f"(K = {K}, n_steps = {n_steps}), above the cap of "
                         f"{MAX_NODES}")
    t = np.empty(n_total)
    t[:K + 1] = t0 - tau + np.arange(K + 1) * h
    t[K + 1:] = t0 + np.arange(1, n_steps + 1) * h
    u = np.empty(n_total)
    du = np.empty(n_total)
    u[:K + 1] = expansion.evaluate(t[:K + 1])
    du[:K + 1] = expansion.derivative(t[:K + 1])

    # G interleaves the birth terms f(u) = p u e^{-u} at nodes and
    # half-nodes: G[2i] = f(u_i) and G[2i+1] = f(d_i), d_i = u(t_i + h/2).
    G = np.empty(2 * n_total - 1)
    y = np.empty(2 * B)  # d_n, u_{n+1}, d_{n+1}, ..., u_{n+B}
    z = np.empty(2 * B + 2)
    dh = 0.5 * (u[:K] + u[1:K + 1]) + 0.125 * h * (du[:K] - du[1:K + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        G[:2 * K + 1:2] = p * u[:K + 1] * np.exp(-u[:K + 1])
        G[1:2 * K:2] = p * dh * np.exp(-dh)
        for n in range(K, K + n_steps, B):
            m = min(B, K + n_steps - n)
            # B <= K: every delayed input is known when the chunk starts
            z[:-1] = G[2 * (n - K):2 * (n - K + B) + 1]
            z[-1] = u[n]
            if m < B:  # a short last chunk reads only its own inputs
                z[2 * m + 1:-1] = 0.0
            ym = y[:2 * m]
            W[:2 * m].dot(z, out=ym)
            if n == K:  # like the history, d_K takes u'_K from the series
                ym[0] += 0.125 * h * (du[K] - (z[0] - u[K]))
            g = G[2 * n + 1:2 * (n + m) + 1]
            np.exp(-ym, out=g)
            g *= ym
            g *= p
            u[n + 1:n + m + 1] = ym[1::2]
        np.subtract(G[2:2 * n_steps + 1:2], u[K + 1:], out=du[K + 1:])

        # One pass checks the range. A non-finite input turns the whole
        # chunk's product into nan (0 * inf), so the first flagged chunk
        # is stepped again node by node from its start to find the node
        # (the flagged one stands if rounding puts the two on either side).
        bad = np.flatnonzero(~(np.abs(u[K + 1:]) <= bound))
        if bad.size:
            n = K + int(bad[0]) // B * B
            i = K + 1 + int(bad[0])
            m = min(B, K + n_steps - n)
            Gc = G[2 * (n - K):2 * (n - K + m) + 1]
            # the first node row of W is one RK4 step
            c0, ch, c1, R = W[1, [0, 1, 2, -1]].tolist()
            g = c0 * Gc[:-1:2] + ch * Gc[1::2] + c1 * Gc[2::2]
            un = float(u[n])
            for k, gk in enumerate(g.tolist()):
                un = R * un + gk
                if not abs(un) <= bound:  # also catches inf and nan
                    i = n + 1 + k
                    break
            raise BlowUpError(f"|u| exceeded {bound_text} at t = {t[i]}")

    return Trajectory(t=t, u=u, du=du, t0=t0, h=h, params=params)


def _chunk_matrix(h: float, B: int) -> np.ndarray:
    """The 2B x (2B+2) map of B RK4 steps from node n; j = n - K.

    Its input is z = [G[2j], G[2j+1], ..., G[2j+2B], u_n], the birth
    terms at the chunk's delayed nodes and half-nodes (known, as B <= K)
    and its first node. Each step is affine in u: u_{n+1} = R u_n +
    c0 G[2j] + ch G[2j+1] + c1 G[2j+2]. As u'_i = G[2(i-K)] - u_i, the
    Hermite half-node value d_i = (u_i + u_{i+1})/2 + h (u'_i - u'_{i+1})/8
    is linear in z too, so the rows alternate d_{n+k} and u_{n+k+1}.
    p enters only through G.
    """
    R = 1.0 - h + h * h / 2.0 - h ** 3 / 6.0 + h ** 4 / 24.0
    c0 = h / 6.0 * (1.0 - h + h * h / 2.0 - h ** 3 / 4.0)
    ch = h / 6.0 * (4.0 - 2.0 * h + h * h / 2.0)
    c1 = h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):  # R^i may overflow
        powers = R ** np.arange(B + 1)
        lag = np.subtract.outer(np.arange(B), np.arange(B))
        prop = np.tril(powers[np.abs(lag)])  # R^{i-k} for k <= i
        U = np.zeros((B + 1, 2 * B + 2))  # u_n, ..., u_{n+B}
        U[0, -1] = 1.0
        U[1:, 0:2 * B:2] = c0 * prop
        U[1:, 2:2 * B + 1:2] += c1 * prop
        U[1:, 1:2 * B:2] = ch * prop
        U[1:, -1] = powers[1:]
        W = np.empty((2 * B, 2 * B + 2))
        W[1::2] = U[1:]
        W[0::2] = (0.5 - 0.125 * h) * U[:-1] + (0.5 + 0.125 * h) * U[1:]
        k = np.arange(B)
        W[2 * k, 2 * k] += 0.125 * h
        W[2 * k, 2 * k + 2] -= 0.125 * h
    return W


def crossings(traj: Trajectory, level: float | None = None) -> CrossingReport:
    """Crossings of the level (default ln p) with tail classification.

    The nodes are searched with numerics.level_crossings, so sign changes
    at rounding level are not crossings; the maximum is _node_stage's.
    Every crossing time is refined here. A run too short to establish
    either a settling monotone tail or persistent oscillation has an
    INCONCLUSIVE tail, whose reason ends the anomalies.
    """
    params = traj.params
    if level is None:
        level = params.kappa
    tau = params.tau
    idx, global_max, tail, reason = _node_stage(traj, level)
    s = traj.u - level
    # a node on the level is its own crossing; sign changes between
    # neighbouring nodes are refined on the interpolant. Either way the
    # slope sign is that of the side the crossing goes to.
    strict = s[idx] != 0.0
    times = traj.t[idx]
    times[strict] = _refine(traj, idx[strict], level)
    ups = s[idx + 1] > 0.0
    found = [(tc_, 1 if up else -1)
             for tc_, up in zip(times.tolist(), ups.tolist())]

    gaps = tuple(b[0] - a[0] for a, b in zip(found[:-1], found[1:]))
    anomalies = [f"crossing gap {g:.6g} <= tau" for g in gaps if g <= tau]
    if found and found[0][1] != 1:
        anomalies.append("first crossing is not upward")
    for (_, s1), (_, s2) in zip(found[:-1], found[1:]):
        if s1 == s2:
            anomalies.append("consecutive crossings with equal slope sign")
            break
    if reason is not None:
        anomalies.append(reason)
    return CrossingReport(level=level, crossings=tuple(found), gaps=gaps,
                          global_max=global_max, tail_class=tail,
                          anomalies=tuple(anomalies))


def _node_stage(traj: Trajectory, level: float):
    """(level_crossings indices, maximum, *_classify_tail): what crossings()
    and nm_verdict share, found without crossing times. The maximum is the
    top node's, or _peak's on a segment beside it where u' falls through 0."""
    u, du = traj.u, traj.du
    idx = np.array(level_crossings(u, level), dtype=np.int64)
    i_max = int(np.argmax(u))
    global_max = float(u[i_max])
    for k in (i_max - 1, i_max):
        if 0 <= k < len(u) - 1 and du[k] > 0.0 > du[k + 1]:
            global_max = max(global_max, _peak(traj, k)[1])
    return idx, global_max, *_classify_tail(traj, idx, level)


def _peak(traj: Trajectory, k: int) -> tuple[float, float]:
    """(t, u) at the maximum of the Hermite cubic on segment k, where
    u'_k > 0 > u'_{k+1}: in s = (t - t_k)/h, u' is a s^2 + b s + u'_k, with
    one root in (0, 1), taken as 2 u'_k/(sqrt(D) - b) for b <= 0 and as
    (b + sqrt(D))/(-2 a) otherwise (a < -b < 0), so neither form cancels."""
    t0, t1, y0, y1, dy0, dy1 = (float(v) for v in traj._segments(k))
    h = t1 - t0
    g = 6.0 * (y0 - y1) / h
    a = g + 3.0 * (dy0 + dy1)
    b = -g - 4.0 * dy0 - 2.0 * dy1
    r = math.sqrt(max(b * b - 4.0 * a * dy0, 0.0))  # D > 0 but for rounding
    s = 2.0 * dy0 / (r - b) if b <= 0.0 else (b + r) / (-2.0 * a)
    t = t0 + s * h
    return t, hermite_cubic(t0, t1, y0, y1, dy0, dy1, t)


def _refine(traj: Trajectory, idx: np.ndarray, level: float) -> np.ndarray:
    """The level's time in each segment idx, where u - level changes sign,
    bisected in lockstep on the Hermite interpolant."""
    seg = traj._segments(idx)
    return bisect_lockstep(lambda m: hermite_cubic(*seg, m) - level,
                           seg[0], seg[1], seg[2] - level)


def first_maximum(traj: Trajectory) -> tuple[float, float] | None:
    """(t, u) at the first + -> - sign change of u', inside a segment (_peak)
    or at a node where u' is exactly 0; None if the trajectory is monotone."""
    t, u, du = traj.t, traj.u, traj.du
    peaks = np.flatnonzero((du[:-1] > 0.0) & (du[1:] < 0.0))
    on_node = 1 + np.flatnonzero((du[:-2] > 0.0) & (du[1:-1] == 0.0)
                                 & (du[2:] < 0.0))
    if on_node.size and not (peaks.size and peaks[0] < on_node[0]):
        return float(t[on_node[0]]), float(u[on_node[0]])
    return _peak(traj, int(peaks[0])) if peaks.size else None


def _classify_tail(traj: Trajectory, idx: np.ndarray,
                   level: float) -> tuple[TrajectoryTail, str | None]:
    """(tail class, reason) from the crossing indices idx of
    level_crossings; only an INCONCLUSIVE tail has a reason (else None).

    The amplitude after the last crossing is taken from node i on for a
    crossing on node i, and from node i+1 on for one inside segment i,
    wherever the root lies in it. Crossings are in time order, so the
    last one decides whether any lies in the run's last quarter; only
    when its segment straddles the quarter mark is it refined, as one
    lane of crossings()' bisection, whose lanes are independent.
    """
    tau = traj.params.tau
    t_end = float(traj.t[-1])
    window = traj.t >= t_end - 2.0 * tau
    tail_u = traj.u[window]
    dev_end = abs(float(traj.u[-1]) - level)
    monotone = is_monotone(tail_u, level_tol(level))

    if idx.size:
        i = int(idx[-1])
        strict = int(traj.u[i] != level)
        amp = float(np.max(np.abs(traj.u[i + strict:] - level)))
        if monotone and (dev_end <= amp / 1e3 or dev_end < 1e-6):
            return TrajectoryTail.MONOTONE_TAIL, None
        t_quarter = traj.t0 + 0.75 * (t_end - traj.t0)
        t_last = float(traj.t[i])
        if t_last < t_quarter <= traj.t[i + strict]:
            t_last = float(_refine(traj, idx[-1:], level)[0])
        if t_last >= t_quarter:
            return TrajectoryTail.OSCILLATING, None
        return TrajectoryTail.INCONCLUSIVE, (
            f"tail not settled by t_end = {t_end}: deviation {dev_end:.3e}, "
            f"post-crossing amplitude {amp:.3e}")

    # no crossings: a monotone approach with shrinking deviation is a tail
    i_ref = int(0.75 * (len(traj.u) - 1))
    dev_ref = abs(float(traj.u[i_ref]) - level)
    if monotone and (dev_end < dev_ref or dev_end < 1e-6):
        return TrajectoryTail.MONOTONE_TAIL, None
    return TrajectoryTail.INCONCLUSIVE, (
        f"no crossings and no trend by t_end = {t_end}")


@dataclass(frozen=True)
class NmVerdict:
    """Combined criterion for a non-monotone non-oscillating wave.

    in_p_window: e^2 < p < exp(1 + exp(-1-tau)/tau).
    zeta_gt_lnp: the peak lower bound exceeds the equilibrium.
    verdict: conjunction of the two.
    Empirical confirmation from nm_verdict's run (None at tau = 0): the
    heteroclinic's maximum, tail class, crossing count and tail reason.
    """

    params: ModelParams
    in_p_window: bool
    zeta_value: float
    zeta_gt_lnp: bool
    verdict: bool
    max_u: float | None = None
    tail_class: TrajectoryTail | None = None
    crossing_count: int | None = None
    tail_reason: str | None = None


def window_upper(tau: float) -> float:
    """exp(1 + exp(-1-tau)/tau), or 0 without delay: p below it is
    P tau e^{1+tau} < 1. OverflowError below tau of about 5.2e-4."""
    return math.exp(1.0 + math.exp(-1.0 - tau) / tau) if tau > 0.0 else 0.0


def p_window(params: ModelParams) -> bool:
    """e^2 < p < window_upper(tau)."""
    upper = window_upper(params.tau)  # first: a small tau overflows at any p
    return math.e ** 2 < params.p < upper


def nm_verdict(params: ModelParams) -> NmVerdict:
    """Evaluate the nm-wave criteria and, for tau > 0, confirm with a run.

    The run integrates build()'s expansion with integrate()'s defaults;
    where fewer than three coefficients fit there is no run. Its crossing
    count, maximum and tail class come from the node stage crossings()
    shares, which refines at most the last crossing time (_classify_tail).
    """
    in_window = p_window(params)  # before the run: it can overflow
    z = zeta(params)
    z_gt = z > params.kappa
    max_u = tail = n_cross = reason = None
    if params.tau > 0.0:
        try:
            expansion = build(params)
        except CoefficientOverflow:
            pass
        else:
            traj = integrate(expansion)
            idx, max_u, tail, reason = _node_stage(traj, params.kappa)
            n_cross = len(idx)
    return NmVerdict(params=params, in_p_window=in_window, zeta_value=z,
                     zeta_gt_lnp=z_gt, verdict=in_window and z_gt,
                     max_u=max_u, tail_class=tail, crossing_count=n_cross,
                     tail_reason=reason)

