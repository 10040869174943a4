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
interleaved in one array, a full chunk is one copy of its delayed birth
terms into the product input, one product with the negated map (exact,
so it gives minus the new values to the bit), the birth terms formed in
place from them by three passes (exp, times the negated values, times
-p), and one negated copy of the new nodes. The map depends on the step
alone, not on p, and the range check is one reduction after the last
chunk. A chunk's bits are a function of its state, the birth terms over
its delay interval and its first node, so once a settling run's state
repeats the previous chunk's bit for bit, every later full chunk would
write the same block again: it is copied instead of stepped.

Also here: crossings of ln p with the tail class, the first interior
maximum, and the combined verdict for existence of a non-monotone
non-oscillating wave.
Crossing count and tail class come from the grid nodes alone, the tail
from numerics.sampled_tail (from t0, window 2 tau). A maximum is a fall
of u' through 0 beyond rounding level, by the crossing rule
(numerics.level_crossings), in closed form (_peak). crossings() refines
every crossing time on the interpolant, nm_verdict none. An undecided
tail, or one of a run nm_verdict does not start, is INCONCLUSIVE, with a
one-line reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import CoefficientOverflow, DirichletExpansion, build, zeta
from .model import ModelParams, in_p_window
from .numerics import (DomainError, TrajectoryTail, bisect_lockstep,
                       hermite_cubic, level_crossings, sampled_tail)


# steps advanced by one matrix-vector product (fewer when K is smaller)
CHUNK = 64
K_DEFAULT = 64  # steps per delay interval of a default run
# nodes one run may allocate, at 40 bytes each (t, u, u' and two birth
# terms); a default run reaches it at tau of about 3.2e-4
MAX_NODES = 2_000_000


class BlowUpError(DomainError):
    """The integration left the physical range: |u| above max(1e6, 2 p/e)
    (p/e bounds the invariant range) or not finite."""


def _run_steps(steps: float, K: int) -> int:
    """ceil(steps - 1e-12), the steps after K + 1 history nodes (steps may
    be inf); ValueError if K + n_steps + 1 is above MAX_NODES."""
    n_steps = math.ceil(steps - 1e-12) if steps < math.inf else steps
    n_total = K + n_steps + 1
    if n_total > MAX_NODES:  # 16 digits: exact below 1e16, then 6.4e+22
        raise ValueError(f"the run needs K + n_steps + 1 = {n_total:.16g} "
                         f"nodes (K = {K}, n_steps = {n_steps:.16g}), above "
                         f"the cap of {MAX_NODES}")
    return n_steps


def check_default_run(tau: float, K: int = K_DEFAULT) -> None:
    """_run_steps' ValueError where integrate()'s default run, ceil(K
    max(10/tau, 20)) steps, is above MAX_NODES; nothing at tau = 0, where
    no run is made. Called before build(), whose eps cap rounds to 0 at
    such small delays."""
    if tau > 0.0:
        _run_steps(K * max(10.0 / tau, 20.0), K)


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
        not upward, equal slope signs in a row), then sampled_tail's reason.
    """

    level: float
    crossings: tuple[tuple[float, int], ...]
    gaps: tuple[float, ...]
    global_max: float
    tail_class: TrajectoryTail
    anomalies: tuple[str, ...]


def integrate(expansion: DirichletExpansion, t_end: float | None = None,
              K: int = K_DEFAULT) -> Trajectory:
    """Integrate forward from the series handoff time.

    The history on [t0 - tau, t0], t0 = expansion.handoff, is evaluated
    from the series directly. t_end defaults to t0 + max(10, 20 tau):
    time is in units of the linear decay rate, so a fixed budget covers
    both the excursion and the settling tail.

    The history's u and u' come from one series pass. Each chunk of
    B = min(K, 64) steps is one product of -W, W = _chunk_matrix(h, B),
    which does not depend on p, with the chunk's 2B + 1 interleaved
    delayed birth terms and first node: it yields minus the new nodes and
    the half-node values a later chunk reads. A full chunk then forms its
    birth terms as exp(-y), times -y, times -p, in place, and copies -y's
    nodes into u; the first chunk, whose d_K takes u'_K from the series,
    and a short last chunk are stepped outside the loop. Once the next
    chunk's state (its 2K + 1 delayed birth terms and u_n) equals the
    last one's bit for bit, the loop copies the last block into the rest
    of the full chunks and stops: the outputs are those of stepping them.
    The range is checked by one reduction once all chunks are written;
    BlowUpError names the first node where |u| > max(1e6, 2 p/e) or u is
    not finite, an overflowing birth term included, found by stepping its
    chunk again node by node. Raises ValueError, before allocating, for a
    t_end that is not finite, more than MAX_NODES nodes or a step
    h = tau/K whose h^4 overflows (tau above about 7.4e78 at K = 64).
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
    n_steps = _run_steps((t_end - t0) / h, K)
    n_total = K + n_steps + 1  # history nodes + integrated nodes
    t = np.empty(n_total)
    t[:K + 1] = t0 - tau + np.arange(K + 1) * h
    np.multiply(np.arange(1, n_steps + 1), h, out=t[K + 1:])  # no temporary
    t[K + 1:] += t0
    u = np.empty(n_total)
    du = np.empty(n_total)
    u[:K + 1], du[:K + 1] = expansion.evaluate_with_derivative(t[:K + 1])

    # G interleaves the birth terms f(u) = p u e^{-u} at nodes and
    # half-nodes: G[2i] = f(u_i) and G[2i+1] = f(d_i), d_i = u(t_i + h/2).
    # A chunk's product with -W (negation is exact) is y = -(d_n, u_{n+1},
    # d_{n+1}, ..., u_{n+B}) to the bit, and f = e^{-d} (-d) (-p).
    G = np.empty(2 * n_total - 1)
    nW = -W
    y = np.empty(2 * B)
    z = np.empty(2 * B + 2)  # the chunk's 2B + 1 delayed birth terms, u_n
    dh = 0.5 * (u[:K] + u[1:K + 1]) + 0.125 * h * (du[:K] - du[1:K + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        G[:2 * K + 1:2] = p * u[:K + 1] * np.exp(-u[:K + 1])
        G[1:2 * K:2] = p * dh * np.exp(-dh)

        def chunk(j, m):
            """The loop's step for chunk j, m <= B steps from n = K + jB:
            a short chunk reads only its own inputs, and chunk 0's d_K
            takes u'_K from the series, like the history."""
            n = K + j * B
            z[:-1] = G[2 * j * B:2 * (j + 1) * B + 1]
            z[2 * m + 1:-1] = 0.0
            ym = y[:2 * m]
            nW[:2 * m].dot(z, out=ym)
            if j == 0:
                ym[0] -= 0.125 * h * (du[K] - (G[0] - u[K]))
            g = G[2 * n + 1:2 * (n + m) + 1]
            np.exp(ym, out=g)
            g *= ym
            g *= -p
            np.negative(ym[1::2], out=u[n + 1:n + m + 1])
            z[-1] = u[n + m]

        # Full chunk j >= 1 reads the window G[2jB:2jB+2B+1] (known, as
        # B <= K) and writes the rows G[2n+1:2n+2B+1] and u[n+1:n+B+1];
        # the last node it writes is the next chunk's u_n.
        n_full, m = divmod(n_steps, B)
        z[-1] = u[K]
        if n_full:
            chunk(0, B)
        win = np.lib.stride_tricks.sliding_window_view(G, 2 * B + 1)
        G_out = G[2 * (K + B) + 1:2 * (K + B * n_full) + 1].reshape(-1, 2 * B)
        u_out = u[K + B + 1:K + B * n_full + 1].reshape(-1, B)
        z_birth, nodes, minus_p = z[:-1], y[1::2], -p
        G_bits, L = G.view(np.int64), 2 * K + 1  # state j: G[2jB:][:L]
        u_bits, u_n = u.view(np.int64)[K::B], z.item(-1)
        for j, w, g, un in zip(range(1, n_full), win[2 * B::2 * B], G_out,
                               u_out):
            z_birth[...] = w
            nW.dot(z, out=y)
            np.exp(y, out=g)
            g *= y
            g *= minus_p
            np.negative(nodes, out=un)
            # chunk j + 1 starts from chunk j's state, bit for bit (a nan
            # u_n fails ==): so does every later one
            u_next = un.item(-1)
            if u_next == u_n and u_bits[j] == u_bits[j + 1] and (
                    np.array_equal(G_bits[2 * j * B:][:L],
                                   G_bits[2 * (j + 1) * B:][:L])):
                G_out[j:], u_out[j:] = g, un
                break  # z[-1] holds the last node's bits already
            z[-1] = u_n = u_next
        if m:
            chunk(n_full, m)
        np.subtract(G[2:2 * n_steps + 1:2], u[K + 1:], out=du[K + 1:])

        # One reduction checks the range. A non-finite input turns the
        # whole chunk's product into nan (0 * inf), so the first flagged
        # chunk is stepped again node by node from its start to find the
        # node (the flagged one stands if rounding puts the two on either
        # side).
        if not np.abs(u[K + 1:]).max(initial=0.0) <= bound:  # nan too
            bad = np.flatnonzero(~(np.abs(u[K + 1:]) <= bound))
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
    # neighbouring nodes are bisected in lockstep on the interpolant.
    # Either way the slope sign is that of the side the crossing goes to.
    strict = s[idx] != 0.0
    times = traj.t[idx]
    seg = traj._segments(idx[strict])
    times[strict] = bisect_lockstep(lambda m: hermite_cubic(*seg, m) - level,
                                    seg[0], seg[1], seg[2] - level)
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
    """(level_crossings indices, maximum, *sampled_tail): what crossings()
    and nm_verdict share, found without crossing times. The maximum is the
    top node's, or a higher one of _maxima on the segments beside it."""
    u = traj.u
    idx = np.array(level_crossings(u, level), dtype=np.int64)
    i_max = int(np.argmax(u))
    beside = _maxima(traj, max(i_max - 1, 0), i_max + 2)
    global_max = max([float(u[i_max])] + [m for _, m in beside])
    return idx, global_max, *sampled_tail(traj.t, u, level, idx, traj.t0,
                                          2.0 * traj.params.tau)


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


def _maxima(traj: Trajectory, lo: int, hi: int):
    """(t, u) at each fall of u' through 0 on the nodes lo to hi - 1 that
    level_crossings(u', 0) reports, in order: _peak's inside a segment,
    the node's where u' is exactly 0."""
    du = traj.du[lo:hi]
    for k in level_crossings(du, 0.0):
        if du[k + 1] < 0.0:
            yield (_peak(traj, lo + k) if du[k] != 0.0
                   else (float(traj.t[lo + k]), float(traj.u[lo + k])))


def first_maximum(traj: Trajectory) -> tuple[float, float] | None:
    """(t, u) at the first of _maxima; None where u' never falls through 0
    beyond rounding level, as on a monotone trajectory."""
    return next(_maxima(traj, 0, len(traj.t)), None)


@dataclass(frozen=True)
class NmVerdict:
    """Combined criterion for a non-monotone non-oscillating wave.

    in_p_window: p_window, p > e^2 and P tau e^{1+tau} < 1.
    zeta_gt_lnp: the peak lower bound exceeds the equilibrium.
    verdict: conjunction of the two.
    Empirical confirmation from nm_verdict's run (None at tau = 0): the
    heteroclinic's maximum, tail class, crossing count and tail reason;
    a run not started for want of coefficients has only the INCONCLUSIVE
    tail and its reason.
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


def p_window(params: ModelParams) -> bool:
    """model.in_p_window at (P, tau): p > e^2 and P tau e^{1+tau} < 1."""
    return bool(in_p_window(params.P, params.tau))


def nm_verdict(params: ModelParams) -> NmVerdict:
    """Evaluate the nm-wave criteria and, for tau > 0, confirm with a run.

    The run integrates build()'s expansion with integrate()'s defaults.
    ValueError, before anything is computed, where its
    K + ceil(K max(10/tau, 20)) + 1 nodes are above MAX_NODES. Where fewer
    than three coefficients fit the run is not started (tail INCONCLUSIVE,
    with the reason). Its crossings, maximum and tail come from
    crossings()' node stage.
    """
    check_default_run(params.tau)
    in_window = p_window(params)
    z = zeta(params)
    z_gt = z > params.kappa
    max_u = tail = n_cross = reason = None
    if params.tau > 0.0:
        try:
            expansion = build(params)
        except CoefficientOverflow as exc:
            tail, reason = TrajectoryTail.INCONCLUSIVE, str(exc)
        else:
            traj = integrate(expansion)
            idx, max_u, tail, reason = _node_stage(traj, params.kappa)
            n_cross = len(idx)
    return NmVerdict(params=params, in_p_window=in_window, zeta_value=z,
                     zeta_gt_lnp=z_gt, verdict=in_window and z_gt,
                     max_u=max_u, tail_class=tail, crossing_count=n_cross,
                     tail_reason=reason)

