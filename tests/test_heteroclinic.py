"""Tests for the method-of-steps integrator and shape diagnostics."""

import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from nmwaves import heteroclinic
from nmwaves.dirichlet import CoefficientOverflow, build, zeta
from nmwaves.heteroclinic import (BlowUpError, Trajectory, TrajectoryTail,
                                  crossings, first_maximum, integrate,
                                  nm_verdict, p_window)
from nmwaves.model import ModelParams
from nmwaves.numerics import hermite_cubic, level_crossings

EXAMPLE = ModelParams(p=365.0, tau=0.07)


def _example_run(t_end=None, K=64):
    expansion = build(EXAMPLE)
    return integrate(expansion, t_end=t_end, K=K)


def test_example_shape():
    # rises through ln p, peaks above the zeta bound, settles monotonically
    traj = _example_run()
    report = crossings(traj)
    lnp = EXAMPLE.kappa
    z = zeta(EXAMPLE)
    assert report.global_max > z > lnp
    assert report.tail_class is TrajectoryTail.MONOTONE_TAIL
    assert len(report.crossings) == 1
    assert report.crossings[0][1] == 1
    assert abs(float(traj.u[-1]) - lnp) <= 1e-6
    assert report.anomalies == ()
    first_max = first_maximum(traj)
    assert first_max is not None
    assert first_max[1] == pytest.approx(report.global_max, rel=1e-6)


def test_example_peak_bound_at_tau():
    # series-anchored normalization makes the bound u(tau) > zeta testable
    traj = _example_run()
    assert traj.interpolate(EXAMPLE.tau) > zeta(EXAMPLE)


def test_crossing_gaps_exceed_delay():
    report = crossings(_example_run())
    for g in report.gaps:
        assert g > EXAMPLE.tau


def test_positivity():
    traj = _example_run()
    assert np.all(traj.u > 0.0)


def test_upper_bound_by_leading_exponential():
    traj = _example_run()
    for t, u in zip(traj.t, traj.u):
        e = traj.params.mu * t
        if e < math.log(1e6):
            assert u < math.exp(e) or t > 0.0 and math.exp(e) > 1e6
    # explicit check for t <= 0
    sel = traj.t <= 0.0
    bound = np.exp(traj.params.mu * traj.t[sel])
    assert np.all(traj.u[sel] < bound)


def test_monotone_case_small_p():
    params = ModelParams(p=2.0, tau=0.1)
    expansion = build(params)
    traj = integrate(expansion)
    report = crossings(traj)
    assert report.crossings == ()
    assert first_maximum(traj) is None
    assert report.tail_class is TrajectoryTail.MONOTONE_TAIL
    assert np.all(np.diff(traj.u) > 0.0)
    assert traj.u[-1] < math.log(2.0)
    # run on to t = 60, u' wobbles in sign within 6e-15 of 0 about
    # u = ln 2: rounding noise, no maximum
    traj = integrate(expansion, t_end=60.0)
    assert crossings(traj).crossings == ()
    assert first_maximum(traj) is None


def test_oscillating_case():
    # beyond the necessary-conditions region the tail keeps crossing ln p
    params = ModelParams(p=365.0, tau=0.2)
    expansion = build(params)
    traj = integrate(expansion)
    report = crossings(traj)
    assert report.tail_class is TrajectoryTail.OSCILLATING
    assert len(report.crossings) >= 5
    for g in report.gaps:
        assert g > params.tau
    # slopes alternate starting upward
    signs = [s for _, s in report.crossings]
    assert signs[0] == 1
    for a, b in zip(signs[:-1], signs[1:]):
        assert a != b


def _scalar_rk4(expansion, K=64, t_end=None):
    """Reference integrator: one RK4 step per node, scalar arithmetic.

    Same grid, history and half-node Hermite values as ``integrate``, with
    the stages formed one by one instead of as a chunk map. An overflowing
    birth term is -inf, as in numpy, and stepping goes on past it.
    """
    params = expansion.params
    p, tau = params.p, params.tau
    t0 = expansion.handoff
    if t_end is None:
        t_end = t0 + max(10.0, 20.0 * tau, 5.0)
    h = tau / K
    n_steps = int(math.ceil((t_end - t0) / h - 1e-12))
    t = [t0 - tau + i * h for i in range(K + 1)]
    u = [expansion.evaluate(ti) for ti in t]
    du = [expansion.derivative(ti) for ti in t]

    def f(x):
        try:
            return p * x * math.exp(-x)
        except OverflowError:  # only for x < -709
            return -math.inf
    for n in range(K, K + n_steps):
        j = n - K
        dh = 0.5 * (u[j] + u[j + 1]) + 0.125 * h * (du[j] - du[j + 1])
        fb0, fbh, fb1 = f(u[j]), f(dh), f(u[j + 1])
        un = u[n]
        k1 = -un + fb0
        k2 = -(un + 0.5 * h * k1) + fbh
        k3 = -(un + 0.5 * h * k2) + fbh
        k4 = -(un + h * k3) + fb1
        u.append(un + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        t.append(t0 + (n + 1 - K) * h)
        du.append(-u[-1] + fb1)
    return np.array(t), np.array(u)


@pytest.mark.parametrize("p, tau", [(365.0, 0.07), (2.0, 0.1), (365.0, 0.2),
                                    (50.0, 1.0), (1000.0, 5.0)])
def test_affine_recurrence_matches_scalar_rk4(p, tau):
    expansion = build(ModelParams(p=p, tau=tau))
    traj = integrate(expansion)
    t_ref, u_ref = _scalar_rk4(expansion)
    assert np.array_equal(traj.t, t_ref)
    scale = max(1.0, float(np.max(np.abs(u_ref))))
    assert np.max(np.abs(traj.u - u_ref)) <= 1e-11 * scale


@pytest.mark.parametrize("p, tau", [(365.0, 0.07), (2.0, 0.1), (365.0, 0.2),
                                    (50.0, 1.0), (1000.0, 5.0)])
def test_derivative_is_the_equation_right_hand_side(p, tau):
    expansion = build(ModelParams(p=p, tau=tau))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(expansion)
    K = 64
    u = traj.u
    birth = p * u[1:-K] * np.exp(-u[1:-K])
    scale = max(float(np.max(np.abs(birth))), float(np.max(np.abs(u))))
    assert np.max(np.abs(traj.du[K + 1:] - (birth - u[K + 1:]))) <= (
        4.0 * np.spacing(scale))


@pytest.mark.parametrize("K", [20, 64, 200])
def test_chunk_matrix_half_node_rows_are_hermite_values(K):
    # rows alternate d_{n+k} and u_{n+k+1}; z interleaves the birth terms
    # at delayed nodes (even entries) and half-nodes (odd) and ends in u_n
    B = min(K, heteroclinic.CHUNK)
    h = 0.07 / K
    W = heteroclinic._chunk_matrix(h, B)
    assert W.shape == (2 * B, 2 * B + 2)
    rng = np.random.default_rng(K)
    for _ in range(20):
        z = rng.uniform(-3.0, 3.0, 2 * B + 2)
        nodes = np.concatenate([[z[-1]], W[1::2] @ z])  # u_n .. u_{n+B}
        du = z[0::2][:B + 1] - nodes  # u'_i = f(u_{i-K}) - u_i
        hermite = (0.5 * (nodes[:-1] + nodes[1:])
                   + 0.125 * h * (du[:-1] - du[1:]))
        half = W[0::2] @ z
        assert np.all(np.abs(half - hermite) <= 1e-14 * np.abs(hermite))


def test_chunk_matrix_takes_no_p():
    # one matrix serves every p at a given step and chunk length
    params = list(inspect.signature(heteroclinic._chunk_matrix).parameters)
    assert params == ["h", "B"]


@pytest.mark.parametrize("p, tau", [(28283.22052526588, 18.846158543278428),
                                    (16700.719092785555, 26.037402816997748)])
def test_leaving_the_range_is_a_blow_up(p, tau):
    # the first point overflows the birth term once u turns negative
    expansion = build(ModelParams(p=p, tau=tau))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"at t = \d"):
            integrate(expansion)


@pytest.mark.parametrize("K", [20, 64, 200])
@pytest.mark.parametrize("steps", ["1", "B-1", "B", "B+1", "K+1"])
def test_chunk_edges_match_scalar_rk4(K, steps):
    # B = min(K, 64) steps per chunk; K = 200 runs chunks shorter than the
    # delay and ends on a partial one
    B = min(K, heteroclinic.CHUNK)
    n_steps = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "K+1": K + 1}[steps]
    expansion = build(EXAMPLE)
    t0 = expansion.handoff
    t_end = t0 + n_steps * EXAMPLE.tau / K
    traj = integrate(expansion, t_end=t_end, K=K)
    t_ref, u_ref = _scalar_rk4(expansion, K=K, t_end=t_end)
    assert len(traj.t) == K + n_steps + 1
    assert np.array_equal(traj.t, t_ref)
    scale = max(1.0, float(np.max(np.abs(u_ref))))
    assert np.max(np.abs(traj.u - u_ref)) <= 1e-11 * scale


@pytest.mark.parametrize("p, tau", [(28283.22052526588, 18.846158543278428),
                                    (16700.719092785555, 26.037402816997748),
                                    (27844.493488658532, 17.158862525850758),
                                    (872148.4091340867, 41.073480062349276)])
def test_blow_up_names_the_first_node_out_of_range(p, tau):
    # a non-finite input spoils its whole chunk's product, so the chunk is
    # stepped again node by node to name the node a scalar run would
    params = ModelParams(p=p, tau=tau)
    expansion = build(params)
    t_ref, u_ref = _scalar_rk4(expansion)
    bound = max(1e6, 2.0 * params.f_max)
    first = int(np.flatnonzero(~(np.abs(u_ref) <= bound))[0])
    with pytest.raises(BlowUpError) as exc:
        integrate(expansion)
    assert str(exc.value).endswith(f" at t = {t_ref[first]}")
    _assert_matches_reference(expansion)


def _reference_integrate(expansion, t_end=None, K=64):
    """The chunk loop before it was made lean: per chunk, min and slice
    arithmetic, the product with W, a -y temporary and p y e^{-y}; the
    history from scalar series calls. Every chunk is stepped, also after
    the state repeats. (t, u, du), or the BlowUpError."""
    params = expansion.params
    p, tau = params.p, params.tau
    bound = max(1e6, 2.0 * params.f_max)
    bound_text = "1e6" if bound == 1e6 else f"2p/e = {bound:.6g}"
    t0 = expansion.handoff
    if t_end is None:
        t_end = t0 + max(10.0, 20.0 * tau)
    h = tau / K
    B = min(K, heteroclinic.CHUNK)
    W = heteroclinic._chunk_matrix(h, B)
    n_steps = heteroclinic._run_steps((t_end - t0) / h, K)
    n_total = K + n_steps + 1
    t = np.empty(n_total)
    t[:K + 1] = t0 - tau + np.arange(K + 1) * h
    t[K + 1:] = t0 + np.arange(1, n_steps + 1) * h
    u = np.empty(n_total)
    du = np.empty(n_total)
    u[:K + 1] = [expansion.evaluate(ti) for ti in t[:K + 1].tolist()]
    du[:K + 1] = [expansion.derivative(ti) for ti in t[:K + 1].tolist()]
    G = np.empty(2 * n_total - 1)
    y = np.empty(2 * B)
    z = np.empty(2 * B + 2)
    dh = 0.5 * (u[:K] + u[1:K + 1]) + 0.125 * h * (du[:K] - du[1:K + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        G[:2 * K + 1:2] = p * u[:K + 1] * np.exp(-u[:K + 1])
        G[1:2 * K:2] = p * dh * np.exp(-dh)
        for n in range(K, K + n_steps, B):
            m = min(B, K + n_steps - n)
            z[:-1] = G[2 * (n - K):2 * (n - K + B) + 1]
            z[-1] = u[n]
            if m < B:
                z[2 * m + 1:-1] = 0.0
            ym = y[:2 * m]
            W[:2 * m].dot(z, out=ym)
            if n == K:
                ym[0] += 0.125 * h * (du[K] - (z[0] - u[K]))
            g = G[2 * n + 1:2 * (n + m) + 1]
            np.exp(-ym, out=g)
            g *= ym
            g *= p
            u[n + 1:n + m + 1] = ym[1::2]
        np.subtract(G[2:2 * n_steps + 1:2], u[K + 1:], out=du[K + 1:])
        bad = np.flatnonzero(~(np.abs(u[K + 1:]) <= bound))
        if bad.size:
            n = K + int(bad[0]) // B * B
            i = K + 1 + int(bad[0])
            m = min(B, K + n_steps - n)
            Gc = G[2 * (n - K):2 * (n - K + m) + 1]
            c0, ch, c1, R = W[1, [0, 1, 2, -1]].tolist()
            g = c0 * Gc[:-1:2] + ch * Gc[1::2] + c1 * Gc[2::2]
            un = float(u[n])
            for k, gk in enumerate(g.tolist()):
                un = R * un + gk
                if not abs(un) <= bound:
                    i = n + 1 + k
                    break
            raise BlowUpError(f"|u| exceeded {bound_text} at t = {t[i]}")
    return t, u, du


def _assert_matches_reference(expansion, t_end=None, K=64):
    try:
        ref = _reference_integrate(expansion, t_end=t_end, K=K)
    except BlowUpError as exc:
        with pytest.raises(BlowUpError) as got:
            integrate(expansion, t_end=t_end, K=K)
        assert str(got.value) == str(exc)
        return
    traj = integrate(expansion, t_end=t_end, K=K)
    for got, want in zip((traj.t, traj.u, traj.du), ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("K", [20, 64, 200])
def test_lean_loop_is_the_reference_loop_bit_for_bit(K):
    # default runs; K = 200 ends on a short chunk. A 3-term history misses
    # the equation above rounding, so the series' u'_K moves d_K's bits
    _assert_matches_reference(build(EXAMPLE), K=K)
    _assert_matches_reference(build(EXAMPLE, n_coeffs=3), K=K)
    _assert_matches_reference(build(ModelParams(p=2.0, tau=0.1)), K=K)


@pytest.mark.parametrize("K", [20, 64, 200])
@pytest.mark.parametrize("steps", ["0", "1", "B-1", "B", "B+1", "K+1"])
def test_lean_loop_at_chunk_edges_is_the_reference_loop(K, steps):
    # the first chunk (with the series' u'_K) and a short last chunk are
    # stepped outside the loop; with no step the run is its history
    B = min(K, heteroclinic.CHUNK)
    n_steps = {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "K+1": K + 1}
    expansion = build(EXAMPLE)
    t0 = expansion.handoff
    h = EXAMPLE.tau / K
    t_end = t0 + (n_steps[steps] * h if steps != "0" else 1e-13 * h)
    _assert_matches_reference(expansion, t_end=t_end, K=K)
    assert len(integrate(expansion, t_end=t_end, K=K).t) == (
        K + 1 + n_steps.get(steps, 0))


def test_lean_loop_is_the_reference_loop_at_seeded_points():
    # p and tau log-uniform over the point-analysis box; blow-ups must give
    # the same text
    rng = np.random.default_rng(33)
    for _ in range(40):
        p = float(np.exp(rng.uniform(np.log(1.001), np.log(1e6))))
        tau = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        try:
            expansion = build(ModelParams(p=p, tau=tau))
        except CoefficientOverflow:
            continue
        _assert_matches_reference(expansion)


@pytest.mark.parametrize("K", [64, 128, 200])
@pytest.mark.parametrize("p, tau", [(365.0, 0.012), (4042.0, 0.01428),
                                    (1e4, 0.011), (20.0, 0.015)])
def test_repeating_state_fill_is_the_reference_loop(p, tau, K):
    # the first three reach a bitwise fixed point of one chunk from about
    # half of their nodes on, the last never does; K = 200 is no multiple
    # of the chunk
    _assert_matches_reference(build(ModelParams(p=p, tau=tau)), K=K)


@pytest.mark.parametrize("p, tau, fills", [(365.0, 0.012, True),
                                           (20.0, 0.015, False)])
def test_repeating_state_stops_the_chunk_loop(monkeypatch, p, tau, fills):
    # each chunk makes one np.exp pass, and the history two more; the
    # filling run stops stepping about half way
    passes = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            passes.append(1)
            return np.exp(*args, **kwargs)

    expansion = build(ModelParams(p=p, tau=tau))
    monkeypatch.setattr(heteroclinic, "np", CountingNumpy())
    traj = integrate(expansion)
    n_full, m = divmod(len(traj.t) - 65, heteroclinic.CHUNK)
    unfilled = 2 + n_full + (m > 0)
    assert (len(passes) < 0.6 * unfilled) if fills else (
        len(passes) == unfilled)


def test_node_cap_names_the_node_count_and_the_cap():
    # the count includes the K + 1 history nodes; the CLI test checks that
    # nothing is allocated
    expansion = build(EXAMPLE)
    with pytest.raises(ValueError, match=r"= 82285714\d\d nodes \(K = 64, "
                                         r"n_steps = 82285714\d\d\), above "
                                         r"the cap of 2000000$"):
        integrate(expansion, t_end=9e6)
    with pytest.raises(ValueError, match=r"= 2000002 nodes \(K = 2000000, "
                                         r"n_steps = 1\)"):
        integrate(expansion, t_end=1e-9, K=2_000_000)


@pytest.mark.parametrize("p, tau", [(math.e, 3.0), (365.0, 0.01),
                                    (2.358739755381671, 49.83123707204897)])
def test_converged_tail_without_crossings_is_monotone(p, tau):
    # the tail reaches ln p to rounding level: its deviation stops shrinking;
    # in the last case its rounding-level maximum sits next to the last node
    verdict = nm_verdict(ModelParams(p=p, tau=tau))
    assert verdict.tail_class is TrajectoryTail.MONOTONE_TAIL
    assert verdict.crossing_count == 0


def _scalar_refine(traj, i, level):
    """Reference crossing: 80 scalar bisection steps in sample segment i."""
    a, b = traj.t[i], traj.t[i + 1]
    fa = traj.u[i] - level
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = traj.interpolate(m) - level
        if fa * fm <= 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


@pytest.mark.parametrize("p, tau", [(365.0, 0.2), (1000.0, 5.0)])
def test_lockstep_crossings_match_scalar_bisection(p, tau):
    params = ModelParams(p=p, tau=tau)
    traj = integrate(build(params))
    report = crossings(traj)
    s = traj.u - params.kappa
    idx = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    assert [tc for tc, _ in report.crossings] == [
        _scalar_refine(traj, i, params.kappa) for i in idx]


def _hermite_slope(traj, i, t):
    """u' of the Hermite cubic of sample segment i at time t."""
    h = traj.t[i + 1] - traj.t[i]
    s = (t - traj.t[i]) / h
    return ((6.0 * s * s - 6.0 * s) * (traj.u[i] - traj.u[i + 1]) / h
            + (3.0 * s * s - 4.0 * s + 1.0) * traj.du[i]
            + (3.0 * s * s - 2.0 * s) * traj.du[i + 1])


def test_crossing_slope_signs_match_the_interpolant_slope():
    # the sign of the side a crossing goes to is the sign of the
    # interpolant's slope at the refined crossing time
    rng = np.random.default_rng(29)
    ps = np.exp(rng.uniform(math.log(1.5), math.log(1e6), 40))
    taus = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 40))
    checked = oscillating = 0
    for p, tau in zip(ps.tolist(), taus.tolist()):
        params = ModelParams(p=p, tau=tau)
        try:
            traj = integrate(build(params))
            report = crossings(traj)
        except BlowUpError:
            continue
        idx = level_crossings(traj.u, params.kappa)
        assert len(idx) == len(report.crossings)
        for i, (tc, sign) in zip(idx, report.crossings):
            if traj.u[i] != params.kappa:
                slope = _hermite_slope(traj, i, tc)
                assert sign == (1 if slope >= 0.0 else -1), (p, tau, tc)
                checked += 1
        oscillating += report.tail_class is TrajectoryTail.OSCILLATING
    assert checked >= 100
    assert oscillating >= 1


def test_rounding_level_sign_changes_are_not_crossings():
    params = ModelParams(p=math.e ** 3, tau=0.5)
    h = 0.5 / 32
    t = np.arange(0.0, 16.0, h)
    u = 3.0 + 1e-15 * np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
    traj = Trajectory(t=t, u=u, du=np.zeros_like(t), t0=0.0, h=h,
                      params=params)
    report = crossings(traj, level=3.0)
    assert report.crossings == ()


def test_fourth_order_self_convergence():
    expansion = build(EXAMPLE)
    vals = {}
    for K in (32, 64, 128):
        traj = integrate(expansion, t_end=14 * EXAMPLE.tau, K=K)
        vals[K] = float(traj.u[-1])
    ratio = (vals[32] - vals[64]) / (vals[64] - vals[128])
    assert 12.0 <= ratio <= 20.0


def test_history_seeded_from_series():
    expansion = build(EXAMPLE)
    traj = integrate(expansion, t_end=1.0)
    t0 = traj.t0
    for i in range(5):
        t = t0 - EXAMPLE.tau + i * EXAMPLE.tau / 4.0
        j = int(round((t - traj.t[0]) / traj.h))
        assert abs(traj.u[j] - expansion.evaluate(traj.t[j])) <= 1e-12


def test_integrate_validations():
    expansion = build(EXAMPLE)
    with pytest.raises(ValueError):
        integrate(expansion, K=8)
    with pytest.raises(ValueError):
        integrate(expansion, t_end=-100.0)


def test_crossings_synthetic_sine():
    # classifier-level unit test: a damped cosine crossing the level 5 times
    params = ModelParams(p=math.e ** 3, tau=0.5)  # kappa = 3
    h = 0.5 / 32
    t = np.arange(0.0, 16.0, h)
    u = 3.0 + np.exp(-0.2 * t) * np.cos(t)
    du = np.gradient(u, h)
    traj = Trajectory(t=t, u=u, du=du, t0=0.0, h=h, params=params)
    report = crossings(traj, level=3.0)
    assert len(report.crossings) == 5
    signs = [s for _, s in report.crossings]
    assert signs == [-1, 1, -1, 1, -1]
    assert report.tail_class is TrajectoryTail.OSCILLATING


def test_first_max_on_a_node_with_zero_derivative():
    # a node where u' is exactly 0 between u' > 0 and u' < 0 is the peak
    params = ModelParams(p=math.e ** 3, tau=0.5)  # kappa = 3
    t = np.arange(0.0, 16.0, 0.25)
    u = 3.0 + 2.0 * np.exp(-0.1 * t) * np.sin(t)
    du = 2.0 * np.exp(-0.1 * t) * (np.cos(t) - 0.1 * np.sin(t))
    du[5] = 0.0  # t = 1.25, the last node before the first peak
    traj = Trajectory(t=t, u=u, du=du, t0=0.0, h=0.25, params=params)
    assert first_maximum(traj) == (1.25, float(u[5]))


@pytest.mark.parametrize("c1, c2, c3", [
    (1.0, -1.0, 0.25),   # b = 2 c2 / h <= 0
    (1.0, 0.5, -1.0)])   # b > 0
def test_peak_is_the_top_of_an_exact_cubic(c1, c2, c3):
    # u = 2 + c1 s + c2 s^2 + c3 s^3, s = (t - 3)/h, is its own Hermite
    # interpolant; u' falls through 0 on the segment [3, 3 + h]
    h = 0.25
    t = 2.75 + h * np.arange(4)
    s = (t - 3.0) / h
    u = 2.0 + c1 * s + c2 * s ** 2 + c3 * s ** 3
    du = (c1 + 2.0 * c2 * s + 3.0 * c3 * s ** 2) / h
    traj = Trajectory(t=t, u=u, du=du, t0=3.0, h=h, params=EXAMPLE)
    with mp.workdps(40):
        s_top = next(r for r in mp.polyroots([3 * c3, 2 * c2, c1])
                     if 0 < r < 1)
        t_top = float(3 + h * s_top)
        u_top = float(2 + c1 * s_top + c2 * s_top ** 2 + c3 * s_top ** 3)
    t_got, u_got = heteroclinic._peak(traj, 1)
    assert abs(t_got - t_top) <= 1e-15 * t_top
    assert abs(u_got - u_top) <= 1e-15 * u_top


@pytest.mark.parametrize("p, tau", [(28680.256877187676, 8.362462057878991),
                                    (354046.2080055002, 2.9716095894889434)])
def test_maximum_is_the_interpolant_maximum(p, tau):
    # against 400,001 samples of the interpolant on [t_imax - h, t_imax + h];
    # 41 samples there read about 5e-6 low
    params = ModelParams(p=p, tau=tau)
    traj = integrate(build(params))
    i = int(np.argmax(traj.u))
    tt = np.linspace(traj.t[i] - traj.h, traj.t[i] + traj.h, 400_001)
    k = np.where(tt < traj.t[i], i - 1, i)
    dense = float(np.max(hermite_cubic(
        traj.t[k], traj.t[k + 1], traj.u[k], traj.u[k + 1], traj.du[k],
        traj.du[k + 1], tt)))
    for got in (nm_verdict(params).max_u, crossings(traj).global_max):
        assert dense * (1.0 - 1e-15) <= got <= dense * (1.0 + 1e-12)


@pytest.mark.parametrize("p, tau", [
    (256.94920854730003, 0.016133362623507997),
    (396.8362275779543, 0.013266532121307215),
    (26.72080437003644, 0.06241326798664485)])
def test_no_first_maximum_from_sign_changes_at_rounding_level(p, tau):
    # runs that never cross ln p, settling onto it with |u'| <= 4.5e-15:
    # u' changes sign there within level_tol(0) = 1e-12 of 0, which is no
    # fall through 0 (at the last point that node's u was ln p to the bit)
    traj = integrate(build(ModelParams(p=p, tau=tau)))
    assert crossings(traj).crossings == ()
    assert first_maximum(traj) is None


@pytest.mark.parametrize("p, tau, t_max, u_max", [
    (365.0, 0.07, 0.12900572632284935, 10.621371493367963),
    (365.0, 0.2, 0.30193822051189634, 20.815722417467864),
    (1000.0, 5.0, 5.535801765560903, 281.59414256260317)])
def test_first_maximum_matches_bisection(p, tau, t_max, u_max):
    # (t, u) that an 80-step bisection of the interpolant's u' found
    t, u = first_maximum(integrate(build(ModelParams(p=p, tau=tau))))
    assert abs(t - t_max) <= 1e-12
    assert abs(u - u_max) <= 1e-14 * u_max


def test_p_window():
    assert p_window(EXAMPLE) is True
    assert p_window(ModelParams(p=0.9 * math.e ** 2 + 1e-9, tau=0.07)) is False
    assert p_window(ModelParams(p=365.0, tau=0.073)) is False


def test_p_window_matches_growth_product():
    # the window is P tau e^{1+tau} < 1 in log form: the closed form is the
    # reference, about the edge and for tau log-uniform down to 1e-300,
    # outside a 1e-12 relative strip around the edge
    import random
    rng = random.Random(31)
    for k in range(200):
        p = rng.uniform(7.5, 5000.0)
        tau = (rng.uniform(0.005, 0.4) if k % 2
               else math.exp(rng.uniform(math.log(1e-300), math.log(0.4))))
        params = ModelParams(p=p, tau=tau)
        growth = params.P * tau * math.exp(1.0 + tau)
        if abs(growth - 1.0) <= 1e-12:
            continue
        assert p_window(params) == (p > math.e ** 2 and growth < 1.0), (
            p, tau)


def test_nm_verdict_example():
    verdict = nm_verdict(EXAMPLE)
    assert verdict.verdict is True
    assert verdict.in_p_window is True
    assert verdict.zeta_gt_lnp is True
    assert verdict.max_u is not None and verdict.max_u >= verdict.zeta_value
    assert verdict.tail_class is TrajectoryTail.MONOTONE_TAIL


def test_nm_verdict_negative_cases():
    low = nm_verdict(ModelParams(p=0.9 * math.e ** 2, tau=0.1))
    assert low.verdict is False
    late = nm_verdict(ModelParams(p=365.0, tau=0.073))
    assert late.verdict is False
    assert late.in_p_window is False


def test_nm_verdict_small_amplitude_falls_back_to_short_series(monkeypatch):
    # near p = 1 the normalized coefficients grow; the confirmation run
    # still happens through a shorter expansion. At (1.5, 0.3) qbar_32 is
    # above the bound: one build keeps the 31 coefficients below it, from
    # one pass of the recurrence
    from nmwaves import dirichlet

    built, passes = [], []
    monkeypatch.setattr(heteroclinic, "build",
                        lambda *a, **k: built.append(build(*a, **k))
                        or built[-1])
    real = dirichlet.coefficients
    monkeypatch.setattr(dirichlet, "coefficients",
                        lambda *a: passes.append(a) or real(*a))
    verdict = nm_verdict(ModelParams(p=1.5, tau=0.3))
    assert verdict.verdict is False
    assert verdict.tail_class is TrajectoryTail.MONOTONE_TAIL
    assert verdict.crossing_count == 0
    assert len(built) == 1 and len(passes) == 1
    assert len(built[0].coeffs) == 31
    assert verdict.max_u == crossings(integrate(built[0])).global_max


def _node_level(params):
    """nm_verdict's (crossing_count, max_u, tail_class, tail_reason)."""
    v = nm_verdict(params)
    return v.crossing_count, v.max_u, v.tail_class, v.tail_reason


def _refined(traj):
    """crossings()'s (len(crossings), global_max, tail_class, reason); the
    reason of an INCONCLUSIVE tail is the last anomaly."""
    r = crossings(traj)
    reason = (r.anomalies[-1] if r.tail_class is TrajectoryTail.INCONCLUSIVE
              else None)
    return len(r.crossings), r.global_max, r.tail_class, reason


def test_node_level_tail_matches_refined_crossings(monkeypatch):
    # nm_verdict decides count, maximum and tail refining no crossing
    # time; crossings() refines all of them
    rng = np.random.default_rng(13)
    ps = np.exp(rng.uniform(math.log(1.5), math.log(1e6), 160))
    taus = np.exp(rng.uniform(math.log(0.01), math.log(20.0), 160))
    runs = []
    monkeypatch.setattr(heteroclinic, "integrate",
                        lambda *a, **k: runs.append(integrate(*a, **k))
                        or runs[-1])
    compared = inconclusive = 0
    for p, tau in zip(ps.tolist(), taus.tolist()):
        runs.clear()
        try:
            node = _node_level(ModelParams(p=p, tau=tau))
        except BlowUpError:
            continue
        assert node == _refined(runs[0]), (p, tau)
        compared += 1
        inconclusive += node[2] is TrajectoryTail.INCONCLUSIVE
    assert compared >= 150
    assert inconclusive >= 1


def _synthetic(monkeypatch, u, du):
    """A run at (e^3, 1) on t = -1, -0.8, ..., 10, handed to nm_verdict in
    place of the integration; the last quarter starts at t = 7.5."""
    params = ModelParams(p=math.e ** 3, tau=1.0)
    t = -1.0 + 0.2 * np.arange(56)
    traj = Trajectory(t=t, u=u(t), du=du(t), t0=0.0, h=0.2, params=params)
    monkeypatch.setattr(heteroclinic, "integrate", lambda *a, **k: traj)
    return _node_level(params), _refined(traj)


@pytest.mark.parametrize("root, tail", [
    (7.45, "tail not settled"), (7.55, TrajectoryTail.OSCILLATING)])
def test_node_level_tail_refines_a_last_crossing_straddling_the_quarter(
        monkeypatch, root, tail):
    # one crossing, in the segment [7.4, 7.6] around the quarter mark,
    # then a growing wobble: only the side of 7.5 where the chord between
    # the nodes crosses (7.433 and 7.528) decides
    w = lambda t: 1.0 + 0.5 * np.sin(5.0 * t)
    node, refined = _synthetic(
        monkeypatch, lambda t: 3.0 + (t - root) * w(t),
        lambda t: w(t) + 2.5 * (t - root) * np.cos(5.0 * t))
    assert node == refined
    assert node[0] == 1
    if isinstance(tail, str):  # the start of the reason
        assert node[2] is TrajectoryTail.INCONCLUSIVE
        assert node[3].startswith(tail)
    else:
        assert node[2] is tail and node[3] is None


def test_node_level_tail_with_the_last_crossing_on_a_node(monkeypatch):
    # u crosses ln p = 3 exactly at the node t = 5 and settles from above
    def u(t):
        v = 3.0 + (t - 5.0) * np.exp(-3.0 * (t - 5.0))
        v[30] = 3.0
        return v
    node, refined = _synthetic(
        monkeypatch, u,
        lambda t: (1.0 - 3.0 * (t - 5.0)) * np.exp(-3.0 * (t - 5.0)))
    assert node == refined
    assert node[0] == 1 and node[2] is TrajectoryTail.MONOTONE_TAIL
    assert node[3] is None


@pytest.mark.parametrize("u, tail", [
    (lambda t: 3.0 - np.exp(-t), TrajectoryTail.MONOTONE_TAIL),
    (lambda t: 2.0 - 0.1 * np.sin(5.0 * t), "no crossings and no trend")])
def test_node_level_tail_without_crossings(monkeypatch, u, tail):
    node, refined = _synthetic(monkeypatch, u, np.zeros_like)
    assert node == refined
    assert node[0] == 0
    if isinstance(tail, str):  # the start of the reason
        assert node[2] is TrajectoryTail.INCONCLUSIVE
        assert node[3].startswith(tail)
    else:
        assert node[2] is tail and node[3] is None


def test_consecutive_crossings_with_equal_slope_sign_are_an_anomaly():
    # about ln p = 3: up through the level, back to within level_tol of it
    # (the dip below it is no crossing), up again, then a decay onto it
    params = ModelParams(p=math.e ** 3, tau=1.0)
    t = -1.0 + 0.2 * np.arange(56)
    u = 3.0 + 2.0 * np.exp(-3.0 * (t - t[4]))
    u[:4] = [2.0, 4.0, 3.0 + 1e-13, 3.0 - 1e-13]
    traj = Trajectory(t=t, u=u, du=np.gradient(u, 0.2), t0=0.0, h=0.2,
                      params=params)
    report = crossings(traj)
    assert [s for _, s in report.crossings] == [1, 1]
    assert report.tail_class is TrajectoryTail.MONOTONE_TAIL
    assert "consecutive crossings with equal slope sign" in report.anomalies


def test_trajectory_csv(tmp_path):
    from nmwaves.cli import main
    from nmwaves.files import read_csv

    traj = _example_run()
    path = tmp_path / "traj.csv"
    assert main(["heteroclinic", "--p", "365", "--tau", "0.07",
                 "--out", f"{path},{tmp_path / 'crossings.json'}"]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,du"
    assert len(lines) == len(traj.t) + 1
    header, rows = read_csv(str(path))
    assert np.array_equal(np.array(rows),
                          np.column_stack([traj.t, traj.u, traj.du]))
