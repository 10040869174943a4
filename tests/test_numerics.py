"""Tests for the shared numerical kernels."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from nmwaves.diagnostics import estimate_speed
from nmwaves.numerics import (BLOCK, BracketingError, NoSignChange,
                              QuadratureError, ToeplitzTridiagonal,
                              TrajectoryTail, bisect_lockstep,
                              crossing_points, double_until,
                              golden_section_max, hermite_cubic,
                              integrate_adaptive, is_monotone,
                              level_crossings, lower_incomplete_gamma,
                              sampled_tail, solve_bracketed)

mp.mp.dps = 30


def test_gamma_exponent_one_closed_form():
    # integral(0..z) e^{-t} dt = 1 - e^{-z}
    for i in range(21):
        z = 10.0 * i / 20
        want = 1.0 - math.exp(-z)
        assert abs(lower_incomplete_gamma(z, 1.0) - want) <= 1e-12


def test_gamma_zero_limit():
    assert lower_incomplete_gamma(0.0, 3.5) == 0.0


def test_gamma_against_mpmath():
    # includes the fractional exponent used by the peak bound at mu = 33.64
    cases = [(1.0, 1.0 + 1.0 / 33.64), (1.0, 2.0 + 1.0 / 33.64),
             (0.09, 1.03), (0.5, 0.4), (1.0, 7.2), (0.999, 0.07)]
    for z, s in cases:
        want = float(mp.gammainc(s, 0, z))
        got = lower_incomplete_gamma(z, s)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (z, s)
    # one array call gives the elementwise scalar values
    zs, ss = zip(*cases)
    together = lower_incomplete_gamma(list(zs), list(ss))
    assert list(together) == [lower_incomplete_gamma(z, s) for z, s in cases]


def test_gamma_monotone_in_limit():
    rng = random.Random(7)
    for _ in range(20):
        s = rng.uniform(0.2, 5.0)
        zs = sorted(rng.uniform(0.0, 1.0) for _ in range(5))
        vals = [lower_incomplete_gamma(z, s) for z in zs]
        for a, b in zip(vals[:-1], vals[1:]):
            assert a <= b


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        lower_incomplete_gamma(-0.1, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(1.0, 0.0)


def test_solve_bracketed_sqrt2():
    r = solve_bracketed(lambda x: x * x - 2.0, 1.0, 2.0)
    assert abs(r - math.sqrt(2.0)) <= 1e-12


def test_solve_bracketed_linear_characteristic():
    # z + 1 - p at p = 2, tau = 0: root exactly 1
    r = solve_bracketed(lambda z: z + 1.0 - 2.0, 0.0, 2.0)
    assert abs(r - 1.0) <= 1e-12


def test_solve_bracketed_against_fixed_point_iteration():
    # x e^x = 0.0751 via the contraction x -> 0.0751 e^{-x}
    x = 0.1
    for _ in range(200):
        x = 0.0751 * math.exp(-x)
    r = solve_bracketed(lambda t: t * math.exp(t) - 0.0751, 0.0, 1.0)
    assert abs(r - x) <= 1e-12
    assert abs(r - 0.0700) <= 5e-4


def test_solve_bracketed_no_sign_change():
    with pytest.raises(NoSignChange):
        solve_bracketed(lambda x: x * x + 1.0, 0.0, 1.0)


def test_solve_bracketed_straddles_root():
    # for strictly monotone f the returned point has a sign change within tol
    tol = 1e-10
    for f in (math.sin, lambda x: math.expm1(x) - 0.5, lambda x: x ** 3 - 0.2):
        lo, hi = -1.0, 1.2
        r = solve_bracketed(f, lo, hi)
        assert f(r - tol) * f(r + tol) <= 0.0


def _profile_dmin(z, p, c, tau):
    # the z-derivative of the speed-c profile z^2 - cz - 1 + p e^{-zc tau},
    # whose zero on z > 0 is that function's minimum there
    h = c * tau
    return 2.0 * z - c - p * h * np.exp(-z * h)


def test_solve_bracketed_agrees_with_scipy_find_root():
    # the oracle is scipy's Chandrupatla run to its default tolerances,
    # which are near machine precision
    from scipy.optimize.elementwise import find_root

    rng = np.random.default_rng(12)
    cases = []
    for _ in range(40):
        p, tau = 10.0 ** rng.uniform(0.01, 6.0), 10.0 ** rng.uniform(-3.0, 1.5)
        c = 10.0 ** rng.uniform(-1.0, 2.0)
        z_hi = 0.5 * (c + p * c * tau) + 1.0
        cases.append((lambda z, p=p, c=c, tau=tau: _profile_dmin(z, p, c, tau),
                      0.0, z_hi))
        a = rng.uniform(0.05, 5.0)
        cases += [(lambda x, a=a: x ** 3 - a, 0.0, 2.0),
                  (lambda x, a=a: np.expm1(x) - a, -1.0, 2.0),
                  (lambda x, a=a: np.arctan(a * (x - 0.3)), -1.0, 1.0 + a)]
    for f, lo, hi in cases:
        tol = 1e-12 * (1.0 + hi)
        want = find_root(f, (lo, hi))
        assert want.success
        got = solve_bracketed(lambda x: float(f(x)), lo, hi)
        assert abs(got - float(want.x)) <= tol


@pytest.mark.parametrize("f, root", [
    (lambda x: 1.0 if x >= 0.3 else -1.0, 0.3),             # step
    (lambda x: max(x - 0.61, 0.0) - 1e-3, 0.611),           # flat plateau
    (lambda x: min(max(x - 0.2, 0.0), 0.5) - 0.25, 0.45),   # two plateaus
])
def test_solve_bracketed_converges_on_steps_and_plateaus(f, root):
    calls = []
    tol = 1e-12
    got = solve_bracketed(lambda x: calls.append(x) or f(x), -1.0, 2.0)
    assert abs(got - root) <= tol
    assert len(calls) < 200


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x * x * x - 2.0, 0.0, 2.0),                      # smooth
    (lambda x: math.tanh(1e4 * (x - 0.3)), -1.0, 2.0),          # steep
    (lambda x: math.expm1(40.0 * x) - 7.0, -1.0, 2.0),          # steep
    (lambda x: (x - 0.3) ** 9 - 1e-40, -1.0, 2.0),              # flat
    (lambda x: max(x - 0.61, 0.0) - 1e-3, -1.0, 2.0),           # plateau
    (lambda x: x - 1e8 * math.pi, 0.0, 1e9),                    # large root
])
def test_solve_bracketed_tol_zero_ends_on_adjacent_floats(f, lo, hi):
    # the one stop, at rounding level: the final bracket is two adjacent
    # floats, reached in far fewer steps than bisection's
    calls = []
    got = solve_bracketed(lambda x: calls.append(x) or f(x), lo, hi)
    assert len(calls) <= 120
    below = math.nextafter(got, -math.inf)
    above = math.nextafter(got, math.inf)
    assert f(got) == 0.0 or min(f(below) * f(got), f(got) * f(above)) <= 0.0


def test_minimal_speed_is_superlinear(monkeypatch):
    # minimal_speed runs its one solve to adjacent floats: 10
    # evaluations here and at most 11 on 2,000 seeded (p, tau), where
    # bisection of its bracket would take over 50
    from nmwaves import charroots, numerics
    from nmwaves.model import ModelParams

    count = [0]

    def counted(f, *args, **kwargs):
        def f_counted(x):
            count[0] += 1
            return f(x)
        return solve_bracketed(f_counted, *args, **kwargs)

    # the solve runs in numerics.increasing_root, the one grow-and-solve
    monkeypatch.setattr(numerics, "solve_bracketed", counted)
    c_star = charroots.minimal_speed(ModelParams(p=365.0, tau=0.07))
    assert abs(c_star - 7.89) <= 0.01
    assert 0 < count[0] <= 16


def test_double_until_doubles_exactly():
    seen = []

    def holds(x):
        seen.append(x)
        return x >= 100.0

    assert double_until(holds, 3.0, "search") == 192.0
    assert seen == [3.0 * 2 ** k for k in range(7)]
    assert type(seen[-1]) is float
    assert double_until(lambda z: z <= -10.0, -1.5, "search") == -12.0
    got = double_until(lambda x: x >= 5.0, np.float64(1.0), "search")
    assert got == 8.0 and type(got) is np.float64


def test_double_until_stops_lanes_independently():
    need = np.array([[0.5, 5.0], [1000.0, 2.0 ** 600]])
    calls = []

    def holds(x):
        calls.append(x.copy())
        return x >= need

    got = double_until(holds, np.full((2, 2), 1.0), "search")
    assert got.tolist() == [[1.0, 8.0], [1024.0, 2.0 ** 600]]
    assert len(calls) == 601
    # a lane that holds keeps its value while the others double
    assert all(x[0, 0] == 1.0 and x[0, 1] <= 8.0 for x in calls)


def test_double_until_never_accepts_nan():
    # g is NaN below 64, as an overflowing expression can be; g >= 0 is
    # False there, so the search goes on to the first value where it holds
    g = lambda x: np.where(x < 64.0, np.nan, 1.0)
    assert double_until(lambda x: g(x) >= 0.0, 1.0, "search") == 64.0
    got = double_until(lambda x: g(x) >= 0.0, np.array([1.0, 128.0]),
                       "search")
    assert got.tolist() == [64.0, 128.0]


def test_double_until_raises_past_the_float_range():
    seen = []

    def never(x):
        seen.append(x)
        return np.isnan(x)

    with pytest.raises(BracketingError,
                       match="^bracketing T failed: no bracket within"):
        double_until(never, 1.0, "bracketing T")
    # every power of two up to the largest float was tried, then 2^1024
    # overflowed
    assert seen == [2.0 ** k for k in range(1024)]
    with pytest.raises(BracketingError):
        double_until(lambda x: x <= 1.0, np.array([1.0, 2.0]), "T")
    with pytest.raises(BracketingError):
        double_until(lambda z: z >= 0.0, -1.0, "T")


def test_bisect_lockstep_reaches_rounding_level():
    # x^2 = k on [0, 2] for several k at once, either sign of g(a)
    k = np.array([0.0, 1e-6, 0.5, 2.0, 3.999])
    a, b = np.zeros(5), np.full(5, 2.0)
    up = bisect_lockstep(lambda x: x * x - k, a, b, -k)
    down = bisect_lockstep(lambda x: k - x * x, a, b, k)
    for got in (up, down):
        assert np.all(np.abs(got - np.sqrt(k)) <= 2e-16 * (1.0 + np.sqrt(k)))


def test_bisect_lockstep_reaches_a_root_far_below_the_bracket_width():
    # 1e-100 lies about 333 halvings down [0, 2]; no step cap stops short
    root = np.array([1e-100, 1.0])
    got = bisect_lockstep(lambda x: x - root, np.zeros(2), np.full(2, 2.0),
                          -root)
    assert np.all(np.abs(got - root) <= 2e-16 * root)


@pytest.mark.parametrize("scale", [1e-200, -1e-200])
def test_bisect_lockstep_reads_the_signs_of_tiny_values(scale):
    # g is near +-1e-200 at both ends, where a product g(a) g(m) underflows
    # to 0 and would read as a sign change at every midpoint
    g = lambda x: scale * (x - 1.0)
    a, b = np.zeros(3), np.full(3, 2.0)
    got = bisect_lockstep(g, a, b, g(a))
    assert np.all(np.abs(got - 1.0) <= 2e-16)


def test_bracket_requires_order():
    with pytest.raises(ValueError):
        solve_bracketed(lambda x: x, 1.0, 1.0)


def test_integrate_exponential():
    got = integrate_adaptive(lambda t: np.exp(-t), 0.0, 1.0)
    assert abs(got - (1.0 - math.exp(-1.0))) <= 1e-13


def test_integrate_empty_interval():
    assert integrate_adaptive(np.sin, 2.0, 2.0) == 0.0


def test_integrate_orientation():
    a = integrate_adaptive(lambda t: t * t, 0.0, 2.0)
    b = integrate_adaptive(lambda t: t * t, 2.0, 0.0)
    assert abs(a - 8.0 / 3.0) <= 1e-12
    assert abs(a + b) <= 1e-12


def test_integrate_mixed_tolerance_contract():
    # large-magnitude integral: error must scale with 1 + |result|
    got = integrate_adaptive(lambda t: 1e6 * np.cos(t), 0.0, 1.0)
    want = 1e6 * math.sin(1.0)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want)) * 20


def test_integrate_depth_limit_carries_estimate():
    # a jump at 1/3, which no dyadic halving of [0, 1] puts on an end, is
    # never resolved: the subinterval holding it stays pending
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda t: np.exp(t) + (t > 1.0 / 3.0), 0.0, 1.0)
    assert abs(info.value.estimate - (math.e - 1.0 + 2.0 / 3.0)) <= 1e-6


def test_integrate_steep_exponential():
    # all of the mass lies within a few 1/30 of the right end of [-50, 0]
    got = integrate_adaptive(lambda s: np.exp(30.0 * s), -50.0, 0.0)
    assert abs(got * 30.0 - 1.0) <= 1e-14


def test_integrate_evaluates_15_nodes_per_pending_subinterval():
    shapes = []

    def f(t):
        shapes.append(t.shape)
        return np.exp(30.0 * t)

    integrate_adaptive(f, -50.0, 0.0)
    # one call per pass; each pass halves only what it did not accept
    assert shapes[0] == (1, 15)
    assert all(m == 15 and 0 < n2 <= 2 * n1
               for (n1, _), (n2, m) in zip(shapes, shapes[1:]))


@pytest.mark.parametrize("u, want", [
    ([1.0, 2.0, 4.0, 5.0], [1]),                  # strict sign change
    ([5.0, 4.0, 2.0, 1.0], [1]),                  # downward
    ([1.0, 2.0, 3.0, 4.0, 5.0], [2]),             # touch between opposite signs
    ([1.0, 3.0, 1.0, 4.0], [2]),                  # touch that does not cross
    ([2.0, 3.0, 3.0, 4.0], []),                   # plateau on the level
    ([3.0 + 1e-15, 3.0 - 1e-15, 3.0 + 1e-15], []),  # rounding-level changes
    ([3.0 - 1e-15, 3.0, 3.0 + 1e-15], []),
    ([1.0, 2.0, 3.0], []),                        # zero on the last node
    ([3.0, 4.0, 5.0], []),                        # zero on the first node
    ([2.0, 4.0, 2.0, 4.0], [0, 1, 2]),
    # a touch next to inf, whose candidate product 0 * inf is nan; 35
    # candidates take the array test
    ([2.0, 3.0, math.inf], [1]),
    ([2.0, 3.0, math.inf] * 12, [i for i in range(35) if i % 3]),
])
def test_level_crossings_rule(u, want):
    with np.errstate(invalid="ignore"):
        assert level_crossings(u, 3.0) == want


def _level_crossings_loop(u, level):
    """level_crossings as one Python loop over the pairs whose product
    s[i] s[i+1] is not positive (<= 0, or nan for 0 * inf)."""
    s = np.asarray(u, dtype=float) - level
    found = []
    for i in np.nonzero(~(s[:-1] * s[1:] > 0.0))[0].tolist():
        a, b = float(s[i]), float(s[i + 1])
        if a == 0.0 and i > 0:
            a = float(s[i - 1])
        if (a < 0.0 < b or b < 0.0 < a) and max(abs(a), abs(b)) > 1e-12 * (
                1.0 + abs(level)):
            found.append(i)
    return found


def test_level_crossings_on_special_values_match_the_loop():
    # lengths on both sides of the candidate count that switches from the
    # loop to array passes; -0.0, nan and inf probe every comparison
    rng = np.random.default_rng(20261019)
    # (1e-12 is level_tol(0.0) itself)
    values = np.array([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1.0, -1.0,
                       math.nan, math.inf, -math.inf])
    with np.errstate(invalid="ignore"):  # 0 * inf in the candidate test
        for n in (1, 2, 3, 5, 20, 40, 80, 500):
            for _ in range(50):
                u = rng.choice(values, n)
                for level in (0.0, 3.0):
                    assert (level_crossings(u + level, level)
                            == _level_crossings_loop(u + level, level))


def test_level_crossings_on_a_tail_rounded_onto_the_level():
    # at this point 13,046 of the 41,042 nodes sit exactly on ln p, which
    # gives 16,306 candidate pairs and one crossing
    from nmwaves.dirichlet import build
    from nmwaves.heteroclinic import integrate
    from nmwaves.model import ModelParams

    params = ModelParams(p=3403.393501782884, tau=0.015618769994669924)
    u = integrate(build(params, n_coeffs=40)).u
    assert np.count_nonzero(u == params.kappa) > 10_000
    want = _level_crossings_loop(u, params.kappa)
    assert level_crossings(u, params.kappa) == want == [116]


def test_crossing_points_interpolate_linearly():
    x = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert crossing_points(x, [1.0, 2.0, 3.0, 4.0, 5.0], 3.0) == [2.0]
    assert crossing_points(x, [1.0, 2.0, 4.0, 5.0, 5.0], 3.0) == [1.5]
    assert crossing_points(x, [5.0, 5.0, 1.0, 1.0, 5.0], 3.0) == [1.5, 3.5]
    assert crossing_points(x, [1.0, 1.0, 1.0, 1.0, 1.0], 3.0) == []
    # given crossing indices are located, not searched for
    assert crossing_points(x, [5.0, 5.0, 1.0, 1.0, 5.0], 3.0, [3]) == [3.5]


def test_sampled_tail_reads_late_crossings_before_a_settled_window():
    # a wave about 3 until s = 9, then exactly on the level: its last
    # crossings lie at 7.7, 8.2 and 8.7, and its end deviation is 0
    s = 0.1 * np.arange(101)
    u = 3.0 + np.where(s < 9.0, np.cos(2.0 * np.pi * s + 0.3), 0.0)
    idx = level_crossings(u, 3.0)
    tail = lambda start, window: sampled_tail(s, u, 3.0, idx, start, window)
    # start 0 puts the quarter mark at 7.5: two crossings after it
    # outrank the flat window
    assert tail(0.0, 0.5) == (TrajectoryTail.OSCILLATING, None)
    # start 6 puts it at 9: the flat window, explicit or from the mark on,
    # has settled
    assert tail(6.0, 0.5) == (TrajectoryTail.MONOTONE_TAIL, None)
    assert tail(6.0, None) == (TrajectoryTail.MONOTONE_TAIL, None)
    # a window reaching back into the wave is not monotone
    got, reason = tail(6.0, 2.0)
    assert got is TrajectoryTail.INCONCLUSIVE
    assert reason.startswith("tail not settled by the last sample, at 10.0")


def test_is_monotone_tolerance():
    assert is_monotone([0.0, 1.0, 1.0 - 1e-10, 2.0], 1e-9)
    assert is_monotone([2.0, 1.0, 1.0 + 1e-10, 0.0], 1e-9)
    assert not is_monotone([0.0, 1.0, 1.0 - 1e-8, 2.0], 1e-9)


def _cn_system(m, r, dt=0.01):
    """Crank-Nicolson matrix entries and two right-hand sides of size m.

    Both right sides are positive. The matrix is an M-matrix, so its
    inverse is positive and these solutions carry no cancellation:
    pointwise relative error measures the solver. The tail e^{0.7 x} on
    the fast-front grid (dx = 0.05 from x = -150) spans about 90 decades
    at m = 5999, as that front's leading edge does; a global transform
    solve spreads an error of eps * max |f| over it and fails there.
    """
    rng = np.random.default_rng(m + int(r))
    x = -150.0 + 0.05 * np.arange(1, m + 1)
    rhs = {"random": rng.uniform(0.0, 1.0, m), "tail": np.exp(0.7 * x)}
    return 1.0 + 2.0 * r + 0.5 * dt, -r, rhs


def _thomas(diag, off, f):
    """Sequential Thomas elimination, one row at a time."""
    m = len(f)
    b, y = [diag] * m, [float(v) for v in f]
    for i in range(1, m):
        w = off / b[i - 1]
        b[i] = diag - w * off
        y[i] -= w * y[i - 1]
    x = [0.0] * m
    x[-1] = y[-1] / b[-1]
    for i in range(m - 2, -1, -1):
        x[i] = (y[i] - off * x[i + 1]) / b[i]
    return np.array(x)


@pytest.mark.parametrize("m, r", [(1499, 2.0), (1499, 50.0), (1, 2.0),
                                  (2, 2.0), (3, 2.0), (3, 50.0)])
def test_toeplitz_solve_matches_dense_solve(m, r):
    diag, off, rhs = _cn_system(m, r)
    A = (np.diag(np.full(m, diag)) + np.diag(np.full(m - 1, off), 1)
         + np.diag(np.full(m - 1, off), -1))
    solver = ToeplitzTridiagonal(m, diag, off)
    for f in rhs.values():
        want = np.linalg.solve(A, f)
        out = np.empty(m)
        assert solver.solve(f, out) is out
        assert np.max(np.abs(out - want) / want) <= 1e-14


@pytest.mark.parametrize("r", [2.0, 50.0])
def test_toeplitz_solve_matches_thomas_at_fast_front_size(r):
    # m = 5999 is the fast-front interior; a dense oracle there would need
    # a 288 MB matrix, so the sequential elimination is the reference.
    # It has 94 blocks, and the carry between blocks at r = 50 falls below
    # the smallest normal float only across 79 of them, so the doubling
    # of the carries runs all 7 levels (4 at r = 2).
    diag, off, rhs = _cn_system(5999, r)
    solver = ToeplitzTridiagonal(5999, diag, off)
    for f in rhs.values():
        want = _thomas(diag, off, f)
        got = solver.solve(f, np.empty(5999))
        assert np.max(np.abs(got - want) / want) <= 1e-14


def _exact_substitution(pivots, off, f):
    """The two substitutions on the given pivots in 40-digit arithmetic:
    the exact solution of the factored system a solver holds."""
    with mp.workdps(40):
        off = mp.mpf(off)
        b = [mp.mpf(float(v)) for v in pivots]
        y = [mp.mpf(float(v)) for v in f]
        for i in range(1, len(y)):
            y[i] -= off / b[i - 1] * y[i - 1]
        x = y[-1] / b[-1]
        out = [float(x)]
        for i in range(len(y) - 2, -1, -1):
            x = (y[i] - off * x) / b[i]
            out.append(float(x))
    return np.array(out[::-1])


def _first_repeated_pivot(diag, off):
    """The first row whose Thomas pivot equals the one before to the bit;
    every later pivot equals it too."""
    b, i = [diag], 0
    while i == 0 or b[i] != b[i - 1]:
        b.append(diag - off * off / b[i])
        i += 1
    return i


def _block_layout_edges(r):
    """Sizes at the edges of the solver's block layout at this r: 1-3
    rows, one block +-1, and +-1 around the first repeated pivot, the end
    of the head blocks (those holding a row up to it) and one block on."""
    settle = _first_repeated_pivot(*_cn_system(1, r)[:2])
    head = BLOCK * -(-settle // BLOCK)
    sizes = {1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1}
    for edge in (settle, head, head + BLOCK):
        sizes |= {edge - 1, edge, edge + 1}
    return sorted(sizes)


@pytest.mark.parametrize("r, m", [(r, m) for r in (0.1, 2.0, 50.0, 1e4)
                                  for m in _block_layout_edges(r)]
                         + [(1e6, 5999)])
def test_toeplitz_block_layout_matches_sequential_elimination(r, m):
    diag, off, rhs = _cn_system(m, r)
    solver = ToeplitzTridiagonal(m, diag, off)
    b = [diag]
    for _ in range(m - 1):
        b.append(diag - off * off / b[-1])
    # the pivots stop being computed once they settle
    assert solver.pivots.tobytes() == np.array(b).tobytes()
    for f in rhs.values():
        got = solver.solve(f, np.empty(m))
        if r < 1e4:
            want = _thomas(diag, off, f)
        else:
            # diag - 2|off| is below 1e-4 diag here, so one ulp in the
            # pivots moves the solution by up to 2.5e-13 relative, and
            # _thomas rounds them as diag - (off/b) off. At (5999, 1e6)
            # two float substitutions on the same pivots still differ by
            # 1.05e-14, each 7.7e-15 from the exact one; so the reference
            # is the exact substitution on the solver's own pivots.
            want = _exact_substitution(solver.pivots, off, f)
        assert np.max(np.abs(got - want) / want) <= 1e-14
        assert solver.solve(f, np.empty(m)).tobytes() == got.tobytes()


def _stored_floats(solver):
    """Floats held by the solver's arrays, each buffer counted once."""
    buffers = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            buffers[id(value)] = value
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    for value in vars(solver).values():
        visit(value)
    return sum(a.nbytes for a in buffers.values()) // 8


def test_toeplitz_storage_is_linear_when_the_pivots_never_settle():
    # at r = 1e6 the pivots settle only at row 12,391, so every one of
    # the 94 blocks keeps its own propagators
    diag, off, _ = _cn_system(5999, 1e6)
    assert _first_repeated_pivot(diag, off) == 12391
    solver = ToeplitzTridiagonal(5999, diag, off)
    assert _stored_floats(solver) <= 4 * 5999 * BLOCK


@pytest.mark.parametrize("m", [1, 2, 3, 1499, 5999])
def test_toeplitz_solve_in_place_matches_out_of_place(m):
    diag, off, rhs = _cn_system(m, 2.0)
    solver = ToeplitzTridiagonal(m, diag, off)
    for f in rhs.values():
        want = solver.solve(f, np.empty(m))
        work = f.copy()
        assert solver.solve(work, out=work) is work
        assert work.tobytes() == want.tobytes()


def test_toeplitz_requires_diagonal_dominance():
    for diag, off in ((4.0, -2.0), (1.0, 2.0), (math.nan, -1.0)):
        with pytest.raises(ValueError):
            ToeplitzTridiagonal(5, diag, off)


def test_hermite_reproduces_cubic():
    # exact for cubics
    f = lambda t: 2.0 * t ** 3 - t * t + 0.5 * t - 3.0
    df = lambda t: 6.0 * t * t - 2.0 * t + 0.5
    t0, t1 = 0.3, 1.1
    for i in range(11):
        t = t0 + (t1 - t0) * i / 10
        assert abs(hermite_cubic(t0, t1, f(t0), f(t1), df(t0), df(t1), t)
                   - f(t)) <= 1e-12


def test_fit_line_exact():
    # the speed fit is np.polyfit on the trailing half of the track; of
    # t = 0..8 that is just the 5 points the fit needs
    t = np.arange(9.0)
    est = estimate_speed(t, 7.89 * t - 2.0)
    assert abs(est.slope - 7.89) <= 1e-12
    assert est.stderr <= 1e-12


def test_golden_section_max():
    x = golden_section_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0, tol=1e-12)
    assert abs(x - 0.37) <= 1e-9
