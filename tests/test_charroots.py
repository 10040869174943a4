"""Tests for characteristic functions, roots, and wave speeds."""

import math
import random
import typing

import mpmath as mp
import numpy as np
import pytest

from nmwaves import heteroclinic
from nmwaves.charroots import (TrajectoryTail, classify_tail,
                               linear_spreading_speed, minimal_speed, mu_root,
                               negative_root_exists, negative_roots_at_kappa)
from nmwaves.model import ModelParams
from nmwaves.numerics import BracketingError


def _chi_kappa(z, params, c):
    """The wave-frame characteristic function at ln p, written out."""
    return (z * z - c * z - 1.0
            - params.P * math.exp(-z * c * params.tau))


def test_mu_example_values():
    params = ModelParams(p=365.0, tau=0.07)
    mu = mu_root(params)
    assert abs(mu - 33.64) <= 0.01
    # residual and local sign change
    chi = lambda z: z + 1.0 - params.p * math.exp(-z * params.tau)
    assert abs(chi(mu)) <= 1e-9
    assert chi(mu - 1e-6) < 0.0 < chi(mu + 1e-6)
    # residual at machine level over the domain, including a large-delay
    # point where a bracketed secant search stalls far from the root
    ps = [1.001 * (1e6 / 1.001) ** (i / 24) for i in range(25)]
    taus = [0.0] + [0.01 * 5000.0 ** (j / 24) for j in range(25)]
    points = [(p, tau) for p in ps for tau in taus]
    points.append((123.28981721696316, 38.47163985465645))
    for p, tau in points:
        mu = mu_root(ModelParams(p=p, tau=tau))
        assert abs(mu + 1.0 - p * math.exp(-mu * tau)) <= 1e-12 * (1.0 + mu), \
            (p, tau, mu)


def test_mu_no_delay():
    assert abs(mu_root(ModelParams(p=2.0, tau=0.0)) - 1.0) <= 1e-12


@pytest.mark.parametrize("tau", [1e12, 1e14, 1e16, 1e300])
def test_mu_at_large_delays_against_mpmath(tau):
    # mu is about ln(p)/tau here, so its stopping test must be relative
    with mp.workdps(40):
        for p in (1.5, 365.0, 1e6):
            x = mp.findroot(lambda x: x / tau + 1 - p * mp.exp(-x), mp.log(p))
            want = float(x / tau)
            got = mu_root(ModelParams(p=p, tau=tau))
            assert abs(got - want) <= 1e-14 * want, (p, tau, got, want)


def test_mu_below_the_normal_range_is_an_error():
    # the root ln(1.5)/1e308 is about 4.05e-309, a subnormal float (at
    # p = 365 it is about 5.9e-308, still normal)
    with pytest.raises(ValueError, match="tau = 1e"):
        mu_root(ModelParams(p=1.5, tau=1e308))


def _mu_reference(p, tau):
    """The root of z tau + log1p(z) = ln p to 50 digits: p - 1 without a
    delay, else Newton from below in mpmath, certified by a sign change
    of the residual z + 1 - p e^{-z tau} across it."""
    with mp.workdps(50):
        p, tau = mp.mpf(p), mp.mpf(tau)
        if tau == 0:
            return p - 1
        g = lambda z: z * tau + mp.log1p(z) - mp.log(p)
        z = mp.log(p) / (1 + tau)
        for _ in range(200):
            step = g(z) / (tau + 1 / (1 + z))
            z -= step
            if abs(step) <= mp.mpf(10) ** -45 * z:
                break
        chi = lambda x: x + 1 - p * mp.exp(-x * tau)
        assert chi(z * (1 - mp.mpf(10) ** -40)) < 0 < chi(
            z * (1 + mp.mpf(10) ** -40))
        return z


def test_mu_against_a_50_digit_reference(monkeypatch):
    # ln p log-uniform in [1e-4, 709]; tau = 0 or log-uniform in [1e-6, 1e16]
    from nmwaves import charroots

    rng = random.Random(20261019)
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo),
                                                      math.log(hi)))
    points = [(math.exp(log_uniform(1e-4, 709.0)),
               0.0 if rng.random() < 0.1 else log_uniform(1e-6, 1e16))
              for _ in range(500)]
    steps = []
    log1p = np.log1p
    monkeypatch.setattr(np, "log1p", lambda z: steps.append(1) or log1p(z))
    got = []
    for p, tau in points:
        steps.clear()
        got.append(float(charroots._mu(p, tau)))
        assert len(steps) <= 15, (p, tau, len(steps))
    monkeypatch.undo()
    for (p, tau), mu in zip(points, got):
        want = _mu_reference(p, tau)
        assert abs(mu - want) <= 2e-15 * want, (p, tau, mu)
    # the array path (region_grid's) equals the scalar calls bit for bit
    lanes = charroots._mu([p for p, _ in points], [t for _, t in points])
    assert lanes.tolist() == got
    # tau p overflows here; the log form still has the root
    mu = mu_root(ModelParams(p=2.4133565475654057e+299,
                             tau=22289575101739.875))
    assert abs(mu - 3.0927e-11) <= 1e-14


def test_mu_against_plain_bisection():
    params = ModelParams(p=math.e ** 2, tau=0.1)
    f = lambda z: z + 1.0 - params.p * math.exp(-0.1 * z)
    lo, hi = 0.0, params.p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    assert abs(mu_root(params) - 0.5 * (lo + hi)) <= 1e-11


def test_mu_root_solves_each_call_and_params_keep_one(monkeypatch):
    # mu_root is the root solve (acceptance 01 times it after a warm-up);
    # ModelParams.mu stores its first result for the layers sharing a point
    from nmwaves import charroots

    calls = []
    orig = charroots._mu
    monkeypatch.setattr(charroots, "_mu",
                        lambda p, tau: calls.append(1) or orig(p, tau))
    params = ModelParams(p=365.0, tau=0.07)
    assert mu_root(params) == mu_root(params)
    assert len(calls) == 2
    assert params.mu == params.mu == mu_root(params)
    assert len(calls) == 4


def test_negative_roots_single_for_small_p():
    # P <= 0: strictly decreasing crossing, exactly one root
    for p in (1.5, 2.0, math.e):
        params = ModelParams(p=p, tau=0.2)
        report = negative_roots_at_kappa(params, 3.0)
        assert len(report.real_roots) == 1
        z = report.real_roots[0]
        assert z < 0.0
        val = _chi_kappa(z, params, 3.0)
        assert abs(val) <= 1e-9 * (1.0 + z * z)


def test_negative_roots_nonempty_at_example():
    params = ModelParams(p=365.0, tau=0.07)
    report = negative_roots_at_kappa(params, 50.0)
    assert len(report.real_roots) == 2
    for z in report.real_roots:
        assert z < 0.0
        val = _chi_kappa(z, params, 50.0)
        assert abs(val) <= 1e-9 * (1.0 + z * z)


def test_negative_roots_empty_beyond_boundary():
    params = ModelParams(p=365.0, tau=0.25)
    report = negative_roots_at_kappa(params, 10.0)
    assert report.real_roots == ()


def test_negative_roots_no_delay():
    params = ModelParams(p=365.0, tau=0.0)
    report = negative_roots_at_kappa(params, 5.0)
    assert len(report.real_roots) == 1
    z = report.real_roots[0]
    assert abs(z * z - 5.0 * z - math.log(365.0)) <= 1e-9


def test_boundary_double_root():
    # at tau = T(c) the hump maximum touches zero: double root, both
    # residuals small (checked against a two-dimensional Newton oracle
    # solving chi = 0, d(chi)/dz = 0 for the tangency point (z, tau))
    from nmwaves.atlas import T_of_c

    P = ModelParams(p=365.0, tau=0.07).P
    c = 20.0
    Tc = T_of_c(P, c)
    params = ModelParams(p=365.0, tau=Tc)
    report = negative_roots_at_kappa(params, c)
    assert len(report.real_roots) == 2
    z1, z2 = report.real_roots
    assert abs(z1 - z2) <= 1e-3

    z, t = 0.5 * (z1 + z2) * 1.02, Tc * 1.01  # offset start, oracle owns it
    for _ in range(100):
        e = math.exp(-z * c * t)
        F1 = z * z - c * z - 1.0 - P * e
        F2 = 2.0 * z - c + P * c * t * e
        J11 = 2.0 * z - c + P * c * t * e          # dF1/dz
        J12 = P * c * z * e                        # dF1/dt
        J21 = 2.0 - P * c * c * t * t * e          # dF2/dz
        J22 = P * c * e * (1.0 - z * c * t)        # dF2/dt
        det = J11 * J22 - J12 * J21
        if det == 0.0:
            break
        dz = -(F1 * J22 - F2 * J12) / det
        dt = -(F2 * J11 - F1 * J21) / det
        z += dz
        t += dt
        if abs(dz) + abs(dt) < 1e-15:
            break
    e = math.exp(-z * c * t)
    assert abs(z * z - c * z - 1.0 - P * e) <= 1e-6
    assert abs(2.0 * z - c + P * c * t * e) <= 1e-6
    # the oracle's tangency parameters agree with the boundary curve value
    assert abs(t - Tc) <= 1e-6
    assert abs(z - 0.5 * (z1 + z2)) <= 1e-4


@pytest.mark.parametrize("c", [2.0, 10.0, 50.0])
def test_tangency_just_past_the_boundary(c):
    # a hump maximum within TANGENCY_TOL of zero is a double root; a
    # little further past T(c) the hump stays below zero
    from nmwaves.atlas import T_of_c

    Tc = T_of_c(ModelParams(p=365.0, tau=0.0).P, c)
    tau = Tc * (1.0 + 1e-11)
    z1, z2 = negative_roots_at_kappa(ModelParams(p=365.0, tau=tau),
                                     c).real_roots
    assert z1 == z2 < 0.0
    assert negative_root_exists(365.0, tau, c)
    tau = Tc * (1.0 + 1e-7)
    assert negative_roots_at_kappa(ModelParams(p=365.0, tau=tau),
                                   c).real_roots == ()
    assert not negative_root_exists(365.0, tau, c)


def test_classify_tail():
    params = ModelParams(p=365.0, tau=0.07)
    assert classify_tail(params, 50.0) is TrajectoryTail.MONOTONE_TAIL
    assert classify_tail(ModelParams(p=2.0, tau=0.3), 4.0) \
        is TrajectoryTail.MONOTONE_TAIL
    assert classify_tail(ModelParams(p=365.0, tau=0.25), 10.0) \
        is TrajectoryTail.OSCILLATING


def test_linear_tail_class_is_the_root_test_on_a_seeded_grid():
    # classify_tail and region_report give the run's vocabulary:
    # MONOTONE_TAIL exactly where a negative root exists
    from nmwaves.atlas import RegionReport, region_report

    rng = random.Random(2929)
    both = set()
    for _ in range(40):
        p = 10.0 ** rng.uniform(0.2, 4.0)
        tau = 10.0 ** rng.uniform(-2.5, 0.5)
        c = 10.0 ** rng.uniform(-1.0, 2.5)
        params = ModelParams(p=p, tau=tau)
        want = (TrajectoryTail.MONOTONE_TAIL
                if negative_root_exists(p, tau, c)
                else TrajectoryTail.OSCILLATING)
        assert classify_tail(params, c) is want, (p, tau, c)
        assert region_report(params, c).tail_class is want, (p, tau, c)
        both.add(want)
    assert len(both) == 2
    assert [t.value for t in TrajectoryTail] == [
        "monotone_tail", "oscillating", "inconclusive"]
    # one enum, resolvable in every annotation that names it
    assert heteroclinic.TrajectoryTail is TrajectoryTail
    assert typing.get_type_hints(classify_tail)["return"] is TrajectoryTail
    assert (typing.get_type_hints(RegionReport)["tail_class"]
            == TrajectoryTail | None)


def test_minimal_speed_example():
    params = ModelParams(p=365.0, tau=0.07)
    assert abs(minimal_speed(params) - 7.89) <= 0.01


def test_minimal_speed_no_delay_closed_form():
    # tangency of z^2 - cz + (p-1): c* = 2 sqrt(p-1), to an ulp up to the
    # top of the float range
    with mp.workdps(50):
        for p in (1.0001, 2.0, 5.0, 10.0, 1e40, 1e300, 1.7e308):
            got = minimal_speed(ModelParams(p=p, tau=0.0))
            want = float(2 * mp.sqrt(mp.mpf(p) - 1))
            assert abs(got - want) <= math.ulp(want), p


def _profile_min(p, tau, c):
    """min over z > 0 of z^2 - cz - 1 + p e^{-zc tau} (tau > 0), in mpmath.

    The minimiser solves 2z - c = c tau p e^{-zc tau}, i.e. the increasing
    ln(2z - c) + zc tau - ln(c tau p) = 0 on z > c/2, which is negative
    just above c/2 and positive at c/2 + max(1, ln(c tau p)/(c tau)).
    """
    with mp.workdps(50):
        p, tau, c = mp.mpf(p), mp.mpf(tau), mp.mpf(c)
        h = c * tau
        lo = c / 2
        hi = lo + max(1, mp.log(h * p) / h)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mp.log(2 * mid - c) + mid * h - mp.log(h * p) < 0:
                lo = mid
            else:
                hi = mid
        z = (lo + hi) / 2
        return z * z - c * z - 1 + p * mp.exp(-z * h)


def test_minimal_speed_onset():
    # a positive root appears between c*(1 - 1e-6) and c*(1 + 1e-6)
    for p, tau in ((365.0, 0.07), (5823578936458799.0, 0.004947971588666243),
                   (1e17, 0.07)):
        c_star = minimal_speed(ModelParams(p=p, tau=tau))
        assert _profile_min(p, tau, c_star * (1.0 + 1e-6)) < 0.0, (p, tau)
        assert _profile_min(p, tau, c_star * (1.0 - 1e-6)) > 0.0, (p, tau)


def _minimal_speed_reference(p, tau, c0):
    """The tangency speed of z^2 - cz - 1 + p e^{-zc tau} to 50 digits.

    Where the function and its z-derivative both vanish, eliminating the
    exponential leaves c tau z^2 + (2 - c^2 tau) z - c (1 + tau) = 0, so
    z is the positive root of that quadratic and the tangency is a simple
    root in c of the function at that z, decreasing through it. Bracketed
    by c0 (1 -+ 1e-9), whose sign change is asserted.
    """
    with mp.workdps(50):
        p, tau, c0 = mp.mpf(p), mp.mpf(tau), mp.mpf(c0)

        def F(c):
            b = 2 - c * c * tau
            root = mp.sqrt(b * b + 4 * c * c * tau * (1 + tau))
            z = (2 * c * (1 + tau) / (b + root) if b > 0
                 else (root - b) / (2 * c * tau))
            return ((z * z - c * z - 1 + p * mp.exp(-z * c * tau))
                    / (1 + z * z + c * z))

        lo, hi = c0 * (1 - mp.mpf(10) ** -9), c0 * (1 + mp.mpf(10) ** -9)
        assert F(lo) > 0 > F(hi)
        return mp.findroot(F, (lo, hi), solver="anderson")


def test_minimal_speed_against_a_50_digit_reference():
    # ln p log-uniform in [1e-4, 709]; tau = 0 or log-uniform in [1e-6, 1e4]
    rng = random.Random(20261020)
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo),
                                                      math.log(hi)))
    for _ in range(300):
        p = math.exp(log_uniform(1e-4, 709.0))
        tau = 0.0 if rng.random() < 0.1 else log_uniform(1e-6, 1e4)
        got = minimal_speed(ModelParams(p=p, tau=tau))
        with mp.workdps(50):
            want = (2 * mp.sqrt(mp.mpf(p) - 1) if tau == 0.0
                    else _minimal_speed_reference(p, tau, got))
        assert abs(got - want) <= 2e-15 * want, (p, tau, got)
    # delays down to 1e-300: where s tau = z c tau at the tangency is
    # small, the rounding of ln p shows in the last digits
    for p in (1.0001, 365.0, 1e100, 1.3549348402472516e+139, 1.7e308):
        for tau in (1e-300, 1e-100, 1e-30):
            got = minimal_speed(ModelParams(p=p, tau=tau))
            want = _minimal_speed_reference(p, tau, got)
            assert math.isfinite(got) and abs(got - want) <= 1e-13 * want, (
                p, tau, got)
    # below about 1e-307 the root x nears p - 1, which the doubling
    # bracket reaches up to p = 2^1023 and no further
    got = minimal_speed(ModelParams(p=8e307, tau=1e-310))
    want = _minimal_speed_reference(8e307, 1e-310, got)
    assert abs(got - want) <= 1e-13 * want
    with pytest.raises(BracketingError, match="minimal speed search"):
        minimal_speed(ModelParams(p=1.7e308, tau=5e-324))


def test_linear_spreading_example():
    params = ModelParams(p=365.0, tau=0.07)
    c = linear_spreading_speed(params, 0.7)
    assert abs(c - 48.26) <= 0.05


def test_minimal_speed_is_minimum_over_decay_rates():
    # independent route: the minimal speed is the minimum over beta of the
    # decay-selected speed (the envelope touches at the tangency point)
    from nmwaves.numerics import golden_section_max

    for p, tau in ((365.0, 0.07), (20.0, 0.1)):
        params = ModelParams(p=p, tau=tau)
        c_star = minimal_speed(params)
        neg_speed = lambda b: -linear_spreading_speed(params, b)
        beta_star = golden_section_max(neg_speed, 0.05, 40.0, tol=1e-10)
        c_env = linear_spreading_speed(params, beta_star)
        assert abs(c_env - c_star) <= 1e-6 * (1.0 + c_star), (p, tau)
        # nearby decay rates select strictly faster fronts
        for b in (0.8 * beta_star, 1.25 * beta_star):
            assert linear_spreading_speed(params, b) >= c_star - 1e-9


def test_linear_spreading_no_delay_closed_form():
    # beta^2 - c beta - 1 + p = 0 gives c = (beta^2 - 1 + p)/beta
    assert abs(linear_spreading_speed(ModelParams(p=2.0, tau=0.0), 1.0)
               - 2.0) <= 1e-10
    assert abs(linear_spreading_speed(ModelParams(p=10.0, tau=0.0), 3.0)
               - 6.0) <= 1e-10


def test_root_report_residuals_random_sweep():
    # every reported root satisfies the residual contract; counts stay in
    # {0, 1, 2} with a double root listed twice
    rng = random.Random(41)
    for _ in range(120):
        p = 10.0 ** rng.uniform(0.1, 3.2)
        tau = 10.0 ** rng.uniform(-2.5, 0.3)
        c = 10.0 ** rng.uniform(-1.5, 2.5)
        params = ModelParams(p=p, tau=tau)
        report = negative_roots_at_kappa(params, c)
        assert len(report.real_roots) in (0, 1, 2)
        assert list(report.real_roots) == sorted(report.real_roots)
        for z in report.real_roots:
            assert report.search_window[0] <= z < 0.0
            val = _chi_kappa(z, params, c)
            assert abs(val) <= 1e-9 * (1.0 + z * z), (p, tau, c, z)


def test_tail_monotone_in_delay():
    # once oscillatory, stays oscillatory as the delay grows (fixed c, p > e^2)
    params0 = ModelParams(p=365.0, tau=0.07)
    c = 15.0
    taus = [0.02 + 0.28 * i / 39 for i in range(40)]
    seen_osc = False
    for tau in taus:
        tc = classify_tail(ModelParams(p=365.0, tau=tau), c)
        if tc is TrajectoryTail.OSCILLATING:
            seen_osc = True
        else:
            assert not seen_osc, f"monotone after oscillatory at tau={tau}"
    assert seen_osc


def _roots_exist(p, taus, cs):
    """The scalar oracle of negative_root_exists, point by point."""
    return np.array([len(negative_roots_at_kappa(ModelParams(p=p, tau=t), c)
                         .real_roots) > 0 for t, c in zip(taus, cs)])


def _suite_grid(c_of_j):
    # the 50 x 50 (tau, c) grids of the regions suite and acceptance test 09
    taus = [0.005 + (0.3 - 0.005) * i / 49 for i in range(50)]
    cs = [c_of_j(j) for j in range(50)]
    return [t for t in taus for _ in cs], cs * 50


@pytest.mark.parametrize("taus, cs", [
    _suite_grid(lambda j: 100.0 ** (j / 49)),
    _suite_grid(lambda j: 10.0 ** (-0.5 + 2.5 * j / 49)),
], ids=["regions-suite", "acceptance-09"])
def test_root_existence_kernel_matches_root_search_on_grids(taus, cs):
    got = negative_root_exists(365.0, np.array(taus), np.array(cs))
    want = _roots_exist(365.0, taus, cs)
    assert 0 < want.sum() < want.size
    assert np.array_equal(got, want)


def test_root_existence_kernel_matches_root_search_seeded():
    # P < 0, 0 < P < 1, the worked example and p log-uniform up to 1e6;
    # tau = 0 in every fifth draw, c log-uniform over [0.01, 1e3]
    rng = random.Random(2718)
    ps = [1.5, 5.0, 365.0] + [10.0 ** rng.uniform(0.005, 6.0)
                              for _ in range(3)]
    for p in ps:
        taus = [0.0 if k % 5 == 0 else 10.0 ** rng.uniform(-3.0, 1.0)
                for k in range(50)]
        cs = [10.0 ** rng.uniform(-2.0, 3.0) for _ in range(50)]
        got = negative_root_exists(p, np.array(taus), np.array(cs))
        assert np.array_equal(got, _roots_exist(p, taus, cs)), p


def test_root_existence_kernel_domain():
    assert negative_root_exists(2.0, np.array([0.0, 0.4]), 3.0).all()
    with pytest.raises(ValueError):
        negative_root_exists(365.0, 0.07, np.array([1.0, 0.0]))
