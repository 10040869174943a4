"""Tests for the parameter-region logic and boundary curves."""

import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest

from nmwaves.atlas import (Phi, SpeedFrame, T_of_c, T_star,
                           certificate_coefficient, certificate_series,
                           membership, membership_grid, nm_necessary,
                           region_grid, region_report, tau_hat, tau_of_c,
                           tau_star, verify_inclusion)
from nmwaves.charroots import negative_root_exists
from nmwaves.dirichlet import zeta
from nmwaves.heteroclinic import p_window
from nmwaves.model import ModelParams
from nmwaves.numerics import BracketingError

EXAMPLE = ModelParams(p=365.0, tau=0.07)


def test_speed_frame_invariants():
    rng = random.Random(4)
    for _ in range(30):
        c = 10.0 ** rng.uniform(-2, 3)
        frame = SpeedFrame(c)
        lam, nu, eps = frame.lam, frame.nu, frame.eps
        assert lam < 0.0 < nu
        assert abs(lam * nu + c * c) <= 1e-8 * c * c
        for z in (lam, nu):
            assert abs(eps * z * z - z - 1.0) <= 1e-10 * (1.0 + abs(z))


def test_tau_star_value():
    ts = tau_star()
    assert abs(ts - 0.278) <= 0.001
    assert abs(ts * math.exp(1.0 + ts) - 1.0) <= 1e-12


def test_nm_necessary_example():
    nec = nm_necessary(EXAMPLE)
    assert nec.overall is True
    assert nec.growth_product < 1.0
    assert abs(nec.growth_product - 0.99995) <= 1e-4
    assert abs(nec.delay_product - 10.08) <= 0.01


def test_nm_necessary_fails_beyond_tau_star():
    for tau in (tau_star(), 0.3, 0.5):
        assert nm_necessary(ModelParams(p=365.0, tau=tau)).overall is False


def test_nm_necessary_boundary_p():
    # strict inequality at p = e^2
    assert nm_necessary(ModelParams(p=math.e ** 2, tau=0.1)).overall is False


def test_phi_endpoints():
    for c in (0.1, 1.0, 10.0, 500.0):
        frame = SpeedFrame(c)
        assert abs(Phi(0.0, frame) - 1.0) <= 1e-14
        assert Phi(200.0, frame) <= 1e-6


def test_phi_decreasing():
    rng = random.Random(6)
    for _ in range(40):
        c = 10.0 ** rng.uniform(-1.5, 2.5)
        tau = 10.0 ** rng.uniform(-2, 1)
        frame = SpeedFrame(c)
        h = 1e-6 * (1.0 + tau)
        slope = (Phi(tau + h, frame) - Phi(tau - h, frame)) / (2.0 * h)
        assert slope < 0.0


def test_tau_hat_value():
    assert abs(tau_hat(4.8999) - 0.22825) <= 1e-4
    assert abs(tau_hat(4.8999) - math.log(4.8999 / 3.8999)) <= 1e-15


def test_tau_of_c_limit():
    P = 4.8999
    assert abs(tau_of_c(P, 1e3) - tau_hat(P)) <= 1e-3


def test_tau_of_c_threshold_small_P():
    # as P -> 1+ the threshold vanishes and the root runs away
    assert tau_of_c(1.001, 1.0) > tau_of_c(2.0, 1.0) * 3.0


def test_T_star_value():
    # T e^T = 1/(P e): fixed-point oracle
    P = 4.8999
    x = 0.05
    for _ in range(300):
        x = 1.0 / (P * math.e) * math.exp(-x)
    got = T_star(P)
    assert abs(got - x) <= 1e-12
    assert abs(got - 0.0700) <= 1e-3


@pytest.mark.parametrize("P", [1e60, 1e100, 1e200])
def test_T_star_at_huge_P(P):
    # the root of T e^T = 1/(e P), about 200 to 670 halvings below [0, 1]
    with mp.workdps(40):
        want = float(mp.lambertw(1 / (mp.e * mp.mpf(P))))
    assert abs(T_star(P) / want - 1.0) <= 1e-12


@pytest.mark.parametrize("P", [1e60, 1e100, 1e200])
def test_T_of_c_at_huge_P(P):
    # the left side is e^2 (c tau)^2 / 4 up to a factor 1 + O(c^2 tau), so
    # T(c) is 2/(e c sqrt(P)) to rounding here; float and array solves
    cs = np.array([0.01, 50.0, 1000.0])
    want = 2.0 / (math.e * cs * math.sqrt(P))
    for got in (T_of_c(P, cs), [T_of_c(P, c) for c in cs.tolist()]):
        assert np.all(np.abs(np.asarray(got) / want - 1.0) <= 1e-12)


def test_T_of_c_limit_and_monotonicity():
    P = 4.8999
    assert abs(T_of_c(P, 1e3) - T_star(P)) <= 1e-3
    cs = [0.1 * 2.0 ** k for k in range(12)]
    vals = [T_of_c(P, c) for c in cs]
    for a, b in zip(vals[:-1], vals[1:]):
        assert a > b


def test_tau_of_c_monotone_in_c():
    P = 4.8999
    cs = [0.1 * 2.0 ** k for k in range(12)]
    vals = [tau_of_c(P, c) for c in cs]
    for a, b in zip(vals[:-1], vals[1:]):
        assert a > b


def test_boundaries_ordered():
    # T(c) < tau(c) pointwise
    for P in (1.1, 2.0, 4.8999, 10.0):
        for c in (0.01, 0.5, 3.0, 40.0, 1e3):
            assert T_of_c(P, c) < tau_of_c(P, c), (P, c)


def test_phi_at_T_boundary_above_threshold():
    # equivalent restatement of T(c) < tau(c) through Phi's monotonicity
    for P in (1.5, 4.8999, 10.0):
        for c in (0.1, 1.0, 10.0, 100.0):
            assert Phi(T_of_c(P, c), SpeedFrame(c)) > 1.0 - 1.0 / P


def test_array_boundaries_match_scalar_solves():
    # the default verify_inclusion lanes: 4 P x 200 c plus c = 1e3 again
    Ps = (1.1, 2.0, 4.8999, 10.0)
    cs = [0.01 * (1e3 / 0.01) ** (i / 199) for i in range(200)] + [1e3]
    T_arr = T_of_c(np.array(Ps)[:, None], np.array(cs))
    tau_arr = tau_of_c(np.array(Ps)[:, None], np.array(cs))
    assert T_arr.shape == tau_arr.shape == (4, 201)
    for i, P in enumerate(Ps):
        for j, c in enumerate(cs):
            for got, want in ((T_arr[i, j], T_of_c(P, c)),
                              (tau_arr[i, j], tau_of_c(P, c))):
                assert abs(got - want) <= 2e-13 * (1.0 + max(1.0, want))


def test_array_boundaries_keep_the_scalar_errors():
    with pytest.raises(ValueError):
        T_of_c(np.array([1.0, 0.0]), 2.0)
    with pytest.raises(ValueError):
        tau_of_c(np.array([2.0, 1.0]), 2.0)
    with pytest.raises(ValueError):
        tau_of_c(2.0, np.array([1.0, 0.0]))
    # at c = 0 the boundary left side is 0 for every tau
    for c in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(BracketingError, match="^bracketing T\\(c\\)"):
            T_of_c(2.0, c)


def test_boundaries_past_the_overflow_of_c_squared():
    # one array holds lanes on both sides of the overflow of c^2 (about
    # 1.3e154) and of (c T)^2 (c^2 + 4); lanes are solved independently
    P = 4.8999
    c = np.array([1e3, 1e150, 1.2e154, 1e155, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T, tau = T_of_c(P, c), tau_of_c(P, c)
    assert T[0] == T_of_c(P, c[:1])[0]
    assert tau[0] == tau_of_c(P, c[:1])[0]
    assert np.all(np.abs(T[1:] / T_star(P) - 1.0) <= 1e-12)
    assert np.all(np.abs(tau[1:] / tau_hat(P) - 1.0) <= 1e-12)


def test_tau_hat_past_two_to_the_53():
    # P - 1 rounds to P there, and ln(P/(P-1)) would read 0
    assert abs(tau_hat(2.0 ** 60) - 2.0 ** -60) <= 1e-15 * 2.0 ** -60


@pytest.mark.parametrize("P", [1.1, 2.0, 4.8999, 10.0])
def test_tau_hat_within_two_ulps(P):
    with mp.workdps(40):
        want = float(mp.log(mp.mpf(P) / (mp.mpf(P) - 1)))
    assert abs(tau_hat(P) - want) <= 2.0 * math.ulp(want)


def test_tau_hat_exceeds_T_star():
    # P e tau_hat e^{tau_hat} = e P^2 ln(P/(P-1))/(P-1) > 1
    for P in (1.1, 2.0, 4.8999, 50.0):
        th = tau_hat(P)
        assert P * math.e * th * math.exp(th) > 1.0
        assert th > T_star(P)


def test_membership_example():
    in_dm, in_ds = membership(EXAMPLE, 50.0)
    assert in_dm is True and in_ds is True


def test_membership_outside():
    params = ModelParams(p=365.0, tau=0.3)
    for c in (8.0, 10.0, 50.0):
        in_dm, _ = membership(params, c)
        assert in_dm is False


def test_membership_no_delay():
    params = ModelParams(p=365.0, tau=0.0)
    for c in (0.5, 5.0, 50.0):
        in_dm, in_ds = membership(params, c)
        assert in_dm is True and in_ds is True


def test_membership_small_P_conventions():
    # P <= 0: single negative root always; P <= 1: slow-oscillation flag true
    params = ModelParams(p=2.0, tau=0.4)
    in_dm, in_ds = membership(params, 2.0)
    assert in_dm is True and in_ds is True


def test_membership_agreement_grid():
    # the two region computations agree on a coarse grid (fast variant of
    # the acceptance sweep); membership in the monotone-tail region always
    # implies membership in the slow-oscillation region
    for i in range(12):
        tau = 0.01 + (0.28 - 0.01) * i / 11
        params = ModelParams(p=365.0, tau=tau)
        for j in range(12):
            c = 10.0 ** (-0.5 + 2.5 * j / 11)
            in_dm, in_ds = membership(params, c)
            assert not (in_dm and not in_ds), (tau, c)


def test_membership_agreement_other_amplitudes():
    # region agreement is not specific to the worked example's p
    for p in (10.0, 50.0, 5000.0):
        for i in range(8):
            tau = 0.01 + (0.35 - 0.01) * i / 7
            params = ModelParams(p=p, tau=tau)
            for j in range(8):
                c = 10.0 ** (-0.5 + 2.5 * j / 7)
                in_dm, in_ds = membership(params, c)
                if params.P > 1.0:
                    assert not (in_dm and not in_ds), (p, tau, c)


@pytest.mark.parametrize("p", [1.5, 5.0, 365.0])
def test_membership_grid_matches_scalar_membership(p):
    taus = [0.3 * i / 9 for i in range(10)]
    cs = [10.0 ** (-0.5 + 2.5 * j / 9) for j in range(10)]
    in_dm, in_ds, disagree = membership_grid(p, taus, cs)
    assert not disagree.any()
    want = [[membership(ModelParams(p=p, tau=t), c) for c in cs] for t in taus]
    assert np.array_equal(in_dm, [[dm for dm, _ in row] for row in want])
    assert np.array_equal(in_ds, [[ds for _, ds in row] for row in want])


def test_membership_and_grid_agree_next_to_the_boundary():
    # tau = T(c)(1 -+ 1e-13): both forms solve T(c) to rounding level, so
    # the point and the grid put every such tau on the same side
    rng = random.Random(1513)
    for _ in range(6):
        p = 10.0 ** rng.uniform(math.log10(3.0), 6.0)
        cs = [10.0 ** rng.uniform(-2.0, 3.0) for _ in range(25)]
        T = T_of_c(math.log(p) - 1.0, np.array(cs))
        taus = [t * (1.0 + s * 1e-13) for t in T.tolist() for s in (-1, 1)]
        in_dm, in_ds, disagree = membership_grid(p, taus, cs)
        for i, tau in enumerate(taus):
            j = i // 2  # the grid row of tau is T(cs[j]) -+ 1e-13
            assert not disagree[i, j]
            point = membership(ModelParams(p=p, tau=tau), cs[j])
            assert point == (in_dm[i, j], in_ds[i, j]), (p, tau, cs[j])


def test_root_flag_matches_the_boundary_off_a_relative_band():
    # the root test alone, at tau = T(c) -+ k 1e-5 (1 + T(c)): the hump
    # maximum must fall below zero by more than the tangency rule allows
    # as soon as tau leaves that band, also at large c
    rng = random.Random(29)
    offsets = np.array([1.0, 1.5, 3.0, 10.0, 100.0, -1.0, -1.5, -3.0, -10.0,
                        -100.0])[:, None] * 1e-5
    for _ in range(100):
        p = math.exp(rng.uniform(math.log(3.0), math.log(1e6)))
        c = np.exp([rng.uniform(math.log(0.01), math.log(1e3))
                    for _ in range(20)])
        T = T_of_c(math.log(p) - 1.0, c)
        tau = np.maximum(T + offsets * (1.0 + T), 0.0)
        assert np.array_equal(negative_root_exists(p, tau, c), tau <= T), p


def test_regions_suite_raises_no_warnings():
    from nmwaves.verify import run_suite

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, _ = run_suite("regions")
    assert ok


def test_membership_on_numpy_grid_raises_no_warnings():
    # the acceptance-09 grid with numpy float64 taus and speeds: the scalar
    # root search takes them as Python floats, whose products overflow to
    # inf without a warning
    taus = np.linspace(0.005, 0.3, 50)
    cs = 10.0 ** np.linspace(-0.5, 2.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in taus:
            params = ModelParams(p=365.0, tau=tau)
            for c in cs:
                membership(params, c)


def test_ds_threshold_dominates_ce_threshold():
    # 1 - 1/P > (P^2 - P)/(P^2 + 1) for all P > 1
    rng = random.Random(9)
    for _ in range(100):
        P = 1.0 + 10.0 ** rng.uniform(-3, 2)
        assert 1.0 - 1.0 / P > (P * P - P) / (P * P + 1.0)


def test_certificate_series_matches_closed_forms():
    for w in (1.05, 1.4, 1.75, 2.0):
        series = certificate_series(w, 12)
        assert abs(series[0]) <= 1e-12
        assert abs(series[1]) <= 1e-12
        for k in range(2, 13):
            closed = certificate_coefficient(k, w)
            assert abs(series[k] - closed) <= 1e-10 * (1.0 + abs(closed)), (k, w)


def test_certificate_positivity():
    for i in range(60):
        w = 1.0 + (i + 1) / 60.0
        for k in range(2, 13):
            if k == 3 and w > 1.75:
                continue  # positivity of the cubic coefficient stops at 1.75
            assert certificate_coefficient(k, w) > 0.0, (k, w)


def test_certificate_a3_sign_change():
    # beyond w = 1.75 the cubic coefficient does go negative near 2
    assert certificate_coefficient(3, 2.0) < 0.0


def test_certificate_direct_positivity():
    from nmwaves.atlas import certificate_value

    for i in range(40):
        w = 1.0 + (i + 1) / 40.0
        for j in range(40):
            sigma = 10.0 ** (-2.0 + 4.0 * j / 39)
            if w * sigma < 700.0:
                assert certificate_value(w, sigma) > 0.0, (w, sigma)


def test_certificate_value_matches_series():
    # small sigma: the truncated series reproduces the direct value
    from nmwaves.atlas import certificate_value

    for w in (1.2, 1.8):
        coeffs = certificate_series(w, 14)
        for sigma in (0.05, 0.2):
            series_val = w * sum(coeffs[k] / math.factorial(k) * sigma ** k
                                 for k in range(2, 15))
            direct = certificate_value(w, sigma)
            assert abs(series_val - direct) <= 1e-10 * (1.0 + abs(direct))


def test_certificate_discriminant_negative():
    from nmwaves.atlas import certificate_quadratic_discriminant

    for i in range(100):
        w = 1.0 + (i + 1) / 100.0
        assert certificate_quadratic_discriminant(w) < 0.0, w


def test_verify_inclusion_small():
    report = verify_inclusion(P_grid=(1.1, 4.8999), n_c=25, n_tau_grid=40)
    assert report.violations == ()
    assert report.min_boundary_margin > 0.0
    assert report.min_inequality_margin > 0.0
    for _, err_tau, err_T in report.limit_errors:
        assert err_tau <= 1e-3 and err_T <= 1e-3


def test_region_grid_flags():
    rows = region_grid([0.07], [365.0, math.e ** 2])
    by_p = {lnlnp: flag for _, lnlnp, flag in rows}
    assert rows[0][2] is True  # (0.07, 365)
    assert rows[1][2] is False  # boundary point excluded


def test_region_grid_nonempty_and_inside_necessary():
    # a row without delay, and p at or below e^2, outside every window
    taus = [0.0] + [0.05 + 0.03 * i / 19 for i in range(20)]
    ps = [1.5, math.e ** 2] + [10.0 * (1000.0 / 10.0) ** (i / 19)
                               for i in range(20)]
    rows = region_grid(taus, ps)
    # the array route agrees with the scalar criteria point by point, and
    # its ln ln p with math.log's
    points = [ModelParams(p=p, tau=t) for t in taus for p in ps]
    assert rows == [(q.tau, math.log(q.kappa),
                     p_window(q) and zeta(q) > q.kappa) for q in points]
    # a small delay gets an answer from both routes: the window holds
    # above p = e^2 only
    for p, inside in ((365.0, True), (5.0, False)):
        q = ModelParams(p=p, tau=3e-4)
        assert p_window(q) is inside
        assert region_grid([3e-4], [p]) == [
            (3e-4, math.log(q.kappa), inside and zeta(q) > q.kappa)]
    hits = [(t, ll) for t, ll, flag in rows if flag]
    assert hits  # the admissible region is nonempty at this resolution
    for t, ll in hits:
        p = math.exp(math.exp(ll))
        assert nm_necessary(ModelParams(p=p, tau=t)).overall is True


def test_region_report_fields():
    report = region_report(EXAMPLE, c=50.0)
    assert report.nm_necessary.overall is True and report.gsc is True
    assert report.in_dm is True and report.in_ds is True
    no_c = region_report(EXAMPLE)
    assert no_c.in_dm is None and no_c.in_ds is None
