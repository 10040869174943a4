"""Tests for the series expansion of the heteroclinic connection."""

import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nmwaves.dirichlet import (CoefficientOverflow, _qbar2, _zeta, build,
                               coefficients, horizon, qbar2_closed_form,
                               qbar3_closed_form, zeta, zeta_by_quadrature)
from nmwaves.charroots import _mu, mu_root
from nmwaves.model import ModelParams, birth
from nmwaves.numerics import golden_section_max, lower_incomplete_gamma

EXAMPLE = ModelParams(p=365.0, tau=0.07)


def test_qbar2_example_value():
    qb2 = qbar2_closed_form(EXAMPLE)
    assert -0.055 <= qb2 <= -0.045


def test_recurrence_matches_closed_forms():
    qb = coefficients(EXAMPLE, 4)
    assert qb[0] == 1.0
    assert abs(qb[1] - qbar2_closed_form(EXAMPLE)) <= 1e-12
    assert abs(qb[2] - qbar3_closed_form(EXAMPLE)) <= 1e-12
    assert qb[1] < 0.0 < qb[2]


def test_recurrence_matches_closed_forms_other_params():
    for p, tau in ((20.0, 0.1), (1000.0, 0.03), (2.0, 0.5)):
        params = ModelParams(p=p, tau=tau)
        qb = coefficients(params, 3)
        assert abs(qb[1] - qbar2_closed_form(params)) <= 1e-12 * (1 + abs(qb[1]))
        assert abs(qb[2] - qbar3_closed_form(params)) <= 1e-12 * (1 + abs(qb[2]))


def _multinomial_qbar(params: ModelParams, n_coeffs: int) -> list[float]:
    """Independent coefficient oracle via explicit composition sums.

    Expands p V e^{-V} with V = sum v_j w^j, v_j = qbar_j e^{-j mu tau},
    summing products over integer compositions directly.
    """
    mu = mu_root(params)
    chi = lambda z: z + 1.0 - params.p * math.exp(-z * params.tau)
    emt = math.exp(-mu * params.tau)
    qb = [1.0]
    for n in range(1, n_coeffs):
        m = n + 1
        v = {j: qb[j - 1] * emt ** j for j in range(1, n + 1)}
        total = 0.0
        for k in range(1, m):          # V^{k+1} term of V e^{-V}, k >= 1
            parts = k + 1
            acc = 0.0
            for combo in itertools.product(sorted(v), repeat=parts):
                if sum(combo) == m:
                    prod = 1.0
                    for j in combo:
                        prod *= v[j]
                    acc += prod
            total += (-1.0) ** k / math.factorial(k) * acc
        qb.append(params.p * total / chi(m * mu))
    return qb


def test_coefficients_against_multinomial_oracle():
    got = coefficients(EXAMPLE, 6)
    want = _multinomial_qbar(EXAMPLE, 6)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * (1.0 + abs(w))


def _series_product(a: list[float], b: list[float]) -> list[float]:
    """Truncated product of two series of equal length, zero a_i skipped."""
    out = [0.0] * len(a)
    for i, ai in enumerate(a):
        if ai != 0.0:
            for j in range(len(a) - i):
                out[i + j] += ai * b[j]
    return out


def _series_exp(a: list[float]) -> list[float]:
    """exp of a series with a_0 = 0, from (k+1) b_{k+1} = sum_j j a_j b_{k+1-j}."""
    b = [1.0]
    for k in range(len(a) - 1):
        acc = 0.0
        for j in range(1, k + 2):
            acc += j * a[j] * b[k + 1 - j]
        b.append(acc / (k + 1))
    return b


def _power_series_qbar(params: ModelParams, n_coeffs: int) -> list[float]:
    """Reference recurrence that rebuilds V exp(-V) at every order."""
    mu = mu_root(params)
    chi = lambda z: z + 1.0 - params.p * math.exp(-z * params.tau)
    emt = math.exp(-mu * params.tau)
    qb = [1.0]
    for n in range(1, n_coeffs):
        v = [0.0] * (n + 2)
        for j in range(1, n + 1):
            v[j] = qb[j - 1] * emt ** j
        w = _series_product(v, _series_exp([-x for x in v]))
        qb.append(params.p * w[n + 1] / chi((n + 1) * mu))
    return qb


def test_coefficients_equal_power_series_rebuild():
    # the incremental exp(-V) sums the same products in the same order
    for p, tau in itertools.product((3.0, 365.0, 5e4), (0.02, 0.3, 4.0)):
        params = ModelParams(p=p, tau=tau)
        assert coefficients(params, 40) == _power_series_qbar(params, 40), (p, tau)


def test_sign_alternation_first_twenty():
    qb = coefficients(EXAMPLE, 20)
    for n, q in enumerate(qb, start=1):
        assert (-1.0) ** (n + 1) * q > 0.0, n


def test_sign_alternation_on_admissible_grid():
    # p > e^2 with P tau e^{1+tau} < 1
    rng = random.Random(19)
    for _ in range(6):
        p = rng.uniform(10.0, 2000.0)
        P = math.log(p) - 1.0
        tau_max = 0.95 / (P * math.e)  # keeps P tau e^{1+tau} < 1 for small tau
        tau = rng.uniform(0.2 * tau_max, tau_max)
        params = ModelParams(p=p, tau=tau)
        if params.P * tau * math.exp(1.0 + tau) >= 1.0:
            continue
        for n, q in enumerate(coefficients(params, 12), start=1):
            assert (-1.0) ** (n + 1) * q > 0.0


def test_coefficient_magnitudes_respect_contour_bound():
    # unnormalized q_n = qbar_n sigma^n stay below sigma
    expansion = build(EXAMPLE, n_coeffs=30)
    eps = expansion.eps
    sigma = eps * math.log(1.0 + 1.0 / (abs(expansion.qbar2) * (1.0 + eps)))
    for n, q in enumerate(expansion.coeffs, start=1):
        assert abs(q) * sigma ** n <= sigma * (1.0 + 1e-12), n


def test_overflow_guard():
    # qbar_6 = 7.5e13 at this point: the one pass stops before it
    params = ModelParams(p=1.0016820448809043, tau=0.06801012952725873)
    qb = coefficients(params, 10)
    assert len(qb) == 5
    assert qb == coefficients(params, 5)
    assert build(params).coeffs == tuple(qb)
    # qbar_3 = 1.0e12 here: fewer than three fit
    tight = ModelParams(p=1.000001, tau=0.1)
    for n in (3, 40):
        with pytest.raises(CoefficientOverflow, match=r"\|qbar_3\| = "):
            coefficients(tight, n)
    with pytest.raises(CoefficientOverflow):
        build(tight)
    assert len(coefficients(tight, 2)) == 2


def test_short_series_history_solves_the_delay_equation():
    # with every coefficient below the bound (11 here), the history's
    # u'(t0) misses the equation by 7e-14 relative; a 6-term prefix of
    # the same series misses it by 2.2e-7
    params = ModelParams(p=1.0675577348151144, tau=22.610499805991214)
    expansion = build(params)
    assert 6 < len(expansion.coeffs) < 40
    t0 = expansion.handoff
    rel = abs(expansion.defect(t0)) / abs(expansion.derivative(t0))
    assert rel <= 1e-12
    short = build(params, n_coeffs=6)
    assert abs(short.defect(t0)) / abs(short.derivative(t0)) > 1e-8


def test_zeta_finite_where_p_over_mu_overflows():
    # mu = 3.09e-11 and qbar_2 underflows to -0, so p/mu is inf; zeta is
    # about p/e. Reference: 40-digit quadrature of the defining integral,
    # whose integrand carries e^s, so [-100, 0] holds all of it.
    params = ModelParams(p=2.4133565475654057e+299, tau=22289575101739.875)
    mu, qb2 = params.mu, qbar2_closed_form(params)
    with mp.workdps(40):
        def f(s):
            x = mp.exp(mu * s)
            return x * mp.exp(s) * (1 + qb2 * x) * mp.exp(-x)
        ref = float(mp.mpf(params.p) * mp.quad(f, [-100, -40, -10, -1, 0]))
    got = zeta(params)
    assert math.isfinite(got)
    assert abs(got - ref) <= 1e-14 * ref


def test_horizon_example():
    expansion = build(EXAMPLE)
    assert abs(math.exp(expansion.mu * 0.07) - 1.0 - 9.536) <= 0.01
    T = horizon(expansion, 2.2)
    assert abs(T - 0.079) <= 0.001


def test_horizon_eps_validation():
    expansion = build(EXAMPLE)
    hi = math.exp(expansion.mu * 0.07) - 1.0
    with pytest.raises(ValueError):
        horizon(expansion, hi + 0.1)
    with pytest.raises(ValueError):
        horizon(expansion, 0.0)


def test_horizon_vanishing_eps():
    expansion = build(EXAMPLE)
    assert horizon(expansion, 1e-9) < horizon(expansion, 2.2) - 0.2


def test_default_eps_maximizes_horizon():
    expansion = build(EXAMPLE)
    T_best = expansion.horizon
    for eps in (0.5, 1.0, 2.2, 5.0, 9.0):
        assert T_best >= horizon(expansion, eps) - 1e-12
    # golden-section refinement beats a plain scan
    grid_best = max(horizon(expansion, 0.05 + 9.4 * i / 499)
                    for i in range(500))
    assert T_best >= grid_best - 1e-9


def _scan_and_golden_eps(expansion):
    """The horizon maximizer by a 200-point log scan of (1e-8 hi, hi),
    refined by golden-section search around the best scan point."""
    hi = math.exp(expansion.mu * expansion.params.tau) - 1.0
    T = lambda eps: horizon(expansion, eps)
    grid = [hi * 1e-8 ** (1.0 - i / 199) * (1.0 - 1e-12) for i in range(200)]
    i = max(range(200), key=lambda i: T(grid[i]))
    return golden_section_max(T, grid[max(i - 1, 0)], grid[min(i + 1, 199)],
                              tol=1e-12 * (1.0 + hi))


def test_default_eps_matches_scan_and_golden_reference():
    # the root of r + (1 + r) ln(1 + r) = 1/|qbar_2| is the maximizer: no
    # scan finds a larger horizon, also where eps sits at the cap
    rng = random.Random(19)
    at_cap = 0
    for _ in range(400):
        p = math.exp(rng.uniform(math.log(1.001), math.log(1e6)))
        tau = math.exp(rng.uniform(math.log(1e-4), math.log(50.0)))
        expansion = build(ModelParams(p=p, tau=tau), n_coeffs=2)
        hi = math.exp(expansion.mu * tau) - 1.0
        assert 0.0 < expansion.eps < hi
        at_cap += expansion.eps == hi * (1.0 - 1e-12)
        T_ref = horizon(expansion, _scan_and_golden_eps(expansion))
        # both evaluate tau + ln(...)/mu: rounding-level slack only
        assert expansion.horizon >= T_ref - 1e-15 * (tau + abs(T_ref))
    assert 0 < at_cap < 400


def test_evaluate_at_deep_left_is_leading_term():
    expansion = build(EXAMPLE)
    t = -2.0
    ratio = expansion.evaluate(t) / expansion.u1(t)
    assert abs(ratio - 1.0) <= 1e-10


def test_bounds_sandwich():
    expansion = build(EXAMPLE)
    # u2(0) = 1 + qbar2 < u(0) < 1
    u0 = expansion.evaluate(0.0)
    assert expansion.u2(0.0) < u0 < 1.0
    # dense grid down to 12 e-folds below the handoff
    t_hi = expansion.handoff
    for i in range(200):
        t = t_hi - 12.0 / expansion.mu * i / 199
        u = expansion.evaluate(t)
        assert expansion.u2(t) < u < expansion.u1(t), t


def test_evaluate_refuses_beyond_horizon():
    expansion = build(EXAMPLE)
    with pytest.raises(ValueError):
        expansion.evaluate(expansion.horizon)
    with pytest.raises(ValueError):
        expansion.evaluate(expansion.horizon + 1.0)
    # an array is refused when its largest t is
    with pytest.raises(ValueError):
        expansion.derivative(np.array([-1.0, expansion.horizon, -2.0]))


@pytest.mark.parametrize("p, tau", [(365.0, 0.07), (2.0, 0.1), (1000.0, 5.0)])
def test_array_evaluation_matches_the_scalar_sums(p, tau):
    # the integrator's history nodes in one call, against the term-by-term
    # float sums of u and u'
    expansion = build(ModelParams(p=p, tau=tau))
    t = expansion.handoff - tau * (1.0 - np.arange(65) / 64)
    mu = expansion.mu
    u_ref, du_ref = [], []
    for ti in t:
        x = math.exp(mu * ti)
        u = du = 0.0
        power = x
        for n, q in enumerate(expansion.coeffs, start=1):
            u += q * power
            du += n * mu * q * power
            power *= x
        u_ref.append(u)
        du_ref.append(du)
    assert expansion.evaluate(t).tolist() == u_ref
    assert expansion.derivative(t).tolist() == du_ref
    assert [expansion.evaluate(ti) for ti in t.tolist()] == u_ref


@pytest.mark.parametrize("n_coeffs", [40, 6])
@pytest.mark.parametrize("size", [1, 2, 3, 65])
def test_array_elements_get_the_float_bits(n_coeffs, size):
    # one code path: each element of an array of times gets the bits of the
    # same time given as a float, a single time as well as many
    expansion = build(EXAMPLE, n_coeffs=n_coeffs)
    grid = expansion.handoff - 12.0 / expansion.mu * np.linspace(0, 1, 65)
    e, d, et = (expansion.evaluate, expansion.derivative,
                expansion.evaluate_with_tail)
    for start in range(0, 66 - size, size):
        t = grid[start:start + size]
        floats = t.tolist()
        pairs = [(e(t), [e(ti) for ti in floats]),
                 (d(t), [d(ti) for ti in floats])]
        pairs += zip(et(t), zip(*[et(ti) for ti in floats]))
        pairs += zip(expansion.evaluate_with_derivative(t),
                     (pairs[0][1], pairs[1][1]))
        for got, want in pairs:
            assert got.tobytes() == np.array(want).tobytes(), t


def test_evaluate_against_ode_integration():
    # integrate u' = -u + f(series(t - tau)) from -0.4 to -0.2; the delayed
    # argument stays inside the series domain, so this is a plain ODE with
    # known forcing and an independent integrator can check the series
    expansion = build(EXAMPLE)
    params = EXAMPLE

    def rhs(t, y):
        return [-y[0] + birth(expansion.evaluate(t - params.tau), 0, params)]

    sol = solve_ivp(rhs, (-0.4, -0.2), [expansion.evaluate(-0.4)],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    got = sol.y[0][-1]
    assert abs(got - expansion.evaluate(-0.2)) <= 1e-8


def test_series_defect_budget_short_expansion():
    short = build(EXAMPLE, n_coeffs=6)
    base = short.handoff
    for k in (0.5, 1.0, 1.5):
        t = base - k / short.mu
        _, last = short.evaluate_with_tail(t)
        assert abs(short.defect(t)) <= 10.0 * last


def test_zeta_example_value():
    z = zeta(EXAMPLE)
    assert abs(z - 6.46) <= 0.01
    assert z > math.log(365.0)


def test_zeta_no_delay_reduces_to_coefficient_sum():
    params = ModelParams(p=12.0, tau=0.0)
    want = 1.0 + qbar2_closed_form(params)
    assert abs(zeta(params) - want) <= 1e-12


def test_zeta_gamma_form_vs_quadrature():
    rng = random.Random(23)
    cases = [EXAMPLE]
    for _ in range(5):
        p = rng.uniform(9.0, 900.0)
        tau = rng.uniform(0.02, 0.2)
        cases.append(ModelParams(p=p, tau=tau))
    # log-uniform over the box that `analyze` is benchmarked on; zeta
    # reaches 3.5e5 at its large-p, large-tau corner
    rng = random.Random(17)
    for _ in range(300):
        p = math.exp(rng.uniform(math.log(1.001), math.log(1e6)))
        tau = math.exp(rng.uniform(math.log(1e-6), math.log(50.0)))
        cases.append(ModelParams(p=p, tau=tau))
    for params in cases:
        a = zeta(params)
        b = zeta_by_quadrature(params)
        assert abs(a - b) <= 1e-10, (params.p, params.tau)


def _zeta_mpmath(p, tau):
    # the defining integral at 40 digits, with mu and qbar_2 solved there
    with mp.workdps(40):
        p, tau = mp.mpf(p), mp.mpf(tau)
        mu = mp.findroot(lambda z: z + 1 - p * mp.exp(-z * tau),
                         mu_root(ModelParams(p=float(p), tau=float(tau))))
        e2 = p * mp.exp(-2 * mu * tau)
        qb2 = -e2 / (2 * mu + 1 - e2)

        def f(s):
            x = mp.exp(mu * s)
            return x * mp.exp(s) * (1 + qb2 * x) * mp.exp(-x)

        integral = mp.quad(f, mp.linspace(-tau, 0, 40))
        return (1 + qb2) * mp.exp(-tau) + p * integral


@pytest.mark.parametrize("p, tau", [(8.4e5, 0.017), (4.0e5, 0.093),
                                    (3.6e5, 7.7), (1.93e5, 42.4)])
def test_zeta_by_quadrature_against_mpmath(p, tau):
    got = zeta_by_quadrature(ModelParams(p=p, tau=tau))
    want = _zeta_mpmath(p, tau)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(got))


def test_zeta_by_quadrature_passes_at_the_example(monkeypatch):
    from nmwaves import dirichlet

    passes = []
    quadrature = dirichlet.integrate_adaptive

    def counted(f, a, b, tol):
        def f_counted(s):
            passes.append(1)
            return f(s)
        return quadrature(f_counted, a, b, tol)

    monkeypatch.setattr(dirichlet, "integrate_adaptive", counted)
    zeta_by_quadrature(ModelParams(p=365.0, tau=0.07))
    assert 1 <= len(passes) <= 8


def test_zeta_by_quadrature_needs_no_gamma_form(monkeypatch):
    from nmwaves import dirichlet, numerics

    want = zeta(ModelParams(p=365.0, tau=0.07))

    def refuse(*args):
        raise AssertionError("the quadrature route used the gamma form")

    monkeypatch.setattr(dirichlet, "_zeta", refuse)
    monkeypatch.setattr(dirichlet, "lower_incomplete_gamma", refuse)
    monkeypatch.setattr(numerics, "lower_incomplete_gamma", refuse)
    got = zeta_by_quadrature(ModelParams(p=365.0, tau=0.07))
    assert abs(got - want) <= 1e-10


def test_zeta_makes_one_incomplete_gamma_call(monkeypatch):
    from nmwaves import dirichlet

    calls = []

    def counted(z, s):
        calls.append(1)
        return lower_incomplete_gamma(z, s)

    monkeypatch.setattr(dirichlet, "lower_incomplete_gamma", counted)
    zeta(EXAMPLE)
    assert len(calls) == 1


def _zeta_four_calls(p, tau, mu):
    # the closed form with one incomplete-gamma call per integral
    qb2 = _qbar2(p, tau, mu)
    m = 1.0 / mu
    emt = np.exp(-mu * tau)
    g = lower_incomplete_gamma
    return ((1.0 + qb2) * np.exp(-tau)
            + p * m * (g(1.0, m + 1.0) - g(emt, m + 1.0)
                       + qb2 * (g(1.0, m + 2.0) - g(emt, m + 2.0))))


def test_zeta_one_pass_is_bit_identical_to_four_calls():
    rng = np.random.default_rng(31)
    p = 10.0 ** rng.uniform(0.001, 6.0, 400)
    tau = np.concatenate([[0.0], 10.0 ** rng.uniform(-6.0, 1.7, 399)])
    mu = _mu(p, tau)
    assert np.array_equal(_zeta(p, tau, mu), _zeta_four_calls(p, tau, mu))
    for i in range(0, 400, 37):  # scalar inputs, as ModelParams passes them
        args = float(p[i]), float(tau[i]), float(mu[i])
        assert _zeta(*args) == _zeta_four_calls(*args)


def test_build_requires_positive_delay():
    with pytest.raises(ValueError):
        build(ModelParams(p=5.0, tau=0.0))


def test_csv_dumps(tmp_path):
    from nmwaves.cli import main

    expansion = build(EXAMPLE, n_coeffs=5)
    cpath = tmp_path / "coeffs.csv"
    ppath = tmp_path / "profile.csv"
    assert main(["series", "--p", "365", "--tau", "0.07", "--n", "5",
                 "--out", f"{cpath},{ppath}"]) == 0
    lines = cpath.read_text().splitlines()
    assert lines[0] == "n,qbar_n"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == 1.0
    assert [float(line.split(",")[1]) for line in lines[1:]] \
        == list(expansion.coeffs)
    rows = ppath.read_text().splitlines()
    assert rows[0] == "t,u2,u,u1"
    t, u2, u, u1 = (float(v) for v in rows[1].split(","))
    assert u2 < u < u1
