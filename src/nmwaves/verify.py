"""Verification suites behind the ``verify`` CLI subcommand.

Each check returns (name, margin, threshold, passed) where the margin is
oriented so that larger is safer and the check passes when margin exceeds
the threshold. A suite passes when every check does.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, birth, feedback_holds, gsc_holds, schwarz
from .numerics import level_crossings

Check = tuple[str, float, float, bool]


def _check(name: str, margin: float, threshold: float = 0.0) -> Check:
    return (name, margin, threshold, margin > threshold)


def _suite_regions(grid: int | None) -> list[Check]:
    from .atlas import (LIMIT_TOL, certificate_coefficient,
                        certificate_quadratic_discriminant,
                        certificate_series, certificate_value,
                        membership_grid, verify_inclusion)

    n_c = grid or 200
    n_ineq = grid or 300
    checks: list[Check] = []
    report = verify_inclusion(n_c=n_c, n_tau_grid=n_ineq)
    checks.append(_check("boundary_separation_min(tau_c - T_c)",
                         report.min_boundary_margin))
    checks.append(_check("separation_inequality_min_margin",
                         report.min_inequality_margin))
    worst_tau = max(err for _, err, _ in report.limit_errors)
    worst_T = max(err for _, _, err in report.limit_errors)
    checks.append(_check("tau_limit_error", LIMIT_TOL - worst_tau))
    checks.append(_check("T_limit_error", LIMIT_TOL - worst_T))

    # positivity certificate: closed forms vs series expansion, k <= 12,
    # as one (w, k) table over w in (1, 2]
    w = 1.0 + np.arange(1, 41)[:, None] / 40
    k = np.arange(2, 13)
    closed = certificate_coefficient(k, w)
    series = np.array([certificate_series(wi, 12)[2:] for wi in w[:, 0]])
    dev = np.abs(series - closed) / (1.0 + np.abs(closed))
    checks.append(_check("certificate_series_vs_closed",
                         1e-10 - float(dev.max())))
    claimed = (k != 3) | (w <= 1.75)  # positivity of A_3 only up to 1.75
    checks.append(_check("certificate_coefficients_min",
                         float(closed[claimed].min())))

    # the certificate itself, evaluated directly on a (w, sigma) grid
    # (w sigma <= 200 keeps e^{w sigma} finite), and the discriminant
    # argument that covers the sign change of A_3
    sigma = 10.0 ** (-2.0 + 4.0 * np.arange(50) / 49)
    checks.append(_check("certificate_direct_min",
                         float(certificate_value(w, sigma).min())))
    checks.append(_check("certificate_discriminant_negative",
                         -float(certificate_quadratic_discriminant(w).max())))

    # two-way membership agreement at p = 365 on a (tau, c) grid
    n_m = 50 if grid is None else grid
    taus = [0.005 + (0.3 - 0.005) * i / (n_m - 1) for i in range(n_m)]
    cs = [100.0 ** (j / (n_m - 1)) for j in range(n_m)]
    _, _, disagree = membership_grid(365.0, taus, cs)
    checks.append(_check("membership_two_way_agreement",
                         1.0 - int(disagree.sum())))
    return checks


def _suite_series(grid: int | None) -> list[Check]:
    from .dirichlet import (build, qbar2_closed_form, qbar3_closed_form, zeta,
                            zeta_by_quadrature)

    checks: list[Check] = []
    cases = [(365.0, 0.07), (200.0, 0.05), (1000.0, 0.03)]
    worst_alt = math.inf
    worst_closed = 0.0
    worst_zeta = 0.0
    worst_bound = math.inf
    worst_defect = math.inf
    for p, tau in cases:
        params = ModelParams(p=p, tau=tau)
        expansion = build(params, n_coeffs=20)
        for n, q in enumerate(expansion.coeffs, start=1):
            worst_alt = min(worst_alt, (-1.0) ** (n + 1) * q)
        worst_closed = max(
            worst_closed,
            abs(expansion.coeffs[1] - qbar2_closed_form(params)),
            abs(expansion.coeffs[2] - qbar3_closed_form(params)))
        worst_zeta = max(worst_zeta,
                         abs(zeta(params) - zeta_by_quadrature(params)))
        # sandwich bounds checked down to 12 e-folds, where the gaps are
        # still resolvable in double precision
        ts = [expansion.handoff - 12.0 / expansion.mu * i / 59
              for i in range(60)]
        for t, u in zip(ts, expansion.evaluate(np.array(ts)).tolist()):
            worst_bound = min(worst_bound, expansion.u1(t) - u,
                              u - expansion.u2(t))
        # defect budget with a short expansion: the residual's leading
        # term is the next coefficient times chi((N+1) mu) x^{N+1}, so
        # the 10x budget is visible above rounding only for small N
        short = build(params, n_coeffs=6)
        for k in (0.5, 1.0, 1.5):
            t = short.handoff - k / short.mu
            _, last = short.evaluate_with_tail(t)
            worst_defect = min(worst_defect,
                               10.0 * last - abs(short.defect(t)))
    checks.append(_check("sign_alternation_min", worst_alt))
    checks.append(_check("recurrence_vs_closed_forms", 1e-12 - worst_closed))
    checks.append(_check("zeta_gamma_vs_quadrature", 1e-10 - worst_zeta))
    checks.append(_check("sandwich_bounds_min_gap", worst_bound))
    checks.append(_check("series_defect_budget", worst_defect))
    return checks


def _suite_model(grid: int | None) -> list[Check]:
    checks: list[Check] = []
    params = ModelParams(p=365.0, tau=0.07)

    # Schwarz derivative negative away from the critical point
    n = grid or 400
    worst = -math.inf
    for i in range(n):
        u = 10.0 ** (-3.0 + 4.7 * i / (n - 1))  # log grid over (0, 50]
        if abs(u - 1.0) < 1e-6:
            continue
        worst = max(worst, schwarz(u, params))
    checks.append(_check("schwarz_negative", -worst))

    # f(u) <= p u
    worst_lin = math.inf
    for i in range(1, 200):
        u = 50.0 * i / 199
        worst_lin = min(worst_lin,
                        params.p * u - birth(u, 0, params))
    checks.append(_check("birth_below_linearization", worst_lin + 1e-15))

    # exactly two fixed points on [0, 3 ln p]: 0 at the left end, and one
    # crossing of f(x) - x through 0 on the grid (numerics.level_crossings)
    xs = [3.0 * params.kappa * i / 2000 for i in range(2001)]
    count = len(level_crossings([birth(x, 0, params) - x for x in xs], 0.0))
    checks.append(_check("fixed_point_count", 1.0 if count == 1 else -1.0))

    # feedback flips across the p threshold near 17
    flip = feedback_holds(ModelParams(p=16.0, tau=0.07)) and \
        not feedback_holds(ModelParams(p=18.0, tau=0.07))
    checks.append(_check("feedback_flips_16_to_18", 1.0 if flip else -1.0))

    ok_gsc = gsc_holds(ModelParams(p=365.0, tau=0.07)) and \
        not gsc_holds(ModelParams(p=365.0, tau=5.0))
    checks.append(_check("gsc_examples", 1.0 if ok_gsc else -1.0))
    return checks


def run_suite(name: str,
              grid: int | None = None) -> tuple[bool, list[Check]]:
    suites = {
        "regions": _suite_regions,
        "series": _suite_series,
        "model": _suite_model,
    }
    if name not in suites:
        raise ValueError(f"unknown suite {name!r}")
    checks = suites[name](grid)
    return all(passed for _, _, _, passed in checks), checks
