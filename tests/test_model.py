"""Tests for the birth nonlinearity and its hypothesis checks."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from nmwaves.model import ModelParams, birth, feedback_holds, gsc_holds, schwarz
from nmwaves.numerics import solve_bracketed


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(p=1.0, tau=0.1)
    with pytest.raises(ValueError):
        ModelParams(p=2.0, tau=-0.1)


@pytest.mark.parametrize("p, tau, name", [(math.inf, 0.1, "p"),
                                          (math.nan, 0.1, "p"),
                                          (2.0, math.inf, "tau"),
                                          (2.0, math.nan, "tau")])
def test_params_must_be_finite(p, tau, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ModelParams(p=p, tau=tau)


def test_derived_constants():
    params = ModelParams(p=365.0, tau=0.07)
    assert abs(params.kappa - math.log(365.0)) <= 1e-15
    assert abs(params.P - (math.log(365.0) - 1.0)) <= 1e-15
    assert abs(birth(params.kappa, 0, params) - params.kappa) <= 1e-12
    # x = 1 is the unique maximum
    assert abs(birth(1.0, 1, params)) <= 1e-12
    assert birth(1.0, 2, params) < 0.0
    assert abs(params.f_max - 365.0 / math.e) <= 1e-12


def test_birth_values():
    params = ModelParams(p=365.0, tau=0.07)
    assert abs(birth(0.0, 1, params) - 365.0) <= 1e-12
    assert abs(birth(math.log(365.0), 0, params) - math.log(365.0)) <= 1e-12
    assert abs(birth(1.0, 0, params) - 365.0 / math.e) <= 1e-12


def test_birth_derivatives_match_finite_differences():
    params = ModelParams(p=7.3, tau=0.2)
    h = 1e-5
    for u in (0.3, 1.7, 4.0):
        for order in (1, 2, 3):
            fd = (birth(u + h, order - 1, params)
                  - birth(u - h, order - 1, params)) / (2.0 * h)
            assert abs(birth(u, order, params) - fd) <= 1e-7 * (1.0 + abs(fd))


def test_birth_bad_order():
    with pytest.raises(ValueError):
        birth(1.0, 4, ModelParams(p=2.0, tau=0.0))


def test_schwarz_closed_form_values():
    params = ModelParams(p=365.0, tau=0.07)
    # f'' vanishes at u = 2
    assert abs(schwarz(2.0, params) - (-1.0)) <= 1e-14
    assert abs(schwarz(0.5, params) - (-8.5)) <= 1e-12
    assert abs(schwarz(3.0, params) - (-0.375)) <= 1e-12


def test_schwarz_against_finite_differences():
    # h large enough that the third-difference survives double rounding
    params = ModelParams(p=11.0, tau=0.1)
    h = 2e-3
    for u in (0.5, 2.5, 6.0):
        d1 = (birth(u + h, 0, params) - birth(u - h, 0, params)) / (2 * h)
        d2 = (birth(u + h, 0, params) - 2 * birth(u, 0, params)
              + birth(u - h, 0, params)) / (h * h)
        d3 = (birth(u + 2 * h, 0, params) - 2 * birth(u + h, 0, params)
              + 2 * birth(u - h, 0, params) - birth(u - 2 * h, 0, params)) \
            / (2 * h ** 3)
        fd = d3 / d1 - 1.5 * (d2 / d1) ** 2
        assert abs(schwarz(u, params) - fd) <= 1e-4 * (1.0 + abs(fd))


def test_schwarz_amplitude_invariance():
    a = ModelParams(p=2.5, tau=0.1)
    b = ModelParams(p=900.0, tau=0.1)
    for u in (0.2, 0.9, 1.5, 7.0, 30.0):
        assert abs(schwarz(u, a) - schwarz(u, b)) <= 1e-14 * (1 + abs(schwarz(u, a)))


def test_schwarz_negative_on_log_grid():
    params = ModelParams(p=365.0, tau=0.07)
    for i in range(400):
        u = 10.0 ** (-3.0 + 4.7 * i / 399)
        if abs(u - 1.0) < 1e-9:
            continue
        assert schwarz(u, params) < 0.0, u


def test_schwarz_domain():
    params = ModelParams(p=2.0, tau=0.0)
    with pytest.raises(ValueError):
        schwarz(0.0, params)
    with pytest.raises(ValueError):
        schwarz(1.0, params)


def test_birth_below_linearization():
    rng = random.Random(5)
    params = ModelParams(p=365.0, tau=0.07)
    for _ in range(200):
        u = rng.uniform(0.0, 60.0)
        assert birth(u, 0, params) <= params.p * u + 1e-12


def test_two_fixed_points():
    params = ModelParams(p=365.0, tau=0.07)
    f = lambda x: birth(x, 0, params) - x
    # x = 0 is a fixed point; exactly one interior crossing on (0, 3 ln p]
    xs = [1e-9 + (3.0 * params.kappa - 1e-9) * i / 4000 for i in range(4001)]
    crossings = [(a, b) for a, b in zip(xs[:-1], xs[1:]) if f(a) * f(b) < 0.0]
    assert len(crossings) == 1
    root = solve_bracketed(f, *crossings[0])
    assert abs(root - params.kappa) <= 1e-9


def test_feedback_examples():
    assert feedback_holds(ModelParams(p=10.0, tau=0.1)) is True
    assert feedback_holds(ModelParams(p=365.0, tau=0.07)) is False
    assert feedback_holds(ModelParams(p=math.e, tau=0.1)) is True


def test_feedback_threshold_flip():
    assert feedback_holds(ModelParams(p=16.0, tau=0.1)) is True
    assert feedback_holds(ModelParams(p=18.0, tau=0.1)) is False


def _feedback_on_grid(params, points=10_000):
    """The feedback condition checked on a dense grid of the open interval
    (f(f(1)), f(1)), kappa excluded: the reference for the endpoint
    analysis of feedback_holds, with its interval and tolerance."""
    f = lambda x: params.p * x * np.exp(-x)
    kappa = params.kappa
    b = birth(1.0, 0, params)
    a = birth(b, 0, params)
    tol = 1e-9 * (1.0 + kappa)
    if b - a <= tol:
        return True
    x = a + (b - a) * np.arange(1, points) / points
    x = x[np.abs(x - kappa) > tol]
    return bool(np.all((f(x) - kappa) * (x - kappa) < tol * tol))


def test_feedback_matches_dense_grid():
    rng = random.Random(1616)
    ps = [1e6 ** (1.0 - rng.random()) for _ in range(3000)]  # (1, 1e6]
    ps += [math.e * (1.0 - 1e-9), math.e * (1.0 + 1e-9)]
    ps += [16.0 + 0.01 * k for k in range(301)]
    holds = [feedback_holds(ModelParams(p=p, tau=0.1)) for p in ps]
    grid = [_feedback_on_grid(ModelParams(p=p, tau=0.1)) for p in ps]
    # ANDing the grid in never changes the endpoint answer: no violation
    # on the grid where the endpoint analysis finds none
    for p, h, g in zip(ps, holds, grid):
        assert (h and g) is h, p
    # the grid alone cannot decide: from p = 17 on, the violating
    # interval next to f(f(1)) is narrower than its spacing
    assert 0 < sum(holds) < sum(grid) < len(ps)


def test_gsc_examples():
    assert gsc_holds(ModelParams(p=365.0, tau=0.07)) is True
    assert gsc_holds(ModelParams(p=math.e ** 2, tau=3.0)) is True
    assert gsc_holds(ModelParams(p=365.0, tau=5.0)) is False


def test_gsc_inequality_sides():
    # the two sides behind the example verdicts at p = 365
    params = ModelParams(p=365.0, tau=0.07)
    P = params.P
    rhs = P * math.log((P * P + P) / (P * P + 1.0))
    assert abs(rhs - 0.7101) <= 1e-3
    assert abs(math.exp(-0.07) - 0.9324) <= 1e-4
    assert math.exp(-5.0) < rhs  # tau = 5 fails


def test_model_imports_only_charroots_from_the_package():
    # model is the bottom layer: it reaches charroots for the mu cache alone
    path = Path(__file__).resolve().parents[1] / "src" / "nmwaves" / "model.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module
                         else {alias.name for alias in node.names})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            imported |= {n.split(".")[1] for n in names
                         if n.startswith("nmwaves.")}
    assert imported == {"charroots"}
