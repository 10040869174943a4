"""A frozen reference computation that gauges the machine's current speed.

On a shared machine the speed of this kind of code drifts by 20-40% over
tens of seconds to minutes. The benchmark times this reference between
its operations and reports each time metric scaled to the reference's
nominal speed (see README.md, "Speed reference"). The reference imports
nothing from nmwaves, so a change to the library never changes it; it
mixes the kinds of work the library's hot paths do: scalar adaptive
quadrature with closures, bracketed root finding, tuple arithmetic, and
numpy stencils with a banded solve on arrays of a few thousand cells.

Do not edit it: a different reference changes every reported time.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import solve_banded

# Wall time of one reference() call at the nominal speed: the median on
# the 2-core x86-64 machine the benchmark was defined on.
NOMINAL_S = 0.035


def _simpson(f, a: float, b: float, atol: float, depth: int) -> float:
    def rec(a, fa, b, fb, m, fm, whole, atol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * atol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, fa, m, fm, lm, flm, left, atol / 2, depth - 1)
                + rec(m, fm, b, fb, rm, frm, right, atol / 2, depth - 1))
    fa, fb, m = f(a), f(b), 0.5 * (a + b)
    fm = f(m)
    return rec(a, fa, b, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb),
               atol, depth)


def _quadrature() -> float:
    acc = 0.0
    for k in range(16):
        z, s = 1.0 + 0.35 * k, 0.3 + 0.1 * k
        q = max(1, math.ceil(5.0 / s))
        a = q * s - 1.0
        acc += _simpson(lambda w: w ** a * math.exp(-z * w ** q),
                        0.0, 1.0, 1e-11, 40)
    return acc


def _roots() -> float:
    acc = 0.0
    for k in range(300):
        c = 1.0 + 0.025 * k
        f = lambda x: x * math.exp(-x / c) - math.log1p(x) * 0.3 - 0.1
        lo, hi = 0.5, 40.0
        flo, fhi = f(lo), f(hi)
        for _ in range(60):
            if hi - lo <= 1e-12:
                break
            xs = hi - fhi * (hi - lo) / (fhi - flo)
            guard = 0.01 * (hi - lo)
            if not lo + guard < xs < hi - guard:
                xs = 0.5 * (lo + hi)
            fx = f(xs)
            if flo * fx < 0.0:
                hi, fhi = xs, fx
            else:
                lo, flo = xs, fx
        acc += 0.5 * (lo + hi)
    return acc


def _series() -> float:
    a = tuple(1.0 / (k + 1) for k in range(24))
    acc = a
    for _ in range(150):
        acc = tuple(sum(acc[i] * a[k - i] for i in range(k + 1)) / (k + 1)
                    for k in range(len(a)))
    return sum(acc)


def _stencil() -> float:
    n, dt, dx = 4001, 0.002, 0.05
    x = -50.0 + dx * np.arange(n)
    u = 1.0 / (1.0 + np.exp(-x))
    lam = dt / dx ** 2
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1, :], ab[2, :-1] = -0.5 * lam, 1.0 + lam, -0.5 * lam
    for step in range(100):
        lap = np.zeros_like(u)
        lap[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        rhs = u + 0.5 * lam * lap + dt * 3.0 * u * np.exp(-u)
        u = solve_banded((1, 1), ab, rhs) if step % 4 == 0 else rhs
    return float(u.sum())


def reference() -> float:
    """One reference computation; returns a checksum of its results."""
    return _quadrature() + _roots() + _series() + _stencil()


def timed() -> float:
    """Wall time of one reference() call."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
