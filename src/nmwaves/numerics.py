"""Shared numerical kernels.

Provides the low-level machinery the rest of the package is built on:
bracket growth by doubling, bracketed root finding (Chandrupatla's
method for scalars, lockstep bisection over arrays) and the one
grow-and-solve search for the root of an increasing function
(increasing_root), adaptive Gauss-Kronrod 7/15 quadrature vectorised
over subintervals, the lower incomplete gamma function (array-valued),
level crossings, monotonicity and the one tail rule of samples
(sampled_tail, TrajectoryTail), a factor-once tridiagonal Toeplitz
solve (Thomas pivots, each substitution run over blocks of BLOCK rows as
one matrix product), cubic Hermite interpolation and golden-section
maximisation.
Series products and line fits are numpy's (np.convolve, np.polyfit).

level_crossings is the one reader of sign changes in sampled arrays:
crossings, maxima (u' falling through 0) and fixed points, past level_tol.

All routines are pure functions of their inputs, except that
ToeplitzTridiagonal.solve writes into the array it is given (and into
buffers of its own). The bracket solvers take ends lo < hi and have one
stopping rule, with no tolerance or step cap: a solve ends once its
bracket's midpoint rounds onto an end, that is at adjacent floats, or
once f is exactly 0 (solve_bracketed). Which half keeps the root is
decided by signs alone, never by a product of two values of f.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np


class NoSignChange(ValueError):
    """The supplied bracket does not straddle a sign change."""


class DomainError(RuntimeError):
    """Base of the package's own errors: an input the methods cannot handle."""


class BracketingError(DomainError):
    """A root bracket could not be established; details in the message."""


class QuadratureError(DomainError):
    """Adaptive refinement hit its depth limit.

    The best available estimate is attached as ``.estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def double_until(holds: Callable, start, what: str):
    """Per lane, the first of start, 2 start, 4 start, ... at which holds.

    start is a float or an array; holds maps a value of start's shape to
    a bool of that shape, and must be False wherever its inputs give NaN,
    so that a NaN never ends a search. Lanes stop independently. A lane
    that would double past the largest float raises BracketingError,
    whose message starts with what.
    """
    failed = f"{what} failed: no bracket within the float range"
    if np.ndim(start) == 0:
        x = start
        while not holds(x):
            if not abs(x) < 2.0 ** 1023:  # else 2 x overflows
                raise BracketingError(failed)
            x = 2.0 * x
        return x
    x = np.asarray(start, dtype=float)
    pending = ~holds(x)
    while pending.any():
        if not np.all(np.abs(x[pending]) < 2.0 ** 1023):
            raise BracketingError(failed)
        x = x * (1.0 + pending)  # doubles the pending lanes
        pending &= ~holds(x)
    return x


def solve_bracketed(f: Callable[[float], float], lo: float,
                    hi: float) -> float:
    """Root of f inside a sign-changing bracket, by Chandrupatla's method.

    Each step evaluates f at a + t (b - a), where a is the newest point and
    b the opposite end of the bracket. t is the inverse quadratic
    interpolation through the last three points when that interpolant is
    monotone on the bracket, else 1/2 (T. R. Chandrupatla, Adv. Eng.
    Software 28, 1997). Equal function values fail the interpolation test
    and bisect, and so does the step after one that rounds onto an end,
    so at least every second step shrinks the bracket until the stop.
    Deterministic for fixed inputs.

    Args:
        f: continuous scalar function.
        lo, hi: bracket ends, lo < hi, with f(lo)*f(hi) <= 0.

    Returns:
        The midpoint of the final bracket, two adjacent floats; an exact
        zero of f as soon as one is evaluated.

    Raises:
        ValueError: unless lo < hi.
        NoSignChange: if f has the same (nonzero) sign at both endpoints.
    """
    if not lo < hi:
        raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise NoSignChange(f"f({a})={fa} and f({b})={fb} have the same sign")
    t = 0.5
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        x = a + t * (b - a)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            c, fc = a, fa
        else:
            c, fc = b, fb
            b, fb = a, fa
        a, fa = x, fx
        # c lies beyond a, on the side away from b, and fc has the sign of fa
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5


def bisect_lockstep(g: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
                    b: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """Sign changes of g on the brackets [a, b], bisected in lockstep.

    The array counterpart of solve_bracketed: g is evaluated on all
    midpoints at once. Only the sign of ga = g(a) is read, as the left
    ends keep it: a bracket (a <= b) keeps its left half where g at the
    midpoint has the other sign or is 0, and a lane with g(a) = 0 returns
    a. The step in which no midpoint lies strictly inside its bracket
    (all are adjacent floats) is the last; each step before it halves
    every open bracket, at most about 2,100 times (widths are below
    2^1025, float spacings at least 2^-1074).
    """
    b = np.where(ga == 0.0, a, b)
    negative = ga < 0.0
    while True:
        m = 0.5 * (a + b)
        done = not np.any((a < m) & (m < b))
        gm = g(m)
        left = np.where(negative, gm >= 0.0, gm <= 0.0)
        b = np.where(left, m, b)
        a = np.where(left, a, m)
        if done:
            return 0.5 * (a + b)


def bracketed_roots(g: Callable, lo, hi):
    """Sign changes of g on the brackets [lo, hi], to rounding level.

    The one place that picks a bracket solver: a 0-d bracket (lo < hi)
    goes to solve_bracketed and gives a float, since a one-lane
    bisect_lockstep pays numpy's call overhead on each of its 50 or more
    steps; arrays go to bisect_lockstep.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim == 0:
        return solve_bracketed(lambda x: float(g(x)), float(lo), float(hi))
    return bisect_lockstep(g, lo, hi, g(lo))


@np.errstate(all="ignore")
def increasing_root(g: Callable, shape, what: str):
    """Root in x > 0 of g, increasing from g(0) < 0, per lane of shape:
    double_until grows each lane's end hi from 1 until g(hi) >= 0, and
    bracketed_roots solves [0, hi] to rounding level (a float for shape
    ()). g may overflow; its values decide, so numpy stays quiet."""
    hi = double_until(lambda x: g(x) >= 0.0, np.ones(shape)[()], what)
    return bracketed_roots(g, np.zeros(shape), hi)


# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15), listed for the
# nodes x >= 0 from x = 1 down to the centre: the Kronrod nodes and
# weights, and the 7-point Gauss weights on the same nodes (zero at the
# Kronrod-only ones). The rule is symmetric about 0.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_K15_WEIGHTS = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G7_WEIGHTS = np.concatenate((_WG[:-1], _WG[::-1]))


# integrate_adaptive's target, relative to 1 + |integral|, and halvings
QUAD_TOL = 1e-12
QUAD_MAX_DEPTH = 16


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float,
                       b: float) -> float:
    """Adaptive Gauss-Kronrod 7/15 integration of a smooth integrand on [a, b].

    f is a numpy integrand: it maps an array of abscissae to the array of
    integrand values. Every pass calls f once, on the 15 nodes of every
    subinterval not yet accepted. A subinterval is accepted when
    |K15 - G7|, the difference of its Kronrod and Gauss values, is within
    its share of the target: QUAD_TOL (1 + |K|) times its width over
    b - a, with K the first pass's Kronrod value. The others are halved
    for the next pass. The accepted Kronrod values sum to a result with
    |result - true| <= QUAD_TOL (1 + |result|) for integrands smooth
    enough on the accepted subintervals.

    Raises:
        QuadratureError: subintervals were still unaccepted after
            QUAD_MAX_DEPTH halvings; the exception carries the best
            estimate. Each pass at most doubles the pending subintervals,
            so QUAD_MAX_DEPTH also bounds the memory.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    lo, hi = np.array([a]), np.array([b])
    share = None
    total = 0.0
    for depth in range(QUAD_MAX_DEPTH + 1):
        half = 0.5 * (hi - lo)
        centre = 0.5 * (lo + hi)
        fx = f(centre[:, None] + half[:, None] * _GK_NODES)
        kronrod = half * (fx @ _K15_WEIGHTS)
        err = np.abs(kronrod - half * (fx @ _G7_WEIGHTS))
        if share is None:
            share = QUAD_TOL * (1.0 + abs(float(kronrod[0]))) / (b - a)
        done = err <= share * (hi - lo)
        total += float(kronrod[done].sum())
        if done.all():
            return sign * total
        if depth == QUAD_MAX_DEPTH:
            break
        lo, hi = lo[~done], hi[~done]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    pending = ~done
    raise QuadratureError(
        f"quadrature did not converge on {int(pending.sum())} subinterval(s) "
        f"after {QUAD_MAX_DEPTH} halvings (worst local error estimate "
        f"{float(np.max(err[pending])):.3e})",
        estimate=sign * (total + float(kronrod[pending].sum())))


def lower_incomplete_gamma(z, s):
    """Lower incomplete gamma integral(0..z) t^(s-1) e^(-t) dt.

    Argument order is (integration limit, exponent); both may be numpy
    arrays, which broadcast. Evaluated by the series

        z^s e^{-z} sum_{k>=0} z^k / (s (s+1) ... (s+k)),

    whose terms are positive. Summation stops at the first k where
    bound_k = min(1, bound_{k-1} z_max / (s_min + k)), a bound on every
    element's last term over its sum, is below 1e-17. The count grows like
    z: the series suits the limits z <= 1 of the peak bound zeta (18
    terms). Scalar inputs give a 0-d result.

    Strictly increasing in z for fixed s.

    Raises:
        ValueError: any z < 0 or infinite, or any s <= 0.
    """
    z = np.asarray(z, dtype=float)
    s = np.asarray(s, dtype=float)
    z_max = float(np.max(z, initial=0.0))  # nan for any nan
    s_min = float(np.min(s, initial=np.inf))
    if not (np.min(z, initial=0.0) >= 0.0 and z_max < np.inf):
        raise ValueError(f"limit must be finite and >= 0, got {z}")
    if not s_min > 0.0:
        raise ValueError(f"exponent must be > 0, got {s}")
    term = total = 1.0 / s
    k, bound = 0.0, 1.0  # later terms are below half an ulp of any sum
    while bound > 1e-17:
        k += 1.0
        bound = min(1.0, bound * z_max / (s_min + k))
        term = term * z / (s + k)
        total = total + term
    return z ** s * np.exp(-z) * total


# ---------------------------------------------------------------------------
# level crossings and monotonicity of samples
# ---------------------------------------------------------------------------

def level_tol(level: float) -> float:
    """Deviation from a level that is rounding noise, not a departure."""
    return 1e-12 * (1.0 + abs(level))


# above this many candidates level_crossings tests them in arrays
_LOOP_CANDIDATES = 32


def level_crossings(u, level: float) -> list[int]:
    """Indices i where the samples u cross the level, in order.

    Either u - level changes sign strictly from u[i] to u[i+1], or u[i]
    is an interior sample exactly on the level between samples of
    opposite sign (a touch that crosses). A sign change counts only when
    one side deviates from the level by more than level_tol(level).
    """
    s = np.asarray(u, dtype=float) - level
    tol = level_tol(level)
    # every crossing has s[i] s[i+1] <= 0, or nan for 0 * inf
    candidates = (~(s[:-1] * s[1:] > 0.0)).nonzero()[0]
    if len(candidates) > _LOOP_CANDIDATES:
        # a tail rounded onto the level gives runs of exact zeros and
        # thousands of candidates: the same test in arrays
        i = candidates
        a, b = s[i], s[i + 1]
        a = np.where((a == 0.0) & (i > 0), s[i - 1], a)
        keep = ((((a < 0.0) & (0.0 < b)) | ((b < 0.0) & (0.0 < a)))
                & (np.maximum(np.abs(a), np.abs(b)) > tol))
        return i[keep].tolist()
    # a plain loop over a few candidates is cheaper than the array passes
    found = []
    for i in candidates.tolist():
        a, b = float(s[i]), float(s[i + 1])
        if a == 0.0 and i > 0:
            a = float(s[i - 1])
        if (a < 0.0 < b or b < 0.0 < a) and max(abs(a), abs(b)) > tol:
            found.append(i)
    return found


def crossing_points(x, u, level: float, idx=None) -> list[float]:
    """Abscissae of the crossings idx (default level_crossings(u, level)),
    linear in x between samples."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = []  # a loop: simulate calls this every step, mostly for 1 point
    for i in level_crossings(u, level) if idx is None else idx:
        a, b = u[i] - level, u[i + 1] - level
        out.append(float(x[i] + (x[i + 1] - x[i]) * a / (a - b)))
    return out


def is_monotone(u, tol: float) -> bool:
    """Whether successive samples never fall, or never rise, by more than tol."""
    d = np.diff(u)
    return bool(np.all(d >= -tol) or np.all(d <= tol))


class TrajectoryTail(Enum):
    """Tail at ln p: the linear class (charroots.classify_tail) or the one
    read from samples, INCONCLUSIVE where sampled_tail leaves it undecided
    or heteroclinic.nm_verdict does not start its run."""
    MONOTONE_TAIL = "monotone_tail"
    OSCILLATING = "oscillating"
    INCONCLUSIVE = "inconclusive"


def sampled_tail(s, u, level: float, idx, start: float,
                 window: float | None) -> tuple[TrajectoryTail, str | None]:
    """(tail class, reason) of arrays u at increasing s about the level,
    with idx = level_crossings(u, level); only INCONCLUSIVE has a reason.

    q = start + 3/4 (s[-1] - start) is the quarter mark, and the tail is
    monotone (at level_tol) over s >= s[-1] - window, or s >= q for
    window None. Two crossings at or after q (crossing_points) are
    OSCILLATING; else a monotone tail whose end deviation is below 1e-6,
    or below 1/1000 of the largest one after the last crossing (below the
    one at q without crossings), is MONOTONE_TAIL; else a last crossing at
    or after q is OSCILLATING, and anything else INCONCLUSIVE.
    """
    end = float(s[-1])
    q = start + 0.75 * (end - start)
    late = sum(c >= q for c in crossing_points(s, u, level, idx[-2:]))
    if late == 2:
        return TrajectoryTail.OSCILLATING, None
    lo = q if window is None else end - window
    monotone = is_monotone(u[s >= lo], level_tol(level))
    dev_end = abs(float(u[-1]) - level)
    if len(idx):
        i = int(idx[-1])
        amp = float(np.max(np.abs(u[i + int(u[i] != level):] - level)))
        if monotone and (dev_end <= amp / 1e3 or dev_end < 1e-6):
            return TrajectoryTail.MONOTONE_TAIL, None
        if late:
            return TrajectoryTail.OSCILLATING, None
        return TrajectoryTail.INCONCLUSIVE, (
            f"tail not settled by the last sample, at {end}: deviation "
            f"{dev_end:.3e}, post-crossing amplitude {amp:.3e}")
    dev_ref = abs(float(u[np.searchsorted(s, q)]) - level)
    if monotone and (dev_end < dev_ref or dev_end < 1e-6):
        return TrajectoryTail.MONOTONE_TAIL, None
    return TrajectoryTail.INCONCLUSIVE, (
        f"no crossings and no trend by the last sample, at {end}")


# ---------------------------------------------------------------------------
# tridiagonal Toeplitz solve
# ---------------------------------------------------------------------------

BLOCK = 64  # rows per block of ToeplitzTridiagonal.solve


class ToeplitzTridiagonal:
    """The m x m matrix with ``diag`` on the diagonal and ``off`` on both
    off-diagonals, factored once for repeated solves.

    Thomas elimination: the pivots b_0 = diag, b_i = diag - off^2/b_{i-1}
    are computed here. Once a pivot repeats its predecessor to the bit,
    every later one does, and the loop stops (at row 27 on fast-front's
    matrix, diag = 5.005 and off = -2). Forward and back substitution are
    the first-order recurrences y_i = f_i + a_i y_{i-1} with
    a_i = -off/b_{i-1}, and x_i = y_i/b_i + c_i x_{i+1} with c_i = -off/b_i.

    Both run in blocks of BLOCK rows, the last one padded with zero rows.
    A block's rows followed by its carry (the y just before the block, the
    x just after it) times a (BLOCK + 1) x BLOCK propagator give the
    block's y or x. The propagator holds the coefficient products:
    lower-triangular forward, upper-triangular with 1/b folded in
    backward, and the carry's products in its last row. The blocks after
    the pivots settle share one propagator and run as one matrix product.
    Their carries, the block ends, are a first-order recurrence over the
    blocks with one constant coefficient: one matrix-vector product gives
    each block's end without its carry, and recursive doubling adds the
    carries. The head blocks before them keep their own propagators and
    run one at a time, so storage is O(m BLOCK), never m^2.

    Requires diag > 2|off| (strict diagonal dominance), which keeps every
    pivot above |off| and so every coefficient below 1 in magnitude: the
    products decay geometrically. Products below the smallest normal
    float are set to 0, so a dropped term is below that float times
    max |f|. Every term is a product of coefficients times one f, as in
    sequential elimination, so the far tail of a solution spanning
    hundreds of decades keeps its relative accuracy.
    """

    def __init__(self, m: int, diag: float, off: float):
        if not diag > 2.0 * abs(off):
            raise ValueError(
                f"need diag > 2|off|, got diag = {diag}, off = {off}")
        B = BLOCK
        nb = max(1, -(-m // B))
        pivots = [float(diag)]
        while len(pivots) < nb * B:
            b = diag - off * off / pivots[-1]
            if b == pivots[-1]:
                break
            pivots.append(b)
        self.pivots = np.full(m, pivots[-1])
        self.pivots[:len(pivots)] = pivots[:m]
        # the head: every block with a row at or before the first settled
        # pivot (a block's first coefficient reads the pivot before it);
        # propagators are built for it and for one settled block
        head = min(nb, (len(pivots) - 1 + B) // B)
        b = np.full((head + 1) * B, pivots[-1])
        b[:len(pivots)] = pivots
        ratio = -off / b
        fwd, bwd = _block_propagators(
            np.concatenate(([0.0], ratio[:-1])).reshape(-1, B),
            ratio.reshape(-1, B), b.reshape(-1, B))
        self._head_fwd, self._head_bwd = fwd[:head], bwd[:head]
        self._fwd, self._bwd = fwd[head], bwd[head]
        # a settled block's end without its carry
        self._fwd_end = fwd[head, :B, B - 1].copy()
        self._bwd_end = bwd[head, :B, 0].copy()
        self.m, self._head, self._split = m, head, nb * B - B
        # solve's buffers: x = [f | y before], y = [y | x after], z = x
        # with a zero row after the last block; x's padded rows stay 0.
        # Its views are made here, since slicing them in each solve costs
        # about as much as the products.
        x = self._x = np.zeros((nb, B + 1))
        y = self._y = np.zeros((nb, B + 1))
        z = self._z = np.zeros((nb + 1, B))
        v = self._v = np.empty(nb - head + 1)  # carries of the settled blocks
        t = np.empty_like(v)
        rest = m - self._split
        self._rows = (x[:-1, :B], x[-1, :rest], z.reshape(-1)[:m])
        self._pad = y[-1, rest:B]
        self._settled = (x[head:], y[head:], z[head:-1])
        self._ends = (v[1:], v[:-1])
        self._fwd_steps = [(g, v[:-s], t[:-s], v[s:]) for s, g in
                           _doubling_levels(fwd[head, B, B - 1], len(v))]
        self._bwd_steps = [(h, v[s:], t[s:], v[:-s]) for s, h in
                           _doubling_levels(bwd[head, B, 0], len(v))]

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the solution x of A x = rhs into ``out`` and return it;
        ``out`` may be rhs itself, which is then solved in place."""
        B, head = BLOCK, self._head
        x, y, z, v = self._x, self._y, self._z, self._v
        body, last, solution = self._rows
        xs, ys, zs = self._settled
        hi, lo = self._ends
        body[...] = rhs[:self._split].reshape(-1, B)
        last[...] = rhs[self._split:]
        # forward sweep: the head block by block, then the settled blocks
        for j in range(head):
            if j:
                x[j, B] = y[j - 1, B - 1]
            np.dot(x[j], self._head_fwd[j], out=y[j, :B])
        v[0] = y[head - 1, B - 1]
        np.dot(xs[:, :B], self._fwd_end, out=hi)
        for g, src, tmp, dst in self._fwd_steps:
            np.multiply(src, g, out=tmp)
            dst += tmp
        xs[:, B] = lo
        np.matmul(xs, self._fwd, out=ys[:, :B])
        self._pad[...] = 0.0
        # back sweep: the settled blocks, then the head from its end
        v[-1] = 0.0
        np.dot(ys[:, :B], self._bwd_end, out=lo)
        for h, src, tmp, dst in self._bwd_steps:
            np.multiply(src, h, out=tmp)
            dst += tmp
        ys[:, B] = hi
        np.matmul(ys, self._bwd, out=zs)
        for j in range(head - 1, -1, -1):
            y[j, B] = z[j + 1, 0]
            np.dot(y[j], self._head_bwd[j], out=z[j])
        out[...] = solution
        return out


def _block_propagators(a: np.ndarray, c: np.ndarray,
                       b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward (k, B + 1, B) propagators of k blocks with
    coefficients a, c and pivots b, each (k, B).

    Forward F[l, i] = a_{l+1} ... a_i for l <= i, and F[B, i] = a_0 ... a_i
    multiplies the y before the block. Backward R[l, i] =
    c_i ... c_{l-1} / b_l for l >= i, and R[B, i] = c_i ... c_{B-1}
    multiplies the x after it. Entries below the smallest normal float
    are 0.
    """
    k, B = a.shape
    later = np.triu(np.ones((B, B), dtype=bool), 1)  # [l, i] with i > l
    F = np.empty((k, B + 1, B))
    F[:, :B] = np.triu(np.cumprod(np.where(later, a[:, None, :], 1.0),
                                  axis=2))
    F[:, B] = np.cumprod(a, axis=1)
    R = np.empty((k, B + 1, B))
    R[:, :B] = np.tril(np.cumprod(np.where(later.T, c[:, None, :], 1.0)
                                  [:, :, ::-1], axis=2)[:, :, ::-1])
    R[:, :B] /= b[:, :, None]
    R[:, B] = np.cumprod(c[:, ::-1], axis=1)[:, ::-1]
    for P in (F, R):
        P[np.abs(P) < np.finfo(float).tiny] = 0.0
    return F, R


def _doubling_levels(g: float, n: int) -> list[tuple[int, float]]:
    """(2^k, g^(2^k)) for the levels k of recursive doubling over n values
    of y_i = f_i + g y_{i-1}, up to the first power below the smallest
    normal float."""
    levels, s = [], 1
    while s < n and abs(g) >= np.finfo(float).tiny:
        levels.append((s, g))
        g *= g
        s *= 2
    return levels


# ---------------------------------------------------------------------------
# interpolation and maximisation
# ---------------------------------------------------------------------------

def hermite_cubic(t0: float, t1: float, y0: float, y1: float,
                  dy0: float, dy1: float, t: float) -> float:
    """Cubic Hermite interpolant on [t0, t1] evaluated at t."""
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * dy0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * dy1)


def golden_section_max(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10) -> float:
    """Abscissa of the maximum of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)
