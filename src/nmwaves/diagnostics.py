"""Front speed, comoving profile and shape class extraction.

Works on plain arrays so it applies equally to simulation snapshots and
to heteroclinic trajectories. The shape taxonomy: Monotone profiles never
cross the positive equilibrium more than once; non-monotone
non-oscillating profiles overshoot it at least once but settle into a
monotone tail; oscillating profiles keep crossing it arbitrarily far
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import ModelParams
from .numerics import crossing_points, is_monotone, level_crossings
from .pde import SpacetimeRecord, tracking_level


class ProfileShape(Enum):
    MONOTONE = "monotone"
    NON_MONOTONE_NON_OSCILLATING = "non_monotone_non_oscillating"
    OSCILLATING = "oscillating"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpeedEstimate:
    speed: float          # |slope| of the tracked position
    stderr: float
    direction: int        # -1 moving left, +1 moving right
    slope: float


@dataclass(frozen=True)
class FrontDiagnostics:
    speed: SpeedEstimate
    level: float
    shape: ProfileShape
    overshoot: float            # max u - ln p
    crossings_of_kappa: int


def estimate_speed(times: Sequence[float],
                   positions: Sequence[float]) -> SpeedEstimate:
    """Least-squares front speed from tracked positions.

    The fit uses the trailing half of the track (the early part is
    transient) and needs at least 5 finite points there.
    """
    t = np.asarray(times, dtype=float)
    p = np.asarray(positions, dtype=float)
    keep = np.isfinite(p)
    t, p = t[keep], p[keep]
    if len(t) == 0:
        raise ValueError("no finite tracked positions")
    t_cut = t[-1] - 0.5 * (t[-1] - t[0])
    sel = t >= t_cut
    if int(np.sum(sel)) < 5:
        raise ValueError(
            f"need at least 5 tracked positions in the fit window, "
            f"got {int(np.sum(sel))}")
    t, p = t[sel], p[sel]
    if t.min() == t.max():
        raise ValueError("degenerate fit window: every time is equal")
    # cov scales the slope's variance by the residual over n - 2
    coef, cov = np.polyfit(t, p, 1, cov=True)
    slope = float(coef[0])
    return SpeedEstimate(speed=abs(slope), stderr=float(np.sqrt(cov[0, 0])),
                         direction=-1 if slope < 0.0 else 1, slope=slope)


def classify_profile(xi: Sequence[float], u: Sequence[float],
                     params: ModelParams,
                     speed: float | None = None) -> ProfileShape:
    """Shape class of a resolved profile (at least 50 points).

    Monotone: the discrete derivative is single-signed up to a 1e-9
    relative tolerance. Oscillating: equilibrium crossings continue into
    the last quarter of the profile. Non-monotone non-oscillating: at
    least one interior maximum above ln p, a monotone last quarter of the
    transition, and finitely many equilibrium crossings separated by more
    than tau * speed (checked when the speed is known). Anything else is
    inconclusive.

    The classification depends only on orderings and crossings, so it is
    invariant under rescaling of the profile coordinate.
    """
    xi = np.asarray(xi, dtype=float)
    u = np.asarray(u, dtype=float)
    if len(xi) < 50:
        raise ValueError(f"profile too coarse: {len(xi)} points")
    if xi[0] > xi[-1]:
        xi, u = xi[::-1], u[::-1]
    kappa = params.kappa
    scale = float(np.max(np.abs(u))) + 1.0
    tol = 1e-9 * scale

    if is_monotone(u, tol):
        return ProfileShape.MONOTONE

    crossings = crossing_points(xi, u, kappa)
    xi_last_quarter = xi[0] + 0.75 * (xi[-1] - xi[0])
    late = [c for c in crossings if c >= xi_last_quarter]
    if len(late) >= 2:
        return ProfileShape.OSCILLATING

    has_peak = float(np.max(u)) > kappa + tol
    tail_monotone = is_monotone(u[xi >= xi_last_quarter], tol)
    gaps_ok = True
    if speed is not None and len(crossings) >= 2:
        min_gap = params.tau * speed
        gaps = np.diff(crossings)
        gaps_ok = bool(np.all(gaps > min_gap))
    if has_peak and tail_monotone and gaps_ok:
        return ProfileShape.NON_MONOTONE_NON_OSCILLATING
    return ProfileShape.INCONCLUSIVE


def diagnose(record: SpacetimeRecord,
             params: ModelParams | None = None) -> FrontDiagnostics:
    """Full diagnostics from a simulation record.

    Speed from the tracked front positions; the shape is classified on
    the last snapshot shifted by the fitted motion, xi = x - slope * t.
    params defaults to record.config.params.
    """
    if params is None:
        params = record.config.params
    times = [t for t, _ in record.front_track]
    positions = [pos for _, pos in record.front_track]
    est = estimate_speed(times, positions)
    t_last, u_last = record.snapshots[-1]
    xi = record.x - est.slope * t_last
    shape = classify_profile(xi, u_last, params, speed=est.speed)
    overshoot = float(np.max(u_last)) - params.kappa
    n_crossings = len(level_crossings(u_last, params.kappa))
    return FrontDiagnostics(speed=est, level=tracking_level(params),
                            shape=shape, overshoot=overshoot,
                            crossings_of_kappa=n_crossings)


def diagnostics_to_dict(diag: FrontDiagnostics) -> dict:
    return {
        "speed": diag.speed.speed,
        "speed_stderr": diag.speed.stderr,
        "direction": diag.speed.direction,
        "tracking_level": diag.level,
        "shape": diag.shape.value,
        "overshoot": diag.overshoot,
        "crossings_of_kappa": diag.crossings_of_kappa,
    }
