"""Cross-module check: the fast wave approaches the infinite-speed limit.

The heteroclinic connection of the spatially homogeneous delay equation
is the infinite-speed limit of the wave profiles. Rescaling the measured
finite-speed profile by its own speed and aligning both at the
half-equilibrium crossing, the two curves should agree across the front
to within the discretization error of the simulation.
"""

import numpy as np

from nmwaves.diagnostics import diagnose
from nmwaves.dirichlet import build
from nmwaves.heteroclinic import integrate
from nmwaves.model import ModelParams
from nmwaves.pde import front_position, preset, simulate

PARAMS = ModelParams(p=365.0, tau=0.07)


def test_rescaled_wave_matches_heteroclinic_limit():
    lnp = PARAMS.kappa
    expansion = build(PARAMS)
    traj = integrate(expansion)

    record = simulate(preset("fast-front"))
    diag = diagnose(record)
    c = diag.speed.speed
    t_last, u_last = record.snapshots[-1]
    s = (record.x - diag.speed.slope * t_last) / c

    # align the half-level crossings of both representations
    s0 = front_position(s, u_last, 0.5 * lnp)
    g = traj.u - 0.5 * lnp
    i = int(np.nonzero(g[:-1] * g[1:] < 0.0)[0][0])
    t0 = float(traj.t[i] + traj.h * g[i] / (g[i] - g[i + 1]))

    peak_pde = float(np.max(u_last))
    peak_het = float(np.max(traj.u))
    assert abs(peak_pde - peak_het) <= 0.2

    def heteroclinic(t):
        # the series is the solution below the integrator handoff
        if t < float(traj.t[0]):
            return expansion.evaluate(t)
        return traj.interpolate(t)

    worst = 0.0
    for off in np.linspace(-0.2, 0.6, 81):
        u_pde = float(np.interp(s0 + off, s, u_last))
        worst = max(worst, abs(u_pde - heteroclinic(float(t0 + off))))
    assert worst <= 0.25, worst
