"""Tests for the delayed reaction-diffusion simulator."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nmwaves.files import read_csv
from nmwaves.model import ModelParams
from nmwaves.numerics import ToeplitzTridiagonal
from nmwaves.pde import (MAX_HISTORY_VALUES, DirichletBC, ExpTail, Heaviside,
                         Scheme, SimConfig, SmoothStep, SpacetimeRecord,
                         config_from_dict, preset, simulate, write_front_csv,
                         write_metadata_json, write_snapshots_csv)

PARAMS = ModelParams(p=365.0, tau=0.07)
LNP = PARAMS.kappa


def _uniform_config(scheme, level, bc_value):
    # a domain entirely in x >= 0 makes the step initial datum uniform
    return SimConfig(params=PARAMS, x_lo=0.0, x_hi=10.0, dx=0.1, dt=0.07 / 20,
                     scheme=scheme, t_end=0.7, ic=Heaviside(level=level),
                     bc=DirichletBC(bc_value, bc_value), snapshot_times=(0.7,))


def test_equilibrium_preserved_at_lnp():
    for scheme in Scheme:
        cfg = _uniform_config(scheme, LNP, LNP)
        rec = simulate(cfg)
        _, u = rec.snapshots[-1]
        assert np.max(np.abs(u - LNP)) <= 1e-12, scheme


def test_equilibrium_preserved_at_zero():
    for scheme in Scheme:
        cfg = _uniform_config(scheme, 0.0, 0.0)
        rec = simulate(cfg)
        _, u = rec.snapshots[-1]
        assert np.max(np.abs(u)) <= 1e-12, scheme


def test_config_validations():
    good = dict(params=PARAMS, x_lo=-1.0, x_hi=1.0, dx=0.1, dt=0.01,
                t_end=0.1, scheme=Scheme.CRANK_NICOLSON,
                ic=Heaviside(level=LNP), bc=DirichletBC(0.0, LNP))
    SimConfig(**good)
    with pytest.raises(ValueError):  # tau/dt not an integer
        SimConfig(**{**good, "dt": 0.03})
    with pytest.raises(ValueError):  # history underflow tau < dt
        SimConfig(**{**good, "dt": 0.14})
    with pytest.raises(ValueError):  # explicit CFL violation
        SimConfig(**{**good, "scheme": Scheme.METHOD_OF_LINES, "dt": 0.01})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "x_lo": 2.0})
    with pytest.raises(ValueError):  # dx does not divide the domain
        SimConfig(**{**good, "dx": 0.3})
    with pytest.raises(ValueError):  # snapshot beyond the run
        SimConfig(**{**good, "snapshot_times": (0.5,)})


def test_delay_steps():
    cfg = preset("fast-front")
    assert cfg.delay_steps == 7
    assert cfg.dt == 0.01


def test_presets():
    mf = preset("minimal-front")
    assert mf.x_lo == -500.0 and mf.x_hi == 500.0
    assert mf.dx == 0.25
    assert mf.scheme is Scheme.METHOD_OF_LINES
    assert mf.dt <= 0.9 * mf.dx * mf.dx / 2.0 + 1e-15
    assert abs(mf.params.tau / mf.dt - round(mf.params.tau / mf.dt)) <= 1e-9
    assert mf.snapshot_times == (1.0, 3.0, 5.0)
    ff = preset("fast-front")
    assert ff.scheme is Scheme.CRANK_NICOLSON
    assert ff.dx == 0.05
    with pytest.raises(ValueError):
        preset("unknown")


def test_smoke_preset_speed_and_shape():
    from nmwaves.diagnostics import ProfileShape, diagnose

    rec = simulate(preset("fast-front-smoke"))
    diag = diagnose(rec)
    assert abs(diag.speed.speed - 48.26) / 48.26 <= 0.15
    assert diag.speed.direction == -1
    assert diag.shape is ProfileShape.NON_MONOTONE_NON_OSCILLATING
    # solution stays inside the physical bracket
    for _, u in rec.snapshots:
        assert np.min(u) >= -1e-10
        assert np.max(u) <= max(LNP, PARAMS.f_max) + 0.1


def test_temporal_order_crank_nicolson():
    base = dict(params=PARAMS, x_lo=-20.0, x_hi=20.0, dx=0.2, t_end=0.56,
                scheme=Scheme.CRANK_NICOLSON, ic=SmoothStep(level=LNP, width=1.5),
                bc=DirichletBC(0.0, LNP), snapshot_times=(0.56,))
    vals = {}
    for dt in (0.01, 0.005, 0.0025):
        rec = simulate(SimConfig(dt=dt, **base))
        vals[dt] = rec.snapshots[-1][1]
    e1 = np.max(np.abs(vals[0.01] - vals[0.005]))
    e2 = np.max(np.abs(vals[0.005] - vals[0.0025]))
    assert 3.0 <= e1 / e2 <= 5.0


def test_temporal_order_method_of_lines():
    base = dict(params=PARAMS, x_lo=-20.0, x_hi=20.0, dx=0.2, t_end=0.56,
                scheme=Scheme.METHOD_OF_LINES,
                ic=SmoothStep(level=LNP, width=1.5),
                bc=DirichletBC(0.0, LNP), snapshot_times=(0.56,))
    vals = {}
    for K in (8, 16, 32):
        rec = simulate(SimConfig(dt=PARAMS.tau / K, **base))
        vals[K] = rec.snapshots[-1][1]
    e1 = np.max(np.abs(vals[8] - vals[16]))
    e2 = np.max(np.abs(vals[16] - vals[32]))
    assert 3.0 <= e1 / e2 <= 5.0


def test_spatial_order_both_schemes():
    for scheme in Scheme:
        vals = {}
        for dx in (0.4, 0.2, 0.1):
            cfg = SimConfig(params=PARAMS, x_lo=-30.0, x_hi=30.0, dx=dx,
                            dt=0.07 / 16, t_end=0.5, scheme=scheme,
                            ic=SmoothStep(level=LNP, width=1.5),
                            bc=DirichletBC(0.0, LNP), snapshot_times=(0.5,))
            rec = simulate(cfg)
            vals[dx] = rec.snapshots[-1][1][::round(0.4 / dx)]
        e1 = np.max(np.abs(vals[0.4] - vals[0.2]))
        e2 = np.max(np.abs(vals[0.2] - vals[0.1]))
        assert 3.0 <= e1 / e2 <= 5.0, scheme


def test_scheme_cross_agreement():
    from nmwaves.diagnostics import diagnose

    smoke = preset("fast-front-smoke")
    rec_cn = simulate(smoke)
    limit = 0.9 * smoke.dx * smoke.dx / 2.0
    K = math.ceil(smoke.params.tau / limit)
    mol = dataclasses.replace(smoke, scheme=Scheme.METHOD_OF_LINES,
                              dt=smoke.params.tau / K)
    rec_mol = simulate(mol)
    s_cn = diagnose(rec_cn).speed.speed
    s_mol = diagnose(rec_mol).speed.speed
    assert abs(s_cn - s_mol) / s_cn <= 0.01


def test_front_track_monotone_leftward():
    rec = simulate(preset("fast-front-smoke"))
    xs = [x for _, x in rec.front_track if math.isfinite(x)]
    # after the transient the front moves strictly left
    late = xs[len(xs) // 2:]
    assert all(b < a for a, b in zip(late[:-1], late[1:]))


def test_minimal_front_leading_edge_monotone():
    # the leading edge rises strictly up to its first crossing of ln p
    cfg = dataclasses.replace(preset("minimal-front"), x_lo=-200.0, x_hi=200.0)
    rec = simulate(cfg)
    for _, snap in rec.snapshots:
        assert np.min(snap) >= -1e-10
        assert np.max(snap) <= max(LNP, PARAMS.f_max) + 0.1
    _, u = rec.snapshots[-1]
    above = np.nonzero(u >= LNP)[0]
    assert len(above) > 0
    first = above[0]
    lead = u[:first + 1]
    assert np.all(np.diff(lead) > -1e-12 * LNP)
    # strictly increasing across the transition region itself
    trans = lead[lead > 1e-6]
    assert np.all(np.diff(trans) > 0.0)


def test_config_roundtrip():
    cfg = preset("fast-front-smoke")
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    smooth = SimConfig(params=PARAMS, x_lo=-5.0, x_hi=5.0, dx=0.1, dt=0.01,
                       t_end=0.1, scheme=Scheme.CRANK_NICOLSON,
                       ic=SmoothStep(level=LNP, width=2.0),
                       bc=DirichletBC(0.0, LNP))
    assert config_from_dict(smooth.to_dict()) == smooth


@pytest.mark.parametrize("ic", [Heaviside(level=LNP),
                                ExpTail(beta=0.7, cap=LNP),
                                SmoothStep(level=LNP, width=2.0)],
                         ids=lambda ic: ic.kind)
def test_config_roundtrip_every_ic_kind(ic):
    cfg = SimConfig(params=PARAMS, x_lo=-5.0, x_hi=5.0, dx=0.1, dt=0.01,
                    t_end=0.1, scheme=Scheme.CRANK_NICOLSON, ic=ic,
                    bc=DirichletBC(0.0, LNP), snapshot_times=(0.05, 0.1))
    d = cfg.to_dict()
    assert d["ic"]["kind"] == ic.kind and d["bc"] == {"u_lo": 0.0, "u_hi": LNP}
    assert (d["p"], d["tau"], d["scheme"]) == (365.0, 0.07, "crank_nicolson")
    assert config_from_dict(json.loads(json.dumps(d))) == cfg
    # each kind draws its own initial values, boundary values pinned
    x = cfg.grid()
    u = cfg.initial_values(x)
    assert np.array_equal(u[1:-1], ic.values(x)[1:-1])
    assert (u[0], u[-1]) == (0.0, LNP)


def test_config_roundtrip_smooth_step_default_width():
    d = dataclasses.replace(preset("fast-front-smoke"),
                            ic=SmoothStep(level=LNP)).to_dict()
    del d["ic"]["width"]
    assert config_from_dict(d).ic == SmoothStep(level=LNP, width=1.0)


def test_history_cap_rejects_before_allocating():
    import tracemalloc

    cfg = preset("fast-front-smoke")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap of 20000000$"):
            dataclasses.replace(cfg, x_lo=-40.0, x_hi=40.0, dx=1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the largest preset, fast-front, stores 8 levels of 6,001 nodes
    stored = [(c.delay_steps + 1) * len(c.grid()) for c in map(preset, (
        "minimal-front", "fast-front", "fast-front-smoke"))]
    assert max(stored) == 8 * 6001 < MAX_HISTORY_VALUES / 400


def test_csv_roundtrip(tmp_path):
    # every float cell reads back with the bits it was written with, NaN
    # (a front-track time with no crossing) included
    rec = simulate(preset("fast-front-smoke"))
    track = list(rec.front_track)
    track[3] = (track[3][0], math.nan)
    rec = dataclasses.replace(rec, front_track=track)
    spath, fpath = tmp_path / "snaps.csv", tmp_path / "front.csv"
    write_snapshots_csv(rec, str(spath))
    header, rows = read_csv(str(spath))
    assert header[0] == "t"
    x = np.array([float(v) for v in header[1:]])
    assert x.tobytes() == rec.x.tobytes()
    want = np.array([[t, *u] for t, u in rec.snapshots])
    assert np.array(rows).tobytes() == want.tobytes()
    write_front_csv(rec, str(fpath))
    header, rows = read_csv(str(fpath))
    assert header == ["t", "front_x"]
    assert np.array(rows).tobytes() == np.array(track).tobytes()
    assert math.isnan(rows[3][1])
    mpath = tmp_path / "meta.json"
    write_metadata_json(rec, str(mpath))
    import json
    meta = json.loads(mpath.read_text())
    assert meta["delay_steps"] == 7


def _plain_snapshots_text(record):
    """The snapshot file with every cell written by its own repr."""
    lines = ["t," + ",".join(map(repr, record.x.tolist()))]
    lines += [",".join(map(repr, [float(t), *u.tolist()]))
              for t, u in record.snapshots]
    return "".join(line + "\n" for line in lines)


def test_snapshots_csv_formats_like_plain_repr(tmp_path):
    other_nan = np.array([0x7FF8000000000001]).view(float)[0]
    row = np.array([1.5, 1.5, 0.0, -0.0, math.nan, other_nan, -math.nan,
                    math.inf, -math.inf, 5e-324, -5e-324, 0.0, 1.5, -0.0,
                    0.1 + 0.2, 0.3, math.inf])
    x = np.linspace(-1.0, 1.0, len(row))
    config = preset("fast-front-smoke")
    for snapshots in ([(0.0, row), (0.25, row[::-1].copy()),
                       (1.0, np.full(len(row), -0.0))], []):
        rec = SpacetimeRecord(x=x, snapshots=snapshots, front_track=[],
                              config=config)
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(rec, str(path))
        assert path.read_text() == _plain_snapshots_text(rec)


class _SequentialElimination:
    """Thomas elimination one row at a time, for the same matrix as
    ToeplitzTridiagonal(m, diag, off)."""

    def __init__(self, m, diag, off):
        self.diag, self.off = diag, off

    def solve(self, rhs, out):
        diag, off = self.diag, self.off
        m = len(rhs)
        b, y = [diag] * m, rhs.tolist()
        for i in range(1, m):
            w = off / b[i - 1]
            b[i] = diag - w * off
            y[i] -= w * y[i - 1]
        out[-1] = y[-1] / b[-1]
        for i in range(m - 2, -1, -1):
            out[i] = (y[i] - off * out[i + 1]) / b[i]
        return out


def _plain_snapshots(config, solver=ToeplitzTridiagonal):
    """simulate's snapshots, stepped with plain array expressions and
    the given tridiagonal solver."""
    p, dt, dx2 = config.params.p, config.dt, config.dx * config.dx
    x = config.grid()
    n, slots = len(x), config.delay_steps + 1
    n_steps = round(config.t_end / dt)
    snap_steps = {round(ts / dt): ts for ts in config.snapshot_times}
    fbirth = lambda v: p * v * np.exp(-v)
    lap = lambda v: (v[:-2] - 2.0 * v[1:-1] + v[2:]) / dx2
    u0 = config.initial_values(x)
    ring = np.empty((slots, n))
    ring[:] = u0
    u = ring[0]
    births = np.empty((slots, n))
    births[:] = fbirth(u0)
    if config.scheme is Scheme.CRANK_NICOLSON:
        r = dt / (2.0 * dx2)
        lhs = solver(n - 2, 1.0 + 2.0 * r + 0.5 * dt, -r)
        bc_vec = np.zeros(n - 2)
        bc_vec[0], bc_vec[-1] = config.bc.u_lo / dx2, config.bc.u_hi / dx2
    snapshots = [(0.0, u.copy())] if 0 in snap_steps else []
    for step in range(1, n_steps + 1):
        now, nxt = step % slots, (step + 1) % slots
        if config.scheme is Scheme.CRANK_NICOLSON:
            rhs = (u[1:-1] + 0.5 * dt * (lap(u) - u[1:-1])
                   + 0.5 * dt * bc_vec
                   + 0.5 * dt * (births[now, 1:-1] + births[nxt, 1:-1]))
            lhs.solve(rhs, out=ring[now, 1:-1])
            births[now] = fbirth(ring[now])
        else:
            d_now, d_next = ring[now], ring[nxt]
            d_half = 0.5 * (d_now + d_next)
            u_star = u.copy()
            u_star[1:-1] = u[1:-1] + 0.5 * dt * (
                lap(u) - u[1:-1] + fbirth(d_now[1:-1]))
            d_now[1:-1] = u[1:-1] + dt * (
                lap(u_star) - u_star[1:-1] + fbirth(d_half[1:-1]))
        u = ring[now]
        if step in snap_steps:
            snapshots.append((snap_steps[step], u.copy()))
    return snapshots


def _small_config(scheme, tau, dt):
    return SimConfig(params=ModelParams(p=365.0, tau=tau), x_lo=-20.0,
                     x_hi=20.0, dx=0.25, dt=dt, t_end=0.7, scheme=scheme,
                     ic=Heaviside(level=LNP), bc=DirichletBC(0.0, LNP),
                     snapshot_times=(0.0, 0.35, 0.7))


@pytest.mark.parametrize("config", [
    preset("fast-front-smoke"),
    _small_config(Scheme.METHOD_OF_LINES, 0.07, 0.07 / 3),
    # one delay step: the rows at t - tau and t + dt - tau are the ring's
    # only two, and the second is the current level
    _small_config(Scheme.METHOD_OF_LINES, 0.025, 0.025),
    _small_config(Scheme.CRANK_NICOLSON, 0.025, 0.025),
], ids=["fast-front-smoke", "explicit", "explicit-K1", "cn-K1"])
def test_buffered_steps_match_plain_expressions(config):
    got = simulate(config).snapshots
    want = _plain_snapshots(config)
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_crank_nicolson_solve_in_place_matches_sequential_elimination():
    # simulate's own solver, checked where it runs: against stepping with
    # one-row-at-a-time elimination, every snapshot to 1e-12 relative
    config = preset("fast-front-smoke")
    got = simulate(config).snapshots
    want = _plain_snapshots(config, _SequentialElimination)
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))
