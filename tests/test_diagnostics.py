"""Tests for front position, speed estimation and shape classification."""

import numpy as np
import pytest

from nmwaves.diagnostics import (ProfileShape, classify_profile, diagnose,
                                 estimate_speed)
from nmwaves.model import ModelParams
from nmwaves.pde import front_position

PARAMS = ModelParams(p=365.0, tau=0.07)
LNP = PARAMS.kappa


def test_front_position_step():
    x = [0.0, 1.0, 2.0, 3.0]
    u = [0.0, 0.0, LNP, LNP]
    assert front_position(x, u, 0.5 * LNP) == pytest.approx(1.5)


def test_front_position_translation_equivariance():
    x = np.linspace(-10.0, 10.0, 201)
    u = LNP / (1.0 + np.exp(-x))
    base = front_position(x, u, 0.5 * LNP)
    shifted = front_position(x + 3.25, u, 0.5 * LNP)
    assert shifted - base == pytest.approx(3.25, abs=1e-12)


def test_front_position_no_crossing():
    # a snapshot that never reaches the level has no front: NaN, which the
    # speed fit skips
    assert np.isnan(front_position([0.0, 1.0], [0.0, 0.1], 2.0))
    assert np.isnan(front_position([0.0, 1.0, 2.0], [LNP, LNP, LNP], LNP))


def test_estimate_speed_exact_line():
    t = np.linspace(0.0, 2.0, 30)
    est = estimate_speed(t, 7.89 * t - 2.0)
    assert est.speed == pytest.approx(7.89, abs=1e-12)
    assert est.stderr <= 1e-12
    assert est.direction == 1
    with pytest.raises(ValueError):
        estimate_speed(np.ones(9), 7.89 * np.arange(9.0))


def test_estimate_speed_leftward_and_reflection():
    t = np.linspace(0.0, 2.0, 30)
    x = 5.0 - 48.0 * t
    est = estimate_speed(t, x)
    assert est.speed == pytest.approx(48.0, abs=1e-12)
    assert est.direction == -1
    mirrored = estimate_speed(t, -x)
    assert mirrored.speed == pytest.approx(est.speed, abs=1e-12)
    assert mirrored.direction == 1


def test_estimate_speed_needs_points():
    with pytest.raises(ValueError):
        estimate_speed([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])


def test_classify_monotone():
    xi = np.linspace(-20.0, 20.0, 400)
    u = LNP / (1.0 + np.exp(-xi))
    assert classify_profile(xi, u, PARAMS) == (ProfileShape.MONOTONE, None)


def test_classify_oscillating():
    xi = np.linspace(0.0, 40.0, 800)
    u = LNP + np.exp(-0.05 * xi) * np.sin(xi)
    assert classify_profile(xi, u, PARAMS) == (ProfileShape.OSCILLATING, None)


def test_classify_nm_shape():
    # synthetic profile in the image of the heteroclinic: rise, overshoot,
    # monotone settle onto the equilibrium
    xi = np.linspace(-30.0, 30.0, 1200)
    rise = LNP / (1.0 + np.exp(-xi))
    bump = 4.7 * np.exp(-((xi - 2.0) / 3.0) ** 2)
    u = rise + bump
    got = classify_profile(xi, u, PARAMS, speed=50.0)
    assert got == (ProfileShape.NON_MONOTONE_NON_OSCILLATING, None)


def test_classify_rescaling_invariance():
    xi = np.linspace(-30.0, 30.0, 1200)
    u = LNP / (1.0 + np.exp(-xi)) + 4.7 * np.exp(-((xi - 2.0) / 3.0) ** 2)
    a = classify_profile(xi, u, PARAMS)
    assert classify_profile(xi * 50.0, u, PARAMS) == a
    assert classify_profile(xi[::-1], u[::-1], PARAMS) == a
    assert (classify_profile(xi * 50.0, u, PARAMS, speed=50.0)
            == classify_profile(xi, u, PARAMS, speed=1.0))


def test_classify_needs_resolution():
    # too few points to read a tail: undecided, with the reason
    assert classify_profile([0.0, 1.0], [0.0, 1.0], PARAMS) == (
        ProfileShape.INCONCLUSIVE, "profile too coarse: 2 points")
    # a profile swinging above ln p to its end: the reason names the last
    # sample's position, not a run's end time
    xi = np.linspace(0.0, 40.0, 800)
    shape, reason = classify_profile(xi, LNP + 1.0 + 0.5 * np.sin(xi), PARAMS)
    assert shape is ProfileShape.INCONCLUSIVE
    assert reason == "no crossings and no trend by the last sample, at 40.0"
    assert "t_end" not in reason
    # a monotone tail is no nm shape without a peak above ln p, nor with
    # crossings at most speed tau apart (3.5 at speed 50; 10 gives 0.7)
    u = LNP - np.exp(-0.2 * xi) - 0.5 * np.exp(-xi) * np.sin(3.0 * xi)
    assert classify_profile(xi, u, PARAMS) == (
        ProfileShape.INCONCLUSIVE, "monotone tail, no peak above ln p")
    xi = np.linspace(-30.0, 30.0, 1200)
    u = (LNP / (1.0 + np.exp(-xi)) + 4.7 * np.exp(-((xi - 2.0) / 3.0) ** 2)
         - 6.0 * np.exp(-(xi - 6.0) ** 2))
    assert classify_profile(xi, u, PARAMS, speed=50.0) == (
        ProfileShape.INCONCLUSIVE,
        "monotone tail, crossing gap 3.19645 <= speed tau")
    assert classify_profile(xi, u, PARAMS, speed=10.0) == (
        ProfileShape.NON_MONOTONE_NON_OSCILLATING, None)


def test_snapshot_displacement_matches_speed():
    # successive snapshot positions one time unit apart move by about -c
    from nmwaves.charroots import linear_spreading_speed
    from nmwaves.pde import preset, simulate

    rec = simulate(preset("fast-front"))
    for _, u in rec.snapshots:
        assert np.min(u) >= -1e-10
    by_time = {round(t, 6): u for t, u in rec.snapshots}
    x1 = front_position(rec.x, by_time[1.0], 0.5 * LNP)
    x2 = front_position(rec.x, by_time[2.0], 0.5 * LNP)
    c = linear_spreading_speed(PARAMS, 0.7)
    assert x2 - x1 < 0.0
    assert abs((x2 - x1) + c) <= 3.0


def test_diagnose_full_record():
    from nmwaves.pde import preset, simulate

    rec = simulate(preset("fast-front-smoke"))
    diag = diagnose(rec)
    assert diag.speed.direction == -1
    assert 40.0 <= diag.speed.speed <= 56.0
    assert diag.shape is ProfileShape.NON_MONOTONE_NON_OSCILLATING
    assert diag.overshoot > 0.5
    assert diag.crossings_of_kappa >= 1
    assert diag.level == pytest.approx(0.5 * LNP)


def test_one_crossing_rule_across_modules():
    # every zero of this wave sits exactly on a node: an interior node on
    # ln p between opposite signs is a crossing for the heteroclinic
    # classifier, the front tracker and the profile diagnostics alike
    from nmwaves.heteroclinic import Trajectory, TrajectoryTail, crossings
    from nmwaves.numerics import crossing_points
    from nmwaves.pde import SpacetimeRecord

    x = 0.5 * np.arange(200)
    wave = np.array([0.0, 0.5, 1.0, 0.5, 0.0, -0.5, -1.0, -0.5])
    u = LNP + np.tile(wave, 25)
    traj = Trajectory(t=x, u=u, du=np.gradient(u, 0.5), t0=0.0, h=0.5,
                      params=PARAMS)
    report = crossings(traj)
    assert [t for t, _ in report.crossings] == list(x[4:-1:4])
    assert report.tail_class is TrajectoryTail.OSCILLATING
    assert crossing_points(x, u, LNP) == list(x[4:-1:4])
    assert front_position(x, u, LNP) == 2.0  # node 0 is no crossing

    assert classify_profile(x, u, PARAMS) == (ProfileShape.OSCILLATING, None)
    track = [(0.1 * k, 5.0 - 0.1 * k) for k in range(11)]
    record = SpacetimeRecord(x=x, snapshots=[(1.0, u)], front_track=track,
                             config=None)
    diag = diagnose(record, PARAMS)
    assert diag.crossings_of_kappa == 49
    assert diag.shape is ProfileShape.OSCILLATING


def test_profile_and_run_read_one_tail():
    # a heteroclinic run read from t0 as a profile at speed 1 (window
    # 2 tau) has the run's tail: the same rule over the same samples
    from nmwaves.dirichlet import build
    from nmwaves.heteroclinic import TrajectoryTail, crossings, integrate

    grid = [(p, tau) for p in np.geomspace(8.0, 1e4, 25)
            for tau in np.geomspace(0.01, 3.0, 25)]
    rng = np.random.default_rng(30)
    shapes = {TrajectoryTail.OSCILLATING: {ProfileShape.OSCILLATING},
              TrajectoryTail.MONOTONE_TAIL: {
                  ProfileShape.MONOTONE,
                  ProfileShape.NON_MONOTONE_NON_OSCILLATING}}
    seen = set()
    for k in rng.choice(len(grid), 30, replace=False).tolist():
        params = ModelParams(*map(float, grid[k]))
        traj = integrate(build(params))
        tail = crossings(traj).tail_class
        keep = traj.t >= traj.t0
        shape, reason = classify_profile(traj.t[keep], traj.u[keep], params,
                                         speed=1.0)
        assert shape in shapes[tail] and reason is None, (params, tail)
        seen.add(tail)
    assert len(seen) == 2
