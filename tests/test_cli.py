"""End-to-end tests of the command-line interface."""

import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import nmwaves
from nmwaves import cli
from nmwaves.cli import main
from nmwaves.files import read_csv


def run_cli(*argv):
    return main(list(argv))


def _child_env():
    """Environment for a child interpreter importing this same nmwaves."""
    src = str(Path(nmwaves.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_analyze_example(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("analyze", "--p", "365", "--tau", "0.07",
                   "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["mu"] - 33.64) <= 0.01
    assert -0.055 <= payload["qbar2"] <= -0.045
    assert abs(payload["zeta"] - 6.46) <= 0.01
    assert abs(payload["lnp"] - math.log(365.0)) <= 1e-9
    assert payload["nm_verdict"] is True
    assert payload["heteroclinic"]["tail"] == "monotone_tail"
    assert "reason" not in payload["heteroclinic"]  # only an undecided tail
    assert "metadata" in payload
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert str(out) in manifest["outputs"]


def test_analyze_crossings_late_in_the_run_are_an_oscillating_tail(tmp_path):
    # outside the p window (P tau e^{1+tau} = 2.06): 8 crossings, the last
    # two after the run's quarter mark, decide the tail before the flat end
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--p", "8.0", "--tau", "0.4481404746557166",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["in_p_window"] is False
    assert payload["heteroclinic"]["crossings"] == 8
    assert payload["heteroclinic"]["tail"] == "oscillating"


def test_analyze_monotone_case(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--p", "2", "--tau", "0.1",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["nm_verdict"] is False
    assert payload["heteroclinic"]["tail"] == "monotone_tail"
    assert payload["heteroclinic"]["crossings"] == 0


def test_analyze_with_speed(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--p", "365", "--tau", "0.07", "--c", "50",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["c_star"] - 7.89) <= 0.01
    # the linear class and the run's tail speak one vocabulary
    assert payload["tail_class"] == payload["heteroclinic"]["tail"] \
        == "monotone_tail"
    assert payload["in_dm"] is True and payload["in_ds"] is True
    # mu, qbar2 and zeta do not depend on the speed search
    assert (payload["mu"], payload["qbar2"], payload["zeta"]) == (
        33.640892805546166, -0.05058375927311183, 6.46588419583009)


@pytest.mark.parametrize("p, tau, c_star", [
    ("1e17", "0.07", 23.126267300381226),
    ("5823578936458799", "0.004947971588666243", 80.44195609926764),
    ("1832545993383.4265", "6.745831145274225", 1.9356867774131508),
])
def test_analyze_minimal_speed_at_large_p(p, tau, c_star, tmp_path):
    # 50-digit tangency values; at large p the profile function's minimum
    # over z is a near-cancelling sum of terms of size p
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--p", p, "--tau", tau, "--c", "50",
                   "--out", str(out)) == 0
    got = json.loads(out.read_text())["c_star"]
    assert abs(got - c_star) <= 1e-14 * c_star


def test_analyze_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("analyze", "--p", "365", "--tau", "0.07", "--out", str(a))
    run_cli("analyze", "--p", "365", "--tau", "0.07", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once(tmp_path, monkeypatch):
    built = []

    class CountingParser(cli.CliParser):
        def __init__(self, *args, **kwargs):
            if kwargs.get("prog") == "nmwaves":
                built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "CliParser", CountingParser)
    cli.build_parser.cache_clear()
    out = tmp_path / "r.json"
    try:
        assert run_cli("analyze", "--p", "365", "--tau", "0.07", "--c", "50",
                       "--out", str(out)) == 0
        assert run_cli("analyze", "--p", "365", "--tau", "0.07",
                       "--out", str(out)) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    # each call parses into a fresh namespace: no --c left over
    assert "c" not in json.loads(out.read_text())


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name wherever an nmwaves module binds it."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("nmwaves") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_analyze_computes_mu_once_and_never_bisects(tmp_path, monkeypatch):
    # mu lives on the point's ModelParams, and the verdict reads the
    # crossing count and the tail from the grid nodes and max_u in closed
    # form: crossing times are refined for the heteroclinic command alone
    import nmwaves.atlas  # noqa: F401 - bind every module the call uses
    from nmwaves import charroots, numerics

    mu_calls = _count_calls(monkeypatch, charroots, "_mu")
    bisections = _count_calls(monkeypatch, numerics, "bisect_lockstep")
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--p", "365", "--tau", "0.07", "--c", "50",
                   "--out", str(out)) == 0
    assert len(mu_calls) == 1
    assert len(bisections) == 0
    payload = json.loads(out.read_text())
    assert payload["heteroclinic"]["crossings"] == 1


def test_analyze_evaluates_p_window_once(tmp_path, monkeypatch):
    # the verdict and the region report share the point's window flag
    import nmwaves.atlas  # noqa: F401 - bind every module the call uses
    from nmwaves import heteroclinic

    windows = _count_calls(monkeypatch, heteroclinic, "p_window")
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--p", "365", "--tau", "0.07", "--c", "50",
                   "--out", str(out)) == 0
    assert len(windows) == 1
    assert json.loads(out.read_text())["in_p_window"] is True


def test_analyze_solves_only_the_membership_boundary(tmp_path, monkeypatch):
    # the report at a speed holds the two memberships, and only the first
    # of them compares against a boundary curve: one T(c) solve, and no
    # tau(c) or large-speed limit
    from nmwaves import atlas

    counts = {name: _count_calls(monkeypatch, atlas, name)
              for name in ("T_of_c", "tau_of_c", "T_star", "tau_star")}
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--p", "365", "--tau", "0.07", "--c", "50",
                   "--out", str(out)) == 0
    assert {name: len(calls) for name, calls in counts.items()} == {
        "T_of_c": 1, "tau_of_c": 0, "T_star": 0, "tau_star": 0}
    assert json.loads(out.read_text())["in_dm"] is True


def test_analyze_decides_roots_once_by_the_existence_test(tmp_path,
                                                        monkeypatch):
    # the memberships and tail_class share one root-existence test; the
    # root listing is the tests' reference only
    import nmwaves.atlas  # noqa: F401 - bind every module the call uses
    from nmwaves import charroots

    exists = _count_calls(monkeypatch, charroots, "negative_root_exists")
    listings = _count_calls(monkeypatch, charroots, "negative_roots_at_kappa")
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--p", "365", "--tau", "0.07", "--c", "50",
                   "--out", str(out)) == 0
    assert (len(exists), len(listings)) == (1, 0)
    assert json.loads(out.read_text())["tail_class"] == "monotone_tail"


def test_analyze_large_p_stays_below_the_invariant_bound(tmp_path):
    # u may reach p/e = 3.7e11 here; the blow-up test allows 2 p/e
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--p", "1e12", "--tau", "0.3",
                   "--out", str(out)) == 0
    heteroclinic = json.loads(out.read_text())["heteroclinic"]
    assert 1e6 < heteroclinic["max_u"] <= 1e12 / math.e


def test_blow_up_names_the_invariant_bound(capsys):
    # above p = 1e6 e/2 the blow-up test compares |u| against 2 p/e
    assert run_cli("analyze", "--p", "1e9", "--tau", "20") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: |u| exceeded 2p/e = 7.35759e+08 at t = ")


def test_series_outputs(tmp_path):
    coeffs = tmp_path / "coeffs.csv"
    profile = tmp_path / "profile.csv"
    assert run_cli("series", "--p", "365", "--tau", "0.07", "--n", "10",
                   "--out", f"{coeffs},{profile}") == 0
    lines = coeffs.read_text().splitlines()
    assert lines[0] == "n,qbar_n"
    assert len(lines) == 11
    prof = profile.read_text().splitlines()
    assert prof[0] == "t,u2,u,u1"
    for row in prof[1:]:
        _, u2, u, u1 = (float(v) for v in row.split(","))
        assert u2 <= u <= u1


def test_series_at_a_huge_delay(tmp_path):
    # mu is about ln(p)/tau; qbar_2 = -p e^{-2 mu tau}/chi(2 mu) -> -p/(p - 1)^2
    coeffs = tmp_path / "coeffs.csv"
    assert run_cli("series", "--p", "1.5", "--tau", "1e16", "--n", "3",
                   "--out", f"{coeffs},{tmp_path / 'profile.csv'}") == 0
    qbar2 = float(coeffs.read_text().splitlines()[2].split(",")[1])
    assert abs(qbar2 + 2.0) <= 1e-12


@pytest.mark.parametrize("n", ["1", "-5", "0", "1001", "100000", "2.5",
                               "ten"])
def test_series_n_outside_2_to_1000_is_a_usage_error(n, tmp_path, capsys):
    out = f"{tmp_path / 'c.csv'},{tmp_path / 'p.csv'}"
    with pytest.raises(SystemExit) as exc:
        run_cli("series", "--p", "365", "--tau", "0.07", "--n", n,
                "--out", out)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    assert "n must be an integer from 2 to 1000" in err


def test_series_n_is_the_most_coefficients_kept(tmp_path):
    # at (1.5, 0.3) qbar_32 is above the overflow bound: 31 are kept
    coeffs = tmp_path / "coeffs.csv"
    assert run_cli("series", "--p", "1.5", "--tau", "0.3", "--n", "1000",
                   "--out", f"{coeffs},{tmp_path / 'profile.csv'}") == 0
    assert len(coeffs.read_text().splitlines()) == 1 + 31
    config = json.loads(Path(f"{coeffs}.manifest.json").read_text())["config"]
    assert (config["n"], config["n_kept"]) == (1000, 31)


def test_heteroclinic_runs_where_analyze_does(tmp_path):
    # the command and analyze's confirmation run share one expansion
    report, cross = tmp_path / "a.json", tmp_path / "cross.json"
    assert run_cli("analyze", "--p", "1.5", "--tau", "0.3",
                   "--out", str(report)) == 0
    assert run_cli("heteroclinic", "--p", "1.5", "--tau", "0.3",
                   "--out", f"{tmp_path / 'traj.csv'},{cross}") == 0
    max_u = json.loads(report.read_text())["heteroclinic"]["max_u"]
    assert json.loads(cross.read_text())["global_max"] == max_u


def test_series_heteroclinic_and_analyze_agree_near_p_1(tmp_path, capsys):
    # p - 1 log-uniform in [1e-6, 1], tau in [1e-2, 50]: each command
    # exits 0 or 1 with one line, and heteroclinic succeeds exactly where
    # analyze reports a run (a maximum), with the same maximum; at
    # (1.000001, 0.1) the run is not started
    rng = random.Random(28)
    points = [(repr(1.0 + math.exp(rng.uniform(math.log(1e-6), 0.0))),
               repr(math.exp(rng.uniform(math.log(1e-2), math.log(50.0)))))
              for _ in range(20)]
    report, cross = tmp_path / "a.json", tmp_path / "cross.json"
    series_out = f"{tmp_path / 'c.csv'},{tmp_path / 'p.csv'}"
    het_out = f"{tmp_path / 'traj.csv'},{cross}"
    for p, tau in [("1.000001", "0.1")] + points:
        codes = []
        for argv in (("series", "--out", series_out),
                     ("heteroclinic", "--out", het_out),
                     ("analyze", "--out", str(report))):
            code = run_cli(argv[0], "--p", p, "--tau", tau, *argv[1:])
            err = capsys.readouterr().err
            assert (code, err.count("\n")) in ((0, 0), (1, 1)), (p, tau)
            assert code == 0 or err.startswith("error: "), (p, tau)
            codes.append(code)
        max_u = (json.loads(report.read_text())["heteroclinic"]["max_u"]
                 if codes[2] == 0 else None)
        assert (codes[1] == 0) == (max_u is not None), (p, tau)
        if max_u is not None:
            assert json.loads(cross.read_text())["global_max"] == max_u, (
                p, tau)


def test_run_not_started_is_inconclusive_in_analyze_and_exits_1_alone(
        tmp_path, capsys):
    # at (1.000001, 0.1) fewer than three coefficients fit: analyze keeps
    # its report, with no run and the reason; heteroclinic exits 1 with it
    reason = "|qbar_3| = 1.000e+12 exceeds 1e+12"
    report = tmp_path / "report.json"
    assert run_cli("analyze", "--p", "1.000001", "--tau", "0.1",
                   "--out", str(report)) == 0
    assert json.loads(report.read_text())["heteroclinic"] == {
        "max_u": None, "crossings": None, "tail": "inconclusive",
        "reason": reason}
    assert capsys.readouterr().err == ""
    assert run_cli("heteroclinic", "--p", "1.000001", "--tau", "0.1", "--out",
                   f"{tmp_path / 'traj.csv'},{tmp_path / 'cross.json'}") == 1
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_analyze_where_mu_underflows_exits_1(tmp_path, capsys):
    out = tmp_path / "a.json"
    # the root ln(1.5)/1e308 is subnormal
    assert run_cli("analyze", "--p", "1.5", "--tau", "1e308",
                   "--out", str(out)) == 1
    _assert_one_error_line(capsys, "tau = 1e+308")
    assert not out.exists()


def test_heteroclinic_outputs(tmp_path):
    traj = tmp_path / "traj.csv"
    cross = tmp_path / "cross.json"
    assert run_cli("heteroclinic", "--p", "365", "--tau", "0.07",
                   "--t-end", "2.0", "--out", f"{traj},{cross}") == 0
    payload = json.loads(cross.read_text())
    assert payload["tail_class"] == "monotone_tail"
    assert payload["global_max"] > 6.46
    assert payload["anomalies"] == []


def test_boundaries_output(tmp_path):
    out = tmp_path / "curves.csv"
    assert run_cli("boundaries", "--P", "4.8999", "--c", "1:1000:8",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,T_of_c,tau_of_c,tau_hat,T_star"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1] - last[4]) <= 1e-3  # T(c) -> T* at large c
    assert abs(last[2] - last[3]) <= 1e-3  # tau(c) -> tau_hat


@pytest.mark.parametrize("P", [4.8999, 0.5, -0.5])
def test_boundaries_rows_match_scalar_solves(tmp_path, P):
    from nmwaves.atlas import T_of_c, tau_of_c

    out = tmp_path / "curves.csv"
    assert run_cli("boundaries", "--P", str(P), "--c", "0.01:1000:25",
                   "--out", str(out)) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 25
    for c, T_c, tau_c, _, _ in rows:
        for got, solve, defined in ((T_c, T_of_c, P > 0.0),
                                    (tau_c, tau_of_c, P > 1.0)):
            if not defined:
                assert math.isnan(got)
                continue
            want = solve(P, c)
            assert abs(got - want) <= 2e-13 * (1.0 + max(1.0, want))


@pytest.mark.parametrize("c", ["0:10:3", "-1:5:3", "5:0:3", "nan:1:2",
                               "1:inf:2", "1:2"])
def test_boundaries_speeds_must_be_positive(tmp_path, capsys, c):
    with pytest.raises(SystemExit) as exc:
        run_cli("boundaries", "--P", "4.9", f"--c={c}",
                "--out", str(tmp_path / "b.csv"))
    assert exc.value.code == 64
    assert "speeds must be a LO:HI:N range" in capsys.readouterr().err


def test_range_count_above_the_cap_is_a_usage_error_at_once(tmp_path,
                                                            capsys):
    # N is read from the text; a range of 10^12 values is never listed
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run_cli("atlas", "--tau", "0:1:1000000000000", "--p", "8:1200:2",
                "--out", str(tmp_path / "a.csv"))
    assert time.perf_counter() - started < 1.0
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "delays must be a LO:HI:N range" in err
    assert "N <= 10^6" in err
    assert not list(tmp_path.iterdir())


def test_atlas_grid_above_the_cap_exits_1(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert run_cli("atlas", "--tau", "0.03:0.12:2000", "--p", "8:1200:1000",
                   "--out", str(out)) == 1
    _assert_one_error_line(capsys, "2000 x 1000 points")
    assert not out.exists()


def test_atlas_output(tmp_path):
    out = tmp_path / "map.csv"
    assert run_cli("atlas", "--tau", "0.06:0.08:3", "--p", "365:465:3",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,lnlnp,flag"
    assert len(lines) == 10
    flags = {}
    for row in lines[1:]:
        tau, lnlnp, flag = row.split(",")
        flags[(float(tau), float(lnlnp))] = int(flag)
    key = (0.07, math.log(math.log(365.0)))
    hit = [v for (t, ll), v in flags.items()
           if abs(t - 0.07) < 1e-12 and abs(ll - key[1]) < 1e-9]
    assert hit == [1]


def test_simulate_and_diagnose_roundtrip(tmp_path):
    snaps = tmp_path / "snaps.csv"
    front = tmp_path / "front.csv"
    meta = tmp_path / "meta.json"
    cfg = {
        "p": 365.0, "tau": 0.07, "x_lo": -40.0, "x_hi": 40.0,
        "dx": 0.25, "dt": 0.01, "t_end": 0.6,
        "scheme": "crank_nicolson",
        "ic": {"kind": "exp_tail", "beta": 0.7, "cap": math.log(365.0)},
        "bc": {"u_lo": 0.0, "u_hi": math.log(365.0)},
        "snapshot_times": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(cfg_path),
                   "--out", f"{snaps},{front},{meta}") == 0
    assert json.loads(meta.read_text())["delay_steps"] == 7

    diag = tmp_path / "diag.json"
    assert run_cli("diagnose", "--in", str(snaps), "--p", "365",
                   "--tau", "0.07", "--front", str(front),
                   "--out", str(diag)) == 0
    payload = json.loads(diag.read_text())
    assert payload["direction"] == -1
    assert payload["speed"] > 20.0
    # the command reports what the library computes from the same record
    from nmwaves.diagnostics import diagnose, diagnostics_to_dict
    from nmwaves.pde import config_from_dict, simulate
    record = simulate(config_from_dict(cfg))
    assert payload == diagnostics_to_dict(diagnose(record))

    # six snapshots are too few for a speed fit: the shape is still given
    assert run_cli("diagnose", "--in", str(snaps), "--p", "365",
                   "--tau", "0.07", "--out", str(diag)) == 0
    payload = json.loads(diag.read_text())
    assert payload["speed"] is None and "speed_error" in payload
    assert payload["tracking_level"] == 0.5 * math.log(365.0)
    # one payload shape: the fit's keys are null and the reason is given
    assert payload["speed_stderr"] is None and payload["direction"] is None
    assert payload["speed_error"].startswith("need at least 5 tracked")
    assert payload["shape"] == "non_monotone_non_oscillating"
    assert "reason" not in payload  # only an inconclusive shape has one
    assert payload["crossings_of_kappa"] >= 1
    assert payload["overshoot"] > 0.0


def _front_csv(path, n_x, n_t, cell=None):
    """Snapshots of a logistic front moving left at speed 2 (n_x x
    positions, n_t times), with cell = (row, column, text) replaced."""
    lnp = math.log(365.0)
    x = np.linspace(-10.0, 10.0, n_x)
    rows = [["t"] + [repr(v) for v in x.tolist()]]
    for k in range(n_t):
        t = 0.5 * k
        u = lnp / (1.0 + np.exp(-(x + 2.0 * t - 5.0)))
        rows.append([repr(t)] + [repr(v) for v in u.tolist()])
    if cell is not None:
        row, col, text = cell
        rows[row][col] = text
    path.write_text("".join(",".join(r) + "\n" for r in rows))


def test_diagnose_coarse_profile_is_inconclusive_with_the_speed(tmp_path):
    # 40 x positions are too few to read a tail; the speed is still fit
    snaps = tmp_path / "snaps.csv"
    _front_csv(snaps, 40, 10)
    out = tmp_path / "d.json"
    assert run_cli("diagnose", "--in", str(snaps), "--p", "365",
                   "--tau", "0.07", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["shape"] == "inconclusive"
    assert payload["reason"] == "profile too coarse: 40 points"
    assert abs(payload["speed"] - 2.0) <= 0.05
    assert payload["direction"] == -1


@pytest.mark.parametrize("cell, fragment", [
    ((3, 7, "nan"), "t = 1.0"), ((4, 2, "inf"), "t = 1.5"),
    ((1, 0, "nan"), "t = nan"), ((0, 5, "-inf"), "header")],
    ids=["nan value", "inf value", "nan time", "inf x"])
def test_diagnose_non_finite_input_exits_1(tmp_path, capsys, cell, fragment):
    # a nan or inf would reach the payload as a non-standard JSON constant
    snaps = tmp_path / "snaps.csv"
    _front_csv(snaps, 60, 10, cell)
    out = tmp_path / "d.json"
    assert run_cli("diagnose", "--in", str(snaps), "--p", "365",
                   "--tau", "0.07", "--out", str(out)) == 1
    _assert_one_error_line(capsys, fragment, "non-finite")
    assert not out.exists()


@pytest.mark.parametrize("count", [59, 61])
def test_diagnose_ragged_snapshot_row_exits_1(tmp_path, capsys, count):
    # the header has 60 x positions; the second snapshot is short or long
    row = lambda n: ",".join(str(0.1 * i) for i in range(n))
    snaps = tmp_path / "snaps.csv"
    snaps.write_text(f"t,{row(60)}\n0.5,{row(60)}\n1.5,{row(count)}\n")
    out = tmp_path / "d.json"
    assert run_cli("diagnose", "--in", str(snaps), "--p", "365",
                   "--tau", "0.07", "--out", str(out)) == 1
    _assert_one_error_line(capsys, "t = 1.5", f"{count} values",
                           "60 x positions")
    assert not out.exists()


def test_simulate_preset_path(tmp_path):
    snaps = tmp_path / "s.csv"
    front = tmp_path / "f.csv"
    meta = tmp_path / "m.json"
    assert run_cli("simulate", "--preset", "fast-front-smoke",
                   "--out", f"{snaps},{front},{meta}") == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert set(manifest["outputs"]) == {str(snaps), str(front), str(meta)}
    payload = json.loads(meta.read_text())
    assert payload["config"]["label"] == "fast-front-smoke"


def test_simulate_requires_one_source(tmp_path, capsys):
    # neither or both of --preset and --config is a usage error
    out = ",".join(str(tmp_path / name) for name in ("s.csv", "f.csv", "m.json"))
    for source in ((), ("--preset", "fast-front-smoke", "--config", "c.json")):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", *source, "--out", out)
        assert exc.value.code == 64
        assert "--preset" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _simulate_config(tmp_path, cfg):
    """Exit code of simulate --config on the config dict cfg."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = ",".join(str(tmp_path / name) for name in ("s.csv", "f.csv", "m.json"))
    return run_cli("simulate", "--config", str(cfg_path), "--out", out)


_SMALL_CONFIG = {
    "p": 365.0, "tau": 0.07, "x_lo": -10.0, "x_hi": 10.0, "dx": 0.2,
    "dt": 0.01, "t_end": 0.1, "scheme": "crank_nicolson",
    "ic": {"kind": "exp_tail", "beta": 0.7, "cap": 5.9},
    "bc": {"u_lo": 0.0, "u_hi": 5.9},
}


@pytest.mark.parametrize("change, message", [
    ({"tau": None}, "config field 'tau' is missing"),
    ({"ic": {"kind": "exp_tail", "cap": 5.9}},
     "config field 'ic.beta' is missing"),
    ({"ic": {"kind": "ramp"}}, "unknown initial condition kind 'ramp'"),
    ({"bc": None}, "config bc must be a JSON object, got NoneType"),
    ({"dx": "wide"}, "config field 'dx': could not convert string to float"),
    ({"scheme": "euler"}, "config field 'scheme': 'euler' is not a valid"),
    ({"snapshot_times": 0.1}, "config field 'snapshot_times': "),
], ids=["no_tau", "no_beta", "ic_kind", "bc_null", "dx_text", "scheme",
        "snapshots"])
def test_simulate_config_schema_errors_exit_1_with_one_line(
        tmp_path, capsys, change, message):
    cfg = {k: v for k, v in {**_SMALL_CONFIG, **change}.items()
           if v is not None or k == "bc"}
    assert _simulate_config(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_simulate_config_that_is_no_object_exits_1(tmp_path, capsys):
    assert _simulate_config(tmp_path, [_SMALL_CONFIG]) == 1
    assert capsys.readouterr().err == (
        "error: config file must be a JSON object, got list\n")


def test_simulate_over_the_history_cap_exits_1_unallocated(tmp_path, capsys):
    import tracemalloc

    # 8 history levels of 8e8 + 1 nodes: never run, only rejected
    cfg = {**_SMALL_CONFIG, "x_lo": -40.0, "x_hi": 40.0, "dx": 1e-7}
    _simulate_config(tmp_path, _SMALL_CONFIG)  # the lazy imports allocate
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = _simulate_config(tmp_path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the run stores (delay_steps + 1) x nodes = 6400000008 "
        "values, above the cap of 20000000\n")
    assert peak < 2**20


@pytest.mark.parametrize("scheme, dt", [("crank_nicolson", 0.01),
                                        ("method_of_lines", 0.0175)])
def test_simulate_non_finite_run_exits_1(tmp_path, capsys, scheme, dt):
    cfg = {
        "p": 365.0, "tau": 0.07, "x_lo": -10.0, "x_hi": 10.0,
        "dx": 0.2, "dt": dt, "t_end": 0.1, "scheme": scheme,
        "ic": {"kind": "heaviside", "level": 1e308},
        "bc": {"u_lo": 0.0, "u_hi": 1e308},
    }
    assert _simulate_config(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: simulation produced non-finite values")
    assert err.count("\n") == 1


@pytest.mark.parametrize("scheme", ["crank_nicolson", "method_of_lines"])
def test_simulate_grid_without_interior_node_exits_1(tmp_path, capsys,
                                                     scheme):
    cfg = {
        "p": 365.0, "tau": 0.07, "x_lo": 0.0, "x_hi": 0.2,
        "dx": 0.2, "dt": 0.01, "t_end": 0.1, "scheme": scheme,
        "ic": {"kind": "heaviside", "level": 1.0},
        "bc": {"u_lo": 0.0, "u_hi": 1.0},
    }
    assert _simulate_config(tmp_path, cfg) == 1
    assert capsys.readouterr().err == (
        "error: dx = 0.2 leaves no interior grid node\n")


def test_verify_series_suite():
    assert run_cli("verify", "--suite", "series") == 0


def _per_float_evaluate(monkeypatch):
    """Make DirichletExpansion.evaluate of an array one float call per
    element, the way the series profile and suite evaluated it before."""
    from nmwaves.dirichlet import DirichletExpansion

    evaluate = DirichletExpansion.evaluate

    def per_float(self, t):
        if np.ndim(t) == 0:
            return evaluate(self, t)
        return np.array([evaluate(self, ti) for ti in np.asarray(t).tolist()])
    monkeypatch.setattr(DirichletExpansion, "evaluate", per_float)


@pytest.mark.parametrize("argv", [
    ("series", "--p", "365", "--tau", "0.07"),
    ("series", "--p", "365", "--tau", "0.07", "--n", "10"),
    ("series", "--p", "1.5", "--tau", "0.3"),
    ("series", "--p", "5e5", "--tau", "2.0"),
    ("verify", "--suite", "series")], ids=["series", "series_n10",
                                           "series_small_p", "series_large",
                                           "verify_series"])
def test_series_outputs_are_per_float_evaluations(argv, tmp_path,
                                                  monkeypatch):
    # one array evaluate over the profile or sandwich times gives every
    # float call's bits, so the files are those of a loop of float calls
    outs = []
    for tag in ("array", "float"):
        if tag == "float":
            _per_float_evaluate(monkeypatch)
        paths = [tmp_path / f"{tag}_{i}.csv" for i in range(2)]
        out = ",".join(map(str, paths if argv[0] == "series" else paths[:1]))
        assert run_cli(*argv, "--out", out) == 0
        outs.append([path.read_bytes() for path in paths if path.exists()])
    assert outs[0] == outs[1]


def test_simulate_byte_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        snaps = tmp_path / f"{tag}.csv"
        front = tmp_path / f"{tag}_front.csv"
        meta = tmp_path / f"{tag}_meta.json"
        assert run_cli("simulate", "--preset", "fast-front-smoke",
                       "--out", f"{snaps},{front},{meta}") == 0
        outs.append((snaps.read_bytes(), front.read_bytes(),
                     meta.read_bytes()))
    assert outs[0] == outs[1]


def test_verify_model_suite(tmp_path):
    out = tmp_path / "margins.csv"
    assert run_cli("verify", "--suite", "model", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,margin,threshold,status"
    assert all(row.endswith("pass") for row in lines[1:])


def test_analyze_no_delay(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--p", "365", "--tau", "0", "--out",
                   str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["nm_verdict"] is False
    assert payload["heteroclinic"] is None
    # zeta reduces to 1 + qbar2 without a delay
    assert abs(payload["zeta"] - (1.0 + payload["qbar2"])) <= 1e-12


def test_analyze_small_amplitude_with_speed(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--p", "1.5", "--tau", "0.3", "--c", "2",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["nm_verdict"] is False
    assert payload["in_dm"] is True  # P < 0: always a negative root
    assert payload["in_ds"] is True


def test_domain_error_exit_code():
    assert run_cli("analyze", "--p", "0.5", "--tau", "0.1") == 1


# the start of each error line, keyed by the analyze point
_DOMAIN_EXIT_REASONS = {
    ("16700.719092785555", "26.037402816997748"): "|u| exceeded 1e6",
    # over the node cap: refused before the series is built
    ("365", "3e-4"): "the run needs K + n_steps + 1 = 2133399 nodes",
    ("365", "1e-5"): "the run needs K + n_steps + 1 = 64000065 nodes",
    ("365", "1e-20"): "the run needs K + n_steps + 1 = 6.4e+22 nodes",
    ("1e6", "1e-300"): "the run needs K + n_steps + 1 = 6.4e+302 nodes",
    ("1e200", "1"): "qbar_2 underflows to 0",
    # tau p overflows; mu = 3.09e-11 underflows qbar_2 (and p / mu in zeta)
    ("2.4133565475654057e+299", "22289575101739.875"): "qbar_2 underflows",
    # no --t-end given: the default t0 + 20 tau is inf
    ("365", "1e308"): "tau = 1e+308 overflows the default t_end",
}


@pytest.mark.parametrize("p, tau", list(_DOMAIN_EXIT_REASONS))
def test_domain_exceptions_exit_1_with_one_line(p, tau, capsys):
    # a warning on the way would print a second line in the command
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run_cli("analyze", "--p", p, "--tau", tau) == 1
    assert [str(w.message) for w in seen] == []
    err = capsys.readouterr().err
    assert err.startswith("error: " + _DOMAIN_EXIT_REASONS[p, tau])
    assert err.count("\n") == 1


@pytest.mark.parametrize("p, tau", [
    key for key, reason in _DOMAIN_EXIT_REASONS.items()
    if reason.startswith("the run needs")])
def test_heteroclinic_over_the_node_cap_exits_1_like_analyze(
        p, tau, tmp_path, capsys):
    # the default run's nodes are counted before the series is built,
    # whose eps cap rounds to 0 at tau = 1e-20
    assert run_cli("analyze", "--p", p, "--tau", tau) == 1
    want = capsys.readouterr().err
    assert run_cli("heteroclinic", "--p", p, "--tau", tau, "--out",
                   f"{tmp_path / 'traj.csv'},{tmp_path / 'x.json'}") == 1
    assert capsys.readouterr().err == want
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("series", "--p", "365", "--tau", "1e-20"),
    ("series", "--p", "365", "--tau", "1e-20", "--eps", "0.5"),
    ("heteroclinic", "--p", "365", "--tau", "1e-20", "--t-end", "1")],
    ids=["series", "series_eps", "heteroclinic_t_end"])
def test_eps_cap_rounding_to_0_exits_1_with_one_line(argv, tmp_path, capsys):
    # e^{mu tau} - 1 is 0 in floats at mu tau = 3.6e-18: the series has no
    # eps range, whichever eps is asked for
    assert run_cli(*argv, "--out",
                   f"{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}") == 1
    err = capsys.readouterr().err
    assert err == ("error: the eps cap e^{mu tau} - 1 rounds to 0 at mu tau = "
                   "3.64e-18; the series horizon is undefined\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("p, tau", [
    ("315795.2413526715", "0.5833923191030249"),
    ("636650.0078004306", "0.6583807767438601")])
def test_unsettled_tail_exits_0_with_its_reason(p, tau, tmp_path):
    # the run ends with its tail still swinging: analyze keeps the whole
    # report and gives the reason, heteroclinic lists it among anomalies
    report = tmp_path / "report.json"
    assert run_cli("analyze", "--p", p, "--tau", tau,
                   "--out", str(report)) == 0
    het = json.loads(report.read_text())["heteroclinic"]
    assert het["tail"] == "inconclusive"
    assert het["reason"].startswith("tail not settled")
    traj, cross = tmp_path / "traj.csv", tmp_path / "crossings.json"
    assert run_cli("heteroclinic", "--p", p, "--tau", tau,
                   "--out", f"{traj},{cross}") == 0
    payload = json.loads(cross.read_text())
    assert payload["tail_class"] == "inconclusive"
    assert payload["anomalies"][-1] == het["reason"]
    assert len(payload["crossings"]) == het["crossings"]


@pytest.mark.parametrize("option", [("--t-end", "1e9"),
                                    ("--k", "1000000000"),
                                    ("--tau", "1e-5")],  # the later --tau
                         ids=["t_end", "k", "tau"])
def test_heteroclinic_over_the_node_cap_exits_1_unallocated(
        option, tmp_path, capsys):
    import tracemalloc

    argv = ("heteroclinic", "--p", "365", "--tau", "0.07", *option,
            "--out", f"{tmp_path / 'traj.csv'},{tmp_path / 'crossings.json'}")
    run_cli(*argv)  # the command's lazy imports allocate on a first call
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the run needs K + n_steps + 1 = ")
    assert err.endswith(", above the cap of 2000000\n")
    assert err.count("\n") == 1
    assert peak < 2**20
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t_end", ["inf", "-inf", "nan"])
def test_heteroclinic_non_finite_t_end_exits_1(t_end, tmp_path, capsys):
    assert run_cli("heteroclinic", "--p", "365", "--tau", "0.07",
                   f"--t-end={t_end}", "--out",
                   f"{tmp_path / 'traj.csv'},{tmp_path / 'x.json'}") == 1
    assert capsys.readouterr().err == (
        f"error: t_end must be finite, got {float(t_end)}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option, name", [("--p", "p"), ("--tau", "tau")])
def test_non_finite_parameter_exits_1_with_one_line(option, name, capsys):
    argv = {"--p": "365", "--tau": "0.07", option: "inf"}
    assert run_cli("analyze", *itertools.chain(*argv.items())) == 1
    assert capsys.readouterr().err == (
        f"error: {name} must be finite and "
        f"{'exceed 1' if name == 'p' else '>= 0'}, got inf\n")


@pytest.mark.parametrize("option, value", [
    ("--tau", "0.03:0.12:x"), ("--tau", "0.03:0.12"), ("--tau", "-1:1:3"),
    ("--tau", "0:inf:2"), ("--p", "8:1200:x"), ("--p", "1:3:2"),
    ("--p", "nan:3:2")])
def test_atlas_bad_range_is_a_usage_error(option, value, tmp_path, capsys):
    ranges = {"--tau": "0.03:0.12:3", "--p": "8:1200:3", option: value}
    with pytest.raises(SystemExit) as exc:
        run_cli("atlas", *itertools.chain(*ranges.items()),
                "--out", str(tmp_path / "map.csv"))
    assert exc.value.code == 64
    assert f"argument {option}: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_analyze_to_stdout_writes_no_manifest(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("analyze", "--p", "365", "--tau", "0.07") == 0
    assert json.loads(capsys.readouterr().out)["nm_verdict"] is True
    assert not list(tmp_path.iterdir())


def test_failed_verify_writes_its_csv_and_manifest(tmp_path, monkeypatch,
                                                   capsys):
    from nmwaves import verify

    monkeypatch.setattr(verify, "run_suite", lambda name, grid=None: (
        False, [("always_fails", -1.0, 0.0, False)]))
    out = tmp_path / "margins.csv"
    assert run_cli("verify", "--suite", "model", "--out", str(out)) == 2
    assert out.read_text() == ("check,margin,threshold,status\n"
                               "always_fails,-1.0,0.0,FAIL\n")
    manifest = json.loads((tmp_path / "margins.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "verify"
    assert manifest["config"] == {"suite": "model", "grid": None}
    assert manifest["outputs"] == [str(out)]
    assert manifest["wall_time_s"] >= 0.0
    assert "FAIL  always_fails" in capsys.readouterr().out


@pytest.mark.parametrize("c", ["1e-300", "1e300", "inf"])
def test_extreme_speed_exits_1_with_one_line(c, capsys):
    # the root window at ln p cannot be certified at these speeds
    assert run_cli("analyze", "--p", "365", "--tau", "0.07", "--c", c) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window certification failed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_verify_grid_below_two_is_a_usage_error(grid, capsys):
    for suite in ("regions", "model"):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--suite", suite, "--grid", grid)
        assert exc.value.code == 64
        assert "grid must be an integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("command, n", [("series", 2), ("heteroclinic", 2),
                                        ("simulate", 3)])
def test_out_path_count_is_a_usage_error(command, n, tmp_path, capsys):
    inputs = {"simulate": ("--preset", "fast-front-smoke")}.get(
        command, ("--p", "365", "--tau", "0.07"))
    for count in (n - 1, n + 1):
        out = ",".join(str(tmp_path / f"o{i}") for i in range(count))
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *inputs, "--out", out)
        assert exc.value.code == 64
        assert (f"expected {n} comma-separated paths, got {count}"
                in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_python_m_nmwaves_is_the_cli():
    argv = ["analyze", "--p", "365", "--tau", "0.07", "--c", "50"]
    procs = [subprocess.run([sys.executable, "-m", module, *argv],
                            capture_output=True, env=_child_env())
             for module in ("nmwaves", "nmwaves.cli")]
    assert procs[0].returncode == procs[1].returncode == 0
    assert procs[0].stdout == procs[1].stdout
    assert procs[0].stderr == procs[1].stderr == b""


def test_usage_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "nmwaves.cli", "--bogus"],
        capture_output=True, env=_child_env())
    assert proc.returncode == 64
    proc = subprocess.run(
        [sys.executable, "-m", "nmwaves.cli", "nosuchcommand"],
        capture_output=True, env=_child_env())
    assert proc.returncode == 64


def test_import_leaves_scipy_linalg_unloaded():
    # scipy is a test dependency only: its import would otherwise dominate
    # the start-up of every command, and the Crank-Nicolson run of the
    # fast-front commands is the one place that used it
    # the package root imports nothing, so every module is imported here
    code = ("import importlib, pkgutil, sys, nmwaves\n"
            "for m in pkgutil.iter_modules(nmwaves.__path__):\n"
            "    importlib.import_module('nmwaves.' + m.name)\n"
            "assert 'nmwaves.cli' in sys.modules\n"
            "print('scipy.linalg' in sys.modules)\n"
            "from nmwaves.pde import Scheme, preset, simulate\n"
            "cfg = preset('fast-front-smoke')\n"
            "assert cfg.scheme is Scheme.CRANK_NICOLSON\n"
            "simulate(cfg)\n"
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_child_env())
    assert proc.stdout.split() == ["False", "False"]


def _loaded_after(imports: str, names) -> list[str]:
    """Which of names are in sys.modules after imports, in a new process."""
    code = (f"import json, sys, {imports}\n"
            f"print(json.dumps([n for n in {list(names)!r} "
            f"if n in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_child_env())
    return json.loads(proc.stdout)


def test_cli_import_leaves_numpy_unloaded():
    # --help and usage errors need no numerics
    assert _loaded_after("nmwaves.cli", ["numpy"]) == []


def test_simulation_layers_load_no_analysis_layer():
    layers = ["nmwaves." + m for m in ("atlas", "charroots", "dirichlet",
                                      "heteroclinic", "verify")]
    assert _loaded_after("nmwaves.pde, nmwaves.diagnostics", layers) == []


def test_membership_disagreement_exits_1_with_one_line(monkeypatch, capsys):
    # a root test that finds no root, although tau lies below T(c) =
    # 0.0704, makes the two membership routes disagree
    from nmwaves import atlas

    monkeypatch.setattr(atlas, "negative_root_exists",
                        lambda p, tau, c: np.zeros(np.shape(tau), dtype=bool))
    assert run_cli("analyze", "--p", "365", "--tau", "0.07",
                   "--c", "50") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: root test says") and err.count("\n") == 1


def test_membership_just_above_the_boundary_at_large_speed(tmp_path):
    # tau lies 2.2e-5 above T(c) = 0.2615318: the hump maximum of the
    # root test is 5e-4 below zero, which is no root at c = 767
    out = tmp_path / "a.json"
    assert run_cli("analyze", "--p", "8.028024095968561",
                   "--tau", "0.26155954980657276",
                   "--c", "767.5744060944412", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["in_dm"] is False
    assert payload["tail_class"] == "oscillating"


@pytest.mark.parametrize("command", [
    ("analyze", "--p", "365", "--tau", "0.07"),
    ("verify", "--suite", "series"),
])
def test_unconverged_zeta_quadrature_exits_1_with_one_line(
        command, monkeypatch, capsys):
    from nmwaves import dirichlet

    quadrature = dirichlet.integrate_adaptive
    monkeypatch.setattr(
        dirichlet, "integrate_adaptive",
        lambda f, a, b, tol: quadrature(lambda s: np.full_like(s, np.nan),
                                        a, b, tol))
    assert run_cli(*command) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature did not converge")
    assert err.count("\n") == 1


@pytest.mark.parametrize("P", ["nan", "inf", "-inf"])
def test_boundaries_amplitude_must_be_finite(tmp_path, capsys, P):
    out = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("boundaries", f"--P={P}", "--c", "1:10:3", "--out", str(out))
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "P must be a finite number" in err
    assert not out.exists()


def _assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def test_directory_output_exits_1_with_one_line(tmp_path, capsys):
    assert run_cli("analyze", "--p", "365", "--tau", "0.07",
                   "--out", str(tmp_path)) == 1
    _assert_one_error_line(capsys, "Is a directory", str(tmp_path))
    out = ",".join([str(tmp_path), str(tmp_path / "f.csv"),
                    str(tmp_path / "m.json")])
    assert run_cli("simulate", "--preset", "fast-front-smoke",
                   "--out", out) == 1
    _assert_one_error_line(capsys, "Is a directory", str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_over_long_manifest_name_exits_1_with_one_line(tmp_path, capsys):
    # the data file's name fits in 255 bytes, its manifest's does not
    out = tmp_path / ("a" * 250 + ".json")
    assert run_cli("analyze", "--p", "365", "--tau", "0.07",
                   "--out", str(out)) == 1
    _assert_one_error_line(capsys, "File name too long")
    assert json.loads(out.read_text())["nm_verdict"] is True
    assert [path.name for path in tmp_path.iterdir()] == [out.name]


def test_rerun_over_a_longer_output_gives_the_fresh_bytes(tmp_path):
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    assert run_cli("analyze", "--p", "365", "--tau", "0.07",
                   "--out", str(fresh)) == 0
    reused.write_text(" " * 20_000)
    Path(str(reused) + ".manifest.json").write_text("{}" * 5_000)
    assert run_cli("analyze", "--p", "365", "--tau", "0.07",
                   "--out", str(reused)) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    manifest = json.loads(Path(str(reused) + ".manifest.json").read_text())
    assert manifest["outputs"] == [str(reused)]


def test_device_output_writes_no_manifest():
    stray = Path(os.devnull + ".manifest.json")
    before = stray.stat().st_mtime_ns if stray.exists() else None
    try:
        assert run_cli("analyze", "--p", "365", "--tau", "0.07",
                       "--out", os.devnull) == 0
        after = stray.stat().st_mtime_ns if stray.exists() else None
        assert after == before
    finally:
        if before is None:
            stray.unlink(missing_ok=True)


def test_stdout_device_output_writes_json_and_no_manifest(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nmwaves.cli", "analyze", "--p", "365",
         "--tau", "0.07", "--out", "/dev/stdout"],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    stray = Path("/dev/stdout.manifest.json")
    try:
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["nm_verdict"] is True
        assert not stray.exists()
    finally:
        stray.unlink(missing_ok=True)


def test_stdout_redirected_to_a_file_writes_no_manifest(tmp_path):
    # /dev/stdout then leads to a regular file, but names a stream
    stray = Path("/dev/stdout.manifest.json")
    before = stray.exists()
    redirected = tmp_path / "redirected.csv"
    try:
        with open(redirected, "w") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "nmwaves.cli", "boundaries", "--P",
                 "4.8999", "--c", "1:2:2", "--out", "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE, text=True,
                env=_child_env(), cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert read_csv(redirected)[0][0] == "c"
        assert stray.exists() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "redirected.csv"]
    finally:
        if not before:
            stray.unlink(missing_ok=True)


def test_symlink_to_a_regular_file_keeps_the_manifest(tmp_path):
    target = tmp_path / "data" / "b.csv"
    target.parent.mkdir()
    target.write_text("")
    link = tmp_path / "b.csv"
    link.symlink_to(target)
    assert main(["boundaries", "--P", "4.8999", "--c", "1:2:2",
                 "--out", str(link)]) == 0
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(link)]
    assert read_csv(target)[0][0] == "c"


def _run_child(*argv, cwd=None):
    """The CLI in a child interpreter: numpy's warnings reach its stderr,
    which pytest's warning capture would hide from capsys."""
    return subprocess.run([sys.executable, "-m", "nmwaves.cli", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          cwd=cwd)


def test_readme_command_line_block_runs_cleanly(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line")[1].split("\n## ")[0]
    lines = [line.strip() for line in block.splitlines()
             if line.strip().startswith("nmwaves ")]
    assert len(lines) >= 12
    for line in lines:  # in order: diagnose reads what simulate wrote
        proc = _run_child(*shlex.split(line)[1:], cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), line


def _check_boundaries_run(P, c_range, out):
    """Exit 0 with empty stderr and the inclusion T(c) < tau(c) in every
    row where 1 < P <= 2^26 (tau(c) is NaN above), or exit 1 with one
    error line; returns the code."""
    proc = _run_child("boundaries", "--P", repr(P), "--c", c_range,
                      "--out", str(out))
    if proc.returncode == 1:
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        return 1
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = read_csv(out)[1]
    assert len(rows) == int(c_range.split(":")[2])
    if 1.0 < P <= 2.0 ** 26:
        assert all(T_c < tau_c for _, T_c, tau_c, _, _ in rows)
    elif P > 1.0:
        assert all(math.isnan(tau_c) for _, _, tau_c, _, _ in rows)
    return 0


@pytest.mark.parametrize("P, c_range, code", [
    (4.8999, "1e150:1e150:1", 0),      # X in T(c)'s left side overflows
    (4.8999, "1e300:1e300:1", 0),      # and c^2 in tau(c)'s roots as well
    (4.8999, "1e-300:1e-300:1", 0),
    (1.0000000000001, "1e-8:1:3", 0),
    (1e300, "1e-300:1e300:3", 0),      # tau(c) is NaN above P = 2^26
    (1e-300, "0.01:1000:5", 0),        # T_star is large: T + ln T = 689.8
])
def test_boundaries_at_extreme_inputs(P, c_range, code, tmp_path):
    assert _check_boundaries_run(P, c_range, tmp_path / "b.csv") == code


@pytest.mark.parametrize("c", ["1e150", "1e300"])
def test_boundaries_at_huge_speeds_print_the_limits(c, tmp_path):
    # T(c) and tau(c) equal their large-speed limits to every digit there
    out = tmp_path / "b.csv"
    proc = _run_child("boundaries", "--P", "4.8999", "--c", f"{c}:{c}:1",
                      "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    [(c_out, T_c, tau_c, tau_hat, T_star)] = read_csv(out)[1]
    assert c_out == float(c)
    assert T_star == pytest.approx(0.0700029596969, rel=1e-12)
    assert T_c == pytest.approx(T_star, rel=1e-12)
    assert tau_c == pytest.approx(tau_hat, rel=1e-12)


def test_boundaries_sweep_exits_0_cleanly_or_1_with_one_line(tmp_path):
    # log10 P in cells on both sides of P = 1 and of tau(c)'s P <= 2^26
    rng = random.Random(20261019)
    codes = []
    for lo, hi in ((-300, -30), (-30, 0), (0, 7.8), (7.8, 30), (30, 300)):
        for i in range(2):
            P = 10.0 ** rng.uniform(lo, hi)
            c_lo, c_hi = sorted(10.0 ** rng.uniform(-300, 300)
                                for _ in range(2))
            codes.append(_check_boundaries_run(
                P, f"{c_lo!r}:{c_hi!r}:3", tmp_path / f"b{lo}_{i}.csv"))
    # above P = 2^26 only the tau(c) column is NaN: every cell exits 0
    assert set(codes) == {0}


def test_boundaries_above_the_tau_cap_write_the_other_columns(tmp_path):
    out = tmp_path / "b.csv"
    proc = _run_child("boundaries", "--P", "1e20", "--c", "0.01:1000:60",
                      "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    header, rows = read_csv(out)
    assert header == ["c", "T_of_c", "tau_of_c", "tau_hat", "T_star"]
    assert len(rows) == 60
    c, T_c, tau_c, tau_hat, T_star = rows[0]
    assert c == 0.01
    assert T_c == pytest.approx(7.36e-09, rel=1e-3)
    assert tau_hat == 1e-20  # log1p(1/(P - 1)) to the ulp
    assert T_star == pytest.approx(3.68e-21, rel=1e-3)
    for c, T_c, tau_c, tau_hat, T_star in rows:
        assert math.isnan(tau_c)
        assert T_star < T_c < math.inf


def test_overflowing_integrator_matrix_prints_one_line():
    # at tau = 1e5 the step h is 1562 and R^i overflows in the chunk matrix
    proc = _run_child("analyze", "--p", "365", "--tau", "1e5")
    assert proc.returncode == 1
    assert proc.stderr == "error: |u| exceeded 1e6 at t = 3125.0\n"


@pytest.mark.parametrize("tau", ["1e100", "1e300"])
def test_step_whose_fourth_power_overflows_prints_one_line(tau):
    proc = _run_child("analyze", "--p", "365", "--tau", tau)
    assert proc.returncode == 1
    h = float(tau) / 64
    assert proc.stderr == (f"error: tau = {float(tau):g} gives the step "
                           f"h = tau/K = {h:g} (K = 64), whose h^4 in the "
                           "RK4 step overflows\n")


def test_package_errors_share_one_base():
    from nmwaves.atlas import MembershipInconsistency
    from nmwaves.dirichlet import CoefficientOverflow
    from nmwaves.heteroclinic import BlowUpError
    from nmwaves.numerics import BracketingError, DomainError, QuadratureError

    for error in (QuadratureError, BracketingError, CoefficientOverflow,
                  BlowUpError, MembershipInconsistency):
        assert issubclass(error, DomainError)
    assert DomainError in cli._domain_errors()
