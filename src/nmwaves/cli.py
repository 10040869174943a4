"""Command-line entry point.

Subcommands map one-to-one onto the library surface: analyze, series,
heteroclinic, atlas, boundaries, simulate, diagnose, verify. Data files
carry no timestamps so byte-identical reruns are possible; the wall time
(lazy imports included) and configuration go into a run manifest beside
the first output, when that output is a regular file.

Exit codes: 0 success, 1 domain error or a path that cannot be read or
written, 2 verification failure, 64 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Sequence

from .files import read_csv, write_csv, write_json

USAGE_EXIT = 64


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


MAX_RANGE = 10 ** 6  # values in a LO:HI:N range, points in an atlas grid


def _range_values(text: str):
    """(value, N) of a LO:HI:N inclusive linear range, value(i) being its
    i-th value; ValueError unless it has that form and N <= MAX_RANGE."""
    lo, hi, n = text.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if not 1 <= n <= MAX_RANGE:
        raise ValueError(f"range count must be from 1 to {MAX_RANGE}")
    return (lambda i: lo if n == 1 else lo + (hi - lo) * i / (n - 1)), n


def _parse_range(text: str) -> list[float]:
    """LO:HI:N inclusive linear range."""
    value, n = _range_values(text)
    return [value(i) for i in range(n)]


def _checked(convert, holds, must: str):
    """Option type: convert(text) if that holds, else "<must>, got <text>"."""
    def parse(text: str):
        try:
            value = convert(text)
            if holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{must}, got {text!r}")
    return parse


def _path_list(n: int):
    """--out type: exactly n comma-separated paths."""
    def parse(text: str) -> list[str]:
        paths = text.split(",")
        if len(paths) != n:
            raise argparse.ArgumentTypeError(
                f"expected {n} comma-separated paths, got {len(paths)} "
                f"in {text!r}")
        return paths
    return parse


def _range_of(what: str, domain: str, holds):
    """Type of a LO:HI:N range option whose values are all finite and
    satisfy holds. Rounded arithmetic is monotone and each domain a
    half-line, so the first and last values, computed alone, decide."""
    def ends_hold(text: str) -> bool:
        value, n = _range_values(text)
        return all(math.isfinite(v) and holds(v)
                   for v in (value(0), value(n - 1)))
    return _checked(str, ends_hold, f"{what} must be a LO:HI:N range of "
                                    f"finite {domain} and 1 <= N <= 10^6")


def _regular_file(path: str) -> bool:
    """Whether path is a regular file reached without passing through /dev
    or /proc: /dev/stdout leads to the file stdout is redirected to, but
    it names a stream, not an output file."""
    for _ in range(40):  # symlink hops; a cycle ends as not a file
        path = os.path.join(os.path.realpath(os.path.dirname(
            os.path.abspath(path))), os.path.basename(path))
        if path.startswith(("/dev/", "/proc/")):
            return False
        if not os.path.islink(path):
            return os.path.isfile(path)
        path = os.path.join(os.path.dirname(path), os.readlink(path))
    return False


def _manifest(subcommand: str, config: dict, outputs: list[str],
              started: float) -> None:
    """<first output>.manifest.json; nothing unless the first output is a
    regular file (none for stdout, /dev/null or a pipe)."""
    outputs = [path for path in outputs if path is not None]
    if not outputs or not _regular_file(outputs[0]):
        return
    from . import __version__
    payload = {
        "subcommand": subcommand,
        "config": config,
        "version": __version__,
        "wall_time_s": time.time() - started,
        "outputs": outputs,
    }
    write_json(outputs[0] + ".manifest.json", payload)


# each _cmd_* returns (exit code, config, output paths) for main's manifest
def _cmd_analyze(args) -> tuple[int, dict, list]:
    from .atlas import region_report
    from .charroots import minimal_speed
    from .dirichlet import qbar2_closed_form, zeta_by_quadrature
    from .heteroclinic import nm_verdict
    from .model import ModelParams

    params = ModelParams(p=args.p, tau=args.tau)
    verdict = nm_verdict(params)
    report = region_report(params, c=args.c)
    nec = report.nm_necessary
    payload = {
        "p": params.p,
        "tau": params.tau,
        "lnp": params.kappa,
        "P": params.P,
        "mu": params.mu,
        "qbar2": qbar2_closed_form(params),
        "zeta": verdict.zeta_value,
        "zeta_quadrature": zeta_by_quadrature(params),
        "in_p_window": verdict.in_p_window,
        "zeta_gt_lnp": verdict.zeta_gt_lnp,
        "nm_verdict": verdict.verdict,
        "nm_necessary": {
            "p_gt_e2": nec.p_gt_e2,
            "growth_product": nec.growth_product,
            "delay_product": nec.delay_product,
            "overall": nec.overall,
        },
        "gsc": report.gsc,
        "heteroclinic": None,
        "metadata": {
            "frames": "times in units of the linear decay rate; "
                      "u dimensionless; series normalized to leading "
                      "coefficient 1",
            "mu": "decay-rate root, 1/time",
            "zeta": "dimensionless population level",
        },
    }
    if verdict.tail_class is not None:  # max_u is None for a run not started
        payload["heteroclinic"] = {
            "max_u": verdict.max_u,
            "crossings": verdict.crossing_count,
            "tail": verdict.tail_class.value,
        }
        if verdict.tail_reason is not None:
            payload["heteroclinic"]["reason"] = verdict.tail_reason
    if args.c is not None:
        payload["c"] = args.c
        payload["c_star"] = minimal_speed(params)
        payload["tail_class"] = report.tail_class.value
        payload["in_dm"] = report.in_dm
        payload["in_ds"] = report.in_ds
    write_json(args.out, payload)
    return 0, {"p": args.p, "tau": args.tau, "c": args.c}, [args.out]


def _cmd_series(args) -> tuple[int, dict, list]:
    import numpy as np

    from .dirichlet import build
    from .model import ModelParams

    params = ModelParams(p=args.p, tau=args.tau)
    expansion = build(params, n_coeffs=args.n, eps=args.eps)
    coeffs_path, profile_path = args.out
    write_csv(coeffs_path, ["n", "qbar_n"],
              enumerate(expansion.coeffs, start=1))
    t_hi = expansion.handoff
    t_lo = t_hi - 8.0 / expansion.mu
    ts = [t_lo + (t_hi - t_lo) * i / 199 for i in range(200)]
    us = expansion.evaluate(np.array(ts)).tolist()  # each a float call's bits
    # bounds profile below the horizon: u2 < u < u1
    write_csv(profile_path, ["t", "u2", "u", "u1"],
              ([t, expansion.u2(t), u, expansion.u1(t)]
               for t, u in zip(ts, us)))
    return 0, {"p": args.p, "tau": args.tau, "n": args.n,
               "n_kept": len(expansion.coeffs), "eps": expansion.eps,
               "horizon": expansion.horizon}, args.out


def _cmd_heteroclinic(args) -> tuple[int, dict, list]:
    from .dirichlet import build
    from .heteroclinic import (check_default_run, crossings, first_maximum,
                               integrate)
    from .model import ModelParams

    params = ModelParams(p=args.p, tau=args.tau)
    if args.t_end is None:
        check_default_run(params.tau, args.k)
    expansion = build(params)
    traj = integrate(expansion, t_end=args.t_end, K=args.k)
    report = crossings(traj)
    first_max = first_maximum(traj)
    traj_path, cross_path = args.out
    write_csv(traj_path, ["t", "u", "du"],
              zip(traj.t.tolist(), traj.u.tolist(), traj.du.tolist()))
    payload = {
        "level": report.level,
        "crossings": [{"t": t, "slope_sign": s} for t, s in report.crossings],
        "gaps": list(report.gaps),
        "first_max": (None if first_max is None
                      else {"t": first_max[0], "u": first_max[1]}),
        "global_max": report.global_max,
        "tail_class": report.tail_class.value,
        "anomalies": list(report.anomalies),
    }
    write_json(cross_path, payload)
    return (0, {"p": args.p, "tau": args.tau, "t_end": args.t_end,
                "k": args.k}, args.out)


def _cmd_atlas(args) -> tuple[int, dict, list]:
    from .atlas import region_grid

    taus = _parse_range(args.tau)
    ps = _parse_range(args.p)
    if len(taus) * len(ps) > MAX_RANGE:
        raise ValueError(f"atlas grid of {len(taus)} x {len(ps)} points is "
                         f"above the cap of {MAX_RANGE}")
    rows = region_grid(taus, ps)
    write_csv(args.out, ["tau", "lnlnp", "flag"],
              ((tau, lnlnp, int(flag)) for tau, lnlnp, flag in rows))
    return 0, {"tau": args.tau, "p": args.p}, [args.out]


def _cmd_boundaries(args) -> tuple[int, dict, list]:
    import numpy as np

    from .atlas import TAU_OF_C_MAX_P, T_of_c, T_star, tau_hat, tau_of_c

    P = args.P
    cs = _parse_range(args.c)
    c_arr = np.array(cs)
    nan = [math.nan] * len(cs)
    th = tau_hat(P) if P > 1.0 else math.nan
    ts = T_star(P) if P > 0.0 else math.nan
    T_cs = T_of_c(P, c_arr).tolist() if P > 0.0 else nan
    tau_cs = (tau_of_c(P, c_arr).tolist() if 1.0 < P <= TAU_OF_C_MAX_P
              else nan)
    write_csv(args.out, ["c", "T_of_c", "tau_of_c", "tau_hat", "T_star"],
              ((c, T_c, tau_c, th, ts)
               for c, T_c, tau_c in zip(cs, T_cs, tau_cs)))
    return 0, {"P": P, "c": args.c}, [args.out]


def _cmd_simulate(args) -> tuple[int, dict, list]:
    from .pde import (config_from_dict, preset, simulate, write_front_csv,
                      write_metadata_json, write_snapshots_csv)

    if args.preset is not None:
        config = preset(args.preset)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = config_from_dict(json.load(fh))
    record = simulate(config)
    snaps_path, front_path, meta_path = args.out
    write_snapshots_csv(record, snaps_path)
    write_front_csv(record, front_path)
    write_metadata_json(record, meta_path)
    return 0, record.config.to_dict(), args.out


def _cmd_diagnose(args) -> tuple[int, dict, list]:
    import numpy as np

    from .diagnostics import diagnose, diagnostics_to_dict
    from .model import ModelParams
    from .pde import SpacetimeRecord, front_position, tracking_level

    params = ModelParams(p=args.p, tau=args.tau)
    header, rows = read_csv(args.infile)
    x = np.array([float(v) for v in header[1:]])
    if not np.all(np.isfinite(x)):
        raise ValueError("the header holds a non-finite x position")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"snapshot at t = {row[0]} has {len(row) - 1} "
                             f"values for {len(x)} x positions")
        if not np.all(np.isfinite(row)):
            raise ValueError(f"snapshot at t = {row[0]} holds a non-finite "
                             f"value")
    snaps = [(row[0], np.array(row[1:])) for row in rows]
    if not snaps:
        raise ValueError(f"no snapshots in {args.infile}")
    level = tracking_level(params)
    if args.front:
        track = [tuple(row) for row in read_csv(args.front)[1]
                 if len(row) == 2]
    else:
        track = [(t, front_position(x, u, level)) for t, u in snaps]
    record = SpacetimeRecord(x=x, snapshots=snaps, front_track=track,
                             config=None)
    write_json(args.out, diagnostics_to_dict(diagnose(record, params)))
    return 0, {"in": args.infile, "p": args.p, "tau": args.tau}, [args.out]


def _cmd_verify(args) -> tuple[int, dict, list]:
    from .verify import run_suite

    ok, margins = run_suite(args.suite, grid=args.grid)
    if args.out:
        write_csv(args.out, ["check", "margin", "threshold", "status"],
                  ((name, margin, threshold, "pass" if passed else "FAIL")
                   for name, margin, threshold, passed in margins))
    for name, margin, threshold, passed in margins:
        status = "pass" if passed else "FAIL"
        sys.stdout.write(f"{status:4s}  {name}: margin {margin:.6g} "
                         f"(threshold {threshold:.6g})\n")
    return 0 if ok else 2, {"suite": args.suite, "grid": args.grid}, [args.out]


def _domain_errors() -> tuple[type[Exception], ...]:
    """Exceptions that report an input outside what the methods handle,
    or an input or output path that cannot be read or written."""
    from .numerics import DomainError
    return ValueError, OSError, OverflowError, FloatingPointError, DomainError


@functools.cache
def build_parser() -> CliParser:
    """The parser, built once per process; each parse gets a new namespace."""
    parser = CliParser(prog="nmwaves",
                       description="Delayed reaction-diffusion wavefront "
                                   "analysis for the Nicholson blowflies "
                                   "equation")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="scalar analysis at one (p, tau)")
    a.add_argument("--p", type=float, required=True)
    a.add_argument("--tau", type=float, required=True)
    a.add_argument("--c", type=float, default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("series", help="series coefficients and bounds profile")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--tau", type=float, required=True)
    s.add_argument("--n", default=40, help="most coefficients kept",
                   type=_checked(int, lambda n: 2 <= n <= 1000,
                                 "n must be an integer from 2 to 1000"))
    s.add_argument("--eps", type=float, default=None)
    s.add_argument("--out", type=_path_list(2), required=True,
                   help="coeffs.csv,profile.csv")
    s.set_defaults(func=_cmd_series)

    h = sub.add_parser("heteroclinic", help="integrate past the horizon")
    h.add_argument("--p", type=float, required=True)
    h.add_argument("--tau", type=float, required=True)
    h.add_argument("--t-end", dest="t_end", type=float, default=None)
    h.add_argument("--k", type=int, default=64,
                   help="steps per delay interval")
    h.add_argument("--out", type=_path_list(2), required=True,
                   help="traj.csv,crossings.json")
    h.set_defaults(func=_cmd_heteroclinic)

    g = sub.add_parser("atlas", help="(tau, p) region map")
    g.add_argument("--tau", required=True, help="LO:HI:N, N <= 10^6",
                   type=_range_of("delays", "tau >= 0", lambda t: t >= 0.0))
    g.add_argument("--p", required=True, help="LO:HI:N, N <= 10^6",
                   type=_range_of("amplitudes", "p > 1", lambda p: p > 1.0))
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_atlas)

    b = sub.add_parser("boundaries", help="boundary curves over c")
    b.add_argument("--P", required=True, type=_checked(
        float, math.isfinite, "P must be a finite number"))
    b.add_argument("--c", required=True, help="LO:HI:N, N <= 10^6",
                   type=_range_of("speeds", "c > 0", lambda c: c > 0.0))
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_boundaries)

    m = sub.add_parser("simulate", help="run a reaction-diffusion simulation")
    source = m.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=["minimal-front", "fast-front",
                                             "fast-front-smoke"])
    source.add_argument("--config", help="JSON config file")
    m.add_argument("--out", type=_path_list(3), required=True,
                   help="snaps.csv,front.csv,meta.json")
    m.set_defaults(func=_cmd_simulate)

    d = sub.add_parser("diagnose", help="front diagnostics from snapshots")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--p", type=float, required=True)
    d.add_argument("--tau", type=float, required=True)
    d.add_argument("--front", default=None,
                   help="optional dense front-track CSV for the speed fit")
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_diagnose)

    v = sub.add_parser("verify", help="certified sweeps and property suites")
    v.add_argument("--suite", choices=["regions", "series", "model"],
                   required=True)
    v.add_argument("--grid", default=None,
                   type=_checked(int, lambda n: n >= 2,
                                 "grid must be an integer >= 2"),
                   help="override sweep grid resolution")
    v.add_argument("--out", default=None, help="margins CSV")
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        code, config, outputs = args.func(args)
        _manifest(args.command, config, outputs, started)
    except _domain_errors() as exc:  # evaluated only once something raised
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
