"""The four benchmark workloads.

Each workload is a single-client closed loop: one operation at a time,
each operation the library computation behind one README CLI command.
A workload supplies its inputs in blocks (``block``), runs one operation
(``run``, the timed part) and checks its output (``check``, untimed).

A block is the unit the loop finishes before it looks at the clock, so
every run sees the same mix of inputs. A run counts a fixed number of
blocks, set by --seconds, and repeats them while time is left. The seeded workloads stratify
each block over the input domain; the seed only jitters points inside
their strata, which keeps run-to-run spread small without narrowing the
domain.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ATLAS_REFERENCE = os.path.join(HERE, "data", "atlas_flags.json")


class CheckFailed(Exception):
    """The operation returned, but its output failed the workload's check."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


class Outcome(NamedTuple):
    """What a checked operation produced."""

    digest: str        # sha256 of the operation's output, for determinism
    points: int        # parameter points answered
    cell_steps: int    # grid cells x time steps (see README.md)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _rng(seed: int, block: int) -> random.Random:
    return random.Random(seed * 1_000_003 + block)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_cells(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    """n intervals of equal log width covering [lo, hi]."""
    edges = [lo * (hi / lo) ** (i / n) for i in range(n + 1)]
    return list(zip(edges[:-1], edges[1:]))


# ---------------------------------------------------------------------------
# point-analysis
# ---------------------------------------------------------------------------

README_POINT = (365.0, 0.07, 50.0)


def check_readme_payload(payload: dict) -> None:
    """README worked values at (365, 0.07, c = 50), at the tolerances of
    tests/test_acceptance.py (01, 02, 03, 05) and tests/test_cli.py."""
    lnp = math.log(365.0)
    problems = []
    if not abs(payload["mu"] - 33.64) <= 0.01:
        problems.append(f"mu {payload['mu']}")
    if not -0.055 <= payload["qbar2"] <= -0.045:
        problems.append(f"qbar2 {payload['qbar2']}")
    if not (abs(payload["zeta"] - 6.46) <= 0.01 and payload["zeta"] > lnp):
        problems.append(f"zeta {payload['zeta']}")
    if not abs(payload["c_star"] - 7.89) <= 0.01:
        problems.append(f"c_star {payload['c_star']}")
    if payload["nm_verdict"] is not True:
        problems.append("nm_verdict not true")
    if (payload["heteroclinic"] or {}).get("tail") != "monotone_tail":
        problems.append(f"tail {payload['heteroclinic']}")
    if problems:
        raise CheckFailed("check_readme", "; ".join(problems))


def integrator_steps(tau: float) -> int:
    """Method-of-steps nodes the analyze run integrates at this delay.

    Fixed by the problem, not the solver: the README integration window
    max(10, 20 tau) at 64 steps per delay interval (heteroclinic
    defaults). No integration at tau = 0.
    """
    if tau <= 0.0:
        return 0
    return int(math.ceil(max(10.0, 20.0 * tau) / (tau / 64) - 1e-12))


class PointAnalysis:
    """``nmwaves analyze`` at seeded (p, tau, c) over the documented domain."""

    name = "point-analysis"
    setup_modules = ("nmwaves.cli", "nmwaves.atlas", "nmwaves.charroots",
                     "nmwaves.dirichlet", "nmwaves.heteroclinic",
                     "nmwaves.model")
    cli_args = ("analyze", "--p", "365", "--tau", "0.07", "--c", "50")
    cli_repeats = 9
    tail_pct = 95
    # Failures present at the seed commit: the ROADMAP item 4 domain
    # defects (overflow in p_window for tau <= 1e-4, inconclusive tails on
    # converged trajectories, blow-up at large tau), the CLI's exit 1 for a
    # domain error, and the gamma-form vs quadrature zeta cross-check
    # exceeding 1e-10 at large p or tau. They count as failed operations;
    # any other failure makes the run incorrect.
    known_failures = frozenset({"OverflowError", "InconclusiveTail",
                                "BlowUpError", "exit_1", "check_zeta_cross"})
    # Each block draws one point in every cell of an 18 x 3 grid of equal
    # log-width cells over tau in [0.01, 50] and p in [1.001, 1e6], so
    # every block has the same spread of cheap and expensive (small tau)
    # points and of the regions where the known failures occur.
    tau_cells = _log_cells(0.01, 50.0, 18)
    p_cells = _log_cells(1.001, 1e6, 3)
    edge = 6           # per block at tau = 0, and again at tau <= 1e-4
    # nominal time of one block run untraced and traced; a run counts
    # round(seconds / block_seconds) blocks (run.fixed_blocks)
    block_seconds = 7.5

    def __init__(self, workdir: str):
        from nmwaves import cli
        self.cli = cli
        self.out = os.path.join(workdir, "report.json")

    def block(self, seed: int, b: int) -> list[tuple]:
        rng = _rng(seed, b)
        cs = (None, 0.5, 50.0)
        points = [(_log_uniform(rng, *p_cell), _log_uniform(rng, *tau_cell),
                   rng.choice(cs))
                  for tau_cell in self.tau_cells for p_cell in self.p_cells]
        for _ in range(self.edge):
            points.append((_log_uniform(rng, 1.001, 1e6), 0.0,
                           rng.choice(cs)))
            points.append((_log_uniform(rng, 1.001, 1e6),
                           _log_uniform(rng, 1e-6, 1e-4), rng.choice(cs)))
        points.append(README_POINT)
        rng.shuffle(points)
        return points

    def run(self, inp):
        p, tau, c = inp
        argv = ["analyze", "--p", repr(p), "--tau", repr(tau),
                "--out", self.out]
        if c is not None:
            argv += ["--c", repr(c)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, err.getvalue()

    def check(self, inp, raw) -> Outcome:
        code, err = raw
        if code != 0:
            raise CheckFailed(f"exit_{code}", err.strip()[:200])
        with open(self.out, "rb") as fh:
            data = fh.read()
        payload = json.loads(data)
        gap = abs(payload["zeta"] - payload["zeta_quadrature"])
        if not gap <= 1e-10:
            raise CheckFailed("check_zeta_cross",
                              f"|zeta - zeta_quadrature| = {gap:.3e} at "
                              f"(p, tau) = ({inp[0]!r}, {inp[1]!r})")
        if inp == README_POINT:
            check_readme_payload(payload)
        return Outcome(_sha(data), 1, integrator_steps(inp[1]))

    def check_cli(self, stdout: str) -> None:
        check_readme_payload(json.loads(stdout))


# ---------------------------------------------------------------------------
# atlas-sweep
# ---------------------------------------------------------------------------

ATLAS_TAU = (0.03, 0.12)
ATLAS_P = (8.0, 1200.0)
ATLAS_ROWS = 30        # tau strata, one row each per block
ATLAS_COLS = 30        # p values per row
ATLAS_SUBROWS = 20     # candidate rows inside each tau stratum
ATLAS_JITTER = 0.4     # share of a stratum (and of a column) they span


def atlas_row(stratum: int, sub: int) -> tuple[float, list[float]]:
    """tau and p values of one candidate row of the jittered README box.

    The pool holds ATLAS_SUBROWS candidate rows in each of ATLAS_ROWS tau
    strata, spread over the central ATLAS_JITTER share of the stratum;
    each row's p columns are shifted by a row-specific share of the column
    spacing, within the same central band. The seed picks one candidate per
    stratum, so every block is a jittered 30 x 30 grid over the box, and
    every row any seed can draw has reference flags in
    data/atlas_flags.json. The jitter is kept to the central band because
    a row's cost is the number of its points that pass p_window: wider
    jitter makes that count, and so the median latency, depend on the seed.
    """
    t_lo, t_hi = ATLAS_TAU
    p_lo, p_hi = ATLAS_P
    offset = ((sub + 0.5) / ATLAS_SUBROWS - 0.5) * ATLAS_JITTER
    tau = t_lo + (t_hi - t_lo) * (stratum + 0.5 + offset) / ATLAS_ROWS
    k = (7 * sub + 3 * stratum) % ATLAS_SUBROWS
    shift = 0.5 + ((k + 0.5) / ATLAS_SUBROWS - 0.5) * ATLAS_JITTER
    ps = [p_lo + (p_hi - p_lo) * (j + shift) / ATLAS_COLS
          for j in range(ATLAS_COLS)]
    return tau, ps


def readme_grid() -> tuple[list[float], list[float]]:
    """The CLI's `--tau 0.03:0.12:30 --p 8:1200:30` grid."""
    def lin(lo, hi, n):
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return lin(*ATLAS_TAU, ATLAS_ROWS), lin(*ATLAS_P, ATLAS_COLS)


def flag_string(rows) -> str:
    return "".join("1" if flag else "0" for _, _, flag in rows)


class AtlasSweep:
    """``atlas.region_grid`` one tau row at a time over the README box."""

    name = "atlas-sweep"
    setup_modules = ("nmwaves.atlas", "nmwaves.heteroclinic")
    cli_repeats = 3    # the 30 x 30 atlas command takes ~3 s
    tail_pct = 90
    known_failures = frozenset()
    block_seconds = 4.0

    def __init__(self, workdir: str):
        from nmwaves import atlas
        self.atlas = atlas
        self.map_path = os.path.join(workdir, "map.csv")
        self.cli_args = ("atlas", "--tau", "%r:%r:%d" % (*ATLAS_TAU,
                                                          ATLAS_ROWS),
                         "--p", "%r:%r:%d" % (*ATLAS_P, ATLAS_COLS),
                         "--out", self.map_path)
        with open(ATLAS_REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def block(self, seed: int, b: int) -> list[tuple[int, int]]:
        rng = _rng(seed, b)
        rows = [(s, rng.randrange(ATLAS_SUBROWS)) for s in range(ATLAS_ROWS)]
        rng.shuffle(rows)
        return rows

    def run(self, inp):
        tau, ps = atlas_row(*inp)
        return self.atlas.region_grid([tau], ps)

    def check(self, inp, raw) -> Outcome:
        got = flag_string(raw)
        want = self.reference["rows"][inp[0]][inp[1]]
        if got != want:
            raise CheckFailed("check_flags",
                              f"row {inp}: flags {got} != reference {want}")
        return Outcome(_sha(repr(raw).encode()), len(raw), len(raw))

    def check_cli(self, stdout: str) -> None:
        with open(self.map_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        got = "".join(line.rsplit(",", 1)[1] for line in lines)
        if got != self.reference["readme_grid"]:
            raise CheckFailed("check_cli_flags",
                              "atlas CLI flags differ from the reference")


# ---------------------------------------------------------------------------
# front-simulation
# ---------------------------------------------------------------------------

FAST_SPEED = 48.2635      # README: decay-selected fast-front speed
MINIMAL_SPEED = 7.8917    # README: minimal speed c*
# grid cells x time steps of the two presets (6001 x 200, 4001 x 215)
FRONT_CELL_STEPS = 6001 * 200 + 4001 * 215


class FrontSimulation:
    """``simulate`` + output files + ``diagnose`` for both front presets."""

    name = "front-simulation"
    setup_modules = ("nmwaves.pde", "nmwaves.diagnostics")
    cli_repeats = 9
    tail_pct = 75
    known_failures = frozenset()
    block_seconds = 0.75
    presets = ("fast-front", "minimal-front")

    def __init__(self, workdir: str):
        from nmwaves import diagnostics, pde
        self.pde = pde
        self.diagnostics = diagnostics
        self.paths = {name: [os.path.join(workdir, f"{name}.{ext}")
                             for ext in ("snaps.csv", "front.csv",
                                         "meta.json")]
                      for name in self.presets}
        cli_out = [os.path.join(workdir, f"cli.{ext}")
                   for ext in ("snaps.csv", "front.csv", "meta.json")]
        self.cli_paths = cli_out
        self.cli_args = ("simulate", "--preset", "fast-front",
                         "--out", ",".join(cli_out))

    def block(self, seed: int, b: int) -> list:
        return [self.presets]

    def run(self, inp):
        pde = self.pde
        diags = []
        for name in inp:
            record = pde.simulate(pde.preset(name))
            snaps, front, meta = self.paths[name]
            pde.write_snapshots_csv(record, snaps)
            pde.write_front_csv(record, front)
            pde.write_metadata_json(record, meta)
            diags.append(self.diagnostics.diagnose(record))
        return diags

    def _files(self, paths) -> list[bytes]:
        out = []
        for path in paths:
            with open(path, "rb") as fh:
                out.append(fh.read())
        return out

    def check(self, inp, raw) -> Outcome:
        fast, minimal = raw
        shape = self.diagnostics.ProfileShape.NON_MONOTONE_NON_OSCILLATING
        speed = fast.speed.speed
        # acceptance test 10 (fast front) and 11 (minimal front)
        if not (46.0 <= speed <= 54.0
                and abs(speed - FAST_SPEED) / FAST_SPEED <= 0.05
                and fast.shape is shape and fast.overshoot >= 0.5):
            raise CheckFailed("check_fast_front",
                              f"speed {speed}, shape {fast.shape}, "
                              f"overshoot {fast.overshoot}")
        rel = abs(minimal.speed.speed - MINIMAL_SPEED) / MINIMAL_SPEED
        if not rel <= 0.10:
            raise CheckFailed("check_minimal_front",
                              f"speed {minimal.speed.speed} is {rel:.3f} "
                              "from c*")
        files = [data for name in inp for data in self._files(self.paths[name])]
        summary = repr([(d.speed.speed, d.speed.stderr, d.shape.value,
                         d.overshoot, d.crossings_of_kappa) for d in raw])
        return Outcome(_sha(*files, summary.encode()), len(inp),
                       FRONT_CELL_STEPS)

    def check_cli(self, stdout: str) -> None:
        # data files are byte-reproducible: the CLI writes what the
        # library wrote in-process for the same preset
        if self._files(self.cli_paths) != self._files(self.paths["fast-front"]):
            raise CheckFailed("check_cli_files",
                              "CLI simulate output differs from in-process")


# ---------------------------------------------------------------------------
# certified-verify
# ---------------------------------------------------------------------------

# Parameter points the regions suite checks at its default grid:
# 4 x 200 (P, c) boundary points, 300 x 300 (tau, c) inequality points,
# 40 x 11 certificate coefficients, 40 x 50 (w, sigma) certificate values,
# 40 discriminants and 50 x 50 (tau, c) two-way memberships.
VERIFY_POINTS = 800 + 90_000 + 440 + 2_000 + 40 + 2_500


class CertifiedVerify:
    """``verify.run_suite("regions")`` at its default grid."""

    name = "certified-verify"
    setup_modules = ("nmwaves.verify", "nmwaves.atlas", "nmwaves.charroots",
                     "nmwaves.model")
    cli_args = ("verify", "--suite", "regions")
    cli_repeats = 8
    tail_pct = 50
    known_failures = frozenset()
    block_seconds = 2.4

    def __init__(self, workdir: str):
        from nmwaves import verify
        self.verify = verify

    def block(self, seed: int, b: int) -> list:
        return ["regions"]

    def run(self, inp):
        return self.verify.run_suite(inp)

    def check(self, inp, raw) -> Outcome:
        ok, checks = raw
        if ok is not True:
            failed = [name for name, _, _, passed in checks if not passed]
            raise CheckFailed("check_suite", f"failed checks {failed}")
        return Outcome(_sha(repr(checks).encode()), VERIFY_POINTS,
                       VERIFY_POINTS)

    def check_cli(self, stdout: str) -> None:
        lines = stdout.splitlines()
        if not lines or not all(line.startswith("pass") for line in lines):
            raise CheckFailed("check_cli_suite", stdout[-200:])


WORKLOADS = {w.name: w for w in (PointAnalysis, AtlasSweep, FrontSimulation,
                                 CertifiedVerify)}
