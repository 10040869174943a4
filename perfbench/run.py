"""nmwaves benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload point-analysis --seed 1 \
        --seconds 20 --trace 0

Run from the repository root (the library is imported from ./src).
With ``--trace 0`` it runs the seed's counted blocks of operations, then
repeats them until ``--seconds`` have passed, with tracing off, timing
fresh-interpreter set-up and the README CLI command as subprocesses
between blocks, and reports the end-to-end metrics, every time scaled to
the nominal speed of the frozen reference in speedref.py. With
``--trace 1`` it runs the counted blocks once untraced and once with the
outside-in tracer installed, and reports the per-layer metrics. Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Full results, the run context and
(traced) the spans are written under .perfbench_out/. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from typing import NamedTuple

import speedref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 9     # timed fresh-interpreter imports (plus one warm-up)
DETERMINISM_REPEATS = 3  # first inputs rerun after the loop
MAX_OPS = 100_000      # bounds memory when a fast program fits many
MIN_TAIL_SAMPLES = 10  # samples beyond the reported tail percentile
SUBPROCESS_TIMEOUT = 60
GAUGE_INTERVAL_S = 0.5  # reference timed after the first operation past it
GAUGE_SPAN = 3          # reference runs on each side that scale a time

IMPORT_SCRIPT = """\
import importlib, sys
for name in sys.argv[1:]:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise
"""


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_stats() -> tuple[int, str]:
    """Line count and sha256 of the Python sources under src/."""
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def run_context(args) -> dict:
    import numpy
    import scipy

    src_lines, src_sha = _src_stats()
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": src_sha, "src_lines": src_lines,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# subprocess measurements
# ---------------------------------------------------------------------------

def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _timed_run(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_subprocess_env(),
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - start, proc


class SideMeasurements:
    """Fresh-interpreter set-up and CLI runs, spread over the loop's window.

    Run between blocks of the closed loop, so their medians sample the
    same stretch of machine time as the loop instead of its first seconds.
    """

    def __init__(self, workload, gauge):
        self.workload = workload
        self.gauge = gauge
        self.setup_argv = [sys.executable, "-c", IMPORT_SCRIPT,
                           *workload.setup_modules]
        self.cli_argv = [sys.executable, "-m", "nmwaves.cli",
                         *workload.cli_args]
        self.setup_times: list[float] = []
        self.setup_starts: list[float] = []
        self.cli_times: list[float] = []
        self.cli_starts: list[float] = []
        self.problems: list[str] = []
        n_setup, n_cli = SETUP_REPEATS, workload.cli_repeats
        # setup and CLI runs evenly interleaved, starting with a setup run
        order = sorted([(i / n_setup, 0) for i in range(n_setup)]
                       + [((i + 0.5) / n_cli, 1) for i in range(n_cli)])
        self.queue = [self.setup if kind == 0 else self.cli
                      for _, kind in order]
        self.warm_up()

    def warm_up(self) -> None:
        """One untimed import run, so every timed one finds the bytecode
        cache filled."""
        self._check_setup(_timed_run(self.setup_argv)[1])

    def _check_setup(self, proc) -> None:
        if proc.returncode != 0:
            raise RuntimeError(f"importing {self.workload.setup_modules} "
                               f"failed:\n{proc.stderr}")

    def _timed(self, argv, starts, times):
        """A timed subprocess run, with the speed reference timed on
        either side of it."""
        self.gauge.sample()
        starts.append(time.perf_counter())
        elapsed, proc = _timed_run(argv)
        times.append(elapsed)
        self.gauge.sample()
        return proc

    def setup(self) -> None:
        self._check_setup(self._timed(self.setup_argv, self.setup_starts,
                                      self.setup_times))

    def cli(self) -> None:
        proc = self._timed(self.cli_argv, self.cli_starts, self.cli_times)
        if proc.returncode != 0:
            self.problems.append(f"exit {proc.returncode}: "
                                 f"{proc.stderr[-300:]}")
            return
        try:
            self.workload.check_cli(proc.stdout)
        except Exception as exc:  # noqa: BLE001 - reported as incorrect
            self.problems.append(f"{type(exc).__name__}: {exc}")

    def run_due(self, fraction: float) -> None:
        """Run the measurements scheduled before this fraction of the run."""
        total = len(self.queue) + len(self.setup_times) + len(self.cli_times)
        while self.queue and (total - len(self.queue)) / total <= fraction:
            self.queue.pop(0)()


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class OpRecord(NamedTuple):
    inp: object
    latency: float
    failure: str | None = None
    message: str = ""
    outcome: object = None

    @property
    def digest(self) -> str:
        return self.outcome.digest if self.outcome else "raised " + self.failure


def run_op(workload, inp, tracer=None) -> OpRecord:
    """One operation: the timed call, then the untimed output check.

    Any exception the library raises is a failed operation, recorded by
    type; the loop keeps going.
    """
    from workloads import CheckFailed

    start = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.run(inp)
        else:
            with tracer.op():
                raw = workload.run(inp)
    except Exception as exc:  # noqa: BLE001 - a failed operation
        return OpRecord(inp, time.perf_counter() - start, type(exc).__name__,
                        str(exc)[:200])
    latency = time.perf_counter() - start
    try:
        outcome = workload.check(inp, raw)
    except CheckFailed as exc:
        return OpRecord(inp, latency, exc.kind, str(exc)[:300])
    except Exception as exc:  # noqa: BLE001 - malformed output
        return OpRecord(inp, latency, "check_" + type(exc).__name__,
                        str(exc)[:200])
    return OpRecord(inp, latency, outcome=outcome)


class Tally:
    """Outcomes of a series of operations, aggregated as they arrive.

    ``attempted``, ``failed`` and the failure breakdown count the
    operations added as counted, which the caller fixes from the seed and
    --seconds alone, so they repeat exactly for a seed. Every operation
    adds a latency sample, and every repeat of an input is checked
    against the output digest of its first execution.
    """

    def __init__(self, workload):
        self.known_failures = workload.known_failures
        self.latencies = array("d")
        self.starts = array("d")
        self.succeeded = array("b")
        self.attempted = self.ok = 0
        self.points = self.cell_steps = 0
        self.failures: Counter = Counter()
        self.examples: dict = {}
        self.digests: dict[str, str] = {}
        self.seen: Counter = Counter()
        self.nondeterministic: list[str] = []

    def add(self, rec: OpRecord, counted: bool = True,
            start: float = math.nan) -> None:
        self.latencies.append(rec.latency)
        self.starts.append(start)
        self.succeeded.append(bool(rec.outcome))
        if rec.outcome:
            self.points += rec.outcome.points
            self.cell_steps += rec.outcome.cell_steps
        if counted:
            self.attempted += 1
            if rec.outcome:
                self.ok += 1
            else:
                self.failures[rec.failure] += 1
                self.examples.setdefault(rec.failure,
                                         {"input": repr(rec.inp),
                                          "message": rec.message})
        self.compare(rec)

    def compare(self, rec: OpRecord) -> None:
        """Check a repeat of an input against its first digest."""
        key = repr(rec.inp)
        self.seen[key] += 1
        first = self.digests.setdefault(key, rec.digest)
        if first != rec.digest and len(self.nondeterministic) < 10:
            self.nondeterministic.append(
                f"input {key}: {first[:16]} then {rec.digest[:16]}")

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def unexpected(self) -> list[str]:
        return sorted(set(self.failures) - self.known_failures)

    def summary(self) -> dict:
        return {"failed_frac": self.failed / self.attempted,
                "failures_by_type": dict(sorted(self.failures.items())),
                "failure_examples": self.examples,
                "unexpected_failures": self.unexpected,
                "nondeterministic": self.nondeterministic}


def min_ops(workload) -> int:
    """Operations needed for MIN_TAIL_SAMPLES beyond the tail percentile."""
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - workload.tail_pct / 100.0))


def fixed_blocks(workload, seed: int, seconds: float) -> list[list]:
    """The run's counted inputs: the first round(seconds / block_seconds)
    blocks of the seed. Set by the seed and --seconds, not by how fast
    the machine runs, so ``attempted`` and ``failed`` repeat exactly."""
    n = max(1, round(seconds / workload.block_seconds))
    return [workload.block(seed, b) for b in range(n)]


class SpeedGauge:
    """Times the frozen reference computation between operations.

    Every time the benchmark reports is divided by the slowdown the
    reference shows around it, so that drift in the machine's speed
    cancels out; the reference and the library slow down together.
    """

    def __init__(self):
        speedref.reference()  # warm-up: first-call imports and caches
        self.stamps = array("d")   # midpoint of each reference run
        self.times = array("d")
        self.last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        elapsed = speedref.timed()
        self.stamps.append(start + 0.5 * elapsed)
        self.times.append(elapsed)
        self.last = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() - self.last >= GAUGE_INTERVAL_S:
            self.sample()

    def slowdown(self, start: float, elapsed: float) -> float:
        """Reference time over its nominal time, averaged over the
        GAUGE_SPAN runs on either side of an interval: above 1 when the
        machine ran slower than nominal then."""
        i = bisect.bisect_left(self.stamps, start + 0.5 * elapsed)
        near = self.times[max(0, i - GAUGE_SPAN):i + GAUGE_SPAN]
        return sum(near) / len(near) / speedref.NOMINAL_S

    def scale(self, starts, elapsed) -> list[float]:
        """Each interval's length at the reference's nominal speed."""
        return [e / self.slowdown(s, e) for s, e in zip(starts, elapsed)]


def closed_loop(workload, blocks: list[list], seconds: float, side,
                gauge: SpeedGauge) -> Tally:
    """The counted blocks once, then again in the same order until the
    time is up, the tail has MIN_TAIL_SAMPLES beyond it and every side
    measurement has run.

    Inputs that ran only once are rerun at the end to check determinism.
    """
    tally = Tally(workload)
    needed = min_ops(workload)
    gauge.sample()
    start = time.perf_counter()
    b = 0
    while True:
        for inp in blocks[b % len(blocks)]:
            op_start = time.perf_counter()
            tally.add(run_op(workload, inp), b < len(blocks), op_start)
            gauge.due()
        b += 1
        elapsed = time.perf_counter() - start
        done = (b >= len(blocks) and elapsed >= seconds
                or len(tally.latencies) >= MAX_OPS)
        side.run_due(1.0 if done else elapsed / seconds)
        if done and len(tally.latencies) >= needed:
            break
    gauge.sample()
    once = [inp for block in blocks for inp in block
            if tally.seen[repr(inp)] == 1]
    for inp in once[:DETERMINISM_REPEATS]:
        tally.compare(run_op(workload, inp))
    return tally


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted average of all order statistics with Beta(q(n+1),
    (1-q)(n+1)) weights. On a shared machine, latencies split into a
    contended and an uncontended mode whose mix shifts from run to run; the
    sample median jumps between the modes, this estimate moves smoothly.
    """
    import numpy
    from scipy.special import betainc

    x = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(x)
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(cdf), x))


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def end_to_end(workload, args):
    for inp in workload.block(args.seed, 0)[:1]:
        run_op(workload, inp)  # warm-up: first-call imports and caches
    gauge = SpeedGauge()
    side = SideMeasurements(workload, gauge)
    blocks = fixed_blocks(workload, args.seed, args.seconds)
    start = time.perf_counter()
    tally = closed_loop(workload, blocks, args.seconds, side, gauge)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(lat, setup, cli):
        busy = sum(lat)
        # cell-steps come only from operations that returned a checked
        # result, so they are set against those operations' time
        busy_ok = sum(t for t, ok in zip(lat, tally.succeeded) if ok)
        return {
            # subprocess times mix a fast and a slow mode in a share that
            # varies from run to run; their mean moves least with it
            "setup_s": (sum(setup) / len(setup), "s"),
            "cli_s": (sum(cli) / len(cli), "s"),
            "op_p50_ms": (1e3 * quantile(lat, 0.5), "ms"),
            "op_tail_ms": (1e3 * quantile(lat, workload.tail_pct / 100.0),
                           "ms"),
            "points_per_s": (tally.points / busy, "1/s"),
            "cell_steps_per_s": (tally.cell_steps / busy_ok if busy_ok
                                 else 0.0, "1/s"),
            "ok_frac": (tally.ok / tally.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    lat = tally.latencies
    # every time is reported at the speed reference's nominal speed; the
    # unscaled figures are in the detail
    metrics = figures(gauge.scale(tally.starts, lat),
                      gauge.scale(side.setup_starts, side.setup_times),
                      gauge.scale(side.cli_starts, side.cli_times))
    unscaled = figures(lat, side.setup_times, side.cli_times)
    busy = sum(lat)
    detail = {"tail_percentile": workload.tail_pct,
              "counted_blocks": len(blocks), "samples": len(lat),
              **tally.summary(),
              "cli_problems": side.problems,
              "unscaled": {name: value for name, (value, _) in
                           unscaled.items()},
              "reference_times_s": list(gauge.times),
              "setup_times_s": side.setup_times,
              "cli_times_s": side.cli_times,
              "run_wall_s": wall, "busy_s": busy,
              "latencies_s": list(lat)}
    correct = not (tally.unexpected or tally.nondeterministic
                   or side.problems)
    return correct, tally.attempted, tally.failed, metrics, detail


def traced(workload, args):
    """The same fixed operations, each run untraced and traced.

    The operation count is set by --seconds and the workload's nominal
    block time, not by how fast this machine runs, so counts repeat
    exactly for a seed.
    """
    from tracer import Tracer

    blocks = fixed_blocks(workload, args.seed, args.seconds)
    inputs = [inp for block in blocks for inp in block]
    for inp in inputs[:1]:
        run_op(workload, inp)  # warm-up, as in the untraced loop
    # each input runs untraced and traced back to back, in alternating
    # order, so drift in machine speed cancels out of the overhead
    plain = Tally(workload)
    tally = Tally(workload)
    tally.digests, tally.seen = plain.digests, plain.seen
    tracer = Tracer()
    for i, inp in enumerate(inputs):
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_run:
                plain.add(run_op(workload, inp))
                continue
            tracer.install()
            try:
                tally.add(run_op(workload, inp, tracer))
            finally:
                tracer.uninstall()

    metrics = {}
    for qual in tracer.present:
        metrics[f"{qual}.calls"] = (tracer.calls[qual], "count")
        metrics[f"{qual}.self_s"] = (tracer.self_s[qual], "s")
        metrics[f"{qual}.errors"] = (tracer.errors[qual], "count")
    for key in ("numerics.solve_bracketed.f_evals",
                "numerics.integrate_adaptive.f_evals",
                "heteroclinic.integrate.nodes", "pde.simulate.cell_steps"):
        if key.rsplit(".", 1)[0] in tracer.present:
            metrics[key] = (tracer.work.get(key, 0), "count")
    if "atlas.region_grid" in tracer.present:
        points = tracer.work.get("atlas.region_grid.points", 0)
        reached = tracer.work.get("atlas.region_grid.zeta_points", 0)
        metrics["atlas.region_grid.zeta_share"] = (
            reached / points if points else 0.0, "ratio")
    traced_wall = tracer.op_wall_s
    plain_wall = sum(plain.latencies)
    metrics["bench.op.wall_s"] = (traced_wall, "s")
    metrics["bench.op.self_s"] = (traced_wall - sum(tracer.self_s.values()),
                                  "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.spans"] = (tracer.span_count(), "count")

    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}"
                                   ".json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "spans": list(tracer.spans())}, fh)
    detail = {"blocks": len(blocks), "operations": tally.attempted,
              "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              **tally.summary(), "absent": tracer.absent,
              "spans_file": os.path.relpath(spans_path, ROOT)}
    correct = not (tally.unexpected or plain.unexpected
                   or tally.nondeterministic or plain.nondeterministic)
    return correct, tally.attempted, tally.failed, metrics, detail


def pin_to_one_cpu() -> None:
    """Run this process and every subprocess it starts on one CPU.

    The CPUs of a shared machine slow down independently of each other;
    on one CPU the speed reference measures the speed the operations and
    the subprocesses get. The library's computations hold the GIL, so
    they gain nothing from a second CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nmwaves", "__init__.py")):
        sys.stderr.write(f"error: no nmwaves sources under {SRC}; run from "
                         "a checkout of the repository\n")
        return 2
    if not args.seconds > 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir)
        mode = traced if args.trace else end_to_end
        correct, attempted, failed, metrics, detail = mode(workload, args)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    context = run_context(args)
    print(f"nmwaves benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, src {context['src_lines']} lines, "
          f"git {context['git_sha'] or 'n/a'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    for key, value in detail.items():
        if key not in ("latencies_s", "reference_times_s") and (
                value or value == 0):
            print(f"  {key}: {json.dumps(value)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"context": context, "detail": detail, **result}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
