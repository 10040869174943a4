"""Outside-in tracing of nmwaves' public functions.

The tracer never edits the library. It rebinds each traced function's
name, in every loaded ``nmwaves.*`` module namespace that holds it, to a
wrapper that records a span (name, start, end, parent) and per-function
counters; ``uninstall`` puts the originals back. A name the library no
longer defines is skipped, so a refactor that deletes or renames a
public function shows up as absent metrics instead of an error.

Self time is a span's duration minus the durations of its direct child
spans. Calls nest within a thread, so the children cover disjoint parts
of the parent's interval. Spans are kept in compact arrays until the run
ends.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
import threading
import time
from array import array

# The layers, in dependency order, and the public functions traced in each.
# Tiny kernels called inside inner loops (birth, char_value, Phi, the
# Hermite helpers, the certificate terms) are left unwrapped: a span per
# call would cost more than the call itself, and their time shows as their
# caller's self time.
TARGETS = {
    "numerics": ("solve_bracketed", "integrate_adaptive",
                 "lower_incomplete_gamma", "golden_section_max"),
    "model": ("gsc_holds",),
    "charroots": ("mu_root", "minimal_speed", "negative_roots_at_kappa",
                  "classify_tail"),
    "dirichlet": ("coefficients", "qbar2_closed_form", "build", "zeta",
                  "zeta_by_quadrature"),
    "heteroclinic": ("integrate", "crossings", "p_window", "nm_verdict"),
    "atlas": ("nm_necessary", "tau_of_c", "T_of_c", "membership",
              "certificate_series", "verify_inclusion", "region_report",
              "region_grid"),
    "pde": ("preset", "simulate", "solve_banded", "write_snapshots_csv",
            "write_front_csv", "write_metadata_json"),
    "diagnostics": ("estimate_speed", "classify_profile", "diagnose"),
    "verify": ("run_suite",),
    "cli": ("main", "build_parser"),
}

# Traced functions that the library imports from another package. They are
# wrapped in that package too, so the span still appears if the layer moves
# the import inside a function (as a lazy scipy.linalg import would).
EXTERNAL_HOME = {"pde.solve_banded": "scipy.linalg"}

# Functions whose callable first argument is wrapped to count evaluations.
COUNT_F_EVALS = {"numerics.solve_bracketed", "numerics.integrate_adaptive"}

BENCH_SPAN = "bench.op"


# Work counts read from a traced call's arguments or result. A hook whose
# inputs no longer have the expected shape records nothing.
def _region_grid_points(args, kwargs):
    taus = args[0] if args else kwargs["tau_values"]
    ps = args[1] if len(args) > 1 else kwargs["p_values"]
    return len(taus) * len(ps)


RESULT_WORK = {
    "heteroclinic.integrate": ("heteroclinic.integrate.nodes",
                               lambda result: len(result.t)),
    "pde.simulate": ("pde.simulate.cell_steps",
                     lambda result: len(result.x) * result.metadata["steps"]),
}
SHAPE_ERRORS = (AttributeError, KeyError, IndexError, TypeError)


class Tracer:
    """Wraps the TARGETS functions while installed and aggregates spans."""

    def __init__(self):
        self.names: list[str] = [BENCH_SPAN]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.op_wall_s = 0.0
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._local = threading.local()
        self._bound: list[tuple[object, str, object]] = []
        self.present: list[str] = []
        self.absent: list[str] = []
        self._wrappers: list[tuple[object, object, object]] = []
        self._discover()

    # -- installation -------------------------------------------------------

    def _discover(self) -> None:
        """Import the layers and build a wrapper for every traced name."""
        for layer, fnames in TARGETS.items():
            try:
                module = importlib.import_module(f"nmwaves.{layer}")
            except ModuleNotFoundError:
                self.absent.extend(f"{layer}.{f}" for f in fnames)
                continue
            for fname in fnames:
                qual = f"{layer}.{fname}"
                home = module
                if qual in EXTERNAL_HOME:
                    home = importlib.import_module(EXTERNAL_HOME[qual])
                orig = getattr(home, fname, None)
                if not callable(orig):
                    self.absent.append(qual)
                    continue
                self.calls[qual] = self.errors[qual] = 0
                self.self_s[qual] = 0.0
                self._wrappers.append((orig, self._wrap(qual, orig), home))
                self.present.append(qual)

    def install(self) -> None:
        """Rebind every traced name, wherever a loaded nmwaves module (or the
        function's home package) holds it, to its wrapper."""
        modules = {id(m): m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nmwaves"
                                         or name.startswith("nmwaves."))}
        for orig, wrapper, home in self._wrappers:
            for module in [*modules.values(), home]:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._bound):
            setattr(module, attr, orig)
        self._bound = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, start: float, stack: list) -> list:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(math.nan)
        self.span_parent.append(stack[-1][0] if stack else -1)
        frame = [sid, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float,
               stack: list) -> float:
        stack.pop()
        self.span_end[frame[0]] = end
        duration = end - start
        if stack:
            stack[-1][1] += duration
        return duration - frame[1]

    def _wrap(self, qual: str, fn):
        name_id = len(self.names)
        self.names.append(qual)
        clock = time.perf_counter
        count_f = qual in COUNT_F_EVALS
        grid = qual == "atlas.region_grid"
        result_work = RESULT_WORK.get(qual)
        tracer = self

        def wrapper(*args, **kwargs):
            if count_f:
                args, kwargs = tracer._count_f(qual, args, kwargs)
            if grid:
                zeta_before = tracer.calls.get("dirichlet.zeta", 0)
            stack = tracer._stack()
            start = clock()
            frame = tracer._open(name_id, start, stack)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[qual] += 1
                raise
            finally:
                tracer.self_s[qual] += tracer._close(frame, start, clock(),
                                                     stack)
                tracer.calls[qual] += 1
            if grid:
                # points that got past the p_window short-circuit
                tracer._add_work("atlas.region_grid.zeta_points",
                                 tracer.calls.get("dirichlet.zeta", 0)
                                 - zeta_before)
                tracer._add_work("atlas.region_grid.points", lambda:
                                 _region_grid_points(args, kwargs))
            elif result_work is not None:
                tracer._add_work(result_work[0],
                                 lambda: result_work[1](result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _add_work(self, key: str, amount) -> None:
        if callable(amount):
            try:
                amount = amount()
            except SHAPE_ERRORS:
                return
        self.work[key] = self.work.get(key, 0) + amount

    def _count_f(self, qual: str, args, kwargs):
        key = qual + ".f_evals"
        self.work.setdefault(key, 0)
        work = self.work

        def counted(f):
            def f_counted(x):
                work[key] += 1
                return f(x)
            return f_counted

        if args:
            args = (counted(args[0]),) + tuple(args[1:])
        elif "f" in kwargs:
            kwargs = dict(kwargs, f=counted(kwargs["f"]))
        return args, kwargs

    @contextlib.contextmanager
    def op(self):
        """The benchmark's root span around one operation. Its self time is
        what no traced function covers: benchmark glue, untraced library
        code and wrapper overhead."""
        stack = self._stack()
        start = time.perf_counter()
        frame = self._open(0, start, stack)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(frame, start, end, stack)
            self.op_wall_s += end - start

    def span_count(self) -> int:
        return len(self.span_name)

    def spans(self):
        """(name, start, end, parent index) for every recorded span."""
        names = self.names
        for i in range(len(self.span_name)):
            yield (names[self.span_name[i]], self.span_start[i],
                   self.span_end[i], self.span_parent[i])
