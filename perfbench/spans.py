"""Span tracer that wraps fluxholo's functions from the outside.

``Tracer.install`` replaces selected functions and methods of the fluxholo
modules with thin wrappers; ``uninstall`` puts the originals back.  The
program's own files are never touched.  A wrapper forwards its arguments
and return value unchanged, so traced and untraced runs compute the same
bits.

Each span records its name, start, end, parent span and the case it
belongs to.  Self time is a span's duration minus the time its children
cover.  Spans stay in memory until ``dump`` writes them out.

A wrapped name that no longer exists in the program is listed in
``absent`` and skipped; the counters it would feed then read zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "fluxholo"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # span columns: name index, case id, parent span (-1 at the root),
        # start and end in seconds
        self.sp_name = array("i")
        self.sp_case = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self.active: Counter = Counter()
        self.case = -1
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _idx(self, name: str) -> int:
        i = self._name_idx.get(name)
        if i is None:
            i = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        i = len(self.sp_start)
        self.sp_name.append(self._idx(name))
        self.sp_case.append(self.case)
        self.sp_parent.append(parent)
        self.sp_start.append(time.perf_counter())
        self.sp_end.append(0.0)
        self._stack.append([i, 0.0])
        self.active[name] += 1

    def exit(self, name: str) -> None:
        end = time.perf_counter()
        i, child = self._stack.pop()
        self.sp_end[i] = end
        dur = end - self.sp_start[i]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if self._stack:
            self._stack[-1][1] += dur

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, *, on_result=None, on_args=None,
             count_under=None, raised_counter=None):
        """Span-recording wrapper around fn.

        on_args(args, kwargs) may return replacement (args, kwargs) with
        the same values (used to count integrand calls); on_result(out)
        sees the return value; count_under maps an active span name to a
        counter bumped when fn runs inside that span; raised_counter counts
        exceptions escaping fn.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_under:
                for outer, counter in count_under.items():
                    if tracer.active[outer]:
                        tracer.counters[counter] += 1
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(name)
                if raised_counter:
                    tracer.counters[f"{raised_counter}.{type(exc).__name__}"] += 1
                raise
            tracer.exit(name)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def count(self, counter: str, fn):
        """Counting-only wrapper (no span): for cheap, frequent calls whose
        time belongs to the caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, target: str, make) -> None:
        """Replace ``module:Name`` or ``module:Class.method`` by
        make(original).  A function is replaced in every fluxholo module
        that holds a reference to it, so ``from x import f`` copies are
        traced too."""
        mod_name, attr = target.split(":")
        try:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            self.absent.append(target)
            return
        owner, leaf = mod, attr
        if "." in attr:
            cls_name, leaf = attr.split(".")
            owner = getattr(mod, cls_name, None)
        orig = None if owner is None else owner.__dict__.get(leaf)
        if orig is None:
            self.absent.append(target)
            return
        new = make(orig)
        if owner is not mod:
            self._set(owner, leaf, orig, new)
            return
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, orig, new)

    def _set(self, owner, key, orig, new):
        self._restore.append((owner, key, orig))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        doc = {
            "names": self.names,
            "columns": ["name", "case", "parent", "start_s", "end_s"],
            "name": self.sp_name.tolist(),
            "case": self.sp_case.tolist(),
            "parent": self.sp_parent.tolist(),
            "start_s": self.sp_start.tolist(),
            "end_s": self.sp_end.tolist(),
            "absent": self.absent,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


# --------------------------------------------------------------------------
# the fluxholo layers
# --------------------------------------------------------------------------

SPECIAL_FUNCTIONS = ("hyp2f1_reg", "_hyp2f1_reg_mp", "elliptic_k", "log_gamma",
                     "metric_half_fluxes", "three_fluxon_primitive_matrix")
BF_PIECES = ("disk_piece", "far_piece", "middle_piece")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each measured module."""
    t = tracer

    def span(name, **kw):
        return lambda fn: t.wrap(name, fn, **kw)

    t.patch("config:validate", span("config.validate"))
    for fn in SPECIAL_FUNCTIONS:
        t.patch(f"special:{fn}", span(f"special.{fn}"))

    def quad_args(args, kwargs):
        """Count initial panels, then wrap the integrand as a child span
        that counts calls and nodes."""
        f, rest = args[0], args[1:]
        brk = kwargs.get("breakpoints") or ()
        t.counters["quad.initial_panels"] += len(
            {0.0, 1.0, *(float(b) for b in brk if 0.0 < b < 1.0)}) - 1

        def integrand(tt):
            t.counters["quad.integrand_calls"] += 1
            t.counters["quad.nodes"] += len(tt)
            t.enter("metric.integrand")
            try:
                return f(tt)
            finally:
                t.exit("metric.integrand")

        return (integrand, *rest), kwargs

    t.patch("_quad:integrate_panels",
            span("quad.integrate_panels", on_args=quad_args, raised_counter="quad.raised"))
    t.patch("metric:primitive_matrix", span("metric.primitive"))
    t.patch("metric:metric_factorized",
            span("metric.factorized", raised_counter="metric.factorized.raised"))
    t.patch("metric:_metric_rotated", span("metric.rotated"))
    t.patch("metric:metric_bruteforce",
            span("metric.bruteforce", raised_counter="metric.bruteforce.raised"))
    for piece in BF_PIECES:
        t.patch(f"metric:_BruteForce.{piece}",
                lambda fn: t.count("metric.bruteforce.pieces", fn))
    t.patch("metric:MetricEvaluator.__call__",
            span("metric.evaluator",
                 count_under={"transport.fd": "transport.fd_metric_evals"}))

    def holonomy_result(res):
        t.maxima["transport.norm_drift_max"] = max(
            t.maxima["transport.norm_drift_max"], float(res.norm_drift))

    def ode_result(sol):
        t.counters["transport.ode_steps"] += len(sol.t) - 1

    t.patch("transport:_holomorphic_fd", span("transport.fd"))
    t.patch("transport:_d_metric_raw", span("transport.d_metric"))
    t.patch("transport:metric_derivative", span("transport.metric_derivative"))
    t.patch("transport:connection", span("transport.connection"))
    t.patch("transport:solve_ivp", span("transport.ode", on_result=ode_result))
    t.patch("transport:_TransportProblem.rhs", span("transport.rhs"))
    t.patch("transport:parallel_transport", span("transport.parallel_transport"))
    t.patch("transport:holonomy", span("transport.holonomy", on_result=holonomy_result))
    t.patch("transport:curvature_abelian", span("transport.curvature"))
    t.patch("transport:curvature_nonabelian", span("transport.curvature"))
    t.patch("monodromy:holonomy_analytic", span("monodromy.analytic"))
    t.patch("monodromy:word_to_monodromy", span("monodromy.word_to_monodromy"))
    t.patch("monodromy:word_to_path", span("monodromy.word_to_path"))
