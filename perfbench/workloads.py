"""The three workloads: how each case calls fluxholo, and its oracle check.

A workload is a fixed, seeded batch of cases.  ``execute`` is the timed
part of a case and calls only the program's public API (or its CLI entry
point).  ``check`` runs afterwards, untimed, and compares the result with
an independent oracle under the combined tolerance of the route and the
oracle.  Every call goes through the ``fluxholo`` module attributes at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re

import numpy as np

# Route tolerances.  Metric: metric-sweep's requested tolerance; the brute
# force oracle runs at 1e-7.  Holonomy: the acceptance bounds the test
# suite sets for a numeric holonomy against the analytic route (1e-4) and
# against the exact rotation phase (1e-5) at ode_tol 1e-8 or coarser.
SWEEP_TOL = 1e-10
BRUTE_TOL = 1e-7
CLOSED_FORM_TOL = 1e-13
ANALYTIC_TOL = 1e-11
HOLONOMY_VS_ANALYTIC = 1e-4
ROTATION_PHASE = 1e-5
CLI_QUAD_TOL = 1e-8          # the CLI default --quad-tol
CLI_BRUTE_TOL = 1e-8         # cmd_metric: max(quad_tol, 1e-8)
#: Brute-force oracle cases per fluxon count (generic cases, N <= 4).
BRUTE_PER_N = 4
ERROR_FLOOR = 1e-12

#: Non-finite numbers as json.dumps (NaN, Infinity) and the CSV writer
#: (nan, inf) print them.
NON_FINITE = re.compile(r"\b(nan|-?inf(inity)?)\b", re.IGNORECASE)
CLI_COMMANDS = ("modes", "metric", "curvature-map", "holonomy", "verify")
LAYER = {"metric-sweep": "metric", "holonomy-loops": "transport", "cli-session": "cli"}


def _fx():
    import fluxholo
    return fluxholo


def _config(case):
    fx = _fx()
    return fx.FluxConfig([complex(*p) for p in case["positions"]], case["fluxes"])


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


class LibraryWorkload:
    """Cases that call the library directly."""

    def span_name(self, case) -> str:
        return "bench.case"

    def expected(self, case, res) -> bool:
        return True

    def work(self, res) -> dict:
        return {}


class Check:
    """Outcome of one oracle comparison."""

    def __init__(self, oracle, error=None, tolerance=None, tight=False,
                 ok=True, note=None):
        self.oracle = oracle
        self.error = error
        self.tolerance = tolerance
        self.tight = tight
        self.ok = ok
        self.note = note

    @property
    def miss(self) -> bool:
        if not self.ok:
            return True
        if self.error is None or self.tolerance is None:
            return False
        return not self.error <= self.tolerance

    def as_dict(self):
        return {"oracle": self.oracle, "error": self.error,
                "tolerance": self.tolerance, "tight": self.tight,
                "miss": self.miss, "note": self.note}


# --------------------------------------------------------------------------
# metric-sweep
# --------------------------------------------------------------------------

class MetricSweep(LibraryWorkload):
    name = "metric-sweep"

    def __init__(self, cases, workdir):
        self.cases = cases
        counts = {}
        self.brute = set()
        for c in cases:
            n = len(c["fluxes"])
            if c["class"] == "generic" and n <= 4 and counts.get(n, 0) < BRUTE_PER_N:
                counts[n] = counts.get(n, 0) + 1
                self.brute.add(c["id"])

    def warm_up(self):
        fx = _fx()
        vc = fx.validate(fx.FluxConfig([0.0, 0.9 + 0.7j, 0.2 + 1.9j], [0.4, 0.5, 0.6]))
        fx.metric_factorized(vc, tol=SWEEP_TOL, auto_rotate=True)

    def execute(self, case):
        fx = _fx()
        vc = fx.validate(_config(case))
        return fx.metric_factorized(vc, tol=SWEEP_TOL, auto_rotate=True)

    def finite(self, res) -> bool:
        return _finite(res.g, res.error_estimate)

    def digest(self, res):
        return _sha(res.g.tobytes(), repr(res.error_estimate), res.method)

    def estimate(self, res):
        return float(res.error_estimate)

    def check(self, case, res):
        fx = _fx()
        if case["class"] == "half-flux":
            ref = fx.metric_half_fluxes(complex(*case["u"]))
            err = abs(float(np.real(res.g[0, 0])) - ref) / abs(ref)
            return Check("metric_half_fluxes", err, SWEEP_TOL + CLOSED_FORM_TOL, tight=True)
        if case["id"] in self.brute:
            try:
                bf = fx.metric_bruteforce(fx.validate(_config(case)), tol=BRUTE_TOL)
            except fx.errors.NumericalError as exc:
                return Check("metric_bruteforce", note=f"oracle failed: {exc}")
            err = float(np.abs(res.g - bf.g).max() / np.abs(bf.g).max())
            return Check("metric_bruteforce", err, SWEEP_TOL + BRUTE_TOL)
        return None


# --------------------------------------------------------------------------
# holonomy-loops
# --------------------------------------------------------------------------

class HolonomyLoops(LibraryWorkload):
    name = "holonomy-loops"

    def __init__(self, cases, workdir):
        self.cases = cases

    def warm_up(self):
        fx = _fx()
        vc = fx.validate(fx.FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.9, 0.9]))
        fx.metric_factorized(vc, tol=1e-10, auto_rotate=True)

    def execute(self, case):
        fx = _fx()
        vc = fx.validate(_config(case))
        if "word" in case:
            path = fx.word_to_path(vc, fx.BraidWord.from_json(case["word"]))
        else:
            path = fx.ControlPath.rotation(vc, center=complex(*case["center"]))
        return fx.holonomy(vc, path)

    def finite(self, res) -> bool:
        return _finite(res.u, res.norm_drift)

    def digest(self, res):
        return _sha(res.u.tobytes(), res.nfev, res.n_steps, repr(res.norm_drift))

    def estimate(self, res):
        return float(res.norm_drift)

    def work(self, res) -> dict:
        return {"nfev": res.nfev, "n_steps": res.n_steps}

    def check(self, case, res):
        fx = _fx()
        vc = fx.validate(_config(case))
        if "word" in case:
            ana = fx.holonomy_analytic(vc, fx.BraidWord.from_json(case["word"]),
                                       tol=ANALYTIC_TOL)
            err = float(np.abs(res.u - ana.u).max() / np.abs(ana.u).max())
            return Check("holonomy_analytic", err, HOLONOMY_VS_ANALYTIC + ANALYTIC_TOL,
                         tight=True)
        expect = fx.rigid_rotation_phase(0, sum(vc.counts.phi_prime))
        err = abs(complex(res.u[0, 0]) - complex(math.cos(expect), math.sin(expect)))
        return Check("rigid_rotation_phase", err, ROTATION_PHASE, tight=True)


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------

class CliResult:
    def __init__(self, code, out):
        self.code, self.out = code, out


class CliSession:
    name = "cli-session"

    def __init__(self, cases, workdir):
        importlib.import_module("fluxholo.cli")
        self.cases = cases
        self.argv = {}
        os.makedirs(workdir, exist_ok=True)
        for c in cases:
            path = os.path.join(workdir, f"{c['id']}.json")
            if "config" in c:
                with open(path, "w") as fh:
                    json.dump(c["config"], fh)
            missing = os.path.join(workdir, "missing", "config.json")
            self.argv[c["id"]] = [a.replace("{config}", path).replace("{missing}", missing)
                                  for a in c["argv"]]

    def warm_up(self):
        self.execute(self.cases[0])

    def execute(self, case):
        fx = _fx()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = fx.cli.main(self.argv[case["id"]])
            except SystemExit as exc:  # argparse usage errors end the process
                code = exc.code
        return CliResult(code, out.getvalue())

    def span_name(self, case) -> str:
        return "cli." + next(a for a in case["argv"] if a in CLI_COMMANDS)

    def expected(self, case, res) -> bool:
        return res.code == case["expect_exit"]

    def work(self, res) -> dict:
        return {"exit": res.code}

    def finite(self, res) -> bool:
        return not NON_FINITE.search(res.out)

    def digest(self, res):
        return _sha(res.code, res.out)

    def estimate(self, res):
        if res.code != 0 or not res.out.startswith("{"):
            return None
        doc = json.loads(res.out)
        est = doc.get("factorized", {}).get("error_estimate")
        return None if est is None else float(est)

    def check(self, case, res):
        if res.code != case["expect_exit"]:
            return None  # already a failed case
        cls = case["class"]
        if cls == "modes":
            return self._check_modes(case, res)
        if cls == "metric":
            doc = json.loads(res.out)
            return Check("metric_bruteforce (CLI)", float(doc["relative_discrepancy"]),
                         CLI_QUAD_TOL + CLI_BRUTE_TOL)
        if cls == "curvature-map":
            return self._check_curvature(case, res)
        if cls == "holonomy":
            return self._check_holonomy(case, res)
        if cls == "verify":
            doc = json.loads(res.out)
            return Check("verify report", ok=bool(doc["passed"]),
                         note=f"{doc['n_failed']} of {doc['n_checks']} checks failed")
        return Check("exit code")

    def _check_modes(self, case, res):
        doc = json.loads(res.out)
        fluxes = case["config"]["fluxes"]
        total = math.fsum(fluxes)
        d = max(0, math.ceil(abs(total)) - 1)
        red = [f - max(0, math.floor(f)) for f in fluxes]
        d_f = max(0, math.ceil(math.fsum(red)) - 1)
        err = abs(doc["D"] - d) + abs(doc["D_f"] - d_f)
        return Check("mode counting formulas", float(err), 0.0)

    def _check_curvature(self, case, res):
        """Every grid value against the same five-point stencil applied to
        the closed-form half-flux metric.  A relative metric error delta
        moves the stencil by at most 2 delta / h**2."""
        fx = _fx()
        argv = case["argv"]
        mover = int(argv[argv.index("--mover") + 1])
        z0 = np.array([complex(*p) for p in case["config"]["positions"]])
        fluxes = case["config"]["fluxes"]

        def closed_form(z):
            return fx.metric_half_fluxes(z[2])

        worst, worst_tol, worst_rel, n = 0.0, 1.0, 0.0, 0
        ok = True
        for line in res.out.strip().splitlines()[1:]:
            x, y, r = (float(v) for v in line.split(","))
            z = z0.copy()
            z[mover] = complex(x, y)
            vc = fx.validate(fx.FluxConfig(z, fluxes))
            ref = fx.transport.curvature_abelian(vc, moving=mover, metric_fn=closed_form)
            d = np.abs(z[:, None] - z[None, :]) + np.diag([np.inf] * len(z))
            h = 2e-3 * float(d.min())
            tol = 2.0 * (CLI_QUAD_TOL + CLOSED_FORM_TOL) / h ** 2
            err = abs(r - ref.real)
            ok = ok and math.isfinite(r) and err <= tol
            if err / tol >= worst / worst_tol:
                worst, worst_tol = err, tol
            worst_rel = max(worst_rel, err / abs(ref.real))
            n += 1
        chk = Check("curvature_abelian(metric_half_fluxes)", worst_rel, None, tight=True,
                    ok=ok and n > 0, note=f"{n} grid points; worst {worst:.3g} "
                                          f"against stencil bound {worst_tol:.3g}")
        return chk

    def _check_holonomy(self, case, res):
        fx = _fx()
        doc = json.loads(res.out)
        nu = complex(fx.cut_factor(0.9))
        move = case["word"]["moves"][0]
        other = np.conj(nu) ** 2 if "encircle" in move else -np.conj(nu)
        expect = np.sort_complex(np.array([1.0, other]))
        got = np.sort_complex(np.array([complex(*p) for p in doc["analytic"]["eigenvalues"]]))
        err = float(np.abs(got - expect).max())
        return Check("Burau eigenvalues", err, CLI_QUAD_TOL, tight=True)


WORKLOADS = {w.name: w for w in (MetricSweep, HolonomyLoops, CliSession)}
