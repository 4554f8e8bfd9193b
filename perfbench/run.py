"""fluxholo benchmark: time to a checked answer on three user paths.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload metric-sweep --seed 1 --seconds 30 --trace 0

Workloads: metric-sweep, holonomy-loops, cli-session (see BENCHMARK.json
for why each was chosen).  The seed only shapes the generated inputs.  All
load runs in this one process on one thread, with the BLAS thread count
fixed to 1.

--trace 0 measures the end-to-end metrics with tracing off: the fixed
batch runs in rounds (every case in the first, the cases that did not
fail in a second and in more while time remains in --seconds; after the
first round a case shorter than 10 ms runs several times in a row), each
case is timed by the lower quartile of its runs scaled to nominal machine
speed (pace.py), and an untimed oracle pass checks the first round.
--trace 1 runs one untraced and one traced round and reports the
per-layer metrics from the traced round and its oracle pass.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, where attempted counts the cases of the batch and
failed those with a failed run, so both depend only on the inputs.  Case
records (result digest, error estimate, oracle, error, tolerance, every
raw and scaled run) go to perfbench/out/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pace  # noqa: E402
import spans  # noqa: E402
from workloads import CLI_COMMANDS, ERROR_FLOOR, LAYER  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
REPEAT_S = 0.01
MAX_REPEATS = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "checked_frac": "fraction",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

FAILURE_KINDS = ("QuadratureNotConverged", "RuntimeWarning", "TypeError", "other")
LAYERS = ("metric", "transport", "cli")

PER_LAYER = {
    "quad.integrals": "count",
    "quad.integrand_calls": "count",
    "quad.nodes": "count",
    "quad.panel_splits": "count",
    "quad.not_converged": "count",
    "quad.self_s": "s",
    "metric.nodes_per_metric": "count",
    "metric.factorized.calls": "count",
    "metric.factorized.self_s": "s",
    "metric.primitive.calls": "count",
    "metric.primitive.self_s": "s",
    "metric.integrand.self_s": "s",
    "metric.rotation_fallbacks": "count",
    "metric.bruteforce.calls": "count",
    "metric.bruteforce.self_s": "s",
    "metric.bruteforce.pieces": "count",
    "metric.bruteforce.not_converged": "count",
    "transport.metric_evals": "count",
    "transport.fd_metric_evals": "count",
    "transport.fd_share": "fraction",
    "transport.rhs_evals": "count",
    "transport.ode_steps": "count",
    "transport.rhs.self_s": "s",
    "transport.curvature.self_s": "s",
    "transport.norm_drift_max": "ratio",
    "config.validate.calls": "count",
    "config.validate.self_s": "s",
    "special.calls": "count",
    "special.mp_fallbacks": "count",
    "special.self_s": "s",
    "monodromy.analytic.calls": "count",
    "monodromy.analytic.self_s": "s",
    **{f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS},
    "cli.exit_mismatch": "count",
    "failed_frac": "fraction",
    "tol_misses": "count",
    **{f"{layer}.failed.{kind}": "count" for layer in LAYERS for kind in FAILURE_KINDS},
    "failed.wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("metric-sweep", "holonomy-loops", "cli-session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (one setup_s sample)")
    return ap.parse_args(argv)


def set_up(args):
    """Import the program, generate the inputs and make one untimed
    warm-up call.  Returns the workload object."""
    if not os.path.isfile(os.path.join(SRC, "fluxholo", "__init__.py")):
        raise SystemExit(f"error: no fluxholo sources under {SRC}")
    sys.path.insert(0, SRC)
    import fluxholo  # noqa: F401

    from inputs import GENERATORS
    from workloads import WORKLOADS

    cases = GENERATORS[args.workload](args.seed)
    wl = WORKLOADS[args.workload](cases, os.path.join(OUT, "cli-inputs", str(args.seed)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.warm_up()
    return wl


def setup_samples(args, first: float):
    """The in-process set-up time plus fresh-process repeats, raw and
    scaled to nominal machine speed by reference-kernel runs just before
    and after each (see pace.py)."""
    def ref_runs():
        return [pace.time_ref() for _ in range(3)]

    raw, refs = [first], [ref_runs()]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        before = ref_runs()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {proc.stderr.strip()[-500:]}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        refs.append(before + ref_runs())
    scaled = [t * pace.REF_NOMINAL_S / statistics.median(r) for t, r in zip(raw, refs)]
    return raw, scaled


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def run_case(wl, i, case, tracer=None, clock=None):
    """One timed case.  A case fails if it raises, returns non-finite
    values, emits a RuntimeWarning or exits with an unexpected code.  The
    time `clock` spent on reference-kernel samples meanwhile is not the
    case's."""
    rec = {"id": case["id"], "class": case["class"], "error_type": None,
           "error": None, "runtime_warnings": 0}
    span = wl.span_name(case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        if tracer is not None:
            tracer.case = i
            tracer.enter(span)
        spent = clock.spent if clock is not None else None
        rec["t0"] = t0 = time.perf_counter()
        try:
            res = wl.execute(case)
        except Exception as exc:  # recorded as a failed case
            res = None
            rec["error_type"] = type(exc).__name__
            rec["error"] = str(exc)[:300]
        rec["t1"] = time.perf_counter()
        rec["time_s"] = rec["t1"] - t0
        if clock is not None:
            rec["time_s"] -= clock.spent - spent
        if tracer is not None:
            tracer.exit(span)
    rec["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    if res is not None:
        rec["digest"] = wl.digest(res)
        rec["estimate"] = wl.estimate(res)
        rec.update(wl.work(res))
        rec["finite"] = bool(wl.finite(res))
        rec["exit_ok"] = wl.expected(case, res)
    else:
        rec["digest"] = f"raised {rec['error_type']}: {rec['error']}"
        rec["finite"] = False
        rec["exit_ok"] = False
    rec["failed"] = bool(res is None or rec["runtime_warnings"] or not rec["finite"]
                         or not rec["exit_ok"])
    return rec, res


def run_pass(wl, tracer=None):
    t0 = time.perf_counter()
    out = [run_case(wl, i, c, tracer) for i, c in enumerate(wl.cases)]
    return time.perf_counter() - t0, [r for r, _ in out], [res for _, res in out]


def measure(wl, seconds):
    """Run the batch in rounds and time each case by the lower quartile of
    its runs scaled to nominal machine speed (see pace.py); with fewer than
    five runs that is the best.  Every case runs in the first round;
    the cases that did not fail run in at least MIN_ROUNDS rounds and
    repeat while the next round still fits in `seconds`.  A failure is
    deterministic, and today's failing cases stall for seconds, so they
    run once.  After the first round a case shorter than REPEAT_S runs
    several times back to back, so a millisecond case gets enough runs for
    its time to hold.  Returns the first round's records and results, the
    round count, and whether a repeat gave a different result."""
    start = time.perf_counter()
    runs = [[] for _ in wl.cases]
    records, results = [], []
    with pace.Pace() as clock:
        for i, case in enumerate(wl.cases):
            rec, res = run_case(wl, i, case, clock=clock)
            runs[i].append(rec)
            records.append(rec)
            results.append(res)
        reps = [min(MAX_REPEATS, max(1, int(REPEAT_S / r["time_s"]))) for r in records]
        todo = [i for i, r in enumerate(records) if not r["failed"]]
        mismatch = False
        rounds = 1
        while todo:
            next_round = sum(reps[i] * min(r["time_s"] for r in runs[i]) for i in todo)
            if rounds >= MIN_ROUNDS and time.perf_counter() - start + next_round > seconds:
                break
            for i in todo:
                for _ in range(reps[i]):
                    rec, _ = run_case(wl, i, wl.cases[i], clock=clock)
                    runs[i].append(rec)
                    records[i]["failed"] = records[i]["failed"] or rec["failed"]
                    mismatch = mismatch or rec["digest"] != records[i]["digest"]
            rounds += 1
    for r, rs in zip(records, runs):
        r["run_t0_s"] = [x["t0"] for x in rs]
        r["run_times_s"] = [x["time_s"] for x in rs]
        r["run_scaled_s"] = sorted(x["time_s"] * clock.scale(x["t0"], x["t1"]) for x in rs)
        r["time_s"] = r["run_scaled_s"][(len(rs) - 1) // 4]
    return records, results, rounds, mismatch, clock


def oracle_pass(wl, records, results, tracer=None):
    """Untimed checks of one pass against the oracles."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, (case, rec, res) in enumerate(zip(wl.cases, records, results)):
            if res is None:
                continue
            if tracer is not None:
                tracer.case = i
                tracer.enter("bench.oracle")
            try:
                chk = wl.check(case, res)
            finally:
                if tracer is not None:
                    tracer.exit("bench.oracle")
            if chk is not None:
                rec["check"] = chk.as_dict()


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def failure_kind(rec) -> str:
    if rec["error_type"] in FAILURE_KINDS:
        return rec["error_type"]
    if rec["error_type"] is None and rec["runtime_warnings"]:
        return "RuntimeWarning"
    return "other"


def outcome_metrics(records):
    n = len(records)
    failed = sum(r["failed"] for r in records)
    misses = sum(bool(r.get("check", {}).get("miss")) for r in records)
    checked = sum(not r["failed"] and not r.get("check", {}).get("miss") for r in records)
    tight = [r["check"]["error"] for r in records
             if r.get("check", {}).get("tight") and r["check"]["error"] is not None]
    digits = min((-math.log10(max(e, ERROR_FLOOR)) for e in tight), default=0.0)
    return {"failed_frac": failed / n, "tol_misses": misses,
            "checked_frac": checked / n, "accuracy_digits": digits}


def failure_table(records):
    """Failed cases by case class and failure kind (a case with a
    RuntimeWarning and an exception counts under both)."""
    table = {}
    for r in records:
        if not r["failed"]:
            continue
        kinds = {failure_kind(r)}
        if r["runtime_warnings"]:
            kinds.add("RuntimeWarning")
        if r["error_type"] and r["error_type"] not in FAILURE_KINDS:
            kinds.add(r["error_type"])
        for k in kinds:
            row = table.setdefault(r["class"], {})
            row[k] = row.get(k, 0) + 1
    return table


def layer_metrics(wl, tracer, records, wall_untraced, wall_traced):
    calls, self_s, c = tracer.calls, tracer.self_s, tracer.counters
    fact = calls["metric.factorized"]
    rot = calls["metric.rotated"]
    evals = calls["metric.evaluator"]
    special = [k for k in calls if k.startswith("special.")]
    m = {
        "quad.integrals": calls["quad.integrate_panels"],
        "quad.integrand_calls": c["quad.integrand_calls"],
        "quad.nodes": c["quad.nodes"],
        "quad.panel_splits": (c["quad.integrand_calls"] - 2 * c["quad.initial_panels"]) // 4,
        "quad.not_converged": c["quad.raised.QuadratureNotConverged"],
        "quad.self_s": self_s["quad.integrate_panels"],
        "metric.nodes_per_metric": c["quad.nodes"] / max(fact - rot, 1),
        "metric.factorized.calls": fact,
        "metric.factorized.self_s": self_s["metric.factorized"],
        "metric.primitive.calls": calls["metric.primitive"],
        "metric.primitive.self_s": self_s["metric.primitive"],
        "metric.integrand.self_s": self_s["metric.integrand"],
        "metric.rotation_fallbacks": rot,
        "metric.bruteforce.calls": calls["metric.bruteforce"],
        "metric.bruteforce.self_s": self_s["metric.bruteforce"],
        "metric.bruteforce.pieces": c["metric.bruteforce.pieces"],
        "metric.bruteforce.not_converged":
            c["metric.bruteforce.raised.QuadratureNotConverged"],
        "transport.metric_evals": evals,
        "transport.fd_metric_evals": c["transport.fd_metric_evals"],
        "transport.fd_share": c["transport.fd_metric_evals"] / evals if evals else 0.0,
        "transport.rhs_evals": calls["transport.rhs"],
        "transport.ode_steps": c["transport.ode_steps"],
        "transport.rhs.self_s": self_s["transport.rhs"],
        "transport.curvature.self_s": self_s["transport.curvature"],
        "transport.norm_drift_max": tracer.maxima["transport.norm_drift_max"],
        "config.validate.calls": calls["config.validate"],
        "config.validate.self_s": self_s["config.validate"],
        "special.calls": sum(calls[k] for k in special),
        "special.mp_fallbacks": calls["special._hyp2f1_reg_mp"],
        "special.self_s": sum(self_s[k] for k in special),
        "monodromy.analytic.calls": calls["monodromy.analytic"],
        "monodromy.analytic.self_s": self_s["monodromy.analytic"],
        "cli.exit_mismatch": sum(not r["exit_ok"] for r in records
                                 if wl.name == "cli-session"),
        "trace.overhead_s": wall_traced - wall_untraced,
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_s"] = tracer.total_s[f"cli.{cmd}"]
    outcome = outcome_metrics(records)
    m["failed_frac"] = outcome["failed_frac"]
    m["tol_misses"] = outcome["tol_misses"]
    for layer in LAYERS:
        for kind in FAILURE_KINDS:
            m[f"{layer}.failed.{kind}"] = 0
    layer = LAYER[wl.name]
    for r in records:
        if r["failed"]:
            m[f"{layer}.failed.{failure_kind(r)}"] += 1
            if r["runtime_warnings"] and failure_kind(r) != "RuntimeWarning":
                m[f"{layer}.failed.RuntimeWarning"] += 1
    return m


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def consistency(tracer, results) -> list:
    """Problems found by comparing trace counters with the program's own
    counts (HolonomyResult.nfev and n_steps)."""
    problems = []
    hol = [r for r in results if r is not None and hasattr(r, "nfev")]
    if hol and "transport:_TransportProblem.rhs" not in tracer.absent:
        nfev = sum(r.nfev for r in hol)
        if tracer.calls["transport.rhs"] != nfev:
            problems.append(f"traced rhs_evals {tracer.calls['transport.rhs']} != nfev {nfev}")
    if hol and "transport:solve_ivp" not in tracer.absent:
        steps = sum(r.n_steps for r in hol)
        if tracer.counters["transport.ode_steps"] != steps:
            problems.append(f"traced ode_steps {tracer.counters['transport.ode_steps']} "
                            f"!= n_steps {steps}")
    return problems


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    wl = set_up(args)
    first_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(first_setup))
        return 0
    os.makedirs(OUT, exist_ok=True)
    problems = []
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "absent": []}

    if args.trace == 0:
        setup_raw, setup_scaled = setup_samples(args, first_setup)
        records, results, rounds, mismatch, clock = measure(wl, args.seconds)
        if mismatch:
            problems.append("repeated rounds over the same inputs gave different results")
        oracle_pass(wl, records, results)
        # a failed case gives no answer to time; its seconds are the
        # per-layer failed.wall_s
        case_ms = [1e3 * r["time_s"] for r in records if not r["failed"]]
        outcome = outcome_metrics(records)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": 1e-3 * math.fsum(case_ms),
            "case_ms_p50": statistics.median(case_ms),
            "case_ms_p90": percentile(case_ms, 90),
            "checked_frac": outcome["checked_frac"],
            "accuracy_digits": outcome["accuracy_digits"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        report.update(setup_samples=setup_raw, setup_scaled=setup_scaled, rounds=rounds,
                      cases=len(records),
                      ref_s=clock.ref, ref_at_s=clock.at,
                      failed_frac=outcome["failed_frac"], tol_misses=outcome["tol_misses"])
    else:
        wall_u, records_u, _ = run_pass(wl)
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            wall_t, records, results = run_pass(wl, tracer)
            oracle_pass(wl, records, results, tracer)
        finally:
            tracer.uninstall()
        if [r["digest"] for r in records] != [r["digest"] for r in records_u]:
            problems.append("traced and untraced rounds gave different results")
        problems += consistency(tracer, results)
        for r, ru in zip(records, records_u):
            r["failed"] = r["failed"] or ru["failed"]
        values = layer_metrics(wl, tracer, records, wall_u, wall_t)
        values["failed.wall_s"] = math.fsum(ru["time_s"] for r, ru in zip(records, records_u)
                                            if r["failed"])
        units = PER_LAYER
        report.update(absent=tracer.absent, pass_walls=[wall_u, wall_t])
        tracer.dump(os.path.join(OUT, f"{args.workload}.spans.json.gz"))

    misses = sum(bool(r.get("check", {}).get("miss")) for r in records)
    attempted, failed = len(records), sum(r["failed"] for r in records)
    correct = not problems and misses == 0
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    report.update(correct=correct, problems=problems, metrics=metrics,
                  failures=failure_table(records), records=records)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    if report["absent"]:
        print(f"absent (counters read zero): {', '.join(report['absent'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
