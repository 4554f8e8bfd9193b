"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import fluxholo  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_depend_only_on_the_seed(workload):
    gen = inputs.GENERATORS[workload]
    assert inputs.canonical(gen(7)) == inputs.canonical(gen(7))
    assert inputs.canonical(gen(7)) != inputs.canonical(gen(8))


def test_metric_sweep_inputs_are_accepted_by_validate():
    cases = inputs.metric_sweep(3)
    assert len(cases) == sum(n for _, n in inputs.SWEEP_CLASSES)
    for case in cases:
        vc = fluxholo.validate(workloads._config(case))
        assert vc.counts.D_f >= 1


def test_metric_names_and_units():
    bench = _benchmark_json()
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.GENERATORS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        unit = (run.END_TO_END | run.PER_LAYER)[m["name"]]
        assert m["unit"] == unit


def test_missing_wrapped_name_is_reported_absent():
    tracer = spans.Tracer()
    tracer.patch("transport:_no_such_function", lambda fn: fn)
    tracer.patch("metric:_NoSuchClass.method", lambda fn: fn)
    tracer.patch("no_such_module:f", lambda fn: fn)
    assert tracer.absent == ["transport:_no_such_function", "metric:_NoSuchClass.method",
                             "no_such_module:f"]


def test_uninstall_restores_the_program():
    before = (fluxholo.metric_factorized, fluxholo.metric.integrate_panels,
              fluxholo.metric.MetricEvaluator.__call__)
    tracer = spans.Tracer()
    spans.install(tracer)
    assert fluxholo.metric_factorized is not before[0]
    tracer.uninstall()
    after = (fluxholo.metric_factorized, fluxholo.metric.integrate_panels,
             fluxholo.metric.MetricEvaluator.__call__)
    assert after == before


def _subset(wl, ids):
    wl.cases = [c for c in wl.cases if c["id"] in ids]
    return wl


def _traced_and_untraced(wl):
    _, plain, _ = run.run_pass(wl)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        _, traced, results = run.run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    return plain, traced, results, tracer


def test_traced_metric_cases_are_bit_identical(tmp_path):
    ids = {"generic-001", "generic-005", "tight-pair-000", "half-flux-000", "scale-001"}
    wl = _subset(workloads.MetricSweep(inputs.metric_sweep(5), tmp_path), ids)
    plain, traced, _, tracer = _traced_and_untraced(wl)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert tracer.calls["metric.factorized"] >= len(ids)
    assert tracer.counters["quad.nodes"] > 0
    assert tracer.calls["metric.rotated"] >= 1  # the half-flux triple ties 0 and 1
    assert not tracer.absent


def test_traced_holonomy_matches_program_counts(tmp_path):
    wl = workloads.HolonomyLoops(inputs.holonomy_loops(5), tmp_path)
    wl.cases = [c for c in wl.cases if c["class"] == "rotation"]
    plain, traced, results, tracer = _traced_and_untraced(wl)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert run.consistency(tracer, results) == []
    assert tracer.calls["transport.rhs"] == results[0].nfev
    assert tracer.counters["transport.ode_steps"] == results[0].n_steps
    assert 0 < tracer.counters["transport.fd_metric_evals"] < tracer.calls["metric.evaluator"]


def test_traced_cli_cases_are_bit_identical(tmp_path):
    cases = [c for c in inputs.cli_session(5)
             if c["class"] in ("modes", "holonomy", "invalid")]
    wl = workloads.CliSession(cases, str(tmp_path))
    plain, traced, _, tracer = _traced_and_untraced(wl)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert tracer.total_s["cli.holonomy"] > 0.0
    # every invalid input other than the malformed braid word exits with 2
    for case, rec in zip(wl.cases, plain):
        if case["class"] == "invalid" and case["why"] != "malformed braid word":
            assert rec["exit_ok"] and not rec["failed"], case["why"]


def test_pace_samples_inside_a_case_and_restores_the_handler():
    import signal
    import time

    import pace

    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as clock:
        t0 = time.perf_counter()
        spent0 = clock.spent
        while time.perf_counter() - t0 < 0.2:  # a busy 0.2 s "case"
            pass
        t1 = time.perf_counter()
        spent = clock.spent - spent0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [a for a in clock.at if t0 <= a <= t1]
    assert len(inside) >= 3
    assert 0.0 < spent < t1 - t0
    assert clock.scale(t0, t1) > 0.0
