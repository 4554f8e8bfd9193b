import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np

import fluxholo
from fluxholo import _quad, cli, config, errors, metric, monodromy, special, transport
from fluxholo.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fluxholo.__file__)))


def run_python(*args):
    """stdout (bytes) of a fresh interpreter that imports this fluxholo."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, check=True,
                          env=env).stdout


def write_configs(tmp_path):
    paths = []
    for name, fluxes, positions in [("pair.json", [0.7, 0.8], [[0.0, 0.0], [0.3, 1.0]]),
                                    ("triple.json", [0.9, 0.9, 0.9],
                                     [[0.0, 0.0], [0.3, 1.0], [-0.2, 2.2]])]:
        path = tmp_path / name
        path.write_text(json.dumps({"fluxes": fluxes, "positions": positions}))
        paths.append(str(path))
    return paths


def test_every_public_name_resolves():
    missing = [name for name in fluxholo.__all__ if not hasattr(fluxholo, name)]
    assert not missing


def test_removed_names_stay_gone():
    # coupling_matrix returns the array itself, and every contour matrix is
    # anchored on the last fluxon, so no path can be blocked by a cut
    assert not hasattr(fluxholo, "CouplingMatrix")
    assert not hasattr(metric, "CouplingMatrix")
    assert not hasattr(errors, "PathBlocked")
    # the curvature stencil has one step, 2e-3 x the closest distance, which
    # can never be too large
    assert not hasattr(errors, "StepTooLarge")
    # the commands read the parsed arguments, and control-path segments
    # return their stored endpoints themselves
    assert not hasattr(cli, "RunManifest")
    assert not hasattr(transport, "_snap")
    # hyp2f1_reg evaluates by mpmath alone, and the closed forms take Gamma
    # from math
    assert not hasattr(fluxholo, "log_gamma")
    assert not hasattr(special, "log_gamma")
    assert not hasattr(special, "_hyp2f1_reg_inverted")
    # the curvature stencil evaluates its five metrics as one batch, and
    # tests/conftest.py keeps a positions -> metric helper
    assert not hasattr(fluxholo, "MetricEvaluator")
    # an encirclement is the square of the colored half-twist, which needs
    # no flux equality: a braid word only has to close, as a path does
    assert not hasattr(fluxholo, "encircle_block")
    assert not hasattr(monodromy, "encircle_block")
    assert not hasattr(errors, "ExchangeOnDistinctFluxes")
    assert not hasattr(monodromy, "FLUX_EQUALITY_TOL")
    # Gauss collocation (_collocate) is the one integrator of the
    # Gauss-Manin system: the transport steps with its 5- and 4-stage rules,
    # the curvature map with the 3-stage rule, and no Magnus step or matrix
    # exponential is left
    for name in ("_QUADRATURE_CHECK", "_UNIT_STEP", "_NODES", "_GAUSS", "_COLLOCATION",
                 "_integrated_lagrange", "_step_rules", "_BUTCHER", "_WEIGHTS",
                 "_magnus", "_expm", "_R15", "_GAUSS3", "_MOMENTS", "_PADE6"):
        assert not hasattr(transport, name)
    assert not hasattr(transport._TransportProblem, "coefficient_generators")
    # the transport refines one table of steps by bisection, each round in
    # one batch: no sequential step or per-step generators
    for name in ("step", "generators"):
        assert not hasattr(transport._TransportProblem, name)
    # every contour arm runs between fluxons adjacent in cut order and
    # starts as one panel: no breakpoints; the metric of one configuration
    # is its frame's batch of one, and the validation mode is not kept
    assert "breakpoints" not in inspect.signature(_quad.integrate_panels).parameters
    assert not hasattr(metric._Legs, "_breakpoints")
    assert not hasattr(metric, "_factorized_metrics")
    assert "strict" not in {f.name for f in dataclasses.fields(config.ValidatedConfig)}
    # every brute-force piece is a table of rows summed by one routine
    # (_BruteForce.sweep): the disks, the remainder and the far field
    for name in ("disk_piece", "far_piece", "middle_piece", "DISK_ANGLES", "ANGULAR_CHUNK"):
        assert not hasattr(metric._BruteForce, name)
    session = metric._BruteForce(np.array([0.0, 1.0]), np.array([0.4, 0.5]), 1)
    assert not hasattr(session, "panels")
    # the plane is cut with hard edges: no partition of unity, its bumps,
    # their rings, the angular boost and the nested angles
    assert not hasattr(metric, "_bump")
    for name in ("r_in", "r_out", "nt_boost"):
        assert not hasattr(session, name)
    assert {f.name for f in dataclasses.fields(metric._Piece)}.isdisjoint({"rings", "nt"})
    assert "half" not in inspect.signature(metric._BruteForce.grid).parameters
    # the sums run on plain numpy temporaries: no work arrays
    assert not hasattr(metric, "_Work") and not hasattr(metric._BruteForce, "_chunk")
    assert not hasattr(session, "_work")
    # the curvature map takes one configuration and an array of positions:
    # the stencil steps of all its cells come from one call, and validate
    # shares its coincidence rule with the map's one check of the grid
    assert not hasattr(transport, "_stencil_step") and not hasattr(transport, "_min_distance")
    assert not hasattr(config, "_check_distinct")


# Prints, as JSON, the scipy modules loaded after each step.  The steps
# that need no scipy run first, so a later step cannot hide an early load.
SCIPY_PROBE = """
import json, sys

import fluxholo, fluxholo.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = {"import": loaded()}
from fluxholo import (BraidWord, ControlPath, FluxConfig, holonomy, holonomy_analytic,
                      hyp2f1_reg, metric_bruteforce, metric_factorized,
                      three_fluxon_primitive_matrix, validate)
from fluxholo.cli import main

pair, triple, out = sys.argv[1:]
two = validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))
three = validate(FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.9, 0.9]))
metric_factorized(two)
steps["metric_factorized"] = loaded()
word = '{"moves": [{"encircle": [0, 1], "power": 1}]}'
holonomy_analytic(three, BraidWord.from_json(json.loads(word)))
steps["holonomy_analytic"] = loaded()
for name, argv in [("modes", ["modes", pair]),
                   ("metric --factorized-only", ["metric", "--factorized-only", pair]),
                   ("metric", ["metric", pair]),
                   ("curvature-map", ["curvature-map", pair, "--mover", "1",
                                      "--grid", "1.2:2.0:2,0.8:1.4:2"]),
                   ("holonomy --analytic-only", ["holonomy", triple, "--word", word,
                                                 "--analytic-only"]),
                   ("verify --level quick", ["verify", "--level", "quick"])]:
    assert main(["--output", out, *argv]) == 0, name
    steps[name] = loaded()
metric_bruteforce(two, tol=1e-6)
steps["metric_bruteforce"] = loaded()
hyp2f1_reg(0.5, 0.5, 1.0, 0.3 + 0.4j)
steps["hyp2f1_reg"] = loaded()
three_fluxon_primitive_matrix([0.4, 0.5, 0.6], 0.3 + 0.2j)
steps["three_fluxon_primitive_matrix"] = loaded()
holonomy(two, ControlPath.circle(two, mover=0, center=two.zeta[1]), ode_tol=1e-6)
steps["holonomy"] = loaded()
print(json.dumps(steps))
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    # no step loads scipy: the brute-force metric and the closed forms run
    # on numpy, math and mpmath, and the transport ODE on the package's own
    # collocation stepper; only tests/ use scipy, as an oracle
    pair, triple = write_configs(tmp_path)
    steps = json.loads(run_python("-c", SCIPY_PROBE, pair, triple, str(tmp_path / "out")))
    assert "holonomy" in steps
    assert steps == {step: [] for step in steps}


def test_fresh_process_prints_the_same_metric(tmp_path, capsys):
    # nothing in the run loads scipy, so both processes run the same code
    pair, _ = write_configs(tmp_path)
    fresh = run_python("-m", "fluxholo.cli", "metric", pair)
    assert main(["metric", pair]) == 0
    assert fresh == capsys.readouterr().out.encode()
