import json
import os
import subprocess
import sys

import fluxholo
from fluxholo import errors, metric
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


# Prints, as JSON, the scipy modules loaded after each step.  The steps
# that need no scipy run first, so a later step cannot hide an early load.
SCIPY_PROBE = """
import json, sys

import fluxholo, fluxholo.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = {"import": loaded()}
from fluxholo import (BraidWord, ControlPath, FluxConfig, holonomy, holonomy_analytic,
                      metric_bruteforce, metric_factorized, validate)
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
                   ("curvature-map", ["curvature-map", pair, "--mover", "1",
                                      "--grid", "1.2:2.0:2,0.8:1.4:2"]),
                   ("holonomy --analytic-only", ["holonomy", triple, "--word", word,
                                                 "--analytic-only"]),
                   ("verify --level quick", ["verify", "--level", "quick"])]:
    assert main(["--output", out, *argv]) == 0, name
    steps[name] = loaded()
metric_bruteforce(two, tol=1e-6)
steps["metric_bruteforce"] = loaded()
holonomy(two, ControlPath.circle(two, mover=0, center=two.zeta[1]), ode_tol=1e-6)
steps["holonomy"] = loaded()
print(json.dumps(steps))
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    pair, triple = write_configs(tmp_path)
    steps = json.loads(run_python("-c", SCIPY_PROBE, pair, triple, str(tmp_path / "out")))
    scipy_free = ["import", "metric_factorized", "holonomy_analytic", "modes",
                  "metric --factorized-only", "curvature-map", "holonomy --analytic-only",
                  "verify --level quick"]
    assert {step: steps[step] for step in scipy_free} == {step: [] for step in scipy_free}
    bruteforce, numeric = steps["metric_bruteforce"], steps["holonomy"]
    assert "scipy.special" in bruteforce and "scipy.integrate" not in bruteforce
    assert "scipy.integrate" in numeric


def test_fresh_process_prints_the_same_metric(tmp_path, capsys):
    # the fresh process loads scipy.special halfway, for the brute-force
    # metric; here it is loaded before the run
    import scipy.special  # noqa: F401

    pair, _ = write_configs(tmp_path)
    fresh = run_python("-m", "fluxholo.cli", "metric", pair)
    assert main(["metric", pair]) == 0
    assert fresh == capsys.readouterr().out.encode()
