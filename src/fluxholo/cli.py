"""Command-line front end.

Commands
  modes          mode counts and per-fluxon classification
  metric         the zero-mode metric, factorized and/or brute force
  curvature-map  abelian curvature on a grid (CSV)
  holonomy       numeric and/or analytic holonomy of a loop or braid word
  verify         randomized invariant suite with a machine-readable report

Complex numbers are serialized as [re, im] pairs; matrices as row lists
of pairs.  All randomness is driven by --seed, and iteration orders are
fixed, so reports are byte-identical across runs.

Exit codes: 0 success, 2 validation error, 3 numerical-convergence
failure, 4 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import monodromy as mono
from . import transport as tr
from .config import (FluxConfig, count_modes, cut_factor, first_refused, separations,
                     validate)
from .errors import DomainError, FluxholoError, NumericalError, ValidationError
from .metric import (
    coupling_matrix,
    metric_bruteforce,
    metric_factorized,
    primitive_matrix,
)
from .special import ELLIPTIC_CONVENTION, metric_half_fluxes

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PROPERTIES = 4


def _check_args(args):
    """The global flags every command shares: positive finite tolerances
    and guard, and a writable directory for --output."""
    for name in ("quad_tol", "ode_tol", "collision_guard"):
        value = getattr(args, name)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValidationError(f"--{name.replace('_', '-')} must be positive "
                                  f"and finite, got {value!r}")
    if args.output:
        parent = os.path.dirname(os.path.abspath(args.output)) or "."
        if not os.access(parent, os.W_OK):
            raise ValidationError(f"output directory {parent!r} not writable")


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m) -> list:
    return [[_pair(z) for z in row] for row in np.atleast_2d(m)]


def _write(text: str, output: str | None):
    """text (ending in a newline) to the --output file, or to stdout."""
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _emit(doc: dict, output: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    json.loads(text)  # round-trip guard
    _write(text + "\n", output)


def _load_config(args) -> FluxConfig:
    with open(args.config) as fh:
        return FluxConfig.from_dict(json.load(fh))


def _load_json_arg(value: str):
    """Accept a filename or an inline JSON literal."""
    s = value.strip()
    if s.startswith("[") or s.startswith("{"):
        return json.loads(s)
    with open(value) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_modes(args) -> int:
    cfg = _load_config(args)
    validate(cfg, strict=False)  # coincidence check only
    counts = count_modes(cfg.fluxes)

    def classify(f):
        if f > 1.0:
            return "supercritical"
        if f == 1.0:
            return "critical"
        return "subcritical"

    doc = {
        "command": "modes",
        "total_flux": math.fsum(cfg.fluxes),
        "D": counts.D,
        "D_f": counts.D_f,
        "fluxons": [
            {"flux": f, "confined": n, "phi_prime": p, "class": classify(f)}
            for f, n, p in zip(cfg.fluxes, counts.n, counts.phi_prime)
        ],
        "free_modes_available": counts.free_modes_ok and counts.D_f > 0,
    }
    if counts.D == 0:
        doc["note"] = "no zero modes"
    if not counts.free_modes_ok:
        doc["warning"] = ("reduced total flux <= 0; free-mode operations "
                          "refuse to run for this configuration")
    _emit(doc, args.output)
    return EXIT_OK


def cmd_metric(args) -> int:
    cfg = _load_config(args)
    vc = validate(cfg)
    fac = metric_factorized(vc, tol=args.quad_tol, auto_rotate=True)
    doc = {
        "command": "metric",
        "D_f": vc.counts.D_f,
        "elliptic_convention": ELLIPTIC_CONVENTION,
        "factorized": {
            "g": _matrix(fac.g),
            "eigenvalues": sorted(np.linalg.eigvalsh(fac.g).tolist()),
            "error_estimate": fac.error_estimate,
        },
    }
    if not args.factorized_only:
        bf = metric_bruteforce(vc, tol=max(args.quad_tol, 1e-8))
        rel = float(np.abs(bf.g - fac.g).max() / np.abs(bf.g).max())
        doc["bruteforce"] = {
            "g": _matrix(bf.g),
            "eigenvalues": sorted(np.linalg.eigvalsh(bf.g).tolist()),
            "error_estimate": bf.error_estimate,
        }
        doc["relative_discrepancy"] = rel
    _emit(doc, args.output)
    return EXIT_OK


def _parse_grid(spec: str):
    try:
        xs, ys = spec.split(",")
        x0, x1, nx = xs.split(":")
        y0, y1, ny = ys.split(":")
        grid = (float(x0), float(x1), int(nx)), (float(y0), float(y1), int(ny))
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}; "
                              f"expected x0:x1:nx,y0:y1:ny") from exc
    if grid[0][2] < 1 or grid[1][2] < 1:
        raise ValidationError(f"grid {spec!r} has no points; nx and ny must be >= 1")
    return grid


#: Cells per block of the curvature map (one curvature_abelians call each).
#: The benchmark's seed-1 17 x 13 map, in-process on a 2-vCPU VM, best of
#: 12 interleaved runs: 48 cells take 14.1 to 15.8 ms over six sets, with
#: about 20 minor faults a map and a tracemalloc peak of 0.72 MB; 32 cells
#: are 0.6 ms slower (0.70 MB); 64 cells are no faster, with about 185
#: faults and 0.92 MB; 16 cells take 19.4 ms (0.62 MB); one block for the
#: whole map takes 14.0 ms, with about 520 faults and 2.83 MB.
CURVATURE_CHUNK = 48


def cmd_curvature_map(args) -> int:
    cfg = _load_config(args)
    vc = validate(cfg)
    if vc.counts.D_f != 1:
        raise ValidationError("curvature-map needs a configuration with one free mode")
    mover = args.mover
    if not 0 <= mover < vc.n_fluxons:
        raise ValidationError(f"--mover {mover} out of range for {vc.n_fluxons} fluxons")
    # the grid in the order of operations of Python floats, which neither
    # warn nor raise on inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = (lo + (hi - lo) * np.arange(n) / max(n - 1, 1)
                  for lo, hi, n in _parse_grid(args.grid))
    xt, yt = ([f"{v:.10g}" for v in axis.tolist()] for axis in (xs, ys))
    points = [f"{x},{y}" for y in yt for x in xt]
    u = np.empty((len(ys), len(xs)), dtype=complex)
    u.real, u.imag = xs, ys[:, None]
    u = u.ravel()
    # the guard on the distance to every other fluxon, by hypot: Python's
    # abs of a complex number, bit for bit
    d = u[:, None] - np.delete(vc.zeta, mover)
    guarded = np.hypot(d.real, d.imag) <= tr.guard_distance(vc, args.collision_guard)
    computed = np.flatnonzero(~guarded.any(axis=1))
    cells = np.tile(vc.zeta, (len(computed), 1))
    cells[:, mover] = u[computed]
    # one validation of every cell; the map runs up to the first refused
    # cell, which then raises what its own validation raises
    stop = first_refused(cells.tolist())

    values = ["nan"] * len(points)
    for lo in range(0, stop, CURVATURE_CHUNK):
        block = cells[lo:min(lo + CURVATURE_CHUNK, stop)]
        try:
            curv = tr.curvature_abelians(vc, block, mover, args.quad_tol)
        except (FluxholoError, ValueError):
            # the first failing cell raises what it raises on its own
            for row in block:
                tr.curvature_abelians(vc, row[None], mover, args.quad_tol)
            raise
        for i, r in zip(computed[lo:lo + len(block)].tolist(), curv.real.tolist()):
            values[i] = f"{r:.12g}"
    if stop < len(cells):
        validate(FluxConfig(cells[stop], cfg.fluxes))
    _write("".join(f"{p},{v}\n" for p, v in zip(["x,y"] + points, ["R"] + values)),
           args.output)
    return EXIT_OK


def cmd_holonomy(args) -> int:
    cfg = _load_config(args)
    vc = validate(cfg)
    doc = {"command": "holonomy"}
    path = None
    word = None
    if args.word:
        word = mono.BraidWord.from_json(_load_json_arg(args.word))
    if args.path:
        path = tr.ControlPath.from_json(_load_json_arg(args.path), vc.zeta)
    if word is not None and path is None and not args.analytic_only:
        path = mono.word_to_path(vc, word)
    if path is None and word is None:
        raise ValidationError("holonomy needs --path and/or --word")

    if path is not None and not args.analytic_only:
        res = tr.holonomy(vc, path, ode_tol=args.ode_tol,
                          quad_tol=args.quad_tol,
                          collision_guard=args.collision_guard)
        doc["numeric"] = {
            "u": _matrix(res.u),
            "eigenvalues": [_pair(v) for v in np.sort_complex(res.eigenvalues)],
            "eigenphases": sorted(res.eigenphases.tolist()),
            "norm_drift": res.norm_drift,
            "n_steps": res.n_steps,
        }
    if word is not None and not args.numeric_only:
        res_a = mono.holonomy_analytic(vc, word, tol=args.quad_tol)
        doc["analytic"] = {
            "u": _matrix(res_a.u),
            "eigenvalues": [_pair(v) for v in np.sort_complex(res_a.eigenvalues)],
            "eigenphases": sorted(res_a.eigenphases.tolist()),
            "norm_drift": res_a.norm_drift,
        }
    if "numeric" not in doc and "analytic" not in doc:
        raise ValidationError("the flag combination selects no computation")
    if "numeric" in doc and "analytic" in doc:
        doc["discrepancy"] = float(np.abs(res.u - res_a.u).max())
    _emit(doc, args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------
# One check_* function per property: each draws one case from rng (n and
# quad_tol are the caller's) and returns its named residuals.  The test
# suite runs the same functions with its own seeds and sample counts.

#: Bound on the worst residual of each verify check.
TOLERANCES = {
    "mode_counting": 0,
    "cut_factor_periodicity": 1e-14,
    "coupling_kernel": 1e-12,
    "coupling_hermitian": 1e-12,
    "coupling_signature": 0,
    "monodromy_pseudo_unitarity": 1e-12,
    "burau_yang_baxter": 1e-14,
    "burau_exchange_squared_spectrum": 1e-14,
    "burau_permutation_limit": 1e-14,
    "metric_gauge_independence": 1e-9,
    "metric_scaling_law": 1e-8,
    "half_flux_closed_form": 1e-9,
    "bruteforce_vs_factorized": 1e-5,
    "holonomy_numeric_vs_analytic": 1e-4,
    "rigid_rotation_phase": 1e-4,
    "two_fluxon_flat_curvature": 1e-6,
}


def _clear_fluxes(rng, n, lo, hi, min_total=0.0):
    """n fluxes drawn from [lo, hi) whose total exceeds min_total and lies
    more than 5e-2 from an integer."""
    while True:
        fluxes = rng.uniform(lo, hi, n)
        total = fluxes.sum()
        if abs(total - round(total)) > 5e-2 and total > min_total:
            return fluxes


def _random_subcritical(rng, n):
    """Subcritical fluxes clear of thresholds plus positions with distinct
    imaginary parts and sane separations."""
    fluxes = _clear_fluxes(rng, n, 0.1, 0.9, min_total=1.05)
    while True:
        pos = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
        if separations(pos).min() > 0.5 and separations(pos.imag).min() > 0.05:
            return pos, fluxes


def check_mode_counting(rng):
    """count_modes against a direct evaluation of the counting formulas."""
    n = int(rng.integers(1, 6))
    fluxes = rng.uniform(-2.0, 3.0, n)
    c = count_modes(fluxes)
    d_direct = max(0, math.ceil(abs(math.fsum(fluxes))) - 1)
    red = [f - max(0, math.floor(f)) for f in fluxes]
    df_direct = max(0, math.ceil(math.fsum(red)) - 1)
    return {"mode_counting": max(abs(c.D - d_direct), abs(c.D_f - df_direct))}


def check_cut_factor(rng):
    p = rng.uniform(-3, 3)
    return {"cut_factor_periodicity": abs(cut_factor(p + 1) - cut_factor(p))}


def check_coupling(rng):
    """G annihilates the all-ones vector, is hermitian and has D_f
    positive eigenvalues."""
    n = int(rng.integers(2, 7))
    fluxes = _clear_fluxes(rng, n, 0.05, 0.95)
    G = coupling_matrix(fluxes)
    df = max(0, math.ceil(fluxes.sum()) - 1)
    return {
        "coupling_kernel": float(np.abs(G @ np.ones(n)).max()),
        "coupling_hermitian": float(np.abs(G - G.conj().T).max()),
        "coupling_signature": abs(int((np.linalg.eigvalsh(G) > 1e-10).sum()) - df),
    }


def check_monodromy(rng):
    """M^* G(start) M = G(end) and M 1 = 1 for a random colored word."""
    n = int(rng.integers(2, 6))
    if rng.integers(0, 2):
        fluxes = np.full(n, float(rng.uniform(1 - 1 / n + 0.02, 0.98)))
    else:
        fluxes = _clear_fluxes(rng, n, 0.1, 0.9)
    moves = []
    for _ in range(int(rng.integers(1, 9))):
        s = int(rng.integers(0, n - 1))
        p = int(rng.choice([-1, 1]))
        kind = "exchange" if rng.integers(0, 2) else "encircle"
        moves.append(mono.Move(kind, s, p))
    M = mono.word_to_monodromy(mono.BraidWord(moves), fluxes)
    return {"monodromy_pseudo_unitarity":
            max(M.pseudo_unitarity_residual(), M.stabilization_residual())}


def check_burau():
    """Colored braid relation, spectrum {1, nu_a nu_b} of sigma^2, permutation limit."""
    def monodromy(*strands):
        word = mono.BraidWord([mono.Move("exchange", i) for i in strands])
        return mono.word_to_monodromy(word, [0.6, 0.7, 0.83]).M

    ev = np.sort_complex(np.linalg.eigvals(monodromy(0, 0)[:2, :2]))
    expect = np.sort_complex(np.array([1.0, cut_factor(0.6) * cut_factor(0.7)]))
    return {
        "burau_yang_baxter": np.abs(monodromy(0, 1, 0) - monodromy(1, 0, 1)).max(),
        "burau_exchange_squared_spectrum": np.abs(ev - expect).max(),
        "burau_permutation_limit":
            np.abs(mono.exchange_block(1.0) - np.array([[0, 1], [1, 0]])).max(),
    }


def check_metric_laws(rng, n, quad_tol):
    """The factorized metric of a random subcritical configuration against
    Psi^* G Psi with every column of Psi shifted by one constant (a move of
    the fiducial point; G annihilates the all-ones vector), and the scaling law
    g_jk(lam zeta) = lam^k conj(lam)^j |lam|^(2 (1 - Phi'_T)) g_jk(zeta)."""
    pos, fluxes = _random_subcritical(rng, n)
    vc = validate(FluxConfig(pos, fluxes))
    g1 = metric_factorized(vc, tol=quad_tol).g
    psi = primitive_matrix(vc, tol=quad_tol)
    shifted = psi.matrix + (0.7 - 0.3j)
    g2 = shifted.conj().T @ coupling_matrix(psi.fluxes) @ shifted
    lam = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    gs = metric_factorized(validate(FluxConfig(pos * lam, fluxes)), tol=quad_tol,
                           auto_rotate=True).g
    k = np.arange(vc.counts.D_f)
    pred = (lam ** k[None, :] * np.conj(lam) ** k[:, None]
            * abs(lam) ** (2 * (1 - fluxes.sum())) * g1)
    return {
        "metric_gauge_independence": float(np.abs(g1 - g2).max() / np.abs(g1).max()),
        "metric_scaling_law": float(np.abs(gs - pred).max() / np.abs(gs).max()),
    }


def check_half_flux(quad_tol):
    res = 0.0
    for u in (0.37 + 0.41j, -0.52 + 0.66j, 1.31 + 0.24j):
        vc = validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5]))
        g = float(np.real(metric_factorized(vc, tol=quad_tol, auto_rotate=True).g[0, 0]))
        res = max(res, abs(g - metric_half_fluxes(u)) / g)
    return {"half_flux_closed_form": res}


def check_metric_oracle(rng, n, quad_tol):
    """Factorized metric against brute force (at 1e-7) on a random
    subcritical configuration, relative to the largest entry."""
    pos, fluxes = _random_subcritical(rng, n)
    vc = validate(FluxConfig(pos, fluxes))
    bf = metric_bruteforce(vc, tol=1e-7).g
    fac = metric_factorized(vc, tol=quad_tol).g
    return {"bruteforce_vs_factorized": float(np.abs(bf - fac).max() / np.abs(bf).max())}


def check_numeric_holonomy():
    # sigma_0^2 on three different fluxes: a colored pure braid
    vc = validate(FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.8, 0.85]))
    word = mono.BraidWord([mono.Move("encircle", 0, 1)])
    num = tr.holonomy(vc, mono.word_to_path(vc, word), ode_tol=1e-7)
    ana = mono.holonomy_analytic(vc, word)
    return {"holonomy_numeric_vs_analytic": float(np.abs(num.u - ana.u).max())}


def check_rigid_rotation():
    vc = validate(FluxConfig([0.2 + 0.1j, 1.1 + 0.6j, 0.4 + 1.3j], [0.5, 0.55, 0.5]))
    res = tr.holonomy(vc, tr.ControlPath.rotation(vc, center=0.0), ode_tol=1e-7)
    expect = math.remainder(mono.rigid_rotation_phase(0, 1.55), 2 * math.pi)
    return {"rigid_rotation_phase":
            abs(math.remainder(float(np.angle(res.u[0, 0])) - expect, 2 * math.pi))}


def check_flat_curvature():
    vc = validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))
    return {"two_fluxon_flat_curvature": abs(tr.curvature_abelian(vc, moving=1))}


def worst_residuals(check, count: int) -> dict:
    """The largest residual of each name over count calls of check; a NaN
    residual is kept (np.maximum), so it fails its tolerance."""
    worst = {}
    for _ in range(count):
        for name, residual in check().items():
            worst[name] = np.maximum(worst.get(name, 0.0), residual)
    return worst


def _verify_checks(level: str, seed: int, quad_tol: float):
    rng = np.random.default_rng(seed)
    runs = [
        (200, lambda: check_mode_counting(rng)),
        (50, lambda: check_cut_factor(rng)),
        (25, lambda: check_coupling(rng)),
        (40, lambda: check_monodromy(rng)),
        (1, check_burau),
        (2 if level == "quick" else 4,
         lambda: check_metric_laws(rng, int(rng.integers(2, 4)), quad_tol)),
        (1, lambda: check_half_flux(quad_tol)),
    ]
    if level == "full":
        runs += [
            (3, lambda: check_metric_oracle(rng, int(rng.integers(2, 4)), quad_tol)),
            (1, check_numeric_holonomy),
            (1, check_rigid_rotation),
            (1, check_flat_curvature),
        ]
    worst = {}
    for count, check in runs:
        worst.update(worst_residuals(check, count))
    return [{"name": name,
             "residual": float(residual),
             "tolerance": float(TOLERANCES[name]),
             "passed": bool(residual <= TOLERANCES[name])}
            for name, residual in worst.items()]


def cmd_verify(args) -> int:
    checks = _verify_checks(args.level, args.seed, args.quad_tol)
    n_fail = sum(not c["passed"] for c in checks)
    doc = {
        "command": "verify",
        "level": args.level,
        "seed": args.seed,
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": n_fail,
        "passed": n_fail == 0,
    }
    _emit(doc, args.output)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: residual {c['residual']:.3g} "
              f"(tolerance {c['tolerance']:.3g})", file=sys.stderr)
    return EXIT_OK if n_fail == 0 else EXIT_PROPERTIES


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fluxholo",
        description="zero modes of point fluxons: metric, transport, braiding")
    ap.add_argument("--quad-tol", type=float, default=1e-8)
    ap.add_argument("--ode-tol", type=float, default=1e-8)
    ap.add_argument("--collision-guard", type=float, default=None)
    ap.add_argument("--output", default=None)
    ap.add_argument("--seed", type=int, default=20260811)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="mode counts and classification")
    p.add_argument("config")

    p = sub.add_parser("metric", help="zero-mode metric, both routes")
    p.add_argument("config")
    p.add_argument("--factorized-only", action="store_true")

    p = sub.add_parser("curvature-map", help="abelian curvature grid (CSV)")
    p.add_argument("config")
    p.add_argument("--mover", type=int, required=True)
    p.add_argument("--grid", required=True, help="x0:x1:nx,y0:y1:ny")

    p = sub.add_parser("holonomy", help="holonomy of a loop or braid word")
    p.add_argument("config")
    p.add_argument("--path", default=None, help="path JSON (file or inline)")
    p.add_argument("--word", default=None, help="braid word JSON (file or inline)")
    p.add_argument("--numeric-only", action="store_true")
    p.add_argument("--analytic-only", action="store_true")

    p = sub.add_parser("verify", help="randomized invariant suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    return ap


_COMMANDS = {
    "modes": cmd_modes,
    "metric": cmd_metric,
    "curvature-map": cmd_curvature_map,
    "holonomy": cmd_holonomy,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (ValidationError, DomainError, ValueError, OSError,
            KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
