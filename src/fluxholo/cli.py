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
from dataclasses import dataclass

import numpy as np

from . import monodromy as mono
from . import transport as tr
from .config import FluxConfig, count_modes, validate
from .errors import DomainError, NumericalError, ValidationError
from .metric import MetricEvaluator, metric_bruteforce, metric_factorized
from .special import ELLIPTIC_CONVENTION

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PROPERTIES = 4


@dataclass(frozen=True)
class RunManifest:
    """Resolved invocation parameters shared by all commands."""

    command: str
    config_path: str | None
    quad_tol: float
    ode_tol: float
    fd_step: float | None
    collision_guard: float | None
    output: str | None
    seed: int

    def check(self):
        for name in ("quad_tol", "ode_tol"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"--{name.replace('_', '-')} must be positive")
        if self.fd_step is not None and self.fd_step <= 0:
            raise ValidationError("--fd-step must be positive")
        if self.collision_guard is not None and self.collision_guard <= 0:
            raise ValidationError("--collision-guard must be positive")
        if self.output:
            parent = os.path.dirname(os.path.abspath(self.output)) or "."
            if not os.access(parent, os.W_OK):
                raise ValidationError(f"output directory {parent!r} not writable")


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m) -> list:
    return [[_pair(z) for z in row] for row in np.atleast_2d(m)]


def _emit(doc: dict, manifest: RunManifest):
    text = json.dumps(doc, indent=2, sort_keys=True)
    json.loads(text)  # round-trip guard
    if manifest.output:
        with open(manifest.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_config(manifest: RunManifest) -> FluxConfig:
    if manifest.config_path is None:
        raise ValidationError("a configuration file is required")
    with open(manifest.config_path) as fh:
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

def cmd_modes(manifest: RunManifest, args) -> int:
    cfg = _load_config(manifest)
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
    _emit(doc, manifest)
    return EXIT_OK


def cmd_metric(manifest: RunManifest, args) -> int:
    cfg = _load_config(manifest)
    vc = validate(cfg)
    fac = metric_factorized(vc, tol=manifest.quad_tol, auto_rotate=True)
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
        bf = metric_bruteforce(vc, tol=max(manifest.quad_tol, 1e-8))
        rel = float(np.abs(bf.g - fac.g).max() / np.abs(bf.g).max())
        doc["bruteforce"] = {
            "g": _matrix(bf.g),
            "eigenvalues": sorted(np.linalg.eigvalsh(bf.g).tolist()),
            "error_estimate": bf.error_estimate,
        }
        doc["relative_discrepancy"] = rel
    _emit(doc, manifest)
    return EXIT_OK


def _parse_grid(spec: str):
    try:
        xs, ys = spec.split(",")
        x0, x1, nx = xs.split(":")
        y0, y1, ny = ys.split(":")
        return (float(x0), float(x1), int(nx)), (float(y0), float(y1), int(ny))
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}; "
                              f"expected x0:x1:nx,y0:y1:ny") from exc


def cmd_curvature_map(manifest: RunManifest, args) -> int:
    cfg = _load_config(manifest)
    vc = validate(cfg)
    if vc.counts.D_f != 1:
        raise ValidationError("curvature-map needs a configuration with one free mode")
    mover = args.mover
    (x0, x1, nx), (y0, y1, ny) = _parse_grid(args.grid)
    guard = manifest.collision_guard
    if guard is None:
        guard = 1e-2 * vc.diameter
    others = [z for a, z in enumerate(vc.zeta) if a != mover]
    base = vc.zeta.copy()
    ev = MetricEvaluator(cfg.fluxes, tol=manifest.quad_tol)

    def metric_at(positions):
        return float(np.real(ev(positions)[0, 0]))

    lines = ["x,y,R"]
    for iy in range(ny):
        y = y0 + (y1 - y0) * iy / max(ny - 1, 1)
        for ix in range(nx):
            x = x0 + (x1 - x0) * ix / max(nx - 1, 1)
            u = complex(x, y)
            if min(abs(u - z) for z in others) <= guard:
                lines.append(f"{x:.10g},{y:.10g},nan")
                continue
            pos = base.copy()
            pos[mover] = u
            moved = validate(FluxConfig(pos, cfg.fluxes))
            r = tr.curvature_abelian(moved, moving=mover, h=manifest.fd_step,
                                     quad_tol=manifest.quad_tol,
                                     metric_fn=metric_at)
            lines.append(f"{x:.10g},{y:.10g},{r.real:.12g}")
    text = "\n".join(lines) + "\n"
    if manifest.output:
        with open(manifest.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_holonomy(manifest: RunManifest, args) -> int:
    cfg = _load_config(manifest)
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
        res = tr.holonomy(vc, path, ode_tol=manifest.ode_tol,
                          quad_tol=manifest.quad_tol,
                          collision_guard=manifest.collision_guard)
        doc["numeric"] = {
            "u": _matrix(res.u),
            "eigenvalues": [_pair(v) for v in np.sort_complex(res.eigenvalues)],
            "eigenphases": sorted(res.eigenphases.tolist()),
            "norm_drift": res.norm_drift,
            "n_steps": res.n_steps,
        }
    if word is not None and not args.numeric_only:
        res_a = mono.holonomy_analytic(vc, word, tol=manifest.quad_tol)
        doc["analytic"] = {
            "u": _matrix(res_a.u),
            "eigenvalues": [_pair(v) for v in np.sort_complex(res_a.eigenvalues)],
            "eigenphases": sorted(res_a.eigenphases.tolist()),
            "norm_drift": res_a.norm_drift,
        }
    if "numeric" not in doc and "analytic" not in doc:
        raise ValidationError("the flag combination selects no computation")
    if "numeric" in doc and "analytic" in doc:
        un = np.array([[complex(*p) for p in row] for row in doc["numeric"]["u"]])
        ua = np.array([[complex(*p) for p in row] for row in doc["analytic"]["u"]])
        doc["discrepancy"] = float(np.abs(un - ua).max())
    _emit(doc, manifest)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _random_subcritical(rng, n):
    """Subcritical fluxes clear of thresholds plus positions with distinct
    imaginary parts and sane separations."""
    while True:
        fluxes = rng.uniform(0.1, 0.9, n)
        total = fluxes.sum()
        if abs(total - round(total)) > 5e-2 and total > 1.05:
            break
    while True:
        pos = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
        d = np.abs(pos[:, None] - pos[None, :]) + np.diag([np.inf] * n)
        im = np.abs(pos.imag[:, None] - pos.imag[None, :]) + np.diag([np.inf] * n)
        if d.min() > 0.5 and im.min() > 0.05:
            break
    return pos, fluxes


def _verify_checks(level: str, seed: int, quad_tol: float):
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, residual, tolerance):
        checks.append({
            "name": name,
            "residual": float(residual),
            "tolerance": float(tolerance),
            "passed": bool(residual <= tolerance),
        })

    # mode counting against a direct evaluation of the counting formulas
    worst = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        fluxes = rng.uniform(-2.0, 3.0, n)
        c = count_modes(fluxes)
        d_direct = max(0, math.ceil(abs(math.fsum(fluxes))) - 1)
        red = [f - max(0, math.floor(f)) for f in fluxes]
        df_direct = max(0, math.ceil(math.fsum(red)) - 1)
        worst = max(worst, abs(c.D - d_direct), abs(c.D_f - df_direct))
    record("mode_counting", worst, 0)

    from .config import cut_factor
    res = max(abs(cut_factor(p + 1) - cut_factor(p))
              for p in rng.uniform(-3, 3, 50))
    record("cut_factor_periodicity", res, 1e-14)

    from .metric import coupling_matrix
    worst_k = worst_h = worst_c = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        while True:
            fluxes = rng.uniform(0.05, 0.95, n)
            if abs(fluxes.sum() - round(fluxes.sum())) > 5e-2:
                break
        G = coupling_matrix(fluxes).G
        worst_k = max(worst_k, float(np.abs(G @ np.ones(n)).max()))
        worst_h = max(worst_h, float(np.abs(G - G.conj().T).max()))
        df = max(0, math.ceil(fluxes.sum()) - 1)
        pos_count = int((np.linalg.eigvalsh(G) > 1e-10).sum())
        worst_c = max(worst_c, abs(pos_count - df))
    record("coupling_kernel", worst_k, 1e-12)
    record("coupling_hermitian", worst_h, 1e-12)
    record("coupling_signature", worst_c, 0)

    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        identical = bool(rng.integers(0, 2))
        if identical:
            fluxes = np.full(n, float(rng.uniform(1 - 1 / n + 0.02, 0.98)))
        else:
            while True:
                fluxes = rng.uniform(0.1, 0.9, n)
                if abs(fluxes.sum() - round(fluxes.sum())) > 5e-2:
                    break
        moves = []
        for _ in range(int(rng.integers(1, 9))):
            s = int(rng.integers(0, n - 1))
            p = int(rng.choice([-1, 1]))
            kind = "exchange" if identical and rng.integers(0, 2) else "encircle"
            moves.append(mono.Move(kind, s, p))
        M = mono.word_to_monodromy(mono.BraidWord(moves), fluxes)
        worst = max(worst, M.pseudo_unitarity_residual(), M.stabilization_residual())
    record("monodromy_pseudo_unitarity", worst, 1e-12)

    nu = cut_factor(0.83)
    b1 = np.eye(3, dtype=complex)
    b1[:2, :2] = mono.exchange_block(nu)
    b2 = np.eye(3, dtype=complex)
    b2[1:, 1:] = mono.exchange_block(nu)
    record("burau_yang_baxter",
           np.abs(b1 @ b2 @ b1 - b2 @ b1 @ b2).max(), 1e-14)
    record("burau_exchange_squared",
           np.abs(np.linalg.matrix_power(mono.exchange_block(nu), 2)
                  - mono.encircle_block(nu, nu)).max(), 1e-14)
    record("burau_permutation_limit",
           np.abs(mono.exchange_block(1.0) - np.array([[0, 1], [1, 0]])).max(), 1e-14)

    gauge_res = scale_res = 0.0
    for _ in range(2 if level == "quick" else 4):
        n = int(rng.integers(2, 4))
        pos, fluxes = _random_subcritical(rng, n)
        vc = validate(FluxConfig(pos, fluxes))
        from .metric import primitive_matrix
        g1 = metric_factorized(vc, tol=quad_tol).g
        psi = primitive_matrix(vc, gauge=complex(pos.real.min() - 2.0, 0.37), tol=quad_tol)
        G = coupling_matrix(psi.fluxes).G
        g2 = psi.matrix.conj().T @ G @ psi.matrix
        gauge_res = max(gauge_res, float(np.abs(g1 - g2).max() / np.abs(g1).max()))
        lam = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        vcs = validate(FluxConfig(pos * lam, fluxes))
        gs = metric_factorized(vcs, tol=quad_tol, auto_rotate=True).g
        k = np.arange(vc.counts.D_f)
        pred = (lam ** k[None, :] * np.conj(lam) ** k[:, None]
                * abs(lam) ** (2 * (1 - fluxes.sum())) * g1)
        scale_res = max(scale_res, float(np.abs(gs - pred).max() / np.abs(gs).max()))
    record("metric_gauge_independence", gauge_res, 1e-9)
    record("metric_scaling_law", scale_res, 1e-8)

    from .special import metric_half_fluxes
    ev = MetricEvaluator([0.5, 0.5, 0.5], tol=quad_tol)
    res = 0.0
    for u in (0.37 + 0.41j, -0.52 + 0.66j, 1.31 + 0.24j):
        g = float(np.real(ev(np.array([0.0, 1.0, u]))[0, 0]))
        res = max(res, abs(g - metric_half_fluxes(u)) / g)
    record("half_flux_closed_form", res, 1e-9)

    if level == "full":
        res = 0.0
        for _ in range(3):
            n = int(rng.integers(2, 4))
            pos, fluxes = _random_subcritical(rng, n)
            vc = validate(FluxConfig(pos, fluxes))
            bf = metric_bruteforce(vc, tol=1e-7).g
            fac = metric_factorized(vc, tol=quad_tol).g
            res = max(res, float(np.abs(bf - fac).max() / np.abs(bf).max()))
        record("bruteforce_vs_factorized", res, 1e-5)

        vc = validate(FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.9, 0.9]))
        word = mono.BraidWord([mono.Move("encircle", 0, 1)])
        num = tr.holonomy(vc, mono.word_to_path(vc, word), ode_tol=1e-7)
        ana = mono.holonomy_analytic(vc, word)
        record("holonomy_numeric_vs_analytic",
               float(np.abs(num.u - ana.u).max()), 1e-4)

        vcr = validate(FluxConfig([0.2 + 0.1j, 1.1 + 0.6j, 0.4 + 1.3j], [0.5, 0.55, 0.5]))
        rot = tr.ControlPath.rotation(vcr, center=0.0)
        rres = tr.holonomy(vcr, rot, ode_tol=1e-7)
        expect = math.remainder(mono.rigid_rotation_phase(0, 1.55), 2 * math.pi)
        record("rigid_rotation_phase",
               abs(math.remainder(float(np.angle(rres.u[0, 0])) - expect, 2 * math.pi)),
               1e-4)

        vc2 = validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))
        record("two_fluxon_flat_curvature",
               abs(tr.curvature_abelian(vc2, moving=1)), 1e-6)
    return checks


def cmd_verify(manifest: RunManifest, args) -> int:
    checks = _verify_checks(args.level, manifest.seed, manifest.quad_tol)
    n_fail = sum(not c["passed"] for c in checks)
    doc = {
        "command": "verify",
        "level": args.level,
        "seed": manifest.seed,
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": n_fail,
        "passed": n_fail == 0,
    }
    _emit(doc, manifest)
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
    ap.add_argument("--fd-step", type=float, default=None,
                    help="step of the curvature-map stencil")
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
    manifest = RunManifest(
        command=args.command,
        config_path=getattr(args, "config", None),
        quad_tol=args.quad_tol,
        ode_tol=args.ode_tol,
        fd_step=args.fd_step,
        collision_guard=args.collision_guard,
        output=args.output,
        seed=args.seed,
    )
    try:
        manifest.check()
        return _COMMANDS[args.command](manifest, args)
    except (ValidationError, DomainError, ValueError, OSError,
            KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
