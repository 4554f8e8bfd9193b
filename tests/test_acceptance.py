"""Acceptance suite: one test per criterion, each printing a pass line
with the measured residuals (run with pytest -s to see them).

Transport-based criteria share their holonomy runs through module-level
caches so the suite stays at desk scale.
"""

import math
import time

import numpy as np
import pytest

from fluxholo import (
    BraidWord,
    ControlPath,
    FluxConfig,
    MetricEvaluator,
    Move,
    confined_phase,
    count_modes,
    curvature_abelian,
    curvature_nonabelian,
    cut_factor,
    exchange_block,
    holonomy,
    holonomy_analytic,
    metric_bruteforce,
    metric_half_fluxes,
    rigid_rotation_phase,
    validate,
    word_to_path,
)
from fluxholo.cli import (
    check_burau,
    check_coupling,
    check_metric_oracle,
    check_mode_counting,
    check_monodromy,
    worst_residuals,
)
from conftest import SEED, assert_within_tolerance

ODE_TOL = 1e-8
DRIFTS = []  # (label, drift) pairs collected from criteria 7-10


def phase_gap(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def report(num, label, **vals):
    parts = ", ".join(f"{k}={v:.3g}" for k, v in vals.items())
    print(f"\n[criterion {num:2d}] PASS {label}: {parts}")


def test_criterion_01_mode_counting():
    rng = np.random.default_rng(SEED)
    worst = worst_residuals(lambda: check_mode_counting(rng), 50)
    assert_within_tolerance(worst)
    report(1, "mode counting, 50 random configs", **worst)


def test_criterion_02_metric_oracle_equivalence():
    # N = 3 subcritical draws have D_f = 1 or 2
    rng = np.random.default_rng(SEED + 2)
    worst, slowest = 0.0, 0.0
    for _ in range(10):
        t0 = time.time()
        res = check_metric_oracle(rng, 3, quad_tol=1e-9)
        slowest = max(slowest, time.time() - t0)
        assert_within_tolerance(res)
        worst = max(worst, res["bruteforce_vs_factorized"])
    assert slowest < 120.0
    report(2, "brute force vs factorized, 10 subcritical N=3 configs",
           worst_rel=worst, slowest_seconds=slowest)


def test_criterion_03_half_flux_closed_form():
    worst = 0.0
    for u in (0.5, 0.35 + 0.55j, -0.4 + 0.3j, 1.42 + 0.37j, 0.61 - 0.52j):
        vc = validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5]))
        bf = metric_bruteforce(vc, tol=1e-7)
        ref = metric_half_fluxes(u)
        rel = abs(bf.g[0, 0].real - ref) / ref
        worst = max(worst, rel)
        assert rel < 1e-5
    report(3, "half-flux elliptic closed form at 5 points", worst_rel=worst)


def test_criterion_04_coupling_matrix_structure():
    rng = np.random.default_rng(SEED + 4)
    worst = worst_residuals(lambda: check_coupling(rng), 40)
    assert_within_tolerance(worst)
    report(4, "coupling matrix kernel/hermiticity/signature", **worst)


def test_criterion_05_pseudo_unitarity():
    rng = np.random.default_rng(SEED + 5)
    worst = worst_residuals(lambda: check_monodromy(rng), 100)
    assert_within_tolerance(worst)
    report(5, "G = M*GM over 100 random words", **worst)


def test_criterion_06_burau_relations():
    res = check_burau()
    assert_within_tolerance(res)
    nu = cut_factor(0.83)
    c1 = np.eye(4, dtype=complex)
    c1[:2, :2] = exchange_block(nu)
    c3 = np.eye(4, dtype=complex)
    c3[2:, 2:] = exchange_block(nu)
    far = float(np.abs(c1 @ c3 - c3 @ c1).max())
    assert far < 1e-14
    report(6, "Burau relations", far_commutativity=far, **res)


# -- shared transport fixtures (computed once) -------------------------------

@pytest.fixture(scope="module")
def two_fluxon_loops():
    vc = validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))
    circle = ControlPath.circle(vc, mover=0, center=vc.zeta[1])

    # eccentric ellipse through the base position of fluxon 0, enclosing
    # fluxon 1 but not centered on it
    ec = vc.zeta[1] + (-0.15 + 0.25j)
    w = vc.zeta[0] - ec
    eb = abs(w.imag) * 1.35
    ea = abs(w.real) / math.sqrt(1.0 - (w.imag / eb) ** 2)
    th0 = math.atan2(w.imag / eb, w.real / ea)
    rel = vc.zeta[1] - ec
    assert (rel.real / ea) ** 2 + (rel.imag / eb) ** 2 < 1.0  # fluxon enclosed

    def pos(s):
        th = th0 + 2 * math.pi * s
        z = vc.zeta.copy()
        z[0] = ec + ea * math.cos(th) + 1j * eb * math.sin(th)
        return z

    def vel(s):
        th = th0 + 2 * math.pi * s
        v = np.zeros(2, dtype=complex)
        v[0] = 2 * math.pi * (-ea * math.sin(th) + 1j * eb * math.cos(th))
        return v

    ellipse = ControlPath.parametric(pos, vel, vc.zeta, vc.zeta)
    rc = holonomy(vc, circle, ode_tol=ODE_TOL)
    re = holonomy(vc, ellipse, ode_tol=ODE_TOL)
    DRIFTS.append(("c7-circle", rc.norm_drift))
    DRIFTS.append(("c7-ellipse", re.norm_drift))
    return vc, rc, re


@pytest.fixture(scope="module")
def nonabelian_runs():
    vc = validate(FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.9, 0.9]))
    word = BraidWord([Move("encircle", 0)])
    circle = word_to_path(vc, word)
    num = holonomy(vc, circle, ode_tol=ODE_TOL)
    ana = holonomy_analytic(vc, word, tol=1e-12)

    # homotopic deformation: radius modulated away from the third fluxon
    center = vc.zeta[1]
    r0 = vc.zeta[0] - center

    def pos(s):
        th = 2 * math.pi * s
        r = 1.0 + 0.08 * math.sin(th / 2.0) ** 2
        z = vc.zeta.copy()
        z[0] = center + r0 * r * np.exp(1j * th)
        return z

    def vel(s):
        th = 2 * math.pi * s
        r = 1.0 + 0.08 * math.sin(th / 2.0) ** 2
        dr = 0.08 * math.sin(th / 2.0) * math.cos(th / 2.0)
        v = np.zeros(3, dtype=complex)
        v[0] = 2 * math.pi * r0 * (dr + 1j * r) * np.exp(1j * th)
        return v

    wobble = ControlPath.parametric(pos, vel, vc.zeta, vc.zeta)
    num2 = holonomy(vc, wobble, ode_tol=ODE_TOL)
    DRIFTS.append(("c9-circle", num.norm_drift))
    DRIFTS.append(("c9-wobble", num2.norm_drift))
    return vc, num, num2, ana


def test_criterion_07_abelian_topological_phase(two_fluxon_loops):
    vc, rc, re = two_fluxon_loops
    expected = 2.0 * math.pi * (1.5 - 1.0)
    gap_c = phase_gap(float(np.angle(rc.u[0, 0])), expected)
    gap_e = phase_gap(float(np.angle(re.u[0, 0])), expected)
    loop_gap = float(np.abs(rc.u - re.u).max())
    assert gap_c < 1e-5 and gap_e < 1e-5
    assert loop_gap < 1e-4
    report(7, "two-fluxon topological phase", circle_gap=gap_c,
           ellipse_gap=gap_e, circle_vs_ellipse=loop_gap)


def test_criterion_08_rigid_rotation():
    vc = validate(FluxConfig([0.2 + 0.1j, 1.1 + 0.6j, 0.4 + 1.3j],
                             [0.5, 0.55, 0.5]))
    assert vc.counts.D_f == 1
    rot = ControlPath.rotation(vc, center=0.0)
    res = holonomy(vc, rot, ode_tol=ODE_TOL)
    DRIFTS.append(("c8-rotation", res.norm_drift))
    expected = rigid_rotation_phase(0, sum(vc.counts.phi_prime))
    gap = phase_gap(float(np.angle(res.u[0, 0])), expected)
    assert gap < 1e-5
    report(8, "rigid rotation phase 2pi(phi'_T - 1)", gap=gap)


def test_criterion_09_nonabelian_topological_holonomy(nonabelian_runs):
    vc, num, num2, ana = nonabelian_runs
    entry_gap = float(np.abs(num.u - ana.u).max())
    assert entry_gap < 1e-4
    nu = cut_factor(0.9)
    ref = np.sort_complex(np.array([1.0, np.conj(nu) ** 2]))
    eig_gap = float(np.abs(np.sort_complex(num.eigenvalues) - ref).max())
    assert eig_gap < 1e-4
    homotopy_gap = float(np.abs(num.u - num2.u).max())
    assert homotopy_gap < 1e-4
    flat = 0.0
    for dz in (0.0, 0.17 - 0.08j, -0.11 + 0.21j):
        moved = validate(FluxConfig(vc.zeta + np.array([dz, 0, 0]),
                                    vc.config.fluxes))
        R = curvature_nonabelian(moved, pairs=[(0, 0)])
        flat = max(flat, float(np.abs(R[(0, 0)]).max()))
    assert flat < 1e-4
    report(9, "non-abelian topological holonomy", numeric_vs_analytic=entry_gap,
           eigenvalue_gap=eig_gap, homotopy_gap=homotopy_gap, curvature_norm=flat)


def test_criterion_10_path_dependence_and_curvature_flux():
    fluxes = [0.5, 0.5, 0.5]
    r1, r2 = 0.25, 0.45
    phases = {}
    for r in (r1, r2):
        base = np.array([0.0, 1.0, 1.0 + 1j * r])
        vc = validate(FluxConfig(base, fluxes))
        loop = ControlPath.circle(vc, mover=2, center=1.0)
        res = holonomy(vc, loop, ode_tol=ODE_TOL)
        DRIFTS.append((f"c10-r{r}", res.norm_drift))
        phases[r] = float(np.angle(res.u[0, 0]))
    dphi = math.remainder(phases[r2] - phases[r1], 2.0 * math.pi)
    assert abs(dphi) > 10 * ODE_TOL

    # curvature flux through the annulus, via the five-point curvature of
    # the closed-form metric: d(phase) = -2 int_annulus R dx dy
    nodes, weights = np.polynomial.legendre.leggauss(24)
    rr = r1 + (r2 - r1) * 0.5 * (nodes + 1.0)
    wr = 0.5 * (r2 - r1) * weights
    nth = 64
    th = 2.0 * np.pi * np.arange(nth) / nth
    flux = 0.0
    for radius, wgt in zip(rr, wr):
        for t in th:
            u = 1.0 + radius * np.exp(1j * t)
            vc = validate(FluxConfig([0.0, 1.0, u], fluxes))
            R = curvature_abelian(vc, moving=2,
                                  metric_fn=lambda z: metric_half_fluxes(z[2])).real
            flux += wgt * (2.0 * np.pi / nth) * radius * R
    predicted = -2.0 * flux
    assert abs(dphi - predicted) < 1e-3

    # tie the closed-form curvature back to the generic metric engine
    for u in (1.0 + 1j * 0.35, 1.0 - 0.3 + 0.0j):
        vc = validate(FluxConfig([0.0, 1.0, u], fluxes))
        r_engine = curvature_abelian(vc, moving=2).real
        r_closed = curvature_abelian(vc, moving=2,
                                     metric_fn=lambda z: metric_half_fluxes(z[2])).real
        assert abs(r_engine - r_closed) < 1e-4 * max(1.0, abs(r_closed))
    report(10, "path dependence matches curvature flux",
           phase_difference=dphi, flux_prediction=predicted,
           mismatch=abs(dphi - predicted))


def test_criterion_11_curvature_map():
    fluxes = [0.5, 0.5, 0.5]
    ev = MetricEvaluator(fluxes, tol=1e-11)

    def metric_at(positions):
        return float(np.real(ev(positions)[0, 0]))

    xs = np.linspace(-1.0, 2.0, 13)
    ys = np.linspace(-1.0, 1.0, 9)
    guard = 0.15
    grid = {}
    for y in ys:
        for x in xs:
            u = complex(x, y)
            if abs(u) <= guard or abs(u - 1.0) <= guard:
                grid[(x, y)] = math.nan
                continue
            vc = validate(FluxConfig([0.0, 1.0, u], fluxes))
            grid[(x, y)] = curvature_abelian(vc, moving=2, quad_tol=1e-11,
                                             metric_fn=metric_at).real

    sym = 0.0
    interior_ok = True
    for (x, y), v in grid.items():
        mirrored = grid[(x, -y)]
        if math.isnan(v) or math.isnan(mirrored):
            assert math.isnan(v) == math.isnan(mirrored)
            continue
        sym = max(sym, abs(v - mirrored))
        if 0.1 < x < 0.9 and abs(y) > 0.2:
            interior_ok = interior_ok and abs(v) > 1e-8
    assert sym < 1e-6
    assert interior_ok

    # monotone growth in magnitude along rays into the collision points
    mono_ok = True
    for target, direction in ((0.0, np.exp(1j * 2.2)), (1.0, np.exp(1j * 0.9))):
        vals = []
        for dist in (0.45, 0.3, 0.2, 0.12):
            u = target + dist * direction
            vc = validate(FluxConfig([0.0, 1.0, u], fluxes))
            vals.append(abs(curvature_abelian(
                vc, moving=2, metric_fn=lambda z: metric_half_fluxes(z[2])).real))
        mono_ok = mono_ok and all(b > a for a, b in zip(vals, vals[1:]))
    assert mono_ok
    report(11, "curvature map symmetric, nonzero, growing at collisions",
           conjugation_asymmetry=sym)


def test_criterion_12_norm_conservation(two_fluxon_loops, nonabelian_runs):
    assert DRIFTS, "transport criteria must run first"
    worst = max(d for _, d in DRIFTS)
    assert worst < 10 * ODE_TOL
    report(12, f"norm drift on {len(DRIFTS)} transports", worst_drift=worst)


def test_criterion_13_confined_phase():
    fluxes = [2.3, 0.4, 1.7]
    reduced = count_modes(fluxes).phi_prime
    val = confined_phase([0, 1, 0], 0, fluxes)
    assert val == 2.0 * math.pi * reduced[1]

    # symbolic consistency with the one-by-one connection block: the phase
    # accumulates phi'_b d arg(zeta_b - zeta_a) along the loop
    t = np.linspace(0.0, 1.0, 8001)
    loop = 1.4 * np.exp(2j * np.pi * t)
    darg = np.angle(loop[1:] / loop[:-1]).sum()
    accumulated = reduced[1] * darg
    assert abs(accumulated - val) < 1e-9
    report(13, "confined-mode Aharonov-Bohm phase", value=val,
           angle_accumulation_gap=abs(accumulated - val))
