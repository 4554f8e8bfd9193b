import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fluxholo import (
    BraidWord,
    ControlPath,
    FluxConfig,
    ModeVector,
    connection,
    curvature_abelian,
    curvature_nonabelian,
    holonomy,
    metric_derivative,
    metric_factorized,
    metric_half_fluxes,
    parallel_transport,
    primitive_matrix,
    validate,
    word_to_path,
)
from fluxholo import transport
from fluxholo.cli import check_flat_curvature
from fluxholo.errors import (
    ClosedPathRequired,
    CollisionGuardTripped,
    ODEStepUnderflow,
)
from fluxholo.metric import _contour_frame, _gauss_manin
from conftest import assert_within_tolerance, factorized_metric


BASE = np.array([0.0, 0.3 + 1.0j, -0.2 + 2.2j])


def _arc():
    """Fluxon 0 a quarter turn clockwise about 0.5j, to -0.5 + 0.5j; the
    formula misses that stored end in the last bit, and the path returns
    the stored end."""
    mover = np.array([1.0, 0.0, 0.0])
    end = BASE.copy()
    end[0] = -0.5 + 0.5j
    return ControlPath.parametric(
        lambda s: BASE + mover * (0.5j - 0.5j * np.exp(-0.5j * np.pi * s)),
        lambda s: mover * (-0.25 * np.pi * np.exp(-0.5j * np.pi * s)), BASE, end)


def _segment_then_circle():
    first = ControlPath.segment(BASE, 2, 1.0 + 2.0j)
    return first.then(ControlPath.circle(first.end, 0, 0.15 + 0.5j))


#: One path from each ControlPath constructor, and a two-segment path.
PATHS = {
    "circle": lambda: ControlPath.circle(BASE, 0, 0.15 + 0.5j),
    "exchange": lambda: ControlPath.exchange(BASE, 1, 2),
    "rotation": lambda: ControlPath.rotation(BASE, center=0.1 + 0.3j),
    "segment": lambda: ControlPath.segment(BASE, 2, 1.0 + 2.0j),
    "parametric": _arc,
    "then": _segment_then_circle,
}


class TestControlPath:
    def test_circle_closes_exactly(self, two_fluxon):
        loop = ControlPath.circle(two_fluxon, mover=0, center=two_fluxon.zeta[1])
        assert np.array_equal(loop.start, loop.end)
        assert loop.is_closed(two_fluxon.config.fluxes)
        assert loop.closure_permutation() == (0, 1)

    def test_exchange_swaps_exactly(self):
        base = np.array([0.0, 1.0 + 1.0j])
        path = ControlPath.exchange(base, 0, 1)
        assert path.end[0] == base[1] and path.end[1] == base[0]
        assert path.is_closed([0.9, 0.9])
        assert not path.is_closed([0.7, 0.8])

    def test_segment_is_open(self):
        base = np.array([0.0, 1.0 + 1.0j])
        path = ControlPath.segment(base, 0, -1.0)
        assert not path.is_closed()

    @pytest.mark.parametrize("name", list(PATHS))
    def test_velocity_consistent_with_positions(self, name):
        path = PATHS[name]()
        h = 1e-7
        for t in (0.13, 0.41, 0.87):
            fd = (path.position(t + h) - path.position(t - h)) / (2 * h)
            assert np.abs(fd - path.velocity(t)).max() < 1e-6
        # the stored endpoints come back exactly, as fresh copies
        assert np.array_equal(path.position(0.0), path.start)
        assert np.array_equal(path.position(1.0), path.end)
        assert path.position(0.0) is not path.segments[0].start
        if len(path.segments) == 2:
            first, second = path.segments
            assert np.array_equal(path.position(0.5), first.end)
            # each segment spans half of t, so d/dt is twice d/ds
            assert np.array_equal(path.velocity(0.5), 2 * second.vel(0.0))
            h = 1e-8
            fd = (path.position(0.5 + h) - path.position(0.5)) / h
            assert np.abs(fd - path.velocity(0.5)).max() < 1e-5

    def test_from_json_round_trip(self, two_fluxon):
        moves = [{"type": "circle", "mover": 0,
                  "center": [two_fluxon.zeta[1].real, two_fluxon.zeta[1].imag],
                  "turns": 1}]
        loop = ControlPath.from_json(moves, two_fluxon.zeta)
        assert loop.is_closed(two_fluxon.config.fluxes)

    def test_from_json_needs_a_move(self, two_fluxon):
        with pytest.raises(ValueError, match="at least one move"):
            ControlPath.from_json([], two_fluxon.zeta)

    def test_from_json_radius_must_match_start(self, two_fluxon):
        center = two_fluxon.zeta[1]
        r = abs(two_fluxon.zeta[0] - center)
        good = [{"type": "circle", "mover": 0,
                 "center": [center.real, center.imag], "radius": r}]
        assert ControlPath.from_json(good, two_fluxon.zeta).is_closed()
        bad = [{"type": "circle", "mover": 0,
                "center": [center.real, center.imag], "radius": 2 * r}]
        with pytest.raises(ValueError):
            ControlPath.from_json(bad, two_fluxon.zeta)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_circle_radius_checked_relative_to_radius(self, scale):
        # no absolute floor: a radius 1e-7 off in relative terms is
        # rejected at every scale, one 1e-12 off is accepted
        base = scale * np.array([0.0, 0.3 + 1.0j])
        r = abs(base[0] - base[1])
        assert ControlPath.circle(base, 0, base[1], radius=r * (1 + 1e-12)).is_closed()
        with pytest.raises(ValueError):
            ControlPath.circle(base, 0, base[1], radius=r * (1 + 1e-7))

    def test_exchange_of_distinct_fluxes_is_open(self, two_fluxon):
        from fluxholo import holonomy as run_holonomy
        path = ControlPath.exchange(two_fluxon.zeta, 0, 1)
        with pytest.raises(ClosedPathRequired):
            run_holonomy(two_fluxon, path)

    def test_mismatched_segments_rejected(self):
        a = ControlPath.segment(np.array([0.0, 1j]), 0, -1.0)
        b = ControlPath.segment(np.array([0.5, 1j]), 0, -2.0)
        with pytest.raises(ValueError):
            a.then(b)


class TestMetricDerivative:
    def test_translation_covariance(self, three_distinct):
        # d/de g(zeta + e) = sum_a (d_a g + conj-transpose)
        total = np.zeros_like(metric_factorized(three_distinct).g)
        for a in range(3):
            d, _ = metric_derivative(three_distinct, a)
            total = total + d + d.conj().T
        ev = factorized_metric(three_distinct.config.fluxes, tol=1e-11)
        h = 1e-5
        fd = (ev(three_distinct.zeta + h) - ev(three_distinct.zeta - h)) / (2 * h)
        assert np.abs(total - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())

    def test_scaling_direction(self, three_identical_09):
        # sum_a zeta_a d_a g_jk = (k + 1 - phi'_T) g_jk
        g = metric_factorized(three_identical_09, tol=1e-11).g
        total = sum(three_identical_09.counts.phi_prime)
        acc = np.zeros_like(g)
        for a in range(3):
            d, _ = metric_derivative(three_identical_09, a)
            acc = acc + three_identical_09.zeta[a] * d
        k = np.arange(g.shape[0])
        pred = (k[None, :] + 1.0 - total) * g
        assert np.abs(acc - pred).max() < 1e-6 * np.abs(g).max()

    def test_against_closed_form_derivative(self):
        # independent oracle: high-order finite differences of the
        # elliptic-integral closed form at a much smaller step
        u = 0.42 + 0.37j
        vc = validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5]))
        d, _ = metric_derivative(vc, 2)
        h = 2e-4

        def f(z):
            return metric_half_fluxes(z)

        def deriv6(g, x0, h):
            return (45 * (g(x0 + h) - g(x0 - h)) - 9 * (g(x0 + 2 * h) - g(x0 - 2 * h))
                    + (g(x0 + 3 * h) - g(x0 - 3 * h))) / (60 * h)

        dx = deriv6(lambda s: f(u + s), 0.0, h)
        dy = deriv6(lambda s: f(u + 1j * s), 0.0, h)
        ref = 0.5 * (dx - 1j * dy)
        assert abs(d[0, 0] - ref) < 1e-6 * abs(ref)


class TestConnection:
    def test_pure_gauge_when_maximal(self, three_identical_09):
        # D_f = N - 1: A_a must equal Psi_sq^{-1} d_a Psi_sq
        A = connection(three_identical_09)
        h = 1e-5
        base = three_identical_09.zeta
        fluxes = three_identical_09.config.fluxes

        def psi_sq(positions):
            vc = validate(FluxConfig(positions, fluxes))
            p = primitive_matrix(vc, tol=1e-12)
            back = np.empty_like(p.matrix)
            back[list(p.order)] = p.matrix
            return back[:2, :]

        for a in range(3):
            def shift(dz):
                z = base.copy()
                z[a] += dz
                return psi_sq(z)
            dx = (shift(h) - shift(-h)) / (2 * h)
            dy = (shift(1j * h) - shift(-1j * h)) / (2 * h)
            dpsi = 0.5 * (dx - 1j * dy)
            ref = np.linalg.solve(psi_sq(base), dpsi)
            assert np.abs(A[a] - ref).max() < 1e-6 * max(1.0, np.abs(ref).max())


class TestParallelTransport:
    def test_constant_path_leaves_coefficients(self, two_fluxon):
        path = ControlPath.segment(two_fluxon.zeta, 0, two_fluxon.zeta[0])
        p1, info = parallel_transport(two_fluxon, path, ModeVector([1.0]),
                                      ode_tol=1e-8)
        assert abs(p1[0] - 1.0) < 1e-12
        assert info["norm_drift"] < 1e-10

    def test_norm_conserved_on_loop(self, two_fluxon):
        loop = ControlPath.circle(two_fluxon, mover=0, center=two_fluxon.zeta[1])
        p1, info = parallel_transport(two_fluxon, loop, ModeVector([1.0 + 0.5j]),
                                      ode_tol=1e-7)
        assert info["norm_drift"] < 10 * 1e-7

    def test_collision_guard(self, two_fluxon):
        path = ControlPath.segment(two_fluxon.zeta, 0,
                                   two_fluxon.zeta[1] - 1e-4)
        with pytest.raises(CollisionGuardTripped):
            parallel_transport(two_fluxon, path, ModeVector([1.0]), ode_tol=1e-6)

    def test_collision_guard_at_a_joint(self, two_fluxon):
        # the closest approach, 1e-4 from fluxon 1, is the joint of a closed
        # two-segment path; Gauss nodes lie inside a step, so the guard is
        # also checked at each step's end
        there = ControlPath.segment(two_fluxon.zeta, 0, two_fluxon.zeta[1] - 1e-4)
        loop = there.then(ControlPath.segment(there.end, 0, two_fluxon.zeta[0]))
        assert loop.is_closed(two_fluxon.config.fluxes)
        with pytest.raises(CollisionGuardTripped):
            holonomy(two_fluxon, loop)
        # a step over the last half of the first segment keeps its nodes
        # 0.024 or more from fluxon 1 (the guard is 0.0104); its end trips
        prob = transport._TransportProblem(two_fluxon, loop, 1e-10, None)
        with pytest.raises(CollisionGuardTripped, match="t = 0.5000"):
            prob.propagators(np.array([0]), np.array([0.5]), np.array([1.0]))


class TestHolonomy:
    def test_open_path_rejected(self, two_fluxon):
        path = ControlPath.segment(two_fluxon.zeta, 0, -2.0)
        with pytest.raises(ClosedPathRequired):
            holonomy(two_fluxon, path)

    def test_reparameterization_invariance(self, two_fluxon):
        center = two_fluxon.zeta[1]
        base = two_fluxon.zeta
        r0 = base[0] - center
        circle = ControlPath.circle(two_fluxon, mover=0, center=center)

        def pos(s):
            w = s - 0.25 * math.sin(2 * math.pi * s) / math.pi
            z = base.copy()
            z[0] = center + r0 * np.exp(2j * np.pi * w)
            return z

        def vel(s):
            w = s - 0.25 * math.sin(2 * math.pi * s) / math.pi
            dw = 1.0 - 0.5 * math.cos(2 * math.pi * s)
            z = np.zeros(2, dtype=complex)
            z[0] = 2j * np.pi * dw * r0 * np.exp(2j * np.pi * w)
            return z

        warped = ControlPath.parametric(pos, vel, base, base)
        u1 = holonomy(two_fluxon, circle, ode_tol=1e-7).u
        u2 = holonomy(two_fluxon, warped, ode_tol=1e-7).u
        assert np.abs(u1 - u2).max() < 1e-5

    def test_encircling_a_tight_pair_sees_combined_flux(self):
        # a loop around two nearby fluxons approaches the topological
        # phase 2 pi (Phi_T - 1) of the merged fluxon as the pair tightens
        gaps = {}
        for d in (0.5, 0.02):
            pos = [-d / 2, d / 2, 2.0 * np.exp(0.3j)]
            vc = validate(FluxConfig(pos, [0.4, 0.45, 0.65]))
            loop = ControlPath.circle(vc, mover=2, center=0.0)
            res = holonomy(vc, loop, ode_tol=1e-7, collision_guard=1e-4)
            gaps[d] = abs(math.remainder(float(np.angle(res.u[0, 0])) - math.pi,
                                         2 * math.pi))
        assert gaps[0.02] < gaps[0.5]
        assert gaps[0.02] < 0.15

    def test_near_tie_start(self):
        # imaginary parts 1.5e-8 apart: the transport starts in the
        # best-separated rotation frame, so the near tie costs nothing and
        # the holonomy matches the same loop started off the tie
        results = []
        for dy in (1.5e-8, 1e-5):
            vc = validate(FluxConfig([0.0, 0.6 + 1j * dy, -0.4 + 1.1j], [0.87, 0.82, 0.2]))
            results.append(holonomy(vc, ControlPath.circle(vc, mover=2, center=0.3),
                                    quad_tol=1e-11))
        assert results[0].norm_drift < 1e-7
        assert np.abs(results[0].u - results[1].u).max() < 1e-6

    def test_composition(self, two_fluxon):
        center = two_fluxon.zeta[1]
        one = ControlPath.circle(two_fluxon, mover=0, center=center, turns=1)
        two = ControlPath.circle(two_fluxon, mover=0, center=center, turns=2)
        u1 = holonomy(two_fluxon, one, ode_tol=1e-7).u
        u2 = holonomy(two_fluxon, two, ode_tol=1e-7).u
        u3 = holonomy(two_fluxon, one.then(two), ode_tol=1e-7).u
        assert np.abs(u2 @ u1 - u3).max() < 3e-5


class TestCurvature:
    def test_two_fluxon_curvature_vanishes(self):
        assert_within_tolerance(check_flat_curvature())

    def test_half_flux_closed_form_cross_check(self):
        u = 0.35 + 0.45j
        vc = validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5]))
        r_engine = curvature_abelian(vc, moving=2)
        r_closed = curvature_abelian(vc, moving=2,
                                     metric_fn=lambda z: metric_half_fluxes(z[2]))
        assert abs(r_engine - r_closed) < 1e-4 * max(1.0, abs(r_closed))
        assert abs(r_closed) > 1e-3  # genuinely curved

    def test_map_accuracy_pin(self):
        # a half-flux grid at (0, 1, u) with cells just outside the map's
        # guard (1e-2 x the diameter) next to both fixed fluxons: the one
        # contour quadrature per cell, continued to the stencil, against
        # the stencil on the closed form and on five factorized metrics
        fluxes = [0.5, 0.5, 0.5]
        cells = [complex(x, y) for x in (-0.4, 0.1, 0.5, 0.9, 1.4) for y in (0.2, 0.7, 1.3)]
        cells += [0.012j, 0.009 + 0.009j, 1.0 + 0.012j, 0.991 + 0.008j, 0.5 + 0.012j]
        vcs = [validate(FluxConfig([0.0, 1.0, u], fluxes)) for u in cells]
        assert min(min(abs(u), abs(u - 1.0)) / vc.diameter for u, vc in zip(cells, vcs)) < 0.012
        values = transport.curvature_abelians(vcs[0], [vc.zeta for vc in vcs], 2, quad_tol=1e-8)
        five = factorized_metric(fluxes, tol=1e-8)
        for vc, r in zip(vcs, values):
            for metric_fn in (lambda z: metric_half_fluxes(z[2]), lambda z: five(z)[0, 0].real):
                ref = curvature_abelian(vc, moving=2, metric_fn=metric_fn)
                assert abs(r - ref) <= 1e-7 * abs(ref)

    def test_map_matches_the_exact_stencil(self):
        # the map sums log(g_k / g) from the change of Psi over each step,
        # so against the same stencil on the closed form in 40 digits it
        # errs at the quadrature's level (measured 6e-12 relative); the
        # stencil on five rounded metrics, the closed form's included, errs
        # by about 2e-8 relative
        cells = [-0.4 + 0.2j, 0.35 + 0.45j, 0.9 + 1.3j, 1.4 + 0.7j]
        vcs = [validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5])) for u in cells]
        values = transport.curvature_abelians(vcs[0], [vc.zeta for vc in vcs], 2, quad_tol=1e-8)

        def log_g(u):
            return mpmath.log(8 * mpmath.re(mpmath.ellipk(u) * mpmath.conj(mpmath.ellipk(1 - u))))

        with mpmath.workdps(40):
            for vc, u, r in zip(vcs, cells, values):
                h = float(transport._stencil_steps(vc, vc.zeta[None])[0][0])
                centre = mpmath.mpc(u.real, u.imag)
                ring = sum(log_g(centre + mpmath.mpf(h) * move) for move in (1, -1, 1j, -1j))
                exact = float((ring - 4 * log_g(centre)) / (4 * mpmath.mpf(h) ** 2))
                assert abs(r - exact) <= 1e-10 * abs(exact)

    def test_map_makes_one_contour_quadrature_per_cell(self, monkeypatch):
        # the four off-centre stencil metrics are continued from the
        # centre's contour matrix, not integrated again
        calls = []
        frames = transport._contour_frames

        def counted(vc, zetas, tol, columns=None):
            calls.append(len(zetas))
            return frames(vc, zetas, tol, columns)

        monkeypatch.setattr(transport, "_contour_frames", counted)
        vc = validate(FluxConfig([0.0, 1.0, 0.3 + 0.4j], [0.5, 0.5, 0.5]))
        zetas = [[0.0, 1.0, u] for u in (0.3 + 0.4j, 0.6 + 0.9j, -0.2 + 0.5j)]
        transport.curvature_abelians(vc, zetas, 2, quad_tol=1e-8)
        assert calls == [3]

    def test_flat_when_maximal(self, three_identical_09):
        R = curvature_nonabelian(three_identical_09, pairs=[(0, 0), (1, 1)])
        for mat in R.values():
            assert np.abs(mat).max() < 1e-4

    def test_reduces_to_abelian(self):
        u = 0.35 + 0.45j
        vc = validate(FluxConfig([0.0, 1.0 + 0.2j, u], [0.5, 0.5, 0.5]))
        r_ab = curvature_abelian(vc, moving=2)
        r_na = curvature_nonabelian(vc, pairs=[(2, 2)])[(2, 2)]
        assert r_na.shape == (1, 1)
        assert abs(r_na[0, 0] - r_ab) < 1e-5 * max(1.0, abs(r_ab))



# -- the stepper against scipy's DOP853 -----------------------------------------

def dop853_transport(vc, path, quad_tol=1e-10, rtol=1e-12):
    """U(1) by the independent route: the full (Psi, U) system,
    dPsi/dt = Psi A^T and dU/dt = -g^{-1} Psi_f^* G (dPsi_f/dt) U, with
    scipy's DOP853 at rtol = atol (1e-12 by default), from the same
    contour frame."""
    psi, G, _ = _contour_frame(vc, quad_tol)
    psi0 = psi / np.abs(psi).max()
    f, n = vc.counts.D_f, psi0.size

    def rhs(t, y):
        p = y[:n].reshape(psi0.shape)
        dp = p @ np.einsum("a,akj->jk", path.velocity(t),
                           _gauss_manin(path.position(t), vc.phi_reduced))
        left = p[:, :f].conj().T @ G
        du = -np.linalg.solve(left @ p[:, :f], left @ dp[:, :f] @ y[n:].reshape(f, f))
        return np.concatenate([dp.ravel(), du.ravel()])

    y0 = np.concatenate([psi0.ravel(), np.eye(f, dtype=complex).ravel()])
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=rtol)
    assert sol.success
    return sol.y[n:, -1].reshape(f, f)


def _word_loop(positions, fluxes, move):
    vc = validate(FluxConfig(positions, fluxes))
    return vc, word_to_path(vc, BraidWord.from_json({"moves": [move]}))


def _rotation_loop():
    vc = validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))
    return vc, ControlPath.rotation(vc, center=0.15 + 0.5j)


def _half_flux_circle(r):
    vc = validate(FluxConfig([0.0, 1.0, 1.0 + 1j * r], [0.5, 0.5, 0.5]))
    return vc, ControlPath.circle(vc, mover=2, center=1.0)


def _ellipse_loop():
    """Criterion 7's eccentric ellipse of fluxon 0 around fluxon 1, not
    centred on it: two fluxons, so the generator commutes with itself."""
    vc = validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))
    ec = vc.zeta[1] + (-0.15 + 0.25j)
    w = vc.zeta[0] - ec
    eb = abs(w.imag) * 1.35
    ea = abs(w.real) / math.sqrt(1.0 - (w.imag / eb) ** 2)
    th0 = math.atan2(w.imag / eb, w.real / ea)

    def pos(s):
        z = vc.zeta.copy()
        th = th0 + 2 * math.pi * s
        z[0] = ec + ea * math.cos(th) + 1j * eb * math.sin(th)
        return z

    def vel(s):
        v = np.zeros(2, dtype=complex)
        th = th0 + 2 * math.pi * s
        v[0] = 2 * math.pi * (-ea * math.sin(th) + 1j * eb * math.cos(th))
        return v

    return vc, ControlPath.parametric(pos, vel, vc.zeta, vc.zeta)


def _two_free_modes_circle():
    vc = validate(FluxConfig([0.0, 1.0 + 0.2j, 0.4 + 1.1j, -0.7 + 0.8j], [0.6] * 4))
    assert vc.counts.D_f == 2 < vc.n_fluxons - 1
    return vc, ControlPath.circle(vc, mover=2, center=vc.zeta[2] - 0.25j)


TRIPLE = ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.9, 0.9])
ORACLE_LOOPS = {
    # topological (D_f = N - 1): only Psi is integrated
    "encircle": lambda: _word_loop(*TRIPLE, {"encircle": [0, 1]}),
    "exchange": lambda: _word_loop(*TRIPLE, {"exchange": 1}),
    "rotation": _rotation_loop,
    "c7-ellipse": _ellipse_loop,
    # non-topological: U advances with Psi
    "c10-r0.25": lambda: _half_flux_circle(0.25),
    "c10-r0.45": lambda: _half_flux_circle(0.45),
    "n4-two-free-modes": _two_free_modes_circle,
}
_ORACLE = {}


@pytest.mark.parametrize("ode_tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("name", list(ORACLE_LOOPS))
def test_stepper_matches_dop853(name, ode_tol):
    # the transported coefficients agree with the oracle to ode_tol; the
    # oracle's own error, at 1e-12, is far below the smallest bound
    vc, loop = ORACLE_LOOPS[name]()
    if name not in _ORACLE:
        _ORACLE[name] = dop853_transport(vc, loop)
    res = holonomy(vc, loop, ode_tol=ode_tol)
    assert np.abs(res.u - _ORACLE[name]).max() <= ode_tol


@pytest.mark.parametrize("stages", [(3,), (transport._STAGES, transport._STAGES - 1)],
                         ids=["map", "step"])
def test_batched_collocation_rows_equal_single_calls(stages):
    # the curvature map steps a batch of cells and directions at once, and
    # a map row must not depend on the rest of its batch; y0 broadcasts
    # against the batch
    rule = transport._rules(*stages)
    rng = np.random.default_rng(5)
    for n, m, scale in ((1, 1, 0.2), (3, 2, 1e-3), (2, 3, 0.5), (4, 4, 3.0)):
        b = scale * (rng.normal(size=(3, 2, len(rule[0]), m, m))
                     + 1j * rng.normal(size=(3, 2, len(rule[0]), m, m)))
        y0 = rng.normal(size=(3, 1, n, m)) + 1j * rng.normal(size=(3, 1, n, m))
        batched = transport._collocate(y0, b, 0.3, rule)
        for i, j in np.ndindex(3, 2):
            single = transport._collocate(y0[i, 0], b[i, j], 0.3, rule)
            for whole, row in zip(batched, single):
                assert np.array_equal(whole[i, j], row)


class TestStepper:
    @pytest.mark.parametrize("ode_tol", [0.0, -1e-8, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, two_fluxon, ode_tol):
        loop = ControlPath.circle(two_fluxon, mover=0, center=two_fluxon.zeta[1])
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="ode_tol"):
            holonomy(two_fluxon, loop, ode_tol=ode_tol)
        with pytest.raises(ValueError, match="ode_tol"):
            parallel_transport(two_fluxon, loop, [1.0], ode_tol=ode_tol)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("name", ["encircle", "c7-ellipse", "c10-r0.25"])
    def test_tolerance_below_roundoff_underflows(self, name):
        # the estimate never reads below the rounding of the Gauss-Manin
        # matrices, so the transport gives up at once, before any step
        vc, loop = ORACLE_LOOPS[name]()
        t0 = time.perf_counter()
        with pytest.raises(ODEStepUnderflow):
            holonomy(vc, loop, ode_tol=1e-18)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("ode_tol", [1e-13, 2e-13, 5e-13])
    @pytest.mark.parametrize("name", ["encircle", "c7-ellipse", "c10-r0.25"])
    def test_tolerance_near_roundoff_holds_or_refuses(self, name, ode_tol):
        # near the round-off floor the table either converges to ode_tol or
        # refuses at once, never doubling itself round after round; the
        # oracle runs at 3e-14 (measured within 2.2e-14 of DOP853 at 1e-14),
        # since at its default 1e-12 it is itself off by up to 4.3e-13
        vc, loop = ORACLE_LOOPS[name]()
        t0 = time.perf_counter()
        try:
            res = holonomy(vc, loop, ode_tol=ode_tol)
        except ODEStepUnderflow:
            assert time.perf_counter() - t0 < 1.0
            return
        oracle = dop853_transport(vc, loop, rtol=3e-14)
        assert np.abs(res.u - oracle).max() <= ode_tol

    def test_estimates_bisection_cannot_lower_refuse(self, monkeypatch):
        # estimates at round-off do not fall when a step is bisected; two
        # halves that read no lower than their step stop the table in the
        # second round instead of doubling it until the depth floor (raised
        # here to 1e-3, so that a table without the rule stops at 1024 steps)
        vc, loop = ORACLE_LOOPS["encircle"]()
        monkeypatch.setattr(transport, "_relative", lambda x, scale: np.full(len(x), 1e-9))
        monkeypatch.setattr(transport, "_MIN_STEP", 1e-3)
        prob = transport._TransportProblem(vc, loop, 1e-10, None)
        with pytest.raises(ODEStepUnderflow, match="no longer lowers"):
            prob.solve(1e-9)
        assert prob.nfev == 9 * 3

    def test_depth_floor_refuses(self, monkeypatch):
        # the encircle loop needs steps of 1/64 at 1e-8; a floor of 0.05
        # stops it when a failing step of 1/16 would be halved
        vc, loop = ORACLE_LOOPS["encircle"]()
        monkeypatch.setattr(transport, "_MIN_STEP", 0.05)
        with pytest.raises(ODEStepUnderflow, match="below 0.05 of a segment"):
            holonomy(vc, loop, ode_tol=1e-8)

    @pytest.mark.parametrize("ode_tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("fluxes", [[0.9, 0.9, 0.9], [0.5, 0.5, 0.5]], ids=["flat", "u"])
    @pytest.mark.parametrize("name", ["then", "parametric"])
    def test_step_table_invariants(self, name, fluxes, ode_tol, monkeypatch):
        # the final table tiles every segment exactly and in path order,
        # every step's estimate is within the bound, nfev counts nine nodes
        # per attempted step, and n_steps is the table's size; the
        # two-segment path's batches cross its joint, and the parametric
        # segment takes its states node by node
        vc = validate(FluxConfig(BASE, fluxes))
        if name == "then":
            # PATHS' circle runs through fluxon 1; this one keeps 0.28 away
            first = ControlPath.segment(BASE, 2, 1.0 + 2.0j)
            path = first.then(ControlPath.circle(first.end, 0, 0.3 + 0.3j))
        else:
            path = PATHS[name]()
        prob = transport._TransportProblem(vc, path, 1e-10, None)
        batches = []
        propagators = prob.propagators

        def counted(seg, lo, hi):
            batches.append(seg.copy())
            return propagators(seg, lo, hi)

        monkeypatch.setattr(prob, "propagators", counted)
        prob.solve(ode_tol)
        table = prob.table
        assert np.all(np.diff(table["seg"]) >= 0)
        for index in range(len(path.segments)):
            lo, hi = (table[key][table["seg"] == index] for key in ("lo", "hi"))
            assert lo[0] == 0.0 and hi[-1] == 1.0 and np.array_equal(lo[1:], hi[:-1])
        assert np.all(table["err"] <= transport._LOCAL_SHARE * ode_tol)
        assert prob.nfev == 9 * sum(len(seg) for seg in batches)
        assert prob.n_steps == len(table["seg"]) > len(path.segments)
        if len(path.segments) == 2:
            assert np.array_equal(batches[0], [0, 1])
            assert any(len(set(seg.tolist())) == 2 for seg in batches[1:])

    @pytest.mark.parametrize("name, steps", [("encircle", (32, 64)), ("c10-r0.25", (6, 12))])
    def test_order_at_fixed_steps(self, name, steps):
        # halving a fixed step divides the error of U(1) by at least
        # 2^(2s - 1), at step counts where the error is far above rounding
        # (encircle passes close to fluxon 1 and needs the finer steps); the
        # reference is the same stepper at 256 steps.  Around a whole loop
        # the error falls faster than h^(2s) at these steps, so this catches
        # a wrong coefficient, not a lower order: the step ceilings below do
        vc, loop = ORACLE_LOOPS[name]()

        def fixed(n):
            prob = transport._TransportProblem(vc, loop, 1e-10, None)
            change, _, stages, slopes = prob.propagators(
                np.zeros(n, dtype=int), np.arange(n) / n, np.arange(1, n + 1) / n)
            starts, psi = transport._chain(prob.psi0, change)
            if prob.flat:
                return np.linalg.solve(psi[:-1], prob.psi0[:-1])
            u_change = prob.coefficient_propagators(starts, stages, slopes)[0]
            return transport._chain(np.eye(prob.dim, dtype=complex), u_change)[1].T

        ref = fixed(256)
        coarse, fine = (np.abs(fixed(n) - ref).max() for n in steps)
        assert fine > 1e3 * np.finfo(float).eps
        assert coarse >= 2.0 ** (2 * transport._STAGES - 1) * fine

    @pytest.mark.parametrize("name, ceiling", [("encircle", 40), ("exchange", 16),
                                               ("c10-r0.25", 20), ("rotation", 8)])
    def test_accepted_steps_at_default_tolerance(self, name, ceiling):
        # ceilings set with the 10th-order step, which took 22, 9, 11 and 6
        vc, loop = ORACLE_LOOPS[name]()
        assert holonomy(vc, loop, ode_tol=1e-8).n_steps <= ceiling

    def test_counters_repeat_exactly(self, three_identical_09):
        # the benchmark digest hashes nfev and n_steps; nfev counts the
        # Gauss-Manin node evaluations, at least three per accepted step
        loop = word_to_path(three_identical_09,
                            BraidWord.from_json({"moves": [{"encircle": [0, 1]}]}))
        first, second = (holonomy(three_identical_09, loop) for _ in range(2))
        assert (first.nfev, first.n_steps) == (second.nfev, second.n_steps)
        assert np.array_equal(first.u, second.u)
        assert first.n_steps > 0 and first.nfev >= 3 * first.n_steps
        infos = [parallel_transport(three_identical_09, loop, [1.0, 0.5])[1]
                 for _ in range(2)]
        assert infos[0]["nfev"] == infos[1]["nfev"] >= 3 * infos[0]["n_steps"] > 0
        assert infos[0]["n_steps"] == infos[1]["n_steps"]
