import math

import numpy as np
import pytest

from fluxholo import (
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
)
from fluxholo.cli import check_flat_curvature
from fluxholo.errors import (
    ClosedPathRequired,
    CollisionGuardTripped,
)
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

