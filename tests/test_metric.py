import math

import numpy as np
import pytest

from fluxholo import (
    FluxConfig,
    MetricEvaluator,
    coupling_matrix,
    metric_bruteforce,
    metric_factorized,
    metric_half_fluxes,
    primitive_matrix,
    validate,
)
from fluxholo.errors import AmbiguousOrdering, NoFreeModes, ThresholdSingularity
from conftest import random_subcritical_config

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestCouplingMatrix:
    def test_two_identical_fluxes_closed_form(self):
        # direct evaluation for N = 2 equal fluxes:
        # G = (tan(pi phi) / 2) [[-1, 1], [1, -1]]
        for phi in (0.3, 0.6, 0.75, 0.9):
            G = coupling_matrix([phi, phi]).G
            c = 0.5 * math.tan(math.pi * phi)
            ref = c * np.array([[-1.0, 1.0], [1.0, -1.0]])
            assert np.abs(G - ref).max() < 1e-13 * max(abs(c), 1.0)
            ev = np.linalg.eigvalsh(G)
            assert abs(ev[0] - min(0.0, -2 * c)) < 1e-12
            if 0.5 < phi < 1.0:
                assert ev.max() > 0  # one positive eigenvalue, D_f = 1

    def test_kernel_hermiticity_signature(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            while True:
                fluxes = rng.uniform(0.05, 0.95, n)
                if abs(fluxes.sum() - round(fluxes.sum())) > 5e-2:
                    break
            G = coupling_matrix(fluxes).G
            assert np.abs(G @ np.ones(n)).max() < 1e-12
            assert np.abs(G - G.conj().T).max() < 1e-12
            d_f = max(0, math.ceil(fluxes.sum()) - 1)
            assert int((np.linalg.eigvalsh(G) > 1e-10).sum()) == d_f

    def test_toeplitz_for_identical_fluxes(self):
        G = coupling_matrix([0.9, 0.9, 0.9, 0.9]).G
        for k in range(1, 4):
            diag = np.diag(G, k)
            assert np.abs(diag - diag[0]).max() < 1e-14

    def test_three_identical_09_signature(self):
        ev = np.linalg.eigvalsh(coupling_matrix([0.9, 0.9, 0.9]).G)
        assert int((ev > 1e-10).sum()) == 2

    def test_threshold_rejected(self):
        with pytest.raises(ThresholdSingularity):
            coupling_matrix([0.5, 0.5])


class TestPrimitiveMatrix:
    def test_last_row_vanishes_in_fluxon_gauge(self, three_distinct):
        psi = primitive_matrix(three_distinct, gauge="last")
        assert np.all(psi.matrix[-1] == 0)

    def test_column_constant_freedom(self, three_distinct):
        # adding a constant to each column must not move the metric
        psi = primitive_matrix(three_distinct, gauge="last", tol=1e-12)
        G = coupling_matrix(psi.fluxes).G
        g0 = psi.matrix.conj().T @ G @ psi.matrix
        shifted = psi.matrix + (0.7 - 0.3j) * np.ones_like(psi.matrix)
        g1 = shifted.conj().T @ G @ shifted
        assert np.abs(g0 - g1).max() < 1e-10 * np.abs(g0).max()

    def test_gauge_independence_of_metric(self, three_distinct):
        psi = primitive_matrix(three_distinct, gauge="last", tol=1e-12)
        G = coupling_matrix(psi.fluxes).G
        g0 = psi.matrix.conj().T @ G @ psi.matrix
        psi2 = primitive_matrix(three_distinct, gauge=-0.7 + 0.33j, tol=1e-12)
        g1 = psi2.matrix.conj().T @ G @ psi2.matrix
        assert np.abs(g0 - g1).max() < 1e-9 * np.abs(g0).max()

    def test_ambiguous_ordering_propagates(self):
        vc = validate(FluxConfig([0.0, 1.0, 0.5 + 1.0j], [0.5, 0.6, 0.7]))
        with pytest.raises(AmbiguousOrdering):
            primitive_matrix(vc)

    def test_fiducial_point_on_a_cut_blocked(self, three_distinct):
        # a fiducial point straight to the right of a fluxon sits on its cut
        from fluxholo.errors import PathBlocked
        bad = three_distinct.zeta[1] + 2.0
        with pytest.raises(PathBlocked):
            primitive_matrix(three_distinct, gauge=bad)


class TestFactorizedMetric:
    def test_hermitian_positive(self, three_identical_09):
        m = metric_factorized(three_identical_09, tol=1e-10)
        assert np.abs(m.g - m.g.conj().T).max() < 1e-10 * np.abs(m.g).max()
        assert np.linalg.eigvalsh(m.g).min() > 0

    def test_two_fluxon_positive_scalar(self):
        vc = validate(FluxConfig([0.0, 1j], [0.75, 0.75]))
        m = metric_factorized(vc)
        assert m.g.shape == (1, 1)
        assert m.g[0, 0].real > 0 and abs(m.g[0, 0].imag) < 1e-12 * m.g[0, 0].real

    def test_auto_rotation_matches_plain(self, three_distinct):
        # rotating by hand and de-rotating reproduces the direct evaluation
        g0 = metric_factorized(three_distinct, tol=1e-11).g
        vc = validate(FluxConfig([0.0, 1.0, 0.3 + 0.6j], three_distinct.config.fluxes))
        with pytest.raises(AmbiguousOrdering):
            metric_factorized(vc, auto_rotate=False)
        g1 = metric_factorized(vc, tol=1e-11, auto_rotate=True).g
        assert np.linalg.eigvalsh(g1).min() > 0

    def test_no_free_modes_refused(self):
        vc = validate(FluxConfig([0.0], [2.5]))
        with pytest.raises(NoFreeModes):
            metric_factorized(vc)
        vc2 = validate(FluxConfig([0.0, 1j, 1.0 + 2j], [1.5, 1.5, -1.4]),
                       strict=False)
        with pytest.raises(NoFreeModes):
            metric_factorized(vc2)


class TestOracleEquivalence:
    def test_bruteforce_matches_factorized(self, rng):
        # randomized N in 2..5; the quadrature and the holomorphic
        # factorization are developed independently, so agreement pins both
        for n in (2, 3, 4, 5):
            vc = random_subcritical_config(rng, n)
            bf = metric_bruteforce(vc, tol=1e-7)
            fac = metric_factorized(vc, tol=1e-9)
            scale = np.abs(bf.g).max()
            assert np.abs(bf.g - fac.g).max() < 5 * (1e-7 + 1e-9) * scale

    def test_half_flux_closed_form(self):
        u = 0.35 + 0.55j
        vc = validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5]))
        bf = metric_bruteforce(vc, tol=1e-7)
        assert abs(bf.g[0, 0].real - metric_half_fluxes(u)) < 1e-6 * bf.g[0, 0].real

    def test_scaling_law(self, rng, three_identical_09):
        g0 = metric_factorized(three_identical_09, tol=1e-11).g
        total = sum(three_identical_09.counts.phi_prime)
        for _ in range(3):
            lam = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            pos = [z * lam for z in three_identical_09.config.positions]
            vcs = validate(FluxConfig(pos, three_identical_09.config.fluxes))
            gs = metric_factorized(vcs, tol=1e-11, auto_rotate=True).g
            k = np.arange(g0.shape[0])
            pred = (lam ** k[None, :] * np.conj(lam) ** k[:, None]
                    * abs(lam) ** (2 * (1 - total)) * g0)
            assert np.abs(gs - pred).max() < 1e-8 * np.abs(gs).max()

    def test_supercritical_reduction(self):
        # free-mode block depends on the fluxes only through their reduced
        # parts: adding integer units to individual fluxons leaves it fixed
        pos = [0.0, 0.9 + 0.7j, 0.2 + 1.9j]
        g_sub = metric_factorized(validate(FluxConfig(pos, [0.4, 0.5, 0.6])),
                                  tol=1e-11).g
        vc_super = validate(FluxConfig(pos, [2.4, 0.5, 1.6]))
        assert vc_super.counts.D == 4 and vc_super.counts.D_f == 1
        g_super = metric_factorized(vc_super, tol=1e-11).g
        assert np.abs(g_super - g_sub).max() < 1e-10 * np.abs(g_sub).max()

    def test_near_critical_flux_still_converges(self):
        # phi' = 0.95 sharpens the endpoint singularity; both routes must
        # still agree
        vc = validate(FluxConfig([0.0, 0.8 + 0.9j, -0.4 + 1.7j],
                                 [0.95, 0.3, 0.35]))
        bf = metric_bruteforce(vc, tol=1e-7)
        fac = metric_factorized(vc, tol=1e-9)
        assert np.abs(bf.g - fac.g).max() < 1e-5 * np.abs(bf.g).max()

    @pytest.mark.parametrize("pos, fluxes", [
        ([0.0, 0.15j, 5.0 + 3.0j], [0.6, 0.7, 0.55]),          # 30:1 scale contrast
        ([0.0, 0.08 + 0.03j, 1.5 + 1.0j], [0.6, 0.7, 0.55]),   # near-collision, heavy pair
        ([0.0, 0.9e-3 + 0.7e-3j, 0.2e-3 + 1.9e-3j], [0.4, 0.5, 0.6]),  # diameter 2e-3
    ], ids=["pos0", "pos1", "pos2"])
    def test_hard_geometries(self, pos, fluxes):
        vc = validate(FluxConfig(pos, fluxes))
        bf = metric_bruteforce(vc, tol=1e-7)
        fac = metric_factorized(vc, tol=1e-9, auto_rotate=True)
        assert np.abs(bf.g - fac.g).max() < 1e-6 * np.abs(bf.g).max()

    def test_near_tie(self):
        # imaginary parts 1.5e-8 apart, just above the tie tolerance: the
        # rotated frame separates them, so the contour legs stay clear
        vc = validate(FluxConfig([0.0, 0.6 + 1.5e-8j, -0.4 + 1.1j], [0.87, 0.82, 0.59]))
        bf = metric_bruteforce(vc, tol=1e-7)
        fac = metric_factorized(vc, tol=1e-10)
        assert np.abs(bf.g - fac.g).max() < 1e-6 * np.abs(bf.g).max()

    def test_blowup_on_collision(self):
        # phi'_a + phi'_b >= 1: the scalar metric grows without bound as the
        # pair merges
        vals = []
        for d in (0.8, 0.4, 0.2, 0.1):
            vc = validate(FluxConfig([0.0, d * (0.6 + 0.8j), 2.0 + 1.2j],
                                     [0.6, 0.6, 0.35]))
            vals.append(metric_factorized(vc, tol=1e-9).g[0, 0].real)
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMetricEvaluator:
    def test_continuity_through_ambiguous_alignment(self):
        # sweeping a fluxon through an equal-Im alignment must stay smooth
        ev = MetricEvaluator([0.7, 0.8], tol=1e-11)
        base = np.array([0.0, 1.0 + 0.0j])
        vals = []
        for dy in (-2e-3, -1e-3, 0.0, 1e-3, 2e-3):
            z = base.copy()
            z[1] = 1.0 + 1j * dy
            vals.append(float(np.real(ev(z)[0, 0])))
        second = np.diff(vals, 2).max()
        assert second < 1e-4 * max(vals)
