import math

import numpy as np
import pytest

from fluxholo import (
    FluxConfig,
    coupling_matrix,
    metric_bruteforce,
    metric_factorized,
    metric_half_fluxes,
    primitive_matrix,
    validate,
)
from fluxholo import metric as metric_module
from fluxholo.errors import AmbiguousOrdering, NoFreeModes, ThresholdSingularity
from fluxholo.cli import check_metric_laws, check_metric_oracle, worst_residuals
from conftest import assert_within_tolerance, factorized_metric


class TestCouplingMatrix:
    def test_two_identical_fluxes_closed_form(self):
        # direct evaluation for N = 2 equal fluxes:
        # G = (tan(pi phi) / 2) [[-1, 1], [1, -1]]
        for phi in (0.3, 0.6, 0.75, 0.9):
            G = coupling_matrix([phi, phi])
            c = 0.5 * math.tan(math.pi * phi)
            ref = c * np.array([[-1.0, 1.0], [1.0, -1.0]])
            assert np.abs(G - ref).max() < 1e-13 * max(abs(c), 1.0)
            ev = np.linalg.eigvalsh(G)
            assert abs(ev[0] - min(0.0, -2 * c)) < 1e-12
            if 0.5 < phi < 1.0:
                assert ev.max() > 0  # one positive eigenvalue, D_f = 1

    def test_toeplitz_for_identical_fluxes(self):
        G = coupling_matrix([0.9, 0.9, 0.9, 0.9])
        for k in range(1, 4):
            diag = np.diag(G, k)
            assert np.abs(diag - diag[0]).max() < 1e-14

    def test_three_identical_09_signature(self):
        ev = np.linalg.eigvalsh(coupling_matrix([0.9, 0.9, 0.9]))
        assert int((ev > 1e-10).sum()) == 2

    def test_threshold_rejected(self):
        with pytest.raises(ThresholdSingularity):
            coupling_matrix([0.5, 0.5])


class TestPrimitiveMatrix:
    def test_last_row_vanishes_in_fluxon_gauge(self, three_distinct):
        psi = primitive_matrix(three_distinct)
        assert np.all(psi.matrix[-1] == 0)

    def test_column_constant_freedom(self, three_distinct):
        # adding a constant to each column must not move the metric
        psi = primitive_matrix(three_distinct, tol=1e-12)
        G = coupling_matrix(psi.fluxes)
        g0 = psi.matrix.conj().T @ G @ psi.matrix
        shifted = psi.matrix + (0.7 - 0.3j) * np.ones_like(psi.matrix)
        g1 = shifted.conj().T @ G @ shifted
        assert np.abs(g0 - g1).max() < 1e-10 * np.abs(g0).max()

    def test_ambiguous_ordering_propagates(self):
        vc = validate(FluxConfig([0.0, 1.0, 0.5 + 1.0j], [0.5, 0.6, 0.7]))
        with pytest.raises(AmbiguousOrdering):
            primitive_matrix(vc)


class TestContourWork:
    def test_generic_metric_takes_few_integrand_calls(self, monkeypatch):
        # all 2N - 1 legs share one panel queue, so a metric costs one
        # integrand call per refinement round, not one per leg, panel and
        # rule (about 170 at N = 8)
        integrate = metric_module.integrate_panels
        calls = []

        def counting(f, *args, **kwargs):
            def integrand(t):
                calls[-1] += 1
                return f(t)
            return integrate(integrand, *args, **kwargs)

        monkeypatch.setattr(metric_module, "integrate_panels", counting)
        rng = np.random.default_rng(8)
        while len(calls) < 20:
            z = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
            fluxes = rng.uniform(0.1, 0.9, 8)
            sep = np.abs(z[:, None] - z[None, :]) + np.eye(8)
            if sep.min() < 0.25 or not 0.1 < fluxes.sum() % 1.0 < 0.9:
                continue
            calls.append(0)
            metric_factorized(validate(FluxConfig(z, fluxes)), tol=1e-10, auto_rotate=True)
        assert max(calls) <= 16, calls


class TestBatchedFrames:
    # fluxes [0.4, 0.5, 0.6, 0.7]: D_f = 2, every fluxon a branch point
    FLUXES = [0.4, 0.5, 0.6, 0.7]
    POSITIONS = [
        [0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 0.9j],
        [0.0, 1.0, 0.5 + 1.0j, -0.5 + 1.0j],          # two exact ties
        [0.0, 0.6 + 1.5e-8j, -0.4 + 1.1j, 0.7 + 0.8j],  # a near tie
        [0.0, 1e-3 * (1 + 1j), 0.9 - 0.3j, 0.2 + 1.2j],  # a tight pair refines
    ]

    def test_contour_frame_is_its_row_in_any_batch(self):
        vcs = [validate(FluxConfig(pos, self.FLUXES)) for pos in self.POSITIONS]
        alone = [metric_module._contour_frame(vc, 1e-12) for vc in vcs]
        for batch in (vcs, vcs[::-1], vcs + vcs):
            psi, G, err = metric_module._contour_frames(batch, 1e-12)
            for b, vc in enumerate(batch):
                one = alone[vcs.index(vc)]
                assert np.array_equal(psi[b], one[0])
                assert np.array_equal(G[b], one[1])
                assert err[b] == one[2]

    def test_batch_needs_one_flux_assignment(self):
        vcs = [validate(FluxConfig(self.POSITIONS[0], f))
               for f in (self.FLUXES, [0.4, 0.5, 0.6, 0.8])]
        with pytest.raises(ValueError):
            metric_module._contour_frames(vcs, 1e-10)

    def test_integrand_and_breakpoints_keep_the_tracer_contract(self, monkeypatch):
        # a benchmark tracer wraps integrate_panels with a one-argument
        # integrand, counts nodes as len() of its argument and reads the
        # breakpoints as flat floats on the stacked axis t = leg + s
        integrate = metric_module.integrate_panels
        seen = {}

        def recording(f, tol, *, breakpoints, legs):
            seen.update(breakpoints=breakpoints, legs=legs, shapes=[])

            def integrand(ts):
                seen["shapes"].append((len(ts), ts.shape))
                return f(ts)
            return integrate(integrand, tol, breakpoints=breakpoints, legs=legs)

        monkeypatch.setattr(metric_module, "integrate_panels", recording)
        vc = validate(FluxConfig(self.POSITIONS[0], self.FLUXES))
        metric_factorized(vc, tol=1e-10)
        assert seen["legs"] == 7
        assert isinstance(seen["breakpoints"], list) and seen["breakpoints"]
        for b in seen["breakpoints"]:
            assert type(b) is float and 0.0 < b < seen["legs"]
            assert (b - math.floor(b)) * 2.0 ** 32 == round((b - math.floor(b)) * 2.0 ** 32)
        assert all(shape == (n, 2) for n, shape in seen["shapes"])


# the unjittered N = 3, 4 and 6 configurations of the cli-session benchmark
BRUTE_FORCE_BASE = [
    ([0.0, 0.9 + 0.7j, 0.2 + 1.9j], [0.4, 0.5, 0.6]),
    ([0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 0.9j], [0.45, 0.55, 0.35, 0.6]),
    ([0.0, 1.2 + 0.3j, 0.5 + 1.4j, -0.9 + 0.8j, 1.4 + 1.9j, -0.3 + 2.6j],
     [0.3, 0.45, 0.35, 0.5, 0.4, 0.25]),
]


class TestBruteForceWork:
    def test_bump_runs_only_on_its_ring(self, monkeypatch):
        # each bump is exactly 1 inside r_in and 0 outside r_out, so the
        # smooth step is evaluated only strictly between the two radii
        bump = metric_module._bump
        seen = []

        def recording(t):
            seen.append(np.ravel(t))
            return bump(t)

        monkeypatch.setattr(metric_module, "_bump", recording)
        rng = np.random.default_rng(6)
        pos, fluxes = BRUTE_FORCE_BASE[2]
        pos = np.array(pos) + 0.02 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        metric_bruteforce(validate(FluxConfig(pos, fluxes)), tol=1e-7)
        t = np.concatenate(seen)
        assert t.size > 0
        assert t.min() > 0.0 and t.max() < 1.0

    def test_refinement_schedule(self, monkeypatch):
        # the same grids give the same freeze/stop schedule: the number of
        # middle-piece evaluations at the CLI tolerance is pinned
        middle = metric_module._BruteForce.middle_piece
        calls = []

        def counting(self, *args):
            calls[-1] += 1
            return middle(self, *args)

        monkeypatch.setattr(metric_module._BruteForce, "middle_piece", counting)
        for pos, fluxes in BRUTE_FORCE_BASE:
            calls.append(0)
            metric_bruteforce(validate(FluxConfig(pos, fluxes)), tol=1e-8)
        assert calls == [4, 4, 3]

    def test_error_estimate_bounds_the_error(self):
        # the estimate |level L - level L-1| bounds the coarser level, so
        # it overstates the error of the returned level (by about 400x)
        rng = np.random.default_rng(5)
        for _ in range(6):
            u = complex(rng.uniform(-0.6, 1.6), rng.uniform(0.4, 1.4))
            bf = metric_bruteforce(validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5])),
                                   tol=1e-7)
            ref = metric_half_fluxes(u)
            assert abs(bf.g[0, 0] - ref) <= bf.error_estimate + 1e-13 * ref

    @pytest.mark.parametrize("fluxes", [[0.999, 0.4, 0.3], [0.99, 0.7, 0.6],
                                        [0.9, 0.9, 0.9], [0.95, 0.4, 0.3]])
    def test_edge_flux_converges_within_its_estimate(self, fluxes):
        # near phi' = 1 the radial Jacobi weight r^(1 - 2 phi') nears 1 / r;
        # a rule whose moments missed there by 1e-6 stalled at relative
        # error 1e-9 on the first two and, on the last two, missed by more
        # than the reported estimate
        vc = validate(FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], fluxes))
        ref = metric_factorized(vc, tol=1e-12).g
        bf = metric_bruteforce(vc, tol=1e-10)
        assert np.abs(bf.g - ref).max() <= bf.error_estimate

    def test_error_estimate_scales_entry_by_entry(self):
        # each entry's level differences are scaled back to diameter 2.7 by
        # its own power of it; the summed maximum times the largest power
        # reported 2.6e-7, above tol x max|g| = 1.8e-7, on a converged run
        pos, fluxes = BRUTE_FORCE_BASE[2]
        vc = validate(FluxConfig(pos, fluxes))
        bf = metric_bruteforce(vc, tol=1e-8)
        ref = metric_factorized(vc, tol=1e-12).g
        assert np.abs(bf.g - ref).max() <= bf.error_estimate <= 1e-8 * np.abs(bf.g).max()


def two_fluxon_metric(fluxes, delta):
    """Closed form of g_00 for two fluxons a distance |delta| apart,
    pi gam(1 - phi1) gam(1 - phi2) gam(phi1 + phi2 - 1) |delta|^(2 - 2 phi_T)
    with gam(x) = Gamma(x) / Gamma(1 - x) (the Dotsenko-Fateev integral)."""
    def gam(x):
        return math.gamma(x) / math.gamma(1.0 - x)

    f1, f2 = fluxes
    return (math.pi * gam(1.0 - f1) * gam(1.0 - f2) * gam(f1 + f2 - 1.0)
            * abs(delta) ** (2.0 - 2.0 * (f1 + f2)))


FACTORIZED_OUT_OF_RANGE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4, extreme scales: the factorized metric at diameter 1e+-300")


class TestScaleLadder:
    # [0, s (1 + 1j)] with fluxes [0.5, 0.7]: g_00 scales as s^-0.4
    @pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_bruteforce_follows_the_scaling_law(self, s):
        # the grids are laid out at unit diameter; on grids at the
        # configuration's own scale, 1e150 gave g 31% low without a
        # warning and 1e-150 and 1e300 raised after overflow warnings
        vc = validate(FluxConfig([0.0, s * (1 + 1j)], [0.5, 0.7]))
        bf = metric_bruteforce(vc, tol=1e-8)
        assert abs(bf.g[0, 0] - two_fluxon_metric([0.5, 0.7], s * (1 + 1j))) <= bf.error_estimate

    @pytest.mark.parametrize("s", [pytest.param(1e-300, marks=FACTORIZED_OUT_OF_RANGE),
                                   1e-150, 1.0, 1e150,
                                   pytest.param(1e300, marks=FACTORIZED_OUT_OF_RANGE)])
    def test_factorized_follows_the_scaling_law(self, s):
        # 1e-300 raises after overflow warnings; 1e300 returns g 22% low
        # (1.93e-119 against 2.485e-119) without a warning
        vc = validate(FluxConfig([0.0, s * (1 + 1j)], [0.5, 0.7]))
        m = metric_factorized(vc)
        assert abs(m.g[0, 0] - two_fluxon_metric([0.5, 0.7], s * (1 + 1j))) <= m.error_estimate


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
        # randomized N in 2..6; the quadrature and the holomorphic
        # factorization are developed independently, so agreement pins both
        for n in (2, 3, 4, 5, 6):
            res = check_metric_oracle(rng, n, quad_tol=1e-9)
            assert res["bruteforce_vs_factorized"] < 5 * (1e-7 + 1e-9)

    def test_half_flux_closed_form(self):
        u = 0.35 + 0.55j
        vc = validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5]))
        bf = metric_bruteforce(vc, tol=1e-7)
        assert abs(bf.g[0, 0].real - metric_half_fluxes(u)) < 1e-6 * bf.g[0, 0].real

    def test_scaling_law(self, rng):
        # two of these N = 5 draws have D_f = 2, so the phases
        # lam^k conj(lam)^j of the law are exercised
        assert_within_tolerance(
            worst_residuals(lambda: check_metric_laws(rng, 5, quad_tol=1e-11), 3))

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

    @pytest.mark.parametrize("pos, fluxes", [
        ([0.0, 0.8 + 0.9j, -0.4 + 1.7j], [0.95, 0.3, 0.35]),
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.5, 0.99, 0.7]),
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.5, 0.995, 0.7]),
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.5, 0.9989, 0.7]),
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.5, 1.9989, 0.7]),
    ], ids=["phi0.95", "phi0.99", "phi0.995", "phi0.9989", "flux1.9989"])
    def test_near_critical_flux_still_converges(self, pos, fluxes):
        # phi' near 1 sharpens the endpoint singularity, up to the edge of
        # the validation band; both routes must still agree
        vc = validate(FluxConfig(pos, fluxes))
        bf = metric_bruteforce(vc, tol=1e-7)
        fac = metric_factorized(vc, tol=1e-9)
        assert np.abs(bf.g - fac.g).max() < 1e-5 * np.abs(bf.g).max()

    @pytest.mark.parametrize("pos, fluxes", [
        ([0.0, 0.15j, 5.0 + 3.0j], [0.6, 0.7, 0.55]),          # 30:1 scale contrast
        ([0.0, 0.08 + 0.03j, 1.5 + 1.0j], [0.6, 0.7, 0.55]),   # near-collision, heavy pair
        ([0.0, 0.9e-3 + 0.7e-3j, 0.2e-3 + 1.9e-3j], [0.4, 0.5, 0.6]),  # diameter 2e-3
        ([0.0, 0.9e-5 + 0.7e-5j, 0.2e-5 + 1.9e-5j], [0.4, 0.5, 0.6]),  # diameter 2e-5
        ([0.0, 0.9e5 + 0.7e5j, 0.2e5 + 1.9e5j], [0.4, 0.5, 0.6]),      # diameter 2e5
    ], ids=["pos0", "pos1", "pos2", "pos3", "pos4"])
    def test_hard_geometries(self, pos, fluxes):
        vc = validate(FluxConfig(pos, fluxes))
        bf = metric_bruteforce(vc, tol=1e-7)
        fac = metric_factorized(vc, tol=1e-9, auto_rotate=True)
        assert np.abs(bf.g - fac.g).max() < 1e-6 * np.abs(bf.g).max()

    @pytest.mark.parametrize("fluxes", [[0.0, 0.6, 0.7, 0.5], [-0.3, 0.8, 0.9, 0.7]],
                             ids=["zero", "negative"])
    def test_zero_and_negative_reduced_fluxes(self, fluxes):
        # phi' = 0 adds no log weight but keeps its bump; phi' < 0 makes
        # the weight vanish at the fluxon
        vc = validate(FluxConfig([0.0, 1.0, 0.3 + 0.9j, -0.5 + 0.6j], fluxes))
        bf = metric_bruteforce(vc, tol=1e-7)
        fac = metric_factorized(vc, tol=1e-10, auto_rotate=True)
        assert np.abs(bf.g - fac.g).max() < 1e-7 * np.abs(bf.g).max()

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
        ev = factorized_metric([0.7, 0.8], tol=1e-11)
        base = np.array([0.0, 1.0 + 0.0j])
        vals = []
        for dy in (-2e-3, -1e-3, 0.0, 1e-3, 2e-3):
            z = base.copy()
            z[1] = 1.0 + 1j * dy
            vals.append(float(np.real(ev(z)[0, 0])))
        second = np.diff(vals, 2).max()
        assert second < 1e-4 * max(vals)
