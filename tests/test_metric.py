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
from fluxholo.config import IM_TIE_TOL, check_cut_gaps
from fluxholo.errors import (AmbiguousOrdering, FluxholoError, NoFreeModes,
                             QuadratureNotConverged, ThresholdSingularity)
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
        # all 2N - 2 arms share one panel queue, so a metric costs one
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
            zetas = np.array([vc.zeta for vc in batch])
            psi, G, err = metric_module._contour_frames(vcs[0], zetas, 1e-12)
            for b, vc in enumerate(batch):
                one = alone[vcs.index(vc)]
                assert np.array_equal(psi[b], one[0])
                assert np.array_equal(G[b], one[1])
                assert err[b] == one[2]

    def test_cut_order_comes_from_the_rotation_table(self):
        # the chosen row of the rotation table is the first of largest
        # smallest gap and is zetas * lambda bit for bit, its stable
        # argsort is the cut order, and the tie check accepts it: the best
        # rotation leaves no ties
        rng = np.random.default_rng(20)
        for n in (2, 3, 4, 5, 8):
            zetas = rng.normal(size=(24, n)) + 1j * rng.normal(size=(24, n))
            zetas[:4, 1] = zetas[:4, 0].real + 1j * zetas[:4, 1].imag   # same real part
            zetas[4:8, 1] = zetas[4:8, 0] + rng.normal(size=4)          # same imaginary part
            if n == 4:
                zetas[8:12] = self.POSITIONS
            picks, rotated, order, gaps = metric_module._best_rotations(zetas)
            table = zetas[:, None, :] * metric_module._ROTATIONS[:, None]
            smallest = np.diff(np.sort(table.imag, axis=2), axis=2).min(axis=2)
            assert np.array_equal(picks, np.argmax(smallest, axis=1))
            lam = metric_module._ROTATIONS[picks]
            assert rotated.tobytes() == (zetas * lam[:, None]).tobytes()
            diameters = np.abs(rotated[:, :, None] - rotated[:, None, :]).max(axis=(1, 2))
            im = rotated.imag
            assert np.array_equal(order, np.argsort(im, axis=1, kind="stable"))
            check_cut_gaps(im, order, np.diff(np.take_along_axis(im, order, axis=1), axis=1),
                           diameters)
            assert np.array_equal(gaps, np.diff(np.sort(rotated.imag, axis=1), axis=1))

    def test_cut_order_from_the_table_rejects_ties(self, monkeypatch):
        # with the identity as the only rotation the given imaginary parts
        # are the chosen row's: an exact tie and a gap of IM_TIE_TOL x the
        # diameter (1 here) raise, twice that gap does not
        monkeypatch.setattr(metric_module, "_ROTATIONS", np.array([1.0 + 0.0j]))
        fluxes = self.FLUXES[:3]

        def frame(pos):
            vc = validate(FluxConfig(pos, fluxes))
            return metric_module._contour_frames(vc, vc.zeta[None], 1e-10)

        for pos in ([0.0, 1.0, 0.5 + 0.7j], [0.0, 1.0 + IM_TIE_TOL * 1j, 0.5 + 0.7j]):
            with pytest.raises(AmbiguousOrdering):
                frame(pos)
        psi, _, _ = frame([0.0, 1.0 + 2.0 * IM_TIE_TOL * 1j, 0.5 + 0.7j])
        assert np.isfinite(psi).all()

    def test_integrand_columns_equal_the_ones_column_cumprod(self, monkeypatch):
        # values returns base for one column and cumprod's powers xi^k
        # times base for more, bit for bit as cumprod([1, xi, ..., xi])
        legs, integrands = [], []
        integrate = metric_module.integrate_panels

        class Recording(metric_module._Legs):
            def __init__(self, *args):
                super().__init__(*args)
                legs.append(self)

        def recording(f, *args, **kwargs):
            integrands.append(f)
            return integrate(f, *args, **kwargs)

        monkeypatch.setattr(metric_module, "_Legs", Recording)
        monkeypatch.setattr(metric_module, "integrate_panels", recording)
        vc = validate(FluxConfig([0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 0.9j, 0.5 - 0.7j],
                                 [0.45, 0.55, 0.35, 0.6, 0.3]))
        rng = np.random.default_rng(3)
        for n_cols in (1, 2, 3, 4):
            metric_module._contour_frames(vc, vc.zeta[None], 1e-8, n_cols)
        table = legs[0]
        leg = rng.integers(0, len(table.start), 500)
        ts = np.column_stack([leg, rng.uniform(0.0, 1.0, 500)])
        s = ts[:, 1]
        xi = table.start.take(leg) + table.d.take(leg) * s ** table.p.take(leg)
        base = integrands[0](ts)[:, 0]
        for n_cols, f in zip((1, 2, 3, 4), integrands):
            ref = np.cumprod(np.column_stack([np.ones_like(xi)] + [xi] * (n_cols - 1)),
                             axis=1) * base[:, None]
            assert f(ts).tobytes() == ref.tobytes(), n_cols

    def test_integrand_keeps_the_tracer_contract(self, monkeypatch):
        # a benchmark tracer wraps integrate_panels with a one-argument
        # integrand and counts nodes as len() of its argument
        integrate = metric_module.integrate_panels
        seen = {}

        def recording(f, tol, *, legs):
            seen.update(legs=legs, shapes=[])

            def integrand(ts):
                seen["shapes"].append((len(ts), ts.shape, ts.dtype))
                return f(ts)
            return integrate(integrand, tol, legs=legs)

        monkeypatch.setattr(metric_module, "integrate_panels", recording)
        vc = validate(FluxConfig(self.POSITIONS[0], self.FLUXES))
        metric_factorized(vc, tol=1e-10)
        # N = 4: two arms on each of the three legs between neighbours
        assert seen["legs"] == 6
        assert seen["shapes"]
        assert all(shape == (n, 2) and dtype == float for n, shape, dtype in seen["shapes"])


# the unjittered N = 3, 4 and 6 configurations of the cli-session benchmark
BRUTE_FORCE_BASE = [
    ([0.0, 0.9 + 0.7j, 0.2 + 1.9j], [0.4, 0.5, 0.6]),
    ([0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 0.9j], [0.45, 0.55, 0.35, 0.6]),
    ([0.0, 1.2 + 0.3j, 0.5 + 1.4j, -0.9 + 0.8j, 1.4 + 1.9j, -0.3 + 2.6j],
     [0.3, 0.45, 0.35, 0.5, 0.4, 0.25]),
]


# the far field's one Jacobi exponent on the cli-session N = 6 base
# (D_f = 2), at D_f = 4 and near the threshold Phi'_T = D_f
FAR_CASES = [
    BRUTE_FORCE_BASE[2],
    ([0.0, 1 + 0.3j, 0.4 + 1.2j, -0.7 + 0.8j, 0.9 + 1.9j], [0.9] * 5),
    ([0.0, 1.0, 0.3 + 0.8j], [0.7, 0.7, 0.6011]),
]


def per_entry_far_field(session, nr, nt):
    """The far field r > R0 with a Gauss-Jacobi rule in v = R0 / r per
    entry (j, k), of weight v^(2 Phi'_T - j - k - 3), which absorbs that
    entry's own decay, and each fluxon's factor relative to the centre."""
    th = 2.0 * np.pi * np.arange(nt) / nt
    eith = np.exp(1j * th)
    rel = (session.zetas - session.center) / session.R0
    out = np.empty(len(session.jk), dtype=complex)
    for i, (j, k) in enumerate(session.jk):
        v, wv = metric_module.gauss_jacobi01(nr, 2.0 * session.total_flux - j - k - 3.0)
        rr = session.R0 / v
        z = session.center + rr[:, None] * eith
        logw = np.zeros((nr, nt))
        for zc, ph in zip(rel, session.phis):
            logw -= 2.0 * ph * np.log(np.abs(1.0 - zc * np.conj(eith) * v[:, None]))
        smooth = np.exp(logw) * np.conj(z) ** j * z ** k / rr[:, None] ** (j + k)
        out[i] = (session.R0 ** (j + k + 2.0 - 2.0 * session.total_flux)
                  * (wv @ (smooth @ np.full(nt, 2.0 * np.pi / nt))))
    return out


def mock_pieces(session, steps):
    """Replace session.piece by per-axis steps: piece i at levels
    (l0, l1, ...) sums steps[i][axis][:l + 1] over its axes, plus 1 for
    the remainder, piece len(session.zetas); a piece without steps has
    none.  Returns the list of the (i, levels) it is called with."""
    levels = []

    def piece(i, *level):
        levels.append((i, level))
        base = 1.0 if i == len(session.zetas) else 0.0
        axes = steps.get(i, [[0.0] * 5] * len(level))
        return np.array([base + sum(sum(axis[:lev + 1]) for axis, lev in zip(axes, level))],
                        dtype=complex)

    session.piece = piece
    return levels


class TestBruteForceWork:
    def test_pieces_meet_only_at_their_edges(self, monkeypatch):
        # the plane is cut with hard edges: the points of a disk lie inside
        # it and every other point outside every disk and on one side of
        # R0, so no point carries the weight of two pieces
        weight = metric_module._BruteForce._weight
        seen = []

        def recording(self, x, y, skip):
            seen.append((self, skip, (x + 1j * y).ravel()))
            return weight(self, x, y, skip)

        monkeypatch.setattr(metric_module._BruteForce, "_weight", recording)
        rng = np.random.default_rng(6)
        pos, fluxes = BRUTE_FORCE_BASE[2]
        pos = np.array(pos) + 0.02 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        metric_bruteforce(validate(FluxConfig(pos, fluxes)), tol=1e-7)
        session = seen[0][0]
        for _, own, z in seen:
            d = np.abs(z[:, None] - session.zetas)
            if own is None:
                assert (d > session.radius).all()
                r = np.abs(z - session.center)
                assert (r < session.R0).all() or (r > session.R0).all()
            else:
                assert (d[:, own] < session.radius[own]).all()

    def test_refinement_schedule(self, monkeypatch):
        # the same meshes give the same per-axis schedule: the remainder's
        # evaluations and the points of all pieces at the CLI tolerance are
        # pinned (the partition of unity took 37, 45 and 62 evaluations of
        # its remainder panels)
        sweep = metric_module._BruteForce.sweep
        calls, points = [], []

        def counting(self, centre, own, u, wu, tan, x, wx):
            calls[-1] += tan is not None
            points[-1] += len(u) * len(x)
            return sweep(self, centre, own, u, wu, tan, x, wx)

        monkeypatch.setattr(metric_module._BruteForce, "sweep", counting)
        for pos, fluxes in BRUTE_FORCE_BASE:
            calls.append(0)
            points.append(0)
            metric_bruteforce(validate(FluxConfig(pos, fluxes)), tol=1e-8)
        assert calls == [3, 3, 3]
        assert points == [58800, 82160, 164904]

    @pytest.mark.parametrize("pos, fluxes", [
        ([0.0, 1e-3, 0.2 + 0.98j], [0.4, 0.5, 0.6]),        # a tight pair
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.999, 0.4, 0.3]),  # an edge flux
    ] + FAR_CASES)
    def test_fixed_angle_pieces_are_converged(self, pos, fluxes):
        # on its disk of radius R_a the other fluxons lie beyond R_a / 0.45,
        # and beyond R0 every |zeta_b - c| / r is at most 1/2, so the
        # periodic trapezoid rule in the angle converges like 0.45^n and
        # 2^-n: 64 angles agree with 512 to round-off
        vc = validate(FluxConfig(pos, fluxes))
        session = metric_module._BruteForce(vc.zeta / vc.diameter, vc.phi_reduced,
                                            vc.counts.D_f)
        fixed = [p for p in session.pieces if p.beta is not None]
        assert len(fixed) == len(pos) + 1
        for p in fixed:
            for nr in session.RADII[:3]:
                d64, d512 = session.grid(p, nr, 64), session.grid(p, nr, 512)
                assert np.abs(d64 - d512).max() <= 1e-14 * np.abs(d512).max()

    @pytest.mark.parametrize("pos, fluxes", FAR_CASES)
    def test_far_panel_matches_the_per_entry_jacobi_rule(self, pos, fluxes):
        # the far field's one Jacobi exponent leaves entry (j, k) an integer
        # power of v = R0 / r; the reference gives each entry the exponent
        # of its own decay.  The grid takes the weight as exp of a log sum
        # of size 2 Phi'_T log(r), which rounds to 6.7e-15 near the threshold
        vc = validate(FluxConfig(pos, fluxes))
        session = metric_module._BruteForce(vc.zeta / vc.diameter, vc.phi_reduced,
                                            vc.counts.D_f)
        far = session.pieces[-1]
        assert far.hi == math.inf and far.beta > -1.0
        for nr in (48, 96):
            ref = per_entry_far_field(session, nr, 64)
            got = session.grid(far, nr, 64)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_sessions_share_no_buffer_state(self):
        # each call builds its own session and temporaries; runs in either
        # order give the same bytes
        def run(cases):
            out = {}
            for pos, fluxes in cases:
                bf = metric_bruteforce(validate(FluxConfig(pos, fluxes)), tol=1e-7)
                out[len(pos)] = (bf.g.tobytes(), bf.error_estimate.hex())
            return out

        assert run(BRUTE_FORCE_BASE) == run(BRUTE_FORCE_BASE[::-1])

    @pytest.mark.parametrize("pos, fluxes", [
        BRUTE_FORCE_BASE[2],
        ([0.0, 1.4e-4, 0.3 + 0.9j], [0.4, 0.5, 0.6]),   # a tight pair
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9] * 3),
    ])
    def test_chunk_size_does_not_change_the_sums(self, pos, fluxes):
        # chunks of 97 and 1000 points split the rows elsewhere and end on
        # a short chunk (a disk's 16 radii in chunks of 15 rows, the arcs
        # in chunks of 8); each piece at level 1 sums to the default's
        # values but for the rounding of the partial sums
        vc = validate(FluxConfig(pos, fluxes))
        args = (vc.zeta / vc.diameter, vc.phi_reduced, vc.counts.D_f)
        ref = metric_module._BruteForce(*args)
        levels = [(1,) if p.beta is not None else (1, 1) for p in ref.pieces]
        want = [ref.piece(i, *level) for i, level in enumerate(levels)]
        for chunk in (97, 1000):
            session = metric_module._BruteForce(*args)
            session.CHUNK = chunk
            for i, level in enumerate(levels):
                got = session.piece(i, *level)
                assert np.abs(got - want[i]).max() <= 1e-14 * np.abs(want[i]).max()

    def test_error_estimate_bounds_the_error(self):
        # the estimate sums each piece's |level L - level L-1| at that
        # piece's own last level L; it bounds the coarser levels, so it
        # overstates the error of the returned ones
        rng = np.random.default_rng(5)
        for _ in range(6):
            u = complex(rng.uniform(-0.6, 1.6), rng.uniform(0.4, 1.4))
            bf = metric_bruteforce(validate(FluxConfig([0.0, 1.0, u], [0.5, 0.5, 0.5])),
                                   tol=1e-7)
            ref = metric_half_fluxes(u)
            assert abs(bf.g[0, 0] - ref) <= bf.error_estimate + 1e-13 * ref

    def test_error_estimate_bounds_the_error_on_random_configurations(self):
        # N = 2 to 5 fluxons at least 0.3 apart, every third with one edge
        # flux in [0.99, 0.999], at the two oracle tolerances; a piece's
        # level-1 difference under-reads at an edge flux, and a rule that
        # trusted it read 2.1x below the error on two of 45 such draws
        rng = np.random.default_rng(18)
        for i in range(10):
            n = 2 + i % 4
            while True:
                pos = rng.uniform(0.0, 2.0, n) + 1j * rng.uniform(0.0, 2.0, n)
                fluxes = rng.uniform(0.2, 0.8, n)
                if i % 3 == 0:
                    fluxes[0] = rng.uniform(0.99, 0.999)
                if n > 1 and np.abs(pos[:, None] - pos[None, :])[np.triu_indices(n, 1)].min() < 0.3:
                    continue
                try:
                    vc = validate(FluxConfig(pos, fluxes))
                except FluxholoError:
                    continue
                if vc.counts.D_f >= 1:
                    break
            bf = metric_bruteforce(vc, tol=(1e-7, 1e-8)[i % 2])
            ref = metric_factorized(vc, tol=1e-12, auto_rotate=True).g
            assert np.abs(bf.g - ref).max() <= bf.error_estimate

    def test_edge_flux_pair_within_its_estimate(self):
        # a rule that froze a piece once its level-1 difference was small
        # left the edge flux's disk at level 1, whose difference under-reads:
        # error 6.5e-7 against an estimate of 3.2e-7
        vc = validate(FluxConfig([0.0, 1.0 + 1.0j], [0.9989, 0.53]))
        bf = metric_bruteforce(vc, tol=1e-8)
        ref = metric_factorized(vc, tol=1e-12).g
        assert np.abs(bf.g - ref).max() <= bf.error_estimate

    def test_piece_at_max_level_leaves_the_others_to_refine(self):
        # disk 0 reaches MAX_LEVEL with the largest difference (6e-7) but
        # under the target on its own; the middle panel's angular 5e-7 at
        # lt = 2 is refined away, so the run converges instead of raising
        session = metric_module._BruteForce(np.array([0.0, 1.0]), np.array([0.4, 0.5]), 1)
        mid = len(session.zetas)
        steps = {0: [[0.0, 1e-3, 1e-4, 1e-5, 6e-7]],
                 mid: [[0.0, 1e-13, 0.0, 0.0, 0.0], [0.0, 1e-3, 5e-7, 1e-12, 0.0]]}
        levels = mock_pieces(session, steps)
        est, err = session.run(1e-6)
        assert (0, (4,)) in levels and (mid, (1, 3)) in levels
        assert err[0] == pytest.approx(6e-7 + 1e-13 + 1e-12, rel=1e-6)
        # with the middle panel's angles stuck as well the target cannot be
        # met, and the run refuses once lt reaches MAX_LEVEL, not after
        # refining the radius as far
        steps[mid][1][3:] = [5e-7] * 2
        levels.clear()
        with pytest.raises(QuadratureNotConverged):
            session.run(1e-6)
        assert (mid, (1, 4)) in levels and (mid, (2, 4)) not in levels

    def test_each_panel_moves_its_unresolved_axis(self):
        # a remainder whose angular difference dominates moves only lt, one
        # whose radial difference dominates only lr, and a NaN difference
        # counts as unresolved on its axis
        session = metric_module._BruteForce(np.array([0.0, 1.0]), np.array([0.4, 0.5]), 1)
        nan = float("nan")
        rem = len(session.zetas)
        slow, fast = [0.0, 1e-4, 1e-6, 1e-12, 0.0], [0.0, 1e-9, 0.0, 0.0, 0.0]
        for steps, reach, still in (([fast, slow], (1, 3), 0), ([slow, fast], (3, 1), 1)):
            levels = mock_pieces(session, {rem: steps})
            session.run(1e-8)
            # both start on (0, 0), (1, 0) and (1, 1)
            assert max(level for i, level in levels if i == rem) == reach
            assert all(level[still] <= 1 for i, level in levels if i == rem)
        # a NaN radial difference wins over any finite angular one
        levels = mock_pieces(session, {rem: [[0.0, nan, 0.0, 0.0, 0.0], slow]})
        with pytest.raises(QuadratureNotConverged):
            session.run(1e-8)
        assert (rem, (2, 1)) in levels

    @pytest.mark.parametrize("pos, fluxes", BRUTE_FORCE_BASE)
    def test_sub_arcs_tile_the_circles_outside_the_disks(self, pos, fluxes):
        # on each radius of the mesh the sub-arcs follow one another
        # without overlap, each at most ARC_CAP and outside every disk, and
        # their lengths sum to 2 pi less the arcs that the disks cover
        vc = validate(FluxConfig(pos, fluxes))
        session = metric_module._BruteForce(vc.zeta / vc.diameter, vc.phi_reduced,
                                            vc.counts.D_f)
        rel = session.zetas - session.center
        for nr in session.RADII[:2]:
            r, _, start, length = session.mesh(nr)
            assert (length > 0.0).all() and (length <= session.ARC_CAP * (1 + 1e-15)).all()
            assert (start >= 0.0).all() and (start + length <= 2 * np.pi * (1 + 1e-15)).all()
            same = r[1:] == r[:-1]
            assert (start[1:][same] >= (start + length)[:-1][same] * (1 - 1e-15)).all()
            mid = r * np.exp(1j * (start + 0.5 * length))
            assert (np.abs(mid[:, None] - rel) > session.radius).all()
            radii, row = np.unique(r, return_inverse=True)
            total = np.bincount(row, weights=length)
            rho, R = np.abs(rel), session.radius
            rc = radii[:, None]
            c = (rc * rc + (rho * rho - R * R)) / (2.0 * rc * rho)
            covered = 2.0 * np.arccos(np.clip(c, -1.0, 1.0)).sum(axis=1)
            assert np.abs(total - (2 * np.pi - covered)).max() <= 1e-13

    @pytest.mark.parametrize("tol", [1e-7, 1e-8])
    @pytest.mark.parametrize("pos, fluxes", BRUTE_FORCE_BASE)
    def test_error_estimate_bounds_the_error_on_the_cli_configurations(self, pos, fluxes,
                                                                        tol):
        # each panel's estimate is the sum of its two axes' last
        # differences, and the reported one is at most tol x max|g|
        vc = validate(FluxConfig(pos, fluxes))
        bf = metric_bruteforce(vc, tol=tol)
        ref = metric_factorized(vc, tol=1e-12).g
        assert np.abs(bf.g - ref).max() <= bf.error_estimate <= tol * np.abs(bf.g).max()

    @pytest.mark.parametrize("pos, fluxes", BRUTE_FORCE_BASE)
    def test_middle_panels_sum_to_the_whole_middle(self, pos, fluxes):
        # the remainder's own nodes and weights (its sweep with every flux
        # zero, so each weight is 1) integrate zbar^j z^k, j, k <= 2, over
        # the disk r < R0 about the centre less the fluxons' disks: the
        # difference of the disks' moments, with
        # int_{|z - zeta| < R} zbar^j z^k = sum_m C(j, m) C(k, m)
        # conj(zeta)^(j - m) zeta^(k - m) pi R^(2m + 2) / (m + 1)
        vc = validate(FluxConfig(pos, fluxes))
        zetas = vc.zeta / vc.diameter
        session = metric_module._BruteForce(zetas, np.zeros(len(zetas)), 3)

        def moments(zeta, radius):
            return np.array([sum(math.comb(j, m) * math.comb(k, m) * np.conj(zeta) ** (j - m)
                                 * zeta ** (k - m) * math.pi * radius ** (2 * m + 2) / (m + 1)
                                 for m in range(j + 1)) for j, k in session.jk])

        ref = moments(session.center, session.R0) - sum(
            moments(zeta, radius) for zeta, radius in zip(zetas, session.radius))
        area = math.pi * (session.R0 ** 2 - (session.radius ** 2).sum())
        assert session.jk[0] == (0, 0) and ref[0] == pytest.approx(area, rel=1e-15)
        for level in (1, 2):
            got = session.piece(len(zetas), level, level)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("pos, fluxes", BRUTE_FORCE_BASE + [
        ([0.0, 1.4e-4, 0.3 + 0.9j], [0.4, 0.5, 0.6]),
        ([0.0, 1.0, 0.5], [0.4, 0.5, 0.6]),            # a fluxon at the centre
    ])
    def test_mesh_is_graded_toward_the_fluxons(self, pos, fluxes):
        # every radial sub-panel is at most GRADE - 1 times its distance to
        # each fluxon b, max(|rho_b - panel|, R_b), and at most GRADE + 1
        # times its distance to each tangency radius |rho_b -+ R_b| outside
        # it; every sub-arc at most GRADE - 1 times its angle from each
        # fluxon, max(its gap to theta_b, max(|r - rho_b|, R_b) / r), and
        # at most ARC_CAP
        vc = validate(FluxConfig(pos, fluxes))
        session = metric_module._BruteForce(vc.zeta / vc.diameter, vc.phi_reduced,
                                            vc.counts.D_f)
        rel = session.zetas - session.center
        rho, theta, R = np.abs(rel), np.mod(np.angle(rel), 2 * np.pi), session.radius
        grade, slack = session.GRADE, 1 + 1e-12
        lo, hi = session.breaks[:-1, None], session.breaks[1:, None]
        assert lo[0] == 0.0 and hi[-1] == session.R0
        away = np.maximum(np.maximum(lo - rho, rho - hi), R)
        assert (hi - lo <= (grade - 1.0) * away * slack).all()
        tangent = np.concatenate([np.abs(rho - R), rho + R])
        outside = np.maximum(lo - tangent, tangent - hi)
        outside = np.where(outside > 1e-12 * session.R0, outside, np.inf)
        assert (hi - lo <= (grade + 1.0) * outside * slack).all()
        for nr in session.RADII[:2]:
            r, _, start, length = session.mesh(nr)
            r, start, length = r[:, None], start[:, None], length[:, None]
            after = np.mod(theta - start, 2 * np.pi)
            gap = np.where(after <= length, 0.0, np.minimum(after - length, 2 * np.pi - after))
            angle = np.maximum(gap, np.maximum(np.abs(r - rho), R) / r)
            # the angles carry absolute rounding, 4e-16 near 2 pi
            assert (length <= (grade - 1.0) * angle + 1e-14).all()
            assert (length <= session.ARC_CAP * slack).all()

    def test_tight_pair_within_its_estimate(self):
        # a pair 1.4e-4 apart in a unit triple: the partition of unity
        # stalled at relative error 2.6e-3 and refused after 0.35 s; the mesh
        # graded toward both fluxons converges
        vc = validate(FluxConfig([0.0, 1.4e-4, 0.3 + 0.9j], [0.4, 0.5, 0.6]))
        bf = metric_bruteforce(vc, tol=1e-7)
        ref = metric_factorized(vc, tol=1e-13, auto_rotate=True).g
        assert np.abs(bf.g - ref).max() <= bf.error_estimate <= 1e-7 * np.abs(bf.g).max()

    @pytest.mark.parametrize("s", [0.1, 0.03, 0.01, 3e-3])
    def test_pair_separation_ladder_within_its_estimate(self, s):
        vc = validate(FluxConfig([0.0, s, 0.2 + 0.98j], [0.4, 0.5, 0.6]))
        bf = metric_bruteforce(vc, tol=1e-7)
        ref = metric_factorized(vc, tol=1e-13, auto_rotate=True).g
        assert np.abs(bf.g - ref).max() <= bf.error_estimate <= 1e-7 * np.abs(bf.g).max()

    def test_fuzz_within_its_estimate_or_typed(self):
        # seeded draws over N = 2 to 6 with an edge flux in [0.99, 0.999],
        # a flux raised above 1, scales from 1e-3 to 1e3 and pairs down to
        # 3e-3 of the diameter apart; each either agrees with the
        # factorized metric within the two estimates or raises a typed
        # error (RuntimeWarnings are errors).  The estimates are level
        # differences, which do not count the rounding of the sums, so
        # 1e-13 of the largest entry is allowed on top: an N = 2 edge flux
        # 0.998 read an error of 4.8e-15 against an estimate of 3.0e-15
        rng = np.random.default_rng(32)
        checked = 0
        for i in range(100):
            n = int(rng.integers(2, 7))
            pos = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
            fluxes = rng.uniform(0.2, 0.8, n)
            kind = i % 4
            if kind == 1:
                fluxes[rng.integers(n)] = rng.uniform(0.99, 0.999)
            elif kind == 2:
                fluxes[rng.integers(n)] += 1.0
            if rng.uniform() < 0.5:
                span = np.abs(pos[:, None] - pos[None, :]).max()
                sep = span * 10 ** rng.uniform(np.log10(3e-3), -1.0)
                pos[1] = pos[0] + sep * np.exp(2j * np.pi * rng.uniform())
            pos *= 10 ** rng.uniform(-3.0, 3.0)
            try:
                vc = validate(FluxConfig(pos, fluxes))
                if vc.counts.D_f < 1:
                    continue
                bf = metric_bruteforce(vc, tol=(1e-7, 1e-8)[i % 2])
            except FluxholoError:
                continue
            ref = metric_factorized(vc, tol=1e-13, auto_rotate=True)
            bound = bf.error_estimate + ref.error_estimate + 1e-13 * np.abs(ref.g).max()
            assert np.abs(bf.g - ref.g).max() <= bound, (pos, fluxes)
            checked += 1
        assert checked >= 80

    def test_contraction_equals_the_full_product(self):
        # the entries zbar^j z^k weighted by real weights, read from real
        # rows, agree with conj(P) @ (w P).T, P = [1, z, ..., z^(n-1)]
        rng = np.random.default_rng(9)
        for n_cols in (1, 2, 3, 4):
            session = metric_module._BruteForce(np.array([0.0, 1.0, 0.3 + 0.8j]),
                                                np.array([0.4, 0.5, 0.6]), n_cols)
            for shape in ((24, 64), (96, 128), (48, 37)):
                x, y = rng.normal(size=shape), rng.normal(size=shape)
                weights = rng.uniform(0.0, 1.0, size=shape)
                kept = weights.copy()
                got = session._contract(x, y, weights)
                assert np.array_equal(weights, kept)
                p = (x + 1j * y).reshape(-1) ** np.arange(n_cols)[:, None]
                full = np.conj(p) @ (weights.reshape(-1) * p).T
                ref = np.array([full[j, k] for j, k in session.jk])
                assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

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

    @pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_factorized_follows_the_scaling_law(self, s):
        # with the arms on the legs between neighbours, 1e-300 and 1e300
        # hold too; on arms to a line 1.5 diameters to the left, 1e-300
        # raised after overflow warnings and 1e300 returned g 22% low
        vc = validate(FluxConfig([0.0, s * (1 + 1j)], [0.5, 0.7]))
        m = metric_factorized(vc)
        assert abs(m.g[0, 0] - two_fluxon_metric([0.5, 0.7], s * (1 + 1j))) <= m.error_estimate

    # [0, 0.9 + 0.7j, 0.2 + 1.9j] s with fluxes [0.4, 0.5, 0.6]: g_00 scales
    # as s^-1
    @pytest.mark.parametrize("s", [1e-300, 1e-150, 1e150, 1e300])
    def test_factorized_follows_the_scaling_law_at_three_fluxons(self, s):
        # at 1e+-300 psi_0 and an arm's factor p d^(1 - phi'_a) each leave
        # the float range (psi_0 is about 1e-330 on the arm from fluxon 0 at
        # 1e300), but not their product, which the integrand takes as exp
        # of the summed logs
        pos, fluxes = np.array([0.0, 0.9 + 0.7j, 0.2 + 1.9j]), [0.4, 0.5, 0.6]
        unit = metric_factorized(validate(FluxConfig(pos, fluxes)), tol=1e-12)
        m = metric_factorized(validate(FluxConfig(s * pos, fluxes)))
        assert (abs(m.g[0, 0] - unit.g[0, 0] / s)
                <= m.error_estimate + unit.error_estimate / s)


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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
    def test_contour_estimate_bounds_an_edge_flux_pair(self):
        # the contour estimate bounds the embedded Gauss rule, not the
        # returned Kronrod value, and has no round-off floor: on this pair
        # the error against the closed form (itself good to 5e-16 against
        # 40-digit mpmath) is 1.7e-14 relative, the estimate 1.2e-15
        fluxes = [0.9956821682905309, 0.45223394549018986]
        delta = -0.02348902498112393 + 0.010982949649255924j
        m = metric_factorized(validate(FluxConfig([0.0, delta], fluxes)), tol=1e-10)
        assert abs(m.g[0, 0] - two_fluxon_metric(fluxes, delta)) <= m.error_estimate

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
        # phi' = 0 adds no log weight but keeps its disk; phi' < 0 makes
        # the weight vanish at the fluxon
        vc = validate(FluxConfig([0.0, 1.0, 0.3 + 0.9j, -0.5 + 0.6j], fluxes))
        bf = metric_bruteforce(vc, tol=1e-7)
        fac = metric_factorized(vc, tol=1e-10, auto_rotate=True)
        assert np.abs(bf.g - fac.g).max() < 1e-7 * np.abs(bf.g).max()

    def test_zero_flux_between_branch_points_drops_out(self):
        # a phi' = 0 fluxon is no branch point: inside the cut order it is
        # the start of two arms, and g is the metric of the other three
        pos = np.array([0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 0.9j])
        fluxes = np.array([0.45, 0.55, 0.0, 0.6])
        order = metric_module._best_rotations(pos[None])[2][0].tolist()
        assert 0 < order.index(2) < 3
        for tol in (1e-8, 1e-11):
            with_zero = metric_factorized(validate(FluxConfig(pos, fluxes)), tol=tol,
                                          auto_rotate=True)
            without = metric_factorized(validate(FluxConfig(pos[[0, 1, 3]], fluxes[[0, 1, 3]])),
                                        tol=tol, auto_rotate=True)
            error = np.abs(with_zero.g - without.g).max()
            assert error <= (with_zero.error_estimate + without.error_estimate
                             + 1e-13 * np.abs(without.g).max())

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
