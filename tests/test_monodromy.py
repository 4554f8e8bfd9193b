import math

import numpy as np
import pytest

from fluxholo import (
    BraidWord,
    FluxConfig,
    Move,
    confined_phase,
    coupling_matrix,
    cut_factor,
    cut_order,
    encircle_block,
    exchange_block,
    holonomy,
    holonomy_analytic,
    reduce_monodromy,
    reduced_coupling,
    rigid_rotation_phase,
    validate,
    word_to_monodromy,
    word_to_path,
)
from fluxholo.errors import (
    ExchangeOnDistinctFluxes,
    NonAdjacentEncircle,
    NotConfined,
    NotMaximalFreeModes,
)
from fluxholo.metric import best_rotation_angle

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestBlocks:
    def test_trivial_fluxes_give_identity(self):
        assert np.abs(encircle_block(1.0, 1.0) - np.eye(2)).max() < 1e-15

    def test_eigenvalues_and_determinant(self, rng):
        for _ in range(20):
            pa, pb = rng.uniform(0, 1, 2)
            na, nb = cut_factor(pa), cut_factor(pb)
            M = encircle_block(na, nb)
            assert abs(np.linalg.det(M) - na * nb) < 1e-14
            ev = np.sort_complex(np.linalg.eigvals(M))
            ref = np.sort_complex(np.array([1.0, na * nb]))
            assert np.abs(ev - ref).max() < 1e-12

    def test_quarter_flux_eigenvalues(self):
        ev = np.linalg.eigvals(encircle_block(1j, 1j))
        assert np.abs(np.sort_complex(ev) - np.array([-1.0, 1.0])).max() < 1e-14

    def test_swap_symmetry(self, rng):
        # M(nu_b, nu_a) = sx M(conj nu_a, conj nu_b)^(-1) sx
        for _ in range(10):
            na, nb = cut_factor(rng.uniform(0, 1)), cut_factor(rng.uniform(0, 1))
            lhs = encircle_block(nb, na)
            rhs = SX @ np.linalg.inv(encircle_block(np.conj(na), np.conj(nb))) @ SX
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_exchange_permutation_limit(self):
        assert np.abs(exchange_block(1.0) - SX).max() < 1e-15

    def test_exchange_squared_is_encirclement(self, rng):
        for _ in range(10):
            nu = cut_factor(rng.uniform(0, 1))
            lhs = exchange_block(nu) @ exchange_block(nu)
            assert np.abs(lhs - encircle_block(nu, nu)).max() < 1e-14

    def test_exchange_spectrum(self):
        nu = cut_factor(0.83)
        ev = np.sort_complex(np.linalg.eigvals(exchange_block(nu)))
        assert np.abs(ev - np.sort_complex(np.array([1.0, -nu]))).max() < 1e-14


class TestWords:
    def test_empty_word_is_identity(self):
        M = word_to_monodromy(BraidWord([]), [0.9, 0.9, 0.9])
        assert np.array_equal(M.M, np.eye(3))

    def test_single_encircle_spares_others(self):
        M = word_to_monodromy(BraidWord([Move("encircle", 0)]), [0.8, 0.7, 0.6]).M
        assert np.abs(M[2] - np.array([0, 0, 1])).max() == 0
        assert np.abs(M[:, 2] - np.array([0, 0, 1])).max() == 0

    def test_inverse_word(self, rng):
        fluxes = [0.85, 0.85, 0.85, 0.85]
        moves = [Move("exchange" if rng.integers(0, 2) else "encircle",
                      int(rng.integers(0, 3)), int(rng.choice([-1, 1])))
                 for _ in range(6)]
        w = BraidWord(moves)
        M = word_to_monodromy(w, fluxes).M
        Minv = word_to_monodromy(w.inverse(), fluxes).M
        assert np.abs(M @ Minv - np.eye(4)).max() < 1e-13

    def test_concatenation_composes_contravariantly(self):
        # continuation drags through the earlier word first, so the matrix
        # of "w1 then w2" is M(w1) M(w2)
        fluxes = [0.9, 0.9, 0.9]
        w1 = BraidWord([Move("encircle", 0)])
        w2 = BraidWord([Move("encircle", 1, -1)])
        m1 = word_to_monodromy(w1, fluxes).M
        m2 = word_to_monodromy(w2, fluxes).M
        mc = word_to_monodromy(BraidWord([*w1.moves, *w2.moves]), fluxes).M
        assert np.abs(m1 @ m2 - mc).max() < 1e-14

    def test_strand_range_checked(self):
        with pytest.raises(NonAdjacentEncircle):
            word_to_monodromy(BraidWord([Move("encircle", 2)]), [0.9, 0.9, 0.9])

    def test_exchange_needs_identical_fluxes(self):
        with pytest.raises(ExchangeOnDistinctFluxes):
            word_to_monodromy(BraidWord([Move("exchange", 0)]), [0.7, 0.8])

    def test_json_word(self):
        w = BraidWord.from_json({"moves": [{"encircle": [0, 1], "power": -1},
                                           {"exchange": 1}]})
        assert w.moves[0] == Move("encircle", 0, -1)
        assert w.moves[1] == Move("exchange", 1, 1)
        with pytest.raises(NonAdjacentEncircle):
            BraidWord.from_json({"moves": [{"encircle": [0, 2]}]})
        for bad in ({"moves": [{"encircle": 0}]}, {"moves": [{"exchange": 1.5}]},
                    {"moves": [{"encircle": [0, "1"]}]}, {"moves": [{"power": 2}]},
                    {"moves": [{"exchange": 1, "power": 0.5}]}, {"move": []}, []):
            with pytest.raises(ValueError):
                BraidWord.from_json(bad)


class TestReduction:
    def test_identity(self):
        M = word_to_monodromy(BraidWord([]), [0.9, 0.9, 0.9])
        assert np.array_equal(reduce_monodromy(M), np.eye(2))

    def test_eigenvalue_dictionary(self, rng):
        for _ in range(10):
            fluxes = rng.uniform(0.55, 0.95, 3)
            if abs(fluxes.sum() - round(fluxes.sum())) < 5e-2:
                continue
            M = word_to_monodromy(BraidWord([Move("encircle", 0)]), fluxes)
            ev_full = np.sort_complex(np.linalg.eigvals(M.M))
            ev_red = np.linalg.eigvals(reduce_monodromy(M))
            combined = np.sort_complex(np.append(ev_red, 1.0))
            assert np.abs(ev_full - combined).max() < 1e-12

    def test_functorial(self, rng):
        fluxes = [0.85, 0.85, 0.85, 0.85]
        m1 = word_to_monodromy(BraidWord([Move("encircle", 0), Move("exchange", 2)]), fluxes)
        m2 = word_to_monodromy(BraidWord([Move("exchange", 1, -1)]), fluxes)
        lhs = reduce_monodromy(m2.M @ m1.M)
        rhs = reduce_monodromy(m2) @ reduce_monodromy(m1)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_reduced_coupling_positive_definite(self):
        G = coupling_matrix([0.9, 0.9, 0.9])
        ev = np.linalg.eigvalsh(reduced_coupling(G))
        assert ev.min() > 0


class TestAnalyticHolonomy:
    def test_two_fluxon_phase(self):
        vc = validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))
        res = holonomy_analytic(vc, BraidWord([Move("encircle", 0)]))
        assert abs(res.u[0, 0] - (-1.0)) < 1e-11
        assert res.norm_drift < 1e-11

    def test_three_identical_eigenvalues(self, three_identical_09):
        res = holonomy_analytic(three_identical_09, BraidWord([Move("encircle", 0)]))
        nu = cut_factor(0.9)
        ref = np.sort_complex(np.array([1.0, np.conj(nu) ** 2]))
        assert np.abs(np.sort_complex(res.eigenvalues) - ref).max() < 1e-11

    def test_pseudo_unitary_in_metric(self, three_identical_09):
        from fluxholo import metric_factorized
        res = holonomy_analytic(three_identical_09,
                                BraidWord([Move("encircle", 1), Move("encircle", 0, -1)]))
        g = metric_factorized(three_identical_09, tol=1e-11).g
        drift = np.abs(res.u.conj().T @ g @ res.u - g).max() / np.abs(g).max()
        assert drift < 1e-9

    def test_requires_maximal_free_modes(self, three_distinct):
        with pytest.raises(NotMaximalFreeModes):
            holonomy_analytic(three_distinct, BraidWord([Move("encircle", 0)]))

    def test_numeric_exchange_agreement(self, three_identical_09):
        word = BraidWord([Move("exchange", 1)])
        ana = holonomy_analytic(three_identical_09, word)
        num = holonomy(three_identical_09, word_to_path(three_identical_09, word),
                       ode_tol=1e-6)
        assert np.abs(num.u - ana.u).max() < 1e-3
        nu = cut_factor(0.9)
        ref = np.sort_complex(np.array([1.0, -np.conj(nu)]))
        assert np.abs(np.sort_complex(ana.eigenvalues) - ref).max() < 1e-11

    @pytest.mark.parametrize("strand", [0, 1])
    def test_numeric_agreement_when_the_frame_reorders_the_cuts(self, strand):
        # the cut order is (0, 2, 1), but the transport's best-separated
        # rotation frame orders the cuts (1, 2, 0); the braid word refers to
        # the former, and u does not depend on the frame
        vc = validate(FluxConfig([0.715 - 0.649j, -0.933 + 0.726j, 0.459 + 0.083j],
                                 [0.9, 0.9, 0.9]))
        alpha = best_rotation_angle(vc.zeta)
        rotated = validate(FluxConfig(vc.zeta * np.exp(1j * alpha), vc.config.fluxes))
        assert cut_order(vc) == (0, 2, 1) and cut_order(rotated) == (1, 2, 0)
        word = BraidWord([Move("encircle", strand)])
        ana = holonomy_analytic(vc, word)
        num = holonomy(vc, word_to_path(vc, word))
        assert np.abs(num.u - ana.u).max() < 1e-4

    def test_homotopy_invariance_of_role_swap(self, three_identical_09):
        # "a circles b" and "b circles a" are homotopic loops in the
        # configuration space, so in the topological regime they share the
        # holonomy of the same braid word
        from fluxholo import ControlPath
        vc = three_identical_09
        ana = holonomy_analytic(vc, BraidWord([Move("encircle", 0)]))
        reversed_roles = ControlPath.circle(vc, mover=1, center=vc.zeta[0])
        num = holonomy(vc, reversed_roles, ode_tol=1e-6)
        assert np.abs(num.u - ana.u).max() < 1e-3

    def test_holonomy_composition(self, three_identical_09):
        # u of a concatenated word is the product of the pieces' u's, with
        # the later factor on the left; the transported multi-move loop
        # must land on the same matrix
        w1 = BraidWord([Move("encircle", 0)])
        w2 = BraidWord([Move("encircle", 1, -1)])
        combo = BraidWord([*w1.moves, *w2.moves])
        u1 = holonomy_analytic(three_identical_09, w1).u
        u2 = holonomy_analytic(three_identical_09, w2).u
        uc = holonomy_analytic(three_identical_09, combo).u
        assert np.abs(u2 @ u1 - uc).max() < 1e-11
        num = holonomy(three_identical_09,
                       word_to_path(three_identical_09, combo), ode_tol=1e-6)
        assert np.abs(num.u - uc).max() < 1e-3


class TestPhases:
    def test_confined_phase_no_winding(self):
        assert confined_phase([0, 0], 0, [1.5, 0.3]) == 0.0

    def test_confined_phase_linear(self):
        assert abs(confined_phase([0, 2], 0, [1.5, 0.3]) - 1.2 * math.pi) < 1e-15

    def test_confined_phase_needs_confined_mode(self):
        with pytest.raises(NotConfined):
            confined_phase([0, 1], 0, [0.5, 0.5])

    def test_rigid_rotation_phase_values(self):
        assert abs(rigid_rotation_phase(0, 1.5) - math.pi) < 1e-15
        # phases for different k coincide mod 2 pi
        a = rigid_rotation_phase(0, 1.55)
        b = rigid_rotation_phase(1, 1.55)
        assert abs(math.remainder(a - b, 2 * math.pi)) < 1e-12
