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
    ClosedPathRequired,
    NonAdjacentEncircle,
    NotConfined,
    NotMaximalFreeModes,
)
from fluxholo import monodromy as monodromy_module
from fluxholo.metric import best_rotation_angle

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def encircle_formula(nu_a, nu_b):
    """The paper's 2 x 2 block for one counter-clockwise encirclement of
    the fluxon on strand 1 by the one on strand 0: the oracle of sigma_0^2."""
    return np.array([[1.0 - nu_a + nu_a * nu_b, nu_a * (1.0 - nu_b)],
                     [1.0 - nu_a, nu_a]], dtype=complex)


def monodromy(moves, fluxes):
    """M of the word of (kind, strand, power) triples."""
    return word_to_monodromy(BraidWord([Move(*m) for m in moves]), fluxes).M


def encircle_matrix(phi_a, phi_b):
    return monodromy([("encircle", 0, 1)], [phi_a, phi_b])


class TestBlocks:
    def test_trivial_fluxes_give_identity(self):
        assert np.abs(encircle_matrix(0.0, 0.0) - np.eye(2)).max() < 1e-15

    def test_eigenvalues_and_determinant(self, rng):
        for _ in range(20):
            pa, pb = rng.uniform(0, 1, 2)
            na, nb = cut_factor(pa), cut_factor(pb)
            M = encircle_matrix(pa, pb)
            assert abs(np.linalg.det(M) - na * nb) < 1e-14
            ev = np.sort_complex(np.linalg.eigvals(M))
            ref = np.sort_complex(np.array([1.0, na * nb]))
            assert np.abs(ev - ref).max() < 1e-12

    def test_quarter_flux_eigenvalues(self):
        ev = np.linalg.eigvals(encircle_matrix(0.75, 0.75))
        assert np.abs(np.sort_complex(ev) - np.array([-1.0, 1.0])).max() < 1e-14

    def test_swap_symmetry(self, rng):
        # M(nu_b, nu_a) = sx M(conj nu_a, conj nu_b)^(-1) sx
        for _ in range(10):
            pa, pb = rng.uniform(0, 1, 2)
            lhs = encircle_matrix(pb, pa)
            rhs = SX @ np.linalg.inv(encircle_matrix(-pa, -pb)) @ SX
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_exchange_permutation_limit(self):
        assert np.abs(exchange_block(1.0) - SX).max() < 1e-15

    def test_exchange_squared_is_encirclement(self, rng):
        # sigma_b sigma_a, colored by the strand each half-twist lands on,
        # is the paper's encirclement block, also embedded among 4 strands
        for power in (-2, -1, 1, 2):
            phis = rng.uniform(0, 1, 4)
            ref = np.linalg.matrix_power(
                encircle_formula(cut_factor(phis[1]), cut_factor(phis[2])), power)
            twists = monodromy([("exchange", 1, int(np.sign(power)))] * 2 * abs(power), phis)
            for M in (twists, monodromy([("encircle", 1, power)], phis)):
                assert np.abs(M[1:3, 1:3] - ref).max() < 1e-14
                assert np.array_equal(M[[0, 3]][:, [0, 3]], np.eye(2))

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
        # with distinct fluxes the inverse starts from the end order, which
        # the concatenated word carries
        colored = BraidWord([*w.moves, *w.inverse().moves])
        assert np.abs(word_to_monodromy(colored, [0.6, 0.7, 0.8, 0.85]).M
                      - np.eye(4)).max() < 1e-13

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


class TestPowers:
    @pytest.mark.parametrize("kind", ["exchange", "encircle"])
    def test_folded_power_matches_the_linear_product(self, rng, kind):
        # sigma_i^p is folded into the colored pair's power; the product of
        # its single half-twists is the reference
        for _ in range(5):
            phis = rng.uniform(0.05, 0.95, 4)
            for power in (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6):
                twists = power if kind == "exchange" else 2 * power
                ref = monodromy([("exchange", 1, int(np.sign(twists)))] * abs(twists), phis)
                M = monodromy([(kind, 1, power)], phis)
                assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_large_power_takes_logarithmic_work(self, monkeypatch):
        # a power of 10**9 from a JSON word squares the pair about 30 times;
        # before, it multiplied 2 * 10**9 blocks
        products = []
        matmul = np.matmul

        def counting(*args, **kwargs):
            products.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(monodromy_module.np, "matmul", counting)
        word = BraidWord.from_json({"moves": [{"encircle": [0, 1], "power": 10 ** 9}]})
        M = word_to_monodromy(word, [0.6, 0.7, 0.8])
        assert 0 < len(products) <= 2 * math.ceil(math.log2(10 ** 9)) + 2
        # each squaring doubles the rounding error, which ends near p x eps
        assert M.stabilization_residual() < 1e-5


class TestColoredRelations:
    def test_braid_relation(self, rng):
        for n in (3, 4):
            for _ in range(10):
                phis = rng.uniform(0.05, 0.95, n)
                i = int(rng.integers(0, n - 2))
                p = int(rng.choice([-1, 1]))
                lhs = monodromy([("exchange", i, p), ("exchange", i + 1, p),
                                 ("exchange", i, p)], phis)
                rhs = monodromy([("exchange", i + 1, p), ("exchange", i, p),
                                 ("exchange", i + 1, p)], phis)
                assert np.abs(lhs - rhs).max() < 1e-14

    def test_far_commutativity(self, rng):
        for _ in range(10):
            phis = rng.uniform(0.05, 0.95, 4)
            p, q = (int(v) for v in rng.choice([-2, -1, 1, 2], 2))
            lhs = monodromy([("exchange", 0, p), ("exchange", 2, q)], phis)
            rhs = monodromy([("exchange", 2, q), ("exchange", 0, p)], phis)
            assert np.abs(lhs - rhs).max() < 1e-14

    def test_coupling_carried_to_end_order(self, rng):
        # M* G(start) M = G(end), relative to |G| |M|^2
        for _ in range(200):
            n = int(rng.integers(2, 6))
            word = BraidWord([Move("exchange" if rng.integers(0, 2) else "encircle",
                                   int(rng.integers(0, n - 1)), int(rng.choice([-2, -1, 1, 2])))
                              for _ in range(int(rng.integers(1, 9)))])
            M = word_to_monodromy(word, rng.uniform(0.05, 0.95, n))
            assert M.pseudo_unitarity_residual() < 1e-14


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
        assert ana.permutation == num.permutation == (0, 2, 1)
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
        assert ana.permutation == num.permutation

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
        assert num.permutation == holonomy_analytic(three_identical_09, combo).permutation

    @pytest.mark.parametrize("moves, perm", [
        ([("exchange", 1, 1)], (0, 2, 1)),
        ([("exchange", 0, 3)], (1, 0, 2)),
        ([("exchange", 0, -1), ("exchange", 1, 1)], (2, 0, 1)),
        ([("encircle", 0, 1), ("exchange", 1, 2)], (0, 1, 2)),
    ])
    def test_permutation_is_the_paths(self, three_identical_09, moves, perm):
        # in fluxon indices, end[k] == start[p[k]], as the numeric route reports
        vc = three_identical_09
        word = BraidWord([Move(*m) for m in moves])
        assert holonomy_analytic(vc, word).permutation == perm
        assert word_to_path(vc, word).closure_permutation() == perm

    def test_flux_equality_is_exact(self):
        # one rule on both routes: a fluxon must land on a fluxon of exactly
        # its flux, however close the two fluxes are
        vc = validate(FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.9, 0.9 + 1e-13]))
        word = BraidWord([Move("exchange", 1)])
        with pytest.raises(ClosedPathRequired):
            holonomy_analytic(vc, word)
        with pytest.raises(ClosedPathRequired):
            holonomy(vc, word_to_path(vc, word))

    @pytest.mark.parametrize("positions, fluxes, moves", [
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.6, 0.7, 0.8],
         [("exchange", 0, 1), ("encircle", 1, 1), ("exchange", 0, -1)]),
        ([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.7, 0.7, 0.8], [("exchange", 0, 1)]),
        ([0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 2.3j], [0.9, 0.75, 0.8, 0.7],
         [("encircle", 0, -1), ("exchange", 2, 1), ("exchange", 2, 1)]),
    ], ids=["pure_braid", "equal_pair_exchange", "four_strands"])
    def test_colored_words_match_transport(self, positions, fluxes, moves):
        # braids on distinct fluxes: the colored monodromy against the
        # numeric transport of the loop the word describes
        ode_tol = 1e-10
        vc = validate(FluxConfig(positions, fluxes))
        word = BraidWord([Move(*m) for m in moves])
        ana = holonomy_analytic(vc, word)
        num = holonomy(vc, word_to_path(vc, word), ode_tol=ode_tol)
        assert np.abs(num.u - ana.u).max() < 10 * ode_tol
        assert ana.permutation == num.permutation


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
