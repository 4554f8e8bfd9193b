import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fluxholo import (
    FluxConfig,
    elliptic_k,
    hyp2f1_reg,
    log_gamma,
    metric_half_fluxes,
    primitive_matrix,
    three_fluxon_primitive_matrix,
    validate,
)
from fluxholo.errors import PoleAtNonpositiveInteger, SingularAtCollision, SingularAtOne
from scipy.special import gamma


def k_quadrature_oracle(m):
    """Defining integral int_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt, real m < 1."""
    val, _ = quad(lambda t: (1.0 - m * math.sin(t) ** 2) ** -0.5, 0.0, math.pi / 2,
                  epsabs=1e-14, epsrel=1e-14)
    return val


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-15

    def test_at_half(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_complex_point(self):
        # frozen 30-digit arbitrary-precision reference
        ref = 0.785346958073822388758400145144 + 2.58301292511526224859133403095j
        assert abs(log_gamma(3.7 + 2.1j) - ref) < 1e-12 * abs(ref)

    def test_exp_recovers_gamma(self, rng):
        for _ in range(25):
            z = complex(rng.uniform(0.2, 5), rng.uniform(-3, 3))
            assert abs(np.exp(log_gamma(z)) - complex(gamma(z))) < 1e-12 * abs(gamma(z))

    def test_pole(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            log_gamma(-3.0)


class TestHyp2F1Reg:
    def test_zero_argument(self):
        assert abs(hyp2f1_reg(0.3, 0.7, 1.45, 0.0) - 1.0 / gamma(1.45)) < 1e-14

    def test_zero_parameter(self):
        assert abs(hyp2f1_reg(0.0, 0.7, 1.45, 0.62) - 1.0 / gamma(1.45)) < 1e-14

    def test_contiguous_relation(self, rng):
        # (c-a) F(a-1) + (2a-c+(b-a)z) F(a) + a(z-1) F(a+1) = 0
        worst = 0.0
        for _ in range(30):
            a = rng.uniform(0.1, 1.9)
            b = rng.uniform(0.1, 1.9)
            c = rng.uniform(0.3, 2.5)
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            f = lambda aa: hyp2f1_reg(aa, b, c, z)
            r = (c - a) * f(a - 1) + (2 * a - c + (b - a) * z) * f(a) + a * (z - 1) * f(a + 1)
            worst = max(worst, abs(r) / abs(f(a)))
        assert worst < 1e-8

    def test_nonpositive_integer_c_is_finite(self):
        # continuous limit of F(a, b; c; z) / Gamma(c) as c -> 0
        direct = hyp2f1_reg(0.4, 0.9, 0.0, 0.3 + 0.2j)
        nearby = hyp2f1_reg(0.4, 0.9, 1e-7, 0.3 + 0.2j)
        assert abs(direct - nearby) < 1e-5 * abs(direct)

    def test_matches_mpmath_on_closed_form_families(self, rng):
        # the parameters three_fluxon_primitive_matrix passes, with equal
        # fluxes (c = 2b) and |u| near 1 in half of the draws, where scipy's
        # real-parameter route alone misses by up to 5e-2
        cases = [(0.5, 0.5, 1.0, 1.0 / (0.3 + 0.9j))]
        for _ in range(60):
            f1, f2, f3 = rng.uniform(0.01, 0.999, 3)
            if rng.random() < 0.5:
                f2 = f1
            u = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.05, 2.0) * rng.choice([-1, 1]))
            if rng.random() < 0.5:
                u = rng.uniform(0.88, 1.12) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            for j in (0, 1):
                cases += [(f3, 1 + j - f1, 2 + j - f1 - f2, 1.0 / u),
                          (f2, 1 + j - f1, 2 + j - f1 - f3, u)]
        with mpmath.workdps(30):
            for a, b, c, z in cases:
                ref = complex(mpmath.hyp2f1(a, b, c, z) / mpmath.gamma(c))
                assert abs(hyp2f1_reg(a, b, c, z) - ref) < 1e-10 * abs(ref), (a, b, c, z)

    def test_outside_unit_disk(self):
        # principal-sheet evaluation off the cut [1, inf)
        v = hyp2f1_reg(0.5, 0.4, 1.3, 2.5 + 1.5j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


class TestEllipticK:
    def test_at_zero(self):
        assert abs(elliptic_k(0.0) - math.pi / 2) < 1e-15

    def test_parameter_convention_at_half(self):
        # the quadrature oracle fixes the convention: parameter-m
        assert abs(elliptic_k(0.5) - 1.8540746773013719) < 1e-13
        assert abs(elliptic_k(0.5).real - k_quadrature_oracle(0.5)) < 1e-12

    def test_negative_parameter(self):
        assert abs(elliptic_k(-1.0).real - k_quadrature_oracle(-1.0)) < 1e-12
        assert abs(elliptic_k(-1.0).imag) < 1e-15

    def test_hypergeometric_identity(self, rng):
        # K(m) = (pi/2) 2F1(1/2, 1/2; 1; m)
        for _ in range(20):
            m = complex(rng.uniform(-2, 0.9), rng.uniform(-1.5, 1.5))
            ref = (math.pi / 2) * hyp2f1_reg(0.5, 0.5, 1.0, m) * gamma(1.0)
            assert abs(elliptic_k(m) - ref) < 1e-10 * abs(ref)

    def test_singular_at_one(self):
        with pytest.raises(SingularAtOne):
            elliptic_k(1.0)


class TestThreeFluxonClosedForm:
    def test_first_row_vanishes(self):
        m = three_fluxon_primitive_matrix([0.4, 0.5, 0.6], 0.3 + 0.2j)
        assert np.all(m[0] == 0)

    def test_half_flux_rows_proportional_to_elliptic(self):
        u = 0.3 + 0.4j
        m = three_fluxon_primitive_matrix([0.5, 0.5, 0.5], u)
        assert abs(abs(m[1, 0]) - abs(2.0 / np.sqrt(u) * elliptic_k(1.0 / u))) < 1e-10
        assert abs(abs(m[2, 0]) - abs(2.0 * elliptic_k(u))) < 1e-10

    @pytest.mark.parametrize("u", [0.3 + 0.2j, -0.8 + 0.5j, 1.7 + 0.9j, 0.3 - 0.2j])
    @pytest.mark.parametrize("fluxes", [[0.4, 0.5, 0.6], [0.9, 0.9, 0.9],
                                        [0.5, 0.995, 0.7], [0.5, 0.999, 0.7]])
    def test_matches_contour_integration(self, u, fluxes):
        # contour oracle at a slightly rotated configuration, mapped back by
        # the exact rescaling of the columns
        alpha = 1e-4
        lam = np.exp(1j * alpha)
        vc = validate(FluxConfig([0.0, lam, u * lam], fluxes))
        psi = primitive_matrix(vc, gauge=0.0, tol=1e-13)
        total = sum(fluxes)
        contour = np.empty_like(psi.matrix)
        contour[list(psi.order)] = psi.matrix
        for j in range(contour.shape[1]):
            contour[:, j] *= lam ** (-(j + 1) + total)
        closed = three_fluxon_primitive_matrix(fluxes, u)
        assert np.abs(closed - contour).max() < 1e-8 * np.abs(contour).max()


class TestMetricHalfFluxes:
    def test_value_at_center(self):
        assert abs(metric_half_fluxes(0.5) - 8.0 * elliptic_k(0.5).real ** 2) < 1e-12

    def test_reflection_symmetries(self, rng):
        for _ in range(10):
            u = complex(rng.uniform(-1, 2), rng.uniform(0.05, 1))
            assert abs(metric_half_fluxes(u) - metric_half_fluxes(1.0 - u)) < 1e-11 * metric_half_fluxes(u)
            assert abs(metric_half_fluxes(u) - metric_half_fluxes(np.conj(u))) < 1e-11 * metric_half_fluxes(u)

    def test_positive_and_growing_toward_collisions(self):
        vals = [metric_half_fluxes(u) for u in (0.4, 0.2, 0.1, 0.05, 0.02)]
        assert all(v > 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_singular_points(self):
        with pytest.raises(SingularAtCollision):
            metric_half_fluxes(0.0)
        with pytest.raises(SingularAtCollision):
            metric_half_fluxes(1.0)
