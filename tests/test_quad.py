import numpy as np
import pytest

from fluxholo._quad import gauss_jacobi01, integrate_panels

EPS = 1e-2


def peaks(centers):
    """Leg l = floor(t) carries 1 / ((s - c_l)^2 + EPS^2) and s times it,
    s = t - l."""
    def f(t):
        leg = t.astype(int)
        s = t - leg
        v = 1.0 / ((s - centers[leg]) ** 2 + EPS ** 2)
        return np.column_stack([v, s * v]).astype(complex)
    return f


def exact(c):
    at = np.arctan((1.0 - c) / EPS) + np.arctan(c / EPS)
    return np.array([at / EPS,
                     0.5 * np.log(((1.0 - c) ** 2 + EPS ** 2) / (c ** 2 + EPS ** 2)) + c * at / EPS])


def test_batched_legs_match_each_leg_alone():
    # legs share rounds but not panels: each converges to what it gets
    # alone, up to the rounding of its nodes' offset l, within its estimate
    centers = np.array([0.3, 0.71, 0.5, 0.02, 0.9])
    together, err = integrate_panels(peaks(centers), 1e-11, breakpoints=[2.5], legs=5)
    for leg, c in enumerate(centers):
        alone, _ = integrate_panels(peaks(centers[leg:]), 1e-11,
                                    breakpoints=[0.5] if leg == 2 else [], legs=1)
        ref = exact(c)
        assert np.abs(together[leg] - alone[0]).max() < 1e-13 * np.abs(ref).max()
        assert np.abs(together[leg] - ref).max() <= err[leg] + 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("beta", [-0.998, -0.99, -0.9, -0.6, 0.0, 0.37, 2.5])
def test_gauss_jacobi_moments(beta):
    # int_0^1 t^(beta + p) dt = 1 / (beta + p + 1), at the brute-force rule
    # sizes; beta -> -1 is the radial weight of an edge flux, where the
    # rule of scipy.special.roots_jacobi misses by up to 1.4e-6
    for n in (24, 48, 96, 192, 384):
        t, w = gauss_jacobi01(n, beta)
        for p in (0, 1, 3, 17):
            exact = 1.0 / (beta + p + 1.0)
            assert abs(w @ t ** p - exact) <= 1e-13 * exact, (n, p)
