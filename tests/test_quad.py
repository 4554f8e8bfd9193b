import numpy as np
import pytest

from fluxholo._quad import gauss_jacobi01, integrate_panels

EPS = 1e-2


def peaks(centers):
    """Leg l carries 1 / ((s - c_l)^2 + EPS^2) and s times it, at the
    leg-local s of each node row (l, s)."""
    def f(ts):
        leg = ts[:, 0].astype(int)
        s = ts[:, 1]
        v = 1.0 / ((s - centers[leg]) ** 2 + EPS ** 2)
        return np.column_stack([v, s * v]).astype(complex)
    return f


def exact(c):
    at = np.arctan((1.0 - c) / EPS) + np.arctan(c / EPS)
    return np.array([at / EPS,
                     0.5 * np.log(((1.0 - c) ** 2 + EPS ** 2) / (c ** 2 + EPS ** 2)) + c * at / EPS])


def test_batched_legs_match_each_leg_alone():
    # legs share rounds but not panels: each converges to what it gets
    # alone, within its estimate
    centers = np.array([0.3, 0.71, 0.5, 0.02, 0.9])
    together, err = integrate_panels(peaks(centers), 1e-11, breakpoints=[2.5], legs=5)
    for leg, c in enumerate(centers):
        alone, _ = integrate_panels(peaks(centers[leg:]), 1e-11,
                                    breakpoints=[0.5] if leg == 2 else [], legs=1)
        ref = exact(c)
        assert np.abs(together[leg] - alone[0]).max() < 1e-13 * np.abs(ref).max()
        assert np.abs(together[leg] - ref).max() <= err[leg] + 1e-14 * np.abs(ref).max()


def test_identical_legs_agree_wherever_they_sit():
    # every leg gets its nodes as (l, s), so leg 5524 sees the nodes of leg
    # 0; on the stacked t = l + s it deviated by 7.4e-14 relative
    legs = 5525
    together, _ = integrate_panels(peaks(np.full(legs, 0.3)), 1e-12, legs=legs)
    scale = np.abs(together[0]).max()
    assert np.abs(together - together[0]).max() <= 2e-15 * scale


def test_integrand_and_breakpoint_contract():
    # f takes one array whose len() is the node count (rows (l, s)), and
    # breakpoints are flat floats on the stacked axis t = l + s: benchmark
    # tracers count nodes and initial panels from exactly these
    seen = []

    def f(ts):
        seen.append(ts)
        return np.ones((len(ts), 1), dtype=complex)

    val, _ = integrate_panels(f, 1e-10, breakpoints=[0.5, 1.25], legs=2)
    assert np.allclose(val, 1.0)
    (ts,) = seen
    assert ts.shape == (len(ts), 2) and len(ts) == 4 * 72
    leg, s = ts[:, 0], ts[:, 1]
    assert set(leg) == {0.0, 1.0}
    assert ((0.0 < s) & (s < 1.0)).all()
    # the initial panels of leg 0 meet at s = 0.5, those of leg 1 at 0.25
    for lg, cut in ((0, 0.5), (1, 0.25)):
        mine = s[leg == lg]
        assert (mine < cut).sum() == (mine > cut).sum() == 72


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
