import numpy as np
import pytest

from fluxholo import _quad
from fluxholo._quad import gauss_jacobi01, gauss_kronrod, gauss_legendre, integrate_panels

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
    together, err = integrate_panels(peaks(centers), 1e-11, legs=5)
    for leg, c in enumerate(centers):
        alone, _ = integrate_panels(peaks(centers[leg:]), 1e-11, legs=1)
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


def test_integrand_contract():
    # f takes one array whose len() is the node count, of rows (l, s):
    # benchmark tracers count nodes from exactly this, and each leg starts
    # as the one panel [0, 1]
    seen = []

    def f(ts):
        seen.append(ts)
        return np.ones((len(ts), 1), dtype=complex)

    val, _ = integrate_panels(f, 1e-10, legs=2)
    assert np.allclose(val, 1.0)
    (ts,) = seen
    assert ts.shape == (len(ts), 2) and len(ts) == 2 * 49
    leg, s = ts[:, 0], ts[:, 1]
    assert set(leg) == {0.0, 1.0}
    assert ((0.0 < s) & (s < 1.0)).all()
    assert np.array_equal(s[leg == 0], s[leg == 1])


def test_rounds_evaluate_in_blocks_of_panels(monkeypatch):
    # f never sees more than PANEL_BLOCK panels, and the blocks give the
    # bytes of one call on all of a round's panels
    centers = np.linspace(0.05, 0.95, 54)
    rows = []

    def recording(f):
        def g(ts):
            rows.append(len(ts))
            return f(ts)
        return g

    blocked = integrate_panels(recording(peaks(centers)), 1e-11, legs=54)
    # the first round has one panel per leg
    assert rows[:2] == [_quad.PANEL_BLOCK * 49, 7 * 49]
    assert max(rows) == _quad.PANEL_BLOCK * 49
    monkeypatch.setattr(_quad, "PANEL_BLOCK", 10 ** 6)
    whole = integrate_panels(peaks(centers), 1e-11, legs=54)
    assert blocked[0].tobytes() == whole[0].tobytes()
    assert blocked[1].tobytes() == whole[1].tobytes()


def reference_integrate_panels(f, tol, *, legs):
    """integrate_panels as it refined before its flat panel table: a Python
    loop of np.argmax over the bad legs, then np.insert per array.  The
    oracle of test_flat_panel_table_matches_the_insert_loop."""
    x, fine_w, coarse_w = _quad.gauss_kronrod(24)

    def panel_values(leg, lo, hi):
        width = (hi - lo)[:, None]
        ts = np.empty((len(lo), len(x), 2))
        ts[:, :, 0] = leg[:, None]
        ts[:, :, 1] = lo[:, None] + width * x
        vals = np.concatenate([f(ts[i:i + _quad.PANEL_BLOCK].reshape(-1, 2))
                               for i in range(0, len(lo), _quad.PANEL_BLOCK)])
        vals = vals.reshape(len(lo), len(x), -1)
        coarse = width * np.einsum("pnm,n->pm", vals[:, 1::2], coarse_w)
        fine = width * np.einsum("pnm,n->pm", vals, fine_w)
        return fine, np.abs(fine - coarse).max(axis=1)

    leg, lo, hi = np.arange(legs), np.zeros(legs), np.ones(legs)
    fine, err = panel_values(leg, lo, hi)
    for _ in range(2000):
        starts = np.searchsorted(leg, np.arange(legs))
        total = np.add.reduceat(fine, starts, axis=0)
        error = np.add.reduceat(err, starts)
        bound = tol * np.maximum(1.0, np.abs(total).max(axis=1))
        bad = np.flatnonzero(~(error <= bound))
        if not bad.size:
            return total, error
        ends = np.append(starts[1:], len(lo))
        worst = np.array([starts[i] + int(np.argmax(err[starts[i]:ends[i]])) for i in bad])
        mid = 0.5 * (lo[worst] + hi[worst])
        f_new, e_new = panel_values(np.concatenate([leg[worst], leg[worst]]),
                                    np.concatenate([lo[worst], mid]),
                                    np.concatenate([mid, hi[worst]]))
        right = worst + 1
        lo = np.insert(lo, right, mid)
        hi = np.insert(hi, right, hi[worst])
        leg = np.insert(leg, right, leg[worst])
        fine = np.insert(fine, right, f_new[len(worst):], axis=0)
        err = np.insert(err, right, e_new[len(worst):])
        left = worst + np.arange(len(worst))
        hi[left] = mid
        fine[left] = f_new[:len(worst)]
        err[left] = e_new[:len(worst)]
    raise AssertionError("reference did not converge")


def mixed_legs():
    """An integrand on four legs that refine over several rounds: legs 0
    and 1 carry peaks, leg 2 a unit step at s = 0.2 and 0.7, and leg 3 a
    peak at s = 0.4 whose second call returns NaN on [0.5, 1].  The steps
    sit at the same place in the two halves of leg 2, whose nodes then
    take the same values, so their errors tie exactly; each call appends
    its node array to the returned list."""
    seen = []
    smooth = peaks(np.array([0.3, 0.62, 0.5, 0.4]))

    def f(ts):
        seen.append(ts.copy())
        leg, s = ts[:, 0], ts[:, 1]
        out = smooth(ts)
        step = (leg == 2)
        out[step] = (s[step] * 2.0 % 1.0 > 0.4)[:, None]
        if len(seen) == 2:
            out[(leg == 3) & (s >= 0.5)] = np.nan
        return out

    return f, seen


def test_flat_panel_table_matches_the_insert_loop():
    # several legs bisect in one round, the two halves of leg 2 tie
    # exactly, and the right half of leg 3 starts with a NaN estimate: the
    # flat table picks the same panel as np.argmax in each case and keeps
    # each leg's panels in order
    f, seen = mixed_legs()
    ref = reference_integrate_panels(f, 1e-9, legs=4)
    ref_nodes = list(seen)
    f, seen = mixed_legs()
    new = integrate_panels(f, 1e-9, legs=4)
    assert len(seen) == len(ref_nodes) > 5
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, ref_nodes))
    assert new[0].tobytes() == ref[0].tobytes()
    assert new[1].tobytes() == ref[1].tobytes()
    # what the input is meant to exercise did happen: every leg bisects
    # in the first round, ...
    second = ref_nodes[1]
    assert set(second[:, 0].tolist()) == {0.0, 1.0, 2.0, 3.0}
    # ... the halves of leg 2 take the same values and the first of them
    # is bisected next, ...
    f = mixed_legs()[0]
    f(ref_nodes[0])
    values = f(second)
    halves = [values[(second[:, 0] == 2) & (cut(second[:, 1], 0.5))]
              for cut in (np.less, np.greater_equal)]
    assert halves[0].tobytes() == halves[1].tobytes()
    third = ref_nodes[2]
    assert (third[third[:, 0] == 2, 1] < 0.5).all()
    # ... and the NaN right half of leg 3 is bisected before its finite
    # left half, which holds the peak
    assert np.isnan(values[second[:, 0] == 3]).any()
    assert (third[third[:, 0] == 3, 1] >= 0.5).all()


# QUADPACK's dqk15 on [-1, 1]: the Kronrod nodes from the outermost to the
# centre and their weights
DQK15_NODES = [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
               0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
               0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
               0.207784955007898467600689403773245, 0.0]
DQK15_WEIGHTS = [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714]


def test_gauss_kronrod_rule():
    # Laurie's construction reproduces QUADPACK's 15-node table
    x, w, _ = gauss_kronrod(7)
    assert np.abs(1.0 - 2.0 * x[:8] - DQK15_NODES).max() <= 2e-15
    assert np.abs(2.0 * w[:8] - DQK15_WEIGHTS).max() <= 2e-15
    # the 49-node rule of the panels embeds the 24-node Gauss rule
    x, wk, wg = gauss_kronrod(24)
    assert len(x) == 49 and np.all(np.diff(x) > 0.0)
    assert np.abs(x[1::2] - gauss_legendre(24)[0]).max() <= 2 * np.spacing(1.0)
    assert wk.min() > 0.0 and wg.min() > 0.0
    # degree 73 and 47, and not one more: int_0^1 t^d dt = 1 / (d + 1), and
    # the shifted Legendre polynomial P_d(2t - 1) integrates to 0 for d > 0
    for d in range(74):
        assert abs(wk @ x ** d - 1.0 / (d + 1.0)) <= 1e-13 / (d + 1.0), d
    for d in range(48):
        assert abs(wg @ x[1::2] ** d - 1.0 / (d + 1.0)) <= 1e-13 / (d + 1.0), d

    def legendre(d, t):
        return np.polynomial.legendre.legval(2.0 * t - 1.0, [0.0] * d + [1.0])

    assert max(abs(wk @ legendre(d, x)) for d in range(1, 74)) <= 1e-14
    assert max(abs(wg @ legendre(d, x[1::2])) for d in range(1, 48)) <= 1e-14
    assert abs(wk @ legendre(74, x)) > 1e-6 and abs(wg @ legendre(48, x[1::2])) > 1e-3


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
