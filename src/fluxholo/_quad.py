"""Shared quadrature primitives.

Gauss-Legendre and Gauss-Jacobi rules with node caching, plus a small
adaptive panel integrator that refines a batch of vector-valued complex
line integrals together.
Everything here is deterministic for given inputs: panels are refined in
a fixed worst-first order and sums run in fixed order, so repeated runs
produce identical bits.
The Gauss-Jacobi rule is built in numpy by Golub and Welsch (Math. Comp.
23, 1969).  Its moments hold to round-off for every beta > -1, also as
beta -> -1, the radial weight r^(1 - 2 phi') of an edge flux phi' -> 1.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureNotConverged

_GL_CACHE: dict = {}
_GJ_CACHE: dict = {}
_RULES = (24, 48)  # coarse and fine Gauss-Legendre rule of every panel


def gauss_legendre(n: int):
    """Nodes and weights on [0, 1]."""
    if n not in _GL_CACHE:
        x, w = leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def gauss_jacobi01(n: int, beta: float):
    """Nodes t and weights w with sum w_i f(t_i) ~= int_0^1 t^beta f(t) dt.

    beta > -1.  The t^beta factor is absorbed into the weights, so f only
    has to supply the smooth part.  Golub-Welsch: the nodes are the
    eigenvalues of the symmetric Jacobi matrix of (1 + x)^beta mapped to
    [0, 1] (mapping the matrix, not the nodes, spares the small nodes a
    cancellation); the weights are the squared first eigenvector
    components divided by beta + 1, the mass of t^beta.
    """
    key = (n, round(beta, 14))
    if key not in _GJ_CACHE:
        k = np.arange(1.0, n)
        s = 2.0 * k + beta
        diag = np.concatenate([[(beta + 1.0) / (beta + 2.0)],
                               0.5 + 0.5 * beta ** 2 / (s * (s + 2.0))])
        # squared off-diagonal; k = 1 has its factor 1 + beta cancelled
        off2 = k ** 2 * (k + beta) ** 2 / (s ** 2 * (s + 1.0) * (s - 1.0))
        off2[:1] = (beta + 1.0) / ((beta + 2.0) ** 2 * (beta + 3.0))
        off = np.diag(np.sqrt(off2), 1)
        t, v = np.linalg.eigh(np.diag(diag) + off + off.T)
        _GJ_CACHE[key] = (t, v[0] ** 2 / (beta + 1.0))
    return _GJ_CACHE[key]


def integrate_panels(f, tol: float, *, breakpoints=None, legs: int):
    """Adaptive panel integration of vector-valued line integrals, all legs
    at once.

    Leg l is the integral of f over its local parameter s in [0, 1],
    l < legs.  f(ts) takes an (n, 2) float array of rows (l, s), one per
    node, and returns an array of shape (n, m).  Each node reaches f as its
    leg index and its leg-local s, so every leg sees the same nodes
    whatever its index: the stacked parameter t = l + s would round s to
    the spacing of the floats near l (about 1e-12 at l = 5000).

    Panels start at the leg ends and at the breakpoints, a flat list of
    floats on the stacked axis t = l + s (a breakpoint t splits leg
    floor(t) at s = t - floor(t), exactly when s is a multiple of 2^-32 and
    l < 2^21).  Each panel is estimated with 24- and 48-node Gauss rules.
    A round evaluates the new panels of every leg, both rules, in one call
    of f, then bisects the worst panel of each leg whose summed discrepancy
    still exceeds tol * max(1, |its result|), for at most 2000 rounds.

    The error estimate of a leg is that summed discrepancy, the sum over
    its panels of |48-node - 24-node| (largest component): it bounds the
    error of the 24-node rule, not of the returned 48-node value, which
    it overstates by 8x to 5e5x against the N = 3 closed form.

    Returns (result, error_estimate) of shapes (legs, m) and (legs,).
    Raises QuadratureNotConverged when a leg runs out of rounds.
    """
    x = np.concatenate([gauss_legendre(n)[0] for n in _RULES])
    coarse_w, fine_w = (gauss_legendre(n)[1] for n in _RULES)

    def panel_values(leg, lo, hi):
        """Fine value and |fine - coarse| of each panel [lo, hi] of its leg."""
        width = (hi - lo)[:, None]
        ts = np.empty((len(lo), len(x), 2))
        ts[:, :, 0] = leg[:, None]
        ts[:, :, 1] = lo[:, None] + width * x
        vals = f(ts.reshape(-1, 2)).reshape(len(lo), len(x), -1)
        coarse = width * np.einsum("pnm,n->pm", vals[:, :_RULES[0]], coarse_w)
        fine = width * np.einsum("pnm,n->pm", vals[:, _RULES[0]:], fine_w)
        return fine, np.abs(fine - coarse).max(axis=1)

    # panels in t order, hence grouped by leg; then leg-local ends
    pts = np.array(sorted({*map(float, range(legs + 1)),
                           *(float(b) for b in breakpoints or () if 0.0 < b < legs)}))
    leg = pts[:-1].astype(np.intp)
    lo, hi = pts[:-1] - leg, pts[1:] - leg
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
        # the left halves replace the bisected panels
        left = worst + np.arange(len(worst))
        hi[left] = mid
        fine[left] = f_new[:len(worst)]
        err[left] = e_new[:len(worst)]
    i = bad[0]
    raise QuadratureNotConverged(
        f"line integral not converged: estimate {error[i]:.3g} > bound {bound[i]:.3g}",
        attained=float(error[i]),
    )


def trapezoid_angles(m: int):
    """Equispaced angles for periodic (spectrally accurate) integration
    over [0, 2*pi); weights are all 2*pi/m."""
    return 2.0 * np.pi * np.arange(m) / m
