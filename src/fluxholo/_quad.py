"""Shared quadrature primitives.

Gauss-Legendre, Gauss-Kronrod and Gauss-Jacobi rules with node caching,
plus a small adaptive panel integrator that refines a batch of
vector-valued complex line integrals together, each starting as one
panel.
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
_GK_CACHE: dict = {}
#: Most panels per call of the integrand.  47 x 49 = 2303 nodes keep a
#: complex node array of three columns (110 KB) below glibc's default mmap
#: threshold of 128 KB, so a round of many legs does not map and unmap the
#: integrand's temporaries on every call.
PANEL_BLOCK = 47


def gauss_legendre(n: int):
    """Nodes and weights on [0, 1]."""
    if n not in _GL_CACHE:
        x, w = leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def gauss_kronrod(n: int):
    """Nodes x of the (2n + 1)-node Gauss-Kronrod rule on [0, 1], its
    weights, and the weights of the n-node Gauss rule on the nodes x[1::2]
    that it embeds.

    Laurie (Math. Comp. 66, 1997): the Jacobi matrix of the Kronrod rule
    shares the first ceil(3n/2) + 1 Legendre recurrence coefficients
    beta_k and completes the rest from mixed moments, held in the two
    rows s and t.  The Legendre weight is symmetric, so every diagonal
    coefficient alpha_k is zero and drops out.  As in gauss_jacobi01, the
    nodes are the eigenvalues and the weights beta_0 times the squared
    first eigenvector components; both are symmetrized on [-1, 1], as
    leggauss does, before they are mapped to [0, 1].
    """
    if n not in _GK_CACHE:
        k = np.arange(1.0, -(-3 * n // 2) + 1)
        b = np.zeros(2 * n + 1)
        b[0] = 2.0
        b[1:len(k) + 1] = k ** 2 / (4.0 * k ** 2 - 1.0)
        s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
        t[1] = b[n + 1]
        for m in range(n - 1):
            k = np.arange((m + 1) // 2, -1, -1)
            s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
            s, t = t, s
        s[1:] = s[:-1].copy()
        for m in range(n - 1, 2 * n - 2):
            k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
            j = n - 1 - m + k
            s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
            if m % 2:
                b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
            s, t = t, s
        off = np.diag(np.sqrt(b[1:]), 1)
        x, v = np.linalg.eigh(off + off.T)
        w = b[0] * v[0] ** 2
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
        _GK_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w, gauss_legendre(n)[1])
    return _GK_CACHE[n]


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


def integrate_panels(f, tol: float, *, legs: int):
    """Adaptive panel integration of vector-valued line integrals, all legs
    at once.

    Leg l is the integral of f over its local parameter s in [0, 1],
    l < legs.  f(ts) takes an (n, 2) float array of rows (l, s), one per
    node, and returns an array of shape (n, m).  Each node reaches f as its
    leg index and its leg-local s, so every leg sees the same nodes
    whatever its index.

    Each leg starts as the one panel [0, 1].  Each panel is evaluated on
    one 49-node Gauss-Kronrod rule (gauss_kronrod(24)), whose every other
    node is a 24-node Gauss rule.
    A round evaluates the new panels of every leg in calls of f on at most
    PANEL_BLOCK panels each, then bisects the worst panel of each leg
    whose summed discrepancy still exceeds tol * max(1, |its result|), for
    at most 2000 rounds.  f must treat its rows independently: the blocks
    then give the bits of one call.

    The panels form one flat table, grouped by leg and in s order within
    a leg, so a leg's sums run over its panels in order, and a round has
    no loop over legs: the worst panel of every bad leg comes from one
    np.maximum.reduceat and a first-hit searchsorted (the panel np.argmax
    picks: the first maximum, a NaN counting as largest), the left halves
    overwrite the bisected panels in place and one stable permutation
    puts each right half behind its left half.

    The returned value of a leg is the sum of its 49-node values.  Its
    error estimate is that summed discrepancy, the sum over its panels of
    |49-node - 24-node| (largest component): it bounds the error of the
    embedded 24-node rule, not of the returned 49-node value, which it
    overstates by 1.8x to 5e6x against the N = 3 closed form.

    Returns (result, error_estimate) of shapes (legs, m) and (legs,).
    Raises QuadratureNotConverged when a leg runs out of rounds.
    """
    x, fine_w, coarse_w = gauss_kronrod(24)
    # einsum casts real weights to complex on every call; cast once, to the
    # same values
    fine_w, coarse_w = fine_w.astype(complex), coarse_w.astype(complex)

    def panel_values(leg, lo, hi):
        """Fine value and |fine - coarse| of each panel [lo, hi] of its leg.
        Each block of PANEL_BLOCK panels is reduced to its panel sums as
        soon as f returns, so no more than one block's node values live at
        once."""
        fine, coarse = [], []
        for i in range(0, len(lo), PANEL_BLOCK):
            block = slice(i, i + PANEL_BLOCK)
            width = (hi[block] - lo[block])[:, None]
            ts = np.empty((len(width), len(x), 2))
            ts[:, :, 0] = leg[block, None]
            ts[:, :, 1] = lo[block, None] + width * x
            vals = f(ts.reshape(-1, 2)).reshape(len(width), len(x), -1)
            coarse.append(width * np.einsum("pnm,n->pm", vals[:, 1::2], coarse_w))
            fine.append(width * np.einsum("pnm,n->pm", vals, fine_w))
        fine = np.concatenate(fine)
        return fine, np.abs(fine - np.concatenate(coarse)).max(axis=1)

    # the panel table: leg, leg-local ends, fine value and error of each
    # panel, grouped by leg
    first = np.arange(legs)
    leg, lo, hi = np.arange(legs), np.zeros(legs), np.ones(legs)
    fine, err = panel_values(leg, lo, hi)
    for _ in range(2000):
        starts = np.searchsorted(leg, first)
        total = np.add.reduceat(fine, starts, axis=0)
        error = np.add.reduceat(err, starts)
        bound = tol * np.maximum(1.0, np.abs(total).max(axis=1))
        bad = np.flatnonzero(~(error <= bound))
        if not bad.size:
            return total, error
        # the worst panel of each bad leg is its first panel of largest
        # error, a NaN counting as largest, as np.argmax picks it
        peak = np.maximum.reduceat(err, starts)
        hits = np.flatnonzero((err == peak[leg]) | np.isnan(err))
        worst = hits[np.searchsorted(hits, starts[bad])]
        mid = 0.5 * (lo[worst] + hi[worst])
        f_new, e_new = panel_values(np.concatenate([bad, bad]),
                                    np.concatenate([lo[worst], mid]),
                                    np.concatenate([mid, hi[worst]]))
        k = len(worst)
        right = (mid, hi[worst], bad, f_new[k:], e_new[k:])
        # the left halves replace the bisected panels in place, and one
        # stable permutation puts each right half behind its left half
        hi[worst] = mid
        fine[worst] = f_new[:k]
        err[worst] = e_new[:k]
        order = np.argsort(np.concatenate([np.arange(len(lo)), worst]), kind="stable")
        lo, hi, leg, fine, err = (np.concatenate(pair)[order]
                                  for pair in zip((lo, hi, leg, fine, err), right))
    i = bad[0]
    raise QuadratureNotConverged(
        f"line integral not converged: estimate {error[i]:.3g} > bound {bound[i]:.3g}",
        attained=float(error[i]),
    )


def trapezoid_angles(m: int):
    """Equispaced angles for periodic (spectrally accurate) integration
    over [0, 2*pi); weights are all 2*pi/m."""
    return 2.0 * np.pi * np.arange(m) / m
