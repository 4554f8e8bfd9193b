"""Shared quadrature primitives.

Gauss-Legendre and Gauss-Jacobi rules with node caching, plus a small
adaptive panel integrator for vector-valued complex line integrals.
Everything here is deterministic for given inputs: panels are refined in
a fixed worst-first order and sums run in fixed order, so repeated runs
produce identical bits.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .errors import QuadratureNotConverged

_GL_CACHE: dict = {}
_GJ_CACHE: dict = {}


def gauss_legendre(n: int):
    """Nodes and weights on [0, 1]."""
    if n not in _GL_CACHE:
        x, w = leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def gauss_jacobi01(n: int, beta: float):
    """Nodes t and weights w with sum w_i f(t_i) ~= int_0^1 t^beta f(t) dt.

    beta > -1.  The t^beta factor is absorbed into the weights, so f only
    has to supply the smooth part.
    """
    key = (n, round(beta, 14))
    if key not in _GJ_CACHE:
        x, w = roots_jacobi(n, 0.0, beta)
        t = 0.5 * (x + 1.0)
        _GJ_CACHE[key] = (t, w * 0.5 ** (beta + 1.0))
    return _GJ_CACHE[key]


def integrate_panels(f, tol: float, *, breakpoints=None):
    """Adaptive panel integration of a vector-valued f over t in [0, 1].

    f(t_array) must return an array of shape (len(t), m).  Each panel is
    estimated with 24- and 48-node Gauss rules; the worst panel is bisected,
    at most 2000 times, until the summed discrepancy drops below
    tol * max(1, |result|).

    Returns (result, error_estimate) with result of shape (m,).
    Raises QuadratureNotConverged when the panel budget runs out.
    """
    def panel_value(a, b, n):
        t, w = gauss_legendre(n)
        vals = f(a + (b - a) * t)
        return (b - a) * (w[:, None] * vals).sum(axis=0)

    if breakpoints:
        pts = sorted({0.0, 1.0, *(float(b) for b in breakpoints if 0.0 < b < 1.0)})
    else:
        pts = [0.0, 1.0]
    panels = list(zip(pts[:-1], pts[1:]))
    cache: dict = {}

    for _ in range(2000):
        total = None
        errs = []
        for a, b in panels:
            if (a, b) not in cache:
                coarse = panel_value(a, b, 24)
                fine = panel_value(a, b, 48)
                cache[(a, b)] = (fine, float(np.abs(fine - coarse).max()))
            fine, e = cache[(a, b)]
            total = fine if total is None else total + fine
            errs.append(e)
        err = float(np.sum(errs))
        bound = tol * max(1.0, float(np.abs(total).max()))
        if err <= bound:
            return total, err
        worst = int(np.argmax(errs))
        a, b = panels.pop(worst)
        m = 0.5 * (a + b)
        panels[worst:worst] = [(a, m), (m, b)]
    raise QuadratureNotConverged(
        f"line integral not converged: estimate {err:.3g} > bound {bound:.3g}",
        attained=err,
    )


def trapezoid_angles(m: int):
    """Equispaced angles for periodic (spectrally accurate) integration
    over [0, 2*pi); weights are all 2*pi/m."""
    return 2.0 * np.pi * np.arange(m) / m
