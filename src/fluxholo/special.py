"""Complex special functions and the three-fluxon closed forms.

The contour-integral matrix for three fluxons at canonical positions
(0, 1, u) reduces to Euler integrals, hence to regularized Gauss
hypergeometric functions; for three half fluxes the scalar metric
collapses further to complete elliptic integrals,

    g(u) = 8 Re( K(u) conj(K(1 - u)) ).

K here uses the parameter convention, K(m) = int_0^{pi/2}
(1 - m sin^2 t)^(-1/2) dt; the choice was calibrated against a direct
two-dimensional quadrature of the metric at u = 1/2 (the modulus
convention misses by ~20%) and is re-checked in the test suite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import hyp2f1 as _hyp2f1
from scipy.special import loggamma as _loggamma
from scipy.special import rgamma as _rgamma

from .errors import (
    NotConverged,
    PoleAtNonpositiveInteger,
    SingularAtCollision,
    SingularAtOne,
    UnsupportedDf,
    UnsupportedN,
)
from .modes import cut_power

#: Convention used by elliptic_k, recorded in CLI output metadata.
ELLIPTIC_CONVENTION = "parameter-m"


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z)."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleAtNonpositiveInteger(f"Gamma pole at z = {z.real:g}")
    return complex(_loggamma(z))


def _is_nonpositive_int(c: complex, tol: float = 1e-9) -> bool:
    return abs(c.imag) < tol and c.real < 0.5 and abs(c.real - round(c.real)) < tol


def hyp2f1_reg(a, b, c, z) -> complex:
    """Regularized Gauss hypergeometric 2F1(a, b; c; z) / Gamma(c).

    Analytic in z off the cut [1, inf) on the principal sheet; remains
    finite for c a nonpositive integer.  Real parameters ride on scipy's
    complex-z implementation, cross-checked against the connection formula
    to 1/z.  scipy is silently wrong by up to 5e-2 for |z| near 1 when
    c = 2b, as in 2F1(1/2, 1/2; 1; z), which the three-fluxon closed form
    reaches for equal fluxes.  The 1/z formula leaves that family; the
    Pfaff transformation z -> z/(z - 1) keeps it and swaps e^(+-i pi/3), so
    it would miss the error there.  Complex parameters, disagreements and
    rescue cases fall back to mpmath at elevated precision.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_int(c):
        # 2F1~(a, b; -n; z) = ((a)_{n+1} (b)_{n+1} / (n+1)!) z^{n+1}
        #                     * 2F1~(a+n+1, b+n+1; n+2; z)
        n = int(round(-c.real))
        poch = 1.0 + 0j
        for i in range(n + 1):
            poch *= (a + i) * (b + i)
        poch /= math.factorial(n + 1)
        return poch * z ** (n + 1) * hyp2f1_reg(a + n + 1, b + n + 1, n + 2, z)
    real_params = max(abs(a.imag), abs(b.imag), abs(c.imag)) == 0.0
    if real_params:
        val = complex(_hyp2f1(a.real, b.real, c.real, z)) * complex(np.exp(-_loggamma(c)))
        if z == 0.0:
            return val
        try:
            alt = _hyp2f1_reg_inverted(a.real, b.real, c.real, z)
        except OverflowError:  # a power of 1/z beyond the float range
            alt = complex("nan")
        if abs(val - alt) <= 1e-12 * abs(val):
            return val
    return _hyp2f1_reg_mp(a, b, c, z)


def _hyp2f1_reg_inverted(a: float, b: float, c: float, z: complex) -> complex:
    """2F1~(a, b; c; z) for real parameters by the connection formula to
    1/z (DLMF 15.8.2); not finite when a - b is an integer."""
    w = 1.0 / z
    return (float(_gamma(b - a)) * float(_rgamma(b)) * float(_rgamma(c - a))
            * (-z) ** (-a) * complex(_hyp2f1(a, a - c + 1.0, a - b + 1.0, w))
            + float(_gamma(a - b)) * float(_rgamma(a)) * float(_rgamma(c - b))
            * (-z) ** (-b) * complex(_hyp2f1(b, b - c + 1.0, b - a + 1.0, w)))


def _hyp2f1_reg_mp(a, b, c, z) -> complex:
    import mpmath as mp

    with mp.workdps(30):
        try:
            val = mp.hyp2f1(a, b, c, z) / mp.gamma(c)
        except (ValueError, ZeroDivisionError, mp.libmp.NoConvergence) as exc:
            raise NotConverged(f"2F1({a}, {b}; {c}; {z}) did not converge: {exc}")
    out = complex(val)
    if not (np.isfinite(out.real) and np.isfinite(out.imag)):
        raise NotConverged(f"2F1({a}, {b}; {c}; {z}) evaluated nonfinite")
    return out


def elliptic_k(m) -> complex:
    """Complete elliptic integral of the first kind, parameter convention.

    K(m) = pi / (2 agm(1, sqrt(1 - m))) with principal square roots, which
    converges quadratically for any complex m off the cut [1, inf).
    """
    m = complex(m)
    if m == 1.0:
        raise SingularAtOne("K diverges at m = 1")
    a, b = 1.0 + 0j, complex(np.sqrt(1.0 - m))
    for _ in range(80):
        if abs(a - b) <= 4e-16 * abs(a):
            return complex(np.pi / (2.0 * a))
        a, b = 0.5 * (a + b), complex(np.sqrt(a * b))
        # keep the AGM on the principal branch: flip the root sign unless
        # it lies in the half plane of the arithmetic mean
        if abs(a - b) > abs(a + b):
            b = -b
    raise NotConverged(f"AGM stalled for m = {m}", attained=abs(a - b))


def metric_half_fluxes(u) -> float:
    """Scalar free-mode metric for fluxes (1/2, 1/2, 1/2) at (0, 1, u)."""
    u = complex(u)
    if u == 0.0 or u == 1.0:
        raise SingularAtCollision("metric diverges when fluxons collide (u in {0, 1})")
    return float(8.0 * (elliptic_k(u) * np.conj(elliptic_k(1.0 - u))).real)


def _fluxes_of(config_or_fluxes):
    fluxes = getattr(getattr(config_or_fluxes, "config", config_or_fluxes),
                     "fluxes", config_or_fluxes)
    return [float(f) for f in fluxes]


def three_fluxon_primitive_matrix(config_or_fluxes, u, n_free: int | None = None) -> np.ndarray:
    """Closed form of the contour-integral matrix for three fluxons at the
    canonical positions (0, 1, u), fiducial point at the first fluxon.

    Row a, column j holds int_0^{zeta_a} xi^j prod_b (xi - zeta_b)^(-phi_b)
    d xi on the default cut sheet (every argument in (0, 2*pi), paths
    approaching the real axis from above).  The first row vanishes because
    the fiducial point sits on the first fluxon.  Derivation: parameterize
    the straight runs 0 -> 1 and 0 -> u and match Euler's integral for
    2F1, keeping cut-sheet phases explicit:

        row2_j = e^{-i pi phi2} (-u)^(-phi3) Gamma(1+j-phi1) Gamma(1-phi2)
                 2F1~(phi3, 1+j-phi1; 2+j-phi1-phi2; 1/u)
        row3_j = e^{-i pi phi2} u^(1+j) u^(-phi1) (-u)^(-phi3)
                 Gamma(1+j-phi1) Gamma(1-phi3)
                 2F1~(phi2, 1+j-phi1; 2+j-phi1-phi3; u)

    with the u powers taken on the cut sheet.  Valid for D_f in {1, 2};
    u must avoid the real segments (0, 1) and [1, inf) where the canonical
    paths degenerate.
    """
    fluxes = _fluxes_of(config_or_fluxes)
    if len(fluxes) != 3:
        raise UnsupportedN("closed forms exist only for three fluxons")
    if n_free is None:
        total = math.fsum(fluxes)
        n_free = max(0, math.ceil(total) - 1)
    if n_free not in (1, 2):
        raise UnsupportedDf(f"closed form needs 1 or 2 free modes, got {n_free}")
    f1, f2, f3 = fluxes
    u = complex(u)
    if u == 0.0 or u == 1.0:
        raise SingularAtCollision("canonical positions collide for u in {0, 1}")
    out = np.zeros((3, n_free), dtype=complex)
    phase = np.exp(-1j * np.pi * f2)
    for j in range(n_free):
        g1 = complex(_gamma(1 + j - f1))
        out[1, j] = (phase * cut_power(-u, -f3) * g1 * complex(_gamma(1 - f2))
                     * hyp2f1_reg(f3, 1 + j - f1, 2 + j - f1 - f2, 1.0 / u))
        out[2, j] = (phase * u ** (1 + j) * cut_power(u, -f1) * cut_power(-u, -f3)
                     * g1 * complex(_gamma(1 - f3))
                     * hyp2f1_reg(f2, 1 + j - f1, 2 + j - f1 - f3, u))
    return out
