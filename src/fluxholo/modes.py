"""Pointwise evaluation of free zero-mode wave functions.

In the holomorphic gauge the fundamental solution is
psi_0(z) = prod_a (z - zeta_a)^(-phi'_a), analytic off the cut rays.
Every free mode is P(z) psi_0(z) with P a polynomial of degree < D_f.
The gauge-invariant density |P|^2 prod |z - zeta_a|^(-2 phi'_a) needs no
branch bookkeeping; mode values do, and the default sheet measures every
argument in (0, 2*pi) from the +x cut direction.

log_psi0 is the one evaluation of psi_0 on the default sheet: mode
values, densities and the contour legs of the metric (metric._Legs) all
call it.  For analytic continuation along a path we accumulate the
unwound angle around each fluxon instead of recomputing principal
values, which makes monodromy factors exact by construction; that code,
like the closed forms' cut_power, stays separate so that it can check
the sheet convention independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ValidatedConfig
from .errors import EvaluationAtFluxon, OnCut

TWO_PI = 2.0 * np.pi


def cut_angle(w):
    """Argument of w measured from the +x cut direction, in [0, 2*pi)."""
    a = np.angle(w)
    return np.where(a < 0.0, a + TWO_PI, a)


def log_psi0(w, phis):
    """log psi_0 = -sum_b phi'_b (log|w_b| + i cut_angle(w_b)) on the
    default sheet, summed over the last axis of w = xi - zeta_b."""
    return -(phis * (np.log(np.abs(w)) + 1j * cut_angle(w))).sum(axis=-1)


def cut_power(w, p):
    """w**p on the default sheet (argument in [0, 2*pi))."""
    w = np.asarray(w, dtype=complex)
    return np.exp(p * (np.log(np.abs(w)) + 1j * cut_angle(w)))


@dataclass(frozen=True)
class BranchSheet:
    """Per-fluxon additive argument offsets selecting the branch of each
    (z - zeta_a)^(-phi'_a) factor.  The default sheet has all offsets 0."""

    offsets: tuple


@dataclass(frozen=True)
class ModeVector:
    """Coefficients p_j of the polynomial P(z) = sum_j p_j z^j."""

    coefficients: tuple

    def __init__(self, coefficients: Sequence[complex]):
        coeffs = tuple(complex(c) for c in coefficients)
        if len(coeffs) == 0:
            raise ValueError("a mode vector needs at least one coefficient")
        if all(c == 0 for c in coeffs):
            raise ValueError("a mode vector must not be identically zero")
        object.__setattr__(self, "coefficients", coeffs)

    def polyval(self, z):
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc


def _offsets(z, vc: ValidatedConfig):
    """z as an array and w = z - zeta_b along a new last axis; raises
    EvaluationAtFluxon when a point touches a fluxon."""
    z = np.asarray(z, dtype=complex)
    w = z[..., None] - vc.zeta
    hit = (np.abs(w) <= 1e-13 * vc.diameter).reshape(-1, vc.n_fluxons).any(axis=0)
    if hit.any():
        raise EvaluationAtFluxon(f"evaluation point touches fluxon {int(np.argmax(hit))}")
    return z, w


def density(z, vc: ValidatedConfig, p: ModeVector) -> float:
    """Gauge-invariant (unnormalized) zero-mode density at z.

    |P(z)|^2 prod_a |z - zeta_a|^(-2 phi'_a), with reduced fluxes, so this
    is the free-mode density also in the presence of supercritical
    fluxons.
    """
    z, w = _offsets(z, vc)
    out = np.abs(p.polyval(z)) ** 2 * np.exp(2.0 * log_psi0(w, vc.phi_reduced).real)
    return float(out) if np.isscalar(out) or out.shape == () else out


def mode_value(z, k: int, vc: ValidatedConfig, sheet: BranchSheet | None = None):
    """Value of the k-th monomial mode z^k psi_0(z) on the given sheet.

    Raises OnCut when z lies within 1e-10 (times the configuration
    diameter) of one of the +x cut rays, where the sheet value is ill
    defined.
    """
    if k < 0:
        raise ValueError("monomial degree k must be >= 0")
    z, w = _offsets(z, vc)
    tol = 1e-10 * vc.diameter
    if np.any((np.abs(w.imag) <= tol) & (w.real > 0)):
        raise OnCut(f"point within {tol:.2g} of the cut ray of a fluxon")
    phis = vc.phi_reduced
    offset = 0.0 if sheet is None else float(np.dot(phis, sheet.offsets))
    return z ** k * np.exp(log_psi0(w, phis) - 1j * offset)


def continue_along_path(points, k: int, vc: ValidatedConfig):
    """Analytic continuation of mode_value along a discretized path.

    points is a sequence of complex path samples; consecutive samples must
    subtend less than pi at every fluxon for the unwinding to be
    unambiguous.  Starts on the default sheet at points[0].  Returns the
    array of continued values along the path.
    """
    pts, w = _offsets(points, vc)
    if pts.ndim != 1 or len(pts) < 2:
        raise ValueError("need a 1-d path with at least two samples")
    phis = vc.phi_reduced
    # unwound angles: start from the default sheet, then accumulate
    # principal-value increments of the relative angle step by step
    steps = np.angle(w[1:] / w[:-1])
    theta = np.concatenate([cut_angle(w[0])[None, :],
                            cut_angle(w[0])[None, :] + np.cumsum(steps, axis=0)])
    log_total = -(phis[None, :] * (np.log(np.abs(w)) + 1j * theta)).sum(axis=1)
    return pts ** k * np.exp(log_total)
