"""Fluxon configurations, mode counting and cut conventions.

A configuration is a set of N point fluxons at positions zeta_a in the
complex plane carrying fluxes Phi_a in units of the flux quantum.  The
total number of zero modes is D = ceil(|Phi_T|) - 1.  A fluxon with
Phi_a > 1 binds n_a = floor(Phi_a) confined modes; subtracting those
leaves reduced fluxes Phi'_a in [0, 1) whose sum controls the number of
free (jointly bound) modes, D_f = max(0, ceil(sum Phi') - 1) <= N - 1.

Every fluxon carries a branch cut for the holomorphic-gauge wave
functions.  We fix the cuts to be rays in the +x direction and order the
fluxons by ascending imaginary part, which is the order in which a large
counter-clockwise circle crosses the cuts.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AmbiguousOrdering,
    CoincidentFluxons,
    NearIntegerFluxon,
    NearIntegerTotalFlux,
    NonpositiveTotalFlux,
)

#: Width of the rejection band around integer (total or single) fluxes.
#: The metric diverges at integer total flux and the quadrature degrades
#: throughout the band, so we refuse instead of silently losing accuracy.
EPS_THRESHOLD = 1e-3

#: Two positions closer than this fraction of the configuration diameter
#: count as coincident.
COINCIDENCE_TOL = 1e-12

#: Two imaginary parts closer than this fraction of the diameter make the
#: cut ordering ambiguous.
IM_TIE_TOL = 1e-9


def _json_real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FluxConfig:
    """Positions (complex) and fluxes (flux-quantum units) of N fluxons."""

    positions: tuple
    fluxes: tuple

    def __init__(self, positions: Sequence[complex], fluxes: Sequence[float]):
        if len(positions) != len(fluxes):
            raise ValueError("positions and fluxes must have the same length")
        if len(positions) == 0:
            raise ValueError("need at least one fluxon")
        object.__setattr__(self, "positions", tuple(complex(z) for z in positions))
        object.__setattr__(self, "fluxes", tuple(float(f) for f in fluxes))

    @property
    def n_fluxons(self) -> int:
        return len(self.fluxes)

    @classmethod
    def from_dict(cls, data: dict) -> "FluxConfig":
        """Build from the JSON layout {"fluxes": [...], "positions": [[x, y], ...]}.
        Raises ValueError for a layout it cannot parse (not an object, a
        missing list, a position that is not [x, y], a coordinate or flux
        that is not a number)."""
        if not isinstance(data, dict):
            raise ValueError("a configuration must be a JSON object")
        try:
            pos = [complex(_json_real(x, "a coordinate"), _json_real(y, "a coordinate"))
                   for x, y in data["positions"]]
            fluxes = [_json_real(f, "a flux") for f in data["fluxes"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed configuration: {exc!r}") from exc
        return cls(pos, fluxes)

    def to_dict(self) -> dict:
        return {
            "fluxes": list(self.fluxes),
            "positions": [[z.real, z.imag] for z in self.positions],
        }


@dataclass(frozen=True)
class ModeCounts:
    """Zero-mode bookkeeping for one configuration.

    D          total number of zero modes, ceil(|Phi_T|) - 1
    D_f        number of free modes, max(0, ceil(sum Phi') - 1)
    n          per-fluxon confined counts, max(0, floor(Phi_a))
    phi_prime  reduced fluxes Phi_a - n_a
    """

    D: int
    D_f: int
    n: tuple
    phi_prime: tuple

    @property
    def phi_prime_total(self) -> float:
        return float(sum(self.phi_prime))

    @property
    def free_modes_ok(self) -> bool:
        """False when the reduced total flux is nonpositive; the free-mode
        construction then needs an analysis we do not attempt."""
        return self.phi_prime_total > 0.0


def cut_factor(phi: float) -> complex:
    """Phase factor exp(-2*pi*i*phi) picked up when crossing a cut downward.

    This is also the Aharonov-Bohm factor for carrying the charge once
    around a flux phi.
    """
    return cmath.exp(-2j * math.pi * phi)


def count_modes(fluxes: Sequence[float]) -> ModeCounts:
    """Mode counting from the fluxes alone.

    Counting is well defined for any real fluxes (for negative total flux
    it counts the opposite-spin sector via |Phi_T|), so no validation is
    required here.
    """
    floats, n, phi_prime = [], [], []
    for f in fluxes:
        f = float(f)
        na = math.floor(f) if f >= 1.0 else 0
        floats.append(f)
        n.append(na)
        phi_prime.append(f - na)
    total = math.fsum(floats)
    D = max(0, math.ceil(abs(total)) - 1) if total != 0.0 else 0
    D_f = max(0, math.ceil(math.fsum(phi_prime)) - 1)
    return ModeCounts(D=D, D_f=D_f, n=tuple(n), phi_prime=tuple(phi_prime))


@dataclass(frozen=True)
class ValidatedConfig:
    """A FluxConfig that passed validation, annotated with its mode counts.

    Immutable; safe to share across threads.
    """

    config: FluxConfig
    counts: ModeCounts

    @property
    def zeta(self) -> np.ndarray:
        return np.array(self.config.positions, dtype=complex)

    @property
    def phi_reduced(self) -> np.ndarray:
        return np.array(self.counts.phi_prime, dtype=float)

    @property
    def n_fluxons(self) -> int:
        return self.config.n_fluxons

    @property
    def diameter(self) -> float:
        if self.n_fluxons == 1:
            return 1.0
        sep = separations(self.zeta)
        return float(sep[np.isfinite(sep)].max())


def separations(z) -> np.ndarray:
    """|z_i - z_j| for every pair of points (complex or real), +inf on the
    diagonal so that min() gives the closest pair.  Needs two points."""
    z = np.asarray(z)
    sep = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(sep, np.inf)
    return sep


def _check_distinct(positions) -> None:
    """CoincidentFluxons unless every pair of positions (complex numbers)
    lies more than COINCIDENCE_TOL x the diameter apart.  The closest pair
    named is the first in row-major order."""
    n = len(positions)
    if n == 1:
        return
    seps = [(abs(positions[i] - positions[j]), i, j) for i in range(n) for j in range(i + 1, n)]
    finite = [d for d, _, _ in seps if d < math.inf]
    if not finite:
        raise ValueError("every separation of the positions overflows the float range")
    diam = max(finite)
    if diam == 0.0:
        raise CoincidentFluxons("all fluxons coincide")
    closest, i, j = min(seps)
    if closest <= COINCIDENCE_TOL * diam:
        raise CoincidentFluxons(
            f"fluxons {i} and {j} are separated by {closest:.3g} "
            f"(< {COINCIDENCE_TOL:g} x diameter {diam:.3g})"
        )


def validate(config: FluxConfig, *, strict: bool = True) -> ValidatedConfig:
    """Validate a configuration and annotate it with mode counts.

    With strict=True (the default, required by every metric/transport
    operation) the total flux must be positive and neither the total flux
    nor any individual flux may sit within EPS_THRESHOLD of a (nonzero)
    integer.  With strict=False only coincidence is checked, which is all
    that mode counting needs.  The checks run in this order: finite
    positions, finite fluxes, coincidence, then the strict flux checks.
    """
    if not all(cmath.isfinite(z) for z in config.positions):
        raise ValueError("positions must be finite")
    fluxes = config.fluxes
    if not all(math.isfinite(f) for f in fluxes):
        raise ValueError("fluxes must be finite")
    _check_distinct(config.positions)
    if strict:
        total = math.fsum(fluxes)
        if total <= 0.0:
            raise NonpositiveTotalFlux(f"total flux {total:.6g} <= 0")
        if abs(total - round(total)) < EPS_THRESHOLD:
            raise NearIntegerTotalFlux(
                f"total flux {total:.6g} lies within {EPS_THRESHOLD:g} of an "
                f"integer; the metric diverges at thresholds")
        for a, f in enumerate(fluxes):
            r = round(f)
            if r != 0 and abs(f - r) < EPS_THRESHOLD:
                raise NearIntegerFluxon(
                    f"flux {a} = {f:.6g} lies within {EPS_THRESHOLD:g} of the integer {r}")
    return ValidatedConfig(config=config, counts=count_modes(fluxes))


def cut_order(vc: ValidatedConfig) -> tuple:
    """Indices of the fluxons in the order in which a large
    counter-clockwise circle crosses their cuts.

    With +x cut rays this is ascending imaginary part.  Ties make the cut
    rays collide and are rejected; the caller is expected to perturb (for
    the metric a rigid rotation is exact, see the scaling law).
    """
    im = vc.zeta.imag[None]
    order = np.argsort(im, axis=1, kind="stable")
    check_cut_gaps(im, order, np.diff(np.take_along_axis(im, order, axis=1), axis=1),
                   np.array([vc.diameter]))
    return tuple(int(i) for i in order[0])


def check_cut_gaps(im, order, gaps, diameters) -> None:
    """The tie check of cut_order on rows already sorted: im (B, N) are
    the imaginary parts, order (B, N) their stable ascending argsort and
    gaps (B, N - 1) the differences of the sorted values.  Raises
    AmbiguousOrdering on the first row with a gap of at most IM_TIE_TOL x
    its diameter."""
    ties = gaps <= IM_TIE_TOL * diameters[:, None]
    if ties.any():
        b, i = np.argwhere(ties)[0]
        prev, nxt = int(order[b, i]), int(order[b, i + 1])
        raise AmbiguousOrdering(
            f"fluxons {prev} and {nxt} share Im zeta = {im[b, prev]:.6g}; "
            f"cut rays would overlap"
        )
