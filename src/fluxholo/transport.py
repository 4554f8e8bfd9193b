"""Adiabatic connection, parallel transport and curvature.

Moving the fluxons drags the zero modes along the transport equation

    0 = g dp + (sum_a dzeta_a  d g / d zeta_a) p ,

so the coefficient vector is parallel with respect to the connection
A = g^{-1} (del g), where del is the holomorphic differential in the
fluxon positions.  Holonomy of a closed control loop transports the
whole monomial basis and assembles the D_f x D_f matrix u with
u^* g u = g (the holonomy is unitary in the zero-mode inner product,
not in the coefficient coordinates).

Position derivatives are exact.  With the factorization g = Psi^* G Psi
and the Gauss-Manin connection d_a Psi = Psi D_a^T of the contour matrix
(metric._gauss_manin), d_a g = Psi^* G d_a Psi and the curvature is
algebraic in Psi and its derivatives.  Transport continues Psi along the
path with the same connection, so a whole holonomy costs one contour
quadrature at the start, and a cell of the curvature map one contour
quadrature for its five stencil points.  Psi starts in the frame of
metric._contour_frame, the rigid rotation that best separates the
imaginary parts, since U does not depend on the row basis; G stays fixed
in that frame's cut order because continuation changes Psi only by
monodromies, which preserve G.  The numeric monodromy that holonomy
reports is expressed in the rows of that frame, which may order the
fluxons differently from the configuration's own cut order.

The transport ODE is linear, dPsi/dt = Psi A(t)^T, and an in-house
adaptive stepper integrates it: a 6th-order Magnus step on the three
Gauss-Legendre nodes of each step (_magnus), exponentiated by a [6/6]
Pade approximant with scaling and squaring (_expm).  All node positions
of a step go to _gauss_manin as one batch.  When D_f = N - 1 the
connection is flat and U(t) = Psi~(t)^{-1} Psi~(0), so only Psi is
integrated; otherwise U advances on the same nodes.  ode_tol bounds the
error estimate of each step at ode_tol / 10 (see _TransportProblem.solve).
The package needs no ODE library.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import ValidatedConfig, separations
from .errors import (
    ClosedPathRequired,
    CollisionGuardTripped,
    IllConditionedMetric,
    NumericalError,
    ODEStepUnderflow,
)
from .metric import _contour_frame, _contour_frames, _frame_metrics, _gauss_manin
from .modes import ModeVector

TWO_PI = 2.0 * np.pi


# --------------------------------------------------------------------------
# control paths
# --------------------------------------------------------------------------

def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_fluxon(index: int, base: np.ndarray) -> None:
    if not 0 <= index < len(base):
        raise ValueError(f"fluxon index {index} out of range for {len(base)} fluxons")


@dataclass(frozen=True)
class _Segment:
    """One piece s in [0, 1] -> positions of a control path.

    position(s) is the one place that returns the stored endpoints: an
    exact copy of start at s = 0 and of end at s = 1, pos(s) in between,
    so no trigonometric round-off can open a closed loop."""

    pos: Callable
    vel: Callable
    start: np.ndarray
    end: np.ndarray
    vectorized: bool = False

    def position(self, s: float) -> np.ndarray:
        if s == 0.0:
            return self.start.copy()
        if s == 1.0:
            return self.end.copy()
        return self.pos(s)

    def states(self, s: np.ndarray):
        """Positions and velocities at an array of parameters, one row
        each: one call of pos and vel where they take arrays."""
        if self.vectorized:
            return self.pos(s), self.vel(s)
        return np.array([self.position(x) for x in s]), np.array([self.vel(x) for x in s])


class ControlPath:
    """Piecewise-C^1 path t in [0, 1] -> N fluxon positions.

    Segments share the global parameter equally.  Endpoints are stored
    and returned exactly by _Segment.position, because holonomy is only
    gauge invariant for exactly closed loops.
    """

    def __init__(self, segments: Sequence[_Segment]):
        if not segments:
            raise ValueError("a path needs at least one segment")
        for a, b in zip(segments[:-1], segments[1:]):
            if not np.array_equal(a.end, b.start):
                raise ValueError("path segments do not join exactly")
        self.segments = list(segments)

    # -- construction ------------------------------------------------------

    @staticmethod
    def _as_positions(base) -> np.ndarray:
        if isinstance(base, ValidatedConfig):
            return base.zeta
        return np.array([complex(z) for z in base], dtype=complex)

    @classmethod
    def _turn(cls, base, movers, center: complex, angle: float,
              end: np.ndarray) -> "ControlPath":
        """Rigid turn z -> center + (z - center) e^{i angle s} of the fluxons
        in movers, landing on the stored end.  The arm is zero for the
        others, so whole-array arithmetic keeps them exactly in place
        without the indexing that would slow every ODE step."""
        arm = np.zeros(len(base), dtype=complex)
        arm[movers] = base[movers] - center

        def pos(s):
            return base + arm * (np.exp(1j * angle * s)[..., None] - 1.0)

        def vel(s):
            return arm * (1j * angle * np.exp(1j * angle * s)[..., None])

        return cls([_Segment(pos, vel, base.copy(), end, vectorized=True)])

    @classmethod
    def circle(cls, base, mover: int, center: complex, turns: int = 1,
               radius: float | None = None) -> "ControlPath":
        """mover travels `turns` full counter-clockwise circles (negative
        turns for clockwise) around center, starting and ending at its
        base position."""
        base = cls._as_positions(base)
        _check_fluxon(mover, base)
        if turns == 0 or turns != int(turns):
            raise ValueError("turns must be a nonzero integer")
        center = complex(center)
        r0 = abs(base[mover] - center)
        if r0 == 0.0:
            raise ValueError("mover sits at the circle center")
        if radius is not None and abs(r0 - radius) > 1e-9 * r0:
            raise ValueError("circle radius does not pass through the mover's position")
        return cls._turn(base, [mover], center, TWO_PI * turns, base.copy())

    @classmethod
    def segment(cls, base, mover: int, to: complex) -> "ControlPath":
        base = cls._as_positions(base)
        _check_fluxon(mover, base)
        end = base.copy()
        end[mover] = complex(to)
        step = end - base

        def pos(s):
            return base + step * np.asarray(s)[..., None]

        def vel(s):
            return np.broadcast_to(step, np.shape(s) + step.shape)

        return cls([_Segment(pos, vel, base.copy(), end, vectorized=True)])

    @classmethod
    def exchange(cls, base, i: int, j: int, power: int = 1) -> "ControlPath":
        """Half-turn of two distinct fluxons i and j about their midpoint
        (counter-clockwise for power = +1), landing exactly on the
        swapped positions.  Odd powers swap, even powers return."""
        base = cls._as_positions(base)
        _check_fluxon(i, base)
        _check_fluxon(j, base)
        if i == j:
            raise ValueError(f"an exchange needs two distinct fluxons, got ({i}, {j})")
        if power == 0 or power != int(power):
            raise ValueError("power must be a nonzero integer")
        end = base.copy()
        if power % 2:
            end[i], end[j] = base[j], base[i]
        return cls._turn(base, [i, j], 0.5 * (base[i] + base[j]), np.pi * power, end)

    @classmethod
    def rotation(cls, base, turns: int = 1, center: complex = 0.0) -> "ControlPath":
        """Rigid rotation of the whole configuration about center."""
        base = cls._as_positions(base)
        if turns == 0 or turns != int(turns):
            raise ValueError("turns must be a nonzero integer")
        return cls._turn(base, slice(None), complex(center), TWO_PI * turns, base.copy())

    @classmethod
    def parametric(cls, pos_fn, vel_fn, start, end) -> "ControlPath":
        """Arbitrary smooth segment; pos_fn(s) must equal start / end
        exactly at s = 0 / 1 (they are substituted, not checked)."""
        start = cls._as_positions(start)
        end = cls._as_positions(end)

        def pos(s):
            return np.asarray(pos_fn(s), dtype=complex)

        def vel(s):
            return np.asarray(vel_fn(s), dtype=complex)

        return cls([_Segment(pos, vel, start, end)])

    def then(self, other: "ControlPath") -> "ControlPath":
        return ControlPath(self.segments + other.segments)

    @classmethod
    def from_json(cls, moves: Sequence[dict], base) -> "ControlPath":
        """Path from the JSON move list (0-based fluxon indices):
          {"type": "circle", "mover": a, "center": [x, y],
           "radius": r (optional), "turns": k}
          {"type": "segment", "mover": a, "to": [x, y]}
          {"type": "exchange", "pair": [a, b], "power": k}
        Each move starts from the previous move's final positions.  Raises
        ValueError for moves it cannot parse (an empty list, a missing
        field, a point that is not [x, y], a pair that is not [a, b], an
        index, power or turn count that is not an integer, an unknown type).
        """
        if not isinstance(moves, list):
            raise ValueError("a path needs a list of moves")
        if not moves:
            raise ValueError("a path needs at least one move")
        segments = []
        current = cls._as_positions(base)
        for mv in moves:
            try:
                kind = mv["type"]
                if kind == "circle":
                    piece = cls.circle(current, _json_int(mv["mover"], "mover"),
                                       complex(*mv["center"]),
                                       turns=_json_int(mv.get("turns", 1), "turns"),
                                       radius=mv.get("radius"))
                elif kind == "segment":
                    piece = cls.segment(current, _json_int(mv["mover"], "mover"),
                                        complex(*mv["to"]))
                elif kind == "exchange":
                    i, j = (_json_int(a, "strand") for a in mv["pair"])
                    piece = cls.exchange(current, i, j,
                                         power=_json_int(mv.get("power", 1), "power"))
                else:
                    raise ValueError(f"unknown path move type {kind!r}")
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed path move {mv!r}") from exc
            segments += piece.segments
            current = piece.end
        return cls(segments)

    # -- evaluation ----------------------------------------------------------

    @property
    def start(self) -> np.ndarray:
        return self.segments[0].start.copy()

    @property
    def end(self) -> np.ndarray:
        return self.segments[-1].end.copy()

    def closure_permutation(self):
        """None if the path is open; otherwise the permutation p with
        end[i] == start[p[i]] exactly (identity for plainly closed loops)."""
        s, e = self.start, self.end
        if np.array_equal(s, e):
            return tuple(range(len(s)))
        perm = []
        for z in e:
            hit = np.nonzero(s == z)[0]
            if hit.size != 1:
                return None
            perm.append(int(hit[0]))
        return tuple(perm) if len(set(perm)) == len(s) else None

    def is_closed(self, fluxes=None) -> bool:
        perm = self.closure_permutation()
        if perm is None:
            return False
        if fluxes is None:
            return True
        fluxes = np.asarray(fluxes, dtype=float)
        return bool(np.all(fluxes[list(perm)] == fluxes))

    def _locate(self, t: float):
        n = len(self.segments)
        t = min(max(t, 0.0), 1.0)
        i = min(int(t * n), n - 1)
        return i, t * n - i

    def position(self, t: float) -> np.ndarray:
        i, s = self._locate(t)
        return self.segments[i].position(s)

    def velocity(self, t: float) -> np.ndarray:
        i, s = self._locate(t)
        return self.segments[i].vel(s) * len(self.segments)


# --------------------------------------------------------------------------
# metric derivatives and the connection
# --------------------------------------------------------------------------

def _min_distance(positions) -> float:
    return float(separations(positions).min()) if len(positions) > 1 else 1.0


def guard_distance(vc: ValidatedConfig, collision_guard: float | None) -> float:
    """The closest approach of two fluxons that transport and the curvature
    map accept: collision_guard, or 1e-2 x the diameter when it is None."""
    return 1e-2 * vc.diameter if collision_guard is None else collision_guard


def _metric_jet(vc: ValidatedConfig, tol: float):
    """Free-mode contour matrix psi_f, coupling G, the exact derivatives
    d psi_f / d zeta_a (one per fluxon) and the quadrature error of psi.
    psi keeps every monomial column and is taken in the frame of
    _contour_frame: g, d_a g and the curvature do not depend on the row
    basis."""
    psi, G, err = _contour_frame(vc, tol)
    dpsi = psi[None] @ _gauss_manin(vc.zeta, vc.phi_reduced).transpose(0, 2, 1)
    f = vc.counts.D_f
    return psi[:, :f], G, dpsi[:, :, :f], err


def metric_derivative(vc: ValidatedConfig, a: int, tol: float = 1e-10):
    """Exact d g / d zeta_a = Psi_f^* G d_a Psi_f and its error estimate,
    propagated from the contour quadrature (d_a Psi is linear in Psi, so
    it carries the relative error of Psi)."""
    psi, G, dpsi, err = _metric_jet(vc, tol)
    deriv = psi.conj().T @ G @ dpsi[a]
    return deriv, 2.0 * float(np.abs(G).max()) * float(np.abs(dpsi[a]).max()) * err


def connection(vc: ValidatedConfig, tol: float = 1e-10) -> list:
    """Connection coefficients A_a = g^{-1} (d g / d zeta_a), one D_f x D_f
    matrix per fluxon."""
    psi, G, dpsi, _ = _metric_jet(vc, tol)
    left = psi.conj().T @ G
    g = left @ psi
    cond = np.linalg.cond(g)
    if cond > 1e12:
        raise IllConditionedMetric(f"metric condition number {cond:.3g}")
    return [np.linalg.solve(g, left @ d) for d in dpsi]


# --------------------------------------------------------------------------
# the transport ODE: a 6th-order Magnus stepper
# --------------------------------------------------------------------------

_R15 = math.sqrt(15.0)
_GAUSS = (1, 3, 5)
#: The nodes of a step on [0, 1]: its start and end, the three
#: Gauss-Legendre nodes (at _GAUSS) and 1/3, 2/3 between them.
_NODES = np.array([0.0, 0.5 - _R15 / 10.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.5 + _R15 / 10.0, 1.0])


def _integrated_lagrange(nodes, at) -> np.ndarray:
    """w[i, j] = integral from 0 to at[i] of the Lagrange polynomial of
    nodes[j]; at = nodes gives a collocation method's Butcher matrix."""
    k = np.arange(len(nodes))
    moments = np.asarray(at, dtype=float)[:, None] ** (k + 1) / (k + 1)
    return np.linalg.solve(np.vander(nodes, increasing=True).T, moments.T).T


#: Integrals of the Lagrange polynomials of the Gauss nodes from 0 to each
#: node: the 3-stage Gauss collocation polynomial, whose rows at the Gauss
#: nodes are its Butcher matrix and whose last row holds the Gauss weights.
_COLLOCATION = _integrated_lagrange(_NODES[list(_GAUSS)], _NODES)
#: Against A at the nodes: the Gauss rule minus the rule on the other six
#: nodes (all but the middle one), which is exact for quintics.  On t^6 it
#: is 1.3 times the error of the Gauss rule.
_QUADRATURE_CHECK = np.zeros(len(_NODES))
_QUADRATURE_CHECK[list(_GAUSS)] = _COLLOCATION[-1]
_QUADRATURE_CHECK[[0, 1, 2, 4, 5, 6]] -= _integrated_lagrange(
    _NODES[[0, 1, 2, 4, 5, 6]], [1.0])[0]
#: The rows a1, a2, a3 of _magnus (divided by h), the univariate
#: moments of A at the Gauss nodes, and _QUADRATURE_CHECK: weights on A at
#: the nodes.
_MOMENTS = np.zeros((4, len(_NODES)))
_MOMENTS[0, 3] = 1.0
_MOMENTS[1, [1, 5]] = -_R15 / 3.0, _R15 / 3.0
_MOMENTS[2, [1, 3, 5]] = 10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0
_MOMENTS[3] = _QUADRATURE_CHECK
#: Coefficients of the [6/6] Pade approximant of exp on I, x^2, x^4, x^6:
#: the even part (row 0) and the odd part divided by x (row 1).
_PADE6 = np.array([[1.0, 5.0 / 44.0, 1.0 / 792.0, 1.0 / 665280.0],
                   [1.0 / 2.0, 1.0 / 66.0, 1.0 / 15840.0, 0.0]])
#: A step never claims less than the rounding of the Gauss-Manin matrices
#: it rests on, about 32 eps relative on the encircle loop.
_ROUNDOFF = 64.0 * float(np.finfo(float).eps)
#: Steps shorter than this (of a segment) count the quadrature check per
#: step, longer ones per unit of parameter.
_UNIT_STEP = 1.0 / 256.0
#: Smallest step, as a fraction of a path segment's parameter.
_MIN_STEP = 1e-10
#: Share of ode_tol that one step may spend.
_LOCAL_SHARE = 0.1


def _magnus(a, h: float):
    """Omega_6 and the error estimate for Y' = A(t) Y over one step of
    length h, from A at the step's seven nodes (shape (..., 7, m, m): any
    leading axes are a batch of steps of that length, each row equal to the
    single call bit for bit).

    Omega_6 is the 6th-order Magnus formula on the three Gauss nodes of
    Blanes, Casas, Oteo and Ros, Phys. Rep. 470 (2009) 151, sec. 5.4 (after
    Iserles and Norsett, Phil. Trans. R. Soc. A 357 (1999) 983):
      Omega_6 = a1 + a3/12 + [-20 a1 - a3 + c1, a2 + c2] / 240,
      c1 = [a1, a2],  c2 = -[a1, 2 a3 + c1] / 60.
    Only the Gauss nodes enter Omega_6; the other four enter only the
    estimate, so a caller that does not read it may leave them zero.
    Omega_4 = a1 + a3/12 - c1/12 is its 4th-order companion on the same
    integral of A, and their difference, O(h^5), is the commutator part of
    the error estimate.  The Gauss rule's own error in that integral, the
    whole error of a commuting A (two fluxons, or the trace of A), is
    invisible to every rule on the Gauss nodes alone: any rule on them
    that is exact for cubics is the Gauss rule.  _QUADRATURE_CHECK
    measures it on the other nodes, 1.3 times the true error on t^6.
    Being that sharp, the errors it estimates add up over the steps of a
    segment, so it enters per unit of parameter (not multiplied by h), down
    to steps of _UNIT_STEP; below, it enters per step, so that rounding in
    the node matrices, which does not shrink with h, cannot stall the
    stepper."""
    m = a.shape[-1]
    batch = a.shape[:-3]
    moments = (_MOMENTS @ a.reshape(*batch, len(_NODES), m * m)).reshape(*batch, 4, m, m)
    a1, a2, a3, quadrature = (moments[..., k, :, :] for k in range(4))
    a1, a2, a3 = h * a1, h * a2, h * a3
    c1 = a1 @ a2 - a2 @ a1
    b = 2.0 * a3 + c1
    c2 = (b @ a1 - a1 @ b) / 60.0
    x, y = c1 - a3 - 20.0 * a1, a2 + c2
    tail = (x @ y - y @ x) / 240.0 + c1 / 12.0
    return a1 + (a3 - c1) / 12.0 + tail, tail + quadrature * (h / max(h, _UNIT_STEP))


def _expm(a):
    """exp(a) of small square matrices a (..., m, m), each row of a batch
    equal to the single call bit for bit: the [6/6] Pade approximant of
    a / 2^s, with the 1-norm of a / 2^s at most 1/2, squared s times (s per
    matrix).  There the approximant is exact to about 2e-17 relative
    (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179)."""
    m = a.shape[-1]
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.zeros(norm.shape, dtype=int)
    for i in np.flatnonzero(norm > 0.5):
        s.flat[i] = math.ceil(math.log2(2.0 * norm.flat[i]))
    x = a / (2.0 ** s)[..., None, None]
    powers = np.empty((*a.shape[:-2], 4, m, m), dtype=complex)
    powers[..., 0, :, :] = np.eye(m)
    powers[..., 1, :, :] = x2 = x @ x
    powers[..., 2, :, :] = x4 = x2 @ x2
    powers[..., 3, :, :] = x4 @ x2
    pade = (_PADE6 @ powers.reshape(*a.shape[:-2], 4, m * m)).reshape(*a.shape[:-2], 2, m, m)
    even, odd = pade[..., 0, :, :], x @ pade[..., 1, :, :]
    r = np.linalg.solve(even - odd, even + odd)
    for k in range(s.max(initial=0)):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


def _relative(x, scale) -> float:
    return float(np.abs(x).max()) / max(1.0, float(np.abs(scale).max()))


# --------------------------------------------------------------------------
# parallel transport and holonomy
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HolonomyResult:
    """Coefficient transport p -> u p around a closed loop."""

    u: np.ndarray
    eigenvalues: np.ndarray
    norm_drift: float
    method: str
    n_steps: int = 0
    nfev: int = 0
    permutation: tuple = ()
    metadata: dict = field(default_factory=dict)

    @property
    def eigenphases(self) -> np.ndarray:
        return np.angle(self.eigenvalues)


class _TransportProblem:
    """The contour matrix Psi continued along the path by the Gauss-Manin
    connection, dPsi/dt = Psi A(t)^T with A = sum_a v_a D_a, and the
    transport matrix U of the coefficients, dU/dt = K U with
    K = -g^{-1} Psi_f^* G (dPsi_f/dt) and g = Psi_f^* G Psi_f.  Psi is
    stored divided by its largest entry at the start, which leaves U
    unchanged.

    When every monomial column is free (D_f = N - 1 for fractional
    fluxes) the connection is flat, U(t) = Psi~(t)^{-1} Psi~(0) with Psi~
    the contour matrix without its zero anchor row, and only Psi is
    integrated.  Otherwise U advances on the same nodes.

    nfev counts the Gauss-Manin evaluations: six per attempted step (seven
    for the first step of a segment); n_steps counts the accepted steps."""

    def __init__(self, vc: ValidatedConfig, path: ControlPath,
                 quad_tol: float, collision_guard: float | None):
        if not np.array_equal(path.start, vc.zeta):
            raise ValueError("path must start at the configuration's positions")
        self.path = path
        psi, self.G, _ = _contour_frame(vc, quad_tol)
        self.scale = float(np.abs(psi).max())
        self.psi0 = psi / self.scale
        self.phis = vc.phi_reduced
        self.dim = vc.counts.D_f
        self.flat = self.dim == psi.shape[1]
        self.guard = guard_distance(vc, collision_guard)
        self.diagonal = np.diag(np.full(vc.n_fluxons, np.inf))
        self.nfev = 0
        self.n_steps = 0

    def metric(self, psi) -> np.ndarray:
        f = psi[:, :self.dim] * self.scale
        return f.conj().T @ self.G @ f

    def generators(self, index: int, s: float, h: float, start) -> np.ndarray:
        """A at the seven nodes of [s, s + h] on segment index.  start is A
        at s when a step already ended or began there, else None.  The
        positions of a step go to _gauss_manin as one batch, and the
        collision guard is checked at each of them."""
        nodes = s + h * (_NODES if start is None else _NODES[1:])
        z, v = self.path.segments[index].states(nodes)
        gaps = np.abs(z[:, :, None] - z[:, None, :]) + self.diagonal
        close = gaps.min(axis=(1, 2)) < self.guard
        if close.any():
            t = (index + nodes[np.argmax(close)]) / len(self.path.segments)
            raise CollisionGuardTripped(
                f"fluxons within {self.guard:g} of each other at t = {t:.4f}")
        self.nfev += len(nodes)
        a = np.einsum("ia,iakj->ikj", v, _gauss_manin(z, self.phis))
        return a if start is None else np.concatenate([start[None], a])

    def coefficient_generators(self, a, psi, h: float) -> np.ndarray:
        """K at the nodes of a step from psi at its start, with Psi there
        from the step's 3-stage Gauss collocation polynomial: one linear
        solve for the stages Y_i = psi + h sum_j c_ij Y_j A_j^T.  Its value
        at the end of the step is of 6th order."""
        m = a.shape[-1]
        at = a[list(_GAUSS)].transpose(0, 2, 1)
        butcher = _COLLOCATION[list(_GAUSS)]
        blocks = h * butcher.T[:, :, None, None] * at[:, None]  # (j, i): h c_ij A_j^T
        lhs = np.eye(3 * m) - blocks.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)
        stages = np.linalg.solve(lhs.T, np.tile(psi, 3).T).T
        slopes = stages.reshape(len(psi), 3, m).transpose(1, 0, 2) @ at
        values = psi + h * np.einsum("ij,jkl->ikl", _COLLOCATION, slopes)
        f = values[:, :, :self.dim]
        left = f.conj().transpose(0, 2, 1) @ self.G
        return -np.linalg.solve(left @ f, left @ (values @ a.transpose(0, 2, 1))[:, :, :self.dim])

    def solve(self, ode_tol: float):
        """(Psi(1), U(1)) for U(0) = identity.

        Each segment of the path is integrated on its own parameter, so no
        step straddles a joint, where the velocity jumps.  A step is
        accepted when ||Psi E^T|| relative to max(1, ||Psi||), with E the
        estimate of _magnus (and the same for U), is at most ode_tol / 10;
        the next step is scaled by 0.9 (bound / error)^(1/5), between 0.2x
        and 4x.  The estimate never reads below _ROUNDOFF, so a bound
        below it (ode_tol below about 1.4e-13) shrinks the step until it
        falls below 1e-10 of a segment, which raises ODEStepUnderflow."""
        bound = _LOCAL_SHARE * ode_tol
        psi = self.psi0
        u = None if self.flat else np.eye(self.dim, dtype=complex)
        h = 0.125
        for index in range(len(self.path.segments)):
            s, start = 0.0, None
            while s < 1.0:
                last = h >= 1.0 - s
                step = 1.0 - s if last else h
                a = self.generators(index, s, step, start)
                omega, diff = _magnus(a, step)
                err = _relative(psi @ diff.T, psi)
                if u is not None:
                    k = self.coefficient_generators(a, psi, step)
                    omega_u, diff_u = _magnus(k, step)
                    err = max(err, _relative(diff_u @ u, u))
                err = max(err, _ROUNDOFF)
                if err <= bound:
                    psi = psi @ _expm(omega).T
                    if u is not None:
                        u = _expm(omega_u) @ u
                    s, start = (1.0 if last else s + step), a[-1]
                    self.n_steps += 1
                    h = step * min(4.0, 0.9 * (bound / err) ** 0.2)
                else:
                    start = a[0]
                    h = step * max(0.2, 0.9 * (bound / err) ** 0.2)
                    if h < _MIN_STEP:
                        t = (index + s) / len(self.path.segments)
                        raise ODEStepUnderflow(
                            f"transport step {h:.3g} below {_MIN_STEP:g} of a segment "
                            f"at t = {t:.4f}: ode_tol {ode_tol:g} is out of reach")
        if u is None:
            u = np.linalg.solve(psi[:-1], self.psi0[:-1])
        return psi, u


def _transport(vc: ValidatedConfig, path: ControlPath, ode_tol: float,
               quad_tol: float, collision_guard: float | None):
    if not (math.isfinite(ode_tol) and ode_tol > 0.0):
        raise ValueError(f"ode_tol must be positive and finite, got {ode_tol!r}")
    prob = _TransportProblem(vc, path, quad_tol, collision_guard)
    psi1, u = prob.solve(ode_tol)
    return prob, psi1, u


def parallel_transport(vc: ValidatedConfig, path: ControlPath, p0,
                       ode_tol: float = 1e-8, quad_tol: float = 1e-10,
                       collision_guard: float | None = None):
    """Transport a coefficient vector along a control path.

    Returns (p_final, info); info reports the relative drift of the
    conserved zero-mode norm p^* g p (g at the end from the continued
    contour matrix), the accepted step count and the number of
    Gauss-Manin evaluations.
    """
    coeffs = np.asarray(p0.coefficients if isinstance(p0, ModeVector) else p0,
                        dtype=complex)
    dim = vc.counts.D_f
    if coeffs.shape != (dim,):
        raise ValueError(f"coefficient vector must have length D_f = {dim}")
    prob, psi1, u = _transport(vc, path, ode_tol, quad_tol, collision_guard)
    p1 = u @ coeffs
    n0 = float(np.real(coeffs.conj() @ prob.metric(prob.psi0) @ coeffs))
    n1 = float(np.real(p1.conj() @ prob.metric(psi1) @ p1))
    info = {
        "norm_start": n0,
        "norm_end": n1,
        "norm_drift": abs(n1 - n0) / abs(n0),
        "n_steps": prob.n_steps,
        "nfev": prob.nfev,
    }
    return p1, info


def holonomy(vc: ValidatedConfig, loop: ControlPath,
             ode_tol: float = 1e-8, quad_tol: float = 1e-10,
             collision_guard: float | None = None) -> HolonomyResult:
    """Numeric holonomy of a closed loop: transports the whole monomial
    basis and reports the transport matrix, its eigenvalues and the
    pseudo-unitarity drift |u^* g u - g| / |g|.

    metadata["monodromy"] is the numeric monodromy of the loop on the
    quotient by constants, Psi~(1) Psi~(0)^{-1}, with Psi~ the continued
    contour matrix without its (zero) anchor row.  Its rows are those of
    the transport frame (metric._contour_frame), in that frame's cut order.
    Where that order is the configuration's own, it matches
    reduce_monodromy(word_to_monodromy(...)) of the braid word the loop
    realizes; where the rotation reorders the cuts, it is the same
    monodromy in another basis, and u is unchanged."""
    if not loop.is_closed(vc.config.fluxes):
        raise ClosedPathRequired("holonomy needs an exactly closed loop "
                                 "(same positions, same fluxes)")
    prob, psi1, u = _transport(vc, loop, ode_tol, quad_tol, collision_guard)
    g0 = prob.metric(prob.psi0)
    drift = float(np.abs(u.conj().T @ g0 @ u - g0).max() / np.abs(g0).max())
    monodromy = np.linalg.solve(prob.psi0[:-1].T, psi1[:-1].T).T
    return HolonomyResult(
        u=u,
        eigenvalues=np.linalg.eigvals(u),
        norm_drift=drift,
        method="ode",
        n_steps=prob.n_steps,
        nfev=prob.nfev,
        permutation=loop.closure_permutation(),
        metadata={"ode_tol": ode_tol, "quad_tol": quad_tol, "monodromy": monodromy},
    )


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------

def _stencil_step(vc: ValidatedConfig, moving: int):
    """The step h = 2e-3 x the closest fluxon distance of curvature_abelian's
    stencil and its square; NumericalError when the square leaves the
    float range."""
    if vc.counts.D_f != 1:
        raise ValueError("abelian curvature requires exactly one free mode")
    h = 2e-3 * _min_distance(vc.zeta)
    try:
        h2 = h ** 2
    except OverflowError:
        h2 = math.inf
    if not 0.0 < h2 < math.inf:
        raise NumericalError(f"curvature step {h:g} squared leaves the float range")
    return h, h2


#: The moves of the stencil's off-centre points in units of h, in the
#: order of _laplacian: right, left, up, down (the centre comes last).
_STENCIL_MOVES = np.array([1.0, -1.0, 1j, -1j])


def _laplacian(g, h2: float) -> complex:
    """d dbar log g from the five stencil values of g (right, left, up,
    down, centre)."""
    right, left, up, down, centre = (math.log(v) for v in g)
    return complex(0.25 * ((right + left + up + down - 4.0 * centre) / h2))


def curvature_abelians(vcs, moving: int, quad_tol: float = 1e-11) -> list:
    """curvature_abelian of each configuration in vcs, one flux
    assignment (ValueError otherwise), from one contour quadrature per
    cell.

    _contour_frames evaluates every cell's contour matrix Psi, with all
    monomial columns, in one batch at quad_tol * 1e-2.  Psi at the four
    off-centre stencil points comes from continuing it along the straight
    step to each: d Psi / dt = Psi A(t)^T with A = dz D_moving, the
    Gauss-Manin matrix (metric._gauss_manin) of the moving fluxon times
    the step dz, in one 6th-order Magnus step (_magnus, _expm) on the
    step's three Gauss nodes, batched over the cells and the four steps.
    |dz D| is about 2e-3, so the truncation, O(|dz D|^7), is far below
    round-off.  The five metrics g = Psi_f^* G Psi_f then go to the
    five-point Laplacian.  Positions are not validated again: a step of
    2e-3 x the closest distance cannot make two fluxons coincide.  Every
    step is row by row, so a batch row equals the single call bit for
    bit."""
    if len({vc.config.fluxes for vc in vcs}) > 1:
        raise ValueError("a batch of curvature cells needs one flux assignment")
    h, h2 = np.array([_stencil_step(vc, moving) for vc in vcs]).T
    zetas = np.array([vc.zeta for vc in vcs])
    psi, G, err = _contour_frames(vcs[0], zetas, quad_tol * 1e-2)
    m = psi.shape[-1]
    dz = h[:, None] * _STENCIL_MOVES
    z = np.tile(zetas[:, None, None], (1, len(_STENCIL_MOVES), len(_GAUSS), 1))
    z[..., moving] += _NODES[list(_GAUSS)] * dz[..., None]
    a = np.zeros((*dz.shape, len(_NODES), m, m), dtype=complex)
    a[:, :, list(_GAUSS)] = (dz[..., None, None, None]
                             * _gauss_manin(z, vcs[0].phi_reduced)[..., moving, :, :])
    moved = psi[:, None] @ _expm(_magnus(a, 1.0)[0]).swapaxes(-1, -2)
    frames = np.concatenate([moved, psi[:, None]], axis=1)[..., :1]
    g = _frame_metrics(frames.reshape(-1, *frames.shape[2:]), np.repeat(G, 5, axis=0),
                       np.repeat(err, 5))[0][:, 0, 0].real.tolist()
    return [_laplacian(g[5 * i:5 * i + 5], step2) for i, step2 in enumerate(h2.tolist())]


def curvature_abelian(vc: ValidatedConfig, moving: int, quad_tol: float = 1e-11,
                      metric_fn=None) -> complex:
    """Adiabatic curvature coefficient d dbar log g in the moving fluxon's
    coordinate (D_f = 1 only), via the five-point Laplacian with step
    h = 2e-3 x the closest fluxon distance.

    By default this is curvature_abelians of a batch of one: one contour
    quadrature at quad_tol * 1e-2, continued to the four off-centre points
    by the Gauss-Manin connection.  metric_fn optionally replaces that by
    any positions -> scalar g callable (e.g. a closed form), called once
    per stencil point: the moving fluxon moved by h, -h, ih, -ih and 0."""
    if metric_fn is None:
        return curvature_abelians([vc], moving, quad_tol)[0]
    h, h2 = _stencil_step(vc, moving)
    stencil = []
    for dz in [*(h * _STENCIL_MOVES).tolist(), 0.0]:
        z = vc.zeta.copy()
        z[moving] += dz
        stencil.append(z)
    return _laplacian([metric_fn(z) for z in stencil], h2)


def curvature_nonabelian(vc: ValidatedConfig, pairs=None,
                         quad_tol: float = 1e-11) -> dict:
    """Curvature two-form coefficients R_{b-bar, a} = dbar_b (g^{-1} d_a g)
    as D_f x D_f matrices, for the requested (a, b) coordinate pairs
    (default: all diagonal pairs (a, a)).

    The purely holomorphic part of dA + A wedge A cancels identically, so
    the antiholomorphic derivative of the connection is the whole
    curvature.  With g = Psi^* G Psi and holomorphic Psi it is algebraic:
    R = g^{-1} [(d_b Psi)^* G d_a Psi
                - (d_b Psi)^* G Psi g^{-1} Psi^* G d_a Psi]."""
    psi, G, dpsi, _ = _metric_jet(vc, quad_tol)
    if pairs is None:
        pairs = [(a, a) for a in range(vc.n_fluxons)]
    left = psi.conj().T @ G
    g = left @ psi
    out = {}
    for a, b in pairs:
        db = dpsi[b].conj().T @ G
        inner = db @ dpsi[a] - db @ psi @ np.linalg.solve(g, left @ dpsi[a])
        out[(a, b)] = np.linalg.solve(g, inner)
    return out
