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
quadrature for its five stencil points; both continue Psi by Gauss
collocation (_collocate).  Psi starts in the frame of
metric._contour_frame, the rigid rotation that best separates the
imaginary parts, since U does not depend on the row basis; G stays fixed
in that frame's cut order because continuation changes Psi only by
monodromies, which preserve G.  The numeric monodromy that holonomy
reports is expressed in the rows of that frame, which may order the
fluxons differently from the configuration's own cut order.

The transport ODE is linear, dPsi/dt = Psi A(t)^T, and an in-house
adaptive stepper integrates it: a 5-stage Gauss-Legendre collocation step
(order 10) whose error estimate is its difference from the 4-stage
collocation step (order 8) on that rule's own Gauss nodes (_collocate).
The nine node positions of a step go to _gauss_manin as one batch.  When
D_f = N - 1 the connection is flat and U(t) = Psi~(t)^{-1} Psi~(0), so
only Psi is integrated; otherwise U advances by the same step.  ode_tol
bounds the error estimate of each step at ode_tol / 10 (see
_TransportProblem.solve).  The package needs no ODE library.
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
from ._quad import gauss_legendre
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
# the transport ODE: a 10th-order Gauss collocation stepper
# --------------------------------------------------------------------------

#: Stages of a transport step.  s-stage Gauss-Legendre collocation has
#: order 2s; its error estimate is the (s - 1)-stage companion's.
_STAGES = 5


def _collocation(stages: int):
    """Nodes c, Butcher matrix and weights of Gauss-Legendre collocation on
    [0, 1]: entry (i, j) of the matrix is the integral from 0 to c_i of the
    Lagrange polynomial of c_j, taken by the Gauss rule on [0, c_i] with
    the polynomial in product form, so each coefficient holds to rounding;
    the weights are the same integrals from 0 to 1."""
    c, w = gauss_legendre(stages)
    upper = np.append(c, 1.0)
    t = upper[:, None] * c                                   # t[i, k] = upper_i c_k
    off = ~np.eye(stages, dtype=bool)
    ratio = (t[..., None, None] - c) / np.where(off, c[:, None] - c, 1.0)
    lagrange = np.where(off, ratio, 1.0).prod(axis=-1)      # [i, k, j]: l_j(t[i, k])
    integrals = upper[:, None] * np.einsum("k,ikj->ij", w, lagrange)
    return c, integrals[:-1], integrals[-1]


def _rules(*stages: int):
    """Gauss-Legendre collocation rules of the given stage counts as one
    system on all their nodes: the nodes, the block-diagonal Butcher matrix
    and the weights of each rule (one row per rule)."""
    rules = [_collocation(s) for s in stages]
    nodes = np.concatenate([c for c, _, _ in rules])
    butcher, weights = np.zeros((len(nodes), len(nodes))), np.zeros((len(rules), len(nodes)))
    end = np.cumsum(stages)
    for r, (_, a, w) in enumerate(rules):
        block = slice(end[r] - stages[r], end[r])
        butcher[block, block], weights[r, block] = a, w
    return nodes, butcher, weights


#: The transport's step, of order 10 with its order-8 companion, and the
#: curvature map's, of order 6 on the three Gauss nodes.
_STEP_RULE, _MAP_RULE = _rules(_STAGES, _STAGES - 1), _rules(3)


def _collocate(y0, b, h: float, rule):
    """The change Y(h) - y0 for Y' = Y B(t), Y(0) = y0, by each rule of a
    _rules system (shape (..., rules, n, m)), summed from the slopes, so it
    carries no rounding of y0; with the stage values Y_i and slopes Y_i B_i,
    from B at the system's nodes (shape (..., nodes, m, m)).  Leading axes
    of b are a batch of steps of length h, against which y0 (..., n, m)
    broadcasts; each row equals the single call bit for bit.  The stages of
    all rules come from one linear solve: Y_i = y0 + h sum_j a_ij Y_j B_j."""
    _, butcher, weights = rule
    s, m = b.shape[-3], b.shape[-1]
    # block (j, i) is h a_ij B_j; the stages side by side solve
    # (Y_1 ... Y_s) (I - blocks) = (y0 ... y0), taken transposed
    blocks = (h * butcher.T[:, :, None, None] * b[..., None, :, :]).swapaxes(-3, -2)
    lhs = np.eye(s * m) - blocks.reshape(*b.shape[:-3], s * m, s * m)
    stages = np.linalg.solve(lhs.swapaxes(-1, -2), np.tile(y0, s).swapaxes(-1, -2))
    stages = stages.reshape(*stages.shape[:-2], s, m, -1).swapaxes(-1, -2)
    slopes = stages @ b
    return h * np.einsum("ri,...ikl->...rkl", weights, slopes), stages, slopes


#: A step never claims less than the rounding of the Gauss-Manin matrices
#: it rests on, about 32 eps relative on the encircle loop.
_ROUNDOFF = 64.0 * float(np.finfo(float).eps)
#: Smallest step, as a fraction of a path segment's parameter.
_MIN_STEP = 1e-10
#: Share of ode_tol that one step may spend.
_LOCAL_SHARE = 0.1


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
    integrated.  Otherwise U advances by the same step.

    nfev counts the Gauss-Manin evaluations, nine per attempted step (at
    the step's nodes); n_steps counts the accepted steps."""

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
        self.check_guard(0, np.zeros(1), path.start[None])

    def metric(self, psi) -> np.ndarray:
        f = psi[:, :self.dim] * self.scale
        return f.conj().T @ self.G @ f

    def check_guard(self, index: int, s, z) -> None:
        """CollisionGuardTripped if two fluxons are closer than the guard at
        any of the positions z (k, N), at parameters s on segment index."""
        gaps = np.abs(z[:, :, None] - z[:, None, :]) + self.diagonal
        close = gaps.min(axis=(1, 2)) < self.guard
        if close.any():
            t = (index + s[np.argmax(close)]) / len(self.path.segments)
            raise CollisionGuardTripped(
                f"fluxons within {self.guard:g} of each other at t = {t:.4f}")

    def generators(self, index: int, s: float, h: float) -> np.ndarray:
        """A^T at the nodes of _STEP_RULE on [s, s + h] of segment index, from
        one _gauss_manin batch.  The collision guard is checked at each node
        and at the step's end, which needs its position alone."""
        nodes = s + h * np.append(_STEP_RULE[0], 1.0)
        z, v = self.path.segments[index].states(nodes)
        self.check_guard(index, nodes, z)
        self.nfev += len(nodes) - 1
        return np.einsum("ia,iakj->ijk", v[:-1], _gauss_manin(z[:-1], self.phis))

    def step(self, index: int, s: float, h: float, psi, u):
        """Psi and U (None when flat) after one collocation step over
        [s, s + h] on segment index, and the larger difference of the two
        from the companion's, relative to max(1, ||Psi||) and max(1, ||U||).
        K at a stage comes from Psi's stage value Y_i and slope Y_i A_i^T,
        so the U^T equation, (U^T)' = U^T K^T, steps on the same nodes."""
        change, stages, slopes = _collocate(psi, self.generators(index, s, h), h, _STEP_RULE)
        ends = psi + change
        err = _relative(ends[0] - ends[1], psi)
        if u is None:
            return ends[0], None, err
        f = stages[:, :, :self.dim]
        left = f.conj().transpose(0, 2, 1) @ self.G
        k = -np.linalg.solve(left @ f, left @ slopes[:, :, :self.dim])
        u_ends = u.T + _collocate(u.T, k.transpose(0, 2, 1), h, _STEP_RULE)[0]
        return ends[0], u_ends[0].T, max(err, _relative(u_ends[0] - u_ends[1], u))

    def solve(self, ode_tol: float):
        """(Psi(1), U(1)) for U(0) = identity.

        Each segment of the path is integrated on its own parameter, so no
        step straddles a joint, where the velocity jumps.  A step (see
        step) is accepted when its error estimate is at most ode_tol / 10;
        the next step is scaled by 0.9 (bound / error)^(1/(2 _STAGES - 1)),
        between 0.2x and 4x.  The estimate never reads below _ROUNDOFF, so a
        bound below it (ode_tol below about 1.4e-13) shrinks the step until
        it falls below 1e-10 of a segment, which raises ODEStepUnderflow."""
        bound = _LOCAL_SHARE * ode_tol
        power = 1.0 / (2 * _STAGES - 1)
        psi = self.psi0
        u = None if self.flat else np.eye(self.dim, dtype=complex)
        h = 0.125
        for index in range(len(self.path.segments)):
            s = 0.0
            while s < 1.0:
                last = h >= 1.0 - s
                step = 1.0 - s if last else h
                new_psi, new_u, err = self.step(index, s, step, psi, u)
                err = max(err, _ROUNDOFF)
                if err <= bound:
                    psi, u = new_psi, new_u
                    s = 1.0 if last else s + step
                    self.n_steps += 1
                    h = step * min(4.0, 0.9 * (bound / err) ** power)
                else:
                    h = step * max(0.2, 0.9 * (bound / err) ** power)
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
    down, centre): the metric_fn route of curvature_abelian."""
    right, left, up, down, centre = (math.log(v) for v in g)
    return complex(0.25 * ((right + left + up + down - 4.0 * centre) / h2))


def curvature_abelians(vcs, moving: int, quad_tol: float = 1e-11) -> list:
    """curvature_abelian of each configuration in vcs, one flux
    assignment (ValueError otherwise), from one contour quadrature per
    cell.

    _contour_frames evaluates every cell's contour matrix Psi, with all
    monomial columns, in one batch at quad_tol * 1e-2.  Psi is continued
    along the straight step dz to each off-centre stencil point,
    d Psi / dt = Psi A(t)^T with A = dz D_moving (metric._gauss_manin), by
    one 3-stage Gauss collocation step of order 6 (_collocate, _MAP_RULE),
    batched over the cells and the four steps; |dz D| is about 2e-3, so
    its truncation, O(|dz D|^7), is far below round-off.  The Laplacian
    sums log1p((g_k - g) / g), with g = Psi_f^* G Psi_f at the centre
    (checked for positivity) and g_k - g = 2 Re(d^* G Psi_f) + d^* G d from
    the change d of Psi_f that _collocate returns, so no rounding of Psi or
    g enters the differences.  Positions are not validated again: a step
    of 2e-3 x the closest distance cannot make two fluxons coincide.  A
    batch row equals the single call bit for bit."""
    if len({vc.config.fluxes for vc in vcs}) > 1:
        raise ValueError("a batch of curvature cells needs one flux assignment")
    h, h2 = np.array([_stencil_step(vc, moving) for vc in vcs]).T
    zetas = np.array([vc.zeta for vc in vcs])
    psi, G, err = _contour_frames(vcs[0], zetas, quad_tol * 1e-2)
    dz = h[:, None] * _STENCIL_MOVES
    nodes = _MAP_RULE[0]
    z = np.tile(zetas[:, None, None], (1, len(_STENCIL_MOVES), len(nodes), 1))
    z[..., moving] += nodes * dz[..., None]
    gm = _gauss_manin(z, vcs[0].phi_reduced)[..., moving, :, :]
    b = dz[..., None, None, None] * gm.swapaxes(-1, -2)
    dpsi = _collocate(psi[:, None], b, 1.0, _MAP_RULE)[0][..., 0, :, :1]
    left = dpsi.conj().swapaxes(-1, -2) @ G[:, None]
    dg = (2.0 * (left @ psi[:, None, :, :1]).real + (left @ dpsi).real)[..., 0, 0]
    g = _frame_metrics(psi[..., :1], G, err)[0][:, 0, 0].real
    return (0.25 * np.log1p(dg / g[:, None]).sum(axis=1) / h2 + 0j).tolist()


def curvature_abelian(vc: ValidatedConfig, moving: int, quad_tol: float = 1e-11,
                      metric_fn=None) -> complex:
    """Adiabatic curvature coefficient d dbar log g in the moving fluxon's
    coordinate (D_f = 1 only), via the five-point Laplacian with step
    h = 2e-3 x the closest fluxon distance.

    By default this is curvature_abelians of a batch of one: one contour
    quadrature at quad_tol * 1e-2, continued to the four off-centre points
    by one collocation step of the Gauss-Manin connection.  metric_fn
    optionally replaces that by any positions -> scalar g callable (e.g. a
    closed form), called once per stencil point: the moving fluxon moved
    by h, -h, ih, -ih and 0."""
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
