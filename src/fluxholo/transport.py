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
quadrature at the start; G stays fixed in the starting cut order because
continuation changes Psi only by monodromies, which preserve G.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import ValidatedConfig, separations
from .errors import (
    AmbiguousOrdering,
    ClosedPathRequired,
    CollisionGuardTripped,
    IllConditionedMetric,
    NumericalError,
    ODEStepUnderflow,
    StepTooLarge,
)
from .metric import MetricEvaluator, _contour_frame, _gauss_manin, best_rotation_angle
from .modes import ModeVector

TWO_PI = 2.0 * np.pi


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: only the transport
    ODE needs scipy.integrate, which would otherwise add about 49 MB and
    0.6-0.8 s (scipy.special included) to `import fluxholo`, on a 2-vCPU
    VM."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


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
    pos: Callable
    vel: Callable
    start: np.ndarray
    end: np.ndarray


def _snap(fn_value, s, endpoint_value):
    return endpoint_value.copy() if s in (0.0, 1.0) else fn_value


class ControlPath:
    """Piecewise-C^1 path t in [0, 1] -> N fluxon positions.

    Segments share the global parameter equally.  Endpoints are stored
    and returned exactly (no trigonometric round-off at closure), because
    holonomy is only gauge invariant for exactly closed loops.
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
        r0 = base[mover] - center
        if abs(r0) == 0.0:
            raise ValueError("mover sits at the circle center")
        if radius is not None and abs(abs(r0) - radius) > 1e-9 * abs(r0):
            raise ValueError("circle radius does not pass through the mover's position")
        w = TWO_PI * turns

        def pos(s, base=base):
            z = base.copy()
            z[mover] = center + r0 * np.exp(1j * w * s)
            return _snap(z, s, base)

        def vel(s):
            v = np.zeros(len(base), dtype=complex)
            v[mover] = 1j * w * r0 * np.exp(1j * w * s)
            return v

        return cls([_Segment(pos, vel, base.copy(), base.copy())])

    @classmethod
    def segment(cls, base, mover: int, to: complex) -> "ControlPath":
        base = cls._as_positions(base)
        _check_fluxon(mover, base)
        end = base.copy()
        end[mover] = complex(to)
        d = end[mover] - base[mover]

        def pos(s):
            z = base.copy()
            z[mover] = base[mover] + d * s
            return _snap(z, s, end if s == 1.0 else base)

        def vel(s):
            v = np.zeros(len(base), dtype=complex)
            v[mover] = d
            return v

        return cls([_Segment(pos, vel, base.copy(), end)])

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
        c = 0.5 * (base[i] + base[j])
        end = base.copy()
        if power % 2:
            end[i], end[j] = base[j], base[i]
        w = np.pi * power

        def pos(s):
            z = base.copy()
            rot = np.exp(1j * w * s)
            z[i] = c + (base[i] - c) * rot
            z[j] = c + (base[j] - c) * rot
            return _snap(z, s, end if s == 1.0 else base)

        def vel(s):
            v = np.zeros(len(base), dtype=complex)
            rot = 1j * w * np.exp(1j * w * s)
            v[i] = (base[i] - c) * rot
            v[j] = (base[j] - c) * rot
            return v

        return cls([_Segment(pos, vel, base.copy(), end)])

    @classmethod
    def rotation(cls, base, turns: int = 1, center: complex = 0.0) -> "ControlPath":
        """Rigid rotation of the whole configuration about center."""
        base = cls._as_positions(base)
        if turns == 0 or turns != int(turns):
            raise ValueError("turns must be a nonzero integer")
        center = complex(center)
        w = TWO_PI * turns

        def pos(s):
            z = center + (base - center) * np.exp(1j * w * s)
            return _snap(z, s, base)

        def vel(s):
            return 1j * w * (base - center) * np.exp(1j * w * s)

        return cls([_Segment(pos, vel, base.copy(), base.copy())])

    @classmethod
    def parametric(cls, pos_fn, vel_fn, start, end) -> "ControlPath":
        """Arbitrary smooth segment; pos_fn(s) must equal start / end
        exactly at s = 0 / 1 (they are substituted, not checked)."""
        start = cls._as_positions(start)
        end = cls._as_positions(end)

        def pos(s):
            return _snap(np.asarray(pos_fn(s), dtype=complex), s,
                         end if s == 1.0 else start)

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
        ValueError for moves it cannot parse (a missing field, a point that
        is not [x, y], a pair that is not [a, b], an index, power or turn
        count that is not an integer, an unknown type).
        """
        if not isinstance(moves, list):
            raise ValueError("a path needs a list of moves")
        path = None
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
            path = piece if path is None else path.then(piece)
            current = path.end
        return path

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
        return self.segments[i].pos(s)

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
    psi keeps every monomial column and is taken in the best-separated
    rotation frame, as in metric_factorized: g, d_a g and the curvature do
    not depend on the row basis."""
    psi, G, err = _contour_frame(vc, tol, alpha=best_rotation_angle(vc.zeta))
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
    connection, dPsi/dt = sum_a v_a Psi D_a^T, together with the transport
    matrix U of the coefficients, dU/dt = -g^{-1} Psi_f^* G (dPsi_f/dt) U
    with g = Psi_f^* G Psi_f.  Psi is stored divided by its largest entry
    at the start, which leaves U unchanged."""

    def __init__(self, vc: ValidatedConfig, path: ControlPath,
                 quad_tol: float, collision_guard: float | None):
        if not np.array_equal(path.start, vc.zeta):
            raise ValueError("path must start at the configuration's positions")
        self.path = path
        # rotated only when the cut order is tied, so that the rows, and
        # with them holonomy(...).metadata["monodromy"], stay in the
        # configuration's cut order
        try:
            psi, self.G, _ = _contour_frame(vc, quad_tol)
        except AmbiguousOrdering:
            psi, self.G, _ = _contour_frame(vc, quad_tol,
                                            alpha=best_rotation_angle(vc.zeta))
        self.scale = float(np.abs(psi).max())
        self.psi0 = psi / self.scale
        self.phis = vc.phi_reduced
        self.dim = vc.counts.D_f
        self.guard = guard_distance(vc, collision_guard)
        self.nfev = 0

    def metric(self, psi) -> np.ndarray:
        f = psi[:, :self.dim] * self.scale
        return f.conj().T @ self.G @ f

    def rhs(self, t, y):
        self.nfev += 1
        z = self.path.position(t)
        if _min_distance(z) < self.guard:
            raise CollisionGuardTripped(
                f"fluxons within {self.guard:g} of each other at t = {t:.4f}")
        v = self.path.velocity(t)
        n = self.psi0.size
        psi = y[:n].reshape(self.psi0.shape)
        U = y[n:].reshape(self.dim, self.dim)
        dpsi = psi @ np.einsum("a,akj->jk", v, _gauss_manin(z, self.phis))
        left = psi[:, :self.dim].conj().T @ self.G
        dU = -np.linalg.solve(left @ psi[:, :self.dim], left @ dpsi[:, :self.dim] @ U)
        return np.concatenate([dpsi.ravel(), dU.ravel()])

    def solve(self, ode_tol):
        """(Psi(1), U(1), solution) for U(0) = identity."""
        y0 = np.concatenate([self.psi0.ravel(), np.eye(self.dim, dtype=complex).ravel()])
        sol = solve_ivp(self.rhs, (0.0, 1.0), y0, method="DOP853",
                        rtol=ode_tol, atol=ode_tol)
        if sol.status != 0 or not sol.success:
            raise ODEStepUnderflow(f"transport integrator failed: {sol.message}")
        y1 = sol.y[:, -1]
        n = self.psi0.size
        return y1[:n].reshape(self.psi0.shape), y1[n:].reshape(self.dim, self.dim), sol


def parallel_transport(vc: ValidatedConfig, path: ControlPath, p0,
                       ode_tol: float = 1e-8, quad_tol: float = 1e-10,
                       collision_guard: float | None = None):
    """Transport a coefficient vector along a control path.

    Returns (p_final, info); info reports the relative drift of the
    conserved zero-mode norm p^* g p (g at the end from the continued
    contour matrix), the accepted step count and the number of ODE
    right-hand-side evaluations.
    """
    coeffs = np.asarray(p0.coefficients if isinstance(p0, ModeVector) else p0,
                        dtype=complex)
    dim = vc.counts.D_f
    if coeffs.shape != (dim,):
        raise ValueError(f"coefficient vector must have length D_f = {dim}")
    prob = _TransportProblem(vc, path, quad_tol, collision_guard)
    psi1, u, sol = prob.solve(ode_tol)
    p1 = u @ coeffs
    n0 = float(np.real(coeffs.conj() @ prob.metric(prob.psi0) @ coeffs))
    n1 = float(np.real(p1.conj() @ prob.metric(psi1) @ p1))
    info = {
        "norm_start": n0,
        "norm_end": n1,
        "norm_drift": abs(n1 - n0) / abs(n0),
        "n_steps": len(sol.t) - 1,
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
    contour matrix without its (zero) anchor row, in the cut order of the
    start; it matches reduce_monodromy(word_to_monodromy(...)) of the
    braid word the loop realizes."""
    if not loop.is_closed(vc.config.fluxes):
        raise ClosedPathRequired("holonomy needs an exactly closed loop "
                                 "(same positions, same fluxes)")
    prob = _TransportProblem(vc, loop, quad_tol, collision_guard)
    psi1, u, sol = prob.solve(ode_tol)
    g0 = prob.metric(prob.psi0)
    drift = float(np.abs(u.conj().T @ g0 @ u - g0).max() / np.abs(g0).max())
    monodromy = np.linalg.solve(prob.psi0[:-1].T, psi1[:-1].T).T
    return HolonomyResult(
        u=u,
        eigenvalues=np.linalg.eigvals(u),
        norm_drift=drift,
        method="ode",
        n_steps=len(sol.t) - 1,
        nfev=prob.nfev,
        permutation=loop.closure_permutation(),
        metadata={"ode_tol": ode_tol, "quad_tol": quad_tol, "monodromy": monodromy},
    )


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------

def curvature_abelian(vc: ValidatedConfig, moving: int, h: float | None = None,
                      quad_tol: float = 1e-11, metric_fn=None) -> complex:
    """Adiabatic curvature coefficient d dbar log g in the moving fluxon's
    coordinate (D_f = 1 only), via the five-point Laplacian.

    metric_fn optionally replaces the factorized-metric evaluator by any
    positions -> scalar g callable (e.g. a closed form)."""
    if vc.counts.D_f != 1:
        raise ValueError("abelian curvature requires exactly one free mode")
    if metric_fn is None:
        ev = MetricEvaluator(vc.config.fluxes, tol=quad_tol)
        metric_fn = lambda z: float(np.real(ev(z)[0, 0]))
    z0 = vc.zeta
    if h is None:
        h = 2e-3 * _min_distance(z0)
    if h >= 0.5 * _min_distance(z0):
        raise StepTooLarge(f"curvature step {h:g} comparable to fluxon distances")
    try:
        h2 = h ** 2
    except OverflowError:
        h2 = math.inf
    if not 0.0 < h2 < math.inf:
        raise NumericalError(f"curvature step {h:g} squared leaves the float range")

    def logg(dz):
        z = z0.copy()
        z[moving] += dz
        return math.log(metric_fn(z))

    lap = (logg(h) + logg(-h) + logg(1j * h) + logg(-1j * h) - 4.0 * logg(0.0)) / h2
    return complex(0.25 * lap)


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
