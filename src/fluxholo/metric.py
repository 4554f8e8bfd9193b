"""Free zero-mode metric, two independent ways.

The metric in the monomial basis z^j psi_0 is

    g_jk = int zbar^j z^k prod_a |z - zeta_a|^(-2 phi'_a) d^2 z .

Brute force evaluates the plane integral directly.  The plane is cut
with hard edges into (i) a disk about each fluxon, integrated in local
polar coordinates with a Gauss-Jacobi radial rule that absorbs the
r^(1 - 2 phi') power, (ii) a far field mapped by v = R0 / r onto [0, 1],
where one Gauss-Jacobi weight, the decay of the largest entry, leaves
each entry an integer power of v, and (iii) the remainder between them,
on a polar mesh graded geometrically toward every fluxon, with
Gauss-Legendre nodes on each radial sub-panel and each sub-arc.  The
integrand is analytic on every piece, so refinement converges
geometrically and the cross-validation below is meaningful.  The pieces
are integrated at unit diameter and scaled back exactly, by
g_jk(lam zeta) = lam^(j + k + 2 - 2 Phi'_T) g_jk(zeta) for real lam > 0,
so no scale of the configuration can overflow a grid weight.

The factorized route evaluates the holomorphic contour matrix

    Psi_ak = int_{xi0}^{zeta_a} xi^k prod_b (xi - zeta_b)^(-phi'_b) d xi

along straight legs between fluxons adjacent in cut order, which cross
no cut, and contracts it with the position-independent hermitian
coupling matrix G(phi):  g = Psi^* G Psi.  G has rank N - 1 with kernel
spanned by the all-ones vector (a fiducial-point shift adds a constant
to each column of Psi and must not change g) and exactly D_f positive
eigenvalues.  The fiducial point xi0 is always the last fluxon in cut
order.

The rows are partial sums of the N - 1 legs, each split at its midpoint
into two arms, so N fluxons cost 2N - 2 line integrals (_primitive_raw),
refined together on one panel queue (_Legs) of 49-node Gauss-Kronrod
panels (_quad.integrate_panels).  Each arm starts as one panel: it runs
between two fluxons adjacent in cut order, so every other fluxon lies
above or below its band of heights.
_contour_frames is the one place that turns configurations into
(Psi, G) and the one place that picks the frame: the rigid rotation that
best separates the fluxons' imaginary parts.  It takes one validated
configuration, for its fluxes, and a batch of positions, whose arms all
share the queue; one configuration is a batch of one (_contour_frame).
The metric, its derivatives, the curvature stencil and the transport all
use that frame.  The single exception is holonomy_analytic, whose braid
word refers to the configuration's own cut order, so it reads
primitive_matrix directly.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._quad import gauss_jacobi01, gauss_legendre, integrate_panels, trapezoid_angles
from .config import (FluxConfig, ValidatedConfig, check_cut_gaps, cut_order, separations,
                     validate)
from .errors import NoFreeModes, NumericalError, QuadratureNotConverged, ThresholdSingularity
from .modes import log_psi0

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Metric:
    """D_f x D_f hermitian positive metric with provenance."""

    g: np.ndarray
    method: str
    error_estimate: float

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.g)


@dataclass(frozen=True)
class PrimitiveMatrix:
    """N x D_f matrix of contour integrals, rows in cut order.

    order[i] is the original fluxon index sitting on strand i.  Columns
    are defined only up to an additive constant (fiducial-point freedom);
    the last row, the fiducial point's, is zero.
    """

    matrix: np.ndarray
    order: tuple
    fluxes: tuple
    error_estimate: float


def coupling_matrix(fluxes) -> np.ndarray:
    """Position-independent N x N hermitian matrix G(phi) for (reduced,
    subcritical) fluxes listed in cut order.

    G_aa = -sin(pi phi_a) sin(pi (phi_T - phi_a)) / sin(pi phi_T) and for
    a < b
    G_ab = sin(pi phi_a) sin(pi phi_b) / sin(pi phi_T)
           * exp[i pi (phi_T - sum_{c=a}^{b-1} (phi_c + phi_{c+1}))],
    completed by hermiticity.  Verified against the brute-force metric
    through g = Psi^* G Psi in the test suite.  Each call builds a fresh
    array from Python scalars.
    """
    phis = [float(f) for f in fluxes]
    total = math.fsum(phis)
    if abs(math.sin(math.pi * total)) < 1e-9:
        raise ThresholdSingularity(
            f"total flux {total:.6g} too close to an integer for G")
    n = len(phis)
    s_tot = math.sin(math.pi * total)
    sines = [math.sin(math.pi * phi) for phi in phis]
    rows = [[0j] * n for _ in range(n)]
    for a in range(n):
        rows[a][a] = -sines[a] * math.sin(math.pi * (total - phis[a])) / s_tot
        run = 0.0
        for b in range(a + 1, n):
            run += phis[b - 1] + phis[b]
            rows[a][b] = sines[a] * sines[b] / s_tot * cmath.exp(1j * math.pi * (total - run))
            rows[b][a] = rows[a][b].conjugate()
    return np.array(rows, dtype=complex)


def _free_mode_counts(vc: ValidatedConfig):
    """The mode counts of vc; NoFreeModes unless it has free modes."""
    counts = vc.counts
    if counts.D_f < 1 or not counts.free_modes_ok:
        raise NoFreeModes(f"configuration has D_f = {counts.D_f} free modes")
    return counts


# --------------------------------------------------------------------------
# contour matrix
# --------------------------------------------------------------------------

class _Legs:
    """Table of straight arms of xi^k psi_0(xi) d xi for a batch of
    configurations with the same fluxes, integrated together.

    zetas (B, N) are the batch's positions and phis (N,) the reduced
    fluxes, in one fluxon order.  Configuration b has K arms: arm (b, l)
    runs from start[b, l], the position of fluxon sing[b, l], to end[b, l].
    An arm is parameterized as xi = zeta_a + d s^p with
    p = m / (1 - phi'_a): the start fluxon's factor times the Jacobian,
    (d s^p)^(-phi'_a) d p s^(p-1)
    = p d^(1 - phi'_a) s^(m-1), is smooth, so that fluxon leaves the sum
    (its xi - zeta_a is replaced by exactly 1).  m = 2 for phi'_a < 1/2
    grades the arm further, since with p < 2 the factors smooth in xi
    would have a singular second derivative in s at the start.  Offsets
    start - zeta_b are precomputed so that xi - zeta_b suffers no
    cancellation near the start.  Every arm is evaluated at its own local
    s, so a configuration's arms give the same bits wherever they sit in
    the batch.
    """

    def __init__(self, zetas, phis, start, end, sing):
        self.shape = start.shape
        self.phis = phis
        d = end - start
        ph = phis[sing]
        graded = ph < 0.5
        p = np.where(graded, 2.0, 1.0) / (1.0 - ph)
        self.start, self.d, self.p = start.ravel(), d.ravel(), p.ravel()
        self.graded = graded.ravel()
        self.log_factor = (np.log(d) + np.log(p) + log_psi0(d[..., None], ph[..., None])).ravel()
        self.offsets = (start[..., None] - zetas[:, None, :]).reshape(-1, len(phis))
        self.sing = sing.ravel()

    def integrate(self, n_cols, tol):
        """Every arm's integral, shape (B, K, n_cols), and error estimate,
        shape (B, K)."""
        start, d, p, graded, log_factor = self.start, self.d, self.p, self.graded, self.log_factor
        offsets, sing, phis = self.offsets, self.sing, self.phis

        def values(ts):
            leg = ts[:, 0].astype(np.intp)
            s = ts[:, 1]
            step = d.take(leg) * s ** p.take(leg)
            w = offsets.take(leg, axis=0)
            w += step[:, None]
            # an arm's start fluxon leaves the sum: its w is exactly 1
            w[np.arange(len(w)), sing.take(leg)] = 1.0
            # the arm factor joins inside the exponent: at extreme scales
            # psi_0 and the factor leave the float range apart, not together
            base = log_psi0(w, phis)
            base += log_factor.take(leg)
            np.exp(base, out=base)
            base *= np.where(graded.take(leg), s, 1.0)
            if n_cols == 1:
                return base[:, None]
            # cumprod keeps the multiplication order of the powers xi^k
            xi = start.take(leg) + step
            powers = np.cumprod(np.column_stack([np.ones_like(xi)] + [xi] * (n_cols - 1)),
                                axis=1)
            return powers * base[:, None]

        vals, errs = integrate_panels(values, tol, legs=len(start))
        return vals.reshape(*self.shape, n_cols), errs.reshape(self.shape)


def _primitive_raw(zetas, phis, order, n_cols, tol):
    """Contour matrices of a batch, rows in cut order, and their errors.

    zetas (B, N) and phis (N,) are in one fluxon order; order (B, N) is
    each configuration's cut order, along which the heights y_a ascend
    strictly.  Leg l runs straight from fluxon l to fluxon l + 1 of the cut
    order.  Every cut runs to +x at its own fluxon's height, so no cut
    meets a leg between two adjacent heights.  Each leg is split at its
    midpoint into two arms, each starting on its own fluxon (its singular
    end): leg l is arm_l - arm'_l.  Row a is -(leg_a + ... + leg_{N-2}),
    the integral from the last fluxon, the fiducial point, whose row is
    exactly zero.  Every arm is integrated once.
    """
    tips = zetas[np.arange(len(order))[:, None], order]
    mid = 0.5 * (tips[:, :-1] + tips[:, 1:])
    start = np.concatenate([tips[:, :-1], tips[:, 1:]], axis=1)
    sing = np.concatenate([order[:, :-1], order[:, 1:]], axis=1)
    vals, errs = _Legs(zetas, phis, start, np.concatenate([mid, mid], axis=1),
                       sing).integrate(n_cols, tol)
    n = mid.shape[1]
    legs = vals[:, :n] - vals[:, n:]
    rows = -np.cumsum(legs[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([rows, np.zeros_like(legs[:, :1])], axis=1), errs.sum(axis=1)


def primitive_matrix(vc: ValidatedConfig, tol: float = 1e-10,
                     columns: int | None = None) -> PrimitiveMatrix:
    """Contour matrix Psi on the default cut sheet, rows in cut order, with
    the last fluxon in cut order as fiducial point (last row 0).

    columns is the number of monomials xi^k (default D_f, the free modes;
    the Gauss-Manin connection needs all of them).  Requires every reduced
    flux < 1 so the endpoint integrals converge, and an unambiguous cut
    ordering.
    """
    counts = _free_mode_counts(vc)
    if columns is None:
        columns = counts.D_f
    order = cut_order(vc)
    zetas, phis = vc.zeta, vc.phi_reduced
    mat, err = _primitive_raw(zetas[None], phis, np.array([order]), columns, tol)
    return PrimitiveMatrix(matrix=mat[0], order=order,
                           fluxes=tuple(phis[list(order)]), error_estimate=float(err[0]))


def _gauss_manin(zetas, phis, only: int | None = None) -> np.ndarray:
    """Exact position derivatives of the contour matrix.

    Returns D with shape (N, m, m), m = (number of fluxons with phi' != 0)
    - 1, such that d Psi / d zeta_a = Psi D[a]^T for every contour matrix
    Psi whose rows are integrals between branch points and whose columns
    are the monomials xi^k Phi d xi, k < m.  zetas and phis (reduced) may be
    in any order; D[a] refers to the same index a.  zetas of shape (B, N),
    a batch of configurations with the same fluxes, give D of shape
    (B, N, m, m), each row equal to the single call bit for bit.  With
    only=a, just D[..., a, :, :] is built and returned, bit for bit.

    The rows are twisted cycles, so d_a of an integral is the integral of
    the cohomology class of d_a(xi^k Phi) = phi'_a xi^k Phi / (xi - zeta_a),
    reduced onto the monomials (Aomoto-Kita, Theory of Hypergeometric
    Functions, ch. 2; the Knizhnik-Zamolodchikov-type connection whose
    monodromy is the Burau matrix, Kohno 1987).  With
    omega_c = Phi d xi / (xi - zeta_c) and S_q = sum_c phi'_c zeta_c^q:
      sum_c phi'_c omega_c = -d Phi ~ 0,
      (k + 1 - S_0) xi^k Phi ~ sum_{j<k} S_{k-j} xi^j Phi + sum_c phi'_c zeta_c^(k+1) omega_c
    (rows A_k), so the first m columns of inv([A; phi'^T]) express each
    omega_c in monomials, and
      d_a(xi^k Phi) ~ phi'_a [sum_{j<k} zeta_a^(k-1-j) xi^j Phi + zeta_a^k omega_a].
    A fluxon with phi' = 0 is no branch point: it drops out of the sums
    and its D is zero.
    """
    zetas = np.asarray(zetas, dtype=complex)
    branch, p, lag, lower = _gauss_manin_layout(tuple(np.asarray(phis, dtype=float).tolist()))
    m = len(p) - 1
    if only is not None and only not in branch:
        return np.zeros((*zetas.shape[:-1], m, m), dtype=complex)
    batch = zetas.reshape(-1, zetas.shape[-1])
    z = batch[:, branch]
    powers = z[:, None, :] ** np.arange(m + 1)[:, None]   # powers[b, q, c] = zeta_c^q
    terms = powers * p
    # the sums run in a fixed order, term by term: numpy's reductions may
    # group terms differently for different batch sizes, and a batch row
    # must equal the single call bit for bit
    S = terms[:, :, 0]
    for c in range(1, m + 1):
        S = S + terms[:, :, c]
    den = np.arange(1.0, m + 1.0) - S[:, :1].real
    rows = np.empty((len(batch), m + 1, m + 1), dtype=complex)
    rows[:, m] = p                                # the rows [A; phi'^T]
    for i in range(m):
        acc = terms[:, i + 1]
        for j in range(i):
            acc = acc + S[:, i - j, None] * rows[:, j]
        rows[:, i] = acc / den[:, i, None]
    B = np.linalg.inv(rows)[:, :, :m]            # omega_c = sum_k B[c, k] xi^k Phi
    if only is not None:
        c = int(np.searchsorted(branch, only))
        tri = np.where(lower, powers[:, lag, c], 0.0)
        d = p[c] * (tri + powers[:, :m, c, None] * B[:, c, None, :])
        return d.reshape(*zetas.shape[:-1], m, m)
    tri = np.where(lower, powers[:, lag].transpose(0, 3, 1, 2), 0.0)
    d = p[:, None, None] * (tri + powers[:, :m].transpose(0, 2, 1)[..., None] * B[:, :, None, :])
    if len(branch) < zetas.shape[-1]:
        out = np.zeros((*batch.shape, m, m), dtype=complex)
        out[:, branch] = d
        d = out
    return d.reshape(*zetas.shape, m, m)


@functools.lru_cache(maxsize=64)
def _gauss_manin_layout(phis: tuple):
    """What _gauss_manin needs of the fluxes alone: the branch points, their
    phi', and the exponents k - 1 - j of its lower-triangular term with
    their mask."""
    phis = np.array(phis)
    branch = np.nonzero(phis != 0.0)[0]
    k = np.arange(len(branch) - 1)
    lag = k[:, None] - 1 - k[None, :]
    return branch, phis[branch], np.maximum(lag, 0), lag >= 0


def _contour_frames(vc: ValidatedConfig, zetas, tol: float, columns: int | None = None):
    """Contour matrices psi (B, n, columns), coupling matrices G (B, n, n)
    and quadrature errors (B,) at the positions zetas (B, N), with the
    fluxes and mode counts of vc, in the one frame of the metric, its
    derivatives and the transport; n is the number of branch points
    (phi' != 0).  The positions are not validated again.

    Row b is evaluated rigidly rotated by lambda = e^{i alpha}, with alpha
    the rotation that best separates its imaginary parts
    (best_rotation_angle), and column k is scaled by lambda^(-k): by the
    rigid-rotation law a contour matrix at the unrotated positions.  g and
    the connection g^{-1} psi^* G d psi do not depend on the row basis, so
    ties and near ties of the given cut order cost nothing extra.  psi
    keeps `columns` monomials (by default all of them: one fewer than the
    branch points) and one row per branch point in the rotated cut order,
    each re-anchored to the last one, so every row is an integral between
    branch points, as the Gauss-Manin connection needs.  G is in the same
    row order, built once per distinct cut order of the batch, and
    psi_f^* G psi_f over the first D_f columns is the metric.

    The rotation, cut order and arms are array operations over the
    batch: the rotated positions and the gaps of the tie check are rows
    of the one sorted rotation table of _best_rotations, which is not
    sorted again.  All arms of all rows share one panel queue, each
    starting as one panel; each arm is integrated at its own local
    parameter, so a row does not depend on the rest of the batch, bit for
    bit.
    """
    _free_mode_counts(vc)
    phis = vc.phi_reduced
    branch = phis != 0.0
    if columns is None:
        columns = int(np.count_nonzero(branch)) - 1
    picks, rotated, order, gaps = _best_rotations(zetas)
    lam = _ROTATIONS[picks]
    diameters = np.abs(rotated[:, :, None] - rotated[:, None, :]).max(axis=(1, 2))
    check_cut_gaps(rotated.imag, order, gaps, diameters)
    rows, err = _primitive_raw(rotated, phis, order, columns, tol)
    keep = branch[order]
    shape = (len(zetas), int(np.count_nonzero(branch)))
    mat = rows[keep].reshape(*shape, columns) * lam[:, None, None] ** -np.arange(columns)
    cuts = [tuple(cut) for cut in phis[order][keep].reshape(shape).tolist()]
    built = {cut: coupling_matrix(cut) for cut in set(cuts)}
    G = np.array([built[cut] for cut in cuts])
    return mat - mat[:, -1:], G, err


def _contour_frame(vc: ValidatedConfig, tol: float, columns: int | None = None):
    """_contour_frames of vc as a batch of one: psi, G and the quadrature
    error of one configuration."""
    psi, G, err = _contour_frames(vc, vc.zeta[None], tol, columns)
    return psi[0], G[0], float(err[0])


def _frame_metrics(psi, G, psi_err):
    """g = psi^* G psi, made hermitian, and its error estimate from the
    free columns psi (B, n, D_f) of contour matrices, their coupling
    matrices G (B, n, n) and quadrature errors (B,).  Raises
    QuadratureNotConverged if any g is not positive definite."""
    g = psi.conj().transpose(0, 2, 1) @ G @ psi
    g = 0.5 * (g + g.conj().transpose(0, 2, 1))
    err = 2.0 * np.abs(G).max(axis=(1, 2)) * np.abs(psi).max(axis=(1, 2)) * psi_err
    lost = np.flatnonzero(np.linalg.eigvalsh(g).min(axis=1) <= 0.0)
    if lost.size:
        b = lost[0]
        scale = max(float(np.abs(g[b]).max()), 1e-300)
        raise QuadratureNotConverged(
            "factorized metric lost positive definiteness", attained=float(err[b]) / scale)
    return g, err


def metric_factorized(vc: ValidatedConfig, tol: float = 1e-8,
                      auto_rotate: bool = False) -> Metric:
    """Metric via g = Psi^* G Psi.

    Psi and G come from _contour_frames at tol * 1e-2, in the
    best-separated rotation frame, so ties and near ties of the given
    configuration cost nothing extra.  auto_rotate=False only adds a check
    that the given configuration has an unambiguous cut order
    (AmbiguousOrdering if not).

    error_estimate propagates the contour estimate of _quad.integrate_panels,
    which bounds the error of its embedded 24-node Gauss rule; it
    overstates the error of the returned g accordingly.
    """
    if not auto_rotate:
        cut_order(vc)
    g, err = _frame_metrics(*_contour_frames(vc, vc.zeta[None], tol * 1e-2, vc.counts.D_f))
    return Metric(g=g[0], method="factorized", error_estimate=float(err[0]))


_ROTATION_ANGLES = np.pi * (np.arange(32) / 32.0)
_ROTATIONS = np.exp(1j * _ROTATION_ANGLES)


def _best_rotations(zetas):
    """The best-separated rigid rotation of each row of zetas (B, N): its
    index into _ROTATIONS (B,), the rotated positions (B, N), their cut
    order (B, N) and the gaps between their consecutive sorted imaginary
    parts (B, N - 1).  The rotated positions and the gaps are rows of the
    one sorted (B, 32, N) table of rotations; the cut order is a stable
    argsort of the chosen row alone."""
    table = zetas[:, None, :] * _ROTATIONS[:, None]
    gaps = np.diff(np.sort(table.imag, axis=2), axis=2)
    picks = np.argmax(gaps.min(axis=2, initial=np.inf), axis=1)
    rows = np.arange(len(zetas))
    rotated = table[rows, picks]
    order = np.argsort(rotated.imag, axis=1, kind="stable")
    return picks, rotated, order, gaps[rows, picks]


def best_rotation_angle(zetas) -> float:
    """Deterministic rigid-rotation angle separating the imaginary parts
    as much as possible: the angle k pi / 32, k = 0..31, of the largest
    smallest gap, the first such k on a tie."""
    picks = _best_rotations(np.asarray(zetas, dtype=complex)[None])[0]
    return float(_ROTATION_ANGLES[picks[0]])


class MetricEvaluator:
    """Positions -> metric map for one flux assignment.

    Validates the positions and returns metric_factorized(...,
    auto_rotate=True).g.  The library no longer uses it (the curvature
    stencil continues one contour matrix per cell); it stays in this
    module only because the benchmark's tracer and self-tests
    (perfbench/spans.py, perfbench/test_perfbench.py) name it.
    """

    def __init__(self, fluxes, tol: float = 1e-10):
        self.fluxes = tuple(float(f) for f in fluxes)
        self.tol = tol

    def __call__(self, positions) -> np.ndarray:
        vc = validate(FluxConfig(positions, self.fluxes))
        return metric_factorized(vc, tol=self.tol, auto_rotate=True).g


# --------------------------------------------------------------------------
# brute-force quadrature
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Piece:
    """One piece of the brute-force plane about centre: the disk r < hi
    about its own fluxon, on Gauss-Jacobi radii of weight t^beta; the far
    field r > lo (hi = inf), Gauss-Jacobi in v = lo / r; or, where beta
    is None, the remainder: the disk r < hi about the centre minus the
    fluxons' disks (_BruteForce.mesh)."""

    centre: complex
    lo: float
    hi: float
    beta: float | None
    own: int | None


class _BruteForce:
    """One quadrature session: geometry, refinement state, piece sums.

    The plane is cut with hard edges into disjoint pieces (_Piece): a disk
    of radius R_a = 0.45 d_nn(a) about each fluxon, the far field beyond
    R0, and the remainder, the rest of the disk r < R0 about the centre.
    Each piece is a table of rows, each row a circle or an arc at one
    radius with its radial weight, and one routine (sweep) sums every
    table.  A disk and the far field have a row per radius, the whole
    circle on FIXED_ANGLES trapezoid angles, and refine their RADII; the
    remainder has a row per sub-arc of its graded mesh (mesh) and refines
    the Gauss-Legendre nodes of its radial sub-panels (RADII) and of its
    sub-arcs (ANGLES).  The pieces meet only at their edges, so the
    integrand is analytic on every row and every sub-panel and each rule
    converges geometrically (Trefethen and Weideman, SIAM Rev. 56, 2014).
    Rows are summed in chunks of at most CHUNK points, which keeps every
    temporary of a chunk at most 64 KB, below glibc's default mmap
    threshold of 128 KB, so the temporaries are reused from the heap
    instead of being mapped afresh, as in _quad.PANEL_BLOCK."""

    CHUNK = 4096
    FIXED_ANGLES = 64
    MAX_LEVEL = 4
    RADII = (12, 16, 24, 32, 48)
    ANGLES = (8, 12, 16, 24, 32)
    GRADE = 5.0
    ARC_CAP = 0.25 * np.pi

    def __init__(self, zetas, phis, n_cols):
        self.zetas = zetas
        self.phis = phis
        self.total_flux = float(math.fsum(phis))
        self.n_cols = n_cols
        self.jk = [(j, k) for j in range(n_cols) for k in range(n_cols) if j <= k]
        n = len(zetas)
        dnn = separations(zetas).min(axis=1) if n > 1 else np.array([1.0])
        self.radius = 0.45 * dnn
        self.center = zetas.mean()
        rel = zetas - self.center
        self.rho, self.theta = np.abs(rel), np.angle(rel)
        self.R0 = 2.0 * float(self.rho.max() + self.radius.max())
        # the steps R_b GRADE^k, k < steps, reach past R0, and so past the
        # largest angle that mesh grades, GRADE ARC_CAP / (GRADE - 1) < 1,
        # once divided by a radius r < R0
        self.steps = 1 + int(np.ceil(np.log(self.R0 / self.radius.min()) / np.log(self.GRADE)))
        self.breaks = self._radial_breaks()
        # the far field's Jacobi weight v^alpha, v = R0 / r, is the decay of
        # its largest entry, j = k = D_f - 1, and > -1 since D_f < Phi'_T;
        # entry (j, k) is left with the integer power v^(2 (D_f - 1) - j - k)
        alpha = 2.0 * self.total_flux - 2.0 * (n_cols - 1) - 3.0
        self.pieces = (
            [_Piece(zetas[a], 0.0, self.radius[a], 1.0 - 2.0 * phis[a], a) for a in range(n)]
            + [_Piece(self.center, 0.0, self.R0, None, None),
               _Piece(self.center, self.R0, math.inf, alpha, None)])
        self._arcs_at = {}

    # -- the remainder's mesh ----------------------------------------------

    def _radial_breaks(self):
        """The remainder's radial breakpoints from 0 to R0: each fluxon's
        tangency radii |rho_b -+ R_b|, between which the circles cross its
        disk, rho_b itself and rho_b +- R_b GRADE^k, and the grading toward
        the tangency radii.  The arcs outside a disk behave like square
        roots of the distance to its tangency radii, which the cosine map
        of mesh smooths only at a sub-panel's own ends, so a sub-panel
        longer than GRADE + 1 times its distance e to the nearest tangency
        radius t outside it is cut at t +- e GRADE^k: each piece is then at
        most GRADE - 1 times its distance to t.  Breakpoints and tangency
        radii within 1e-12 R0 of each other count as one."""
        rho, R, R0 = self.rho, self.radius, self.R0
        reach = R[:, None] * self.GRADE ** np.arange(1, self.steps)
        tangent = np.concatenate([np.abs(rho - R), rho + R])
        brk = np.concatenate([tangent, rho, (rho[:, None] - reach).ravel(),
                              (rho[:, None] + reach).ravel()])
        brk = np.unique(brk[(brk > 1e-12 * R0) & (brk < (1.0 - 1e-12) * R0)])
        brk = np.concatenate([[0.0], brk[np.diff(brk, prepend=0.0) > 1e-12 * R0], [R0]])
        tangent = np.concatenate([[-np.inf], np.sort(tangent), [np.inf]])
        while True:
            lo, hi = brk[:-1], brk[1:]
            # the nearest tangency radius below and above each sub-panel
            t = np.concatenate([tangent[np.searchsorted(tangent, lo) - 1],
                                tangent[np.searchsorted(tangent, hi, side="right")]])
            lo, hi = np.tile(lo, 2), np.tile(hi, 2)
            e = np.maximum(lo - t, t - hi)
            bad = (e > 1e-12 * R0) & ((self.GRADE + 1.0) * e < hi - lo)
            if not bad.any():
                return brk
            t, e, lo, hi = t[bad], e[bad], lo[bad], hi[bad]
            k = np.arange(1, 2 + int(np.log(((hi - lo) / e).max() + 1.0) / np.log(self.GRADE)))
            cut = t[:, None] + np.copysign(e, lo - t)[:, None] * self.GRADE ** k
            # a cut can leave a piece next to the tangency radius at the
            # other end of its sub-panel, so the pieces are checked again
            brk = np.unique(np.concatenate(
                [brk, cut[(cut > lo[:, None]) & (cut < hi[:, None])]]))

    def mesh(self, nr):
        """The remainder's rows on nr radii per radial sub-panel: the
        radius of each row, its weight for r dr, and the start angle and
        length of its sub-arc.

        (rho_b, theta_b) is the polar position of fluxon b about the centre.
        A radial sub-panel [lo, hi] between two breakpoints (_radial_breaks)
        takes the radii r = lo + (hi - lo) (1 - cos pi s) / 2 at
        Gauss-Legendre s: the arcs outside a disk behave like square roots
        of the distance to its tangency radii, and the map makes them
        smooth at a sub-panel's ends.  On the circle of radius r the disk
        of b covers the arc where
        cos(theta - theta_b) > (r^2 + rho_b^2 - R_b^2) / (2 r rho_b).  The
        circle is cut at those arcs' ends and at
        theta_b +- delta_b GRADE^k, delta_b = max(|r - rho_b|, R_b) / r,
        while delta_b GRADE^k < GRADE ARC_CAP / (GRADE - 1), and the arcs
        outside every disk are split evenly into sub-arcs of at most
        ARC_CAP.  The mesh is graded geometrically toward every fluxon (the
        hp mesh, Schwab, p- and hp-Finite Element Methods, 1998): each
        sub-panel is at most GRADE - 1 times its distance to each fluxon
        b, max(|rho_b - [lo, hi]|, R_b), and each sub-arc at most GRADE - 1
        times its angle from each fluxon, max(its gap to theta_b,
        delta_b).  The rows are built as arrays over all radii at once."""
        s, ws = gauss_legendre(nr)
        lo, span = self.breaks[:-1, None], np.diff(self.breaks)[:, None]
        r = (lo + span * (0.5 - 0.5 * np.cos(np.pi * s))).ravel()
        wr = r * (span * (0.5 * np.pi * np.sin(np.pi * s) * ws)).ravel()
        rc, rho, R, theta = r[:, None], self.rho, self.radius, self.theta
        num, den = rc * rc + (rho * rho - R * R), 2.0 * rc * rho
        # a disk about the centre itself (rho_b = 0) covers all of the
        # circle or none of it
        cut = np.divide(num, den, out=np.copysign(np.full(num.shape, np.inf), num),
                        where=den > 0.0)
        crossed = np.abs(cut) < 1.0
        # each circle's cuts, built in place between its ends 0 and 2 pi:
        # theta_b -+ half_b and theta_b -+ delta_b GRADE^k; a cut that does
        # not apply is NaN, which sorts last and bounds no arc
        half = np.arccos(np.where(crossed, cut, np.nan))
        bounds = np.empty((len(r), 2 + 2 * len(rho) * (self.steps + 1)))
        bounds[:, 0], bounds[:, -1] = 0.0, TWO_PI
        cuts = bounds[:, 1:-1].reshape(len(r), len(rho), 2, self.steps + 1)
        steps = cuts[:, :, 0, 1:]
        np.multiply((np.maximum(np.abs(rc - rho), R) / rc)[..., None],
                    self.GRADE ** np.arange(self.steps), out=steps)
        steps[steps >= self.GRADE / (self.GRADE - 1.0) * self.ARC_CAP] = np.nan
        cuts[:, :, 0, 0] = half
        np.negative(cuts[:, :, 0], out=cuts[:, :, 1])
        cuts += theta[:, None, None]
        np.add(cuts, TWO_PI, out=cuts, where=cuts < 0.0)
        bounds.sort(axis=1)
        bounds = bounds[:, :np.count_nonzero(bounds == bounds, axis=1).max()]
        start, length = bounds[:, :-1], np.diff(bounds, axis=1)
        # each arc between two cuts lies inside a disk or outside it; a
        # circle inside a disk keeps no arc
        keep = (length > 0.0) & (cut > -1.0).all(axis=1)[:, None]
        for b, centre in enumerate(np.mod(theta, TWO_PI)):
            at = np.flatnonzero(crossed[:, b])
            gap = np.abs(start[at] + 0.5 * length[at] - centre)
            keep[at] &= np.minimum(gap, TWO_PI - gap) >= half[at, b, None]
        rows, cols = np.nonzero(keep)
        start, length = start[rows, cols], length[rows, cols]
        split = np.ceil(length / self.ARC_CAP).astype(np.intp)
        offset = np.arange(split.sum()) - np.repeat(np.cumsum(split) - split, split)
        length = np.repeat(length / split, split)
        rows = np.repeat(rows, split)
        return r[rows], wr[rows], np.repeat(start, split) + offset * length, length

    def _arcs(self, nr):
        """The rows of mesh(nr) as sweep takes them, kept until another nr:
        u = r exp(i (start + length / 2)), the weight for r dr times
        tan(length / 4), and tan(length / 4)."""
        if nr not in self._arcs_at:
            r, wr, start, length = self.mesh(nr)
            tan = np.tan(0.25 * length)
            self._arcs_at = {nr: (r * np.exp(1j * (start + 0.5 * length)), wr * tan, tan)}
        return self._arcs_at[nr]

    # -- sums --------------------------------------------------------------

    def _weight(self, x, y, skip):
        """Log weight sum_{b != skip} -phi'_b log |z - zeta_b|^2 on the
        points z = x + i y."""
        logw = np.zeros(x.shape)
        for b, (zc, ph) in enumerate(zip(self.zetas, self.phis)):
            if b == skip or ph == 0.0:
                continue
            # in place on its own temporaries: the loop is a third of brute force
            d2, dy = x - zc.real, y - zc.imag
            d2 *= d2
            dy *= dy
            d2 += dy
            logw -= ph * np.log(d2, out=d2)
        return logw

    def _contract(self, x, y, weights):
        """sum over the points z = x + i y of weights zbar^j z^k, one value
        per (j, k) pair with j <= k.  The weights are real and zbar^j z^k
        equals |z|^(2j) z^(k - j), so entry (j, k) is the real row
        u_j = weights |z|^(2j) summed against the parts of z^(k - j);
        the weights and the points are never multiplied as complex
        arrays."""
        row = weights.reshape(-1)
        if self.n_cols == 1:
            return np.array([row.sum()], dtype=complex)
        x, y = x.reshape(-1), y.reshape(-1)
        r2 = x * x + y * y
        # z^d, d = 1 .. n_cols - 1, as (n, 2) rows of real and imaginary
        # parts; z itself is x and y side by side, viewed as complex
        parts = [None, np.empty((len(x), 2))]
        parts[1][:, 0], parts[1][:, 1] = x, y
        z = zd = parts[1].view(complex).ravel()
        for d in range(2, self.n_cols):
            zd = zd * z
            parts.append(zd.view(float).reshape(-1, 2))
        out = []
        for j in range(self.n_cols):
            if j:
                row = row * r2
            out.append(row.sum())
            out.extend(complex(*(row @ parts[d])) for d in range(1, self.n_cols - j))
        return np.array(out, dtype=complex)

    def sweep(self, centre, own, u, wu, tan, x, wx):
        """Sum over rows i and columns l of
        wu_i wx_l prod_{b != own} |z - zeta_b|^(-2 phi'_b) zbar^j z^k
        times a row's angular Jacobian at z = centre + u_i e_il, one value
        per (j, k) pair with j <= k (_contract), in chunks of whole rows of
        at most CHUNK points.

        Where tan is None each row is a whole circle of radius u_i > 0:
        e_il = exp(i x_l) at the angles x with weights wx.  Otherwise
        row i is the arc of half-width 2 arctan(tan_i) about the direction
        of u_i in its half-angle tangent t = tan_i x_l, x in [-1, 1]:
        e_il = (1 - t^2 + 2 i t) / (1 + t^2), the point at angle 2 arctan t,
        with Jacobian 2 / (1 + t^2) (wu_i carries tan_i).  The map is
        analytic on each arc of at most ARC_CAP and spares each point a
        cosine and a sine."""
        total = np.zeros(len(self.jk), dtype=complex)
        step = max(1, self.CHUNK // len(x))
        if tan is None:
            cos, sin = np.cos(x), np.sin(x)
        else:
            # an arc chunk is laid out column by column, so that every
            # operation runs along its rows, not along its few nodes
            x, wx = x[:, None], wx[:, None]
        for lo in range(0, len(u), step):
            sl = slice(lo, lo + step)
            if tan is None:
                r = u.real[sl, None]
                px, py, q = r * cos, r * sin, wu[sl, None] * wx
            else:
                ur, ui = u.real[sl], u.imag[sl]
                t = tan[sl] * x
                q = 2.0 / (t * t + 1.0)
                a, b = q - 1.0, t * q
                px, py = ur * a - ui * b, ur * b + ui * a
                q = q * wu[sl] * wx
            px, py = px + centre.real, py + centre.imag
            total += self._contract(px, py, np.exp(self._weight(px, py, own)) * q)
        return total

    @staticmethod
    def radii(p, nr):
        """nr radii of a disk or the far field and their weights for r dr:
        on a disk Gauss-Jacobi in t = r / hi, which absorbs the own
        fluxon's r^(1 - 2 phi'_a); on the far field (hi = inf) Gauss-Jacobi
        in v = lo / r, r dr = lo^2 v^(-3) dv."""
        t, w = gauss_jacobi01(nr, p.beta)
        if p.hi == math.inf:
            return p.lo / t, w * (p.lo ** 2 * t ** (-3.0 - p.beta))
        return t * p.hi, w * p.hi ** (p.beta + 1.0)

    def grid(self, p, nr, nt):
        """Sum of the disk or the far field p on nr radii (radii) times nt
        trapezoid angles about its centre."""
        r, wr = self.radii(p, nr)
        return self.sweep(p.centre, p.own, r, wr, None, trapezoid_angles(nt),
                          np.full(nt, TWO_PI / nt))

    # -- assembly ----------------------------------------------------------

    def piece(self, i, lr, lt=0):
        """Sum of piece i at radial level lr and angular level lt: a disk or
        the far field on RADII[lr] radii of FIXED_ANGLES trapezoid angles,
        the remainder on RADII[lr] radii per sub-panel and ANGLES[lt]
        Gauss-Legendre angles per sub-arc."""
        p = self.pieces[i]
        if p.beta is None:
            x, wx = gauss_legendre(self.ANGLES[lt])
            return self.sweep(p.centre, None, *self._arcs(self.RADII[lr]), 2.0 * x - 1.0,
                              2.0 * wx)
        return self.grid(p, self.RADII[lr], self.FIXED_ANGLES)

    def run(self, tol, weights=1.0):
        """Piece sums refined one axis of one piece at a time until the last
        level differences, summed over the pieces and axes, fall below tol x
        the largest entry.  Entries and differences are compared after
        multiplying them by weights, the entries' relative scales in the
        caller's units (one per entry, at most 1), so that the bound holds
        there entry by entry.

        A disk and the far field have one axis, their radii; the remainder
        two: its radial and its angular level, each with its own last
        difference.  Each axis of each piece first moves to level 1: a disk
        and the far field run levels 0 and 1, the remainder (0, 0), (1, 0)
        and (1, 1).  On every piece the integrand is analytic, so the
        differences shrink geometrically from the start.  Then, of the
        pieces with an
        axis below MAX_LEVEL, the one whose differences on those axes sum
        largest moves up one level on the axis of the larger one.  A piece
        that is already resolved is not refined to certify the others.
        When no axis is left below MAX_LEVEL, or the axes at MAX_LEVEL
        alone exceed the target, QuadratureNotConverged is raised.

        Returns the entries, each piece at its latest levels, and, per
        entry, the sum over the pieces and axes of its last level
        difference."""
        level = [[0] * (1 if p.beta is not None else 2) for p in self.pieces]
        diff = [[None] * len(lev) for lev in level]
        value = [self.piece(i, *lev) for i, lev in enumerate(level)]

        def step(i, axis):
            level[i][axis] += 1
            cur = self.piece(i, *level[i])
            diff[i][axis] = np.abs(cur - value[i])
            value[i] = cur

        for i, lev in enumerate(level):
            for axis in range(len(lev)):
                step(i, axis)
        while True:
            est = sum(value)
            scale = max(float((np.abs(est) * weights).max()), 1e-300)
            # a NaN difference counts as unresolved on its axis
            largest = [[float(np.fmin((d * weights).max(), np.inf)) for d in ds] for ds in diff]
            total_err = math.fsum(e for row in largest for e in row)
            if total_err <= tol * scale:
                return est, sum(d for ds in diff for d in ds)
            # refining the other axes leaves the differences of the axes at
            # MAX_LEVEL where they are
            stuck = math.fsum(e for row, lev in zip(largest, level)
                              for e, at in zip(row, lev) if at == self.MAX_LEVEL)
            open_axes = [[axis for axis, at in enumerate(lev) if at < self.MAX_LEVEL]
                         for lev in level]
            left = [i for i, axes in enumerate(open_axes) if axes]
            if not left or stuck > tol * scale:
                raise QuadratureNotConverged(
                    f"plane quadrature stalled at relative error {total_err / scale:.3g} "
                    f"(target {tol:g})", attained=total_err / scale)
            i = max(left, key=lambda i: math.fsum(largest[i][axis] for axis in open_axes[i]))
            step(i, max(open_axes[i], key=largest[i].__getitem__))


def metric_bruteforce(vc: ValidatedConfig, tol: float = 1e-6) -> Metric:
    """Metric by direct two-dimensional quadrature (the expensive oracle).

    Entries with j <= k are integrated on shared grids and mirrored, so
    the result is hermitian by construction.  The plane is cut with hard
    edges into a disk about each fluxon, the far field and the remainder
    between them, on a mesh graded toward the fluxons (_BruteForce).  Each
    piece is refined on its own (_BruteForce.run): each axis first to
    level 1, each disk and the far field in its radii, the remainder in
    its radii and its angles; then the piece with the largest last level
    differences, one level of one axis at a time (the remainder's radii or
    angles, whichever difference is larger), until the differences
    summed over the pieces and axes are at most tol x the largest entry.
    The grids are laid out at unit diameter; entry (j, k) and its error,
    the sum over the pieces and axes of its last level difference, are
    scaled back by the diameter's power lam^(j + k + 2 - 2 Phi'_T), and
    error_estimate is the largest scaled error.  The stop rule weighs each
    entry by that power too, so error_estimate is at most tol x max|g|.
    An entry that leaves the float range raises NumericalError; a
    configuration whose differences levels up to _BruteForce.MAX_LEVEL
    cannot bring under the target raises QuadratureNotConverged.
    """
    counts = _free_mode_counts(vc)
    lam = vc.diameter
    session = _BruteForce(vc.zeta / lam, vc.phi_reduced, counts.D_f)
    power = np.array([j + k + 2.0 for j, k in session.jk]) - 2.0 * session.total_flux
    # each entry's scale lam^power relative to the largest one, without
    # leaving the float range
    log_scale = power * math.log(lam)
    flat, err = session.run(tol, np.exp(log_scale - log_scale.max()))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = lam ** power
        flat = flat * scale
        err = float((err * scale).max())
    if not (np.isfinite(flat).all() and np.isfinite(err)):
        raise NumericalError(
            f"brute-force metric leaves the float range at diameter {lam:.3g}")
    g = np.zeros((counts.D_f, counts.D_f), dtype=complex)
    for i, (j, k) in enumerate(session.jk):
        g[j, k] = flat[i]
        g[k, j] = np.conj(flat[i])
    return Metric(g=g, method="bruteforce", error_estimate=err)
