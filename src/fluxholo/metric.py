"""Free zero-mode metric, two independent ways.

The metric in the monomial basis z^j psi_0 is

    g_jk = int zbar^j z^k prod_a |z - zeta_a|^(-2 phi'_a) d^2 z .

Brute force evaluates the plane integral directly.  The plane is split
with a smooth partition of unity into (i) a neighborhood of each fluxon,
integrated in local polar coordinates with a Gauss-Jacobi radial rule
that absorbs the r^(1 - 2 phi') power, (ii) a far field mapped by
v = R0 / r onto [0, 1] with the power-law tail absorbed the same way,
and (iii) the smooth remainder on panelled polar grids.  Every piece
then has a smooth integrand on a simple domain, so refinement converges
fast and the cross-validation below is meaningful.  The pieces are
integrated at unit diameter and scaled back exactly, by
g_jk(lam zeta) = lam^(j + k + 2 - 2 Phi'_T) g_jk(zeta) for real lam > 0,
so no scale of the configuration can overflow a grid weight.

The factorized route evaluates the holomorphic contour matrix

    Psi_ak = int_{xi0}^{zeta_a} xi^k prod_b (xi - zeta_b)^(-phi'_b) d xi

along paths routed to the left of all fluxons so they never cross a cut,
and contracts it with the position-independent hermitian coupling matrix
G(phi):  g = Psi^* G Psi.  G has rank N - 1 with kernel spanned by the
all-ones vector (a fiducial-point shift adds a constant to each column
of Psi and must not change g) and exactly D_f positive eigenvalues.  The
fiducial point xi0 is always the last fluxon in cut order.

The paths share their legs, so N fluxons cost 2N - 1 line integrals
(_primitive_raw), refined together on one panel queue (_Legs).
_contour_frames is the one place that turns configurations into
(Psi, G) and the one place that picks the frame: the rigid rotation that
best separates the fluxons' imaginary parts.  It takes a batch of
configurations with the same fluxes, whose legs all share the queue; one
configuration is a batch of one (_contour_frame).  The metric, its
derivatives, the curvature stencil and the transport all use that frame.
The single exception is holonomy_analytic, whose braid word refers to the
configuration's own cut order, so it reads primitive_matrix directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import gauss_jacobi01, gauss_legendre, integrate_panels, trapezoid_angles
from .config import FluxConfig, ValidatedConfig, cut_order, cut_orders, separations, validate
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
    through g = Psi^* G Psi in the test suite.
    """
    phis = np.asarray([float(f) for f in fluxes], dtype=float)
    total = math.fsum(phis)
    if abs(math.sin(math.pi * total)) < 1e-9:
        raise ThresholdSingularity(
            f"total flux {total:.6g} too close to an integer for G")
    n = len(phis)
    G = np.zeros((n, n), dtype=complex)
    s_tot = math.sin(math.pi * total)
    for a in range(n):
        G[a, a] = -math.sin(math.pi * phis[a]) * math.sin(math.pi * (total - phis[a])) / s_tot
        run = 0.0
        for b in range(a + 1, n):
            run += phis[b - 1] + phis[b]
            G[a, b] = (math.sin(math.pi * phis[a]) * math.sin(math.pi * phis[b]) / s_tot
                       * np.exp(1j * math.pi * (total - run)))
            G[b, a] = np.conj(G[a, b])
    return G


# --------------------------------------------------------------------------
# contour matrix
# --------------------------------------------------------------------------

class _Legs:
    """Table of straight legs of xi^k psi_0(xi) d xi for a batch of
    configurations with the same fluxes, integrated together.

    zetas (B, N) are the batch's positions and phis (N,) the reduced
    fluxes, in one fluxon order.  Configuration b has K legs: leg (b, l)
    runs from start[b, l] to end[b, l], and sing[b, l] is the index of the
    fluxon an arm starts on (-1 for a plain leg).  An arm is parameterized
    as xi = zeta_a + d s^p with p = m / (1 - phi'_a): the start fluxon's
    factor times the Jacobian, (d s^p)^(-phi'_a) d p s^(p-1)
    = p d^(1 - phi'_a) s^(m-1), is smooth, so that fluxon leaves the sum
    (its xi - zeta_a is replaced by exactly 1).  m = 2 for phi'_a < 1/2
    grades the arm further, since with p < 2 the factors smooth in xi
    would have a singular second derivative in s at the start.  Offsets
    start - zeta_b are precomputed so that xi - zeta_b suffers no
    cancellation near the start.  Every leg is evaluated at its own local
    s, so a configuration's legs give the same bits wherever they sit in
    the batch.
    """

    def __init__(self, zetas, phis, start, end, sing):
        self.shape = start.shape
        self.zetas = zetas
        self.phis = phis
        d = end - start
        arm = sing >= 0
        ph = phis[np.maximum(sing, 0)]
        graded = arm & (ph < 0.5)
        p = np.where(arm, np.where(graded, 2.0, 1.0) / (1.0 - ph), 1.0)
        arm_factor = p * d * np.exp(log_psi0(d[..., None], ph[..., None]))
        self.start, self.d, self.p = start.ravel(), d.ravel(), p.ravel()
        self.graded = graded.ravel()
        self.factor = np.where(arm, arm_factor, d).ravel()
        self.offsets = (start[..., None] - zetas[:, None, :]).reshape(-1, len(phis))
        self.sing = sing.ravel()

    def integrate(self, n_cols, tol):
        """Every leg's integral, shape (B, K, n_cols), and error estimate,
        shape (B, K)."""
        start, d, p, graded, factor = self.start, self.d, self.p, self.graded, self.factor
        offsets, sing, phis = self.offsets, self.sing, self.phis

        def values(ts):
            leg = ts[:, 0].astype(np.intp)
            s = ts[:, 1]
            step = d.take(leg) * s ** p.take(leg)
            w = offsets.take(leg, axis=0)
            w += step[:, None]
            # an arm's start fluxon leaves the sum: its w is exactly 1
            own = sing.take(leg)
            on_arm = np.flatnonzero(own >= 0)
            w.reshape(-1)[on_arm * len(phis) + own[on_arm]] = 1.0
            base = (np.exp(log_psi0(w, phis)) * factor.take(leg)
                    * np.where(graded.take(leg), s, 1.0))
            xi = start.take(leg) + step
            powers = np.cumprod(np.column_stack([np.ones_like(xi)] + [xi] * (n_cols - 1)),
                                axis=1)
            return powers * base[:, None]

        vals, errs = integrate_panels(values, tol, breakpoints=self._breakpoints(),
                                      legs=len(start))
        return vals.reshape(*self.shape, n_cols), errs.reshape(self.shape)

    def _breakpoints(self):
        """Values of t = leg + s where a leg passes a fluxon's real part
        (candidate spots for integrand spikes).  s is rounded to a multiple
        of 2^-32, so that t - leg gives it back exactly and a leg's panels
        do not depend on its place in the batch."""
        legs = np.flatnonzero(np.abs(self.d.real) >= 1e-300)
        zetas = np.repeat(self.zetas, self.shape[1], axis=0)[legs]
        s = (zetas.real - self.start.real[legs, None]) / self.d.real[legs, None]
        leg, fluxon = np.nonzero((s > 1e-12) & (s < 1.0 - 1e-12))
        s = s[leg, fluxon] ** (1.0 / self.p[legs[leg]])
        return (legs[leg] + np.round(s * 2.0 ** 32) * 2.0 ** -32).tolist()


def _primitive_raw(zetas, phis, order, n_cols, x_left, tol):
    """Contour matrices of a batch, rows in cut order, and their errors.

    zetas (B, N) and phis (N,) are in one fluxon order; order (B, N) is
    each configuration's cut order, along which the heights y_a ascend
    strictly, and x_left (B,) a line left of all its fluxons.  Row a is
    arm_N + C(y_a) - C(y_N) - arm_a: arm_a runs from zeta_a (its singular
    end) to the line x = x_left, and C sums the gaps of that line between
    consecutive heights.  The fiducial point is the last fluxon, whose row
    is exactly zero.  Every leg is integrated once.
    """
    n = zetas.shape[1]
    tips = np.take_along_axis(zetas, order, axis=1)
    feet = x_left[:, None] + 1j * tips.imag
    start = np.concatenate([tips, feet[:, :-1]], axis=1)
    end = np.concatenate([feet, feet[:, 1:]], axis=1)
    sing = np.concatenate([order, np.full((len(order), n - 1), -1)], axis=1)
    vals, errs = _Legs(zetas, phis, start, end, sing).integrate(n_cols, tol)
    arms, gaps = vals[:, :n], vals[:, n:]
    C = np.cumsum(np.concatenate([np.zeros_like(gaps[:, :1]), gaps], axis=1), axis=1)
    return arms[:, -1:] + (C - C[:, -1:]) - arms, errs.sum(axis=1)


def primitive_matrix(vc: ValidatedConfig, tol: float = 1e-10,
                     columns: int | None = None) -> PrimitiveMatrix:
    """Contour matrix Psi on the default cut sheet, rows in cut order, with
    the last fluxon in cut order as fiducial point (last row 0).

    columns is the number of monomials xi^k (default D_f, the free modes;
    the Gauss-Manin connection needs all of them).  Requires every reduced
    flux < 1 so the endpoint integrals converge, and an unambiguous cut
    ordering.
    """
    counts = vc.counts
    if counts.D_f < 1 or not counts.free_modes_ok:
        raise NoFreeModes(f"configuration has D_f = {counts.D_f} free modes")
    if columns is None:
        columns = counts.D_f
    order = cut_order(vc)
    zetas, phis = vc.zeta, vc.phi_reduced
    x_left = np.array([zetas.real.min() - 1.5 * vc.diameter])
    mat, err = _primitive_raw(zetas[None], phis, np.array([order]), columns, x_left, tol)
    return PrimitiveMatrix(matrix=mat[0], order=order,
                           fluxes=tuple(phis[list(order)]), error_estimate=float(err[0]))


def _gauss_manin(zetas, phis) -> np.ndarray:
    """Exact position derivatives of the contour matrix.

    Returns D with shape (N, m, m), m = (number of fluxons with phi' != 0)
    - 1, such that d Psi / d zeta_a = Psi D[a]^T for every contour matrix
    Psi whose rows are integrals between branch points and whose columns
    are the monomials xi^k Phi d xi, k < m.  zetas and phis (reduced) may be
    in any order; D[a] refers to the same index a.

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
    phis = np.asarray(phis, dtype=float)
    branch = np.nonzero(phis != 0.0)[0]
    z, p = zetas[branch], phis[branch]
    m = len(branch) - 1
    k = np.arange(m + 1)
    powers = z[None, :] ** k[:, None]             # powers[q, c] = zeta_c^q
    S = powers @ p
    A = np.empty((m, m + 1), dtype=complex)
    for i in range(m):
        A[i] = (p * powers[i + 1] + S[i:0:-1] @ A[:i]) / (i + 1.0 - S[0].real)
    B = np.linalg.inv(np.vstack([A, p]))[:, :m]   # omega_c = sum_k B[c, k] xi^k Phi
    lag = k[:m, None] - 1 - k[None, :m]
    tri = np.where(lag >= 0, z[:, None, None] ** np.maximum(lag, 0), 0.0)
    out = np.zeros((len(zetas), m, m), dtype=complex)
    out[branch] = p[:, None, None] * (tri + powers[:m].T[:, :, None] * B[:, None, :])
    return out


def _contour_frames(vcs, tol: float, columns: int | None = None):
    """Contour matrices psi (B, n, columns), coupling matrices G (B, n, n)
    and quadrature errors (B,) of a batch of configurations with the same
    fluxes, in the one frame of the metric, its derivatives and the
    transport; n is the number of branch points (phi' != 0).

    Configuration b is evaluated rigidly rotated by lambda = e^{i alpha},
    with alpha the rotation that best separates its imaginary parts
    (best_rotation_angle), and column k is scaled by lambda^(-k): by the
    rigid-rotation law a contour matrix at the unrotated positions.  g and
    the connection g^{-1} psi^* G d psi do not depend on the row basis, so
    ties and near ties of the given cut order cost nothing extra.  psi
    keeps `columns` monomials (by default all of them: one fewer than the
    branch points) and one row per branch point in the rotated cut order,
    each re-anchored to the last one, so every row is an integral between
    branch points, as the Gauss-Manin connection needs.  G is in the same
    row order, and psi_f^* G psi_f over the first D_f columns is the
    metric.

    The rotation, cut order, legs and breakpoints are array operations
    over the batch, and all legs of all configurations share one panel
    queue; each leg is integrated at its own local parameter, so a row
    does not depend on the rest of the batch, bit for bit.
    """
    fluxes = vcs[0].config.fluxes
    if any(vc.config.fluxes != fluxes for vc in vcs):
        raise ValueError("a batch of contour frames needs one flux assignment")
    counts = vcs[0].counts
    if counts.D_f < 1 or not counts.free_modes_ok:
        raise NoFreeModes(f"configuration has D_f = {counts.D_f} free modes")
    phis = vcs[0].phi_reduced
    branch = phis != 0.0
    if columns is None:
        columns = int(np.count_nonzero(branch)) - 1
    zetas = np.array([vc.zeta for vc in vcs])
    lam = np.exp(1j * _rotation_angles(zetas))
    rotated = zetas * lam[:, None]
    diameters = np.abs(rotated[:, :, None] - rotated[:, None, :]).max(axis=(1, 2))
    order = cut_orders(rotated, diameters)
    x_left = rotated.real.min(axis=1) - 1.5 * diameters
    rows, err = _primitive_raw(rotated, phis, order, columns, x_left, tol)
    keep = branch[order]
    shape = (len(vcs), int(np.count_nonzero(branch)))
    mat = rows[keep].reshape(*shape, columns) * lam[:, None, None] ** -np.arange(columns)
    cuts = [tuple(cut) for cut in phis[order][keep].reshape(shape).tolist()]
    couplings = {cut: coupling_matrix(cut) for cut in set(cuts)}  # one per cut order
    G = np.array([couplings[cut] for cut in cuts])
    return mat - mat[:, -1:], G, err


def _contour_frame(vc: ValidatedConfig, tol: float, columns: int | None = None):
    """_contour_frames of vc as a batch of one: psi, G and the quadrature
    error of one configuration."""
    psi, G, err = _contour_frames([vc], tol, columns)
    return psi[0], G[0], float(err[0])


def _factorized_metrics(vcs, tol: float):
    """g = Psi^* G Psi and its error estimate for a batch of configurations
    with the same fluxes: arrays (B, D_f, D_f) and (B,).  Psi and G come
    from _contour_frames at tol * 1e-2.  Raises QuadratureNotConverged if
    any g is not positive definite."""
    psi, G, psi_err = _contour_frames(vcs, tol * 1e-2, vcs[0].counts.D_f)
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

    Psi and G come from _contour_frames, in the best-separated rotation
    frame, so ties and near ties of the given configuration cost nothing
    extra.  auto_rotate=False only adds a check that the given
    configuration has an unambiguous cut order (AmbiguousOrdering if not).

    error_estimate propagates the contour estimate of _quad.integrate_panels,
    which bounds the error of its 24-node rule; it overstates the error of
    the returned g accordingly.
    """
    if not auto_rotate:
        cut_order(vc)
    g, err = _factorized_metrics([vc], tol)
    return Metric(g=g[0], method="factorized", error_estimate=float(err[0]))


_ROTATION_ANGLES = np.pi * (np.arange(32) / 32.0)
_ROTATIONS = np.exp(1j * _ROTATION_ANGLES)


def _rotation_angles(zetas) -> np.ndarray:
    """best_rotation_angle of each row of zetas (B, N)."""
    if zetas.shape[1] == 1:
        return np.zeros(len(zetas))
    im = np.sort((zetas[:, None, :] * _ROTATIONS[:, None]).imag, axis=2)
    picks = []
    for gaps in np.diff(im, axis=2).min(axis=2).tolist():
        best, pick = -1.0, 0
        for k, gap in enumerate(gaps):
            if gap > best * (1.0 + 1e-12):
                best, pick = gap, k
        picks.append(pick)
    return _ROTATION_ANGLES[picks]


def best_rotation_angle(zetas) -> float:
    """Deterministic rigid-rotation angle separating the imaginary parts
    as much as possible: the angle k pi / 32, k = 0..31, at which a scan in
    increasing k last finds a smallest gap more than 1e-12 relative above
    the best one so far."""
    return float(_rotation_angles(np.asarray(zetas, dtype=complex)[None])[0])


class MetricEvaluator:
    """Positions -> metric map for one flux assignment.

    Validates the positions and returns metric_factorized(...,
    auto_rotate=True).g.  The library no longer uses it (the curvature
    stencil evaluates its five metrics as one batch); it stays in this
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

def _bump(t):
    """C^infinity step f2 / (f1 + f2), f1 = exp(-1/t), f2 = exp(-1/(1 - t)),
    from 1 at t = 0 to 0 at t = 1.  Callers pass only 0 < t < 1."""
    f1 = np.divide(-1.0, t)
    np.exp(f1, out=f1)
    f2 = np.subtract(1.0, t)
    np.divide(-1.0, f2, out=f2)
    np.exp(f2, out=f2)
    f1 += f2
    f2 /= f1
    return f2


class _BruteForce:
    """One quadrature session: geometry, refinement state, piece sums."""

    ANGULAR_CHUNK = 128
    MAX_LEVEL = 4

    def __init__(self, zetas, phis, n_cols):
        self.zetas = zetas
        self.phis = phis
        self.total_flux = float(math.fsum(phis))
        self.n_cols = n_cols
        self.jk = [(j, k) for j in range(n_cols) for k in range(n_cols) if j <= k]
        n = len(zetas)
        self.dnn = separations(zetas).min(axis=1) if n > 1 else np.array([1.0])
        self.r_in = 0.20 * self.dnn
        self.r_out = 0.45 * self.dnn
        self.center = zetas.mean()
        self.R0 = 2.0 * float(np.abs(zetas - self.center).max() + self.r_out.max())
        # base angular resolution of the remainder piece: the bump around a
        # fluxon near radius rho subtends ~ r_out / rho, which the periodic
        # trapezoid grid must resolve from the start
        feature = 1.0
        for a in range(n):
            rho = max(abs(zetas[a] - self.center), self.r_out[a])
            feature = min(feature, self.r_out[a] / rho)
        self.nt_boost = int(min(32, max(1, np.ceil(0.5 / feature))))

    # -- pieces ------------------------------------------------------------

    def _weight(self, z, skip=None):
        """Bump sum and log weight on one chunk of grid points z.

        One pass per fluxon b forms d^2 = |z - zeta_b|^2.  The log weight
        sums -phi'_b log d^2 over b != skip.  Each bump is 1 for
        d <= r_in and 0 for d >= r_out, so _bump runs only on the ring in
        between."""
        x, y = z.real, z.imag
        chi = np.zeros(z.shape)
        logw = np.zeros(z.shape)
        d2 = np.empty(z.shape)
        dy = np.empty(z.shape)
        for b, (zc, ph) in enumerate(zip(self.zetas, self.phis)):
            np.subtract(x, zc.real, out=d2)
            d2 *= d2
            np.subtract(y, zc.imag, out=dy)
            dy *= dy
            d2 += dy
            near = d2 < self.r_out[b] ** 2
            if near.any():
                t = np.sqrt(d2[near])
                t -= self.r_in[b]
                t /= self.r_out[b] - self.r_in[b]
                ring = (t > 0.0) & (t < 1.0)
                chi[near] += t <= 0.0
                near[near] = ring
                chi[near] += _bump(t[ring])
            if b != skip and ph != 0.0:
                np.log(d2, out=d2)
                d2 *= ph
                logw -= d2
        return chi, logw

    def _contract(self, z, w):
        """sum over the chunk of w zbar^j z^k, one value per (j, k) pair
        with j <= k, read from P^H (w P) with P = [1, z, ..., z^(n-1)]."""
        w = w.ravel()
        if self.n_cols == 1:
            return np.array([w.sum()], dtype=complex)
        p = np.empty((self.n_cols, w.size), dtype=complex)
        p[0] = 1.0
        p[1] = z.ravel()
        for k in range(2, self.n_cols):
            p[k] = p[k - 1] * p[1]
        gram = np.conj(p) @ (w * p).T
        return np.array([gram[j, k] for j, k in self.jk])

    def disk_piece(self, a, nr, nt):
        """Bump-weighted neighborhood of fluxon a in local polar
        coordinates; Jacobi weight absorbs r^(1 - 2 phi_a)."""
        beta = 1.0 - 2.0 * self.phis[a]
        r, wr = gauss_jacobi01(nr, beta)
        r = r * self.r_out[a]
        wr = wr * self.r_out[a] ** (beta + 1.0)
        th = trapezoid_angles(nt)
        wt = np.full(nt, TWO_PI / nt)
        total = np.zeros(len(self.jk), dtype=complex)
        for lo in range(0, nt, self.ANGULAR_CHUNK):
            sl = slice(lo, min(lo + self.ANGULAR_CHUNK, nt))
            z = self.zetas[a] + r[:, None] * np.exp(1j * th[None, sl])
            # the bump disks are disjoint (r_out < dnn / 2), so the bump
            # sum on this disk is fluxon a's own bump
            chi, logw = self._weight(z, skip=a)
            total += self._contract(z, chi * np.exp(logw) * wr[:, None] * wt[None, sl])
        return total

    def far_piece(self, nr, nt):
        """r > R0 in polar coordinates about the centroid, radial variable
        v = R0 / r, tail power absorbed into a Jacobi weight per entry."""
        th = trapezoid_angles(nt)
        wt = np.full(nt, TWO_PI / nt)
        rel = (self.zetas - self.center) / self.R0
        out = np.empty(len(self.jk), dtype=complex)
        eith = np.exp(1j * th)
        for i, (j, k) in enumerate(self.jk):
            alpha = 2.0 * self.total_flux - j - k - 3.0
            v, wv = gauss_jacobi01(nr, alpha)
            rr = self.R0 / v
            z = self.center + rr[:, None] * eith[None, :]
            logw = np.zeros((nr, nt))
            for zc, ph in zip(rel, self.phis):
                if ph != 0.0:
                    logw -= 2.0 * ph * np.log(np.abs(1.0 - zc * np.exp(-1j * th)[None, :] * v[:, None]))
            smooth = np.exp(logw) * np.conj(z) ** j * z ** k / rr[:, None] ** (j + k)
            out[i] = (self.R0 ** (j + k + 2.0 - 2.0 * self.total_flux)
                      * np.einsum("i,it,t->", wv, smooth, wt))
        return out

    def middle_piece(self, nr, nt):
        """Smooth remainder (1 - sum chi) * weight on the disk |z - c| <= R0,
        polar panels split at the bump radii."""
        brk = {0.0, self.R0}
        for a in range(len(self.zetas)):
            ra = abs(self.zetas[a] - self.center)
            for x in (ra - self.r_out[a], ra, ra + self.r_out[a]):
                if 1e-12 * self.R0 < x < self.R0:
                    brk.add(float(x))
        brk = sorted(brk)
        th = trapezoid_angles(nt)
        wt = np.full(nt, TWO_PI / nt)
        x, w = gauss_legendre(nr)
        total = np.zeros(len(self.jk), dtype=complex)
        for lo_r, hi_r in zip(brk[:-1], brk[1:]):
            r = lo_r + (hi_r - lo_r) * x
            wr = w * (hi_r - lo_r)
            for lo in range(0, nt, self.ANGULAR_CHUNK):
                sl = slice(lo, min(lo + self.ANGULAR_CHUNK, nt))
                z = self.center + r[:, None] * np.exp(1j * th[None, sl])
                chi, logw = self._weight(z)
                total += self._contract(
                    z, (1.0 - chi) * np.exp(logw) * (r * wr)[:, None] * wt[None, sl])
        return total

    # -- assembly ----------------------------------------------------------

    def run(self, tol):
        """Piece sums refined level by level until the level differences,
        summed over the pieces, fall below tol x the largest entry.

        Returns the entries and, per entry, the sum over the pieces of its
        last level difference."""
        labels = [("disk", a) for a in range(len(self.zetas))] + [("far", None), ("mid", None)]
        value = {}
        diff = {lab: np.full(len(self.jk), np.inf) for lab in labels}
        frozen = set()
        for level in range(self.MAX_LEVEL + 1):
            nr = 24 * 2 ** level
            nt = 64 * 2 ** level
            for lab in labels:
                if lab in frozen:
                    continue
                kind, a = lab
                if kind == "disk":
                    cur = self.disk_piece(a, nr, max(nt // 2, 32))
                elif kind == "far":
                    cur = self.far_piece(min(nr, 96), nt)
                else:
                    cur = self.middle_piece(nr, 2 * nt * self.nt_boost)
                if lab in value:
                    diff[lab] = np.abs(cur - value[lab])
                value[lab] = cur
            est = sum(value.values())
            scale = max(float(np.abs(est).max()), 1e-300)
            budget = tol * scale / (2.0 * len(labels))
            for lab in labels:
                if diff[lab].max() < 0.2 * budget:
                    frozen.add(lab)
            total_err = float(np.fmin(np.sum([diff[lab].max() for lab in labels]), np.inf))
            if level >= 1 and total_err <= tol * scale:
                return est, sum(diff.values())
        raise QuadratureNotConverged(
            f"plane quadrature stalled at relative error {total_err / scale:.3g} "
            f"(target {tol:g})", attained=total_err / scale)


def metric_bruteforce(vc: ValidatedConfig, tol: float = 1e-6) -> Metric:
    """Metric by direct two-dimensional quadrature (the expensive oracle).

    Entries with j <= k are integrated on shared grids and mirrored, so
    the result is hermitian by construction.  The grids are laid out at
    unit diameter; entry (j, k) and its error, the sum over the pieces of
    its last level difference, are scaled back by the diameter's power
    lam^(j + k + 2 - 2 Phi'_T), and error_estimate is the largest scaled
    error.  An entry that leaves the float range raises NumericalError.
    """
    counts = vc.counts
    if counts.D_f < 1 or not counts.free_modes_ok:
        raise NoFreeModes(f"configuration has D_f = {counts.D_f} free modes")
    lam = vc.diameter
    session = _BruteForce(vc.zeta / lam, vc.phi_reduced, counts.D_f)
    flat, err = session.run(tol)
    power = np.array([j + k + 2.0 for j, k in session.jk]) - 2.0 * session.total_flux
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
