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
fast and the cross-validation below is meaningful.

The factorized route evaluates the holomorphic contour matrix

    Psi_ak = int_{xi0}^{zeta_a} xi^k prod_b (xi - zeta_b)^(-phi'_b) d xi

along paths routed to the left of all fluxons so they never cross a cut,
and contracts it with the position-independent hermitian coupling matrix
G(phi):  g = Psi^* G Psi.  G has rank N - 1 with kernel spanned by the
all-ones vector (a fiducial-point shift adds a constant to each column
of Psi and must not change g) and exactly D_f positive eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import gauss_jacobi01, gauss_legendre, integrate_panels, trapezoid_angles
from .config import FluxConfig, ValidatedConfig, cut_order, validate
from .errors import (
    AmbiguousOrdering,
    NoFreeModes,
    PathBlocked,
    QuadratureNotConverged,
    ThresholdSingularity,
)
from .modes import cut_angle

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
    gauge records the fiducial point used ("last" anchors it to the
    strand-N fluxon, making the last row vanish identically).
    """

    matrix: np.ndarray
    gauge: object
    order: tuple
    fluxes: tuple
    error_estimate: float


@dataclass(frozen=True)
class CouplingMatrix:
    """Position-independent N x N hermitian matrix G(phi), in cut order."""

    G: np.ndarray
    fluxes: tuple


def coupling_matrix(fluxes) -> CouplingMatrix:
    """Explicit G for (reduced, subcritical) fluxes listed in cut order.

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
    return CouplingMatrix(G=G, fluxes=tuple(phis))


# --------------------------------------------------------------------------
# contour matrix
# --------------------------------------------------------------------------

class _Leg:
    """Straight integration leg, optionally with a power substitution that
    flattens an endpoint singularity at the start point.

    The start-point offsets to all fluxons are precomputed so that the
    difference xi - zeta_b never suffers cancellation, even when the leg
    starts on a fluxon.
    """

    def __init__(self, start, end, zetas, sing_phi=None):
        self.start = complex(start)
        self.end = complex(end)
        self.zetas = zetas
        self.p = 1.0 / (1.0 - sing_phi) if sing_phi is not None else 1.0
        self.singular = sing_phi is not None

    def values(self, t, phis, n_cols):
        d = self.end - self.start
        if self.singular:
            tp = t ** self.p
            dxi = d * self.p * t ** (self.p - 1.0)
        else:
            tp = t
            dxi = np.full(t.shape, d, dtype=complex)
        xi = self.start + d * tp
        log_psi = np.zeros(t.shape, dtype=complex)
        for zc, ph in zip(self.zetas, phis):
            base = self.start - zc
            w = d * tp if base == 0.0 else base + d * tp
            log_psi = log_psi - ph * (np.log(np.abs(w)) + 1j * cut_angle(w))
        base_val = np.exp(log_psi) * dxi
        out = np.empty((len(t), n_cols), dtype=complex)
        mono = np.ones_like(xi)
        for j in range(n_cols):
            out[:, j] = mono * base_val
            if j + 1 < n_cols:
                mono = mono * xi
        return out

    def x_breakpoints(self):
        """Parameter values where the leg passes a fluxon's real part
        (candidate spots for integrand spikes)."""
        d = self.end - self.start
        if abs(d.real) < 1e-300:
            return []
        out = []
        for zc in self.zetas:
            s = (zc.real - self.start.real) / d.real
            if 1e-12 < s < 1.0 - 1e-12:
                out.append(s ** (1.0 / self.p) if self.singular else s)
        return out


def _assert_leg_clear(start, end, zetas, im_tol):
    """A horizontal leg must not touch any cut ray (which would mean it
    crosses the cut, or runs along it through the fluxon)."""
    if abs(start.imag - end.imag) > im_tol:
        return
    y = start.imag
    x_hi = max(start.real, end.real)
    for a, zc in enumerate(zetas):
        if abs(zc.imag - y) <= im_tol and x_hi >= zc.real - im_tol:
            raise PathBlocked(
                f"integration path touches the cut of fluxon {a}; "
                f"perturb the fiducial point or rotate the configuration")


def _route(zetas, phis, target, xi0, xi0_anchor, diam, im_tol):
    """Legs (with orientation signs) from the fiducial point to zeta_target,
    routed through the half plane left of every fluxon."""
    x_left = zetas.real.min() - 1.5 * diam
    p1 = complex(x_left, xi0.imag)
    p2 = complex(x_left, zetas[target].imag)
    legs = []
    if xi0_anchor is not None:
        legs.append((_Leg(xi0, p1, zetas, sing_phi=phis[xi0_anchor]), +1.0))
    else:
        _assert_leg_clear(xi0, p1, zetas, im_tol)
        legs.append((_Leg(xi0, p1, zetas), +1.0))
    legs.append((_Leg(p1, p2, zetas), +1.0))
    # approach the target from the left; parameterized from the singular end
    legs.append((_Leg(zetas[target], p2, zetas, sing_phi=phis[target]), -1.0))
    return legs


def _primitive_raw(zetas, phis, n_cols, xi0, xi0_anchor, tol, im_tol):
    n = len(zetas)
    diam = max(float(np.abs(zetas[:, None] - zetas[None, :]).max()), 1e-3) if n > 1 else 1.0
    out = np.zeros((n, n_cols), dtype=complex)
    err = 0.0
    for a in range(n):
        if xi0_anchor is not None and a == xi0_anchor:
            continue
        total = np.zeros(n_cols, dtype=complex)
        for leg, sign in _route(zetas, phis, a, xi0, xi0_anchor, diam, im_tol):
            val, e = integrate_panels(
                lambda t, leg=leg: leg.values(t, phis, n_cols),
                tol, breakpoints=leg.x_breakpoints())
            total += sign * val
            err += e
        out[a] = total
    return out, err


def primitive_matrix(vc: ValidatedConfig, gauge="last", tol: float = 1e-10,
                     columns: int | None = None) -> PrimitiveMatrix:
    """Contour matrix Psi on the default cut sheet, rows in cut order.

    gauge is either "last" (fiducial point = strand-N fluxon, last row 0)
    or a complex fiducial point.  columns is the number of monomials
    xi^k (default D_f, the free modes; the Gauss-Manin connection needs
    all of them).  Requires every reduced flux < 1 so the endpoint
    integrals converge, and an unambiguous cut ordering.
    """
    counts = vc.counts
    if counts.D_f < 1 or not counts.free_modes_ok:
        raise NoFreeModes(f"configuration has D_f = {counts.D_f} free modes")
    if columns is None:
        columns = counts.D_f
    conv = cut_order(vc)
    order = conv.order
    zetas = vc.zeta[list(order)]
    phis = vc.phi_reduced[list(order)]
    im_tol = 1e-10 * max(vc.diameter, 1.0)
    if gauge == "last":
        xi0, anchor = zetas[-1], len(zetas) - 1
    else:
        xi0, anchor = complex(gauge), None
        hit = np.nonzero(np.abs(zetas - xi0) <= im_tol)[0]
        if hit.size:
            anchor = int(hit[0])
            xi0 = zetas[anchor]
    mat, err = _primitive_raw(zetas, phis, columns, xi0, anchor, tol, im_tol)
    return PrimitiveMatrix(matrix=mat, gauge=gauge, order=order,
                           fluxes=tuple(phis), error_estimate=err)


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


def _contour_frame(vc: ValidatedConfig, tol: float):
    """Contour matrix that the Gauss-Manin connection acts on.

    Returns (psi, G, error_estimate).  psi has one row per branch point
    (fluxon with phi' != 0), in cut order, and all m = rows - 1 monomial
    columns; every row is re-anchored to the last branch point, so each is
    an integral between two branch points.  G is the coupling matrix in the
    same row order, and psi_f^* G psi_f with psi_f the first D_f columns is
    the metric (a fluxon with phi' = 0 has a zero row and column in G).
    An ambiguous cut order is resolved once by the rigid-rotation law: the
    rotated matrix with column k scaled by e^{-i k alpha} is a frame at the
    unrotated positions.
    """
    m = int(np.count_nonzero(vc.phi_reduced)) - 1
    try:
        psi, lam = primitive_matrix(vc, tol=tol, columns=m), 1.0
    except AmbiguousOrdering:
        rot, alpha = _best_rotated(vc)
        psi, lam = primitive_matrix(rot, tol=tol, columns=m), np.exp(1j * alpha)
    phis = np.array(psi.fluxes)
    branch = phis != 0.0
    mat = psi.matrix[branch] * lam ** -np.arange(m)
    return mat - mat[-1], coupling_matrix(phis[branch]).G, psi.error_estimate


def metric_factorized(vc: ValidatedConfig, tol: float = 1e-8,
                      auto_rotate: bool = False) -> Metric:
    """Metric via g = Psi^* G Psi.

    Psi is always evaluated on the configuration rigidly rotated by
    lambda = e^{i alpha}, alpha = best_rotation_angle(zeta), the frame in
    which the imaginary parts (the cut order) are best separated.  The
    rotation is undone exactly through the scaling law
    g_jk(lambda zeta) = lambda^(k - j) g_jk(zeta): g = D g_rot D^* with
    D = diag(lambda^k).  auto_rotate=False only adds a check that the given
    configuration has an unambiguous cut order (AmbiguousOrdering if not).
    """
    counts = vc.counts
    if counts.D_f < 1 or not counts.free_modes_ok:
        raise NoFreeModes(f"configuration has D_f = {counts.D_f} free modes")
    if not auto_rotate:
        cut_order(vc)
    rot, alpha = _best_rotated(vc)
    psi = primitive_matrix(rot, gauge="last", tol=tol * 1e-2)
    G = coupling_matrix(psi.fluxes).G
    g = psi.matrix.conj().T @ G @ psi.matrix
    g = 0.5 * (g + g.conj().T)
    scale = max(float(np.abs(g).max()), 1e-300)
    err = 2.0 * float(np.abs(G).max()) * float(np.abs(psi.matrix).max()) * psi.error_estimate
    if np.linalg.eigvalsh(g).min() <= 0.0:
        raise QuadratureNotConverged(
            "factorized metric lost positive definiteness", attained=err / scale)
    d = np.diag(np.exp(1j * np.arange(counts.D_f) * alpha))
    g = d @ g @ d.conj().T
    return Metric(g=0.5 * (g + g.conj().T), method="factorized", error_estimate=err)


_ROTATION_ANGLES = np.pi * (np.arange(32) / 32.0)
_ROTATIONS = np.exp(1j * _ROTATION_ANGLES)


def best_rotation_angle(zetas) -> float:
    """Deterministic rigid-rotation angle separating the imaginary parts
    as much as possible: the first of the angles k pi / 32, k = 0..31, whose
    smallest gap no later angle beats by more than 1e-12 relative."""
    zetas = np.asarray(zetas, dtype=complex)
    if len(zetas) == 1:
        return 0.0
    im = np.sort((zetas[None, :] * _ROTATIONS[:, None]).imag, axis=1)
    best, best_a = -1.0, 0.0
    for k, gap in enumerate(np.diff(im, axis=1).min(axis=1).tolist()):
        if gap > best * (1.0 + 1e-12):
            best, best_a = gap, float(_ROTATION_ANGLES[k])
    return best_a


def _best_rotated(vc: ValidatedConfig):
    """(vc rigidly rotated by e^{i alpha}, alpha), alpha = best_rotation_angle."""
    alpha = best_rotation_angle(vc.zeta)
    lam = np.exp(1j * alpha)
    rot = validate(FluxConfig([z * lam for z in vc.config.positions], vc.config.fluxes),
                   strict=vc.strict)
    return rot, alpha


class MetricEvaluator:
    """Positions -> metric map for one flux assignment.

    Used by the abelian curvature stencil and the curvature map, which
    evaluate the metric at many nearby configurations; moving fluxons
    routinely sweep through aligned imaginary parts, which the rotated
    frame of metric_factorized absorbs (auto_rotate=True).
    """

    def __init__(self, fluxes, tol: float = 1e-10, strict: bool = True):
        self.fluxes = tuple(float(f) for f in fluxes)
        self.tol = tol
        self.strict = strict

    def __call__(self, positions) -> np.ndarray:
        vc = validate(FluxConfig(positions, self.fluxes), strict=self.strict)
        return metric_factorized(vc, tol=self.tol, auto_rotate=True).g


# --------------------------------------------------------------------------
# brute-force quadrature
# --------------------------------------------------------------------------

def _bump(t):
    """C^infinity step: 1 for t <= 0, 0 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f1 = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        f2 = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return f2 / (f1 + f2)


class _BruteForce:
    """One quadrature session: geometry, refinement state, piece sums."""

    ANGULAR_CHUNK = 128

    def __init__(self, zetas, phis, n_cols):
        self.zetas = zetas
        self.phis = phis
        self.total_flux = float(math.fsum(phis))
        self.n_cols = n_cols
        self.jk = [(j, k) for j in range(n_cols) for k in range(n_cols) if j <= k]
        n = len(zetas)
        if n > 1:
            dist = np.abs(zetas[:, None] - zetas[None, :]) + np.diag([np.inf] * n)
            self.dnn = dist.min(axis=1)
        else:
            self.dnn = np.array([1.0])
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

    def _log_weight(self, z, skip=None):
        out = np.zeros(z.shape)
        for b, (zc, ph) in enumerate(zip(self.zetas, self.phis)):
            if b == skip or ph == 0.0:
                continue
            out -= 2.0 * ph * np.log(np.abs(z - zc))
        return out

    def _chi_sum(self, z):
        out = np.zeros(z.shape)
        for a in range(len(self.zetas)):
            r = np.abs(z - self.zetas[a])
            out += _bump((r - self.r_in[a]) / (self.r_out[a] - self.r_in[a]))
        return out

    def _contract(self, z, smooth, wr, wt):
        """sum over grid of wr x wt x smooth x monomials, one value per
        (j, k) pair with j <= k."""
        out = np.empty(len(self.jk), dtype=complex)
        zc = np.conj(z)
        for i, (j, k) in enumerate(self.jk):
            out[i] = np.einsum("i,it,t->", wr, smooth * zc ** j * z ** k, wt)
        return out

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
            chi = _bump((np.abs(z - self.zetas[a]) - self.r_in[a])
                        / (self.r_out[a] - self.r_in[a]))
            smooth = chi * np.exp(self._log_weight(z, skip=a))
            total += self._contract(z, smooth, wr, wt[sl])
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
                smooth = ((1.0 - self._chi_sum(z)) * np.exp(self._log_weight(z))
                          * r[:, None])
                total += self._contract(z, smooth, wr, wt[sl])
        return total

    # -- assembly ----------------------------------------------------------

    def run(self, tol, max_level=4):
        labels = [("disk", a) for a in range(len(self.zetas))] + [("far", None), ("mid", None)]
        prev = {}
        value = {}
        diff = {lab: np.inf for lab in labels}
        frozen = set()
        est = None
        for level in range(max_level + 1):
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
                    diff[lab] = float(np.abs(cur - value[lab]).max())
                value[lab] = cur
            est = sum(value.values())
            scale = max(float(np.abs(est).max()), 1e-300)
            budget = tol * scale / (2.0 * len(labels))
            for lab in labels:
                if diff[lab] < 0.2 * budget:
                    frozen.add(lab)
            total_err = float(np.fmin(np.sum([diff[lab] for lab in labels]), np.inf))
            if level >= 1 and total_err <= tol * scale:
                return est, total_err
        raise QuadratureNotConverged(
            f"plane quadrature stalled at relative error {total_err / scale:.3g} "
            f"(target {tol:g})", attained=total_err / scale)


def metric_bruteforce(vc: ValidatedConfig, tol: float = 1e-6) -> Metric:
    """Metric by direct two-dimensional quadrature (the expensive oracle).

    Entries with j <= k are integrated on shared grids and mirrored, so
    the result is hermitian by construction.
    """
    counts = vc.counts
    if counts.D_f < 1 or not counts.free_modes_ok:
        raise NoFreeModes(f"configuration has D_f = {counts.D_f} free modes")
    session = _BruteForce(vc.zeta, vc.phi_reduced, counts.D_f)
    flat, err = session.run(tol)
    g = np.zeros((counts.D_f, counts.D_f), dtype=complex)
    for i, (j, k) in enumerate(session.jk):
        g[j, k] = flat[i]
        g[k, j] = np.conj(flat[i])
    return Metric(g=g, method="bruteforce", error_estimate=err)
