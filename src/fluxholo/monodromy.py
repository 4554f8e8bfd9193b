"""Braid-word algebra and analytic holonomy.

Carrying fluxon a once counter-clockwise around its cut-order neighbor
b = a + 1 rearranges the contour matrix rows by the 2 x 2 block

    [[1 - nu_a + nu_a nu_b,  nu_a (1 - nu_b)],
     [1 - nu_a,              nu_a           ]],    nu = e^{-2 pi i phi},

with determinant nu_a nu_b and eigenvalues {1, nu_a nu_b}.  For identical
fluxes the exchange of two neighbors is the Burau generator
[[1 - nu, nu], [1, 0]].  Words in these moves compose into N x N
monodromy matrices M that fix the all-ones vector and preserve the
coupling matrix, G = M^* G M.

Because M fixes 1_N it acts on the quotient of C^N by constants, where
the contour matrix becomes square and invertible whenever the free-mode
count is maximal (D_f = N - 1).  The coefficient holonomy is then the
similarity u = Psi~^{-1} M~^{-1} Psi~, which the transport ODE reproduces
path-independently (checked in the acceptance suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ValidatedConfig, count_modes, cut_factor, cut_order
from .errors import (
    ExchangeOnDistinctFluxes,
    NonAdjacentEncircle,
    NotConfined,
    NotMaximalFreeModes,
)
from .metric import coupling_matrix, primitive_matrix
from .transport import ControlPath, HolonomyResult, _json_int

FLUX_EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class Move:
    """One braid move on strand positions (0-based, cut order).

    kind "encircle": the fluxon on strand `strand` loops `power` times
    counter-clockwise around the one on strand `strand` + 1.
    kind "exchange": the two are swapped, counter-clockwise half-turn for
    power = +1 (requires identical fluxes).
    """

    kind: str
    strand: int
    power: int = 1

    def __post_init__(self):
        if self.kind not in ("encircle", "exchange"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.power == 0 or self.power != int(self.power):
            raise ValueError("move power must be a nonzero integer")


@dataclass(frozen=True)
class BraidWord:
    """Sequence of moves, applied left to right."""

    moves: tuple

    def __init__(self, moves: Sequence[Move]):
        object.__setattr__(self, "moves", tuple(moves))

    def inverse(self) -> "BraidWord":
        return BraidWord([Move(m.kind, m.strand, -m.power)
                          for m in reversed(self.moves)])

    @classmethod
    def from_json(cls, doc: dict) -> "BraidWord":
        """{"moves": [{"encircle": [a, b], "power": k} |
                      {"exchange": i, "power": k}, ...]} (0-based).

        Raises ValueError for a document it cannot parse: a missing
        "moves" list, a move that is not an object with exactly one kind,
        or a strand or power that is not an integer."""
        moves = doc.get("moves") if isinstance(doc, dict) else None
        if not isinstance(moves, list):
            raise ValueError('a braid word needs a "moves" list')
        out = []
        for mv in moves:
            kinds = [k for k in ("encircle", "exchange") if isinstance(mv, dict) and k in mv]
            if len(kinds) != 1:
                raise ValueError(f"unrecognized move {mv!r}")
            power = _json_int(mv.get("power", 1), "power")
            if kinds[0] == "encircle":
                pair = mv["encircle"]
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ValueError(f"encircle needs a strand pair [a, a + 1], got {pair!r}")
                a, b = (_json_int(s, "strand") for s in pair)
                if b != a + 1:
                    raise NonAdjacentEncircle(
                        f"encircle needs adjacent strands, got ({a}, {b})")
                out.append(Move("encircle", a, power))
            else:
                out.append(Move("exchange", _json_int(mv["exchange"], "strand"), power))
        return cls(out)


@dataclass(frozen=True)
class MonodromyMatrix:
    """N x N branch-rearrangement matrix of a braid word."""

    M: np.ndarray
    word: BraidWord
    fluxes: tuple

    def stabilization_residual(self) -> float:
        ones = np.ones(self.M.shape[0], dtype=complex)
        return float(np.abs(self.M @ ones - ones).max())

    def pseudo_unitarity_residual(self) -> float:
        """Defect of M* G M = G, relative to |G| |M|^2 (the congruence is
        exact in exact arithmetic; the forward error of forming M from a
        word scales with the product of the block norms)."""
        G = coupling_matrix(self.fluxes)
        raw = float(np.abs(self.M.conj().T @ G @ self.M - G).max())
        scale = float(np.abs(G).max()) * max(1.0, float(np.abs(self.M).max()) ** 2)
        return raw / scale


def encircle_block(nu_a: complex, nu_b: complex) -> np.ndarray:
    """Two-strand block for one counter-clockwise encirclement."""
    return np.array([[1.0 - nu_a + nu_a * nu_b, nu_a * (1.0 - nu_b)],
                     [1.0 - nu_a, nu_a]], dtype=complex)


def exchange_block(nu: complex) -> np.ndarray:
    """Burau generator for exchanging two identical fluxons."""
    return np.array([[1.0 - nu, nu], [1.0, 0.0]], dtype=complex)


def _embed(block: np.ndarray, strand: int, n: int) -> np.ndarray:
    M = np.eye(n, dtype=complex)
    M[strand:strand + 2, strand:strand + 2] = block
    return M


def word_to_monodromy(word: BraidWord, fluxes) -> MonodromyMatrix:
    """Product of embedded blocks, first move leftmost.

    Analytic continuation along a concatenated path drags the branch
    through the earlier moves first, and each earlier monodromy matrix
    (being constant) commutes past the continuation of the later legs;
    the matrix of "word1 then word2" is therefore M(word1) M(word2).
    The transport ODE fixes this orientation: criterion-9-style numeric
    holonomies of multi-move paths match only with this ordering.

    fluxes are listed in strand (cut) order.  Exchanges permute the
    strand-to-fluxon assignment for the remaining moves; encirclements
    return every fluxon to its strand.
    """
    assign = [float(f) for f in fluxes]
    n = len(assign)
    M = np.eye(n, dtype=complex)
    for mv in word.moves:
        i = mv.strand
        if not 0 <= i < n - 1:
            raise NonAdjacentEncircle(
                f"strand {i} has no neighbor {i + 1} (N = {n})")
        if mv.kind == "encircle":
            blk = encircle_block(cut_factor(assign[i]), cut_factor(assign[i + 1]))
        else:
            spread = max(assign) - min(assign)
            if spread > FLUX_EQUALITY_TOL:
                raise ExchangeOnDistinctFluxes(
                    f"fluxes differ by {spread:.3g}; exchange undefined")
            blk = exchange_block(cut_factor(assign[i]))
            if mv.power % 2:
                assign[i], assign[i + 1] = assign[i + 1], assign[i]
        if mv.power != 1:
            blk = np.linalg.matrix_power(blk, mv.power)
        M = M @ _embed(blk, i, n)
    return MonodromyMatrix(M=M, word=word, fluxes=tuple(float(f) for f in fluxes))


def reduce_monodromy(M) -> np.ndarray:
    """Matrix induced on the quotient by constants, in the coordinates
    x_a = v_a - v_N (a = 1..N-1): M~_{ia} = M_{ia} - M_{Na}.

    Eigenvalues(M) = Eigenvalues(M~) union {1}."""
    M = np.asarray(M.M if isinstance(M, MonodromyMatrix) else M, dtype=complex)
    n = M.shape[0]
    return M[:n - 1, :n - 1] - M[n - 1:n, :n - 1]


def reduced_coupling(G: np.ndarray) -> np.ndarray:
    """The coupling form carried to the quotient coordinates (the kernel
    direction 1_N drops out): the leading (N-1) x (N-1) block."""
    n = G.shape[0]
    return G[:n - 1, :n - 1]


def holonomy_analytic(vc: ValidatedConfig, word: BraidWord,
                      tol: float = 1e-11) -> HolonomyResult:
    """Holonomy from the monodromy: u = Psi~^{-1} M~^{-1} Psi~.

    Only valid in the topological regime D_f = N - 1, where the quotient
    contour matrix is square and invertible.  Strand indices in the word
    refer to the cut order of the configuration, so Psi is taken in that
    order, unrotated: the one caller outside the frame of
    metric._contour_frame.
    """
    n = vc.n_fluxons
    if vc.counts.D_f != n - 1:
        raise NotMaximalFreeModes(
            f"analytic holonomy needs D_f = N - 1, got D_f = {vc.counts.D_f}")
    psi = primitive_matrix(vc, tol, n - 1)
    psi_t = psi.matrix[:n - 1]
    m_t = reduce_monodromy(word_to_monodromy(word, psi.fluxes))
    u = np.linalg.solve(m_t @ psi_t, psi_t)
    g = psi_t.conj().T @ reduced_coupling(coupling_matrix(psi.fluxes)) @ psi_t
    drift = float(np.abs(u.conj().T @ g @ u - g).max() / np.abs(g).max())
    return HolonomyResult(
        u=u,
        eigenvalues=np.linalg.eigvals(u),
        norm_drift=drift,
        method="analytic",
        permutation=tuple(range(n)),
        metadata={"order": psi.order},
    )


def word_to_path(vc: ValidatedConfig, word: BraidWord) -> ControlPath:
    """Geometric realization of a braid word as a control path.

    Encircle(i): the strand-i fluxon travels a circle through its own
    position around the strand-(i + 1) fluxon.  Exchange(i):
    half-turn of the pair about its midpoint.  Raises ValueError when the
    requested circles would sweep over a third fluxon."""
    cut_order(vc)  # reject ambiguous strand assignments up front
    positions = vc.zeta.copy()
    path = None
    for mv in word.moves:
        i = mv.strand
        if not 0 <= i < vc.n_fluxons - 1:
            raise NonAdjacentEncircle(f"strand {i} has no neighbor strand")
        rank = np.argsort(positions.imag, kind="stable")
        mover, around = int(rank[i]), int(rank[i + 1])
        if mv.kind == "encircle":
            center = positions[around]
            radius = abs(positions[mover] - center)
            others = np.delete(np.arange(vc.n_fluxons), [mover, around])
            if np.any(np.abs(positions[others] - center) <= radius * (1.0 + 1e-9)):
                raise ValueError("encircle loop would sweep over a third fluxon")
            piece = ControlPath.circle(positions, mover, center, turns=mv.power)
        else:
            c = 0.5 * (positions[mover] + positions[around])
            r = 0.5 * abs(positions[mover] - positions[around])
            others = np.delete(np.arange(vc.n_fluxons), [mover, around])
            if np.any(np.abs(positions[others] - c) <= r * (2.0 + 1e-9)):
                raise ValueError("exchange would pass too close to a third fluxon")
            piece = ControlPath.exchange(positions, mover, around, power=mv.power)
        path = piece if path is None else path.then(piece)
        positions = path.end
    if path is None:
        raise ValueError("empty braid word has no geometric realization")
    return path


def confined_phase(windings: Sequence[int], a: int, fluxes) -> float:
    """Berry phase of a mode confined on fluxon a when the other fluxons
    wind around it: sum over b != a of 2 pi w_b phi'_b.

    The confined block of the connection is the single function
    -sum_b phi'_b dlog(zeta_b - zeta_a), so each full turn of fluxon b
    contributes exactly its Aharonov-Bohm phase."""
    counts = count_modes(fluxes)
    if counts.n[a] < 1:
        raise NotConfined(f"fluxon {a} carries no confined modes")
    if len(windings) != len(counts.phi_prime):
        raise ValueError("need one winding number per fluxon")
    return float(sum(2.0 * math.pi * int(w) * ph
                     for b, (w, ph) in enumerate(zip(windings, counts.phi_prime))
                     if b != a))


def rigid_rotation_phase(k: int, phi_total_reduced: float) -> float:
    """Berry phase of the k-th monomial mode under one full rigid
    counter-clockwise rotation: 2 pi (phi'_T - k - 1).  Identical mod
    2 pi for every k."""
    if k < 0 or k != int(k):
        raise ValueError("mode index k must be a nonnegative integer")
    return 2.0 * math.pi * (float(phi_total_reduced) - k - 1.0)
