"""The exact Gauss-Manin derivatives against independent routes: a
Richardson-extrapolated finite difference of the factorized metric, and
the Burau monodromy of the braid word a loop realizes."""

import numpy as np
import pytest

from fluxholo import (
    BraidWord,
    ControlPath,
    FluxConfig,
    Move,
    holonomy,
    metric_derivative,
    primitive_matrix,
    reduce_monodromy,
    validate,
    word_to_monodromy,
    word_to_path,
)

from conftest import factorized_metric

POSITIONS = [0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 0.9j, 1.4 + 1.9j]


def holomorphic_fd(ev, positions, a, h):
    """Central-difference holomorphic derivative d g / d zeta_a =
    (d/dx - i d/dy) g / 2 at step h (4 metric evaluations)."""
    z = np.asarray(positions, dtype=complex)

    def shifted(dz):
        zz = z.copy()
        zz[a] += dz
        return ev(zz)

    gx = (shifted(h) - shifted(-h)) / (2.0 * h)
    gy = (shifted(1j * h) - shifted(-1j * h)) / (2.0 * h)
    return 0.5 * (gx - 1j * gy)


def richardson_derivative(ev, positions, a, h):
    """One Richardson step on holomorphic_fd: error O(h^4)."""
    d1 = holomorphic_fd(ev, positions, a, h)
    d2 = holomorphic_fd(ev, positions, a, 0.5 * h)
    return (4.0 * d2 - d1) / 3.0


FLUXES = [
    [0.7, 0.8],                      # N = 2, D_f = N - 1
    [0.4, 0.5, 0.6],                 # N = 3, D_f = 1
    [0.9, 0.9, 0.9],                 # N = 3, D_f = N - 1
    [0.45, 0.55, 0.35, 0.6],         # N = 4, D_f = 1
    [0.85, 0.75, 0.9, 0.8],          # N = 4, D_f = N - 1
    [0.35, 0.3, 0.6, 0.4, 0.5],      # N = 5, D_f = 2
    [0.85, 0.8, 0.9, 0.8, 0.9],      # N = 5, D_f = N - 1
    [0.85, 0.0015, 0.9, 0.8],        # a nearly trivial branch point
    [0.85, 0.0, 0.9, 0.8],           # no branch point at fluxon 1
    [0.85, 2.3, 0.6, 0.8],           # confined modes on fluxon 1
]


@pytest.mark.parametrize("positions, fluxes", [
    *((POSITIONS[:len(f)], f) for f in FLUXES),
    # imaginary parts 1.5e-8 apart, just above the tie tolerance: the
    # derivatives come from the best-separated rotation frame
    ([0.0, 0.6 + 1.5e-8j, -0.4 + 1.1j], [0.87, 0.82, 0.2]),
], ids=[*(f"fluxes{i}" for i in range(len(FLUXES))), "near_tie"])
def test_exact_derivative_matches_finite_differences(positions, fluxes):
    vc = validate(FluxConfig(positions, fluxes))
    ev = factorized_metric(fluxes, tol=1e-13)
    z = vc.zeta
    h = 1e-3 * min(abs(p - q) for i, p in enumerate(z) for q in z[i + 1:])
    exact = [metric_derivative(vc, a, tol=1e-13)[0] for a in range(len(fluxes))]
    oracle = [richardson_derivative(ev, z, a, h) for a in range(len(fluxes))]
    scale = max(float(np.abs(d).max()) for d in oracle)
    worst = max(float(np.abs(e - o).max()) for e, o in zip(exact, oracle))
    assert worst < 1e-8 * scale


@pytest.mark.parametrize("word", [
    BraidWord([Move("encircle", 0)]),
    BraidWord([Move("exchange", 1)]),
])
def test_continued_frame_reproduces_burau_monodromy(three_identical_09, word):
    # third route to the braiding: Psi~ continued around the loop lands on
    # M~ Psi~(0), with M~ the quotient monodromy of the word
    vc = three_identical_09
    res = holonomy(vc, word_to_path(vc, word))
    psi = primitive_matrix(vc, tol=1e-12, columns=2)
    psi_t = psi.matrix[:-1] - psi.matrix[-1]
    expect = reduce_monodromy(word_to_monodromy(word, psi.fluxes)) @ psi_t
    got = res.metadata["monodromy"] @ psi_t
    assert np.abs(got - expect).max() < 1e-7 * np.abs(psi_t).max()


def test_ambiguous_start_matches_perturbed_start():
    # fluxons 0 and 1 share an imaginary part: the start frame comes from
    # the rigid-rotation law, once.  D_f < N - 1, because with D_f = N - 1
    # the holonomy is the inverse propagator of the connection whatever
    # the start frame
    fluxes = [0.4, 0.5, 0.6]
    results = []
    for dy in (0.0, 1e-7):
        vc = validate(FluxConfig([0.0, 1.0 + 1j * dy, 0.2 + 1.9j], fluxes))
        loop = ControlPath.circle(vc, mover=0, center=vc.zeta[1])
        results.append(holonomy(vc, loop).u)
    assert np.abs(results[0] - results[1]).max() < 1e-6
