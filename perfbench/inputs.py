"""Seeded input generation for the benchmark workloads.

Everything here depends only on the seed and numpy's PCG64 stream, so the
same seed gives byte-identical inputs (see ``canonical``).  Nothing from
fluxholo is imported: the program only ever receives what these functions
return.  Positions are lists of [re, im] pairs and fluxes lists of floats,
the layout ``FluxConfig.from_dict`` reads.
"""

from __future__ import annotations

import json

import numpy as np

#: Fixed class sizes of one metric-sweep batch (450 cases).  Case costs
#: spread widely within a class (about +-50% with the geometry), so the
#: batch is this large for its p50 and p90 to hold steady across seeds.
SWEEP_CLASSES = (
    ("generic", 210),
    ("scale", 60),
    ("tight-pair", 45),
    ("near-tie", 36),
    ("edge-flux", 18),
    ("half-flux", 81),
)
#: Near ties against a strong fluxon (reduced flux 0.85..0.95, gap at most
#: 1e-7 of the diameter); the remaining near ties pass a weak one.  Each
#: strong tie costs seconds today (the contour quadrature stalls), so there
#: is one per batch.
STRONG_TIES = 1
#: Edge-flux cases with one reduced flux in [0.99, 0.9989] (one per batch,
#: for the same reason); the others carry a flux just above an integer.
HIGH_EDGE = 1

BOX = 1.5
#: Jitter of the holonomy base positions; small enough that the adaptive
#: ODE takes the same number of steps for every seed.
HOLONOMY_JITTER = 2e-3


def canonical(obj) -> bytes:
    """Byte form used to compare generated inputs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _pairs(z) -> list:
    return [[float(w.real), float(w.imag)] for w in z]


def _reduced_fluxes(rng, n):
    """Reduced fluxes with sum > 1 and the sum at least 0.01 from an integer."""
    while True:
        phi = rng.uniform(0.05, 0.95, n)
        s = phi.sum()
        if s > 1.01 and abs(s - round(s)) > 0.01:
            return phi


def _with_confined(rng, phi):
    """Lift some reduced fluxes by one flux quantum (confined modes); this
    leaves the free-mode problem unchanged."""
    return [float(p + (1 if rng.random() < 0.2 else 0)) for p in phi]


def _generic_positions(rng, n, min_sep=0.25, min_gap=0.02):
    while True:
        z = rng.uniform(-BOX, BOX, n) + 1j * rng.uniform(-BOX, BOX, n)
        if n == 1:
            return z
        d = np.abs(z[:, None] - z[None, :]) + np.diag([np.inf] * n)
        g = np.abs(z.imag[:, None] - z.imag[None, :]) + np.diag([np.inf] * n)
        if d.min() > min_sep and g.min() > min_gap:
            return z


def _diameter(z) -> float:
    return float(np.abs(z[:, None] - z[None, :]).max())


def _case(cls, i, z, fluxes, **extra):
    doc = {"id": f"{cls}-{i:03d}", "class": cls, "positions": _pairs(z),
           "fluxes": [float(f) for f in fluxes]}
    doc.update(extra)
    return doc


def _generic(rng, i):
    n = 2 + i % 7
    phi = _reduced_fluxes(rng, n)
    return _case("generic", i, _generic_positions(rng, n), _with_confined(rng, phi))


def _scale(rng, i):
    n = 2 + i % 5
    exponent = 3 if i % 2 == 0 else -3
    z = _generic_positions(rng, n) * 10.0 ** exponent
    return _case("scale", i, z, _reduced_fluxes(rng, n), scale_exponent=exponent)


def _tight_pair(rng, i):
    n = 3 + i % 3
    z = _generic_positions(rng, n, min_sep=0.5)
    sep = 10.0 ** rng.uniform(-4.0, -2.0)
    angle = rng.uniform(np.pi / 6, 5 * np.pi / 6) * rng.choice([-1.0, 1.0])
    z[1] = z[0] + sep * np.exp(1j * angle)
    return _case("tight-pair", i, z, _reduced_fluxes(rng, n), separation=sep)


def _near_tie(rng, i):
    """Fluxon 1 sits a relative gap above fluxon 0 and to its right, so the
    contour leg leaving fluxon 1 towards the left passes fluxon 0 at that
    height.  The strong ties give fluxon 0 a reduced flux of 0.85..0.95;
    the weak ones keep both tied fluxes at or below 0.5."""
    n = 3 + i % 3
    strong = i < STRONG_TIES
    while True:
        phi = rng.uniform(0.05, 0.95, n)
        if strong:
            phi[0] = rng.uniform(0.85, 0.95)
        else:
            phi[:2] = rng.uniform(0.1, 0.5, 2)
        s = phi.sum()
        if s > 1.01 and abs(s - round(s)) > 0.01:
            break
    log_gap = rng.uniform(-9.0, -7.0 if strong else -6.0)
    gap = 10.0 ** log_gap
    while True:
        z = _generic_positions(rng, n, min_sep=0.4, min_gap=0.05)
        z[1] = complex(z[0].real + rng.uniform(0.3, 1.0), z[0].imag)
        others = np.abs(z.imag[2:] - z[0].imag)
        if np.all(others > 0.05) and np.all(np.abs(z[2:] - z[1]) > 0.4):
            break
    z[1] = complex(z[1].real, z[0].imag + gap * _diameter(z))
    return _case("near-tie", i, z, phi, relative_gap=gap,
                 tie="strong" if strong else "weak")


def _edge_flux(rng, i):
    n = 3
    while True:
        rest = rng.uniform(0.2, 0.8, n - 1)
        if i < HIGH_EDGE:
            edge_phi = rng.uniform(0.99, 0.9989)
            flux = edge_phi + (i % 2)
        else:
            edge_phi = rng.uniform(0.0011, 0.01)
            flux = edge_phi + 1 + (i % 2)
        s = rest.sum() + edge_phi
        if s > 1.01 and abs(s - round(s)) > 0.01:
            break
    z = _generic_positions(rng, n, min_sep=0.4)
    kind = "high" if i < HIGH_EDGE else "above-integer"
    return _case("edge-flux", i, z, [flux, *rest], edge=kind)


def _half_flux(rng, i):
    while True:
        u = complex(rng.uniform(-1.0, 2.0),
                    rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
        if abs(u) > 0.3 and abs(u - 1.0) > 0.3:
            break
    z = np.array([0.0, 1.0, u])
    return _case("half-flux", i, z, [0.5, 0.5, 0.5], u=[u.real, u.imag])


_MAKERS = {
    "generic": _generic,
    "scale": _scale,
    "tight-pair": _tight_pair,
    "near-tie": _near_tie,
    "edge-flux": _edge_flux,
    "half-flux": _half_flux,
}


def metric_sweep(seed: int) -> list:
    """450 independent metric cases in fixed class proportions."""
    rng = np.random.default_rng([seed, 1])
    return [_MAKERS[cls](rng, i) for cls, count in SWEEP_CLASSES for i in range(count)]


def _jitter(rng, z, amount):
    z = np.asarray(z, dtype=complex)
    return z + amount * (rng.uniform(-1, 1, len(z)) + 1j * rng.uniform(-1, 1, len(z)))


def holonomy_loops(seed: int) -> list:
    """Three closed loops at library defaults, base positions jittered."""
    rng = np.random.default_rng([seed, 2])
    triple = _jitter(rng, [0.0, 0.3 + 1.0j, -0.2 + 2.2j], HOLONOMY_JITTER)
    pair = _jitter(rng, [0.0, 0.3 + 1.0j], HOLONOMY_JITTER)
    center = complex(*rng.uniform(-0.05, 0.05, 2)) + 0.15 + 0.5j
    return [
        _case("encircle", 0, triple, [0.9, 0.9, 0.9],
              word={"moves": [{"encircle": [0, 1]}]}),
        _case("exchange", 0, triple, [0.9, 0.9, 0.9],
              word={"moves": [{"exchange": 1}]}),
        _case("rotation", 0, pair, [0.7, 0.8], center=[center.real, center.imag]),
    ]


def cli_session(seed: int) -> list:
    """CLI invocations: valid commands and inputs that must exit with 2."""
    rng = np.random.default_rng([seed, 3])
    cases = []

    def add(name, argv, config=None, expect=0, **extra):
        doc = {"id": f"{name}-{len(cases):02d}", "class": name, "argv": argv,
               "expect_exit": expect}
        if config is not None:
            z, fluxes = config
            doc["config"] = {"positions": _pairs(z), "fluxes": [float(f) for f in fluxes]}
        doc.update(extra)
        cases.append(doc)

    base = {
        3: ([0.0, 0.9 + 0.7j, 0.2 + 1.9j], [0.4, 0.5, 0.6]),
        4: ([0.0, 1.1 + 0.4j, 0.3 + 1.5j, -0.8 + 0.9j], [0.45, 0.55, 0.35, 0.6]),
        6: ([0.0, 1.2 + 0.3j, 0.5 + 1.4j, -0.9 + 0.8j, 1.4 + 1.9j, -0.3 + 2.6j],
            [0.3, 0.45, 0.35, 0.5, 0.4, 0.25]),
    }
    modes_z = _jitter(rng, [0.0, 1.0 + 0.5j, -0.5 + 1.2j], 0.05)
    add("modes", ["modes", "{config}"], (modes_z, [1.4, 0.7, 2.3]))
    for n, (z, fluxes) in base.items():
        add("metric", ["metric", "{config}"], (_jitter(rng, z, 0.02), fluxes), n=n)
    u0 = complex(0.5 + rng.uniform(-0.05, 0.05), 0.9 + rng.uniform(-0.05, 0.05))
    x0 = -0.6 + rng.uniform(-0.02, 0.02)
    y0 = 0.3 + rng.uniform(-0.02, 0.02)
    grid = f"{x0:.6f}:{x0 + 2.2:.6f}:17,{y0:.6f}:{y0 + 1.2:.6f}:13"
    add("curvature-map", ["curvature-map", "{config}", "--mover", "2", f"--grid={grid}"],
        ([0.0, 1.0, u0], [0.5, 0.5, 0.5]))
    triple = _jitter(rng, [0.0, 0.3 + 1.0j, -0.2 + 2.2j], 0.02)
    for word in ({"moves": [{"encircle": [0, 1]}]}, {"moves": [{"exchange": 1}]}):
        add("holonomy", ["holonomy", "{config}", "--word", json.dumps(word),
                         "--analytic-only"], (triple, [0.9, 0.9, 0.9]), word=word)
    add("verify", ["--seed", str(int(rng.integers(1, 2**31))), "verify",
                   "--level", "quick"])

    z3 = _jitter(rng, base[3][0], 0.02)
    coincident = z3.copy()
    coincident[1] = coincident[0]
    add("invalid", ["metric", "{config}"], (coincident, [0.4, 0.5, 0.6]), expect=2,
        why="coincident fluxons")
    near = 2.0 + rng.uniform(-9e-4, 9e-4)
    add("invalid", ["metric", "{config}"], (z3, [0.4, 0.6, near - 1.0]), expect=2,
        why="total flux within the threshold band of an integer")
    add("invalid", ["metric", "{config}"], (z3, [0.4, -0.9, -0.6]), expect=2,
        why="nonpositive total flux")
    add("invalid", ["curvature-map", "{config}", "--mover", "2", "--grid=0:1:x,0:1:3"],
        ([0.0, 1.0, u0], [0.5, 0.5, 0.5]), expect=2, why="malformed grid spec")
    add("invalid", ["holonomy", "{config}", "--word",
                    json.dumps({"moves": [{"encircle": int(rng.integers(0, 2))}]}),
                    "--analytic-only"], (triple, [0.9, 0.9, 0.9]), expect=2,
        why="malformed braid word")
    add("invalid", ["holonomy", "{config}"], (triple, [0.9, 0.9, 0.9]), expect=2,
        why="neither --word nor --path")
    add("invalid", ["metric", "{missing}"], expect=2, why="missing configuration file")
    return cases


GENERATORS = {
    "metric-sweep": metric_sweep,
    "holonomy-loops": holonomy_loops,
    "cli-session": cli_session,
}
