import numpy as np
import pytest

from fluxholo import FluxConfig, metric_factorized, validate
from fluxholo.cli import TOLERANCES

SEED = 20260811


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def three_distinct():
    """N=3, one free mode, distinct fluxes, generic positions."""
    return validate(FluxConfig([0.0, 0.9 + 0.7j, 0.2 + 1.9j], [0.4, 0.5, 0.6]))


@pytest.fixture
def three_identical_09():
    """N=3, identical fluxes 0.9, two free modes (topological regime)."""
    return validate(FluxConfig([0.0, 0.3 + 1.0j, -0.2 + 2.2j], [0.9, 0.9, 0.9]))


@pytest.fixture
def two_fluxon():
    """N=2 with total flux 1.5, one free mode."""
    return validate(FluxConfig([0.0, 0.3 + 1.0j], [0.7, 0.8]))


def assert_within_tolerance(residuals):
    """Each residual of a fluxholo.cli check_* function within the
    tolerance `fluxholo verify` applies to it."""
    for name, residual in residuals.items():
        assert residual <= TOLERANCES[name], f"{name}: residual {residual:.3g}"


def factorized_metric(fluxes, tol: float = 1e-10):
    """positions -> factorized metric g for one flux assignment, each
    configuration validated and evaluated in its best-separated frame."""
    def g(positions):
        vc = validate(FluxConfig(positions, fluxes))
        return metric_factorized(vc, tol=tol, auto_rotate=True).g
    return g
