import math

import pytest

from fluxholo import FluxConfig, count_modes, cut_factor, cut_order, validate
from fluxholo.cli import check_cut_factor, worst_residuals
from fluxholo.errors import (
    AmbiguousOrdering,
    CoincidentFluxons,
    NearIntegerFluxon,
    NearIntegerTotalFlux,
    NonpositiveTotalFlux,
)
from conftest import assert_within_tolerance


def test_validate_basic_counts():
    vc = validate(FluxConfig([0.0, 1.0], [0.7, 0.8]))
    assert vc.counts.D == 1
    assert vc.counts.D_f == 1


def test_single_supercritical_fluxon():
    vc = validate(FluxConfig([0.0], [2.5]))
    assert vc.counts.D == 2
    assert vc.counts.D_f == 0
    assert vc.counts.n == (2,)
    assert vc.counts.phi_prime == (0.5,)


def test_coincident_positions_rejected():
    with pytest.raises(CoincidentFluxons):
        validate(FluxConfig([0.0, 0.0], [0.5, 0.5]))


def test_nonpositive_total_flux_rejected():
    with pytest.raises(NonpositiveTotalFlux):
        validate(FluxConfig([0.0, 1.0], [0.3, -0.5]))


def test_near_integer_total_flux_rejected():
    with pytest.raises(NearIntegerTotalFlux):
        validate(FluxConfig([0.0, 1.0], [0.9995, 1.0003]))


def test_near_integer_single_flux_rejected():
    with pytest.raises(NearIntegerFluxon):
        validate(FluxConfig([0.0, 1.0], [1.0002, 0.65]))


def test_relaxed_validation_allows_critical_fluxons():
    vc = validate(FluxConfig([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]), strict=False)
    assert vc.counts.D == 2
    assert vc.counts.D_f == 0


def test_counts_three_identical_09():
    c = count_modes([0.9, 0.9, 0.9])
    assert (c.D, c.D_f) == (2, 2)
    assert c.n == (0, 0, 0)


def test_counts_negative_flux_mix():
    # total 1.6 -> one zero mode; reduced sum is negative so no free modes
    c = count_modes([1.5, 1.5, -1.4])
    assert c.D == 1
    assert c.phi_prime == (0.5, 0.5, -1.4)
    assert c.D_f == 0
    assert not c.free_modes_ok


def test_counts_half_fluxes():
    c = count_modes([0.5, 0.5, 0.5])
    assert (c.D, c.D_f) == (1, 1)


def test_bookkeeping_identity_positive_fluxes(rng):
    # D = sum n_a + D_f whenever every flux is positive
    for _ in range(200):
        n = int(rng.integers(1, 6))
        fluxes = rng.uniform(0.05, 2.95, n)
        c = count_modes(fluxes)
        assert c.D_f <= max(n - 1, 0)
        if abs(math.fsum(fluxes) - round(math.fsum(fluxes))) > 1e-9:
            assert c.D == sum(c.n) + c.D_f


def test_counts_invariant_under_permutation_and_translation(rng):
    fluxes = [0.3, 0.8, 0.45, 0.7]
    pos = [0.0, 1.0 + 0.2j, 0.5 + 1.1j, -0.7 + 0.6j]
    base = validate(FluxConfig(pos, fluxes)).counts
    perm = rng.permutation(4)
    shuffled = validate(FluxConfig([pos[i] for i in perm],
                                   [fluxes[i] for i in perm])).counts
    shifted = validate(FluxConfig([z + (2.3 - 1.1j) for z in pos], fluxes)).counts
    assert (base.D, base.D_f) == (shuffled.D, shuffled.D_f)
    assert (base.D, base.D_f) == (shifted.D, shifted.D_f)
    assert sorted(base.n) == sorted(shuffled.n)


def test_cut_factor_values():
    assert cut_factor(0.0) == 1.0
    assert abs(cut_factor(0.5) - (-1.0)) < 1e-15
    assert abs(cut_factor(0.75) - 1j) < 1e-15


def test_cut_factor_periodicity(rng):
    assert_within_tolerance(worst_residuals(lambda: check_cut_factor(rng), 100))


def test_cut_order_sorted_by_imag():
    vc = validate(FluxConfig([0.0, 1j, 2j], [0.5, 0.6, 0.7]))
    assert cut_order(vc) == (0, 1, 2)
    vc = validate(FluxConfig([2j, 0.0, 1j], [0.5, 0.6, 0.7]))
    assert cut_order(vc) == (1, 2, 0)


def test_cut_order_tie_rejected():
    vc = validate(FluxConfig([0.0, 1.0], [0.7, 0.8]))
    with pytest.raises(AmbiguousOrdering):
        cut_order(vc)


def test_json_round_trip():
    cfg = FluxConfig([0.1 + 0.2j, 1.5 - 0.3j], [0.7, 0.8])
    again = FluxConfig.from_dict(cfg.to_dict())
    assert again.positions == cfg.positions
    assert again.fluxes == cfg.fluxes
