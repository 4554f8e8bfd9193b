import math

import numpy as np
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


def test_counts_match_the_counting_formulas(rng):
    # the formulas of check_mode_counting, with the integer parts and the
    # reduced fluxes written out; integer, negative and above-1 fluxes
    for _ in range(500):
        n = int(rng.integers(1, 7))
        fluxes = rng.uniform(-3.0, 4.0, n)
        whole = rng.random(n) < 0.3
        fluxes[whole] = np.round(fluxes[whole])
        c = count_modes(fluxes)
        n_direct = tuple(max(0, math.floor(f)) for f in fluxes)
        red = tuple(float(f) - na for f, na in zip(fluxes, n_direct))
        assert c.n == n_direct and all(type(na) is int for na in c.n)
        assert c.phi_prime == red and all(type(p) is float for p in c.phi_prime)
        assert c.D == max(0, math.ceil(abs(math.fsum(fluxes))) - 1)
        assert c.D_f == max(0, math.ceil(math.fsum(red)) - 1)


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


@pytest.mark.parametrize("fluxes, error", [
    ([0.9995, 1.0003], NearIntegerTotalFlux),
    ([1.0002, 0.65], NearIntegerFluxon),
    ([0.3, -0.5], NonpositiveTotalFlux),
    ([math.nan, 0.5], ValueError),
])
def test_cached_flux_verdict_raises_the_same_typed_error(fluxes, error):
    # the verdict on the fluxes depends on the fluxes alone; each call
    # with new positions raises a fresh error of the same type and message
    messages = []
    for pos in ([0.0, 1.0], [2.0, 1j], [0.5 - 1j, 3.0]):
        with pytest.raises(error) as exc:
            validate(FluxConfig(pos, fluxes))
        assert type(exc.value) is error
        messages.append(str(exc.value))
    assert len(set(messages)) == 1


def test_cached_good_verdict_never_skips_the_position_checks():
    fluxes = [0.7, 0.8]
    validate(FluxConfig([0.0, 1.0], fluxes))
    with pytest.raises(CoincidentFluxons):
        validate(FluxConfig([0.0, 0.0], fluxes))
    with pytest.raises(CoincidentFluxons, match="fluxons 0 and 1"):
        validate(FluxConfig([0.0, 1e-13, 1.0], [0.7, 0.8, 0.2]))
    with pytest.raises(ValueError, match="positions must be finite"):
        validate(FluxConfig([0.0, complex(math.inf, 0.0)], fluxes))
    # the order of the checks holds: a coincidence before a threshold, and
    # non-finite fluxes before a coincidence
    bad = [0.9995, 1.0003]
    with pytest.raises(NearIntegerTotalFlux):
        validate(FluxConfig([0.0, 1.0], bad))
    with pytest.raises(CoincidentFluxons):
        validate(FluxConfig([0.0, 0.0], bad))
    assert validate(FluxConfig([0.0, 1.0], bad), strict=False).counts.D == 1
    with pytest.raises(ValueError, match="fluxes must be finite"):
        validate(FluxConfig([0.0, 0.0], [math.inf, 0.5]))
