import fluxholo
from fluxholo import errors, metric


def test_every_public_name_resolves():
    missing = [name for name in fluxholo.__all__ if not hasattr(fluxholo, name)]
    assert not missing


def test_removed_names_stay_gone():
    # coupling_matrix returns the array itself, and every contour matrix is
    # anchored on the last fluxon, so no path can be blocked by a cut
    assert not hasattr(fluxholo, "CouplingMatrix")
    assert not hasattr(metric, "CouplingMatrix")
    assert not hasattr(errors, "PathBlocked")
