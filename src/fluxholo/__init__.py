"""Zero modes of point-like fluxons: counting, induced metric, adiabatic
transport and braiding holonomy, with analytic cross-checks."""

from .config import (
    FluxConfig,
    ModeCounts,
    ValidatedConfig,
    count_modes,
    cut_factor,
    cut_order,
    validate,
)
from .metric import (
    Metric,
    PrimitiveMatrix,
    coupling_matrix,
    metric_bruteforce,
    metric_factorized,
    primitive_matrix,
)
from .modes import BranchSheet, ModeVector, continue_along_path, density, mode_value
from .monodromy import (
    BraidWord,
    MonodromyMatrix,
    Move,
    confined_phase,
    encircle_block,
    exchange_block,
    holonomy_analytic,
    reduce_monodromy,
    reduced_coupling,
    rigid_rotation_phase,
    word_to_monodromy,
    word_to_path,
)
from .special import (
    ELLIPTIC_CONVENTION,
    elliptic_k,
    hyp2f1_reg,
    metric_half_fluxes,
    three_fluxon_primitive_matrix,
)
from .transport import (
    ControlPath,
    HolonomyResult,
    connection,
    curvature_abelian,
    curvature_nonabelian,
    holonomy,
    metric_derivative,
    parallel_transport,
)

__version__ = "0.1.0"

__all__ = [
    "BranchSheet", "BraidWord", "ControlPath", "FluxConfig", "HolonomyResult",
    "Metric", "ModeCounts", "ModeVector", "MonodromyMatrix",
    "Move", "PrimitiveMatrix", "ValidatedConfig", "ELLIPTIC_CONVENTION",
    "confined_phase", "connection", "continue_along_path", "count_modes",
    "coupling_matrix", "curvature_abelian", "curvature_nonabelian",
    "cut_factor", "cut_order", "density", "elliptic_k", "encircle_block",
    "exchange_block", "holonomy", "holonomy_analytic", "hyp2f1_reg",
    "metric_bruteforce", "metric_derivative",
    "metric_factorized", "metric_half_fluxes", "mode_value",
    "parallel_transport", "primitive_matrix", "reduce_monodromy",
    "reduced_coupling", "rigid_rotation_phase",
    "three_fluxon_primitive_matrix", "validate", "word_to_monodromy",
    "word_to_path",
]
