"""Exception types shared across the package.

Split into three families so the CLI can map them onto exit codes:
validation problems (bad input), numerical problems (a computation did
not reach its target accuracy), and domain problems (an operation was
asked for outside its mathematical domain).
"""


class FluxholoError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- validation

class ValidationError(FluxholoError):
    """A configuration or request failed validation."""


class CoincidentFluxons(ValidationError):
    """Two fluxon positions closer than the coincidence tolerance."""


class NonpositiveTotalFlux(ValidationError):
    """Total flux must be positive for the spin-up zero-mode sector."""


class NearIntegerTotalFlux(ValidationError):
    """Total flux within the threshold band around an integer.

    The mode count jumps and the metric diverges at integer total flux,
    so everything downstream of the metric refuses to run there.
    """


class NearIntegerFluxon(ValidationError):
    """A single flux within the threshold band around a nonzero integer."""


class AmbiguousOrdering(ValidationError):
    """Two fluxons share an imaginary part, so their cut rays overlap."""


class NoFreeModes(ValidationError):
    """The configuration carries no free zero modes (or a negative
    reduced total flux), so free-mode operations refuse to run."""


class ClosedPathRequired(ValidationError):
    """Holonomy was requested for a path or braid word that does not close."""


class NonAdjacentEncircle(ValidationError):
    """A braid move needs strands i and i + 1 of the N strands, 0 <= i < N - 1."""


class NotConfined(ValidationError):
    """The fluxon carries no confined modes."""


class NotMaximalFreeModes(ValidationError):
    """Operation requires the maximal free-mode count D_f = N - 1."""


# ----------------------------------------------------------------- numerical

class NumericalError(FluxholoError):
    """A numerical routine failed to reach its accuracy target."""

    def __init__(self, msg, attained=None):
        super().__init__(msg)
        self.attained = attained


class QuadratureNotConverged(NumericalError):
    pass


class NotConverged(NumericalError):
    pass


class IllConditionedMetric(NumericalError):
    pass


class ODEStepUnderflow(NumericalError):
    pass


class CollisionGuardTripped(NumericalError):
    """A control path came closer to a fluxon collision than allowed."""


class ThresholdSingularity(NumericalError):
    """A formula hit a sin(pi * total_flux) = 0 denominator."""


# -------------------------------------------------------------------- domain

class DomainError(FluxholoError):
    """Evaluation requested outside the mathematical domain."""


class PoleAtNonpositiveInteger(DomainError):
    pass


class SingularAtOne(DomainError):
    pass


class SingularAtCollision(DomainError):
    pass


class EvaluationAtFluxon(DomainError):
    pass


class OnCut(DomainError):
    pass


class UnsupportedN(DomainError):
    pass


class UnsupportedDf(DomainError):
    pass
