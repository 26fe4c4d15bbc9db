"""Exception types raised by the analytic and simulation layers."""


class RankSinrError(ValueError):
    """Base class for all package-specific errors."""


class EmptyMixtureError(RankSinrError):
    """Raised when an interference mixture is built from no rate entries."""


class DegenerateRatesError(RankSinrError):
    """Raised when mixture rates are too close to treat as distinct.

    The partial-fraction weights contain factors 1/(1 - rho_k/rho_i); when
    two group rates nearly coincide these blow up and the expansion loses
    all precision.  Callers should coarsen the grouping tolerance instead.
    """


class UnsupportedDimensionError(RankSinrError):
    """Raised for antenna counts outside the supported range (1..8)."""


class NumericInstabilityError(RankSinrError):
    """Raised when an evaluated probability lands outside [0, 1].

    Signals catastrophic cancellation in an alternating sum; results
    within inversion.PROB_SLACK (1e-9) of [0, 1] are clamped, anything
    further is refused.
    """


class ConfigError(RankSinrError):
    """Raised for malformed scenario configuration files."""
