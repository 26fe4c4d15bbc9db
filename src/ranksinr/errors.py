"""Exception types raised by the analytic and simulation layers."""


class RankSinrError(ValueError):
    """Base class for all package-specific errors."""


class EmptyMixtureError(RankSinrError):
    """Raised when an interference mixture is built from no rate entries."""


class DegenerateRatesError(RankSinrError):
    """Raised when mixture rates are too close to treat as distinct.

    The partial-fraction weights contain factors 1/(1 - rho_k/rho_i); when
    two group rates nearly coincide these blow up and the expansion loses
    all precision.  Equal rates belong in one group: ``build_mixture``
    merges rates within ``mixture.GROUP_TOL`` of each other before the
    coefficients are computed.
    """


class NumericInstabilityError(RankSinrError):
    """Raised where double precision cannot carry an answer.

    Two cases: an evaluated probability lands outside [0, 1] (results
    within inversion.PROB_SLACK, 1e-9, are clamped, anything further is
    refused), and the Xi coefficients that ``dump-xi`` prints cancel so
    much that sum|Xi| > 1e-12 2^53 (``mixture.reliable_terms``); the laws
    of Y do not read them.  The CLI exits 3.
    """


class ConfigError(RankSinrError):
    """Raised for malformed scenario configuration files."""


class UnsupportedDimensionError(ConfigError):
    """Raised for antenna counts outside the supported range (1..8)."""
