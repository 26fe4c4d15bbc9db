"""Exception types raised by the analytic and simulation layers."""


class RankSinrError(ValueError):
    """Base class for all package-specific errors."""


class NumericInstabilityError(RankSinrError):
    """Raised where double precision cannot carry an answer.

    Among the cases: an evaluated probability lands outside [0, 1], where
    the eigenvalue table's signed sum has lost its digits (8x8 BF reads
    down to -2e-11; within engine.PROB_SLACK, 1e-9, it is clamped, any
    further is refused); an exact Xi coefficient of ``dump-xi`` past the
    double range (``mixture.MixtureSpec.xi``), as for large groups of
    near-equal rates, which are never merged (the laws of Y do not read
    the coefficients); a density past the double range, of the SINR or
    of Y.  The CLI exits 3.
    """


class ConfigError(RankSinrError):
    """Raised for an input value outside its rule: a malformed
    configuration file, and a count, real number, dB value, probability,
    enum member, evaluation point or model row index that the rules of
    ``scenario`` refuse, in a file or passed to the Python API, and an
    empty rate set where a mixture or a law of Y needs one.  The CLI
    exits 2.
    """


class UnsupportedDimensionError(ConfigError):
    """Raised for an antenna count that is not an integer in 1..8."""
