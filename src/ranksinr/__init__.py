"""SINR distributions and outage under rank-aware MIMO interference.

Closed-form densities and outage probabilities for a beamforming or
OSTBC receiver facing any mix of beamforming, spatial-multiplexing,
and OSTBC interferers of unequal power, plus the Monte Carlo oracle
used to validate them.
"""

from ._version import __version__
from .approx import (
    ChainReport,
    ProductDistribution,
    compare_chain,
    exp_approx_pdf,
    product_pdf,
)
from .engine import SinrModel
from .errors import (
    ConfigError,
    NumericInstabilityError,
    RankSinrError,
    UnsupportedDimensionError,
)
from .mixture import MixtureSpec, build_mixture, cdf_y, pdf_y
from .montecarlo import EmpiricalDistribution, simulate_bf_sinr, simulate_ostbc_sinr
from .scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
    config_from_dict,
    load_config,
)
from .sweeps import SweepSpec, threshold_gain
from .wishart import EigenWeightTable, compute_weights

__all__ = [
    "__version__",
    "ChainReport",
    "ConfigError",
    "EigenWeightTable",
    "EmpiricalDistribution",
    "InterfererSpec",
    "MixtureSpec",
    "NumericInstabilityError",
    "OwnMode",
    "ProductDistribution",
    "RankSinrError",
    "ScenarioConfig",
    "SinrModel",
    "SweepSpec",
    "Technique",
    "UnsupportedDimensionError",
    "build_mixture",
    "build_rate_set",
    "cdf_y",
    "compare_chain",
    "compute_weights",
    "config_from_dict",
    "exp_approx_pdf",
    "load_config",
    "pdf_y",
    "product_pdf",
    "simulate_bf_sinr",
    "simulate_ostbc_sinr",
    "threshold_gain",
]
