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
from .bf import BfModel
from .engine import SinrModel
from .errors import (
    ConfigError,
    DegenerateRatesError,
    EmptyMixtureError,
    NumericInstabilityError,
    RankSinrError,
    UnsupportedDimensionError,
)
from .mixture import MixtureSpec, build_mixture, cdf_y, pdf_y
from .montecarlo import EmpiricalDistribution, simulate_bf_sinr, simulate_ostbc_sinr
from .ostbc import OstbcModel, outage_white_interference
from .scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
    config_from_dict,
    load_config,
)
from .sweeps import SweepKind, SweepSpec, find_crossing, threshold_gain
from .wishart import EigenWeightTable, compute_weights

__all__ = [
    "__version__",
    "BfModel",
    "ChainReport",
    "ConfigError",
    "DegenerateRatesError",
    "EigenWeightTable",
    "EmptyMixtureError",
    "EmpiricalDistribution",
    "InterfererSpec",
    "MixtureSpec",
    "NumericInstabilityError",
    "OstbcModel",
    "OwnMode",
    "ProductDistribution",
    "RankSinrError",
    "ScenarioConfig",
    "SinrModel",
    "SweepKind",
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
    "find_crossing",
    "load_config",
    "outage_white_interference",
    "pdf_y",
    "product_pdf",
    "simulate_bf_sinr",
    "simulate_ostbc_sinr",
    "threshold_gain",
]
