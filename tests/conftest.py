"""Shared fixtures: the reference scenario and its Monte Carlo runs.

The heavy million-sample simulations are session scoped so the oracle
tests and the acceptance gate reuse the same draws.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ranksinr import bf
from ranksinr.montecarlo import simulate_bf_sinr, simulate_ostbc_sinr
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
)

REF_INTERFERERS = (
    InterfererSpec(technique=Technique.OSTBC, inr_db=6.0),
    InterfererSpec(technique=Technique.BEAMFORMING, inr_db=8.0),
    InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING, inr_db=10.0, layers=2),
)

REF_BF = ScenarioConfig(
    n_r=2,
    n_t=2,
    noise_power=1.0,
    snr_db=15.0,
    own_mode=OwnMode.BEAMFORMING,
    interferers=REF_INTERFERERS,
)

REF_OSTBC = ScenarioConfig(
    n_r=2,
    n_t=2,
    noise_power=1.0,
    snr_db=15.0,
    own_mode=OwnMode.OSTBC,
    interferers=REF_INTERFERERS,
)

N_REF = 1_000_000


@pytest.fixture(scope="session")
def ref_bf_cfg():
    return REF_BF


@pytest.fixture(scope="session")
def ref_ostbc_cfg():
    return REF_OSTBC


@pytest.fixture(scope="session")
def bf_ref_run():
    """(distribution, wall seconds) for the reference BF simulation."""
    t0 = time.perf_counter()
    dist = simulate_bf_sinr(REF_BF, N_REF, seed=0)
    return dist, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ostbc_ref_run():
    t0 = time.perf_counter()
    dist = simulate_ostbc_sinr(REF_OSTBC, N_REF, seed=0)
    return dist, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ostbc_ref_component_run():
    dist = simulate_ostbc_sinr(REF_OSTBC, N_REF, seed=1, force_component=True)
    return dist


def ks_distance(samples: np.ndarray, cdf_values_at_sorted: np.ndarray) -> float:
    """Two-sided KS statistic of sorted-sample ECDF against model CDF."""
    n = samples.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(
        max(
            np.max(np.abs(ecdf_hi - cdf_values_at_sorted)),
            np.max(np.abs(ecdf_lo - cdf_values_at_sorted)),
        )
    )


def eigen_model(n_r: int, n_t: int) -> bf.BfModel:
    """The law of lambda_max: a beamforming model with no interferers at
    rho_bar = 1 (0 dB SNR), whose outage is the CDF and density the pdf."""
    return bf.from_config(ScenarioConfig(n_r=n_r, n_t=n_t, noise_power=1.0, snr_db=0.0,
                                         own_mode=OwnMode.BEAMFORMING))


def exact_mean(weights) -> Fraction:
    """E[lambda_max] = sum_kl psi_kl (l+1)/k over an exact weight table."""
    return sum(w * Fraction(l + 1, k) for (k, l), w in weights.items())
