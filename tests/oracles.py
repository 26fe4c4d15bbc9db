"""Sampling and quadrature oracles that share no code with the closed forms.

The interference sum drawn term by term, the exponential-beta product of
the OSTBC approximation chain drawn from its two factors, and that
product's mean by quadrature.  Only the tests read them.
"""

import math

import numpy as np

from ranksinr.approx import ProductDistribution, _log_beta
from ranksinr.errors import EmptyMixtureError
from ranksinr.montecarlo import _generator


def sample_sum(rates, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the interference sum directly; oracle for the Xi machinery."""
    rates = list(rates)
    if not rates:
        raise EmptyMixtureError("no interference terms to sample")
    out = np.zeros(size)
    for r in rates:
        out += rng.exponential(scale=r, size=size)
    return out


def sample_product(pd: ProductDistribution, n_samples: int, seed: int) -> np.ndarray:
    """Draws from the assumed-independent product, for oracle comparisons."""
    rng = _generator(np.random.SeedSequence(seed))
    e = rng.exponential(scale=1.0 / pd.n_l, size=n_samples)
    if pd.beta == 0:
        return e
    return e * rng.beta(pd.alpha, pd.beta, size=n_samples)


def product_mean_quadrature(pd: ProductDistribution) -> float:
    """Mean by integrating the beta weight against the exponential mean."""
    if pd.beta == 0:
        return 1.0 / pd.n_l
    lognorm = _log_beta(pd.alpha, pd.beta)

    def integrand(t: float) -> float:
        return t * math.exp((pd.alpha - 1) * math.log(t) + (pd.beta - 1) * math.log1p(-t) - lognorm)

    from scipy import integrate

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return val / pd.n_l
