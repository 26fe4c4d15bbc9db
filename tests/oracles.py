"""Oracles and reference curves that only the tests read.

Sharing no evaluation code with the closed forms: the interference sum
drawn term by term; the Xi coefficients and the law of that sum in
mpmath at any precision; the exponential-beta product of the OSTBC
approximation chain drawn from its two factors, and that product's mean
by quadrature.  Built on the library's models: the OSTBC
white-interference limit, and the threshold where the rank-1 and rank-r
outage curves cross.
"""

import math

import mpmath
import numpy as np

from ranksinr import sweeps
from ranksinr.approx import ProductDistribution, _log_beta
from ranksinr.errors import ConfigError, EmptyMixtureError
from ranksinr.inversion import _nsection
from ranksinr.montecarlo import _generator
from ranksinr.ostbc import OstbcModel
from ranksinr.scenario import OwnMode, ScenarioConfig, own_numerator_scale


def sample_sum(rates, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the interference sum directly; oracle for the Xi machinery."""
    rates = list(rates)
    if not rates:
        raise EmptyMixtureError("no interference terms to sample")
    out = np.zeros(size)
    for r in rates:
        out += rng.exponential(scale=r, size=size)
    return out


def xi_series(rates, multiplicities, dps=40):
    """Xi_ij, keyed by 1-based (group, order), from the series product of
    ``MixtureSpec.xi`` run in mpmath at dps digits, as mpf.

    Every convolution sum is exactly rounded by ``mpmath.fsum``.  Rounded
    to double at 40 digits, this is the library's form before it moved
    to ``decimal``.
    """
    xi = {}
    groups = list(zip(rates, multiplicities))
    with mpmath.workdps(dps):
        for i, (rho_i, beta_i) in enumerate(groups):
            series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (beta_i - 1)
            for k, (rho_k, beta_k) in enumerate(groups):
                if k == i:
                    continue
                r = mpmath.mpf(rho_k) / mpmath.mpf(rho_i)
                x, head = r / (r - 1), (1 - r) ** beta_k
                factor = [math.comb(beta_k + q - 1, q) * x**q / head
                          for q in range(beta_i)]
                series = [mpmath.fsum(series[p] * factor[n - p] for p in range(n + 1))
                          for n in range(beta_i)]
            for j in range(1, beta_i + 1):
                xi[(i + 1, j)] = series[beta_i - j]
    return xi


class MpMixture:
    """The law of Y from Xi in mpmath at dps digits, for a grouped spec's
    double scales; its pdf and cdf return floats."""

    def __init__(self, spec, dps=50):
        self.dps = dps
        self.rates = spec.rates
        self.xi = xi_series(spec.rates, spec.multiplicities, dps)

    def pdf(self, y: float) -> float:
        with mpmath.workdps(self.dps):
            y = mpmath.mpf(y)
            return float(mpmath.fsum(
                v * y ** (j - 1) * mpmath.exp(-y / self.rates[i - 1])
                / (mpmath.factorial(j - 1) * mpmath.mpf(self.rates[i - 1]) ** j)
                for (i, j), v in self.xi.items()))

    def cdf(self, y: float) -> float:
        # P(j, x) = 1 - e^{-x} sum_{m<j} x^m/m!
        with mpmath.workdps(self.dps):
            y = mpmath.mpf(y)
            total = mpmath.mpf(0)
            for (i, j), v in self.xi.items():
                x = y / self.rates[i - 1]
                head = mpmath.fsum(x**m / mpmath.factorial(m) for m in range(j))
                total += v * (1 - mpmath.exp(-x) * head)
            return float(total)


def law_gaps(spec, y, pdf, cdf) -> tuple[float, float, float]:
    """Largest |cdf - reference| and |pdf - reference| on y, and the
    reference density's peak on y, against ``MpMixture(spec)``."""
    law = MpMixture(spec)
    pdf_ref = np.array([law.pdf(v) for v in y])
    cdf_ref = np.array([law.cdf(v) for v in y])
    return (float(np.max(np.abs(cdf(y, spec) - cdf_ref))),
            float(np.max(np.abs(pdf(y, spec) - pdf_ref))), float(np.max(pdf_ref)))


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


def outage_white_interference(gamma0, cfg: ScenarioConfig):
    """Outage in the white-interference limit of the OSTBC model.

    Spreading a fixed interference budget over ever more streams drives
    the denominator sum Y to its mean sum(P_i)/(n_T sigma2); replacing Y
    by that constant inflates the noise and keeps X gamma distributed:
    the OSTBC model without interferers at rho_bar/(1 + E[Y]).  This is
    the frontier the maximal-rank curve approaches from above: no rank
    increase can beat it.
    """
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError("white-interference reference is defined for ostbc mode")
    mean_y = sum(cfg.interferer_powers()) / (cfg.n_t * cfg.noise_power)
    white = OstbcModel(weights={(1, cfg.n_r * cfg.n_t - 1): 1}, mixture=None,
                       rho_bar=own_numerator_scale(cfg) / (1.0 + mean_y))
    return white.outage(gamma0)


def find_crossing(own_mode: OwnMode, n_r: int, n_t: int, snr_db: float, inr_db: float,
                  rank: int) -> tuple[float, float]:
    """Threshold where the rank-1 and rank-r outage curves meet.

    Returns (gamma_cross, outage level there).  Below the crossing the
    higher-rank interferer is milder; above it the ordering flips.  The
    models come from ``sweeps.model_for``, looked up at call time.
    """
    m1, mr = (sweeps.model_for(sweeps.equal_power_config(own_mode, n_r, n_t, snr_db,
                                                         inr_db, 1, r))
              for r in (1, rank))

    def diff(g: np.ndarray) -> np.ndarray:
        return mr.outage(g) - m1.outage(g)

    lo = m1.threshold(0.01)
    # one call brackets the crossing on lo * 2^k, k = 0..200
    grid = lo * 2.0 ** np.arange(201)
    d = diff(grid)
    if d[0] >= 0:
        raise ConfigError(
            "no gain at the 1% outage point; crossing search needs one"
        )
    if not (d > 0).any():
        raise ConfigError("outage curves do not cross below the search cap")
    k = int(np.argmax(d > 0))
    gamma_cross = float(_nsection(lambda g, rows: diff(g) > 0, grid[k - 1:k], grid[k:k + 1],
                                  1e-9)[0])
    return gamma_cross, float(m1.outage(gamma_cross))
