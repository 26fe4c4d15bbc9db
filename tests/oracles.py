"""Oracles and reference curves that only the tests read.

Sharing no evaluation code with the closed forms: the Monte Carlo chunk
kernels written batch-first, the draw axis leading, on the same draws;
the interference sum drawn term by term; the Xi coefficients and the law
of that sum in mpmath at any precision; the exponential-beta product of
the OSTBC approximation chain drawn from its two factors, and that
product's mean by quadrature.  Built on the library's models: the OSTBC
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
from ranksinr.scenario import OwnMode, ScenarioConfig, Technique, own_numerator_scale

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def complex_normal_batch_first(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit complex Gaussians of shape (n, ...), the draw axis first:
    real parts, then imaginary parts."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def haar_frames_batch_first(rng: np.random.Generator, batch: int, n: int, k: int) -> np.ndarray:
    """(batch, n, k) Haar frames: LAPACK QR of a Gaussian matrix with the
    R-diagonal phases divided out (Mezzadri 2007)."""
    q, r = np.linalg.qr(complex_normal_batch_first(rng, (batch, n, k)))
    diag = np.einsum("bkk->bk", r)
    return q * (diag / np.abs(diag)).conj()[:, None, :]


def qpsk_batch_first(rng: np.random.Generator, shape) -> np.ndarray:
    return _QPSK[rng.integers(0, 4, size=shape)]


def bf_chunk_batch_first(cfg: ScenarioConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Beamforming SINR samples: every channel drawn first, then the
    dominant eigenvector of H0^H H0, then the leakage of H V d."""
    sigma2 = cfg.noise_power
    h0 = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
    draws = []
    for spec in cfg.interferers:
        h = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
        if spec.technique is Technique.OSTBC:
            d = qpsk_batch_first(rng, (n, cfg.n_t))
            draws.append((spec, (np.einsum("brt,bt->br", h, d) / cfg.n_t)[..., None]))
        else:
            v = haar_frames_batch_first(rng, n, cfg.n_t, spec.layers) / math.sqrt(spec.layers)
            d = qpsk_batch_first(rng, (n, spec.layers))
            draws.append((spec, h @ np.einsum("btl,bl->btl", v, d)))
    _, evecs = np.linalg.eigh(np.conj(np.swapaxes(h0, 1, 2)) @ h0)
    f = np.einsum("brt,bt->br", h0, evecs[:, :, -1])
    lam = np.sum(np.abs(f) ** 2, axis=1)
    y = np.zeros(n)
    for spec, equiv in draws:
        leak = np.abs(np.einsum("br,brl->bl", f.conj(), equiv)) ** 2
        y += (spec.power(sigma2) / sigma2) * np.sum(leak, axis=1) / lam
    return own_numerator_scale(cfg) * lam / (1.0 + y)


def ostbc_chunk_batch_first(cfg: ScenarioConfig, n: int, rng: np.random.Generator,
                            force_component: bool) -> np.ndarray:
    """OSTBC SINR samples: Alamouti combining at n_t = 2 unless
    force_component, else the per-instant column projections."""
    sigma2 = cfg.noise_power
    h0 = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
    fro2 = np.sum(np.abs(h0) ** 2, axis=(1, 2))
    alamouti = cfg.n_t == 2 and not force_component
    y = np.zeros(n)
    for spec in cfg.interferers:
        h = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
        p_i = spec.power(sigma2)
        if spec.technique is Technique.OSTBC and alamouti:
            c1, c2 = h0[:, :, 0], h0[:, :, 1]
            g1, g2 = h[:, :, 0], h[:, :, 1]
            a = np.sum(c1.conj() * g1, axis=1) + np.sum(c2 * g2.conj(), axis=1)
            b = np.sum(c1.conj() * g2, axis=1) - np.sum(c2 * g1.conj(), axis=1)
            y += (p_i / (cfg.n_t**2 * sigma2)) * (np.abs(a) ** 2 + np.abs(b) ** 2) / fro2
        elif spec.technique is Technique.OSTBC:
            d = qpsk_batch_first(rng, (n, cfg.n_t, cfg.n_t))
            g = np.einsum("brt,btm->brm", h, d) / math.sqrt(cfg.n_t)
            proj = np.abs(np.einsum("brm,brm->bm", h0.conj(), g)) ** 2
            y += (p_i / (cfg.n_t * sigma2)) * np.sum(proj, axis=1) / fro2
        else:
            v = haar_frames_batch_first(rng, n, cfg.n_t, spec.layers) / math.sqrt(spec.layers)
            proj = np.abs(np.einsum("brm,brl->bml", h0.conj(), h @ v)) ** 2
            y += (p_i / (cfg.n_t * sigma2)) * np.sum(proj, axis=(1, 2)) / fro2
    return own_numerator_scale(cfg) * fro2 / (1.0 + y)


def exact_terms_batch_first(n_r: int, n_t: int, n_l: int, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """|c^H u|^2 / ||H0||_F^2 with u = H v, v the first column of a Haar
    n_l-frame over sqrt(n_l) and c the first column of H0."""
    h0 = complex_normal_batch_first(rng, (n, n_r, n_t))
    hi = complex_normal_batch_first(rng, (n, n_r, n_t))
    v = haar_frames_batch_first(rng, n, n_t, n_l)[:, :, 0] / math.sqrt(n_l)
    u = np.einsum("brt,bt->br", hi, v)
    fro2 = np.sum(np.abs(h0) ** 2, axis=(1, 2))
    return np.abs(np.einsum("br,br->b", h0[:, :, 0].conj(), u)) ** 2 / fro2


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
    # the outage ratio rank r / rank 1 reaches 1 where diff does 0
    def ratio(g, rows):
        return mr.outage(g) / m1.outage(g)

    bracket = (grid[k - 1:k], grid[k:k + 1], ratio(grid[k - 1:k], None), ratio(grid[k:k + 1], None))
    gamma_cross = float(_nsection(ratio, 1.0, bracket, 1e-9)[0])
    return gamma_cross, float(m1.outage(gamma_cross))
