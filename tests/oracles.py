"""Oracles and reference curves that only the tests read.

Sharing no evaluation code with the closed forms: the Monte Carlo chunk
kernels written batch-first, the draw axis leading, on the same stream
(drawn in the library's draw-axis-last order, then moved to the front),
and the library's chunk layout run serially;
the interference sum drawn term by term; the Xi coefficients and the law
of that sum in mpmath at any precision; the exponential-beta product of
the OSTBC approximation chain drawn from its two factors, and that
product's mean by quadrature.  Built on the library's models: the OSTBC
white-interference limit, and the threshold where the rank-1 and rank-r
outage curves cross.
"""

import collections
import math
from fractions import Fraction

import mpmath
import numpy as np

from ranksinr import sweeps
from ranksinr.approx import ProductDistribution
from ranksinr.errors import ConfigError
from ranksinr.inversion import _nsection
from ranksinr.montecarlo import _chunk_sizes, _generator
from ranksinr.ostbc import OstbcModel
from ranksinr.scenario import (
    OwnMode,
    ScenarioConfig,
    Technique,
    db_to_linear,
    own_numerator_scale,
)

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def complex_normal_batch_first(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit complex Gaussians of shape (n, ...), the draw axis first: the
    stream of the draw-axis-last shape (..., n), real and imaginary parts
    consecutive, with the draw axis moved to the front."""
    pairs = rng.standard_normal((*shape[1:], shape[0], 2))
    return np.moveaxis(pairs[..., 0] + 1j * pairs[..., 1], -1, 0) / math.sqrt(2.0)


def haar_frames_batch_first(rng: np.random.Generator, batch: int, n: int, k: int) -> np.ndarray:
    """(batch, n, k) Haar frames: LAPACK QR of a Gaussian matrix with the
    R-diagonal phases divided out (Mezzadri 2007)."""
    q, r = np.linalg.qr(complex_normal_batch_first(rng, (batch, n, k)))
    diag = np.einsum("bkk->bk", r)
    return q * (diag / np.abs(diag)).conj()[:, None, :]


def qpsk_batch_first(rng: np.random.Generator, shape) -> np.ndarray:
    """QPSK symbols of shape (n, ...), drawn draw axis last, moved first."""
    return np.moveaxis(_QPSK[rng.integers(0, 4, size=(*shape[1:], shape[0]))], -1, 0)


def precoder_batch_first(rng: np.random.Generator, n: int, n_t: int, layers: int) -> np.ndarray:
    """(n, n_t, layers) precoders over sqrt(layers): Haar frames below
    full rank; at full rank the identity, which draws nothing and leaks
    what any unitary frame leaks."""
    if layers == n_t:
        return np.broadcast_to(np.eye(n_t) / math.sqrt(layers), (n, n_t, n_t))
    return haar_frames_batch_first(rng, n, n_t, layers) / math.sqrt(layers)


def bf_chunk_batch_first(cfg: ScenarioConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Beamforming SINR samples: every channel drawn first, then the
    dominant eigenvector of H0^H H0, then the leakage of H V, whose
    unit-modulus layer symbols cancel and are not drawn."""
    h0 = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
    draws = []
    for spec in cfg.interferers:
        h = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
        if spec.technique is Technique.OSTBC:
            d = qpsk_batch_first(rng, (n, cfg.n_t))
            draws.append((spec, (np.einsum("brt,bt->br", h, d) / cfg.n_t)[..., None]))
        else:
            draws.append((spec, h @ precoder_batch_first(rng, n, cfg.n_t, spec.layers)))
    _, evecs = np.linalg.eigh(np.conj(np.swapaxes(h0, 1, 2)) @ h0)
    f = np.einsum("brt,bt->br", h0, evecs[:, :, -1])
    lam = np.sum(np.abs(f) ** 2, axis=1)
    y = np.zeros(n)
    for spec, equiv in draws:
        leak = np.abs(np.einsum("br,brl->bl", f.conj(), equiv)) ** 2
        y += db_to_linear(spec.inr_db) * np.sum(leak, axis=1) / lam
    return own_numerator_scale(cfg) * lam / (1.0 + y)


def ostbc_chunk_batch_first(cfg: ScenarioConfig, n: int, rng: np.random.Generator,
                            component: bool = False) -> np.ndarray:
    """OSTBC SINR samples: Alamouti combining at n_t = 2 unless
    component, else the per-instant column projections.  The library
    takes the component path only at n_t != 2; at n_t = 2 it runs here
    to check the Alamouti path against it."""
    h0 = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
    fro2 = np.sum(np.abs(h0) ** 2, axis=(1, 2))
    alamouti = cfg.n_t == 2 and not component
    y = np.zeros(n)
    for spec in cfg.interferers:
        h = complex_normal_batch_first(rng, (n, cfg.n_r, cfg.n_t))
        inr = db_to_linear(spec.inr_db)
        if spec.technique is Technique.OSTBC and alamouti:
            c1, c2 = h0[:, :, 0], h0[:, :, 1]
            g1, g2 = h[:, :, 0], h[:, :, 1]
            a = np.sum(c1.conj() * g1, axis=1) + np.sum(c2 * g2.conj(), axis=1)
            b = np.sum(c1.conj() * g2, axis=1) - np.sum(c2 * g1.conj(), axis=1)
            y += (inr / cfg.n_t**2) * (np.abs(a) ** 2 + np.abs(b) ** 2) / fro2
        elif spec.technique is Technique.OSTBC:
            d = qpsk_batch_first(rng, (n, cfg.n_t, cfg.n_t))
            g = np.einsum("brt,btm->brm", h, d) / math.sqrt(cfg.n_t)
            proj = np.abs(np.einsum("brm,brm->bm", h0.conj(), g)) ** 2
            y += (inr / cfg.n_t) * np.sum(proj, axis=1) / fro2
        else:
            v = precoder_batch_first(rng, n, cfg.n_t, spec.layers)
            proj = np.abs(np.einsum("brm,brl->bml", h0.conj(), h @ v)) ** 2
            y += (inr / cfg.n_t) * np.sum(proj, axis=(1, 2)) / fro2
    return own_numerator_scale(cfg) * fro2 / (1.0 + y)


def exact_terms_batch_first(n_r: int, n_t: int, n_l: int, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """|c^H u|^2 / ||H0||_F^2 with u = H v, v the first column of a Haar
    n_l-frame over sqrt(n_l) and c the first column of H0.  That column
    has the law of a Haar 1-frame, drawn as one."""
    h0 = complex_normal_batch_first(rng, (n, n_r, n_t))
    hi = complex_normal_batch_first(rng, (n, n_r, n_t))
    v = haar_frames_batch_first(rng, n, n_t, 1)[:, :, 0] / math.sqrt(n_l)
    u = np.einsum("brt,bt->br", hi, v)
    fro2 = np.sum(np.abs(h0) ** 2, axis=(1, 2))
    return np.abs(np.einsum("br,br->b", h0[:, :, 0].conj(), u)) ** 2 / fro2


def serial_chunks(kernel, n_samples: int, seed: int, chunk: int) -> np.ndarray:
    """``kernel(n, rng)`` over the library's chunk layout, one chunk after
    another in this thread, chunk i on the i-th stream spawned from seed."""
    sizes = list(_chunk_sizes(n_samples, chunk))
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return np.concatenate([kernel(n, _generator(ss)) for n, ss in zip(sizes, children)])


def sample_sum(rates, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the interference sum directly; oracle for the Xi machinery."""
    rates = list(rates)
    if not rates:
        raise ConfigError("no interference terms to sample")
    out = np.zeros(size)
    for r in rates:
        out += rng.exponential(scale=r, size=size)
    return out


def xi_series(rates, multiplicities, dps=40):
    """Xi_ij, keyed by 1-based (group, order), from the series product of
    ``MixtureSpec.xi`` run in mpmath at dps digits, as mpf.

    Every convolution sum is exactly rounded by ``mpmath.fsum``, and
    1 - rho_k/rho_i is formed from the gap rho_i - rho_k, which is exact
    for rates less than a factor 2^80 apart.
    """
    xi = {}
    groups = list(zip(rates, multiplicities))
    with mpmath.workdps(dps):
        for i, (rho_i, beta_i) in enumerate(groups):
            series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (beta_i - 1)
            for k, (rho_k, beta_k) in enumerate(groups):
                if k == i:
                    continue
                gap = mpmath.mpf(rho_i) - mpmath.mpf(rho_k)
                x, head = -mpmath.mpf(rho_k) / gap, (gap / rho_i) ** beta_k
                factor = [math.comb(beta_k + q - 1, q) * x**q / head
                          for q in range(beta_i)]
                series = [mpmath.fsum(series[p] * factor[n - p] for p in range(n + 1))
                          for n in range(beta_i)]
            for j in range(1, beta_i + 1):
                xi[(i + 1, j)] = series[beta_i - j]
    return xi


def xi_rounded(rates, multiplicities, dps=100):
    """``xi_series`` rounded to double, as float hex: at dps digits, raised
    twofold until the doubled precision rounds every coefficient alike."""
    while True:
        low, high = ({k: float(v).hex() for k, v in xi_series(rates, multiplicities, d).items()}
                     for d in (dps, 2 * dps))
        if low == high:
            return low
        dps *= 2


class MpMixture:
    """The law of Y from Xi in mpmath at dps digits over the raw rates:
    equal rates are counted, near-equal ones are never merged."""

    def __init__(self, rates, dps=200):
        counts = collections.Counter(float(r) for r in rates)
        self.dps = dps
        self.rates = sorted(counts, reverse=True)
        self.xi = xi_series(self.rates, [counts[r] for r in self.rates], dps)

    def law(self, y: float) -> tuple[float, float]:
        """(pdf, cdf) at y: term (i, j) is Xi_ij Pois(j-1; x)/rho_i in the
        density and Xi_ij P(Pois(x) >= j) in the CDF, x = y/rho_i."""
        with mpmath.workdps(self.dps):
            y = mpmath.mpf(y)
            pdf = cdf = mpmath.mpf(0)
            for i, rho in enumerate(self.rates, start=1):
                rho = mpmath.mpf(rho)
                x = y / rho
                weight, below, j = mpmath.exp(-x), mpmath.mpf(0), 1
                while (i, j) in self.xi:
                    below += weight
                    pdf += self.xi[(i, j)] * weight / rho
                    cdf += self.xi[(i, j)] * (1 - below)
                    weight *= x / j
                    j += 1
            return float(pdf), float(cdf)


def law_gaps(rates, y, pdf, cdf, dps=200) -> tuple[float, float, float]:
    """Errors of pdf(y, rates) and cdf(y, rates) against ``MpMixture(rates,
    dps)``: the cdf's largest relative error where the reference is at
    least 1e-300, the pdf's largest error over the reference's peak on y,
    and its largest relative error at 0 < y <= E[Y]."""
    law = MpMixture(rates, dps)
    pdf_ref, cdf_ref = np.array([law.law(v) for v in y]).T
    pdf_val, cdf_val = pdf(y, rates), cdf(y, rates)
    resolved = cdf_ref >= 1e-300
    below_mean = (y > 0) & (y <= sum(rates))
    return (float(np.max(np.abs(cdf_val - cdf_ref)[resolved] / cdf_ref[resolved])),
            float(np.max(np.abs(pdf_val - pdf_ref)) / np.max(pdf_ref)),
            float(np.max(np.abs(pdf_val - pdf_ref)[below_mean] / pdf_ref[below_mean],
                         initial=0.0)))


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
    lognorm = math.lgamma(pd.alpha) + math.lgamma(pd.beta) - math.lgamma(pd.alpha + pd.beta)

    def integrand(t: float) -> float:
        return t * math.exp((pd.alpha - 1) * math.log(t) + (pd.beta - 1) * math.log1p(-t) - lognorm)

    from scipy import integrate

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    return val / pd.n_l


def product_pdf_mp(points, n_l: int, shapes) -> dict:
    """Density of Exp(n_l) x Beta(a, b), a = n_r and b = n_r (n_t - 1), at
    each point 0 < x <= 250/n_l, for each (n_r, n_t) of `shapes`, as
    {(n_r, n_t): array}.

    For integer shapes the mixing integral is the finite alternating sum
    n_l/B(a, b) sum_{m<b} (-1)^m C(b-1, m) E_{a+m}(c) with c = n_l x.  Here
    e_n = e^c E_n(c) runs up from mpmath's E_1 by e_{n+1} = (1 - c e_n)/n
    (DLMF 8.19.12), in integers scaled by 2^1024, with c the exact rational
    n_l x; so the sum cancels exactly.  Each step adds under 2 units of
    2^-1024, which the recurrence grows by at most e^c < 2^361 and the
    binomials by 2^55, while the sum itself stays above 2^-221 (its least,
    at a = 8, b = 56, c = 250): more than 100 digits remain.
    e^-c carries 768 fractional bits, 400 significant ones or more, and the
    result is rounded once.
    """
    bits = 1024
    one = 1 << bits
    top = max(n_r * n_t for n_r, n_t in shapes)  # the largest a + b - 1, plus 1
    out = {shape: np.empty(len(points)) for shape in shapes}
    for i, x in enumerate(points):
        num, den = (n_l * Fraction(float(x))).as_integer_ratio()
        if not 0 < num <= 250 * den:
            raise ValueError(f"x = {x} is outside (0, 250/n_l]")
        with mpmath.workprec(bits + 64):
            c = mpmath.mpf(num) / den
            e = [int(mpmath.e1(c) * mpmath.exp(c) * one)]
            decay = int(mpmath.exp(-c) * 2**768)
        for n in range(1, top):
            e.append((one - num * e[-1] // den) // n)
        for n_r, n_t in shapes:
            a, b = n_r, n_r * (n_t - 1)
            if b == 0:
                out[n_r, n_t][i] = n_l * decay / 2**768
                continue
            total = sum((-1) ** m * math.comb(b - 1, m) * e[a + m - 1] for m in range(b))
            inv_beta = (a + b - 1) * math.comb(a + b - 2, a - 1)
            out[n_r, n_t][i] = n_l * inv_beta * total * decay / 2 ** (bits + 768)
    return out


def outage_white_interference(gamma0, cfg: ScenarioConfig):
    """Outage in the white-interference limit of the OSTBC model.

    Spreading a fixed interference budget over ever more streams drives
    the denominator sum Y to its mean sum(INR_i)/n_T; replacing Y
    by that constant inflates the noise and keeps X gamma distributed:
    the OSTBC model without interferers at rho_bar/(1 + E[Y]).  This is
    the frontier the maximal-rank curve approaches from above: no rank
    increase can beat it.
    """
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError("white-interference reference is defined for ostbc mode")
    mean_y = sum(db_to_linear(s.inr_db) for s in cfg.interferers) / cfg.n_t
    white = OstbcModel(weights={(1, cfg.n_r * cfg.n_t - 1): 1},
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

    def share(g: np.ndarray) -> np.ndarray:
        # the rank-r share of the two outages, 1/2 where they are equal
        o_1, o_r = m1.outage(g), mr.outage(g)
        return o_r / (o_1 + o_r)

    lo = m1.threshold(0.01)
    # one call brackets the crossing on lo * 2^k, k = 0..200
    grid = lo * 2.0 ** np.arange(201)
    q = share(grid)
    if q[0] >= 0.5:
        raise ConfigError(
            "no gain at the 1% outage point; crossing search needs one"
        )
    if not (q >= 0.5).any():
        raise ConfigError("outage curves do not cross below the search cap")
    k = int(np.argmax(q >= 0.5))
    bracket = [(float(grid[k - 1]), float(grid[k]), float(q[k - 1]), float(q[k]))]
    gamma_cross = float(_nsection(share, 0.5, bracket)[0])
    return gamma_cross, float(m1.outage(gamma_cross))
