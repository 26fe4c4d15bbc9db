"""Approximation chain for the per-instant OSTBC projection terms.

The closed-form OSTBC analysis replaces each normalized projection
S = |c_m^H u|^2 / ||H0||_F^2 by an exponential with rate n_T*n_L.  That
replacement happens in two steps: first S is factored as an Exp(n_L)
times an independent Beta(n_R, n_R(n_T-1)) weight, then the product is
flattened to a mean-matched exponential.  This module evaluates all
three stages so the damage done by each step can be measured:

  exact    -- joint channel simulation of S, no assumptions
  product  -- density of Exp(n_L) x Beta(n_R, n_R(n_T-1)), computed by
              the 1-D mixing integral (the Meijer-G form evaluated
              numerically rather than symbolically)
  expapprox -- n_T*n_L*exp(-n_T*n_L*x)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericInstabilityError, UnsupportedDimensionError
from .montecarlo import DEFAULT_CHUNK, _abs2, complex_normal, run_chunks
from .scenario import MAX_ANTENNAS


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@dataclass(frozen=True)
class ProductDistribution:
    """Exp(rate n_L) times an independent Beta(n_R, n_R(n_T-1)) weight."""

    n_r: int
    n_t: int
    n_l: int

    def __post_init__(self) -> None:
        for name in ("n_r", "n_t", "n_l"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= MAX_ANTENNAS:
                raise UnsupportedDimensionError(
                    f"{name} must be an integer in 1..{MAX_ANTENNAS}, got {v!r}"
                )
        if self.n_l > self.n_t:
            raise UnsupportedDimensionError(
                f"n_l={self.n_l} exceeds the {self.n_t} transmit antennas"
            )

    @property
    def alpha(self) -> int:
        return self.n_r

    @property
    def beta(self) -> int:
        return self.n_r * (self.n_t - 1)

    @property
    def mean(self) -> float:
        # product of independent means: (1/n_L) * alpha/(alpha+beta)
        return 1.0 / (self.n_t * self.n_l)


def exp_approx_pdf(x, n_t: int, n_l: int):
    """Mean-matched exponential stand-in: n_T*n_L*exp(-n_T*n_L*x)."""
    rate = n_t * n_l
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0, rate * np.exp(-np.minimum(rate * x, 700.0)), 0.0)
    return out if out.ndim else float(out)


def _product_pdf_scalar(x: float, pd: ProductDistribution) -> float:
    n_l, a, b = pd.n_l, pd.alpha, pd.beta
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if b == 0:
        # single-column channel: the beta weight is identically 1
        return n_l * math.exp(-n_l * x)
    lognorm = _log_beta(a, b)
    if x == 0.0:
        if a == 1:
            return math.inf
        return n_l * math.exp(_log_beta(a - 1, b) - lognorm)

    # t = exp(s) flattens the 1/t weight so the n_R = 1 near-zero
    # log-divergence integrates cleanly
    log_nlx = math.log(n_l * x)

    def integrand(s: float) -> float:
        if log_nlx - s > 30.0:  # exp factor below 1e-13000, and exp(-s) may overflow
            return 0.0
        one_minus_t = -math.expm1(s)
        if one_minus_t <= 0.0:
            return 0.0
        return math.exp(
            -n_l * x * math.exp(-s) + (a - 1) * s + (b - 1) * math.log(one_minus_t) - lognorm
        )

    # imported on use: scipy is the largest part of the import time, and
    # only the quadrature here needs it
    from scipy import integrate

    res = integrate.quad(
        integrand, -np.inf, 0.0, epsabs=1e-10, epsrel=0.0, limit=200, full_output=1
    )
    val, abserr = res[0], res[1]
    if not math.isfinite(val) or abserr > 1e-8 * max(1.0, abs(val)):
        raise NumericInstabilityError(
            f"product density quadrature error {abserr:.2e} at x={x}"
        )
    return n_l * val


def product_pdf(x, pd: ProductDistribution):
    """Density of the exponential-beta product via its mixing integral."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_product_pdf_scalar(float(v), pd) for v in arr])
    return out if np.ndim(x) else float(out[0])


def _exact_terms_chunk(
    n_r: int, n_t: int, n_l: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    h0 = complex_normal(rng, (n_r, n_t, n))
    hi = complex_normal(rng, (n_r, n_t, n))
    # the first column of a Haar n_l-frame, drawn as the whole frame's
    # Gaussian matrix so the stream is that of haar_columns
    z = complex_normal(rng, (n_t, n_l, n))[:, 0]
    v = z / (np.sqrt(_abs2(z).sum(axis=0)) * math.sqrt(n_l))
    s = np.einsum("rb,rb->b", h0[:, 0].conj(), np.einsum("rtb,tb->rb", hi, v))
    return _abs2(s) / _abs2(h0).reshape(-1, n).sum(axis=0)


def simulate_exact_terms(
    n_r: int, n_t: int, n_l: int, n_samples: int, seed: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Joint-simulation samples of S = |c^H u|^2 / ||H0||_F^2.

    c is a column of the serving channel, u the interferer channel times
    one unit-Frobenius precoder column; nothing is assumed independent.
    Chunked and seeded like the receiver simulations in ``montecarlo``.
    """
    return run_chunks(
        lambda n, rng: _exact_terms_chunk(n_r, n_t, n_l, n, rng),
        n_samples, seed, chunk_size,
    )


@dataclass(frozen=True)
class ChainReport:
    """Shared-grid densities for the three approximation stages."""

    pd: ProductDistribution
    grid: np.ndarray
    exact_density: np.ndarray
    product_density: np.ndarray
    exp_density: np.ndarray
    mean_exact: float
    mean_product: float
    mean_exp: float
    se_exact: float
    distances: dict[str, dict[str, float]]

    def rows(self):
        """(x, exact, meijer_equivalent, exp_approx) rows for export."""
        for i, x in enumerate(self.grid):
            yield (
                float(x),
                float(self.exact_density[i]),
                float(self.product_density[i]),
                float(self.exp_density[i]),
            )


def _ks_and_l1(grid, cdf_a, cdf_b, pdf_a, pdf_b) -> dict[str, float]:
    ks = float(np.max(np.abs(cdf_a - cdf_b)))
    l1 = float(np.trapezoid(np.abs(pdf_a - pdf_b), grid))
    return {"ks": ks, "l1": l1}


def compare_chain(
    n_r: int,
    n_t: int,
    n_l: int,
    n_samples: int = 1_000_000,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK,
) -> ChainReport:
    """Evaluate all three chain stages and their pairwise distances.

    The grid is 300 points on [0, 3].  The exact stage is binned on it; distances use grid-evaluated
    CDFs (cumulative trapezoid for the product stage).
    """
    pd = ProductDistribution(n_r=n_r, n_t=n_t, n_l=n_l)
    grid = np.linspace(0.0, 3.0, 300)

    samples = simulate_exact_terms(n_r, n_t, n_l, n_samples, seed, chunk_size)
    edges = np.concatenate([grid, [np.inf]])
    counts, _ = np.histogram(samples, bins=edges)
    widths = np.diff(grid)
    exact_density = np.zeros_like(grid)
    exact_density[:-1] = counts[:-1] / (n_samples * widths)
    exact_density[-1] = exact_density[-2]
    exact_cdf = np.searchsorted(np.sort(samples), grid, side="right") / n_samples

    product_density = product_pdf(grid, pd)
    if not np.isfinite(product_density[0]):
        product_density = product_density.copy()
        product_density[0] = product_density[1]  # presentation-only clip at x=0
    trapezoids = np.diff(grid) * (product_density[1:] + product_density[:-1]) / 2.0
    product_cdf = np.concatenate([[0.0], np.cumsum(trapezoids)])

    rate = n_t * n_l
    exp_density = exp_approx_pdf(grid, n_t, n_l)
    exp_cdf = 1.0 - np.exp(-rate * grid)

    distances = {
        "exact_vs_product": _ks_and_l1(grid, exact_cdf, product_cdf, exact_density, product_density),
        "exact_vs_exp": _ks_and_l1(grid, exact_cdf, exp_cdf, exact_density, exp_density),
        "product_vs_exp": _ks_and_l1(grid, product_cdf, exp_cdf, product_density, exp_density),
    }
    return ChainReport(
        pd=pd,
        grid=grid,
        exact_density=exact_density,
        product_density=product_density,
        exp_density=exp_density,
        mean_exact=float(np.mean(samples)),
        mean_product=pd.mean,
        mean_exp=1.0 / rate,
        se_exact=float(np.std(samples) / math.sqrt(n_samples)),
        distances=distances,
    )
