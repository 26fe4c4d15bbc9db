"""Approximation chain for the per-instant OSTBC projection terms.

The closed-form OSTBC analysis replaces each normalized projection
S = |c_m^H u|^2 / ||H0||_F^2 by an exponential with rate n_T*n_L.  That
replacement happens in two steps: first S is factored as an Exp(n_L)
times an independent Beta(n_R, n_R(n_T-1)) weight, then the product is
flattened to a mean-matched exponential.  This module evaluates all
three stages so the damage done by each step can be measured:

  exact    -- joint channel simulation of S, no assumptions
  product  -- density of Exp(n_L) x Beta(n_R, n_R(n_T-1)), its 1-D mixing
              integral on one fixed tanh-sinh rule in numpy (the paper's
              Meijer-G form, evaluated numerically rather than symbolically)
  expapprox -- n_T*n_L*exp(-n_T*n_L*x)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericInstabilityError, UnsupportedDimensionError
from .montecarlo import (DrawBuffers, _abs2, block_counts, chunk_draws, run_chunks,
                         sample_chunks)
from .scenario import MAX_ANTENNAS, check_count, check_points


def _antennas(n, what: str) -> int:
    return check_count(n, what, MAX_ANTENNAS, UnsupportedDimensionError)


@dataclass(frozen=True)
class ProductDistribution:
    """Exp(rate n_L) times an independent Beta(n_R, n_R(n_T-1)) weight.

    Each count is an integer in 1..MAX_ANTENNAS and n_l <= n_t, or
    UnsupportedDimensionError, a ConfigError, refuses it.
    """

    n_r: int
    n_t: int
    n_l: int

    def __post_init__(self) -> None:
        for name in ("n_r", "n_t", "n_l"):
            object.__setattr__(self, name, _antennas(getattr(self, name), name))
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
    """Mean-matched exponential stand-in: n_T*n_L*exp(-n_T*n_L*x).

    x must be finite and >= 0, a ConfigError refuses any other point, and
    each count an integer in 1..MAX_ANTENNAS (UnsupportedDimensionError).
    """
    rate = _antennas(n_t, "n_t") * _antennas(n_l, "n_l")
    out = rate * np.exp(-np.minimum(rate * check_points(x, "x"), 700.0))
    return out if out.ndim else float(out)


# A tanh-sinh rule for integrals over (0, 1) (H. Takahasi and M. Mori, Publ.
# RIMS Kyoto Univ. 9, 1974): t = 1/(1 + e^-u) with u = pi sinh(k) on the grid
# k = j/64, j = -224..224.  log(1 - t) and s = (1 - t)/t = e^-u come from u,
# so neither cancels near t = 1.  The ends leave less than 1e-17 of every
# mixing integrand below, and the even j (every other node, from the first)
# form the half-step sub-rule.
_STEP = 1.0 / 64
_K = np.arange(-224, 225) * _STEP
_U = np.pi * np.sinh(_K)
_T = 1.0 / (1.0 + np.exp(-_U))
_LOG_1MT = -np.logaddexp(0.0, _U)
_S = np.exp(-_U)
_DT = _STEP * np.pi * np.cosh(_K) * _T * np.exp(_LOG_1MT)  # dt/dk times the step

# Where the two rules disagree by more than this share, they do not resolve
# the integrand and the point is refused
_RULE_TOL = 1e-8
# Below this c the n_R = 1 integral goes through E_1: its integrand's cut at
# t ~ c grows too sharp for the fixed nodes as c -> 0
_E1_BELOW = 1e-3


def _scaled_e1(c: np.ndarray) -> np.ndarray:
    """e^c E_1(c) for 0 < c < _E1_BELOW, by the power series (DLMF 6.6.2)."""
    series = sum((-1) ** (n + 1) * c**n / (n * math.factorial(n)) for n in range(1, 7))
    return np.exp(c) * (series - np.euler_gamma - np.log(c))


def _sums(decay: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rule and its half-step sub-rule on the weighted decay.  einsum, not
    a BLAS product: the bytes must not depend on the CPU count."""
    return (np.einsum("ij,j->i", decay, weights),
            2.0 * np.einsum("ij,j->i", decay[:, ::2], weights[::2]))


@functools.lru_cache(maxsize=None)
def _weights(a: int, b: int) -> np.ndarray:
    """The rule's weights times t^(a-2) (1-t)^(b-1), read-only, as every call
    shares them; the schema allows 64 (a, b)."""
    weights = _DT * _T ** (a - 2) * np.exp((b - 1) * _LOG_1MT)
    weights.flags.writeable = False
    return weights


def _beta_mixing(c: np.ndarray, a: int, b: int) -> np.ndarray:
    """(1/B(a, b)) int_0^1 t^(a-2) (1-t)^(b-1) e^(-c/t) dt at each c > 0,
    for integers a, b >= 1."""
    inv_beta = (a + b - 1) * math.comb(a + b - 2, a - 1)  # 1/B(a, b), exact
    # past 745.2, e^-c, and with it the result, is 0 in double
    c = np.minimum(c, 746.0)
    decay = np.exp(-np.multiply.outer(c, _S))  # e^(-c/t) = e^-c e^(-c s)
    full, half = _sums(decay, _weights(a, b))
    near = c < (_E1_BELOW if a == 1 else 0.0)
    if near.any():
        # int t^-1 (1-t)^(b-1) e^(-c/t) = E_1(c) - int t^-1 (1 - (1-t)^(b-1)) e^(-c/t),
        # whose integrand stays bounded as t -> 0
        e1 = _scaled_e1(c[near])
        cut = _sums(decay[near], _DT / _T * -np.expm1((b - 1) * _LOG_1MT))
        full[near], half[near] = e1 - cut[0], e1 - cut[1]
    # written as "not <=" so that NaN is refused too
    unresolved = ~(np.abs(full - half) <= _RULE_TOL * full)
    if unresolved.any():
        raise NumericInstabilityError(
            f"product density rule and its half-step rule disagree at c={c[unresolved][0]!r} "
            f"(a={a}, b={b})")
    return inv_beta * full * np.exp(-c)


def product_pdf(x, pd: ProductDistribution):
    """Density of the exponential-beta product by its mixing integral,
    n_l/B(a, b) int_0^1 t^(a-2) (1-t)^(b-1) e^(-n_l x/t) dt with a = n_R and
    b = n_R (n_T - 1), on one fixed tanh-sinh rule (at n_R = 1 and
    n_l x < 1e-3, E_1 minus a bounded remainder on that rule); x must be
    finite and >= 0, or a ConfigError refuses it.  A point the rule does
    not resolve raises NumericInstabilityError."""
    c = pd.n_l * np.atleast_1d(check_points(x, "x"))
    n_l, a, b = pd.n_l, pd.alpha, pd.beta
    if b == 0:
        # single-column channel: the beta weight is identically 1
        out = n_l * np.exp(-c)
    else:
        # the limit at 0 is n_l B(a-1, b)/B(a, b), infinite for a = 1
        out = np.full(c.shape, math.inf if a == 1 else n_l * (a + b - 1) / (a - 1))
        pos = c > 0.0
        out[pos] = n_l * _beta_mixing(c[pos], a, b)
    return out if np.ndim(x) else float(out[0])


def _exact_terms_chunk(
    n_r: int, n_t: int, n_l: int, n: int, rng: np.random.Generator, buffers: DrawBuffers
) -> np.ndarray:
    h0 = buffers.normal(rng, (n_r, n_t, n), "h0")
    hi = buffers.normal(rng, (n_r, n_t, n), "h")
    # the first column of a Haar n_l-frame: a Gaussian vector over its norm
    z = buffers.normal(rng, (n_t, n), "frame")
    v = z / (np.sqrt(_abs2(z).sum(axis=0)) * math.sqrt(n_l))
    s = np.einsum("rb,rb->b", h0[:, 0].conj(), np.einsum("rtb,tb->rb", hi, v))
    return _abs2(s) / _abs2(h0).reshape(-1, n).sum(axis=0)


def simulate_exact_terms(n_r: int, n_t: int, n_l: int, n_samples: int, seed: int) -> np.ndarray:
    """Joint-simulation samples of S = |c^H u|^2 / ||H0||_F^2.

    c is a column of the serving channel, u the interferer channel times
    one unit-Frobenius precoder column; nothing is assumed independent.
    Chunked and seeded like the receiver simulations in ``montecarlo``;
    each count is checked as by ``ProductDistribution``.
    """
    pd = ProductDistribution(n_r=n_r, n_t=n_t, n_l=n_l)
    return sample_chunks(
        lambda n, rng, buffers: _exact_terms_chunk(pd.n_r, pd.n_t, pd.n_l, n, rng, buffers),
        n_samples, seed, chunk_draws(pd.n_r, pd.n_t))


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


def _merge_moments(a: tuple[int, float, float], b: tuple[int, float, float]):
    """The count, sum and centred sum of squares of the union of two sample
    sets, from those of each: the pairwise update of Chan, Golub and
    LeVeque (Am. Stat. 37, 1983).  An empty ``a`` (count 0) gives ``b``."""
    m, total, centred = a
    n, b_total, b_centred = b
    if not m:
        return b
    return (m + n, total + b_total,
            centred + b_centred + m / (n * (m + n)) * (n / m * total - b_total) ** 2)


def compare_chain(
    n_r: int,
    n_t: int,
    n_l: int,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> ChainReport:
    """Evaluate all three chain stages and their pairwise distances.

    The grid is 300 points on [0, 3].  The exact stage draws the samples of
    ``simulate_exact_terms`` and counts each chunk as it is drawn: it is
    binned on the grid, in the half-open bins [x_i, x_i+1), by the integer
    counts of the chunks, so its density and CDF are those of all the
    samples, byte for byte.  ``mean_exact`` and ``se_exact`` (the standard
    deviation, over sqrt(n_samples)) come from each chunk's count, sum and
    centred sum of squares, combined in chunk order.  No array of
    ``n_samples`` is held.  Distances use grid-evaluated CDFs (cumulative
    trapezoid for the product stage).
    """
    pd = ProductDistribution(n_r=n_r, n_t=n_t, n_l=n_l)
    grid = np.linspace(0.0, 3.0, 300)

    below = np.zeros(grid.shape, dtype=np.intp)
    at_or_below = np.zeros(grid.shape, dtype=np.intp)
    moments = (0, 0.0, 0.0)

    def simulate(n: int, rng: np.random.Generator, buffers: DrawBuffers):
        block = _exact_terms_chunk(pd.n_r, pd.n_t, pd.n_l, n, rng, buffers)
        counts = block_counts(block, grid, grid)
        total = float(block.sum())
        block -= total / n
        return counts, (n, total, float(np.square(block, out=block).sum()))

    def take(_start: int, result) -> None:
        nonlocal moments
        (lo, hi), part = result
        below[...] += lo
        at_or_below[...] += hi
        moments = _merge_moments(moments, part)

    run_chunks(simulate, n_samples, seed, chunk_draws(pd.n_r, pd.n_t), take)
    _, total, centred = moments
    mean_exact = total / n_samples
    se_exact = math.sqrt(centred / n_samples) / math.sqrt(n_samples)
    exact_density = np.diff(below) / (n_samples * np.diff(grid))
    exact_density = np.append(exact_density, exact_density[-1])  # x = 3 repeats its left bin
    exact_cdf = at_or_below / n_samples

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
        mean_exact=mean_exact,
        mean_product=pd.mean,
        mean_exp=1.0 / rate,
        se_exact=se_exact,
        distances=distances,
    )
