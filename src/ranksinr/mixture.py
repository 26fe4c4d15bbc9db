"""Hyper-exponential model of the aggregate interference power.

The normalized interference Y is a sum of independent exponential terms
with scales rho taken from the scenario's rate set.  Collecting equal
scales into G groups (scale rho_i, multiplicity beta_i), the density of
the sum is a signed mixture of gamma densities

    p_Y(y) = sum_{i=1..G} sum_{j=1..beta_i} Xi_ij y^{j-1} e^{-y/rho_i}
             / (Gamma(j) rho_i^j),

with partial-fraction coefficients

    Xi_ij = (-1)^{beta_i+j} [t^{beta_i-j}] prod_{k != i}
            (1 - r_k)^{-beta_k} (1 - t r_k/(1 - r_k))^{-beta_k},

r_k = rho_k/rho_i.  The coefficient of t^q in (1 - x t)^{-beta} is
C(beta+q-1, q) x^q, so the product, truncated at degree beta_i - 1,
carries the paper's sum over the tuples (q_1..q_G) with q_i = 0 and
sum q_k = beta_i - j of prod_{k != i} C(beta_k+q_k-1, q_k)
(rho_k/rho_i)^{q_k} / (1 - rho_k/rho_i)^{beta_k+q_k}, without
enumerating them: one series product per group, O(G^2 beta^2)
operations for G groups of multiplicity up to beta, where the tuple
count grows combinatorially.  G = 1 degenerates to a plain gamma
density (Xi_{1,beta_1} = 1, the other orders 0).

The (1 - rho_k/rho_i) denominators make the expansion explosive for
near-equal group rates; near-ties must be merged before coefficients are
computed, and the coefficients themselves are evaluated in 40-digit
arithmetic because the alternating signs cancel heavily for large
multiplicities.  Rounding a coefficient to double costs up to
|Xi_ij| 2^-53, and each term's regularized gamma is at most 1 (its
density at most 1/rho_i), so the dumped coefficients, their sums and the
CDF keep 1e-12 absolute only while sum|Xi| <= 1e-12 2^53 (about 9.0e3).
That one rule, ``reliable_terms``, decides for ``dump-xi``, ``pdf_y`` and
``cdf_y`` alike; past it they raise ``NumericInstabilityError``.  The 2x2
OSTBC reference mix already has sum|Xi| = 1.5e5, 8x8 OSTBC 3.1e24.

This is the paper's form of the interference law.  ``dump-xi`` and
``pdf_y``/``cdf_y`` compute it on first read of ``MixtureSpec.xi``; no
model build or curve reads it (``engine``).  The gamma orders here are
integers, so both laws read one table of Pois(m; y/rho_i), m < max j:
the density of term (i, j) is its (j-1) entry over rho_i, and its CDF is
P(j, x) = -expm1(-x) - sum_{1<=m<j} Pois(m; x), with no incomplete gamma
function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import cached_property

import numpy as np

from .errors import DegenerateRatesError, EmptyMixtureError, NumericInstabilityError

# relative gap below which two scales count as one group
GROUP_TOL = 1e-9
# the largest sum|Xi| whose double coefficients keep 1e-12 absolute
XI_ABS_SUM_MAX = 1e-12 * 2.0**53


def log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0..n."""
    return np.array([math.lgamma(m + 1.0) for m in range(n + 1)])


def log_floored(x: np.ndarray) -> np.ndarray:
    """log x for x >= 0, with log 0 floored at -1e300.

    Then m * log x is 0 at m = 0 and exp(m * log x) exactly 0 for m >= 1,
    the limits x^m takes at x = 0, with no divide-by-zero warning.
    """
    return np.log(x, out=np.full(np.shape(x), -1e300), where=x > 0)


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Grouped interference rates; their mixture coefficients on first read.

    `rates` are strictly decreasing group scales.  `conditioning` is the
    minimum over group pairs of |1 - rho_k/rho_i| (inf when G = 1); small
    values mean the partial-fraction expansion is close to degenerate.
    `xi` maps 1-based (group, order) pairs to coefficients; it is computed
    when first read, so a spec whose coefficients are never read costs
    only the grouping.
    """

    rates: tuple[float, ...]
    multiplicities: tuple[int, ...]
    conditioning: float

    @property
    def n_groups(self) -> int:
        return len(self.rates)

    @cached_property
    def xi(self) -> dict[tuple[int, int], float]:
        """Each group's coefficients from one truncated series product
        (module docstring), in 40-digit decimal arithmetic, rounded to double."""
        xi: dict[tuple[int, int], float] = {}
        # Decimal(float) is exact; the context rounds every operation after it
        groups = [(Decimal(rho), beta) for rho, beta in zip(self.rates, self.multiplicities)]
        with localcontext(Context(prec=40)):
            for i, (rho_i, beta_i) in enumerate(groups):
                # the docstring's product with t -> -t, which absorbs the sign
                # (-1)^{beta_i+j}: prod_{k != i} (1 - r_k)^{-beta_k}
                # (1 + t r_k/(1 - r_k))^{-beta_k}, truncated at t^{beta_i-1}
                series = [Decimal(1)] + [Decimal(0)] * (beta_i - 1)
                for k, (rho_k, beta_k) in enumerate(groups):
                    if k == i:
                        continue
                    r = rho_k / rho_i
                    x, head = r / (r - 1), (1 - r) ** beta_k
                    factor = [math.comb(beta_k + q - 1, q) * x**q / head
                              for q in range(beta_i)]
                    series = [sum(series[p] * factor[n - p] for p in range(n + 1))
                              for n in range(beta_i)]
                for j in range(1, beta_i + 1):
                    xi[(i + 1, j)] = float(series[beta_i - j])
        return xi

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (rho_i, j, Xi_ij) per term, sorted by (i, j), as the laws read them
        items = sorted(self.xi.items())
        return (np.array([self.rates[i - 1] for (i, _), _ in items], dtype=np.float64),
                np.array([j for (_, j), _ in items], dtype=np.float64),
                np.array([v for _, v in items], dtype=np.float64))

    def xi_sum(self) -> float:
        """Should be 1; drift measures loss of precision in Xi."""
        return float(np.sum(self._flat[2]))

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho_i, j, Xi_ij) per mixture term, sorted by (i, j)."""
        return tuple(a.copy() for a in self._flat)


def group_rates(rates) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Merge near-equal scales into groups.

    Returns (group scales descending, multiplicities).  A scale joins
    the current group when its relative gap to the group's running
    power-weighted mean is at most GROUP_TOL; the merged scale is the
    power-weighted mean sum(rho^2)/sum(rho), at any scale of the rates.
    """
    rates = [float(r) for r in rates]
    if not rates:
        raise EmptyMixtureError(
            "no interference terms; a scenario without interferers has no mixture"
        )
    if any(not (r > 0 and math.isfinite(r)) for r in rates):
        raise ValueError(f"rates must be positive and finite, got {rates}")

    ordered = sorted(rates, reverse=True)
    group_scales: list[float] = []
    group_counts: list[int] = []
    # a group's sums run over its rates times 2^-e, e the exponent of its
    # largest: the power of two is exact, so the mean keeps the bits of
    # the plain sums where those neither underflow nor overflow, and
    # stays finite and nonzero where they would
    sum_r = sum_r2 = 0.0
    count = e = 0
    for r in ordered:
        x = math.ldexp(r, -e)
        if count and (sum_r2 / sum_r - x) / (sum_r2 / sum_r) > GROUP_TOL:
            group_scales.append(math.ldexp(sum_r2 / sum_r, e))
            group_counts.append(count)
            sum_r = sum_r2 = 0.0
            count = 0
        if not count:
            e = math.frexp(r)[1]
            x = math.ldexp(r, -e)
        sum_r += x
        sum_r2 += x * x
        count += 1
    group_scales.append(math.ldexp(sum_r2 / sum_r, e))
    group_counts.append(count)
    return tuple(group_scales), tuple(group_counts)


def xi_coefficients(
    rates: tuple[float, ...], multiplicities: tuple[int, ...]
) -> MixtureSpec:
    """Validate grouped rates; the spec computes their coefficients on
    first read of `xi`."""
    g = len(rates)
    if g == 0:
        raise EmptyMixtureError("no groups")
    if len(multiplicities) != g:
        raise ValueError("rates and multiplicities must have equal length")

    conditioning = math.inf
    for a, b in itertools.combinations(range(g), 2):
        gap = abs(1.0 - rates[b] / rates[a])
        conditioning = min(conditioning, gap)
    if conditioning == 0.0:
        raise DegenerateRatesError(
            "duplicate group rates; pass the raw rates to build_mixture, "
            "which merges equal ones into one group"
        )
    return MixtureSpec(
        rates=tuple(float(r) for r in rates),
        multiplicities=tuple(multiplicities),
        conditioning=conditioning,
    )


def build_mixture(rates) -> MixtureSpec:
    """Group and validate raw scales; coefficients follow on first read."""
    return xi_coefficients(*group_rates(rates))


def reliable_terms(spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``spec.terms()``, or NumericInstabilityError where their doubles
    cannot carry 1e-12 absolute (module docstring)."""
    abs_sum = math.fsum(abs(v) for v in spec.xi.values())
    # written as "not <=" so that a NaN sum is refused too
    if not abs_sum <= XI_ABS_SUM_MAX:
        raise NumericInstabilityError(
            f"Xi coefficients cancel: sum|Xi| = {abs_sum:.3g} exceeds "
            f"{XI_ABS_SUM_MAX:.2g}, so in double they are off by more than "
            "1e-12 absolute"
        )
    return spec.terms()


def _poisson_table(y, spec: MixtureSpec, law: str):
    """The terms and Pois(m; y/rho_i) for m < max j, shape (points, terms, m)."""
    arr = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise ValueError(f"{law} requires finite y >= 0")
    rho, jj, xi = reliable_terms(spec)
    x = np.atleast_1d(arr)[:, None] / rho
    m = np.arange(int(jj.max()))
    table = m * log_floored(x)[:, :, None]
    table -= x[:, :, None]
    table -= log_factorials(m.size - 1)
    np.exp(table, out=table)
    return arr, x, table, rho, jj.astype(int), xi


def pdf_y(y, spec: MixtureSpec):
    """Density of the interference sum at y (scalar or array)."""
    arr, _, table, rho, jj, xi = _poisson_table(y, spec, "pdf_y")
    vals = table[:, np.arange(jj.size), jj - 1] @ (xi / rho)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def cdf_y(y, spec: MixtureSpec):
    """CDF of the interference sum; mixture of regularized gammas."""
    arr, x, table, _, jj, xi = _poisson_table(y, spec, "cdf_y")
    m = np.arange(1, table.shape[2])
    lower = -np.expm1(-x) - np.sum(table[:, :, 1:] * (m < jj[:, None]), axis=2)
    vals = lower @ xi
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)
