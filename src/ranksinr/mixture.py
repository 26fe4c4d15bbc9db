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
multiplicities.  Rounded to double they can still sum to 1 only within
1e8 (OSTBC at 8x8), so ``pdf_y`` and ``cdf_y`` refuse a mixture whose
coefficients drift from summing to 1, or whose groups sit too close.

This is the paper's form of the interference law.  It feeds ``dump-xi``,
``pdf_y``/``cdf_y`` and the models' ``mixture`` field; the outage and
density themselves are evaluated without it (``engine``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy import special

from .errors import DegenerateRatesError, EmptyMixtureError, NumericInstabilityError

# relative gap below which two scales count as one group
GROUP_TOL = 1e-9
# pdf_y and cdf_y refuse a mixture whose double coefficients sum to 1 with
# a larger drift, or whose conditioning is smaller
XI_DRIFT_MAX = 1e-6
CONDITIONING_MIN = 1e-3


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Grouped interference rates plus their mixture coefficients.

    `rates` are strictly decreasing group scales; `xi` maps 1-based
    (group, order) pairs to coefficients.  `conditioning` is the minimum
    over group pairs of |1 - rho_k/rho_i| (inf when G = 1); small values
    mean the partial-fraction expansion is close to degenerate.
    """

    rates: tuple[float, ...]
    multiplicities: tuple[int, ...]
    xi: dict[tuple[int, int], float]
    conditioning: float
    _rho_flat: np.ndarray = field(init=False, repr=False)
    _j_flat: np.ndarray = field(init=False, repr=False)
    _xi_flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        items = sorted(self.xi.items())
        object.__setattr__(
            self,
            "_rho_flat",
            np.array([self.rates[i - 1] for (i, _), _ in items], dtype=np.float64),
        )
        object.__setattr__(
            self, "_j_flat", np.array([j for (_, j), _ in items], dtype=np.float64)
        )
        object.__setattr__(
            self, "_xi_flat", np.array([v for _, v in items], dtype=np.float64)
        )

    @property
    def n_groups(self) -> int:
        return len(self.rates)

    def xi_sum(self) -> float:
        """Should be 1; drift measures loss of precision in Xi."""
        return float(np.sum(self._xi_flat))

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho_i, j, Xi_ij) per mixture term, sorted by (i, j)."""
        return self._rho_flat.copy(), self._j_flat.copy(), self._xi_flat.copy()


def group_rates(rates) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Merge near-equal scales into groups.

    Returns (group scales descending, multiplicities).  A scale joins
    the current group when its relative gap to the group's running
    power-weighted mean is at most GROUP_TOL; the merged scale is the
    power-weighted mean sum(rho^2)/sum(rho).
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
    sum_r = sum_r2 = 0.0
    count = 0
    for r in ordered:
        if count and (sum_r2 / sum_r - r) / (sum_r2 / sum_r) > GROUP_TOL:
            group_scales.append(sum_r2 / sum_r)
            group_counts.append(count)
            sum_r = sum_r2 = 0.0
            count = 0
        sum_r += r
        sum_r2 += r * r
        count += 1
    group_scales.append(sum_r2 / sum_r)
    group_counts.append(count)
    return tuple(group_scales), tuple(group_counts)


def xi_coefficients(
    rates: tuple[float, ...], multiplicities: tuple[int, ...]
) -> MixtureSpec:
    """Fill the partial-fraction coefficients for grouped rates.

    Each group's coefficients are one truncated series product (module
    docstring), evaluated in 40-digit arithmetic and rounded to double.
    """
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

    xi: dict[tuple[int, int], float] = {}
    with mpmath.workdps(40):
        for i, (rho_i, beta_i) in enumerate(zip(rates, multiplicities)):
            # the docstring's product with t -> -t, which absorbs the sign
            # (-1)^{beta_i+j}: prod_{k != i} (1 - r_k)^{-beta_k}
            # (1 + t r_k/(1 - r_k))^{-beta_k}, truncated at t^{beta_i-1}
            series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (beta_i - 1)
            for k, (rho_k, beta_k) in enumerate(zip(rates, multiplicities)):
                if k == i:
                    continue
                r = mpmath.mpf(rho_k) / mpmath.mpf(rho_i)
                x, head = r / (r - 1), (1 - r) ** beta_k
                factor = [math.comb(beta_k + q - 1, q) * x**q / head
                          for q in range(beta_i)]
                series = [mpmath.fsum(series[p] * factor[n - p] for p in range(n + 1))
                          for n in range(beta_i)]
            for j in range(1, beta_i + 1):
                xi[(i + 1, j)] = float(series[beta_i - j])

    return MixtureSpec(
        rates=tuple(float(r) for r in rates),
        multiplicities=tuple(multiplicities),
        xi=xi,
        conditioning=conditioning,
    )


def build_mixture(rates) -> MixtureSpec:
    """Group raw scales and compute coefficients in one step."""
    return xi_coefficients(*group_rates(rates))


def _refuse_unreliable(spec: MixtureSpec) -> None:
    """Refuse evaluating Y's law from coefficients that cannot carry it."""
    if spec.conditioning < CONDITIONING_MIN:
        raise NumericInstabilityError(
            f"mixture conditioning {spec.conditioning:.2e} below "
            f"{CONDITIONING_MIN:.0e}; the Xi coefficients are inaccurate"
        )
    drift = abs(spec.xi_sum() - 1.0)
    # written as "not <=" so that a NaN sum is refused too
    if not drift <= XI_DRIFT_MAX:
        raise NumericInstabilityError(
            f"Xi coefficients sum to 1 with drift {drift:.2e} after rounding "
            "to double; the interference law is unreliable for this rate set"
        )


def pdf_y(y, spec: MixtureSpec):
    """Density of the interference sum at y (scalar or array)."""
    arr = np.asarray(y, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("pdf_y requires y >= 0")
    _refuse_unreliable(spec)
    flat = np.atleast_1d(arr)
    rho, jj, xi = spec._rho_flat, spec._j_flat, spec._xi_flat
    out = np.zeros_like(flat)
    pos = flat > 0
    if np.any(pos):
        yp = flat[pos, None]
        with np.errstate(divide="ignore"):
            log_abs_xi = np.log(np.abs(xi))
        logterm = (
            (jj - 1.0) * np.log(yp)
            - yp / rho
            - special.gammaln(jj)
            - jj * np.log(rho)
        )
        out[pos] = np.sum(np.sign(xi) * np.exp(log_abs_xi + logterm), axis=1)
    if np.any(~pos):
        first = jj == 1.0
        out[~pos] = float(np.sum(xi[first] / rho[first]))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def cdf_y(y, spec: MixtureSpec):
    """CDF of the interference sum; mixture of regularized gammas."""
    arr = np.asarray(y, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("cdf_y requires y >= 0")
    _refuse_unreliable(spec)
    flat = np.atleast_1d(arr)[:, None]
    rho, jj, xi = spec._rho_flat, spec._j_flat, spec._xi_flat
    vals = np.sum(xi * special.gammainc(jj, flat / rho), axis=1)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def mean_y(spec: MixtureSpec) -> float:
    """Mixture mean via the coefficients (equals the sum of scales)."""
    return float(np.sum(spec._xi_flat * spec._j_flat * spec._rho_flat))


def sample_sum(rates, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the interference sum directly; oracle for the Xi machinery."""
    rates = list(rates)
    if not rates:
        raise EmptyMixtureError("no interference terms to sample")
    out = np.zeros(size)
    for r in rates:
        out += rng.exponential(scale=r, size=size)
    return out
