"""The law of the aggregate interference power Y, and the paper's form of it.

The normalized interference Y is a sum of independent exponential terms
with scales rho taken from the scenario's rate set.  One rule reads a
rate set, here and in ``engine`` alike: ``count_rates`` refuses a rate
that is not positive and finite and counts each distinct rate, so a
group holds exactly equal rates and near-equal ones are never merged.
Over those G groups (scale rho_i, multiplicity beta_i), the paper
writes its density as a signed mixture of gamma densities

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

Each Xi_ij is a ratio of integers: a double rate is an integer times a
power of two, so the rates scale to integers n_i with the same ratios.
Each group's series, with t -> -t absorbing the sign (-1)^{beta_i+j},
runs exactly in Python integers: a factor (1 - y t)^{-beta_k}, y =
-n_k/(n_i - n_k), is beta_k passes of 1/(1 - y t) on a series whose t^m
coefficient is held over the m-th power of the product of the gaps so
far.  Each coefficient is rounded once, correctly, by one integer
division (8 groups of 64 take about 0.5 s on one Xeon core), and only
one past the double range is refused, with ``NumericInstabilityError``.
Only ``dump-xi`` reads the coefficients, on first read of
``MixtureSpec.xi``; no model build or curve does (``engine``), and
neither do the laws.

``pdf_y``/``cdf_y`` take the raw rates and read a series of positive
terms instead (Moschopoulos, Ann. Inst. Statist. Math. 37, 1985).  With
c_r the multiplicity of the distinct rate rho_r, b = min rho_r,
C = sum c_r and q_r = 1 - b/rho_r, Y has the law of Gamma(C + K, b),
K = sum_r NB(c_r, q_r).  So with x = y/b and Pois(n; x) = e^{-x} x^n/n!,

    cdf_y = sum_{n>=C} Pois(n; x) F_K(n - C)
          = 1 - sum_{n>=0} Pois(n; x) P(K > n - C),
    pdf_y = (1/b) sum_{j>=0} P_K(j) Pois(C + j - 1; x).

The cdf takes the first form up to the mean E[Y] and the second past
it: summed where it is small, the second keeps the cdf non-decreasing up
to 1, where the first one's rounding would jitter.  K's generating
function prod_r ((1 - q_r)/(1 - q_r t))^{c_r} gives its pmf p_j = P_K(j)
with positive terms only:

    p_0 = prod_r (b/rho_r)^{c_r},   h_{r,-1} = 0,
    h_{r,n} = q_r (p_n + h_{r,n-1}),   (n+1) p_{n+1} = sum_r c_r h_{r,n}.

p_0 is exact on the given doubles, scaled by a power of two where it
would underflow.  q_r is carried as two doubles: rounded to one, it
would move the scale b/(1 - q_r) of its terms by up to 2^-53 q_r/(1 -
q_r), about 1e-12 at a 40 dB spread, so the recursion runs at the
leading double and carries its derivative toward the second.  F_K is a compensated running sum, and P(K > m) = 1 - F_K(m).
The Poisson weights start each strip of STRIP orders from Loader's
saddle-point form exp(-stirlerr(n) - bd0(n, x))/sqrt(2 pi n) ("Fast and
Accurate Computation of Binomial Probabilities", 2000), whose error is
about bd0 2^-53 where exp(n log x - x - log n!) loses (x log x) 2^-53,
and go on by the ratios x/n.

Truncation.  Each NB(c, q) with c >= 1 has a log-concave pmf, and so
has their convolution K: past its mode the ratio r = p_{n+1}/p_n only
falls, so the tail beyond p_n is at most p_n r/(1 - r).  The series
stops where that is below TAIL_EPS (2^-60) of the sum so far, which
bounds the cdf's relative error by about TAIL_EPS.  A point sums the
orders n from max(C', x - sqrt(2Lx)) to m + sqrt(2Lm) + 2L/3, with C'
the first order of its sum (C - 1 for the pdf, C for the cdf's first
form, 0 for its second), m = max(x, C') and L = 36 - log p_0.  By
Bennett's inequality the Poisson weights outside hold less than e^-L of
the one at m, and no table entry (P_K, F_K or P(K > m), at most 1)
passes 1/p_0 times the entry at m where that is at least p_0: the cdf at
every point, the pdf up to past the mode of K.  There the dropped terms
are below e^-36 of the sum; elsewhere they are below e^-36 absolute, or
e^-36/b for the pdf.  The cost is O(N R) for the N terms of K over R
distinct rates, N about (E[K] + 40 sd)/(1 - max q_r), once per rate set
(the series is cached), and O(sqrt(x) + L) per point; past
MAX_COUNT_TERMS terms the laws refuse with ``RankSinrError``, before
the series runs where a lower bound on its terms proves it would pass
them (``_past_the_cap``).  Where b is subnormal the density, about 1/b
near y = b, passes the double range, and ``pdf_y`` refuses with
``NumericInstabilityError``.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericInstabilityError, RankSinrError
from .scenario import check_points, check_real

# K's series stops once its tail is at most this share of its sum
TAIL_EPS = 2.0**-60
# the most terms of K the laws compute: about 5 s and 130 MB at the cap
MAX_COUNT_TERMS = 2**22
# Poisson terms evaluated at once across points, and in one run of ratios
BLOCK, STRIP = 2**18, 32


def _log_weights(top: int) -> np.ndarray:
    """-stirlerr(n) - log sqrt(2 pi n) = n log n - n - log n! for n = 0..top:
    directly to n = 15, then Stirling's series to n^-9, off by less than
    1e-16 there, where the direct form would cancel."""
    n = np.arange(1.0, top + 1.0)
    nn = n * n
    out = -(1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    out -= 0.5 * np.log(2.0 * math.pi * n)
    out[:15] = [k * math.log(k) - k - math.lgamma(k + 1) for k in range(1, min(top, 15) + 1)]
    return np.concatenate(([0.0], out))


def _bd0(n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """n log(n/x) + x - n for n >= 1 and x >= 0 (inf at x = 0), within a few
    2^-53 relative: within 10% of each other n and x take Loader's series
    (n-x)v + 2n sum_k v^{2k+1}/(2k+1), v = (n-x)/(n+x)."""
    d = n - x
    v = d / (n + x)
    series = 0.0  # sum_{k=1..9} v^{2k}/(2k+1), the rest below 1e-20 of it
    for k in range(9, 0, -1):
        series = (series + 1.0 / (2 * k + 1)) * v * v
    # n/x overflows to inf at a subnormal x, as it divides to inf at 0
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(np.abs(v) < 0.1, d * v + 2.0 * n * v * series, n * np.log(n / x) - d)


def count_rates(rates, what: str = "rates") -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The distinct rates ascending and the count of each, the values and
    order numpy's `unique` with counts gives: only exactly equal rates
    form a group.  `rates` is a flat sequence, a list, tuple or 1-d
    array, of real numbers (``scenario.check_real``).  Refuses with
    ConfigError, naming it `what`, any other value (a str, a mapping, a
    scalar, a nested entry) and a rate that is not positive and finite,
    such as a tiny INR that the split over its layers took to 0; an
    empty rate set gives two empty tuples."""
    if not (isinstance(rates, (list, tuple)) or isinstance(rates, np.ndarray) and rates.ndim == 1):
        raise ConfigError(f"{what} must be a list, tuple or 1-d array of rates, got {rates!r}")
    entry = f"every entry of {what}"
    rates = [check_real(r, entry) for r in rates]
    counts = Counter(rates)
    # written as "not <" so that NaN is refused too
    if not all(0.0 < r < math.inf for r in counts):
        raise ConfigError(f"{what} must be positive and finite, got {rates}")
    rho = sorted(counts)
    return tuple(rho), tuple(counts[r] for r in rho)


def _groups(rates) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """``count_rates`` of a rate set that must hold at least one rate."""
    rho, c = count_rates(rates)
    if not rho:
        raise ConfigError("no interference terms; a scenario without interferers has no mixture")
    return rho, c


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
    def _series(self) -> list[tuple[list[int], int, int, int]]:
        """Per group (c, num, den, g), exact: the t^m coefficient of its
        series, Xi_{i, beta_i - m}, is c[m] num / (den g^m)."""
        ratios = [rho.as_integer_ratio() for rho in self.rates]
        scale = max(d for _, d in ratios)
        n = [a * (scale // d) for a, d in ratios]
        out = []
        for i, (n_i, beta_i) in enumerate(zip(n, self.multiplicities)):
            c, num, den, g = [1] + [0] * (beta_i - 1), 1, 1, 1
            for k, (n_k, beta_k) in enumerate(zip(n, self.multiplicities)):
                if k == i:
                    continue
                # (1 - r_k)^-beta_k = (n_i/gap)^beta_k and y = -n_k/gap; held
                # over (g gap)^m, each pass b_m = a_m + y b_{m-1} reads
                # c[m] += -n_k g c[m-1]
                gap = n_i - n_k
                c = [v * gap**m for m, v in enumerate(c)]
                num, den, step, g = num * n_i**beta_k, den * gap**beta_k, -n_k * g, g * gap
                for _ in range(beta_k):
                    for m in range(1, beta_i):
                        c[m] += step * c[m - 1]
            out.append((c, num, den, g))
        return out

    @cached_property
    def xi(self) -> dict[tuple[int, int], float]:
        """The exact coefficients (module docstring), each rounded once;
        NumericInstabilityError names one past the double range."""
        xi = {}
        for i, (c, num, den, g) in enumerate(self._series, start=1):
            for j in range(1, len(c) + 1):
                try:
                    xi[(i, j)] = c[-j] * num / (den * g ** (len(c) - j))
                except OverflowError:
                    raise NumericInstabilityError(
                        f"the Xi coefficient of group {i}, order {j} is past the double range"
                    ) from None
        return xi

    def xi_sum(self) -> float:
        """The exact sum of the exact coefficients, rounded: 1."""
        # each group's sum over den g^(beta_i - 1), by Horner's rule in g
        return float(sum(Fraction(functools.reduce(lambda s, v: s * g + v, c) * num,
                                  den * g ** (len(c) - 1)) for c, num, den, g in self._series))

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho_i, j, Xi_ij) per mixture term, sorted by (i, j)."""
        items = self.xi.items()
        return (np.array([self.rates[i - 1] for (i, _), _ in items]),
                np.array([j for (_, j), _ in items], dtype=np.float64),
                np.array([v for _, v in items]))


def build_mixture(rates) -> MixtureSpec:
    """The groups of the raw rates, scales descending; their coefficients
    follow on first read of `xi`."""
    rho, beta = _groups(rates)
    rho, beta = rho[::-1], beta[::-1]
    # rho_k/rho_i is largest for neighbours, so they hold the smallest gap
    conditioning = min((1.0 - b / a for a, b in zip(rho, rho[1:])), default=math.inf)
    return MixtureSpec(rates=rho, multiplicities=beta, conditioning=conditioning)


def _past_the_cap(rho: tuple[float, ...], c: tuple[int, ...]) -> bool:
    """Whether K's series provably runs past MAX_COUNT_TERMS terms; rho
    ascending with multiplicities c.  K's ratio p_{n+1}/p_n falls toward
    q = q_max from above, so the stop rule needs P(K = n) <= TAIL_EPS (1 -
    q)/q, and P(K = n) >= P(K_max = n) P(K_rest = 0), where K_max is the
    NB(c, q) term of the largest rate.  That bound is log-concave in n,
    least over 1..MAX_COUNT_TERMS at an end; it must pass the rule
    16-fold, room for the recursion's rounding."""
    if len(rho) < 2:
        return False
    # log(b/rho_r), also where b/rho_r underflows; q = 1 - b/rho_max > 0
    # even for neighbouring doubles, whose logs may round equal
    log_u = [math.log(f) if (f := rho[0] / r) > 0.0 else math.log(rho[0]) - math.log(r)
             for r in rho]
    k, log_q = c[-1], math.log1p(-rho[0] / rho[-1])
    log_rest = math.fsum(k_r * l for k_r, l in zip(c[1:-1], log_u[1:-1]))

    def log_bound(n: int) -> float:
        return (math.lgamma(k + n) - math.lgamma(n + 1.0) - math.lgamma(k)
                + k * log_u[-1] + n * log_q + log_rest)

    log_rule = math.log(16.0 * TAIL_EPS) + log_u[-1] - log_q
    return min(log_bound(1), log_bound(MAX_COUNT_TERMS)) > log_rule


@functools.lru_cache(maxsize=4)
def _count_law(rho: tuple[float, ...], c: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """P(K = j) and P(K <= j) from j = 0 up to the module docstring's
    truncation; rho ascending with multiplicities c.  A series that would
    pass MAX_COUNT_TERMS terms is refused with RankSinrError, before it
    runs where ``_past_the_cap`` proves it would."""
    if _past_the_cap(rho, c):
        raise _too_many_terms(rho)
    # p_0 exactly, and q_r = 1 - b/rho_r as q_hi + q_lo: q_hi^j alone is
    # off by j |q_lo|/q_r, so the recursion carries its derivative toward q_lo
    ratios = [Fraction(rho[0]) / Fraction(r) for r in rho]
    p0 = math.prod(f**k for f, k in zip(ratios, c))
    e = p0.numerator.bit_length() - p0.denominator.bit_length()
    qs = [(float(1 - f), float(1 - f - Fraction(float(1 - f))), k)
          for f, k in zip(ratios[1:], c[1:])]
    h, dh = [0.0] * len(qs), [0.0] * len(qs)
    # P(K = j) = (p + dp) 2^e, p_0 in [1/2, 2]; whenever p passes 2^960,
    # all is scaled by 2^-960: only a p_0 below the smallest double allows it
    p = total = float(p0 * Fraction(2) ** -e)
    dp = comp = 0.0
    pmf, cdf = array("d", [p]), array("d", [p])
    for n in range(1, MAX_COUNT_TERMS + 1):
        s = ds = 0.0
        for i, (q_hi, q_lo, k) in enumerate(qs):
            t, dt = p + h[i], dp + dh[i]
            h[i], dh[i] = q_hi * t, q_hi * dt + q_lo * t
            s += k * h[i]
            ds += k * dh[i]
        p_n, p, dp = p, s / n, ds / n
        # P(K <= n) = total + comp, Neumaier's compensated sum
        v = p + dp
        t = total + v
        comp += (total - t) + v if total >= v else (v - t) + total
        total = t
        pmf.append(v)
        cdf.append(total + comp)
        # past the mode the tail is at most p r/(1 - r), r = p/p_n
        if p < p_n and p * p <= TAIL_EPS * total * (p_n - p):
            pmf, cdf = (np.ldexp(np.frombuffer(a), e) for a in (pmf, cdf))
            # the round-off of many terms can carry their sum a few ulps past 1
            return pmf, np.minimum(cdf, 1.0)
        if p > 2.0**960:
            for a in (pmf, cdf):
                np.frombuffer(a)[:] *= 2.0**-960
            p, dp, total, comp = (math.ldexp(v, -960) for v in (p, dp, total, comp))
            h, dh, e = [math.ldexp(v, -960) for v in h], [math.ldexp(v, -960) for v in dh], e + 960
    raise _too_many_terms(rho)


def _too_many_terms(rho: tuple[float, ...]) -> RankSinrError:
    return RankSinrError(f"the law of Y needs more than {MAX_COUNT_TERMS} terms of its count "
                         f"series: the rates span a ratio of {rho[-1] / rho[0]:.3g}")


def _sums(x, lo, hi, table: np.ndarray) -> np.ndarray:
    """sum_{lo<=n<=hi} Pois(n; x) table[n] per point, table[n] read as its
    last entry past its end (module docstring)."""
    vals = np.full(x.shape, table[-1])
    live = np.flatnonzero(lo < table.size - 1)
    # each window in strips of STRIP orders: Loader's weight at a strip's
    # first order, x/n from there on
    strips = (hi[live] - lo[live]).astype(np.int64) // STRIP + 1
    top = int(hi[live].max(initial=0.0))
    log_weights = _log_weights(top)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(table, (0, max(0, top + STRIP - table.size)), mode="edge"), STRIP)
    # points in blocks of about BLOCK terms
    for part in np.split(np.arange(live.size),
                         np.flatnonzero(np.diff(np.cumsum(strips) * STRIP // BLOCK)) + 1):
        k, at = strips[part], live[part]
        first = np.cumsum(k) - k
        n0 = np.repeat(lo[at], k) + STRIP * (np.arange(k.sum()) - np.repeat(first, k))
        xs = np.repeat(x[at], k)
        # orders down axis 0, strips across; Pois(0; x) = e^-x
        terms = np.empty((STRIP, n0.size))
        n1 = np.maximum(n0, 1.0)
        terms[0] = np.where(n0 == 0, np.exp(-xs),
                            np.exp(log_weights[n1.astype(np.intp)] - _bd0(n1, xs)))
        np.divide(xs, n0 + np.arange(1.0, STRIP)[:, None], out=terms[1:])
        for i in range(1, STRIP):
            terms[i] *= terms[i - 1]
        terms *= windows[n0.astype(np.intp)].T
        vals[at] = np.add.reduceat(terms.sum(axis=0), first)
    return vals


def _law(y, rates, density: bool):
    """pdf_y (density) or cdf_y at y, scalar or array (module docstring);
    y must be finite and >= 0 (``scenario.check_points``, a ConfigError),
    a rate positive and finite (``count_rates``, a ConfigError too)."""
    arr = check_points(y, "y")
    rho, c = _groups(rates)
    pmf, below = _count_law(rho, c)
    rho, c = np.array(rho), np.array(c)
    b, count = rho[0], int(c.sum())
    # each point sums its window of Poisson orders n: from the first
    # order read (C - 1 for the pdf, C for the cdf) or x - sqrt(2Lx) up
    lead = count - density
    # x past 2^53 lies past the end of every table, where a point reads the
    # table's last entry: held there, the window ends stay finite, and a
    # y/b past the double range is answered as well
    with np.errstate(over="ignore"):
        x = np.minimum(arr.ravel() / b, 2.0**53)
    span = 36.0 - float(np.sum(c * np.log(b / rho)))
    reach = np.floor(x - np.sqrt(2.0 * span * x))
    m = np.maximum(x, lead)
    hi = np.ceil(m + np.sqrt(2.0 * span * m) + 2.0 * span / 3.0)
    # the tables run over n: P_K(n - C + 1)/b, F_K(n - C), P(K > n - C)
    if density:
        # the density reaches about 1/b, past the double range where b is
        # subnormal
        with np.errstate(over="ignore"):
            pmf = pmf / b
        if not pmf.max() < np.inf:
            raise NumericInstabilityError(
                f"the density of Y overflows double precision: its smallest rate is {float(b)!r}")
        vals = _sums(x, np.maximum(lead, reach), hi, np.concatenate((np.zeros(lead), pmf, [0.0])))
    else:
        # past the mean, 1 - sum_n Pois(n; x) P(K > n - C): summed where it
        # is small, it keeps the cdf non-decreasing up to 1
        up = x > count + float(np.sum(c * (rho / b - 1.0)))
        vals = np.empty_like(x)
        vals[~up] = _sums(x[~up], np.maximum(lead, reach[~up]), hi[~up],
                          np.concatenate((np.zeros(lead), below)))
        vals[up] = 1.0 - _sums(x[up], np.maximum(0.0, reach[up]), hi[up],
                               np.concatenate((np.ones(lead), 1.0 - below)))
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def pdf_y(y, rates):
    """Density of the interference sum over the raw rates at y (scalar or array)."""
    return _law(y, rates, True)


def cdf_y(y, rates):
    """CDF of the interference sum over the raw rates at y (scalar or array)."""
    return _law(y, rates, False)
