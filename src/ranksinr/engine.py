"""One SINR model for both receivers: SINR = X/(1+Y), evaluated on a grid.

The numerator is X = rho_bar * Z with Z a signed gamma mixture,
f_Z(z) = sum_kl psi_kl k^{l+1} z^l e^{-kz}/l!.  The two receivers differ
only in that table and in rho_bar (``scenario.own_numerator_scale``):
beamforming (``bf``) takes the largest Wishart eigenvalue, whose exact
weights come from ``wishart``; OSTBC (``ostbc``) takes the one-term
table {(1, N-1): 1}, Z ~ Gamma(N, 1).  The interference
Y = sum_r Exp(rho_r) runs over the raw rate set, read by
``mixture.count_rates`` as for the laws of Y and ``dump-xi``: a rate that
is not positive and finite is refused, equal rates are counted and
near-equal ones are never merged.

Conditioning on Y, P(k Z <= x) for one gamma term is P(Pois(x) > l),
so everything reduces to the count N_k = Pois(a_k (1+Y)),
a_k = k*gamma/rho_bar, and its pmf g_k.  Its generating function is
sum_n g_n t^n = e^{-a(1-t)} prod_r (1 + a rho_r (1-t))^{-c_r}, c_r the
multiplicity of rho_r, and differentiating it gives a recursion with
positive terms only.  With s_r = rho_r/(1 + a rho_r), finite at a = 0,

    g_0 = exp(-a - sum_r c_r log1p(a rho_r)),   h_{r,-1} = 0,
    h_{r,n} = s_r (g_n + a h_{r,n-1}),
    e_n = (g_n + sum_r c_r h_{r,n})/(n+1) = g_{n+1}/a,

the series behind Moschopoulos' representation of gamma sums (Ann.
Inst. Statist. Math. 37, 1985).  Outage and density are one weighted
sum over it, total_k = sum_n w_kn e_kn, with W_kn = sum_{l>=n} psi_kl:

    P(gamma) = sum_k [Psi_k (1 - g_k0) - a_k total_k],   w_kn = W_{k,n+1},
    f(gamma) = sum_k total_k / rho_bar,                  w_kn = k (n+1) psi_kn,

as sum_l psi_kl P(1 <= N_k <= l) = sum_{n>=1} W_kn g_kn with Psi_k = W_k0;
the density is the outage's derivative term by term, and
1 - g_0 = -expm1(log g_0) keeps the outage's digits as gamma -> 0.  The
weights are formed exactly and rounded once, so the signed psi sum
cancels exactly within each k; the rest, none for OSTBC, is below 1e-14
absolute up to 4x4 and about 2e-11 at 8x8 beamforming (8e-10 summed
term by term).

Each (k, gamma) column costs O(lmax R) for R distinct rates, and every
sum (over rates, over k, over orders) runs in a fixed order down its
axis, so a value does not depend on which other points share the call:
numpy's reduction adds a slow axis row by row, in index order, and
regroups only the fast axis pairwise, so a single column, as a one-point
call has, is added by add.accumulate.
So one model can carry rows, each with its own rho_bar and rates over
one psi table, and each row reads the bits of its own one-row model; a
call runs in blocks of BLOCK columns, about 2 MB however many points.
g starts in linear scale: g_0 reads 0 once a + sum_r c_r log1p(a rho_r)
passes about 745, and every g_n with it.  The mass dropped there,
sum_{n<=lmax} g_n, is at most g_0 times the sum of the coefficients of
t^0..t^lmax in e^{at} (1-t)^{-sum_r c_r}.  On 8x8 OSTBC, the largest
lmax (63), it is 2.9e-234 where g_0 first reads 0 under the reference
mix (a = 620) and 2.4e-240 under six 8-layer SM interferers (a = 248),
and it falls as a grows.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import inversion, mixture
from .errors import ConfigError, NumericInstabilityError
from .mixture import MixtureSpec
from .scenario import build_rate_set, check_points, own_numerator_scale


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0, one row after the other: numpy's reduction adds a
    slow axis row by row, in index order, but regroups the fast axis
    pairwise from 8 entries on, so a single column goes through
    add.accumulate.  The reduction starts from 0.0, so a column of -0.0
    alone sums to 0.0; no kernel sum has one."""
    return np.add.reduce(x) if x[0].size > 1 else np.add.accumulate(x)[-1]


# (k, point) columns evaluated at once, a few hundred KB of arrays
BLOCK = 4096
# count orders weighted at once
CHUNK = 8


class _Identity:
    """A psi table as a cache key, by identity: a dict is unhashable, and
    hashing its Fractions would cost about what rounding them does."""

    __slots__ = ("table",)

    def __init__(self, table) -> None:
        self.table = table

    def __hash__(self) -> int:
        return id(self.table)

    def __eq__(self, other) -> bool:
        return self.table is other.table


@functools.lru_cache(maxsize=64)
def _psi_arrays(key: _Identity) -> tuple[np.ndarray, ...]:
    """kvals, Psi_k and the outage and density weights of a psi table,
    read-only: every model of the table shares them.
    The outage weight of order n < lmax is W_{k,n+1} = sum_{l>n} psi_kl,
    the density weight of order n <= lmax is k (n+1) psi_kn, each table
    (orders, K, 1); every weight is formed exactly and rounded once.  A
    cached entry holds its table, so no other table can take its id.  A
    table that is not a nonempty dict of integer pairs (k, l), k >= 1 and
    l >= 0, to finite weights is refused with ConfigError, and so is one
    whose derived weight passes the double range."""
    table = key.table
    if not isinstance(table, dict) or not table:
        raise ConfigError(f"weights must be a nonempty dict, got {table!r}")
    for kl, w in table.items():
        if not (isinstance(kl, tuple) and len(kl) == 2
                and all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in kl)
                and kl[0] >= 1 and kl[1] >= 0):
            raise ConfigError(f"weights must be keyed by integer pairs (k, l), k >= 1 and "
                              f"l >= 0, got {kl!r}")
        try:  # a finite int, Fraction or float, numpy's too; not bool or str
            finite = isinstance(w, numbers.Real) and not isinstance(w, bool) and math.isfinite(w)
        except OverflowError:  # an int or Fraction past the double range
            finite = False
        if not finite:
            raise ConfigError(f"the weight of {kl!r} must be a finite int, Fraction or float, "
                              f"got {w!r}")
    # sorted() rather than np.unique, which imports numpy.ma (about 1 MB)
    kvals, lmax = np.array(sorted({k for k, _ in table})), max(l for _, l in table)
    psi = np.full((lmax + 1, kvals.size, 1), Fraction(0), dtype=object)
    for (k, l), w in table.items():
        psi[l, kvals.searchsorted(k), 0] = (Fraction(w) if isinstance(w, numbers.Rational)
                                            else Fraction(float(w)))
    # the tail sums W_kn and k (n+1) psi_kn in exact arithmetic
    tails = np.cumsum(psi[::-1], axis=0)[::-1]
    scale = (np.arange(1, lmax + 2)[:, None, None] * kvals[:, None]).astype(object)
    try:
        arrays = (kvals, tails[0, :, 0].astype(float), tails[1:].astype(float),
                  (psi * scale).astype(float))
    except OverflowError:
        raise ConfigError("a weight derived from the table passes the double range") from None
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(eq=False)
class SinrModel:
    """Outage, density and outage thresholds of rho_bar*Z/(1+Y).

    `weights` maps (k, l) to psi_kl.  The weights derived from it are
    formed exactly and rounded once: the Psi_k of the shipped tables are
    integers, so they sum to exactly 1 and the outage at large gamma
    reads 1.  They are cached by the table's identity (the tables of
    ``wishart`` and ``ostbc`` are cached too), so a table must not change
    once a model has read it.
    `rho_bar` must be positive and finite, and the points of an outage
    positive and finite, those of a density nonnegative and finite
    (``scenario.check_points``): a ConfigError refuses any other.
    `rates` is the raw interference rate set, empty for no interferers,
    read by ``mixture.count_rates``: a flat sequence of real numbers,
    each positive and finite, or a ConfigError names its row.
    `mixture` is derived, not passed: ``mixture.build_mixture`` of the
    rates for a model of one row with interferers, None otherwise; only
    ``dump-xi`` reads its partial-fraction coefficients.

    A model of several rows takes a tuple of rho_bar and a list or tuple
    of one rate set per row; any other count of rate sets is refused
    with ConfigError.  Every call answers all rows: axis 0 of its
    points runs over them.
    """

    weights: dict[tuple[int, int], Fraction | int]
    rho_bar: float | tuple[float, ...]
    rates: tuple[float, ...] | tuple[tuple[float, ...], ...] = ()
    mixture: MixtureSpec | None = field(init=False)

    def __post_init__(self) -> None:
        rho_bar = check_points(self.rho_bar, "rho_bar", positive=True)
        (self.kvals, self.psi_k, self._outage_weights,
         self._pdf_weights) = _psi_arrays(_Identity(self.weights))
        row_rates = (self.rates,) if rho_bar.ndim == 0 else self.rates
        if not (isinstance(row_rates, (list, tuple)) and len(row_rates) == rho_bar.size > 0):
            raise ConfigError(f"rho_bar has {rho_bar.size} rows, and rates must hold one rate "
                              f"set per row, got {self.rates!r}")
        # rates down axis 0, rows across; absent rates, and no interferers, are
        # rate 0 with count 1: they add exact zeros and keep a/c_r finite
        rows = [mixture.count_rates(r, f"the rates of row {j}") for j, r in enumerate(row_rates)]
        self.rho = np.zeros((max(1, *(len(r) for r, _ in rows)), len(rows)))
        self.count = np.ones_like(self.rho)
        for j, (rho, count) in enumerate(rows):
            self.rho[:len(rho), j], self.count[:len(count), j] = rho, count
        self._rho_bar = rho_bar.reshape(-1)
        # on the module: wrappers installed there see every build
        self.mixture = (mixture.build_mixture(self.rates)
                        if rho_bar.ndim == 0 and rows[0][0] else None)

    @classmethod
    def for_scenarios(cls, mode, weights, cfg, *more):
        """The `mode` model of scenario cfg, or with more scenarios of its
        size one row per scenario."""
        cfgs = (cfg, *more)
        for c in cfgs:
            if c.own_mode is not mode:
                raise ConfigError(f"scenario own_mode is {c.own_mode.value}, expected {mode.value}")
            if (c.n_r, c.n_t) != (cfg.n_r, cfg.n_t):
                raise ConfigError("the rows of one model must share n_r and n_t")
        if more:
            return cls(weights, tuple(map(own_numerator_scale, cfgs)),
                       tuple(map(build_rate_set, cfgs)))
        return cls(weights, own_numerator_scale(cfg), build_rate_set(cfg))

    def _weighted_sum(self, gamma: np.ndarray, rows, weights: np.ndarray):
        """a_k, log g_{k,0} and sum_n w[n, k] e_{k,n} over the orders n of
        `weights`, each (K, G).  gamma is 1-d and rows the row of each
        point, or one row for all; the rates run down axis 0."""
        # np.take, unlike x[:, rows], lays the terms out C-contiguous:
        # the recursion runs at strided speed on the other layout
        rho, count = (np.take(t, rows, axis=1).reshape(len(t), 1, -1)
                      for t in (self.rho, self.count))
        with np.errstate(over="ignore"):
            a = np.minimum(self.kvals[:, None] * (gamma / self._rho_bar[rows]),
                           np.finfo(np.float64).max)
            ar = rho * a
        # where a or a rho_r overflows, e^{-a} or (1 + a rho_r)^{-1}, and with
        # it every g_{k,n}, lies far below the smallest double: a is held at
        # the largest double and s_r is 0 there, so the outage reads
        # sum psi and the density 0
        log_g0 = -a - _sum_rows(count * np.log1p(ar))
        cs, ac = count * (rho / (1.0 + ar)), a / count
        # g_n above c_r h_{r,n} = c_r s_r (g_n + (a/c_r) c_r h_{r,n-1}); es is
        # the running total over the e_n of up to CHUNK orders, each chunk
        # weighted in one call and added in order: two calls per order fewer
        gh = np.concatenate([np.exp(log_g0)[None], np.zeros(ar.shape)])
        g, h = gh[0], gh[1:]
        es = np.zeros((CHUNK + 1, *a.shape))
        for n in range(len(weights)):
            h *= ac
            h += g
            h *= cs
            j = n % CHUNK + 1
            np.multiply(a, np.multiply(_sum_rows(gh), 1.0 / (n + 1), out=es[j]), out=g)
            if j == CHUNK or n + 1 == len(weights):
                es[1:j + 1] *= weights[n + 1 - j:n + 1]
                es[0] = _sum_rows(es[:j + 1])
        return a, log_g0, es[0]

    def _outage(self, gamma: np.ndarray, rows=0) -> np.ndarray:
        """P(SINR <= gamma) on a 1-d array of gamma > 0, unclamped."""
        a, log_g0, total = self._weighted_sum(gamma, rows, self._outage_weights)
        return _sum_rows(self.psi_k[:, None] * -np.expm1(log_g0) - a * total)

    def _pdf(self, gamma: np.ndarray, rows=0) -> np.ndarray:
        """SINR density on a 1-d array of gamma >= 0."""
        _, _, total = self._weighted_sum(gamma, rows, self._pdf_weights)
        # past the double range it overflows; sinr_pdf refuses the inf
        with np.errstate(over="ignore"):
            return _sum_rows(total) / self._rho_bar[rows]

    def _evaluate(self, kernel, arr: np.ndarray) -> np.ndarray:
        """kernel at every point of arr in blocks of at most BLOCK columns;
        in a model of several rows axis 0 runs over the rows."""
        n, flat = self._rho_bar.size, arr.ravel()
        if n != 1 and arr.shape[:1] != (n,):
            raise ConfigError(f"axis 0 of gamma must run over {n} model rows")
        point_rows = np.arange(n).repeat(flat.size // n)
        step = max(1, BLOCK // self.kvals.size)
        out = [kernel(flat[s:s + step], point_rows[s:s + step])
               for s in range(0, flat.size, step)]
        return (out[0] if len(out) == 1 else np.concatenate(out or [flat])).reshape(arr.shape)

    def sinr_pdf(self, gamma):
        """Density of the SINR at gamma (scalar or array); a density past
        the double range is refused."""
        arr = check_points(gamma, "gamma")
        vals = self._evaluate(self._pdf, arr)
        # written as "not <" so that NaN is refused too
        if not np.abs(vals).max(initial=0.0) < np.inf:
            raise NumericInstabilityError("the SINR density overflows double precision")
        return float(vals) if arr.ndim == 0 else vals

    def outage(self, gamma0):
        """P(SINR <= gamma0), scalar or array; in a model of several rows
        axis 0 runs over the rows, and a gamma0 whose axis 0 does not is
        refused with ConfigError.  No points answer an empty array."""
        arr = check_points(gamma0, "gamma0", positive=True)
        return inversion.clamp_probability(self._evaluate(self._outage, arr))

    def threshold(self, p_target: float):
        """Outage threshold gamma0 with outage(gamma0) = p_target: a float for a
        model of one row, or an array of one per row, inverted together."""
        # looked up on the module at call time, like self.outage on the
        # class, so that wrappers installed there see every inversion
        thr = inversion.threshold_at_outage(self.outage, p_target, self._rho_bar.size)
        return float(thr[0]) if np.ndim(self.rho_bar) == 0 else thr
