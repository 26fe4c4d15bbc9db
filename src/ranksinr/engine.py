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
    d_n = g_n + sum_r c_r h_{r,n} = (n+1) g_{n+1}/a,
    g_{n+1} = a d_n/(n+1),

the series behind Moschopoulos' representation of gamma sums (Ann.
Inst. Statist. Math. 37, 1985).  Then

    P(gamma) = sum_k Psi_k (1 - g_{k,0}) - sum_kl psi_kl sum_{1<=n<=l} g_{k,n},
    f(gamma) = sum_kl psi_kl (k/rho_bar) d_{k,l},

with Psi_k = sum_l psi_kl and 1 - g_0 = -expm1(log g_0), which keeps
the outage's leading term as gamma -> 0.  The density is the outage's
derivative term by term: E[(1+Y) Pois(l; a(1+Y))] = (l+1) g_{l+1}/a.
With no interferers g is the Poisson(a) pmf and the outage is the
eigenvalue CDF sum psi_kl P(l+1, a_k).  The only signed sum is the one
over psi: none for OSTBC, about 1e-9 absolute at 8x8 beamforming.

Each (k, gamma) column costs O(lmax R) for R distinct rates, and every
sum (over rates, over k, over psi terms) runs in a fixed order down its
axis, so a value does not depend on which other points share the call.
So one model can carry rows, each with its own rho_bar and rates over
one psi table, and each row reads the bits of its own one-row model; a
call runs in blocks of BLOCK columns, a few MB however many points.
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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import inversion, mixture
from .errors import ConfigError, NumericInstabilityError
from .mixture import MixtureSpec
from .scenario import build_rate_set, check_indices, check_points, own_numerator_scale


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 one row after the other, whatever the column count
    (numpy's pairwise `sum` regroups a single column of more than 8)."""
    return x[0] if len(x) == 1 else x[0] + x[1] if len(x) == 2 else np.add.accumulate(x)[-1]


# (k, point) columns evaluated at once: the count tables stay a few MB
BLOCK = 4096


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
    """kvals, kidx, ls, psis, psi_k, 1/(n+1) for n <= lmax, and psi_kl k of
    a psi table, read-only: every model of the table shares them.  A
    cached entry holds its table, so no other table can take its id."""
    items = sorted(key.table.items())
    kvals, kidx = np.unique([k for (k, _), _ in items], return_inverse=True)
    ls = np.array([l for (_, l), _ in items])
    psis = np.array([float(w) for _, w in items])
    arrays = (kvals, kidx, ls, psis, np.bincount(kidx, weights=psis, minlength=kvals.size),
              1.0 / np.arange(1.0, ls.max() + 2.0)[:, None, None],
              (psis * kvals[kidx])[:, None])
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(eq=False)
class SinrModel:
    """Outage, density and outage thresholds of rho_bar*Z/(1+Y).

    `weights` maps (k, l) to psi_kl.  Exact rationals are rounded once
    per table, correctly: that keeps sum psi = 1, and with it the outage
    at large gamma, within 1e-12 even at 8x8.  The arrays derived from a
    table are cached by its identity (the tables of ``wishart`` and
    ``ostbc`` are cached too), so a table must not change once a model
    has read it.  `rho_bar` must be positive and finite, and the points
    of an outage positive and finite, those of a density nonnegative and
    finite (``scenario.check_points``): a ConfigError refuses any other.
    `rates` is the raw interference rate set, empty for no interferers;
    each rate must be positive and finite, or ``mixture.count_rates``
    refuses it with a ConfigError that names its row.  `mixture` is
    ``mixture.build_mixture`` of the rates (None without interferers),
    whose partial-fraction coefficients are computed only if read, which
    only ``dump-xi`` does: neither evaluation nor ``pdf_y``/``cdf_y``
    reads `mixture`.

    A model of several rows takes a tuple of rho_bar and one rate set
    per row; axis 0 of its arguments runs over the rows.  Any other
    count of rate sets, or a rate set that is not a flat sequence, is
    refused with ConfigError.
    """

    weights: dict[tuple[int, int], Fraction | int]
    mixture: MixtureSpec | None
    rho_bar: float | tuple[float, ...]
    rates: tuple[float, ...] | tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        rho_bar = check_points(self.rho_bar, "rho_bar", positive=True)
        (self.kvals, self.kidx, self.ls, self.psis, self.psi_k, self._inv_orders,
         self._pdf_scale) = _psi_arrays(_Identity(self.weights))
        row_rates = (self.rates,) if rho_bar.ndim == 0 else self.rates
        flat = sum(np.ndim(r) != 1 for r in row_rates)
        if len(row_rates) != rho_bar.size or flat:
            raise ConfigError(
                f"rho_bar has {rho_bar.size} rows and rates {len(row_rates)} rate sets, "
                f"{flat} of them not a flat sequence of rates: each row takes one")
        # rates down axis 0, rows across; absent rates, and no interferers, are
        # rate 0 with count 1: they add exact zeros and keep a/c_r finite
        rows = [mixture.count_rates(r, f"the rates of row {j}") for j, r in enumerate(row_rates)]
        self.rho = np.zeros((max(1, *(len(r) for r, _ in rows)), len(rows)))
        self.count = np.ones_like(self.rho)
        for j, (rho, count) in enumerate(rows):
            self.rho[:len(rho), j], self.count[:len(count), j] = rho, count
        self._rho_bar = rho_bar.reshape(-1)

    @classmethod
    def for_scenarios(cls, mode, weights, cfg, *more):
        """The `mode` model of scenario cfg, or with more scenarios of its
        size one row per scenario; a model of several rows has no mixture."""
        cfgs = (cfg, *more)
        for c in cfgs:
            if c.own_mode is not mode:
                raise ConfigError(f"scenario own_mode is {c.own_mode.value}, expected {mode.value}")
            if (c.n_r, c.n_t) != (cfg.n_r, cfg.n_t):
                raise ConfigError("the rows of one model must share n_r and n_t")
        rho_bar, rates = tuple(map(own_numerator_scale, cfgs)), tuple(map(build_rate_set, cfgs))
        if more:
            return cls(weights, None, rho_bar, rates)
        mix = mixture.build_mixture(rates[0]) if rates[0] else None  # on the module: wrappers see it
        return cls(weights, mix, rho_bar[0], rates[0])

    def _counts(self, gamma: np.ndarray, rows=0, top=None):
        """log g_{k,0}, g_{k,n} for n <= top and d_{k,n} for n < top, top =
        lmax + 1 by default (the outage reads no d).  gamma is 1-d, rows
        the row of each point or of all; log g_0 is (K, G), g (top+1, K,
        G), d (top, K, G), and the rates run down axis 0 of (R, K, G) terms.
        """
        if isinstance(rows, np.ndarray):
            # np.take, unlike x[:, rows], lays the terms out C-contiguous:
            # the recursion runs at strided speed on the other layout
            rho, count = (np.take(t, rows, axis=1)[:, None] for t in (self.rho, self.count))
        else:
            rho, count = self.rho[:, rows, None, None], self.count[:, rows, None, None]
        with np.errstate(over="ignore"):
            a = np.minimum(self.kvals[:, None] * (gamma / self._rho_bar[rows]),
                           np.finfo(np.float64).max)
            ar = rho * a
        # where a or a rho_r overflows, e^{-a} or (1 + a rho_r)^{-1}, and with
        # it every g_{k,n}, lies far below the smallest double: a is held at
        # the largest double and s_r is 0 there, so the outage reads
        # sum psi and the density 0
        log_g0 = -a - _sum_rows(count * np.log1p(ar))
        cs = count * (rho / (1.0 + ar))
        ac = a / count
        step = a * self._inv_orders[:top]
        g = np.empty((step.shape[0] + 1, *a.shape))
        d = np.empty_like(step)
        g[0] = np.exp(log_g0)
        # h holds c_r h_{r,n} = c_r s_r (g_n + (a/c_r) c_r h_{r,n-1})
        h = np.zeros(ar.shape)
        for g_n, g_next, d_n, step_n in zip(g, g[1:], d, step):
            h *= ac
            h += g_n
            h *= cs
            np.add(g_n, _sum_rows(h), out=d_n)
            np.multiply(step_n, d_n, out=g_next)
        return log_g0, g, d

    def _per_term(self, x: np.ndarray) -> np.ndarray:
        """(n, K, G) -> (T, G): order l_i of block k_i for each psi term."""
        return x[self.ls, self.kidx]

    def _outage(self, gamma: np.ndarray, rows=0) -> np.ndarray:
        """P(SINR <= gamma) on a 1-d array of gamma > 0, unclamped."""
        log_g0, pmf, _ = self._counts(gamma, rows, self.ls.max())
        # sum_{1<=n<=l} g_n summed from g_1 up: cumsum(g) - g_0 would round
        # it to 0 as gamma -> 0, where 1 - g_0 keeps its digits
        pmf[0] = 0.0
        partial = np.add.accumulate(pmf)
        return (_sum_rows(self.psi_k[:, None] * -np.expm1(log_g0))
                - _sum_rows(self.psis[:, None] * self._per_term(partial)))

    def _pdf(self, gamma: np.ndarray, rows=0) -> np.ndarray:
        """SINR density on a 1-d array of gamma >= 0."""
        _, _, d = self._counts(gamma, rows)
        # psi_kl k/rho_bar overflows where rho_bar is tiny; sinr_pdf refuses
        # the inf or NaN this leaves
        with np.errstate(over="ignore", invalid="ignore"):
            scale = self._pdf_scale / self._rho_bar[rows]
            return _sum_rows(scale * self._per_term(d))

    def _rows(self, rows) -> np.ndarray:
        """The row indices `rows` (``scenario.check_indices``), all rows for None."""
        n = self._rho_bar.size
        return np.arange(n) if rows is None else check_indices(rows, "rows", n)

    def _evaluate(self, kernel, arr: np.ndarray, rows) -> np.ndarray:
        """kernel at every point of arr in blocks of at most BLOCK columns;
        in a model of several rows axis 0 runs over `rows`, or all rows."""
        rows = self._rows(rows)
        if rows.size != 1 and arr.shape[:1] != rows.shape:
            raise ConfigError(f"axis 0 of gamma must run over {rows.size} model rows")
        # one row's rates broadcast over its points, several rows' are
        # gathered point by point
        one, flat = rows.size == 1, arr.ravel()
        point_rows = rows.item() if one else rows.repeat(math.prod(arr.shape[1:]))
        step = max(1, BLOCK // self.kvals.size)
        out = [kernel(flat[s:s + step], point_rows if one else point_rows[s:s + step])
               for s in range(0, flat.size, step)]
        return (out[0] if len(out) == 1 else np.concatenate(out or [flat])).reshape(arr.shape)

    def sinr_pdf(self, gamma):
        """Density of the SINR at gamma (scalar or array).

        A density past the double range is refused: psi_kl k/rho_bar
        overflows where rho_bar is below about 1e-307.
        """
        arr = check_points(gamma, "gamma")
        vals = self._evaluate(self._pdf, arr, None)
        # written as "not <" so that NaN is refused too
        if not np.abs(vals).max(initial=0.0) < np.inf:
            raise NumericInstabilityError("the SINR density overflows double precision")
        return float(vals) if arr.ndim == 0 else vals

    def outage(self, gamma0, rows=None):
        """P(SINR <= gamma0), scalar or array; in a model of several rows
        axis 0 runs over the row indices `rows`, all rows by default.
        An index outside 0..n_rows-1, or a gamma0 whose axis 0 does not
        run over the rows, is refused with ConfigError; no rows and no
        points answer an empty array."""
        arr = check_points(gamma0, "gamma0", positive=True)
        return inversion.clamp_probability(self._evaluate(self._outage, arr, rows))

    def threshold(self, p_target: float, rows=None):
        """Outage threshold gamma0 with outage(gamma0) = p_target: a float for a
        model of one row, or one per index of `rows` (all rows by default),
        inverted together; `rows` follows the rule of `outage`."""
        one = rows is None and np.ndim(self.rho_bar) == 0
        rows = self._rows(rows)
        # looked up on the module at call time, like self.outage on the
        # class, so that wrappers installed there see every inversion
        thr = inversion.threshold_at_outage(lambda x, at: self.outage(x, rows[at]),
                                            p_target, rows.size)
        return float(thr[0]) if one else thr
