"""One SINR model for both receivers: SINR = X/(1+Y), evaluated on a grid.

The numerator is X = rho_bar * Z with Z a signed gamma mixture,
f_Z(z) = sum_kl psi_kl k^{l+1} z^l e^{-kz}/l!.  The two receivers differ
only in that table and in rho_bar (``scenario.own_numerator_scale``):
beamforming (``bf``) takes the largest Wishart eigenvalue, whose exact
weights come from ``wishart``; OSTBC (``ostbc``) takes the one-term
table {(1, N-1): 1}, Z ~ Gamma(N, 1).  The interference
Y = sum_r Exp(rho_r) runs over the raw rate set; equal rates are
counted, near-equal ones are never merged.

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
g starts in linear scale: g_0 reads 0 once a + sum_r c_r log1p(a rho_r)
passes about 745, and every g_n with it.  The mass dropped there,
sum_{n<=lmax} g_n, is at most g_0 times the sum of the coefficients of
t^0..t^lmax in e^{at} (1-t)^{-sum_r c_r}.  On 8x8 OSTBC, the largest
lmax (63), it is 2.9e-234 where g_0 first reads 0 under the reference
mix (a = 620) and 2.4e-240 under six 8-layer SM interferers (a = 248),
and it falls as a grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import inversion
from .mixture import MixtureSpec


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 one row after the other, whatever the column count
    (numpy's pairwise `sum` regroups a single column of more than 8)."""
    return x[0] if len(x) == 1 else np.cumsum(x, axis=0)[-1]


@dataclass(eq=False)
class SinrModel:
    """Outage, density and outage thresholds of rho_bar*Z/(1+Y).

    `weights` maps (k, l) to psi_kl.  Exact rationals are rounded once
    here, correctly: that keeps sum psi = 1, and with it the outage at
    large gamma, within 1e-12 even at 8x8.  `rates` is the raw
    interference rate set, empty for no interferers, and `mixture` its
    grouping (None without interferers), whose partial-fraction
    coefficients are computed only if read; evaluation does not read
    `mixture`.  `notes` carries model caveats (e.g. no full-rate code
    above two transmit antennas).
    """

    weights: dict[tuple[int, int], Fraction | int]
    mixture: MixtureSpec | None
    rho_bar: float
    rates: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.rho_bar <= 0:
            raise ValueError(f"rho_bar must be positive, got {self.rho_bar}")
        items = sorted(self.weights.items())
        kvals, kidx = np.unique([k for (k, _), _ in items], return_inverse=True)
        ls = np.array([l for (_, l), _ in items])
        psis = np.array([float(w) for _, w in items])
        # no interferers is one interferer of power 0, which adds exact zeros
        rates = np.asarray(self.rates, dtype=np.float64).reshape(-1)
        rho, count = np.unique(rates if rates.size else np.zeros(1), return_counts=True)
        self.kvals, self.kidx, self.ls, self.psis = kvals, kidx, ls, psis
        self.psi_k = np.bincount(kidx, weights=psis, minlength=kvals.size)
        # rates run down axis 0, (k, gamma) columns across
        self.rho, self.count = rho[:, None], count[:, None].astype(np.float64)
        self._inv_orders = 1.0 / np.arange(1.0, ls.max() + 2.0)[:, None]
        self._pdf_scale = psis * kvals[kidx] / self.rho_bar

    def _counts(self, gamma: np.ndarray):
        """log g_{k,0}, g_{k,n} for n = 0..lmax+1 and d_{k,n} for n = 0..lmax.

        Columns run over (k, gamma) k-major: log g_0 is (K*G,), g is
        (lmax+2, K*G) and d is (lmax+1, K*G).
        """
        with np.errstate(over="ignore"):
            a = np.minimum(self.kvals[:, None] * (gamma / self.rho_bar),
                           np.finfo(np.float64).max).ravel()
            ar = self.rho * a
        # where a or a rho_r overflows, e^{-a} or (1 + a rho_r)^{-1}, and with
        # it every g_{k,n}, lies far below the smallest double: a is held at
        # the largest double and s_r is 0 there, so the outage reads
        # sum psi and the density 0
        log_g0 = -a - _sum_rows(self.count * np.log1p(ar))
        cs = self.count * (self.rho / (1.0 + ar))
        ac = a / self.count
        step = a * self._inv_orders
        g = np.empty((step.shape[0] + 1, a.size))
        d = np.empty_like(step)
        g[0] = np.exp(log_g0)
        # h holds c_r h_{r,n} = c_r s_r (g_n + (a/c_r) c_r h_{r,n-1})
        h = np.zeros_like(ar)
        for g_n, g_next, d_n, step_n in zip(g, g[1:], d, step):
            h *= ac
            h += g_n
            h *= cs
            np.add(g_n, _sum_rows(h), out=d_n)
            np.multiply(step_n, d_n, out=g_next)
        return log_g0, g, d

    def _per_term(self, x: np.ndarray, g: int) -> np.ndarray:
        """(n, K*G) -> (T, G): order l_i of column block k_i for each psi term."""
        return x.reshape(x.shape[0], self.kvals.size, g)[self.ls, self.kidx]

    def _outage(self, gamma: np.ndarray) -> np.ndarray:
        """P(SINR <= gamma) on a 1-d array of gamma > 0, unclamped."""
        g = gamma.size
        log_g0, pmf, _ = self._counts(gamma)
        # sum_{1<=n<=l} g_n summed from g_1 up: cumsum(g) - g_0 would round
        # it to 0 as gamma -> 0, where 1 - g_0 keeps its digits
        pmf[0] = 0.0
        partial = np.cumsum(pmf, axis=0)
        head = -np.expm1(log_g0).reshape(self.kvals.size, g)
        return (_sum_rows(self.psi_k[:, None] * head)
                - _sum_rows(self.psis[:, None] * self._per_term(partial, g)))

    def _pdf(self, gamma: np.ndarray) -> np.ndarray:
        """SINR density on a 1-d array of gamma >= 0."""
        _, _, d = self._counts(gamma)
        return _sum_rows(self._pdf_scale[:, None] * self._per_term(d, gamma.size))

    def sinr_pdf(self, gamma):
        """Density of the SINR at gamma (scalar or array)."""
        arr = np.asarray(gamma, dtype=np.float64)
        if not (np.isfinite(arr).all() and (arr >= 0).all()):
            raise ValueError("sinr_pdf requires finite gamma >= 0")
        vals = self._pdf(arr.ravel())
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    def outage(self, gamma0):
        """P(SINR <= gamma0), scalar or array."""
        arr = np.asarray(gamma0, dtype=np.float64)
        if not (np.isfinite(arr).all() and (arr > 0).all()):
            raise ValueError("outage requires finite gamma0 > 0")
        vals = self._outage(arr.ravel()).reshape(arr.shape)
        return inversion.clamp_probability(vals)

    def threshold(self, p_target: float) -> float:
        """Outage threshold gamma0 with outage(gamma0) = p_target."""
        # looked up on the module at call time, like self.outage on the
        # class, so that wrappers installed there see every inversion
        return inversion.threshold_at_outage(lambda g: self.outage(g), p_target)
