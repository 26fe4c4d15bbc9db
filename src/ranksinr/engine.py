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
a_k = k*gamma/rho_bar, and its pmf g_k.  Its generating function
sum_n g_n t^n = e^{-a(1-t)} L(a(1-t)), with L(a) = prod_r (1 + a rho_r)^{-1}
the Laplace transform of Y, factors: N is a Poisson(a) count plus
independent negative binomial counts NB(c_r, w_r), w_r = a rho_r/(1 +
a rho_r), c_r the multiplicity of rho_r.  g is their convolution: one
step per distinct rate, every term positive and at most 1.  Then

    P(gamma) = sum_k Psi_k (1 - g_{k,0}) - sum_kl psi_kl sum_{1<=n<=l} g_{k,n},
    f(gamma) = sum_kl psi_kl (k/rho_bar) [g_{k,l} + (b/a * g_k)_l],

with Psi_k = sum_l psi_kl, 1 - g_0 = -expm1(-a + log L), which keeps
the outage's leading term as gamma -> 0, and * the truncated
convolution with b_m/a = sum_r c_r rho_r/(1 + a rho_r) w_r^m, finite at
a = 0.  The density is the derivative term by term:
E[(1+Y) Pois(l; a(1+Y))] = (l+1) g_{l+1}/a, and differentiating the
generating function gives (n+1) g_{n+1} = a g_n + (b * g)_n, the series
behind Moschopoulos' representation of gamma sums (Ann. Inst. Statist.
Math. 37, 1985).  With no interferers g is the Poisson(a) pmf and the
outage is the eigenvalue CDF sum psi_kl P(l+1, a_k).  The only signed
sum is the one over psi: none for OSTBC, about 1e-9 absolute at 8x8
beamforming.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import inversion
from .mixture import MixtureSpec, log_factorials, log_floored


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise truncated convolution: out[:, l] = sum_{s<=l} x[:, l-s] y[:, s]."""
    rows, n = x.shape
    padded = np.zeros((rows, 2 * n - 1))
    padded[:, n - 1:] = x
    # windows[g, l, j] = padded[g, l + j] = x[g, l + j - (n-1)], zero where
    # that index is negative; a strided view, nothing is copied
    s0, s1 = padded.strides
    windows = np.ndarray((rows, n, n), buffer=padded, strides=(s0, s1, s1))
    return (windows @ y[:, ::-1, None])[:, :, 0]


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
        rho, count = np.unique(np.asarray(self.rates, dtype=np.float64),
                               return_counts=True)
        orders = np.arange(int(ls.max()) + 1)  # 0..lmax
        log_fact = log_factorials(int(ls.max()) + int(count.max(initial=1)))
        self.kvals, self.kidx, self.ls, self.psis = kvals, kidx, ls, psis
        self.psi_k = np.bincount(kidx, weights=psis, minlength=kvals.size)
        self.rho, self.count = rho, count.astype(np.float64)
        self._orders, self._log_fact = orders, log_fact[orders]
        # log C(c+s-1, s): the negative binomial coefficient of each rate
        self._log_binom = (log_fact[count[:, None] - 1 + orders]
                           - log_fact[count - 1][:, None] - log_fact[orders])
        self._pdf_scale = psis * kvals[kidx] / self.rho_bar

    def _counts(self, gamma: np.ndarray):
        """a_k rho_r, log g_{k,0}, log w_r^m and g_k, the pmf of N_k.

        Rows run over (k, gamma) k-major: a rho is (K*G, R), log g_0 is
        (K*G,), log w_r^m is (K*G, R, n), g is (K*G, n).
        """
        with np.errstate(over="ignore"):
            a = np.minimum(self.kvals[:, None] * (gamma / self.rho_bar),
                           np.finfo(np.float64).max).ravel()
            ar = np.multiply.outer(a, self.rho)
        # where a or a rho_r overflows, e^{-a} or (1 + a rho_r)^{-1}, and with
        # it every g_{k,n}, lies far below the smallest double: a is held at
        # the largest double and w_r is 1 there, so the outage reads
        # sum psi and the density 0
        log1p = np.log1p(ar)
        w = np.divide(ar, 1.0 + ar, out=np.ones_like(ar), where=ar < np.inf)
        log_wpow = self._orders * log_floored(w)[:, :, None]
        nb = np.exp(self._log_binom + log_wpow - (log1p * self.count)[:, :, None])
        g = np.exp(self._orders * log_floored(a)[:, None] - a[:, None]
                   - self._log_fact)
        for r in range(self.rho.size):
            g = _convolve(g, nb[:, r])
        return ar, -a - log1p @ self.count, log_wpow, g

    def _per_term(self, x: np.ndarray, g: int) -> np.ndarray:
        """(K*G, n) -> (T, G): row block k_i, column l_i for each psi term."""
        return x.reshape(self.kvals.size, g, -1)[self.kidx, :, self.ls]

    def _outage(self, gamma: np.ndarray) -> np.ndarray:
        """P(SINR <= gamma) on a 1-d array of gamma > 0, unclamped."""
        g = gamma.size
        _, log_g0, _, pmf = self._counts(gamma)
        # sum_{1<=n<=l} g_n summed from g_1 up: cumsum(g) - g_0 would round
        # it to 0 as gamma -> 0, where 1 - g_0 keeps its digits
        pmf[:, 0] = 0.0
        partial = np.cumsum(pmf, axis=1)
        head = -np.expm1(log_g0).reshape(self.kvals.size, g)
        return self.psi_k @ head - self.psis @ self._per_term(partial, g)

    def _pdf(self, gamma: np.ndarray) -> np.ndarray:
        """SINR density on a 1-d array of gamma >= 0."""
        g = gamma.size
        ar, _, log_wpow, pmf = self._counts(gamma)
        # b_m/a = sum_r c_r rho_r/(1 + a rho_r) w_r^m
        bp = np.einsum("grm,gr->gm", np.exp(log_wpow),
                       self.count * self.rho / (1.0 + ar))
        return self._pdf_scale @ self._per_term(pmf + _convolve(bp, pmf), g)

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
