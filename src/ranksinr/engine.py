"""Outage and density of SINR = X/(1+Y) on a grid, without cancellation in Y.

The numerator is X = rho_bar * Z with Z a signed gamma mixture,
f_Z(z) = sum_kl psi_kl k^{l+1} z^l e^{-kz}/l!: the largest Wishart
eigenvalue for a beamforming victim (weights from ``wishart``), the
one-term table {(1, N-1): 1} for an OSTBC victim.  The interference
Y = sum_r Exp(rho_r) runs over the raw rate set; equal rates are
counted, near-equal ones are never merged.

Conditioning on Y, everything reduces to mu_s(a) = E[Y^s e^{-aY}]/s! at
a_k = k*gamma/rho_bar, through nu_s = a^s mu_s = E[(aY)^s e^{-aY}/s!]:
the probability that a Poisson(aY) count N equals s.  Its generating
function sum_s nu_s t^s = L(a(1-t)), with L(a) = prod_r (1 + a rho_r)^{-1}
the Laplace transform of Y, factors over the rates, so N is a sum of
independent negative binomial counts NB(c_r, w_r), w_r = a rho_r/(1 +
a rho_r), c_r the multiplicity of rho_r.  nu is their convolution: one
step per distinct rate, every term positive and at most 1.  (The same
numbers come out of the recursion nu_0 = L, nu_{n+1} = 1/(n+1)
sum_{m<=n} b_m nu_{n-m}, b_m = sum_r (a rho_r/(1 + a rho_r))^{m+1}, the
series behind Moschopoulos' representation of gamma sums, Ann. Inst.
Statist. Math. 37, 1985; it needs one step per order instead.)

With Q and P the regularized upper and lower incomplete gamma functions
and p_t the Poisson(a) pmf,

    1 - P(gamma) = sum_kl psi_kl sum_{s<=l} nu_s(a_k) Q(l-s+1, a_k),
    f(gamma)     = sum_kl psi_kl (k/rho_bar) (l+1)
                   [e^{-a} nu_{l+1}/a + sum_{t<=l} p_t(a) nu_{l-t}/(t+1)],

where nu_{l+1}/a = 1/(l+1) sum_{m<=l} (b_m/a) nu_{l-m} stays finite at
a = 0.  Using sum psi = 1, the outage is assembled as
sum_k Psi_k (-expm1(log L)) + sum_kl psi_kl (L P(l+1, a) - sum_{1<=s<=l}
nu_s Q(l-s+1, a)), Psi_k = sum_l psi_kl, so with no interferers it is
exactly the eigenvalue CDF sum psi_kl P(l+1, a_k).  The only signed sum
left is the one over psi: none for OSTBC, about 1e-9 absolute at 8x8
beamforming.
"""

from __future__ import annotations

import numpy as np
from scipy import special


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


class SinrEngine:
    """Outage and pdf of rho_bar*Z/(1+Y) for one psi table and rate set.

    `weights` maps (k, l) to psi_kl.  Exact rationals are rounded once
    here, correctly: that keeps sum psi = 1, and with it the outage at
    large gamma, within 1e-12 even at 8x8.  `rates` is the raw
    interference rate set, empty for no interferers.
    """

    def __init__(self, weights: dict, rates, rho_bar: float):
        items = sorted(weights.items())
        self.kvals, self.kidx = np.unique([k for (k, _), _ in items], return_inverse=True)
        self.ls = np.array([l for (_, l), _ in items])
        self.psis = np.array([float(w) for _, w in items])
        self.psi_k = np.bincount(self.kidx, weights=self.psis,
                                 minlength=self.kvals.size)
        self.rho_bar = float(rho_bar)
        rho, count = np.unique(np.asarray(rates, dtype=np.float64), return_counts=True)
        self.rho, self.count = rho, count.astype(np.float64)
        n = int(self.ls.max()) + 1  # orders 0..lmax
        self._orders = np.arange(n, dtype=np.float64)
        self._log_fact = special.gammaln(self._orders + 1.0)
        # log C(c+s-1, s): the negative binomial coefficient of each rate
        self._log_binom = (special.gammaln(self.count[:, None] + self._orders)
                           - special.gammaln(self.count)[:, None] - self._log_fact)
        self._pdf_scale = self.psis * self.kvals[self.kidx] / self.rho_bar

    def _counts(self, gamma: np.ndarray):
        """a_k, log L(a_k), log w_r^m, Poisson(a_k) pmf and nu_s(a_k).

        Rows run over (k, gamma) k-major: a and log L are (K*G,), log w_r^m
        is (K*G, R, n), the pmfs are (K*G, n).
        """
        a = (self.kvals[:, None] * (gamma / self.rho_bar)).ravel()
        ar = np.multiply.outer(a, self.rho)
        log1p = np.log1p(ar)
        log_wpow = special.xlogy(self._orders, (ar / (1.0 + ar))[:, :, None])
        nb = np.exp(self._log_binom + log_wpow - (log1p * self.count)[:, :, None])
        if self.rho.size:
            nu = nb[:, 0]
            for r in range(1, self.rho.size):
                nu = _convolve(nu, nb[:, r])
        else:
            nu = np.zeros((a.size, self._orders.size))
            nu[:, 0] = 1.0
        pois = np.exp(special.xlogy(self._orders, a[:, None]) - a[:, None]
                      - self._log_fact)
        return a, -(log1p @ self.count), log_wpow, pois, nu

    def _per_term(self, x: np.ndarray, g: int) -> np.ndarray:
        """(K*G, n) -> (T, G): row block k_i, column l_i for each psi term."""
        return x.reshape(self.kvals.size, g, -1)[self.kidx, :, self.ls]

    def outage(self, gamma: np.ndarray) -> np.ndarray:
        """P(SINR <= gamma) on a 1-d array of gamma > 0, unclamped."""
        g = gamma.size
        a, log_l, _, pois, nu = self._counts(gamma)
        # the pmf's cumulative sums are Q(j+1, a), j = 0..lmax;
        # tail[l] = sum_{1<=s<=l} nu_s Q(l-s+1, a)
        nu_tail = nu.copy()
        nu_tail[:, 0] = 0.0
        tail = _convolve(np.cumsum(pois, axis=1), nu_tail)
        lower = special.gammainc(self.ls[:, None] + 1.0,
                                 a.reshape(self.kvals.size, g)[self.kidx])
        ell = np.exp(log_l).reshape(self.kvals.size, g)[self.kidx]
        terms = ell * lower - self._per_term(tail, g)
        noise_free = -np.expm1(log_l).reshape(self.kvals.size, g)
        return self.psi_k @ noise_free + self.psis @ terms

    def pdf(self, gamma: np.ndarray) -> np.ndarray:
        """SINR density on a 1-d array of gamma >= 0."""
        g = gamma.size
        a, _, log_wpow, pois, nu = self._counts(gamma)
        n = self._orders + 1.0
        # b_m/a = sum_r c_r rho_r/(1 + a rho_r) w_r^m; (l+1) nu_{l+1}/a
        # = sum_{m<=l} (b_m/a) nu_{l-m}
        bp = np.einsum("grm,gr->gm", np.exp(log_wpow),
                       self.count * self.rho / (1.0 + np.multiply.outer(a, self.rho)))
        inner = (n * _convolve(pois / n, nu)
                 + np.exp(-a)[:, None] * _convolve(bp, nu))
        return self._pdf_scale @ self._per_term(inner, g)
