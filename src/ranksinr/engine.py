"""One SINR model for both receivers: SINR = X/(1+Y), evaluated on a grid.

The numerator is X = rho_bar * Z with Z a signed gamma mixture,
f_Z(z) = sum_kl psi_kl k^{l+1} z^l e^{-kz}/l!.  The two receivers differ
only in that table and in rho_bar (``scenario.own_numerator_scale``):
beamforming (``bf``) takes the largest Wishart eigenvalue, whose exact
weights come from ``wishart``; OSTBC (``ostbc``) takes the one-term
table {(1, N-1): 1}, Z ~ Gamma(N, 1).  The interference
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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from . import inversion
from .mixture import MixtureSpec


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
    grouped partial-fraction form (None without interferers), kept for
    inspection: evaluation does not read it.  `notes` carries model
    caveats (e.g. no full-rate code above two transmit antennas).
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
        count = count.astype(np.float64)
        orders = np.arange(int(ls.max()) + 1, dtype=np.float64)  # 0..lmax
        log_fact = special.gammaln(orders + 1.0)
        self.kvals, self.kidx, self.ls, self.psis = kvals, kidx, ls, psis
        self.psi_k = np.bincount(kidx, weights=psis, minlength=kvals.size)
        self.rho, self.count = rho, count
        self._orders, self._log_fact = orders, log_fact
        # log C(c+s-1, s): the negative binomial coefficient of each rate
        self._log_binom = (special.gammaln(count[:, None] + orders)
                           - special.gammaln(count)[:, None] - log_fact)
        self._pdf_scale = psis * kvals[kidx] / self.rho_bar

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

    def _outage(self, gamma: np.ndarray) -> np.ndarray:
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

    def _pdf(self, gamma: np.ndarray) -> np.ndarray:
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

    def sinr_pdf(self, gamma):
        """Density of the SINR at gamma (scalar or array)."""
        arr = np.asarray(gamma, dtype=np.float64)
        if (arr < 0).any():
            raise ValueError("sinr_pdf requires gamma >= 0")
        vals = self._pdf(arr.ravel())
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    def outage(self, gamma0):
        """P(SINR <= gamma0), scalar or array."""
        arr = np.asarray(gamma0, dtype=np.float64)
        if (arr <= 0).any():
            raise ValueError("outage requires gamma0 > 0")
        vals = self._outage(arr.ravel()).reshape(arr.shape)
        return inversion.clamp_probability(vals)

    def threshold(self, p_target: float) -> float:
        """Outage threshold gamma0 with outage(gamma0) = p_target."""
        # looked up on the module at call time, like self.outage on the
        # class, so that wrappers installed there see every inversion
        return inversion.threshold_at_outage(lambda g: self.outage(g), p_target)
