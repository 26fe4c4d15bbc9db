"""50-digit mpmath evaluation of the closed-form outage and density.

The formulas of the ``bf``/``ostbc`` docstrings, written out directly:
with a_k = k g/rho_bar and nu_s = a^s mu_s from the Laplace recursion
nu_0 = L(a), nu_{n+1} = 1/(n+1) sum_{m<=n} b_m nu_{n-m},

    1 - P(g) = sum_kl psi_kl sum_{s<=l} nu_s(a_k) Q(l-s+1, a_k),
    f(g)     = sum_kl psi_kl (k/rho_bar) a_k^l e^{-a_k}/l!
               sum_{s<=l+1} C(l+1,s) s! nu_s(a_k)/a_k^s.

psi is exact (the weight table's fractions, {(1, N-1): 1} for OSTBC),
Q(n, a) is the finite Poisson sum, and the library's double rates and
rho_bar are taken as exact inputs.  At 50 digits neither the signed psi
sum nor 1 - (...) loses anything that shows in double precision.
"""

import math
from fractions import Fraction

import mpmath

from ranksinr.scenario import OwnMode, build_rate_set, own_numerator_scale
from ranksinr.wishart import compute_weights

DIGITS = 50


def _weights(cfg) -> dict[tuple[int, int], Fraction]:
    if cfg.own_mode is OwnMode.BEAMFORMING:
        return compute_weights(cfg.n_r, cfg.n_t).weights
    return {(1, cfg.n_r * cfg.n_t - 1): Fraction(1)}


def reference_curves(cfg, gammas) -> tuple[list[float], list[float]]:
    """(outage, pdf) of the scenario at each linear threshold gamma > 0."""
    weights = _weights(cfg)
    lmax = max(l for _, l in weights)
    outage, pdf = [], []
    with mpmath.workdps(DIGITS):
        rates = [mpmath.mpf(r) for r in build_rate_set(cfg)]
        rho_bar = mpmath.mpf(own_numerator_scale(cfg))
        psi = {kl: mpmath.mpf(w.numerator) / w.denominator for kl, w in weights.items()}
        for g in gammas:
            survive = dens = mpmath.mpf(0)
            for k in sorted({k for k, _ in weights}):
                a = k * mpmath.mpf(g) / rho_bar
                w = [a * r / (1 + a * r) for r in rates]
                b = [mpmath.fsum(x ** (m + 1) for x in w) for m in range(lmax + 1)]
                nu = [mpmath.fprod(1 / (1 + a * r) for r in rates)]
                for n in range(lmax + 1):
                    nu.append(mpmath.fsum(b[m] * nu[n - m] for m in range(n + 1)) / (n + 1))
                pois = [mpmath.exp(-a) * a**t / math.factorial(t) for t in range(lmax + 1)]
                q = [mpmath.fsum(pois[:n + 1]) for n in range(lmax + 1)]  # Q(n+1, a)
                for (kk, l), p in psi.items():
                    if kk != k:
                        continue
                    survive += p * mpmath.fsum(nu[s] * q[l - s] for s in range(l + 1))
                    moments = mpmath.fsum(math.comb(l + 1, s) * math.factorial(s)
                                          * nu[s] / a**s for s in range(l + 2))
                    dens += (p * k / rho_bar * a**l * mpmath.exp(-a)
                             / math.factorial(l) * moments)
            outage.append(float(1 - survive))
            pdf.append(float(dens))
    return outage, pdf
