"""High-precision reference for the closed-form outage and pdf.

The SINR is X/(1+Y) with X = rho_bar * Z.  Z is the largest Wishart
eigenvalue for a beamforming (BF) victim, a signed mixture of
Gamma(l+1, rate k) laws with the exact weights psi_kl of
``wishart.compute_weights``; for an OSTBC victim Z ~ Gamma(N, 1) with
N = n_r*n_t, which is the one-term table {(1, N-1): 1}.  Y is a sum of
independent exponentials whose scales follow the scenario rules of
``ranksinr.scenario``; grouping equal scales (rho_i, beta_i) gives the
partial-fraction mixture with coefficients Xi_ij (``mixture.py``).
With u = k*g/rho_bar, kappa = rho_bar/rho_i, t = kappa/(k*g + kappa)
and w = rho_bar/(k*g + kappa), the formulas of the ``bf.py`` and
``ostbc.py`` docstrings read

    1 - P(g) = sum_ij Xi_ij sum_kl psi_kl e^-u t^j
               sum_{r<=l} sum_{s<=r} C(r,s) (j)_s u^r w^s / r!
    f(g)     = sum_ij Xi_ij sum_kl psi_kl (k/rho_bar) e^-u t^j (u^l/l!)
               sum_{r<=l+1} C(l+1,r) (j)_r w^r

The inner double sums are partial sums of the power-series
coefficients of (1 - u w x)^-j e^(u x) and (1 - w x)^-j e^x, which a
three-term recurrence produces in O(l) per (i, j, k).  Everything, Xi
included, is evaluated in decimal arithmetic at ``DIGITS`` significant
digits from the scenario's dB values, so neither the library's
double-precision Xi nor its long-double sums enter; the caller passes
the exact rational weights.  ``decimal`` is C-backed and an order of
magnitude faster here than mpmath's pure-Python floats; the self-tests
check this module against the unregrouped sums evaluated in mpmath.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath

DIGITS = 50
# ROADMAP accuracy target: absolute on outage, and on the density divided
# by its largest value over the checked points
OUTAGE_TOL = 1e-12
PDF_TOL = 1e-12


def _at_digits(fn):
    """Run fn with decimal arithmetic at DIGITS significant digits."""
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return fn(*args, **kw)
    return wrapper


def _from_db(x_db: float) -> Decimal:
    return Decimal(10) ** (Decimal(x_db) / 10)


@_at_digits
def rate_groups(cfg: dict) -> list[tuple[Decimal, int]]:
    """Exact interference scales (noise units) grouped by equality."""
    n_t = cfg["n_t"]
    sigma2 = Decimal(cfg["noise_power"])
    scales = []
    for spec in cfg["interferers"]:
        p = sigma2 * _from_db(spec["inr_db"])
        layers = spec.get("layers", 1)
        if cfg["own_mode"] == "bf":
            if spec["technique"] == "ostbc":
                scales.append((p / (n_t * sigma2), 1))
            else:
                scales.append((p / (layers * sigma2), layers))
        else:
            scales.append((p / (n_t**2 * layers * sigma2), n_t * layers))
    groups: list[list] = []
    for rho, count in scales:
        for g in groups:
            if g[0] == rho:
                g[1] += count
                break
        else:
            groups.append([rho, count])
    groups.sort(key=lambda g: -g[0])
    return [(rho, beta) for rho, beta in groups]


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev, out = -1, []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 1 - prev - 1)
        yield tuple(out)


@_at_digits
def xi_coefficients(groups) -> dict[tuple[int, int], Decimal]:
    """Partial-fraction coefficients Xi_ij (0-based i, j = 1..beta_i)."""
    xi = {}
    for i, (rho_i, beta_i) in enumerate(groups):
        others = [(rho_k / rho_i, beta_k)
                  for k, (rho_k, beta_k) in enumerate(groups) if k != i]
        for j in range(1, beta_i + 1):
            total = Decimal(0)
            for qs in _compositions(beta_i - j, len(others)):
                prod = Decimal(1)
                for (r, beta_k), q in zip(others, qs):
                    prod *= math.comb(beta_k + q - 1, q) * r**q / (1 - r) ** (beta_k + q)
                total += prod
            xi[(i, j)] = -total if (beta_i + j) % 2 else total
    return xi


class Reference:
    """Outage and pdf of one scenario, evaluated at DIGITS digits."""

    @_at_digits
    def __init__(self, cfg: dict, weights: dict[tuple[int, int], Fraction] | None):
        self.cfg = cfg
        rho_bar = _from_db(cfg["snr_db"])
        if cfg["own_mode"] == "ostbc":
            rho_bar /= cfg["n_t"] ** 2
            weights = {(1, cfg["n_r"] * cfg["n_t"] - 1): Fraction(1)}
        self.rho_bar = rho_bar
        self.groups = rate_groups(cfg)
        if not self.groups:
            raise ValueError("the reference needs at least one interferer")
        self.xi = xi_coefficients(self.groups)
        by_k: dict[int, list] = {}
        for (k, l), psi in sorted(weights.items()):
            by_k.setdefault(k, []).append(
                (l, Decimal(psi.numerator) / psi.denominator))
        self.by_k = by_k

    @_at_digits
    def evaluate(self, gamma: float) -> tuple[float, float, float, float]:
        """(outage, pdf, outage_abs, pdf_abs) at a linear threshold gamma > 0.

        The *_abs values sum the absolute values of the (i, j, k, l)
        terms: what a double-precision evaluation of the same mixture
        has to cancel down to the result.
        """
        g = Decimal(gamma)
        survive = dens = surv_abs = dens_abs = Decimal(0)
        for k, terms in self.by_k.items():
            top = terms[-1][0] + 1
            u = k * g / self.rho_bar
            eu = (-u).exp()
            upow = [Decimal(1)]
            for _ in range(top):
                upow.append(upow[-1] * u)
            for i, (rho_i, beta) in enumerate(self.groups):
                kappa = self.rho_bar / rho_i
                denom = k * g + kappa
                t, w = kappa / denom, self.rho_bar / denom
                v = u * w
                for j in range(1, beta + 1):
                    xi = self.xi[(i, j)]
                    if not xi:
                        continue
                    # d_n = [x^n] (1-vx)^-j e^(ux) and f_n = [x^n] (1-wx)^-j e^x,
                    # from (1-cx) h' = (jc + a - acx) h; the double sums
                    # are sum_{n<=l} d_n (outage) and (l+1)! f_{l+1} (pdf)
                    partial, fs = [], []
                    d_prev, d, f_prev, f = 0, Decimal(1), 0, Decimal(1)
                    acc = Decimal(0)
                    for n in range(top + 1):
                        acc += d
                        partial.append(acc)
                        fs.append(f)
                        d_prev, d = d, ((j * v + u + v * n) * d - u * v * d_prev) / (n + 1)
                        f_prev, f = f, ((j * w + 1 + w * n) * f - w * f_prev) / (n + 1)
                    scale = xi * eu * t**j
                    pdf_scale = scale * k / self.rho_bar
                    for l, psi in terms:
                        o_term = psi * partial[l]
                        p_term = psi * upow[l] * (l + 1) * fs[l + 1]
                        survive += scale * o_term
                        surv_abs += abs(scale * o_term)
                        dens += pdf_scale * p_term
                        dens_abs += abs(pdf_scale * p_term)
        return float(1 - survive), float(dens), float(surv_abs), float(dens_abs)


def product_pdf(x: float, n_r: int, n_t: int, n_l: int) -> float:
    """Density of Exp(rate n_l) x Beta(n_r, n_r(n_t-1)) at x > 0.

    For integer shapes the mixing integral is a finite alternating sum
    of exponential integrals: n_l/B(a,b) sum_m C(b-1,m) (-1)^m E_{a+m}(n_l x).
    """
    a, b = n_r, n_r * (n_t - 1)
    with mpmath.workdps(40):
        c = n_l * mpmath.mpf(x)
        if b == 0:
            return float(n_l * mpmath.exp(-c))
        total = mpmath.fsum((-1) ** m * math.comb(b - 1, m) * mpmath.expint(a + m, c)
                            for m in range(b))
        return float(n_l * total / mpmath.beta(a, b))
