"""Closed-form SINR statistics for the beamforming receiver.

The instantaneous SINR is X/(Y+1), where X = rho_bar * lambda_max(H0^H H0)
collects the array gain of transmit/receive beamforming along the
dominant eigenmode and Y = sum_r Exp(rho_r) is the interference sum over
the scenario's rate set.  The dominant eigenvalue is the signed gamma
mixture sum_kl psi_kl Gamma(l+1, rate k) of ``wishart``.  Conditioning
on Y and expanding (1+Y)^r term by term gives, with a_k = k g/rho_bar
and mu_s(a) = E[Y^s e^{-aY}]/s!,

    P(g0) = 1 - sum_kl psi_kl sum_{s<=l} a_k^s mu_s(a_k) Q(l-s+1, a_k),

    f(g)  = sum_kl psi_kl (k/rho_bar) a_k^l e^{-a_k}/l!
            * sum_{s<=l+1} C(l+1,s) s! mu_s(a_k),

Q the regularized upper incomplete gamma function.  These are the
formulas of ``engine.SinrModel``; this module only supplies the psi
table and rho_bar.  The terms a^s mu_s are the pmf of a Poisson(aY)
count and follow from a positive-term recursion in the Laplace
transform of Y, so the only cancellation left is in the signed psi sum:
below 1e-13 absolute up to 4x4, about 1e-9 at 8x8.  With no interferers
mu_s vanishes for s >= 1 and the outage is the eigenvalue CDF itself.

`mixture` keeps the paper's partial-fraction form of Y for inspection
(``dump-xi``, ``pdf_y``); evaluation does not read it.
"""

from __future__ import annotations

from .engine import SinrModel
from .errors import ConfigError
from .mixture import build_mixture
from .scenario import OwnMode, ScenarioConfig, build_rate_set, own_numerator_scale
from .wishart import compute_weights


class BfModel(SinrModel):
    """Analytic SINR model for beamforming reception.

    `weights` is the exact largest-eigenvalue table of ``wishart`` and
    `rho_bar` the long-term SNR P0/sigma2 scaling that eigenvalue.
    """

    # bound here, not only inherited: the span tracer of
    # benchmarks/tracing.py wraps what it finds in vars(cls), so a method
    # left on the base class gets no spans and `--trace 1` divides by zero
    outage = SinrModel.outage
    sinr_pdf = SinrModel.sinr_pdf


def from_config(cfg: ScenarioConfig) -> BfModel:
    """Build the beamforming model for a scenario."""
    if cfg.own_mode is not OwnMode.BEAMFORMING:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected bf")
    rates = build_rate_set(cfg)
    mix = build_mixture(rates) if rates else None
    return BfModel(
        weights=compute_weights(cfg.n_r, cfg.n_t).weights,
        mixture=mix,
        rho_bar=own_numerator_scale(cfg),
        rates=rates,
        notes=cfg.warnings(),
    )
