"""Closed-form SINR statistics for the beamforming receiver.

The instantaneous SINR is X/(Y+1), where X = rho_bar * lambda_max(H0^H H0)
collects the array gain of transmit/receive beamforming along the
dominant eigenmode and Y = sum_r Exp(rho_r) is the interference sum over
the scenario's rate set.  The dominant eigenvalue is the signed gamma
mixture sum_kl psi_kl Gamma(l+1, rate k) of ``wishart``.  Conditioning
on Y, each gamma term is a Poisson count: with a_k = k gamma/rho_bar and g_k
the pmf of N_k = Pois(a_k (1+Y)),

    P(gamma) = 1 - sum_kl psi_kl sum_{n<=l} g_{k,n},

    f(gamma) = sum_kl psi_kl (k/rho_bar) (l+1) g_{k,l+1}/a_k.

``engine.SinrModel`` evaluates both as one weighted sum over a positive
recursion in the count order, O(lmax R) per (k, gamma) for R distinct
rates, with the exact tail sums sum_{l>=n} psi_kl as the outage's
weights; this module only supplies the psi table and rho_bar.  Each
value is the same whichever other points share the call, and is good
to below 1e-14 absolute up to 4x4, about 2e-11 at 8x8.  With no
interferers the outage is the eigenvalue CDF itself.

`mixture` holds the paper's partial-fraction form of Y over groups of
exactly equal rates (``mixture.count_rates``, the rule the model's own
rows follow); its coefficients are computed only if read, which only
``dump-xi`` does (``pdf_y``/``cdf_y`` take the raw `rates`).
"""

from __future__ import annotations

from .engine import SinrModel
from .scenario import OwnMode, ScenarioConfig
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


def from_config(cfg: ScenarioConfig, *more: ScenarioConfig) -> BfModel:
    """Build the beamforming model for a scenario, or with more scenarios
    of its size one row per scenario (``SinrModel.for_scenarios``)."""
    return BfModel.for_scenarios(OwnMode.BEAMFORMING,
                                 compute_weights(cfg.n_r, cfg.n_t).weights, cfg, *more)
