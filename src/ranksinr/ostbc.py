"""Approximate closed-form SINR statistics for the OSTBC receiver.

With orthogonal space-time block decoding the combined channel gain is
the full Frobenius norm of H0, so the numerator X = rho_bar*||H0||_F^2
is gamma distributed with shape N = n_R*n_T and scale rho_bar =
P0/(n_T^2 sigma2); the squared code normalization inflates the effective
noise by n_T^2.  Per-layer interference leakage terms are approximated
as exponentials (see the approx module for how good that is), making the
denominator the same hyper-exponential mixture as in the beamforming
analysis, Y = sum_r Exp(rho_r) over the scenario's rate set.  X is the
one-term gamma mixture {(1, N-1): 1} of ``engine.SinrModel``, so with
a = g/rho_bar and mu_s(a) = E[Y^s e^{-aY}]/s! the outage probability
and density are

    P(g0) ~= 1 - sum_{s<=N-1} a^s mu_s(a) Q(N-s, a),

    f(g)  ~= (1/rho_bar) a^{N-1} e^{-a}/(N-1)!
             * sum_{s<=N} C(N,s) s! mu_s(a),

Q the regularized upper incomplete gamma function.  The terms a^s mu_s
are positive and come from a positive-term recursion in the Laplace
transform of Y (see ``engine``), so nothing cancels: the results are
good to a few 1e-15 absolute at any size.

Both are approximations: the exponential step flattens the true
product-of-exponential-and-beta shape, which shows up as a visible
mismatch around the density mode.  `mixture` keeps the paper's
partial-fraction form of Y for inspection; evaluation does not read it.
"""

from __future__ import annotations

from .engine import SinrModel
from .errors import ConfigError
from .mixture import build_mixture
from .scenario import OwnMode, ScenarioConfig, build_rate_set, own_numerator_scale


class OstbcModel(SinrModel):
    """Analytic SINR model for OSTBC reception.

    `weights` is the one-term table {(1, n_R*n_T - 1): 1}, `rho_bar` the
    per-antenna SNR P0/(n_T^2 sigma2).
    """

    # bound here, not only inherited: the span tracer of
    # benchmarks/tracing.py wraps what it finds in vars(cls), so a method
    # left on the base class gets no spans and `--trace 1` divides by zero
    outage = SinrModel.outage
    sinr_pdf = SinrModel.sinr_pdf


def from_config(cfg: ScenarioConfig) -> OstbcModel:
    """Build the OSTBC model for a scenario."""
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected ostbc")
    rates = build_rate_set(cfg)
    mix = build_mixture(rates) if rates else None
    return OstbcModel(
        weights={(1, cfg.n_r * cfg.n_t - 1): 1},
        mixture=mix,
        rho_bar=own_numerator_scale(cfg),
        rates=rates,
        notes=cfg.warnings(),
    )


def outage_white_interference(gamma0, cfg: ScenarioConfig):
    """Outage in the white-interference limit of the OSTBC model.

    Spreading a fixed interference budget over ever more streams drives
    the denominator sum Y to its mean sum(P_i)/(n_T sigma2); replacing Y
    by that constant inflates the noise and keeps X gamma distributed:
    the OSTBC model without interferers at rho_bar/(1 + E[Y]).  This is
    the frontier the maximal-rank curve approaches from above: no rank
    increase can beat it.
    """
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError("white-interference reference is defined for ostbc mode")
    mean_y = sum(cfg.interferer_powers()) / (cfg.n_t * cfg.noise_power)
    white = OstbcModel(weights={(1, cfg.n_r * cfg.n_t - 1): 1}, mixture=None,
                       rho_bar=own_numerator_scale(cfg) / (1.0 + mean_y))
    return white.outage(gamma0)
