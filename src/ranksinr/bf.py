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

Q the regularized upper incomplete gamma function.  The terms a^s mu_s
are the pmf of a Poisson(aY) count and follow from a positive-term
recursion in the Laplace transform of Y (see ``engine``), so the only
cancellation left is in the signed psi sum: below 1e-13 absolute up to
4x4, about 1e-9 at 8x8.  With no interferers mu_s vanishes for s >= 1
and the outage is the eigenvalue CDF itself.

`mixture` keeps the paper's partial-fraction form of Y for inspection
(``dump-xi``, ``pdf_y``); evaluation does not read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import SinrEngine
from .errors import ConfigError
from .inversion import clamp_probability
from .inversion import threshold_at_outage as _invert
from .mixture import MixtureSpec, build_mixture
from .scenario import OwnMode, ScenarioConfig, build_rate_set, own_numerator_scale
from .wishart import EigenWeightTable, compute_weights


@dataclass(frozen=True, eq=False)
class BfModel:
    """Analytic SINR model for beamforming reception.

    `rates` is the raw interference rate set and `mixture` its grouped
    partial-fraction form, None when the scenario has no interferers;
    `rho_bar` is the long-term SNR P0/sigma2 scaling the dominant
    eigenvalue.
    """

    table: EigenWeightTable
    mixture: MixtureSpec | None
    rho_bar: float
    rates: tuple[float, ...] = ()
    _engine: SinrEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rho_bar <= 0:
            raise ValueError(f"rho_bar must be positive, got {self.rho_bar}")
        object.__setattr__(self, "_engine",
                           SinrEngine(self.table.weights, self.rates, self.rho_bar))

    def sinr_pdf(self, gamma):
        """Density of the SINR at gamma (scalar or array)."""
        arr = np.asarray(gamma, dtype=np.float64)
        if (arr < 0).any():
            raise ValueError("sinr_pdf requires gamma >= 0")
        vals = self._engine.pdf(arr.ravel())
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    def outage(self, gamma0):
        """P(SINR <= gamma0), scalar or array."""
        arr = np.asarray(gamma0, dtype=np.float64)
        if (arr <= 0).any():
            raise ValueError("outage requires gamma0 > 0")
        vals = self._engine.outage(arr.ravel()).reshape(arr.shape)
        return clamp_probability(vals, "bf outage")

    def threshold(self, p_target: float) -> float:
        """Outage threshold gamma0 with outage(gamma0) = p_target."""
        return _invert(lambda g: self.outage(g), p_target)


def from_config(cfg: ScenarioConfig) -> BfModel:
    """Build the beamforming model for a scenario."""
    if cfg.own_mode is not OwnMode.BEAMFORMING:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected bf")
    rates = build_rate_set(cfg)
    mix = build_mixture(rates) if rates else None
    return BfModel(
        table=compute_weights(cfg.n_r, cfg.n_t),
        mixture=mix,
        rho_bar=own_numerator_scale(cfg),
        rates=rates,
    )


def sinr_pdf_bf(gamma, model: BfModel):
    return model.sinr_pdf(gamma)


def outage_bf(gamma0, model: BfModel):
    return model.outage(gamma0)


def threshold_at_outage(p_target: float, model: BfModel) -> float:
    return model.threshold(p_target)
