"""Approximate closed-form SINR statistics for the OSTBC receiver.

With orthogonal space-time block decoding the combined channel gain is
the full Frobenius norm of H0, so the numerator X = rho_bar*||H0||_F^2
is gamma distributed with shape N = n_R*n_T and scale rho_bar =
P0/(n_T^2 sigma2); the squared code normalization inflates the effective
noise by n_T^2.  Per-layer interference leakage terms are approximated
as exponentials (see the approx module for how good that is), making the
denominator the same hyper-exponential mixture as in the beamforming
analysis, Y = sum_r Exp(rho_r) over the scenario's rate set.  X is the
one-term gamma mixture {(1, N-1): 1} of the beamforming formulas, so
with a = g/rho_bar and mu_s(a) = E[Y^s e^{-aY}]/s! the outage
probability and density are

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

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .engine import SinrEngine
from .errors import ConfigError
from .inversion import clamp_probability
from .inversion import threshold_at_outage as _invert
from .mixture import MixtureSpec, build_mixture
from .scenario import OwnMode, ScenarioConfig, build_rate_set, own_numerator_scale


@dataclass(frozen=True, eq=False)
class OstbcModel:
    """Analytic SINR model for OSTBC reception.

    `shape` is the numerator gamma shape n_R*n_T; `rates` is the raw
    interference rate set and `mixture` its grouped partial-fraction
    form, None when the scenario has no interferers.  `notes` carries
    model caveats (e.g. no full-rate code above two transmit antennas).
    """

    shape: int
    mixture: MixtureSpec | None
    rho_bar: float
    rates: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()
    _engine: SinrEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.shape < 1:
            raise ValueError(f"shape must be >= 1, got {self.shape}")
        if self.rho_bar <= 0:
            raise ValueError(f"rho_bar must be positive, got {self.rho_bar}")
        object.__setattr__(self, "_engine", SinrEngine(
            {(1, self.shape - 1): 1}, self.rates, self.rho_bar))

    def sinr_pdf(self, gamma):
        """Approximate density of the SINR at gamma (scalar or array)."""
        arr = np.asarray(gamma, dtype=np.float64)
        if (arr < 0).any():
            raise ValueError("sinr_pdf requires gamma >= 0")
        vals = self._engine.pdf(arr.ravel())
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    def outage(self, gamma0):
        """Approximate P(SINR <= gamma0), scalar or array."""
        arr = np.asarray(gamma0, dtype=np.float64)
        if (arr <= 0).any():
            raise ValueError("outage requires gamma0 > 0")
        vals = self._engine.outage(arr.ravel()).reshape(arr.shape)
        return clamp_probability(vals, "ostbc outage")

    def threshold(self, p_target: float) -> float:
        """Outage threshold gamma0 with outage(gamma0) = p_target."""
        return _invert(lambda g: self.outage(g), p_target)


def from_config(cfg: ScenarioConfig) -> OstbcModel:
    """Build the OSTBC model for a scenario."""
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected ostbc")
    rates = build_rate_set(cfg)
    mix = build_mixture(rates) if rates else None
    return OstbcModel(
        shape=cfg.n_r * cfg.n_t,
        mixture=mix,
        rho_bar=own_numerator_scale(cfg),
        rates=rates,
        notes=cfg.warnings(),
    )


def sinr_pdf_ostbc(gamma, model: OstbcModel):
    return model.sinr_pdf(gamma)


def outage_ostbc(gamma0, model: OstbcModel):
    return model.outage(gamma0)


def threshold_at_outage(p_target: float, model: OstbcModel) -> float:
    return model.threshold(p_target)


def outage_white_interference(gamma0, cfg: ScenarioConfig):
    """Outage in the white-interference limit of the OSTBC model.

    Spreading a fixed interference budget over ever more streams drives
    the denominator sum Y to its mean sum(P_i)/(n_T sigma2); replacing Y
    by that constant inflates the noise and keeps X gamma distributed.
    This is the frontier the maximal-rank curve approaches from above:
    no rank increase can beat it.
    """
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError("white-interference reference is defined for ostbc mode")
    mean_y = sum(cfg.interferer_powers()) / (cfg.n_t * cfg.noise_power)
    shape = cfg.n_r * cfg.n_t
    scale = own_numerator_scale(cfg) / (1.0 + mean_y)
    arr = np.asarray(gamma0, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("outage requires gamma0 > 0")
    vals = special.gammainc(shape, np.atleast_1d(arr) / scale)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)
