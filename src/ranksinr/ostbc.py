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
a = gamma/rho_bar and g_n the pmf of the count Pois(a (1+Y)) the outage
probability and density are

    P(gamma) ~= 1 - sum_{n<=N-1} g_n,

    f(gamma) ~= (1/rho_bar) N g_N/a.

The g_n come from one recursion over the count order with positive
terms only (see ``engine``), O(N R) per gamma for R distinct rates, so
no signed sum is formed: the results are good to a few 1e-15 absolute
at any size, and each value is the same whichever other points share
the call.

Both are approximations: the exponential step flattens the true
product-of-exponential-and-beta shape, which shows up as a visible
mismatch around the density mode.  `mixture` holds the grouping of the
paper's partial-fraction form of Y; its coefficients are computed only
if read, and evaluation does not read them.
"""

from __future__ import annotations

import functools

from .engine import SinrModel
from .scenario import OwnMode, ScenarioConfig


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


@functools.cache
def _weights(order: int) -> dict[tuple[int, int], int]:
    """The table of Z ~ Gamma(order, 1), one object per order."""
    return {(1, order - 1): 1}


def from_config(cfg: ScenarioConfig, *more: ScenarioConfig) -> OstbcModel:
    """Build the OSTBC model for a scenario, or with more scenarios of its
    size one row per scenario (``SinrModel.for_scenarios``)."""
    return OstbcModel.for_scenarios(OwnMode.OSTBC, _weights(cfg.n_r * cfg.n_t), cfg, *more)
