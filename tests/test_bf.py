"""Beamforming SINR model against quadrature and limit-case oracles.

The independent oracle is the mixing integral: with X = rho*lambda_max
and Y the interference sum, the SINR density is
f(g) = int f_X(g(1+y)) (1+y) f_Y(y) dy, evaluated by quadrature, with
f_X written out here from the exact weight table.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from ranksinr import bf
from ranksinr.errors import ConfigError
from ranksinr.mixture import pdf_y
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
)
from ranksinr.wishart import compute_weights

from conftest import REF_BF
from mp_sinr import reference_curves


def mixing_pdf(model: bf.BfModel, cfg: ScenarioConfig, g: float) -> float:
    # density of rho_bar * lambda_max: sum_kl psi_kl k^{l+1} u^l e^{-ku}/l!
    # at u = x/rho_bar > 0, over rho_bar; u^l e^{-ku} in logs, as u grows
    # without bound on the way to y = inf
    terms = [(k, l, float(w))
             for (k, l), w in compute_weights(cfg.n_r, cfg.n_t).weights.items()]

    def pdf_x(x):
        u = x / model.rho_bar
        return sum(w * k ** (l + 1) * math.exp(l * math.log(u) - k * u)
                   / math.factorial(l) for k, l, w in terms) / model.rho_bar

    def integrand(y):
        return float(pdf_x(g * (1.0 + y)) * (1.0 + y) * pdf_y(y, model.rates))

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=300)
    return val


@pytest.fixture(scope="module")
def ref_model():
    return bf.from_config(REF_BF)


def test_pdf_matches_mixing_integral(ref_model):
    for g_db in (-5.0, 0.0, 5.0, 10.0, 15.0):
        g = 10 ** (g_db / 10)
        assert ref_model.sinr_pdf(g) == pytest.approx(
            mixing_pdf(ref_model, REF_BF, g), rel=1e-8
        )


def test_outage_is_pdf_integral(ref_model):
    # spec'd cross-check points: 0, 5, 10 dB
    for g_db in (0.0, 5.0, 10.0):
        g0 = 10 ** (g_db / 10)
        val, _ = integrate.quad(
            lambda t: float(ref_model.sinr_pdf(t)), 0.0, g0, limit=300
        )
        assert ref_model.outage(g0) == pytest.approx(val, abs=1e-6)


def test_pdf_integrates_to_one(ref_model):
    val, _ = integrate.quad(
        lambda t: float(ref_model.sinr_pdf(t)), 0.0, np.inf, limit=400
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_threshold_roundtrip(ref_model):
    for p in (1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9):
        g0 = ref_model.threshold(p)
        assert ref_model.outage(g0) == pytest.approx(p, rel=1e-9)


def test_single_group_matches_mpmath():
    # one equal-power rank-2 interferer: a single rate of multiplicity 2
    cfg = ScenarioConfig(
        n_r=2, n_t=2, noise_power=1.0, snr_db=15.0,
        own_mode=OwnMode.BEAMFORMING,
        interferers=(
            InterfererSpec(
                technique=Technique.SPATIAL_MULTIPLEXING, inr_db=10.0, layers=2
            ),
        ),
    )
    model = bf.from_config(cfg)
    g = 10 ** (np.array([-5.0, 0.0, 5.0, 10.0]) / 10)
    outage, pdf = reference_curves(cfg, g)
    assert model.outage(g) == pytest.approx(outage, rel=1e-12)
    assert model.sinr_pdf(g) == pytest.approx(pdf, rel=1e-12)


def test_no_interferer_reduces_to_eigenvalue_cdf():
    cfg = ScenarioConfig(
        n_r=3, n_t=2, noise_power=1.0, snr_db=12.0, own_mode=OwnMode.BEAMFORMING
    )
    model = bf.from_config(cfg)
    assert model.mixture is None
    g = np.linspace(0.5, 40.0, 25)
    outage, _ = reference_curves(cfg, g)
    assert model.outage(g) == pytest.approx(outage, rel=1e-12)


def test_outage_monotone_in_threshold_and_inr(ref_model):
    g = np.linspace(0.05, 200.0, 300)
    out = ref_model.outage(g)
    assert np.all(np.diff(out) >= -1e-12)
    assert out[0] < 1e-3 and out[-1] > 0.999

    def outage_at(inr_db):
        cfg = ScenarioConfig(
            n_r=2, n_t=2, noise_power=1.0, snr_db=15.0,
            own_mode=OwnMode.BEAMFORMING,
            interferers=(
                InterfererSpec(technique=Technique.BEAMFORMING, inr_db=inr_db),
            ),
        )
        return bf.from_config(cfg).outage(1.0)

    vals = [outage_at(x) for x in (0.0, 5.0, 10.0, 15.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_from_config_rejects_wrong_mode():
    with pytest.raises(ConfigError):
        bf.from_config(
            ScenarioConfig(
                n_r=2, n_t=2, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC
            )
        )


def test_rejects_negative_arguments(ref_model):
    with pytest.raises(ValueError):
        ref_model.sinr_pdf(-0.5)
    with pytest.raises(ValueError):
        ref_model.outage(0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            ref_model.sinr_pdf(bad)
        with pytest.raises(ValueError, match="finite"):
            ref_model.outage([1.0, bad])


def test_extreme_thresholds_stay_in_unit_interval(ref_model):
    assert 0.0 <= ref_model.outage(1e-12) <= 1e-9
    assert ref_model.outage(1e9) == pytest.approx(1.0, abs=1e-12)
