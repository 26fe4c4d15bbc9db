"""OSTBC SINR model: quadrature oracle, limits, and reference bounds."""

import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from ranksinr import bf, ostbc
from ranksinr.errors import ConfigError, NumericInstabilityError
from ranksinr.mixture import cdf_y, pdf_y
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    own_numerator_scale,
)

from conftest import REF_BF, REF_OSTBC
from mp_sinr import reference_curves


def mixing_pdf(model: ostbc.OstbcModel, cfg: ScenarioConfig, g: float) -> float:
    def integrand(y):
        x = g * (1.0 + y)
        fx = stats.gamma.pdf(x, a=cfg.n_r * cfg.n_t, scale=model.rho_bar)
        return float(fx * (1.0 + y) * pdf_y(y, model.mixture))

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=300)
    return val


@pytest.fixture(scope="module")
def ref_model():
    return ostbc.from_config(REF_OSTBC)


def test_pdf_matches_mixing_integral(ref_model):
    for g_db in (-5.0, 0.0, 5.0, 10.0):
        g = 10 ** (g_db / 10)
        assert ref_model.sinr_pdf(g) == pytest.approx(
            mixing_pdf(ref_model, REF_OSTBC, g), rel=1e-8
        )


def test_outage_is_pdf_integral(ref_model):
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
    # one rank-1 interferer: a single rate of multiplicity n_t
    cfg = ScenarioConfig(
        n_r=2, n_t=2, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC,
        interferers=(
            InterfererSpec(technique=Technique.BEAMFORMING, inr_db=10.0),
        ),
    )
    model = ostbc.from_config(cfg)
    g = 10 ** (np.array([-5.0, 0.0, 5.0, 10.0]) / 10)
    outage, pdf = reference_curves(cfg, g)
    assert model.outage(g) == pytest.approx(outage, rel=1e-12)
    assert model.sinr_pdf(g) == pytest.approx(pdf, rel=1e-12)


def test_seven_full_rank_sm_interferers_at_4x4():
    # seven 4-layer SM interferers at 1..7 dB: seven groups of 16 equal
    # terms, whose Xi coefficients take 3.8e5 tuples summed term by term
    cfg = ScenarioConfig(
        n_r=4, n_t=4, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC,
        interferers=tuple(
            InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING,
                           inr_db=float(inr), layers=4)
            for inr in range(1, 8)
        ),
    )
    # 40 digits do not survive this expansion's cancellation: the build is
    # silent, the outage does not read the coefficients, and the law of Y
    # read from them is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = ostbc.from_config(cfg)
    for law in (pdf_y, cdf_y):
        with pytest.raises(NumericInstabilityError, match="drift"):
            law(0.5, model.mixture)
    assert model.mixture.n_groups == 7
    assert model.mixture.multiplicities == (16,) * 7
    g = 10 ** (np.array([-5.0, 0.0, 5.0, 10.0, 15.0]) / 10)
    outage, _ = reference_curves(cfg, g)
    assert model.outage(g) == pytest.approx(outage, abs=1e-12)


def test_no_interferer_is_gamma():
    cfg = ScenarioConfig(
        n_r=2, n_t=2, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC
    )
    model = ostbc.from_config(cfg)
    assert model.mixture is None
    rho = own_numerator_scale(cfg)
    g = np.linspace(0.2, 60.0, 30)
    assert model.outage(g) == pytest.approx(
        stats.gamma.cdf(g, a=4, scale=rho), rel=1e-12
    )
    assert model.sinr_pdf(g) == pytest.approx(
        stats.gamma.pdf(g, a=4, scale=rho), rel=1e-12
    )


def test_ostbc_outage_dominates_bf_on_reference_grid():
    # no transmit CSI costs performance at every threshold
    bf_model = bf.from_config(REF_BF)
    ostbc_model = ostbc.from_config(REF_OSTBC)
    g = 10 ** (np.arange(-5.0, 20.5, 0.5) / 10)
    assert np.all(
        np.asarray(ostbc_model.outage(g)) >= np.asarray(bf_model.outage(g)) - 1e-12
    )


def test_white_interference_is_upper_bound_approached_at_max_rank():
    def cfg(rank):
        return ScenarioConfig(
            n_r=4, n_t=4, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC,
            interferers=(
                InterfererSpec(
                    technique=(
                        Technique.SPATIAL_MULTIPLEXING if rank > 1
                        else Technique.BEAMFORMING
                    ),
                    inr_db=10.0,
                    layers=rank,
                ),
            ),
        )

    # in the useful outage range the white limit is the performance
    # frontier: spreading can approach it but not beat it
    g = 10 ** (np.arange(-8.0, 0.0, 0.25) / 10)
    white = np.asarray(ostbc.outage_white_interference(g, cfg(4)))
    rank4 = ostbc.from_config(cfg(4))
    rank1 = ostbc.from_config(cfg(1))
    assert np.all(np.asarray(rank4.outage(g)) >= white - 1e-9)

    # horizontal gap at 1% outage: maximal rank lands within 0.5 dB of
    # the white-noise frontier, rank 1 stays further away
    thr4 = rank4.threshold(0.01)
    thr1 = rank1.threshold(0.01)
    from scipy.optimize import brentq

    thr_white = brentq(
        lambda x: float(ostbc.outage_white_interference(x, cfg(4))) - 0.01,
        1e-6, 1e3, xtol=1e-12,
    )
    gap4_db = 10 * np.log10(thr_white / thr4)
    gap1_db = 10 * np.log10(thr_white / thr1)
    assert 0.0 <= gap4_db < 0.5, f"rank-4 gap {gap4_db:.3f} dB"
    assert gap1_db > gap4_db


def test_empirical_outage_at_zero_db(ref_model, ostbc_ref_run):
    # approximation-limited agreement at the reference scenario
    dist, _ = ostbc_ref_run
    assert abs(dist.ecdf(1.0) - ref_model.outage(1.0)) < 0.02


def test_from_config_rejects_wrong_mode():
    with pytest.raises(ConfigError):
        ostbc.from_config(REF_BF)
    with pytest.raises(ConfigError):
        ostbc.outage_white_interference(1.0, REF_BF)


def test_notes_propagate():
    cfg = ScenarioConfig(
        n_r=4, n_t=4, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC
    )
    assert any("full-rate" in n for n in ostbc.from_config(cfg).notes)
