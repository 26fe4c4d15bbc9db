"""Randomized invariant checks over generated scenarios.

Everything here must hold for any valid input, not just the pinned
reference points, so the generators draw configs broadly and hypothesis
hunts for counterexamples.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from ranksinr import bf, ostbc
from ranksinr.approx import ProductDistribution, exp_approx_pdf, product_pdf
from ranksinr.curves import config_hash
from ranksinr.engine import SinrModel
from ranksinr.errors import RankSinrError
from ranksinr.mixture import build_mixture, cdf_y, pdf_y
from ranksinr.montecarlo import simulate_bf_sinr
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
    config_from_dict,
    config_to_dict,
    db_to_linear,
)
from ranksinr.sweeps import equal_power_config, model_for, threshold_gain
from ranksinr.wishart import compute_weights

from conftest import exact_mean


# near-tie offsets in dB, 0 for an exact tie: a tie of 1e-9 dB puts two
# rates 2.3e-10 apart, where partial fractions would divide by the gap
TIE_OFFSETS_DB = (0.0, 1e-9, 3e-8, 1e-6, 1e-3)


@st.composite
def inr_values(draw, earlier=()):
    """An INR in dB: a fresh draw, or, on purpose, one of the scenario's
    `earlier` INRs moved by a tie offset."""
    if earlier and draw(st.booleans()):
        return draw(st.sampled_from(earlier)) + draw(st.sampled_from(TIE_OFFSETS_DB))
    return draw(st.floats(min_value=-3.0, max_value=15.0).map(lambda v: round(v, 2)))


@st.composite
def interferer_specs(draw, earlier=()):
    tech = draw(st.sampled_from(list(Technique)))
    inr = draw(inr_values(earlier))
    if tech is Technique.SPATIAL_MULTIPLEXING:
        return InterfererSpec(technique=tech, inr_db=inr, layers=draw(st.integers(1, 2)))
    return InterfererSpec(technique=tech, inr_db=inr)


@st.composite
def interferer_lists(draw):
    specs = []
    for _ in range(draw(st.integers(0, 3))):
        specs.append(draw(interferer_specs(tuple(s.inr_db for s in specs))))
    return tuple(specs)


@st.composite
def scenarios(draw, own_mode=None):
    mode = own_mode or draw(st.sampled_from(list(OwnMode)))
    return ScenarioConfig(
        n_r=draw(st.integers(1, 4)),
        n_t=draw(st.integers(2, 4)),
        noise_power=draw(st.sampled_from([0.5, 1.0, 2.0])),
        snr_db=draw(st.floats(min_value=0.0, max_value=25.0).map(lambda v: round(v, 1))),
        own_mode=mode,
        interferers=draw(interferer_lists()),
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_rate_set_mean_is_total_power_over_nt_sigma2(cfg):
    rates = build_rate_set(cfg)
    total = sum(db_to_linear(s.inr_db) * cfg.noise_power for s in cfg.interferers)
    if cfg.own_mode is OwnMode.OSTBC:
        expect = total / (cfg.n_t * cfg.noise_power)
    else:
        # BF victims see SM split across layers and OSTBC averaged over
        # antennas, so only per-technique bookkeeping is universal
        expect = 0.0
        for s in cfg.interferers:
            p = db_to_linear(s.inr_db) * cfg.noise_power
            if s.technique is Technique.OSTBC:
                expect += p / (cfg.n_t * cfg.noise_power)
            else:
                expect += p / cfg.noise_power
    assert math.isclose(sum(rates), expect, rel_tol=1e-12, abs_tol=1e-12)
    if rates:
        mix = build_mixture(rates)
        rho, jj, xi = mix.terms()
        # the coefficient route cancels; forward error scales with |Xi|
        slack = 4e-16 * float(sum(abs(x * j * r) for x, j, r in zip(xi, jj, rho)))
        mean = float((xi * jj * rho).sum())
        assert math.isclose(mean, sum(rates), rel_tol=1e-9, abs_tol=slack)


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.floats(min_value=-10.0, max_value=25.0))
def test_outage_is_a_cdf_in_gamma0(cfg, g_db):
    model = model_for(cfg)
    g = 10.0 ** (g_db / 10.0)
    lo, hi = model.outage(g), model.outage(g * 1.5)
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
    # deep-tail values carry alternating-sum noise at the 1e-16 level
    assert hi >= lo - 1e-12


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.floats(min_value=1e-4, max_value=0.9))
def test_threshold_round_trips_through_outage(cfg, p):
    model = model_for(cfg)
    g = model.threshold(p)
    assert math.isclose(model.outage(g), p, rel_tol=1e-7, abs_tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(scenarios(own_mode=OwnMode.BEAMFORMING), st.floats(min_value=-5.0, max_value=20.0))
# near the example this test once found: the partial-fraction OSTBC
# outage here came out 0.063219, the 50-digit value is 0.062997
@example(
    cfg=ScenarioConfig(
        n_r=1, n_t=3, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.BEAMFORMING,
        interferers=(
            InterfererSpec(technique=Technique.BEAMFORMING, inr_db=2.33),
            InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING, inr_db=0.0, layers=2),
            InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING, inr_db=5.56, layers=2),
        ),
    ),
    g_db=0.0,
)
def test_csi_gap_ostbc_never_beats_bf(cfg, g_db):
    # same channel statistics, open loop vs closed loop
    o_cfg = ScenarioConfig(
        n_r=cfg.n_r, n_t=cfg.n_t, noise_power=cfg.noise_power,
        snr_db=cfg.snr_db, own_mode=OwnMode.OSTBC, interferers=cfg.interferers,
    )
    bf_model = bf.from_config(cfg)
    o_model = ostbc.from_config(o_cfg)
    g = 10.0 ** (g_db / 10.0)
    # not a round-off allowance: deep in the left tail the exponential
    # interference model lets OSTBC undercut BF by a few 1e-11 (4x2, one
    # 10 dB BF interferer, SNR 22 dB, noise 0.5: 1.866e-9 vs 1.893e-9)
    assert o_model.outage(g) >= bf_model.outage(g) - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.floats(min_value=0.1, max_value=30.0))
# one quad over [0, inf) read this 2.5e-9 off
@example(n_r=2, n_t=2, scale=24.390625)
def test_eigenvalue_mean_scales_linearly(n_r, n_t, scale):
    weights = compute_weights(n_r, n_t).weights
    mean = exact_mean(weights)
    # the top eigenvalue dominates the average one
    assert mean >= max(n_r, n_t)
    # E[scale * lambda_max] = int_0^inf (1 - F): a model without
    # interferers at rho_bar = scale scales the exact mean
    model = bf.BfModel(weights=weights, rho_bar=scale)
    # split where the tail starts, so that quad maps only the tail to a
    # finite interval
    split = 4.0 * scale * float(mean)
    area = sum(quad(lambda x: 1.0 - model.outage(x), a, b, limit=200)[0]
               for a, b in ((0.0, split), (split, math.inf)))
    assert math.isclose(area, scale * float(mean), rel_tol=1e-9)


# one strategy for every argument of every entry point: bools, numpy ints
# and floats, str, None, +-0, negatives, NaN, +-inf, enum members and
# values in and out of range.  The in-range integers stay small, so that
# a Monte Carlo call draws a handful of samples and a sweep config holds
# a few interferers, and the reals stay within a few tens of dB
ANY_VALUE = st.one_of(
    st.sampled_from([True, False, None, "2", "0.5", "bf", "sm", "ostbc", 0, -0.0, 0.0,
                     math.nan, math.inf, -math.inf, 2**64, 10**400, 1e300, np.True_]),
    st.sampled_from(list(OwnMode) + list(Technique)),
    st.integers(-2, 9),
    st.integers(-2, 9).map(np.int64),
    st.floats(-30.0, 30.0, allow_nan=False),
    st.floats(0.0, 1.0).map(np.float64),
)


# name: (call on drawn arguments, argument count, kind of answer)
ENTRY_POINTS = {
    "ScenarioConfig": (lambda n_r, n_t, noise, snr, mode, tech, inr, layers, g:
                       model_for(ScenarioConfig(n_r, n_t, noise, snr, mode,
                                                (InterfererSpec(tech, inr, layers),))).outage(g),
                       9, "probability"),
    "equal_power_config": (equal_power_config, 7, "config"),
    "threshold_gain": (lambda *args: threshold_gain(*args).gain_db, 7, "finite"),
    "compute_weights": (lambda n_r, n_t: compute_weights(n_r, n_t).sum_exact() == 1, 2, "true"),
    "SinrModel.outage": (lambda rho_bar, g: SinrModel({(1, 3): 1}, rho_bar, (2.0,)).outage(g),
                         2, "probability"),
    "SinrModel.sinr_pdf": (lambda rho_bar, g: SinrModel({(2, 3): 1}, rho_bar, (2.0, 1.0))
                           .sinr_pdf(g), 2, "finite"),
    "SinrModel.threshold": (lambda rho_bar, p: SinrModel({(1, 3): 1}, rho_bar, (2.0,))
                            .threshold(p), 2, "finite"),
    "simulate_bf_sinr": (lambda n, seed: simulate_bf_sinr(SCENARIO, n, seed).samples, 2, "finite"),
    "exp_approx_pdf": (exp_approx_pdf, 3, "finite"),
    "product_pdf": (lambda x, n_r, n_t, n_l: product_pdf(x, ProductDistribution(n_r, n_t, n_l)),
                    4, "density"),
    "pdf_y": (lambda y: pdf_y(y, (2.0, 1.0, 1.0)), 1, "finite"),
    "cdf_y": (lambda y: cdf_y(y, (2.0, 1.0, 1.0)), 1, "probability"),
    # a rate set drawn as one value or a list of two: None once raised
    # TypeError and "bf" ValueError
    "pdf_y.rates": (lambda y, r: pdf_y(y, r), 2, "finite"),
    "cdf_y.rates": (lambda y, r: cdf_y(y, r), 2, "probability"),
    "pdf_y.two_rates": (lambda y, r0, r1: pdf_y(y, [r0, r1]), 3, "finite"),
    "cdf_y.two_rates": (lambda y, r0, r1: cdf_y(y, [r0, r1]), 3, "probability"),
}
SCENARIO = ScenarioConfig(2, 2, 1.0, 15.0, OwnMode.BEAMFORMING,
                          (InterfererSpec(Technique.SPATIAL_MULTIPLEXING, 10.0, 2),))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)), st.lists(ANY_VALUE, min_size=9, max_size=9))
def test_entry_points_answer_or_refuse(name, values):
    # every input is either answered, finitely and in [0, 1] for a
    # probability, or refused with a RankSinrError: never a TypeError,
    # AttributeError, ZeroDivisionError or OverflowError, and never a NaN
    call, n_args, kind = ENTRY_POINTS[name]
    try:
        answer = call(*values[:n_args])
    except RankSinrError:
        return
    if kind == "config":
        # the values it holds are decided, so it hashes like its JSON twin
        assert config_hash(config_from_dict(config_to_dict(answer))) == config_hash(answer)
        return
    if kind == "true":
        assert answer is True
        return
    answer = np.asarray(answer, dtype=np.float64)
    if kind == "density":
        # the density of the product diverges at 0 for n_r = 1, and only there
        x, n_r = values[:2]
        answer = answer[np.isfinite(answer) | (np.asarray(x) != 0) | (n_r != 1)]
    assert np.isfinite(answer).all()
    if kind == "probability":
        assert ((answer >= 0.0) & (answer <= 1.0)).all()


# every entry point that evaluates at given points
EVALUATIONS = {
    "SinrModel.outage": lambda x: SinrModel({(1, 3): 1}, 2.0, (2.0,)).outage(x),
    "SinrModel.sinr_pdf": lambda x: SinrModel({(2, 3): 1}, 2.0, (2.0, 1.0)).sinr_pdf(x),
    "model_for.outage": lambda x: model_for(SCENARIO).outage(x),
    "pdf_y": lambda y: pdf_y(y, (2.0, 1.0, 1.0)),
    "cdf_y": lambda y: cdf_y(y, (2.0, 1.0, 1.0)),
    "exp_approx_pdf": lambda x: exp_approx_pdf(x, 2, 1),
    "product_pdf.n_r=1": lambda x: product_pdf(x, ProductDistribution(1, 2, 1)),
    "product_pdf.n_r=2": lambda x: product_pdf(x, ProductDistribution(2, 4, 2)),
    "product_pdf.n_t=1": lambda x: product_pdf(x, ProductDistribution(2, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_evaluations_answer_empty_with_empty(name):
    # outage once raised numpy's ValueError from the minimum of no values
    out = EVALUATIONS[name]([])
    assert isinstance(out, np.ndarray) and out.shape == (0,)
