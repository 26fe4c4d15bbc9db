"""The SINR engine against a 50-digit evaluation of the same formulas.

The CLI cases are configs whose partial-fraction evaluation failed:
OSTBC on the reference mix at n_t >= 4 and six 4-layer SM interferers
against a 4x4 BF victim were refused with exit 3, and the 1x3 OSTBC
case came out 2.2e-4 off with exit 0.
"""

import json

import numpy as np
import pytest

from ranksinr import bf, cli, ostbc
from ranksinr.engine import SinrModel
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    config_to_dict,
)

from conftest import REF_INTERFERERS
from mp_sinr import reference_curves

GRID = "-5:20:0.5"
GRID_DB = np.arange(-5.0, 20.0 + 1e-9, 0.5)
# absolute on the outage, and on the density divided by its peak
TOL = 1e-12


def _cfg(n_r, n_t, mode, interferers, snr_db=15.0):
    return ScenarioConfig(n_r=n_r, n_t=n_t, noise_power=1.0, snr_db=snr_db,
                          own_mode=mode, interferers=tuple(interferers))


def _sm(inr_db, layers):
    return InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING, inr_db=inr_db,
                          layers=layers)


SIX_SM = [_sm(float(v), 4) for v in range(3, 9)]
BF_AND_TWO_SM = [InterfererSpec(technique=Technique.BEAMFORMING, inr_db=2.33),
                 _sm(0.0, 2), _sm(5.56, 2)]
CASES = {
    "ostbc-2x4-reference-mix": _cfg(2, 4, OwnMode.OSTBC, REF_INTERFERERS),
    "ostbc-4x4-reference-mix": _cfg(4, 4, OwnMode.OSTBC, REF_INTERFERERS),
    "ostbc-8x8-reference-mix": _cfg(8, 8, OwnMode.OSTBC, REF_INTERFERERS),
    "bf-4x4-six-4-layer-sm": _cfg(4, 4, OwnMode.BEAMFORMING, SIX_SM),
    "ostbc-1x3-bf-and-two-sm": _cfg(1, 3, OwnMode.OSTBC, BF_AND_TWO_SM),
}


@pytest.fixture(scope="module")
def references():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = reference_curves(CASES[name], 10.0 ** (GRID_DB / 10.0))
        return cache[name]

    return get


@pytest.mark.parametrize("command", ["outage", "pdf"])
@pytest.mark.parametrize("name", list(CASES))
def test_cli_curve_matches_mpmath(tmp_path, references, name, command):
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps(config_to_dict(CASES[name])))
    code = cli.main([command, "--config", str(cfg_path), f"--grid={GRID}",
                     "--format", "json", "--out", str(out_path)])
    assert code == cli.EXIT_OK
    got = np.array([row[1] for row in json.loads(out_path.read_text())["rows"]])
    outage, pdf = references(name)
    if command == "outage":
        err = np.max(np.abs(got - outage))
    else:
        err = np.max(np.abs(got - pdf)) / max(pdf)
    assert err <= TOL


def test_motivation_case_value_at_zero_db():
    # the partial-fraction route returned 0.063219 here
    model = ostbc.from_config(CASES["ostbc-1x3-bf-and-two-sm"])
    assert model.outage(1.0) == pytest.approx(0.062997, abs=5e-7)


def test_pdf_at_zero_threshold():
    # N = 1: f(0) = E[1 + Y]/rho_bar, finite although nu_1/a is 0/0 there
    cfg = _cfg(1, 1, OwnMode.OSTBC,
               [InterfererSpec(technique=Technique.BEAMFORMING, inr_db=10.0)])
    model = ostbc.from_config(cfg)
    assert model.sinr_pdf(0.0) == pytest.approx(
        (1.0 + sum(model.rates)) / model.rho_bar, rel=1e-14)
    # beamforming: continuous at 0 from the right
    bf_model = bf.from_config(_cfg(2, 2, OwnMode.BEAMFORMING, REF_INTERFERERS))
    assert bf_model.sinr_pdf(0.0) == pytest.approx(bf_model.sinr_pdf(1e-12), rel=1e-9)


def test_far_thresholds_stay_finite():
    model = SinrModel({(1, 0): 2, (2, 2): -1}, None, 10.0, (3.0, 3.0, 0.5))
    g = np.array([1e-150, 1e-45, 1e45, 1e150])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        # the unclamped evaluators: the clamp would hide an overshoot
        out, pdf = model._outage(g), model._pdf(g)
        assert np.array_equal(model.outage(g), out)
        assert np.array_equal(model.sinr_pdf(g), pdf)
    assert 0.0 < out[0] < 1e-149 and out[-1] == 1.0
    assert np.all(np.isfinite(pdf)) and pdf[-1] == 0.0


def test_overflowing_count_means_read_the_limits():
    # a_k = k gamma/rho_bar overflows at the tiny rho_bar, a_k rho_r at the
    # huge rate; e^{-a_k} or (1 + a_k rho_r)^{-1} is below the smallest
    # double there, so the outage is 1 and the density 0
    g = np.array([1e300, 1.7e308])
    for rho_bar, rates in ((1e-300, (3.0,)), (10.0, (1e308, 3.0))):
        model = SinrModel({(1, 0): 2, (2, 2): -1}, None, rho_bar, rates)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out, pdf = model._outage(g), model._pdf(g)
        assert out.tolist() == [1.0, 1.0] and pdf.tolist() == [0.0, 0.0]


def test_equal_rates_are_counted_not_merged():
    # a near tie stays two rates, where partial fractions would divide by
    # the gap; the outage moves by no more than its derivative allows
    def outage(second):
        return SinrModel({(1, 3): 1}, None, 4.0, (2.0, second)).outage(1.0)

    assert outage(2.0 * (1 + 1e-10)) == pytest.approx(outage(2.0), abs=1e-10)
