"""The SINR engine against a 50-digit evaluation of the same formulas.

The CLI cases are configs whose partial-fraction evaluation failed:
OSTBC on the reference mix at n_t >= 4 and six 4-layer SM interferers
against a 4x4 BF victim were refused with exit 3, and the 1x3 OSTBC
case came out 2.2e-4 off with exit 0.  Every value is also required to
be the same bits whichever other points share its call, and each row of
a stacked model the bits of its own one-row model.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ranksinr import bf, cli, ostbc
from ranksinr.engine import SinrModel
from ranksinr.errors import ConfigError, NumericInstabilityError
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
SIX_8_LAYER_SM = [_sm(float(v), 8) for v in range(2, 13, 2)]
# ten distinct rates: more than the 8 numpy's pairwise sum takes in order
TEN_BF = [InterfererSpec(technique=Technique.BEAMFORMING, inr_db=1.0 + 0.7 * i)
          for i in range(10)]
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


def test_heavy_multiplicities_outage(tmp_path):
    # six groups of 64 equal rates: building their Xi coefficients made
    # this call take about 0.2 s, which the outage never needed
    cfg = _cfg(8, 8, OwnMode.OSTBC, SIX_8_LAYER_SM)
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    code = cli.main(["outage", "--config", str(cfg_path), "--grid=0:20:5",
                     "--format", "json", "--out", str(out_path)])
    assert code == cli.EXIT_OK
    got = np.array([row[1] for row in json.loads(out_path.read_text())["rows"]])
    outage, _ = reference_curves(cfg, 10.0 ** (np.arange(0.0, 21.0, 5.0) / 10.0))
    assert np.max(np.abs(got - outage)) <= TOL


@pytest.mark.parametrize("cfg, peak_db, a_values", [
    (CASES["ostbc-8x8-reference-mix"], 9.5, np.linspace(600.0, 1000.0, 9)),
    (_cfg(8, 8, OwnMode.OSTBC, SIX_8_LAYER_SM), 7.0, np.linspace(250.0, 450.0, 5)),
], ids=["ostbc-8x8-reference-mix", "ostbc-8x8-six-8-layer-sm"])
def test_counts_where_g0_underflows(cfg, peak_db, a_values):
    # g starts in linear scale, so past a + sum_r c_r log1p(a rho_r) ~ 745
    # g_0 reads 0 and every g_n with it; the mass dropped there must not
    # show.  The point near the density's mode sets its scale.
    model = ostbc.from_config(cfg)
    gammas = np.append(10.0 ** (peak_db / 10.0), a_values * model.rho_bar)
    assert np.count_nonzero(model._counts(gammas)[1][0] == 0.0) >= 4
    outage, pdf = reference_curves(cfg, gammas)
    assert np.max(np.abs(model.outage(gammas) - outage)) <= TOL
    assert np.max(np.abs(model.sinr_pdf(gammas) - pdf)) / max(pdf) <= TOL


GRID_CASES = {
    **{f"{mode.value}-{n}x{n}-reference-mix": _cfg(n, n, mode, REF_INTERFERERS)
       for mode in (OwnMode.BEAMFORMING, OwnMode.OSTBC) for n in (2, 4, 8)},
    "bf-4x4-ten-distinct-rates": _cfg(4, 4, OwnMode.BEAMFORMING, TEN_BF),
    "ostbc-4x4-ten-distinct-rates": _cfg(4, 4, OwnMode.OSTBC, TEN_BF),
}


@pytest.mark.parametrize("name", list(GRID_CASES))
def test_values_do_not_depend_on_the_other_points(name):
    cfg = GRID_CASES[name]
    model = (bf if cfg.own_mode is OwnMode.BEAMFORMING else ostbc).from_config(cfg)
    gammas = 10.0 ** (GRID_DB / 10.0)
    n = gammas.size
    # the unclamped evaluators: the clamp would hide a difference below 0
    for evaluate in (model._outage, model._pdf):
        whole = [v.hex() for v in evaluate(gammas)]
        assert [evaluate(gammas[i:i + 1])[0].hex() for i in range(n)] == whole
        pairs = [evaluate(gammas[[i, (i + 1) % n]]) for i in range(n)]
        assert [p[0].hex() for p in pairs] == whole
        assert [p[1].hex() for p in pairs] == whole[1:] + whole[:1]


@pytest.mark.parametrize("n", [4, 8])
def test_stacked_rows_are_the_bits_of_their_own_models(n):
    # rows with one, three and ten distinct rates and none at all: a row
    # pads the rates it lacks, which must add exact zeros
    cfgs = [_cfg(n, n, OwnMode.BEAMFORMING, REF_INTERFERERS),
            _cfg(n, n, OwnMode.BEAMFORMING, TEN_BF, snr_db=20.0),
            _cfg(n, n, OwnMode.BEAMFORMING, [], snr_db=3.0),
            _cfg(n, n, OwnMode.BEAMFORMING, [_sm(9.0, n)], snr_db=12.0)]
    models = [bf.from_config(cfg) for cfg in cfgs]
    stacked = bf.from_config(*cfgs)
    # evaluation does not read the mixture, so a stacked model builds none
    assert stacked.mixture is None and models[0].mixture is not None
    gammas = 10.0 ** (GRID_DB / 10.0)
    grid = np.tile(gammas, (len(models), 1))
    for method in ("outage", "sinr_pdf"):
        got = getattr(stacked, method)(grid)
        for row, model in enumerate(models):
            assert [v.hex() for v in got[row]] == [
                v.hex() for v in getattr(model, method)(gammas)]
    assert [t.hex() for t in stacked.threshold(0.01)] == [
        m.threshold(0.01).hex() for m in models]
    with pytest.raises(ConfigError, match="4 model rows"):
        stacked.outage(gammas)


def test_every_call_answers_all_rows():
    model = SinrModel({(1, 3): 1}, (2.0, 3.0), ((2.0,), (1.0,)))
    assert model.outage(np.empty((2, 0))).shape == (2, 0)
    assert model.outage([[1.0], [1.0]]).shape == (2, 1)
    thr = model.threshold(0.01)
    assert isinstance(thr, np.ndarray) and thr.shape == (2,)
    # a point for one row is refused like a point for the wrong row count
    for gamma in (1.0, [1.0], [[1.0]] * 3):
        with pytest.raises(ConfigError, match="2 model rows"):
            model.outage(gamma)


def test_stacked_rows_share_mode_and_size():
    cfg = _cfg(4, 4, OwnMode.BEAMFORMING, REF_INTERFERERS)
    with pytest.raises(ConfigError, match="share n_r and n_t"):
        bf.from_config(cfg, _cfg(2, 4, OwnMode.BEAMFORMING, REF_INTERFERERS))
    with pytest.raises(ConfigError, match="own_mode is ostbc, expected bf"):
        bf.from_config(cfg, _cfg(4, 4, OwnMode.OSTBC, REF_INTERFERERS))


def test_large_grids_are_evaluated_in_bounded_memory():
    # 8x8 beamforming keeps about 9 KB of count tables per point: a 2e4-point
    # outage peaked at 181 MB in one block, about 5 MB in blocks of BLOCK
    # columns; the blocks leave every value the same bits
    model = bf.from_config(GRID_CASES["bf-8x8-reference-mix"])
    gammas = 10.0 ** (np.linspace(-5.0, 20.0, 20_001) / 10.0)
    tracemalloc.start()
    try:
        # the unclamped evaluation: the clamp would hide a difference below 0
        whole = model._evaluate(model._outage, gammas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    sub = gammas[::400]
    assert sub.size == 51
    assert [v.hex() for v in whole[::400]] == [v.hex() for v in model._outage(sub)]


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
    model = SinrModel({(1, 0): 2, (2, 2): -1}, 10.0, (3.0, 3.0, 0.5))
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
        model = SinrModel({(1, 0): 2, (2, 2): -1}, rho_bar, rates)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out, pdf = model._outage(g), model._pdf(g)
        assert out.tolist() == [1.0, 1.0] and pdf.tolist() == [0.0, 0.0]


def test_equal_rates_are_counted_not_merged():
    # a near tie stays two rates, where partial fractions would divide by
    # the gap; the outage moves by no more than its derivative allows
    def outage(second):
        return SinrModel({(1, 3): 1}, 4.0, (2.0, second)).outage(1.0)

    assert outage(2.0 * (1 + 1e-10)) == pytest.approx(outage(2.0), abs=1e-10)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_rows_refuse_rates_that_are_not_positive_and_finite(bad):
    # -1 read an outage of 4.6e-3 at gamma = 1, 0 counted as no interferer,
    # NaN reached the clamp and +inf raised a RuntimeWarning
    with pytest.raises(ValueError, match=r"the rates of row 0 must be positive and finite"):
        SinrModel({(1, 3): 1}, 4.0, (bad,))
    with pytest.raises(ValueError, match=r"the rates of row 1 must be positive and finite"):
        SinrModel({(1, 3): 1}, (4.0, 4.0), ((2.0,), (2.0, bad)))


@pytest.mark.parametrize("rho_bar", [math.nan, math.inf, -1.0, 0.0, (4.0, math.nan), True, "4"])
def test_rho_bar_follows_the_point_rule(rho_bar):
    # NaN once built a model whose density read nan and whose outage blamed
    # the psi sum; inf built too
    rates = ((2.0,), (2.0,)) if isinstance(rho_bar, tuple) else (2.0,)
    with pytest.raises(ConfigError, match="rho_bar must be finite and > 0"):
        SinrModel({(1, 3): 1}, rho_bar, rates)


@pytest.mark.parametrize("rho_bar, rates, message", [
    ((2.0, 3.0), ((2.0,), (1.0,), (5.0,)), "2 rows, and rates must hold one rate set per row"),
    ((2.0, 3.0, 4.0), ((2.0,), (1.0,)), "3 rows, and rates must hold one rate set per row"),
    ((2.0, 3.0), 2.0, "2 rows, and rates must hold one rate set per row"),
    ((), (), "0 rows, and rates must hold one rate set per row"),
    ((2.0, 3.0), (2.0, 1.0), "the rates of row 0 must be a list, tuple or 1-d array"),
], ids=["more-rate-sets", "fewer-rate-sets", "scalar-rates", "no-rows", "flat-rates"])
def test_each_row_takes_one_rate_set(rho_bar, rates, message):
    # the first once evaluated with its third rate set ignored, the second
    # raised numpy's IndexError at its first outage, the third and the
    # fourth TypeError; the last is refused by count_rates now, in place of
    # a count of the rate sets that were not flat
    with pytest.raises(ConfigError, match=message):
        SinrModel({(1, 3): 1}, rho_bar, rates)


@pytest.mark.parametrize("weights, message", [
    ({(0, 0): 1}, r"integer pairs \(k, l\), k >= 1 and l >= 0, got \(0, 0\)"),
    ({(1, -1): 1}, r"got \(1, -1\)"),
    ({(1.5, 0): 1}, r"got \(1\.5, 0\)"),
    ({(True, 0): 1}, r"got \(True, 0\)"),
    ({1: 1}, "got 1$"),
    ({}, "nonempty dict, got {}"),
    ([((1, 0), 1)], "nonempty dict"),
    ({(1, 0): "x"}, "finite int, Fraction or float, got 'x'"),
    ({(1, 0): True}, "got True"),
    ({(1, 0): math.inf}, "got inf"),
    ({(1, 0): 10**400}, "finite int, Fraction or float"),
], ids=["k-zero", "l-negative", "k-float", "k-bool", "not-a-pair", "empty", "not-a-dict",
        "str-weight", "bool-weight", "inf-weight", "huge-weight"])
def test_psi_tables_follow_the_table_rule(weights, message):
    # at gamma = 1 the first three read outages of 0.0, 0.632 and 0.777,
    # {} and a str weight raised numpy's ValueError
    with pytest.raises(ConfigError, match=message):
        SinrModel(weights, 4.0, (2.0,))


def test_mixture_is_derived_from_the_rates():
    # mixture was once an argument that took any value: "garbage" built
    # and evaluated
    one = SinrModel({(1, 3): 1}, 4.0, (2.0, 1.0, 2.0))
    assert (one.mixture.rates, one.mixture.multiplicities) == ((2.0, 1.0), (2, 1))
    assert SinrModel({(1, 3): 1}, 4.0).mixture is None
    assert SinrModel({(1, 3): 1}, (4.0,), ((2.0,),)).mixture is None
    with pytest.raises(TypeError):
        SinrModel({(1, 3): 1}, "garbage", 1.0, (5.0,))


def test_evaluation_points_follow_the_point_rule():
    model = SinrModel({(1, 3): 1}, 4.0, (2.0,))
    for bad in (math.nan, -1.0, math.inf, True, "1", None, [1.0, "x"]):
        with pytest.raises(ConfigError, match="gamma must be finite and >= 0"):
            model.sinr_pdf(bad)
    for bad in (math.nan, 0.0, -0.0, math.inf, True, "1", None):
        with pytest.raises(ConfigError, match="gamma0 must be finite and > 0"):
            model.outage(bad)
    for bad in (0.0, 1.0, math.nan, True, "0.01", None):
        with pytest.raises(ConfigError, match="target outage must"):
            model.threshold(bad)
    # integer points are real numbers, and read as floats
    assert model.outage(np.array([1, 2])).tolist() == model.outage([1.0, 2.0]).tolist()
    assert model.sinr_pdf(0) == model.sinr_pdf(0.0)


def test_a_density_past_the_double_range_is_refused():
    # psi k/rho_bar overflowed at a subnormal rho_bar: a RuntimeWarning,
    # then inf times a count of 0 gave NaN
    model = SinrModel({(1, 3): 1}, 1e-310, (2.0,))
    with pytest.raises(NumericInstabilityError, match="density overflows"):
        model.sinr_pdf([0.0, 1.0])
    assert 0.0 <= model.outage(1.0) <= 1.0
