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
from fractions import Fraction

import numpy as np
import pytest

from ranksinr import bf, cli, ostbc, wishart
from ranksinr.engine import SinrModel, _sum_rows, clamp_probability
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
# the tables of the one evaluation kernel: the outage alone, the density alone
OUTAGE, DENSITY = slice(0, 1), slice(1, 2)


def _unclamped(model, tables, gammas):
    """The kernel's outage (unclamped) or density on a 1-d array, one row."""
    return model._kernel(gammas, 0, tables)[0]


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
    log_g0 = model._weighted_sum(gammas, 0, model._weights[:-1, :1])[1]
    assert np.count_nonzero(np.exp(log_g0) == 0.0) >= 4
    outage, pdf = reference_curves(cfg, gammas)
    assert np.max(np.abs(model.outage(gammas) - outage)) <= TOL
    assert np.max(np.abs(model.sinr_pdf(gammas) - pdf)) / max(pdf) <= TOL


# (grid in dB, absolute outage bound, bound for gamma <= 0 dB): the signed
# psi sum of the eigenvalue table is formed per k as exact tail sums, so
# what is left is the cancellation across k and within each k's weighted
# count sum, about 1e-16 times sum_kn |W_kn| g_kn, 4e5 at 8x8 on the grid
BF_BOUNDS = {4: ("-15:30:2.5", 2e-15, None), 6: ("-15:30:2.5", 1e-13, None),
             8: ("-15:20:2.5", 1e-11, 1e-13)}


@pytest.mark.parametrize("interferers", ["reference-mix", "one-full-rank-sm"])
@pytest.mark.parametrize("n", list(BF_BOUNDS))
def test_bf_outage_is_within_its_rounding_bound(n, interferers):
    # the per-term psi sum was off by 5.6e-15 (4x4), 3.2e-13 (6x6) and
    # 1.7e-10 (8x8) on the reference mix, and by 6.1e-15, 8.0e-13 and
    # 4.4e-10 under one n-layer SM interferer at 10 dB; the 8x8 outage read
    # up to 1.7e-10 where the exact values are at most 1.6e-25 (gamma <= 0 dB)
    grid, bound, left_bound = BF_BOUNDS[n]
    lo, hi, step = map(float, grid.split(":"))
    grid_db = np.arange(lo, hi + 1e-9, step)
    cfg = _cfg(n, n, OwnMode.BEAMFORMING,
               REF_INTERFERERS if interferers == "reference-mix" else [_sm(10.0, n)])
    gammas = 10.0 ** (grid_db / 10.0)
    outage, _ = reference_curves(cfg, gammas)
    err = np.abs(_unclamped(bf.from_config(cfg), OUTAGE, gammas) - outage)
    assert err.max() <= bound
    if left_bound is not None:
        assert err[grid_db <= 0.0].max() <= left_bound


def _exact_tables():
    """Every shipped eigenvalue table, then the OSTBC tables of orders 1..64."""
    yield from (wishart.compute_weights(p, q).weights for p, q in wishart.TABLES)
    yield from ({(1, order - 1): 1} for order in range(1, 65))


def test_outage_weights_are_exact_tail_sums_rounded_once():
    # Psi_k of the shipped tables are integers (+-binomials), so they sum
    # to exactly 1 in _sum_rows order and the outage at large gamma reads 1
    # the density's weights k (n+1) psi_kn share the table, the outage's
    # with a weight of 0 at order lmax
    for table in _exact_tables():
        model = SinrModel(table, 1.0)
        lmax = max(l for _, l in table)
        assert model._weights.shape == (lmax + 1, 2, model.kvals.size, 1)
        # the kernel weighs the outage alone without its order lmax
        shapes, weighted_sum = [], model._weighted_sum
        model._weighted_sum = lambda g, rows, w: (shapes.append(w.shape),
                                                  weighted_sum(g, rows, w))[1]
        for i, k in enumerate(model.kvals.tolist()):
            tails = [sum((Fraction(w) for (kk, l), w in table.items() if kk == k and l >= n),
                         Fraction(0)) for n in range(lmax + 1)]
            assert model.psi_k[i] == tails[0] and tails[0].denominator == 1
            assert model._weights[:, 0, i, 0].tolist() == [float(t) for t in tails[1:]] + [0.0]
            assert model._weights[:, 1, i, 0].tolist() == [
                float(k * (n + 1) * Fraction(table.get((k, n), 0))) for n in range(lmax + 1)]
        assert _sum_rows(model.psi_k) == 1.0
        assert _unclamped(model, OUTAGE, np.array([1e6])).tolist() == [1.0]
        assert shapes == [(lmax, 1, model.kvals.size, 1)]


def _loop_sum(x):
    total = x[0].copy()
    for row in x[1:]:
        total += row
    return total


def test_rows_are_summed_one_after_the_other():
    # numpy's reduction adds a slow axis row by row, in index order, which
    # _sum_rows relies on; a single column it regroups pairwise, so that
    # one goes through add.accumulate.  Magnitudes spread over 16 decades
    # make any other grouping show in the last bits
    rng = np.random.default_rng(43)

    def draw(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape[:1] + (1,) * (
            len(shape) - 1))

    for g in (2, 51, 302, 4096):
        for _ in range(6):
            x = draw((int(rng.integers(2, 71)), int(rng.integers(1, 9)), g))
            assert _sum_rows(x).tobytes() == _loop_sum(x).tobytes(), x.shape
    regrouped = 0
    for rows in range(8, 71):
        column = draw((rows,))
        for x in (column, column.reshape(rows, 1, 1)):
            assert _sum_rows(x).tobytes() == _loop_sum(x).tobytes(), x.shape
        regrouped += np.add.reduce(column) != _loop_sum(column)
    # without the accumulate branch a single column would read other bits
    assert regrouped > 0


GRID_CASES = {
    **{f"{mode.value}-{n}x{n}-reference-mix": _cfg(n, n, mode, REF_INTERFERERS)
       for mode in (OwnMode.BEAMFORMING, OwnMode.OSTBC) for n in (2, 4, 8)},
    "bf-4x4-ten-distinct-rates": _cfg(4, 4, OwnMode.BEAMFORMING, TEN_BF),
    "ostbc-4x4-ten-distinct-rates": _cfg(4, 4, OwnMode.OSTBC, TEN_BF),
    # one point: 64 orders, each summing a single column of 11 rows
    "ostbc-8x8-ten-distinct-rates": _cfg(8, 8, OwnMode.OSTBC, TEN_BF),
}


@pytest.mark.parametrize("name", list(GRID_CASES))
def test_values_do_not_depend_on_the_other_points(name):
    cfg = GRID_CASES[name]
    model = (bf if cfg.own_mode is OwnMode.BEAMFORMING else ostbc).from_config(cfg)
    gammas = 10.0 ** (GRID_DB / 10.0)
    n = gammas.size
    # the unclamped evaluators: the clamp would hide a difference below 0
    for tables in (OUTAGE, DENSITY):
        def evaluate(g):
            return _unclamped(model, tables, g)

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


@pytest.mark.parametrize("mode", [OwnMode.BEAMFORMING, OwnMode.OSTBC], ids=["bf", "ostbc"])
@pytest.mark.parametrize("n_r, n_t", [(2, 2), (2, 4), (4, 4), (8, 8)])
def test_outage_with_density_reads_the_bits_of_separate_calls(mode, n_r, n_t):
    # the inversion reads outage and density from one pass over the count
    # orders; each must carry the bits of its own call, one row or several,
    # on a grid and at single points (a single column is summed otherwise)
    cfgs = [_cfg(n_r, n_t, mode, REF_INTERFERERS),
            _cfg(n_r, n_t, mode, TEN_BF, snr_db=20.0),
            _cfg(n_r, n_t, mode, [], snr_db=3.0),
            _cfg(n_r, n_t, mode, [_sm(9.0, n_t)], snr_db=12.0)]
    module = bf if mode is OwnMode.BEAMFORMING else ostbc
    gammas = 10.0 ** (GRID_DB / 10.0)
    for model, grid in [(module.from_config(cfg), gammas) for cfg in cfgs] + [
            (module.from_config(*cfgs), np.tile(gammas, (len(cfgs), 1)))]:
        for points in (grid, grid[..., 7:8]):
            out, pdf = model.outage(points, density=True)
            assert [v.hex() for v in out.ravel()] == [v.hex() for v in model.outage(points).ravel()]
            assert [v.hex() for v in pdf.ravel()] == [
                v.hex() for v in model.sinr_pdf(points).ravel()]
    out, pdf = module.from_config(cfgs[0]).outage(gammas[7], density=True)
    assert isinstance(out, float) and isinstance(pdf, float)


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
    # 8x8 beamforming once kept about 9 KB of count tables per point: a
    # 2e4-point outage peaked at 181 MB in one block, 4.7 MiB in blocks of
    # BLOCK columns and the density at 30 MiB; a block now holds a few
    # (rates + 1, K, points) arrays, about 2 MiB at the peak.  The blocks
    # leave every value the same bits
    model = bf.from_config(GRID_CASES["bf-8x8-reference-mix"])
    gammas = 10.0 ** (np.linspace(-5.0, 20.0, 20_001) / 10.0)
    sub = gammas[::400]
    assert sub.size == 51
    # the unclamped evaluators: the clamp would hide a difference below 0
    for tables in (OUTAGE, DENSITY):
        tracemalloc.start()
        try:
            (whole,) = model._evaluate(gammas, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, tables
        assert [v.hex() for v in whole[::400]] == [
            v.hex() for v in _unclamped(model, tables, sub)]


def test_clamp_probability_on_arrays():
    assert clamp_probability(1.0 + 1e-12) == 1.0
    out = clamp_probability(np.array([-1e-12, 0.5, 1.0 + 1e-12]))
    assert out.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(NumericInstabilityError, match="1.001"):
        clamp_probability(np.array([0.5, 1.001]))
    with pytest.raises(NumericInstabilityError):
        clamp_probability(float("nan"))


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
        out, pdf = _unclamped(model, OUTAGE, g), _unclamped(model, DENSITY, g)
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
            out, pdf = _unclamped(model, OUTAGE, g), _unclamped(model, DENSITY, g)
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
    # then inf times a count of 0 gave NaN.  At gamma = 0 and 1 the density
    # is exactly 0 (Z ~ Gamma(4, 1) at 0, a past the double range at 1);
    # at 3e-310, a = 3, it is about 1e310
    model = SinrModel({(1, 3): 1}, 1e-310, (2.0,))
    assert model.sinr_pdf([0.0, 1.0]).tolist() == [0.0, 0.0]
    with pytest.raises(NumericInstabilityError, match="density overflows"):
        model.sinr_pdf([0.0, 3e-310])
    assert 0.0 <= model.outage(1.0) <= 1.0
