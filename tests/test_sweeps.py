"""Sweep driver and gain-vs-axis behavior."""

import dataclasses
import math

import numpy as np
import pytest

from ranksinr import bf, ostbc
from ranksinr.errors import ConfigError
from ranksinr.scenario import OwnMode, Technique, db_to_linear, linear_to_db
from ranksinr.sweeps import (
    GainPoint,
    SweepKind,
    SweepSpec,
    equal_power_config,
    model_for,
    sweep_inr,
    sweep_interferer_count,
    sweep_snr,
    threshold_gain,
)

from oracles import find_crossing


# --- spec validation ---


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, True, math.nan, "0.01"])
def test_p_star_must_be_a_probability(p):
    spec = SweepSpec(kind=SweepKind.INR, stop_db=5.0)
    with pytest.raises(ConfigError, match="target outage"):
        sweep_inr(OwnMode.BEAMFORMING, 2, 2, 15.0, spec, 2, p)


def test_count_sweep_needs_positive_nondecreasing_counts():
    def sweep(counts):
        return sweep_interferer_count(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, counts, 2)

    with pytest.raises(ConfigError, match="counts"):
        sweep(())
    with pytest.raises(ConfigError, match="counts"):
        sweep((1, 0, 2))
    with pytest.raises(ConfigError, match="nondecreasing"):
        sweep((3, 1))
    # repeats are allowed, just not reversals
    pts = sweep((1, 2, 2, 4))
    assert [p.x for p in pts] == [1.0, 2.0, 2.0, 4.0] and pts[1] == pts[2]


def test_counts_follow_the_one_integer_rule():
    def sweep(counts):
        return sweep_interferer_count(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, counts, 2)

    assert sweep((np.int64(1), np.int32(3))) == sweep([1, 3])
    assert sweep(np.array([1, 3])) == sweep([1, 3])
    for bad in (True, 2.0, 100_001):
        with pytest.raises(ConfigError, match="every entry of counts must be an integer"):
            sweep((1, bad))


def test_spec_is_a_db_grid():
    assert [f.name for f in dataclasses.fields(SweepSpec)] == [
        "kind", "start_db", "stop_db", "step_db"]
    assert [k.value for k in SweepKind] == ["threshold", "snr", "inr"]


def test_spec_values_follow_the_rules():
    by_value = SweepSpec(kind="inr", start_db=0, stop_db=np.int64(3), step_db=1)
    assert by_value == SweepSpec(kind=SweepKind.INR, start_db=0.0, stop_db=3.0, step_db=1.0)
    assert by_value.grid_db().tolist() == [0.0, 1.0, 2.0, 3.0]
    for bad in (dict(kind="db"), dict(kind="num_interferers"), dict(start_db="0"),
                dict(step_db=None), dict(step_db=math.nan), dict(step_db=math.inf)):
        with pytest.raises(ConfigError):
            SweepSpec(**dict(dict(kind=SweepKind.INR, stop_db=5.0), **bad))


@pytest.mark.parametrize("count, rank", [(0, 2), (2.5, 2), (-1, 2), (True, 2), (100_001, 2),
                                         (1, 0), (1, 2.0), (1, True), (1, 9)])
def test_equal_power_config_counts_follow_the_one_integer_rule(count, rank):
    # count 0 once raised ZeroDivisionError, 2.5 TypeError, and -1 was
    # refused for a linear value of -10
    with pytest.raises(ConfigError, match="count must be an integer|rank must be an integer"):
        equal_power_config(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, count, rank)


def test_threshold_gain_refuses_a_bool_rank():
    # True was once read as rank 1, a gain of 0 dB
    with pytest.raises(ConfigError, match="rank must be an integer"):
        threshold_gain(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, True)
    # a numpy rank and an own_mode by value answer like their plain twins
    assert (threshold_gain("bf", np.int64(2), 2, 15.0, 10.0, np.int64(2))
            == threshold_gain(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, 2))


def test_db_grid_validation():
    with pytest.raises(ConfigError, match="step"):
        SweepSpec(kind=SweepKind.SNR, start_db=0, stop_db=5, step_db=0.0)
    with pytest.raises(ConfigError, match="empty grid"):
        SweepSpec(kind=SweepKind.SNR, start_db=5, stop_db=0)


def test_grid_includes_both_endpoints():
    g = SweepSpec(kind=SweepKind.INR, start_db=0, stop_db=15, step_db=1).grid_db()
    assert g[0] == 0.0 and g[-1] == 15.0 and len(g) == 16
    # fractional step with float rounding on the last point
    g = SweepSpec(kind=SweepKind.THRESHOLD, start_db=-5, stop_db=20, step_db=0.5).grid_db()
    assert len(g) == 51
    assert g[-1] == pytest.approx(20.0, abs=1e-12)


# --- config builders ---


def test_rank_one_maps_to_beamforming_interferer():
    cfg = equal_power_config(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, 1, 1)
    (spec,) = cfg.interferers
    assert spec.technique is Technique.BEAMFORMING


def test_higher_rank_maps_to_spatial_multiplexing():
    cfg = equal_power_config(OwnMode.BEAMFORMING, 4, 4, 15.0, 10.0, 1, 3)
    (spec,) = cfg.interferers
    assert spec.technique is Technique.SPATIAL_MULTIPLEXING
    assert spec.layers == 3


def test_equal_power_split_conserves_total_power():
    total_db = 15.0
    for count in (1, 2, 3, 5):
        cfg = equal_power_config(
            OwnMode.BEAMFORMING, 2, 2, 15.0, total_db, count, rank=1
        )
        assert len(cfg.interferers) == count
        if count == 1:
            assert cfg.interferers[0].inr_db == total_db
        total_lin = sum(db_to_linear(s.inr_db) for s in cfg.interferers)
        assert total_lin == pytest.approx(db_to_linear(total_db), rel=1e-12)


def test_model_dispatch_follows_own_mode():
    cfg_b = equal_power_config(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, 1, 2)
    cfg_o = equal_power_config(OwnMode.OSTBC, 2, 2, 15.0, 10.0, 1, 2)
    assert isinstance(model_for(cfg_b), bf.BfModel)
    assert isinstance(model_for(cfg_o), ostbc.OstbcModel)


# --- gain points ---


def test_gain_point_db_arithmetic():
    p = GainPoint(x=0.0, threshold_rank1=1.0, threshold_rankr=2.0)
    assert p.gain_db == pytest.approx(10 * math.log10(2.0), rel=1e-12)


def test_rank_one_study_has_zero_gain(monkeypatch):
    p = threshold_gain(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, rank=1)
    assert p.threshold_rank1 == p.threshold_rankr
    assert p.gain_db == 0.0
    # a rank-1 sweep inverts one row per point, each threshold with the bits
    # of its one-row inversion, read for both ranks
    from ranksinr import sweeps

    rows = []

    def counting(*cfgs):
        model = model_for(*cfgs)
        rows.append(np.size(model.rho_bar))
        return model

    monkeypatch.setattr(sweeps, "model_for", counting)
    for mode in (OwnMode.BEAMFORMING, OwnMode.OSTBC):
        rows.clear()
        points = sweep_inr(mode, 2, 4, 15.0, SweepSpec(SweepKind.INR, 0.0, 20.0, 5.0), rank=1)
        assert rows == [5]
        for q in points:
            alone = model_for(equal_power_config(mode, 2, 4, 15.0, q.x, 1, 1)).threshold(0.01)
            assert _bits(q) == (alone.hex(), alone.hex()), (mode, q)
            assert q.gain_db == 0.0


def test_rank_two_gain_is_positive_at_moderate_inr():
    p = threshold_gain(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, rank=2)
    assert p.gain_db > 0.1
    p = threshold_gain(OwnMode.OSTBC, 2, 2, 15.0, 10.0, rank=2)
    assert p.gain_db > 0.1


def test_inr_sweep_x_axis_is_the_grid():
    spec = SweepSpec(kind=SweepKind.INR, start_db=0, stop_db=6, step_db=3)
    pts = sweep_inr(OwnMode.BEAMFORMING, 2, 2, 15.0, spec, rank=2)
    assert [p.x for p in pts] == [0.0, 3.0, 6.0]
    # gain grows with interference power: more to win back by spreading it
    gains = [p.gain_db for p in pts]
    assert gains == sorted(gains)


def test_snr_sweep_x_axis_is_the_grid():
    spec = SweepSpec(kind=SweepKind.SNR, start_db=10, stop_db=20, step_db=5)
    pts = sweep_snr(OwnMode.BEAMFORMING, 2, 2, 10.0, spec, rank=2)
    assert [p.x for p in pts] == [10.0, 15.0, 20.0]


def test_splitting_power_across_ibs_erodes_the_gain():
    pts = sweep_interferer_count(OwnMode.BEAMFORMING, 2, 2, 15.0, 15.0, (1, 2, 3), rank=2)
    gains = [p.gain_db for p in pts]
    assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))
    assert gains[0] > gains[-1]


# --- lockstep inversion ---


def _bits(p: GainPoint):
    return p.threshold_rank1.hex(), p.threshold_rankr.hex()


@pytest.mark.parametrize("mode", [OwnMode.BEAMFORMING, OwnMode.OSTBC])
@pytest.mark.parametrize("n, inrs, snrs", [
    (2, (0.0, 15.0, 5.0), (5.0, 25.0, 10.0)),
    (4, (0.0, 15.0, 5.0), (5.0, 25.0, 10.0)),
    (8, (6.0, 9.0, 3.0), (10.0, 20.0, 10.0)),
])
def test_sweep_rows_are_the_bits_of_gain(mode, n, inrs, snrs):
    # every row of a sweep is inverted in the same calls as the others,
    # and must come out as if it had been inverted alone
    inr = SweepSpec(SweepKind.INR, *inrs)
    for p in sweep_inr(mode, n, n, 15.0, inr, n):
        assert _bits(p) == _bits(threshold_gain(mode, n, n, 15.0, p.x, n))
    snr = SweepSpec(SweepKind.SNR, *snrs)
    for p in sweep_snr(mode, n, n, 10.0, snr, n):
        assert _bits(p) == _bits(threshold_gain(mode, n, n, p.x, 10.0, n))
    for p in sweep_interferer_count(mode, n, n, 15.0, 12.0, (1, 2, 3), n):
        (q,) = sweep_interferer_count(mode, n, n, 15.0, 12.0, (int(p.x),), n)
        assert _bits(p) == _bits(q)


@pytest.mark.parametrize("mode", [OwnMode.BEAMFORMING, OwnMode.OSTBC], ids=["bf", "ostbc"])
@pytest.mark.parametrize("n_r, n_t", [(1, 2), (2, 2), (2, 4), (4, 2), (4, 4), (3, 8), (8, 8)])
@pytest.mark.parametrize("p", [1e-6, 0.01, 0.5, 1.0 - 1e-6])
def test_every_threshold_is_the_bits_of_its_one_row_inversion(mode, n_r, n_t, p):
    # both ranks of every point share one model and one inversion; each
    # threshold must come out as its rank's model of that point alone gives it
    def alone(snr_db, inr_db, count, rank):
        cfg = equal_power_config(mode, n_r, n_t, snr_db, inr_db, count, rank)
        return model_for(cfg).threshold(p).hex()

    for rank in sorted({2, n_t}):
        studies = [
            (threshold_gain(mode, n_r, n_t, 15.0, np.array([0.0, 10.0, 20.0]), rank, p),
             lambda x: (15.0, x, 1)),
            (sweep_snr(mode, n_r, n_t, 10.0, SweepSpec(SweepKind.SNR, 5.0, 25.0, 10.0), rank, p),
             lambda x: (x, 10.0, 1)),
            (sweep_interferer_count(mode, n_r, n_t, 15.0, 12.0, (1, 2, 3), rank, p),
             lambda x: (15.0, 12.0, int(x))),
        ]
        for points, axes in studies:
            for q in points:
                assert _bits(q) == (alone(*axes(q.x), 1), alone(*axes(q.x), rank)), (rank, q)


def test_long_sweeps_are_inverted_in_batches(monkeypatch):
    from ranksinr import sweeps

    spec = SweepSpec(SweepKind.INR, 0.0, 4.0, 1.0)
    whole = sweep_inr(OwnMode.OSTBC, 2, 2, 15.0, spec, 2)
    monkeypatch.setattr(sweeps, "POINTS_PER_BATCH", 2)
    assert [_bits(p) for p in sweep_inr(OwnMode.OSTBC, 2, 2, 15.0, spec, 2)] == [
        _bits(p) for p in whole]


# --- crossing search ---


def test_crossing_sits_above_ten_percent_outage():
    gamma_x, level = find_crossing(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, rank=2)
    assert level > 0.1
    cfg1 = equal_power_config(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, 1, 1)
    cfg2 = equal_power_config(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, 1, 2)
    m1, m2 = model_for(cfg1), model_for(cfg2)
    assert m1.outage(gamma_x) == pytest.approx(m2.outage(gamma_x), rel=1e-6)
    # below the crossing the spread interferer is milder, above it is worse
    assert m2.outage(0.5 * gamma_x) < m1.outage(0.5 * gamma_x)
    assert m2.outage(2.0 * gamma_x) > m1.outage(2.0 * gamma_x)


def test_crossing_search_refuses_rank_one():
    with pytest.raises(ConfigError, match="1% outage"):
        find_crossing(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, rank=1)


def bisect_crossing(m1, mr, rel_tol=1e-9):
    """Scalar doubling and bisection on the sign of mr - m1."""
    lo = m1.threshold(0.01)
    hi = lo
    while mr.outage(hi) - m1.outage(hi) <= 0:
        hi *= 2.0
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if mr.outage(mid) - m1.outage(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class CountingModel:
    """A model whose outage calls are counted."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def threshold(self, p):
        return self.model.threshold(p)

    def outage(self, g, **kw):
        self.calls += 1
        return self.model.outage(g, **kw)


@pytest.mark.parametrize(
    "mode, n_r, n_t, rank",
    [(OwnMode.BEAMFORMING, 2, 2, 2), (OwnMode.BEAMFORMING, 2, 4, 4),
     (OwnMode.BEAMFORMING, 4, 4, 4), (OwnMode.OSTBC, 2, 2, 2)],
)
def test_crossing_matches_bisection_with_few_evaluations(monkeypatch, mode, n_r, n_t, rank):
    from ranksinr import sweeps

    built = []

    def counting_model_for(cfg):
        built.append(CountingModel(model_for(cfg)))
        return built[-1]

    monkeypatch.setattr(sweeps, "model_for", counting_model_for)
    gamma_x, level = find_crossing(mode, n_r, n_t, 15.0, 10.0, rank)
    m1, mr = built
    # the rank-r outage is read once per difference evaluation
    assert mr.calls <= 10
    expect = bisect_crossing(m1.model, mr.model)
    assert gamma_x == pytest.approx(expect, rel=1e-9)
    assert level == pytest.approx(m1.model.outage(expect), rel=1e-8)
