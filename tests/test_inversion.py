"""Threshold inversion: secant-steered n-section on the x4 lattice bracket, rows in lockstep."""

import math

import numpy as np
import pytest

from ranksinr import bf, inversion, ostbc
from ranksinr.errors import NumericInstabilityError
from ranksinr.inversion import _nsection, clamp_probability, threshold_at_outage
from ranksinr.scenario import InterfererSpec, OwnMode, ScenarioConfig, Technique
from ranksinr.sweeps import threshold_gain

from conftest import REF_BF, REF_INTERFERERS, REF_OSTBC


def bisection(outage_fn, p_target, rel_tol=1e-10):
    """The x4 bracket growth and bisection inversion, one point per call."""
    lo = hi = 1.0
    while outage_fn(hi) < p_target:
        hi *= 4.0
    while outage_fn(lo) > p_target:
        lo /= 4.0
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if outage_fn(mid) < p_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


MODELS = {
    "bf-2x2": lambda: bf.from_config(REF_BF),
    "ostbc-2x2": lambda: ostbc.from_config(REF_OSTBC),
    "bf-4x4": lambda: bf.from_config(ScenarioConfig(
        n_r=4, n_t=4, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.BEAMFORMING,
        interferers=REF_INTERFERERS)),
    "ostbc-2x4-rank-4": lambda: ostbc.from_config(ScenarioConfig(
        n_r=2, n_t=4, noise_power=1.0, snr_db=5.0, own_mode=OwnMode.OSTBC,
        interferers=(InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING,
                                    inr_db=12.0, layers=4),))),
}


class Counting:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("p", [1e-4, 0.01, 0.5, 0.99])
def test_n_section_agrees_with_bisection(name, p):
    model = MODELS[name]()
    outage = Counting(model.outage)
    (thr,) = threshold_at_outage(outage, p)
    assert thr == pytest.approx(bisection(model.outage, p), rel=1e-10)
    # the bracket call and about three n-section calls; in the upper tail
    # the secant runs in log(1 - outage), so it is as good there
    assert outage.calls <= 5


def test_gain_takes_four_outage_calls_per_threshold(monkeypatch):
    outage = Counting(bf.BfModel.outage)
    monkeypatch.setattr(bf.BfModel, "outage", lambda self, *args: outage(self, *args))
    threshold_gain(OwnMode.BEAMFORMING, 4, 4, 15.0, 10.0, 4)
    assert outage.calls <= 10


@pytest.mark.parametrize("own_mode", [OwnMode.BEAMFORMING, OwnMode.OSTBC], ids=["bf", "ostbc"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_upper_tail_gain_takes_at_most_two_more_n_section_calls(n, own_mode, monkeypatch):
    # a full-rank interferer at 10 dB against a victim at 15 dB
    counters = []
    nsection = inversion._nsection

    def counting(outage_fn, *args):
        counters.append(Counting(outage_fn))
        return nsection(counters[-1], *args)

    monkeypatch.setattr(inversion, "_nsection", counting)

    def calls(p):
        counters.clear()
        threshold_gain(own_mode, n, n, 15.0, 10.0, n, p_star=p)
        return sum(c.calls for c in counters)

    at_one_percent = calls(0.01)
    for p in (0.99, 1.0 - 1e-6):
        assert calls(p) <= at_one_percent + 2, p


@pytest.mark.filterwarnings("error")
def test_outage_one_at_the_high_end_falls_back_to_the_geometric_midpoint():
    # above the median an outage of 1 at the bracket's top end gives no
    # secant in log(1 - outage): the window sits around sqrt(lo * hi)
    seen = []

    def step(g, rows):
        seen.append(g[0].copy())
        return np.where(g >= 0.3, 1.0, 0.5)

    (thr,) = _nsection(step, 0.9, (np.array([0.1]), np.array([1.0]), np.full(1, 0.5),
                                   np.ones(1)), 1e-10)
    assert thr == pytest.approx(0.3, rel=1e-10)
    assert np.sum(np.abs(seen[0] / math.sqrt(0.1) - 1.0) <= 0.2) >= 24


def test_target_beyond_the_inner_lattice():
    # a curve whose 1% point sits near 1e60, past the one-call bracket
    outage = Counting(lambda g, rows: -np.expm1(-g / 1e60))
    (thr,) = threshold_at_outage(outage, 0.01)
    assert thr == pytest.approx(-1e60 * math.log1p(-0.01), rel=1e-10)
    assert outage.calls <= 5


@pytest.mark.filterwarnings("error")
def test_outage_zero_at_the_low_end_falls_back_to_the_geometric_midpoint():
    # a step reads 0 below it: no secant, no log(0) warning, and the even
    # points alone still shrink the bracket 9x per call
    (thr,) = threshold_at_outage(lambda g, rows: (g >= 0.3).astype(float), 0.5)
    assert thr == pytest.approx(0.3, rel=1e-10)


@pytest.mark.parametrize("value, message", [(0.0, "reaches"), (1.0, "stays under")])
def test_no_bracket_raises(value, message):
    with pytest.raises(NumericInstabilityError, match=message):
        threshold_at_outage(lambda g, rows: np.full(np.shape(g), value), 0.01)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, float("nan")])
def test_target_outside_unit_interval(p):
    with pytest.raises(ValueError):
        threshold_at_outage(lambda g, rows: g, p)


def test_clamp_probability_on_arrays():
    assert clamp_probability(1.0 + 1e-12) == 1.0
    out = clamp_probability(np.array([-1e-12, 0.5, 1.0 + 1e-12]))
    assert out.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(NumericInstabilityError, match="1.001"):
        clamp_probability(np.array([0.5, 1.001]))
    with pytest.raises(NumericInstabilityError):
        clamp_probability(float("nan"))


def test_tolerance_below_resolution_still_terminates():
    # with rel_tol = 0 the bracket stops shrinking a few ulps wide
    def outage(g, rows):
        return -np.expm1(-g)

    bracket = (np.array([0.5]), np.array([1.0]), outage(np.array([0.5]), None),
               outage(np.array([1.0]), None))
    (thr,) = _nsection(outage, 0.5, bracket, 0.0)
    assert thr == pytest.approx(math.log(2.0), rel=1e-15)


# exponential CDFs whose 1% points sit on the inner lattice and past both
# of its ends (about 1e60, 1e-60 and 1e-100)
SCALES = np.array([1.0, 1e60, 3.0, 1e-60, 0.5, 1e-100])


def exponential_rows(g, rows):
    return -np.expm1(-g / SCALES[rows][:, None])


def test_batch_mixing_inner_and_outer_rows_gives_the_one_row_thresholds():
    outage = Counting(exponential_rows)
    thr = threshold_at_outage(outage, 0.01, SCALES.size)
    assert outage.calls <= 5
    for row, scale in enumerate(SCALES):
        (alone,) = threshold_at_outage(lambda g, rows: -np.expm1(-g / scale), 0.01)
        assert thr[row].hex() == alone.hex()
        assert thr[row] == pytest.approx(-scale * math.log1p(-0.01), rel=1e-10)


def test_converged_rows_drop_out():
    seen = []

    def outage(g, rows):
        seen.append(rows.tolist())
        return 0.5 + g - (1.0 + 1e-13 * (1.0 + rows[:, None]))

    # the last bracket is already 1e-10 wide, the middle one after one call
    lo, hi = np.ones(3), np.array([4.0, 1.0 + 1e-9, 1.0 + 1e-12])
    f_lo, f_hi = (outage(x[:, None], np.arange(3))[:, 0] for x in (lo, hi))
    seen.clear()
    thr = _nsection(outage, 0.5, (lo, hi, f_lo, f_hi), 1e-10)
    assert seen[:2] == [[0, 1], [0]] and all(rows == [0] for rows in seen[2:])
    assert thr[2] == 0.5 * (lo[2] + hi[2])
    assert thr[:2] == pytest.approx([1.0 + 1e-13, 1.0 + 2e-13], abs=1e-10)


@pytest.mark.parametrize("value, message", [(0.0, "reaches"), (1.0, "stays under")])
def test_one_row_without_bracket_refuses_the_batch(value, message):
    def outage(g, rows):
        out = exponential_rows(g, rows)
        out[rows == 2] = value
        return out

    with pytest.raises(NumericInstabilityError, match=message):
        threshold_at_outage(outage, 0.01, SCALES.size)
