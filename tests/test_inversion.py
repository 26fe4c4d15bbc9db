"""Threshold inversion: n-section on the x4 lattice bracket."""

import math

import numpy as np
import pytest

from ranksinr import bf, ostbc
from ranksinr.errors import NumericInstabilityError
from ranksinr.inversion import _nsection, clamp_probability, threshold_at_outage
from ranksinr.scenario import InterfererSpec, OwnMode, ScenarioConfig, Technique

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

    def __call__(self, g):
        self.calls += 1
        return self.fn(g)


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("p", [1e-4, 0.01, 0.5, 0.99])
def test_n_section_agrees_with_bisection(name, p):
    model = MODELS[name]()
    outage = Counting(model.outage)
    thr = threshold_at_outage(outage, p)
    assert thr == pytest.approx(bisection(model.outage, p), rel=1e-10)
    assert outage.calls <= 10


def test_target_beyond_the_inner_lattice():
    # a curve whose 1% point sits near 1e60, past the one-call bracket
    outage = Counting(lambda g: -np.expm1(-np.asarray(g) / 1e60))
    thr = threshold_at_outage(outage, 0.01)
    assert thr == pytest.approx(-1e60 * math.log1p(-0.01), rel=1e-10)
    assert outage.calls <= 10


@pytest.mark.parametrize("value, message", [(0.0, "reaches"), (1.0, "stays under")])
def test_no_bracket_raises(value, message):
    with pytest.raises(NumericInstabilityError, match=message):
        threshold_at_outage(lambda g: np.full(np.shape(g), value), 0.01)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, float("nan")])
def test_target_outside_unit_interval(p):
    with pytest.raises(ValueError):
        threshold_at_outage(lambda g: g, p)


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
    thr = _nsection(lambda g: -np.expm1(-g) >= 0.5, 0.5, 1.0, 0.0)
    assert thr == pytest.approx(math.log(2.0), rel=1e-15)
