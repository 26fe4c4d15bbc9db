"""Threshold inversion: Hermite-steered n-section on the x16 lattice bracket, rows in lockstep."""

import math

import numpy as np
import pytest

from ranksinr import bf, inversion, ostbc
from ranksinr.errors import NumericInstabilityError
from ranksinr.inversion import _end, _nsection, clamp_probability, threshold_at_outage
from ranksinr.scenario import InterfererSpec, OwnMode, ScenarioConfig, Technique
from ranksinr.sweeps import equal_power_config, model_for, threshold_gain

from conftest import REF_BF, REF_INTERFERERS, REF_OSTBC
from mp_sinr import reference_curves


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

    def __call__(self, *args, **kw):
        self.calls += 1
        return self.fn(*args, **kw)


def with_density(cdf, pdf):
    """An outage function of the inversion's form from a CDF and its density."""
    return lambda g, density=False: (cdf(g), pdf(g)) if density else cdf(g)


def step_at(edge, below):
    """A step from `below` to 1 at `edge`, its density 0 everywhere."""
    return with_density(lambda g: np.where(g >= edge, 1.0, below), np.zeros_like)


def ends(outage_fn, lo, hi):
    """The bracket (lo, hi) of one row, with the outage and density at each end."""
    out, pdf = outage_fn(np.array([lo, hi]), density=True)
    return [tuple(_end(x, f, d) for x, f, d in zip((lo, hi), out.tolist(), pdf.tolist()))]


# the absolute accuracy of each model's outage: the README's bound on the
# signed psi sum up to 4x4 for bf-4x4, a rounding of 1 for the others
ACCURACY = {"bf-4x4": 1e-13}


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("p", [1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 0.99, 1 - 1e-6])
def test_n_section_agrees_with_bisection(name, p):
    model = MODELS[name]()
    outage = Counting(model.outage)
    (thr,) = threshold_at_outage(outage, p)
    # where the outage's round-off, over its slope, moves the crossing by
    # more than the tolerance (bf-4x4 at 1e-6 and 1 - 1e-6: about 1e-8),
    # the two searches may settle on different crossings of the noise
    rel = max(1e-10, ACCURACY.get(name, 2.0**-52) / (thr * model.sinr_pdf(thr)))
    assert thr == pytest.approx(bisection(model.outage, p), rel=rel)
    # the bracket call and two n-section calls: the Hermite estimate in
    # log(-log(1 - outage)) is as good in either tail; where round-off
    # crosses the target more than once, one more call on a window around
    # the crossing of their least-squares line
    assert outage.calls <= (3 if rel == 1e-10 else 4)


def test_gain_takes_three_outage_calls_per_threshold(monkeypatch):
    # both ranks are inverted together, so a gain takes one threshold's calls
    for model_class, own_mode, n in ((bf.BfModel, OwnMode.BEAMFORMING, 4),
                                     (ostbc.OstbcModel, OwnMode.OSTBC, 2)):
        outage = Counting(model_class.outage)
        monkeypatch.setattr(model_class, "outage",
                            lambda self, *args, outage=outage, **kw: outage(self, *args, **kw))
        threshold_gain(own_mode, n, n, 15.0, 10.0, n)
        assert outage.calls <= 3, own_mode


def test_only_calls_that_leave_a_window_open_evaluate_the_density(monkeypatch):
    # the lattice and the first window need the densities at their
    # brackets' ends to steer the next window; the closing call does not
    flags = []
    outage = bf.BfModel.outage
    monkeypatch.setattr(bf.BfModel, "outage", lambda self, g, density=False: (
        flags.append(density), outage(self, g, density=density))[1])
    threshold_gain(OwnMode.BEAMFORMING, 2, 2, 15.0, 10.0, 2)
    assert flags == [True, True, False]


# the two 8x8 beamforming gain ops of the benchmark's sweeps workload at
# seed 3 (benchmarks/workloads.py): (SNR dB, INR dB, rank)
BENCHMARK_8X8_GAINS = ((18.5, 8.0, 8), (11.5, 0.0, 4))


@pytest.mark.parametrize("snr_db, inr_db, rank", BENCHMARK_8X8_GAINS)
def test_8x8_gain_thresholds_meet_the_target_at_50_digits(snr_db, inr_db, rank):
    # the noisiest curve: its round-off, about 1e-11, crosses the target
    # many times within a few tolerances, and its first crossing sits about
    # two tolerances low; the crossing kept must meet the benchmark's check
    # against the 50-digit outage
    point = threshold_gain(OwnMode.BEAMFORMING, 8, 8, snr_db, inr_db, rank)
    for r, thr in ((1, point.threshold_rank1), (rank, point.threshold_rankr)):
        cfg = equal_power_config(OwnMode.BEAMFORMING, 8, 8, snr_db, inr_db, 1, r)
        (out,), (pdf,) = reference_curves(cfg, [thr])
        assert abs(out - 0.01) <= 1e-12 + 1e-10 * thr * pdf, (r, thr, out)


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
    # an outage of 1 at the bracket's top end gives no u = log(-log(1 -
    # outage)) there, and a density of 0 no slope at the other: the window
    # sits around sqrt(lo * hi)
    seen = []
    step = step_at(0.3, 0.5)

    def outage(g, density=False):
        seen.append(g[0].copy())
        return step(g, density)

    (thr,) = _nsection(outage, 0.9, ends(step, 0.1, 1.0))
    assert thr == pytest.approx(0.3, rel=1e-10)
    offsets = np.abs(np.log(seen[0] / math.sqrt(0.1)))
    assert np.sum(offsets <= inversion.WINDOW_MAX * (1 + 1e-12)) >= 24


@pytest.mark.filterwarnings("error")
def test_outage_one_at_the_high_end_steers_by_the_low_end_tangent():
    # a Weibull curve, outage 1 - exp(-g^4): u = 4 log g is straight, and
    # at 16 the outage reads exactly 1, so the low end's tangent alone
    # steers the first window, around the crossing; the next holds it to
    # the tolerance
    weibull = Counting(with_density(lambda g: -np.expm1(-g**4),
                                    lambda g: 4.0 * g**3 * np.exp(-g**4)))
    p = 0.999
    bracket = ends(weibull, 1.0, 16.0)
    assert bracket[0][1][1] == 1.0 and bracket[0][1][2] is None
    weibull.calls = 0
    (thr,) = _nsection(weibull, p, bracket)
    assert thr == pytest.approx((-math.log1p(-p)) ** 0.25, rel=1e-10)
    assert weibull.calls == 2


def test_target_beyond_the_inner_lattice():
    # a curve whose 1% point sits near 1e60, past the one-call bracket:
    # the inner and an outer lattice call, then two n-section calls
    outage = Counting(with_density(lambda g: -np.expm1(-g / 1e60),
                                   lambda g: np.exp(-g / 1e60) / 1e60))
    (thr,) = threshold_at_outage(outage, 0.01)
    assert thr == pytest.approx(-1e60 * math.log1p(-0.01), rel=1e-10)
    assert outage.calls <= 4


@pytest.mark.filterwarnings("error")
def test_outage_zero_at_the_low_end_falls_back_to_the_geometric_midpoint():
    # a step reads 0 below it: no u, no log(0) warning, and the even
    # points alone still shrink the bracket 9x per call
    (thr,) = threshold_at_outage(step_at(0.3, 0.0), 0.5)
    assert thr == pytest.approx(0.3, rel=1e-10)


@pytest.mark.parametrize("value, message", [(0.0, "reaches"), (1.0, "stays under")])
def test_no_bracket_raises(value, message):
    with pytest.raises(NumericInstabilityError, match=message):
        threshold_at_outage(with_density(lambda g: np.full(np.shape(g), value), np.zeros_like),
                            0.01)


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


def test_tolerance_below_resolution_still_terminates(monkeypatch):
    # with a zero tolerance the bracket stops shrinking a few ulps wide
    monkeypatch.setattr(inversion, "THRESHOLD_REL_TOL", 0.0)
    outage = with_density(lambda g: -np.expm1(-g), lambda g: np.exp(-g))
    (thr,) = _nsection(outage, 0.5, ends(outage, 0.5, 1.0))
    assert thr == pytest.approx(math.log(2.0), rel=1e-15)


# exponential CDFs whose 1% points sit on the inner lattice and past both
# of its ends (about 1e60, 1e-60 and 1e-100)
SCALES = np.array([1.0, 1e60, 3.0, 1e-60, 0.5, 1e-100])
exponential_rows = with_density(lambda g: -np.expm1(-g / SCALES[:, None]),
                                lambda g: np.exp(-g / SCALES[:, None]) / SCALES[:, None])


def drawn_rows():
    """The outage of 16 rows of 4x4 BF victims, each at a drawn SNR under
    one 4-layer interferer at a drawn INR, and of each row's own model."""
    rng = np.random.default_rng(31)
    cfgs = [equal_power_config(OwnMode.BEAMFORMING, 4, 4, snr, inr, 1, 4)
            for snr, inr in rng.uniform((0.0, -5.0), (25.0, 15.0), (16, 2)).round(2).tolist()]
    return model_for(*cfgs).outage, [model_for(cfg).outage for cfg in cfgs]


def test_batch_mixing_inner_and_outer_rows_gives_the_one_row_thresholds():
    exponentials = [with_density(lambda g, s=scale: -np.expm1(-g / s),
                                 lambda g, s=scale: np.exp(-g / s) / s) for scale in SCALES]
    # rows past the inner lattice take one outer call more
    for (rows_fn, alone_fns), calls in (((exponential_rows, exponentials), 4), (drawn_rows(), 3)):
        outage = Counting(rows_fn)
        thr = threshold_at_outage(outage, 0.01, len(alone_fns))
        assert outage.calls <= calls
        # each row reads the bits it would read alone
        for row, alone_fn in enumerate(alone_fns):
            (alone,) = threshold_at_outage(alone_fn, 0.01)
            assert thr[row].hex() == alone.hex()
    assert threshold_at_outage(exponential_rows, 0.01, SCALES.size) == pytest.approx(
        -SCALES * math.log1p(-0.01), rel=1e-10)


def test_a_large_batch_gives_each_row_its_one_row_bits():
    # a sweep batch's size, 4x4 BF victims at drawn SNRs under one
    # interferer of a drawn rank at a drawn INR: every row is steered in
    # floats of its own
    rng = np.random.default_rng(47)
    draws = zip(rng.uniform(0.0, 25.0, 1024).round(2).tolist(),
                rng.uniform(-5.0, 15.0, 1024).round(2).tolist(), rng.integers(1, 5, 1024).tolist())
    cfgs = [equal_power_config(OwnMode.BEAMFORMING, 4, 4, snr, inr, 1, rank)
            for snr, inr, rank in draws]
    thr = model_for(*cfgs).threshold(0.01)
    assert [t.hex() for t in thr] == [model_for(cfg).threshold(0.01).hex() for cfg in cfgs]


def test_closed_brackets_ignore_their_new_values():
    # every call evaluates every row: the last bracket is already 1e-10
    # wide, the middle one after one call, and each keeps its ends from then
    seen = []

    def cdf(g):
        return 0.5 + g - (1.0 + 1e-13 * np.arange(1.0, 1.0 + g.shape[0])[:, None])

    def outage(g, density=False):
        seen.append(g.shape)
        return (cdf(g), np.ones_like(g)) if density else cdf(g)

    lo, hi = np.ones(3), np.array([4.0, 1.0 + 1e-9, 1.0 + 1e-12])
    f_lo, f_hi = (cdf(x[:, None])[:, 0] for x in (lo, hi))
    brackets = [(_end(*lo_end), _end(*hi_end)) for lo_end, hi_end in zip(
        zip(lo.tolist(), f_lo.tolist(), [1.0] * 3), zip(hi.tolist(), f_hi.tolist(), [1.0] * 3))]
    thr = _nsection(outage, 0.5, brackets)
    assert len(seen) >= 2 and all(shape == (3, inversion.SECTIONS) for shape in seen)
    assert thr[2] == 0.5 * (lo[2] + hi[2])
    assert thr[:2] == pytest.approx([1.0 + 1e-13, 1.0 + 2e-13], abs=1e-10)
    # the middle row alone, on its own curve, closes after one call
    alone_outage = Counting(with_density(lambda g: 0.5 + g - (1.0 + 2e-13), np.ones_like))
    (alone,) = _nsection(alone_outage, 0.5, brackets[1:2])
    assert alone_outage.calls == 1 and alone.hex() == thr[1].hex()


def test_rows_closing_after_different_call_counts_read_their_one_row_bits():
    # a 17-point rank-8 sweep-inr on an 8x8 beamforming victim: its outage
    # curve, whose round-off crosses the target many times, makes the rows
    # alone close after 4 or 5 calls, and the batch runs until the slowest
    # has
    cfgs = [equal_power_config(OwnMode.BEAMFORMING, 8, 8, 15.0, inr, 1, 8)
            for inr in np.arange(-10.0, 30.0 + 1e-9, 2.5).tolist()]
    alone = []
    for cfg in cfgs:
        outage = Counting(model_for(cfg).outage)
        alone.append((threshold_at_outage(outage, 0.01)[0], outage.calls))
    calls = [n for _, n in alone]
    assert min(calls) == 4 and max(calls) == 5
    outage = Counting(model_for(*cfgs).outage)
    thr = threshold_at_outage(outage, 0.01, len(cfgs))
    assert outage.calls == 5
    assert [t.hex() for t in thr] == [t.hex() for t, _ in alone]


@pytest.mark.parametrize("value, message", [(0.0, "reaches"), (1.0, "stays under")])
def test_one_row_without_bracket_refuses_the_batch(value, message):
    def outage(g, density=False):
        out = exponential_rows(g, density)
        (out[0] if density else out)[2] = value
        return out

    with pytest.raises(NumericInstabilityError, match=message):
        threshold_at_outage(outage, 0.01, SCALES.size)
