"""Partial-fraction mixture of the interference sum.

Oracles: hand-expanded two-term hypoexponential, the paper's term-by-term
Omega-tuple sum for the coefficients, the same series product run in
mpmath and Y's law from it at 200 digits or more, direct convolution by
quadrature, simulated sums, and the sum-of-scales mean identity.
"""

import dataclasses
import itertools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

from ranksinr import bf, mixture, ostbc
from ranksinr.engine import SinrModel
from ranksinr.errors import ConfigError, NumericInstabilityError, RankSinrError
from ranksinr.mixture import MixtureSpec, build_mixture, cdf_y, count_rates, pdf_y
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
)

from conftest import REF_BF, REF_OSTBC, ks_distance
from oracles import MpMixture, law_gaps, sample_sum, xi_rounded


def test_two_scale_hypoexponential_by_hand():
    # scales (2, 1): p(y) = e^{-y/2} - e^{-y}, hand partial fractions
    spec = build_mixture((2.0, 1.0))
    assert spec.xi[(1, 1)] == pytest.approx(2.0, rel=1e-12)
    assert spec.xi[(2, 1)] == pytest.approx(-1.0, rel=1e-12)
    y = np.linspace(0.0, 12.0, 60)
    assert pdf_y(y, (2.0, 1.0)) == pytest.approx(np.exp(-y / 2) - np.exp(-y), rel=1e-12)
    assert cdf_y(y, (2.0, 1.0)) == pytest.approx(
        1 - 2 * np.exp(-y / 2) + np.exp(-y), abs=1e-12
    )
    for law in (pdf_y, cdf_y):
        with pytest.raises(ValueError, match="finite"):
            law(np.inf, (2.0, 1.0))
        # -0.0 once read log(-inf) and a subnormal y overflowed n/y, each a
        # RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert law(-0.0, (2.0, 1.0)) == law(0.0, (2.0, 1.0))
            assert law(5e-324, (2.0, 1.0)) == pytest.approx(law(0.0, (2.0, 1.0)), abs=1e-300)
        with pytest.raises(ConfigError):
            law(1.0, ())


def test_single_group_is_erlang():
    spec = build_mixture((3.0, 3.0, 3.0))
    assert spec.n_groups == 1
    assert spec.multiplicities == (3,)
    y = np.linspace(0.0, 30.0, 80)
    assert pdf_y(y, (3.0, 3.0, 3.0)) == pytest.approx(
        stats.gamma.pdf(y, a=3, scale=3.0), abs=1e-12
    )


def test_convolution_quadrature_oracle():
    # three distinct scales plus one repeat; density from pairwise
    # numerical convolution must match the coefficient expansion
    rates = (5.0, 2.0, 2.0, 0.7)

    def conv(f, g, grid):
        out = np.empty_like(grid)
        for idx, y in enumerate(grid):
            if y == 0:
                out[idx] = 0.0
                continue
            t = np.linspace(0.0, y, 2001)
            out[idx] = np.trapezoid(f(t) * g(y - t), t)
        return out

    grid = np.linspace(0.0, 40.0, 81)
    f12 = lambda t: stats.gamma.pdf(t, a=1, scale=5.0)
    f3 = lambda t: stats.gamma.pdf(t, a=2, scale=2.0)
    f4 = lambda t: stats.gamma.pdf(t, a=1, scale=0.7)
    inner_grid = np.linspace(0.0, 60.0, 1201)
    inner = conv(f12, f3, inner_grid)
    from scipy.interpolate import interp1d

    f123 = interp1d(inner_grid, inner, bounds_error=False, fill_value=0.0)
    target = conv(f123, f4, grid)
    assert pdf_y(grid, rates) == pytest.approx(target, abs=5e-4)


def raw(rates, multiplicities):
    """The raw rate set of groups: each rate repeated by its multiplicity."""
    return [r for r, beta in zip(rates, multiplicities) for _ in range(beta)]


def omega_tuple_sum(rates, multiplicities):
    """Xi_ij summed term by term over Omega(i, j), the paper's form.

    Omega(i, j) holds the tuples (q_1..q_G) with q_i = 0 and
    sum q = beta_i - j; each contributes prod_{k != i}
    C(beta_k+q_k-1, q_k) r_k^q_k / (1 - r_k)^(beta_k+q_k), r_k = rho_k/rho_i.
    """
    g = len(rates)
    xi = {}
    with mpmath.workdps(40):
        for i in range(g):
            beta_i = multiplicities[i]
            for j in range(1, beta_i + 1):
                budget = beta_i - j
                total = mpmath.mpf(0)
                for q in itertools.product(range(budget + 1), repeat=g):
                    if q[i] or sum(q) != budget:
                        continue
                    prod = mpmath.mpf(1)
                    for k in range(g):
                        if k == i:
                            continue
                        r = mpmath.mpf(rates[k]) / mpmath.mpf(rates[i])
                        prod *= (math.comb(multiplicities[k] + q[k] - 1, q[k])
                                 * r ** q[k] / (1 - r) ** (multiplicities[k] + q[k]))
                    total += prod
                sign = -1 if (beta_i + j) % 2 else 1
                xi[(i + 1, j)] = float(sign * total)
    return xi


@pytest.mark.parametrize(
    "rates, multiplicities",
    [
        ((3.0,), (1,)),
        ((3.0,), (8,)),
        ((5.0, 2.0), (3, 5)),
        ((0.5, 2.0), (8, 1)),
        ((10.0, 6.31, 3.98), (1, 2, 8)),
        ((1.0, 0.7, 0.45, 0.2), (2, 7, 3, 5)),
        ((4.0, 2.5, 1.2, 0.3), (8, 8, 8, 8)),
        # near tie: conditioning 1e-4
        ((2.0 * (1 + 1e-4), 2.0, 0.5), (4, 3, 2)),
        ((3.0, 1.0, 1.0 * (1 - 1e-4), 0.1), (2, 5, 6, 3)),
    ],
    ids=["g1-order1", "g1-order8", "g2", "g2-rising", "g3-reference-powers",
         "g4-mixed", "g4-order8", "g3-near-tie", "g4-near-tie"],
)
def test_series_matches_omega_tuple_sum_bit_for_bit(rates, multiplicities):
    spec = build_mixture(raw(rates, multiplicities))
    # the groups come back with their scales descending
    groups = sorted(zip(rates, multiplicities), reverse=True)
    assert list(zip(spec.rates, spec.multiplicities)) == groups
    expect = omega_tuple_sum(spec.rates, spec.multiplicities)
    # hex compares every bit, the sign of zero included
    assert {k: v.hex() for k, v in spec.xi.items()} == {
        k: v.hex() for k, v in expect.items()
    }


def assert_matches_mpmath_series(spec):
    # the series product in mpmath at 100 digits or more, correctly rounded
    assert {k: v.hex() for k, v in spec.xi.items()} == xi_rounded(spec.rates,
                                                                   spec.multiplicities)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.5), st.integers(1, 8)), min_size=1, max_size=5))
# scales 1 (x13) and 1 + 2^-51 (x8): two exact coefficients past the double range
@example(groups=[(0.0, 1), (0.0, 4), (0.0, 8), (2.220446049250313e-16, 8)])
def test_exact_series_matches_mpmath_series(groups):
    # scales 10^U(-1, 1.5); equal draws form one group, near-equal ones stay apart
    rates = [10.0**e for e, beta in groups for _ in range(beta)]
    spec = build_mixture(rates)
    expect = xi_rounded(spec.rates, spec.multiplicities)
    if "inf" in {v.lstrip("-") for v in expect.values()}:
        # an exact coefficient that rounds past the double range is refused
        with pytest.raises(NumericInstabilityError, match="past the double range"):
            spec.xi
    else:
        assert {k: v.hex() for k, v in spec.xi.items()} == expect


def test_rates_an_ulp_apart_give_correctly_rounded_coefficients():
    # 1 - rho_k/rho_i rounded to 40 digits once rounded Xi_11 to ...7p+309;
    # the exact series holds the gap rho_i - rho_k as an integer
    spec = build_mixture([1.0] * 3 + [1.0 + 2.0**-51] * 4)
    assert spec.xi[(1, 1)].hex() == "-0x1.4000000000008p+309"
    assert_matches_mpmath_series(spec)


@pytest.mark.parametrize("n_groups, beta", [(4, 64), (8, 32), (8, 64)])
def test_exact_series_matches_mpmath_series_at_large_sizes(n_groups, beta):
    # scales log-spaced over the drawn range 10^1.5 .. 10^-1
    rates = [10.0 ** (1.5 - 2.5 * i / (n_groups - 1)) for i in range(n_groups)]
    assert_matches_mpmath_series(build_mixture(raw(rates, (beta,) * n_groups)))


def config_groups(cfg):
    """The config's own rates, descending, and the count of each."""
    rates = build_rate_set(cfg)
    rho = sorted(set(rates), reverse=True)
    return tuple(rho), tuple(rates.count(r) for r in rho)


@pytest.mark.parametrize("cfg, expect", [
    (REF_BF, {(1, 1): "0x1.0f4bc24049ba7p+5", (2, 1): "-0x1.a5df296b96871p+4",
              (2, 2): "-0x1.95f9ff32aaebcp+2", (3, 1): "-0x1.9ceda429196e7p-3"}),
    (REF_OSTBC, {(1, 1): "-0x1.20e3fd4166c68p+16", (1, 2): "0x1.ee94bd44d2985p+11",
                 (2, 1): "0x1.2271307aa00fap+15", (2, 2): "0x1.b84be75a74716p+13",
                 (2, 3): "0x1.3fc08e71dd4d8p+9", (2, 4): "0x1.5f055dce281edp+8",
                 (3, 1): "0x1.0a9a25a4e5b70p+14", (3, 2): "0x1.5499255b25a7ep+9"}),
], ids=["bf-2x2", "ostbc-2x2"])
def test_reference_mix_coefficients_bit_for_bit(cfg, expect):
    # the groups are the config's own rates, and the coefficients are the
    # paper's tuple sum on them, rounded once
    spec = build_mixture(build_rate_set(cfg))
    assert (spec.rates, spec.multiplicities) == config_groups(cfg)
    hexes = {k: v.hex() for k, v in spec.xi.items()}
    assert hexes == {k: v.hex() for k, v in omega_tuple_sum(*config_groups(cfg)).items()}
    assert hexes == expect


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("receiver", [bf, ostbc])
def test_model_mixture_reads_the_same_coefficients(receiver, n):
    base = REF_BF if receiver is bf else REF_OSTBC
    cfg = dataclasses.replace(base, n_r=n, n_t=n)
    mix = receiver.from_config(cfg).mixture
    assert (mix.rates, mix.multiplicities) == config_groups(cfg)
    assert {k: v.hex() for k, v in mix.xi.items()} == xi_rounded(*config_groups(cfg))


def test_eight_by_eight_ostbc_with_eight_full_rank_sm_interferers():
    # 8 groups of 64 equal terms: Omega holds about 1e10 tuples in all,
    # out of reach of term-by-term summation.  sum|Xi| is about 1e67, and
    # 40-digit arithmetic rounded 50 of the 512 coefficients wrongly
    cfg = ScenarioConfig(
        n_r=8, n_t=8, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC,
        interferers=tuple(
            InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING,
                           inr_db=float(inr), layers=8)
            for inr in range(1, 9)
        ),
    )
    spec = build_mixture(build_rate_set(cfg))
    assert spec.multiplicities == (64,) * 8
    assert len(spec.xi) == 512
    assert_matches_mpmath_series(spec)
    assert spec.xi_sum() == 1.0


def test_grouping_reference_powers_stay_distinct():
    assert count_rates((10.0, 6.31, 3.98)) == ((3.98, 6.31, 10.0), (1, 1, 1))


def test_grouping_counts_only_exact_ties():
    # a near tie stays two groups, each at its own rate: a merge moved even
    # exactly equal rates by an ulp
    near = 5.0 * (1 + 1e-12)
    assert count_rates((5.0, near, 1.0, 5.0)) == ((1.0, 5.0, near), (1, 2, 1))
    spec = build_mixture((5.0, near, 1.0, 5.0))
    assert (spec.rates, spec.multiplicities) == ((near, 5.0, 1.0), (1, 2, 1))
    assert spec.conditioning == 1.0 - 5.0 / near


def test_count_rates_gives_the_values_and_order_of_np_unique():
    # the engine reads these into its tables, so its bits hang on them
    rng = np.random.default_rng(5)
    for _ in range(200):
        rates = rng.choice(10.0 ** rng.uniform(-3.0, 3.0, 4), size=rng.integers(1, 9))
        rho, c = np.unique(rates, return_counts=True)
        expect = (tuple(rho.tolist()), tuple(c.tolist()))
        assert count_rates(rates) == count_rates(rates.tolist()) == expect
    assert count_rates(()) == ((), ())


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_invalid_rates_are_refused(bad):
    # one rule for every reader of a rate set: the mixture and both laws
    # here, each row of a model in test_engine
    rates = (2.0, bad)
    with pytest.raises(ValueError, match=r"rates must be positive and finite"):
        build_mixture(rates)
    for law in (pdf_y, cdf_y):
        with pytest.raises(ValueError, match=r"rates must be positive and finite"):
            law(1.0, rates)


@pytest.mark.parametrize("rates, message", [
    ("12", "rates must be a list, tuple or 1-d array of rates, got '12'"),
    ("1e3", "rates must be a list, tuple or 1-d array"),
    ({1.0: 2}, "rates must be a list, tuple or 1-d array"),
    (2.0, "rates must be a list, tuple or 1-d array"),
    (None, "rates must be a list, tuple or 1-d array"),
    (np.array([[1.0, 2.0]]), "rates must be a list, tuple or 1-d array"),
    ([True, 2.0], "every entry of rates must be a number, got True"),
    ([[1.0, 2.0]], r"every entry of rates must be a number, got \[1\.0, 2\.0\]"),
    ([1j], r"every entry of rates must be a number, got 1j"),
], ids=["str", "str-number", "mapping", "scalar", "none", "2-d-array", "bool", "nested",
        "complex"])
def test_a_rate_set_is_a_flat_sequence_of_real_numbers(rates, message):
    # "12" and [True, 2.0] read the law of the rates (1, 2), {1.0: 2} its
    # keys; "1e3" raised ValueError, the others TypeError
    with pytest.raises(ConfigError, match=message):
        count_rates(rates)
    for law in (pdf_y, cdf_y):
        with pytest.raises(ConfigError, match=message):
            law(1.0, rates)
    with pytest.raises(ConfigError, match="rates of row 0"):
        SinrModel({(1, 3): 1}, 4.0, rates)


def test_cdf_stays_at_most_one_past_the_mean():
    # the count series' cdf summed a few ulps past 1, and the cdf of Y
    # read up to 1 + 7.3e-15 far past its mean
    y = np.geomspace(1e-3, 1e300, 601)
    for rates in ((30.0, 0.001), (5.0, 0.01)):
        cdf = cdf_y(y, rates)
        assert cdf.max() == 1.0 and np.all(np.diff(cdf) >= 0)


def silent_build(rates) -> MixtureSpec:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build_mixture(rates)


def test_epsilon_split_continuity():
    # a barely-split pair, conditioning 1e-7, where the Xi coefficients
    # cancel (sum|Xi| = 2.67e7): the laws over the raw rates answer it, and
    # differ from the merged pair's by O(1e-7)
    y = np.linspace(0.05, 30.0, 40)
    merged, split = (4.0, 4.0, 1.0), (4.0 * (1 + 1e-7), 4.0, 1.0)
    assert silent_build(split).n_groups == 3
    for law in (pdf_y, cdf_y):
        assert law(y, split) == pytest.approx(law(y, merged), rel=1e-6)
    cdf_rel, pdf_peak, pdf_rel = law_gaps(split, y, pdf_y, cdf_y)
    assert max(cdf_rel, pdf_peak, pdf_rel) <= 1e-12


def test_close_groups_are_answered_accurately():
    # groups 5e-4 apart, sum|Xi| = 4.0e3
    rates = (1.0, 1.0005)
    assert silent_build(rates).conditioning < 1e-3
    cdf_rel, pdf_peak, pdf_rel = law_gaps(rates, np.linspace(0.0, 12.0, 241), pdf_y, cdf_y)
    assert max(cdf_rel, pdf_peak, pdf_rel) <= 1e-12


def test_pdf_near_its_peak_on_the_2x4_ostbc_12_4_9_mix():
    # the Xi form read 1.11e-12 of the peak off at y = 0.164 here
    # (sum|Xi| = 1.85e3); the count series is held to the laws' bar
    cfg = ScenarioConfig(
        n_r=2, n_t=4, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC,
        interferers=(InterfererSpec(technique=Technique.OSTBC, inr_db=12.0),
                     InterfererSpec(technique=Technique.BEAMFORMING, inr_db=4.0),
                     InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING,
                                    inr_db=9.0, layers=2)),
    )
    rates = build_rate_set(cfg)
    y = np.linspace(0.0, 6.0 * sum(rates), 241)
    assert 0.16 < y[1] < 0.17
    cdf_rel, pdf_peak, pdf_rel = law_gaps(rates, y, pdf_y, cdf_y)
    assert max(cdf_rel, pdf_peak, pdf_rel) <= 1e-12


@pytest.mark.parametrize("rates", [
    # 4-layer SM at 30 and -10 dB at a 4x4 OSTBC victim: a 40 dB INR spread,
    # about 8e5 terms of K
    (1000.0 / 64,) * 16 + (0.1 / 64,) * 16,
    # 64 rates 1..20, 8 each: prod (b/rho)^c = 1.2e-333 underflows
    tuple(np.repeat(np.geomspace(1.0, 20.0, 64), 8)),
], ids=["40-db-spread", "64-rates-p0-underflows"])
def test_wide_spreads_and_underflowing_p0_are_answered(rates):
    y = np.linspace(0.0, 3.0 * sum(rates), 13)
    law = MpMixture(rates)
    pdf_ref, cdf_ref = np.array([law.law(v) for v in y]).T
    cdf = cdf_y(y, rates)
    assert np.max(np.abs(cdf - cdf_ref)) <= 1e-12
    assert np.max(np.abs(pdf_y(y, rates) - pdf_ref)) <= 1e-12 * np.max(pdf_ref)
    assert np.all(np.diff(cdf) >= 0) and cdf[0] == 0.0 and cdf[-1] <= 1.0


def test_a_series_past_the_cap_is_refused_before_it_runs():
    # K is geometric with q = 1 - 1.1e-6 and needs about 3.7e7 terms; the
    # series once ran to its 2^22-term cap, 1.8 s and 130 MB, to refuse
    for law in (pdf_y, cdf_y):
        start = time.perf_counter()
        with pytest.raises(RankSinrError, match="needs more than 4194304 terms of its count series"):
            law(1.0, [9.0, 1e-5])
        assert time.perf_counter() - start < 0.1
    # rates 1e5 apart stop at 4.16e6 terms, just inside the cap
    assert not mixture._past_the_cap((1.0, 1e5), (1, 1))
    # neighbouring doubles, whose logs round equal, are answered
    for b in (30.0, 1e300):
        assert 0.0 < cdf_y(b, [b, math.nextafter(b, math.inf)]) < 1.0


def test_the_cap_refuses_up_front_only_series_that_would_pass_it(monkeypatch):
    # at a cap of 2^12 terms: a geometric K with rates 95 apart stops at
    # about 3950 terms, 120 apart it would need about 5000
    monkeypatch.setattr(mixture, "MAX_COUNT_TERMS", 2**12)
    series = mixture._count_law.__wrapped__
    series((1.0, 95.0), (1, 1))
    with pytest.raises(RankSinrError, match="needs more than 4096 terms"):
        series((1.0, 120.0), (1, 1))
    # the series run in full, beside the bound that refuses up front
    past_the_cap = mixture._past_the_cap
    monkeypatch.setattr(mixture, "_past_the_cap", lambda rho, c: False)
    seen = set()
    for ratio in np.geomspace(20.0, 800.0, 9):
        for rho, c in [((1.0, ratio), (1, 1)), ((1.0, ratio), (4, 1)), ((1.0, ratio), (1, 4)),
                       ((1.0, 3.0, ratio), (2, 3, 1)), ((1.0, ratio / 2, ratio), (1, 1, 2))]:
            refused = past_the_cap(rho, c)
            try:
                series(rho, c)
                answered = True
            except RankSinrError:
                answered = False
            assert not (refused and answered), (rho, c)
            seen.add((refused, answered))
    # both cases occur: refused up front, and answered
    assert {(True, False), (False, True)} <= seen


def test_laws_answer_past_the_double_range_of_y_over_b():
    # y/b, and the window ends around it, once overflowed
    assert cdf_y([1e307, 1e308], (1.0, 2.0)).tolist() == [1.0, 1.0]
    assert pdf_y([1e307, 1e308], (1.0, 2.0)).tolist() == [0.0, 0.0]
    tiny = (2.2250738585e-313,) * 2
    assert cdf_y([0.0, 1.0], tiny).tolist() == [0.0, 1.0]
    with pytest.raises(NumericInstabilityError, match="density of Y overflows double precision"):
        pdf_y(0.0, tiny)


def test_empty_rates_rejected():
    with pytest.raises(ConfigError):
        build_mixture(())
    with pytest.raises(ConfigError):
        sample_sum((), 10, np.random.default_rng(0))


def test_mean_matches_sum_of_scales():
    rates = build_rate_set(REF_BF)
    rho, jj, xi = build_mixture(rates).terms()
    assert float(np.sum(xi * jj * rho)) == pytest.approx(sum(rates), rel=1e-9)


def test_pdf_integrates_to_one_reference():
    rates = build_rate_set(REF_BF)
    val, err = integrate.quad(lambda t: pdf_y(t, rates), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_cdf_consistent_with_pdf():
    rates = (3.0, 1.0, 0.25)
    for y0 in (0.5, 2.0, 10.0):
        val, _ = integrate.quad(lambda t: pdf_y(t, rates), 0.0, y0, limit=200)
        assert cdf_y(y0, rates) == pytest.approx(val, abs=1e-10)


def test_sampled_sums_match_cdf():
    rates = build_rate_set(REF_BF)
    rng = np.random.default_rng(77)
    samples = np.sort(sample_sum(rates, 400_000, rng))
    ks = ks_distance(samples, cdf_y(samples, rates))
    assert ks < 0.005, f"KS = {ks:.5f}"


def test_xi_sum_is_one():
    # the exact sum of the exact coefficients, also where they cancel to
    # sum|Xi| = 1.5e5 (2x2 OSTBC) and for a pair 2e-16 apart
    for rates in [(2.0, 1.0), (5.0, 2.0, 2.0, 0.7), build_rate_set(REF_BF),
                  build_rate_set(REF_OSTBC), (1.0, 1.0 + 2.0**-52, 3.0)]:
        assert build_mixture(rates).xi_sum() == 1.0


def test_a_coefficient_past_the_double_range_is_named():
    # three groups of 64 a relative 2e-9 apart: Xi_11 is about 1e1686
    spec = build_mixture([1.0] * 64 + [1.0 + 2e-9] * 64 + [1.0 + 4e-9] * 64)
    with pytest.raises(NumericInstabilityError,
                       match=r"^the Xi coefficient of group 1, order 1 is past the double range$"):
        spec.xi
    with pytest.raises(NumericInstabilityError):
        spec.terms()
    assert spec.xi_sum() == 1.0
