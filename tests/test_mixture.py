"""Partial-fraction mixture of the interference sum.

Oracles: hand-expanded two-term hypoexponential, the paper's term-by-term
Omega-tuple sum for the coefficients, direct convolution by quadrature,
simulated sums, and the sum-of-scales mean identity.
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from ranksinr.errors import DegenerateRatesError, EmptyMixtureError, NumericInstabilityError
from ranksinr.mixture import (
    MixtureSpec,
    build_mixture,
    cdf_y,
    group_rates,
    mean_y,
    pdf_y,
    sample_sum,
    xi_coefficients,
)
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
)

from conftest import REF_BF, ks_distance


def test_two_scale_hypoexponential_by_hand():
    # scales (2, 1): p(y) = e^{-y/2} - e^{-y}, hand partial fractions
    spec = build_mixture((2.0, 1.0))
    assert spec.xi[(1, 1)] == pytest.approx(2.0, rel=1e-12)
    assert spec.xi[(2, 1)] == pytest.approx(-1.0, rel=1e-12)
    y = np.linspace(0.0, 12.0, 60)
    assert pdf_y(y, spec) == pytest.approx(np.exp(-y / 2) - np.exp(-y), rel=1e-12)
    assert cdf_y(y, spec) == pytest.approx(
        1 - 2 * np.exp(-y / 2) + np.exp(-y), abs=1e-12
    )


def test_single_group_is_erlang():
    spec = build_mixture((3.0, 3.0, 3.0))
    assert spec.n_groups == 1
    assert spec.multiplicities == (3,)
    y = np.linspace(0.0, 30.0, 80)
    assert pdf_y(y, spec) == pytest.approx(
        stats.gamma.pdf(y, a=3, scale=3.0), abs=1e-12
    )


def test_convolution_quadrature_oracle():
    # three distinct scales plus one repeat; density from pairwise
    # numerical convolution must match the coefficient expansion
    rates = (5.0, 2.0, 2.0, 0.7)
    spec = build_mixture(rates)

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
    assert pdf_y(grid, spec) == pytest.approx(target, abs=5e-4)


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
    spec = xi_coefficients(rates, multiplicities)
    expect = omega_tuple_sum(rates, multiplicities)
    # hex compares every bit, the sign of zero included
    assert {k: v.hex() for k, v in spec.xi.items()} == {
        k: v.hex() for k, v in expect.items()
    }


def test_eight_by_eight_ostbc_with_eight_full_rank_sm_interferers():
    # 8 groups of 64 equal terms: Omega holds about 1e10 tuples in all,
    # out of reach of term-by-term summation
    cfg = ScenarioConfig(
        n_r=8, n_t=8, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC,
        interferers=tuple(
            InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING,
                           inr_db=float(inr), layers=8)
            for inr in range(1, 9)
        ),
    )
    spec = xi_coefficients(*group_rates(build_rate_set(cfg)))
    assert spec.multiplicities == (64,) * 8
    assert len(spec.xi) == 512
    assert all(math.isfinite(v) for v in spec.xi.values())


def test_grouping_reference_powers_stay_distinct():
    scales, counts = group_rates((10.0, 6.31, 3.98))
    assert scales == pytest.approx((10.0, 6.31, 3.98), rel=1e-14)
    assert counts == (1, 1, 1)


def test_grouping_merges_near_ties_power_weighted():
    scales, counts = group_rates((5.0, 5.0 * (1 + 1e-12), 1.0))
    assert counts == (2, 1)
    assert scales[0] == pytest.approx(5.0, rel=1e-9)
    assert scales[1] == 1.0
    # above tolerance the pair must stay split
    scales2, counts2 = group_rates((5.0, 5.0 * 1.001, 1.0))
    assert counts2 == (1, 1, 1)


def silent_build(rates) -> MixtureSpec:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build_mixture(rates)


def test_epsilon_split_continuity():
    # grouped evaluation works; a barely-split pair, conditioning 1e-7,
    # builds but its pdf and cdf are refused, not answered inaccurately
    y = np.linspace(0.05, 30.0, 40)
    merged = silent_build((4.0, 4.0, 1.0))
    assert np.all(np.isfinite(pdf_y(y, merged)))
    split = silent_build((4.0 * (1 + 1e-7), 4.0, 1.0))
    assert split.n_groups == 3
    with pytest.raises(NumericInstabilityError, match="conditioning"):
        pdf_y(y, split)
    with pytest.raises(NumericInstabilityError, match="conditioning"):
        cdf_y(y, split)


def test_conditioning_refusal_on_close_groups():
    spec = silent_build((1.0, 1.0005))
    assert spec.conditioning < 1e-3
    with pytest.raises(NumericInstabilityError, match="conditioning"):
        pdf_y(1.0, spec)
    with pytest.raises(NumericInstabilityError, match="conditioning"):
        cdf_y(1.0, spec)


def test_degenerate_rates_error():
    with pytest.raises(DegenerateRatesError):
        xi_coefficients((2.0, 2.0), (1, 1))


def test_empty_rates_rejected():
    with pytest.raises(EmptyMixtureError):
        build_mixture(())
    with pytest.raises(EmptyMixtureError):
        sample_sum((), 10, np.random.default_rng(0))


def test_mean_matches_sum_of_scales():
    rates = build_rate_set(REF_BF)
    spec = build_mixture(rates)
    assert mean_y(spec) == pytest.approx(sum(rates), rel=1e-9)


def test_pdf_integrates_to_one_reference():
    spec = build_mixture(build_rate_set(REF_BF))
    val, err = integrate.quad(lambda t: pdf_y(t, spec), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_cdf_consistent_with_pdf():
    spec = build_mixture((3.0, 1.0, 0.25))
    for y0 in (0.5, 2.0, 10.0):
        val, _ = integrate.quad(lambda t: pdf_y(t, spec), 0.0, y0, limit=200)
        assert cdf_y(y0, spec) == pytest.approx(val, abs=1e-10)


def test_sampled_sums_match_cdf():
    rates = build_rate_set(REF_BF)
    spec = build_mixture(rates)
    rng = np.random.default_rng(77)
    samples = np.sort(sample_sum(rates, 400_000, rng))
    ks = ks_distance(samples, cdf_y(samples, spec))
    assert ks < 0.005, f"KS = {ks:.5f}"


def test_xi_sum_is_one():
    for rates in [(2.0, 1.0), (5.0, 2.0, 2.0, 0.7), build_rate_set(REF_BF)]:
        assert build_mixture(rates).xi_sum() == pytest.approx(1.0, abs=1e-9)
