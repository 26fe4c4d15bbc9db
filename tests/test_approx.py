"""Projection-term approximation chain for OSTBC interference.

Stages: exact joint simulation of |c^H u|^2 / ||H||_F^2, the
independence approximation as an exp x beta product, and the final
mean-matched exponential.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ranksinr import approx, montecarlo
from ranksinr.approx import (
    ProductDistribution,
    compare_chain,
    exp_approx_pdf,
    product_pdf,
    simulate_exact_terms,
)
from ranksinr.errors import ConfigError, UnsupportedDimensionError
from ranksinr.montecarlo import chunk_draws, complex_normal

from conftest import ks_distance
from oracles import product_mean_quadrature, product_pdf_mp, sample_product, serial_chunks


def test_dimension_validation():
    with pytest.raises(UnsupportedDimensionError):
        ProductDistribution(n_r=0, n_t=2, n_l=1)
    with pytest.raises(UnsupportedDimensionError):
        ProductDistribution(n_r=2, n_t=2, n_l=3)  # n_l capped by n_t
    with pytest.raises(UnsupportedDimensionError):
        ProductDistribution(n_r=2, n_t=9, n_l=1)


def test_dimensions_follow_the_one_integer_rule():
    pd = ProductDistribution(n_r=np.int64(2), n_t=np.int32(4), n_l=np.uint8(2))
    assert pd == ProductDistribution(n_r=2, n_t=4, n_l=2)
    assert {type(pd.n_r), type(pd.n_t), type(pd.n_l)} == {int}
    for bad in (True, 2.0):
        with pytest.raises(UnsupportedDimensionError):
            ProductDistribution(n_r=bad, n_t=2, n_l=1)
        with pytest.raises(UnsupportedDimensionError):
            ProductDistribution(n_r=2, n_t=2, n_l=bad)


@pytest.mark.parametrize("x", [math.nan, -1.0, math.inf, True, "1", None])
def test_densities_follow_the_point_rule(x):
    # exp_approx_pdf once read NaN as 0.0, and product_pdf raised
    # OverflowError at NaN
    with pytest.raises(ConfigError, match="x must be finite and >= 0"):
        exp_approx_pdf(x, 2, 1)
    with pytest.raises(ConfigError, match="x must be finite and >= 0"):
        product_pdf(x, ProductDistribution(n_r=2, n_t=2, n_l=1))


@pytest.mark.parametrize("n_t, n_l", [(0, 1), (2, 0), (9, 1), (2.0, 1), (2, True), ("2", 1)])
def test_exp_approx_counts_follow_the_one_integer_rule(n_t, n_l):
    # a count of 0 once gave a density of 0.0
    with pytest.raises(UnsupportedDimensionError):
        exp_approx_pdf(1.0, n_t, n_l)


def test_exp_approx_reads_numpy_counts_and_integer_points():
    x = np.linspace(0.0, 2.0, 5)
    assert (exp_approx_pdf(x, np.int64(2), np.uint8(2)).tobytes()
            == exp_approx_pdf(x, 2, 2).tobytes())
    assert exp_approx_pdf(1, 2, 2) == exp_approx_pdf(1.0, 2, 2)


def test_mean_by_quadrature_matches_closed_value():
    for n_r in (1, 2, 3, 4):
        for n_t in (1, 2, 3, 4):
            for n_l in range(1, n_t + 1):
                pd = ProductDistribution(n_r=n_r, n_t=n_t, n_l=n_l)
                assert product_mean_quadrature(pd) == pytest.approx(
                    1.0 / (n_t * n_l), abs=1e-9
                )
                assert pd.mean == pytest.approx(1.0 / (n_t * n_l), rel=1e-15)


@pytest.mark.parametrize("n_r,n_t,n_l", [(2, 2, 2), (1, 3, 2), (4, 4, 1)])
def test_product_pdf_integrates_to_one(n_r, n_t, n_l):
    pd = ProductDistribution(n_r=n_r, n_t=n_t, n_l=n_l)
    val, _ = integrate.quad(
        lambda x: float(product_pdf(x, pd)), 0.0, np.inf, limit=300
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_density_at_origin():
    # single receive antenna: beta factor diverges at 0
    assert np.isinf(product_pdf(0.0, ProductDistribution(n_r=1, n_t=2, n_l=1)))
    pd = ProductDistribution(n_r=2, n_t=2, n_l=1)
    # finite limit: n_l * B(a-1,b)/B(a,b)
    from scipy.special import beta as beta_fn

    expected = 1.0 * beta_fn(1, 2) / beta_fn(2, 2)
    assert product_pdf(0.0, pd) == pytest.approx(expected, rel=1e-10)
    # n_l (a+b-1)/(a-1) exactly, and the rule meets it from the right
    pd = ProductDistribution(n_r=8, n_t=8, n_l=7)
    assert product_pdf(np.array([0.0]), pd)[0] == 7 * 63 / 7
    assert product_pdf(1e-300, pd) == pytest.approx(63.0, rel=1e-14)


# the 300-point grid of compare_chain without x = 0, points near 0 and
# points past it, where the density falls to 2e-143 at n_l x = 240
PRODUCT_POINTS = np.concatenate([[1e-6, 1e-3], np.linspace(0.0, 3.0, 300)[1:], [4.0, 7.0, 30.0]])


@pytest.mark.parametrize("n_l", range(1, 9))
def test_product_pdf_matches_the_exact_sum(n_l):
    shapes = [(n_r, n_t) for n_r in range(1, 9) for n_t in range(n_l, 9)]
    for (n_r, n_t), ref in product_pdf_mp(PRODUCT_POINTS, n_l, shapes).items():
        got = product_pdf(PRODUCT_POINTS, ProductDistribution(n_r, n_t, n_l))
        held = ref >= 1e-300
        assert held.all() and np.max(np.abs(got - ref) / ref) <= 1e-13, (n_r, n_t)


@pytest.mark.parametrize("x, n_r, n_t, n_l", [
    (1e-6, 1, 2, 1), (0.5, 3, 5, 2), (30.0, 8, 8, 8),
    # the 40-digit alternating sum of benchmarks/reference.py reads -9.6e-25 here
    (2.779264214046823, 8, 8, 7),
])
def test_exact_sum_agrees_with_hyperu(x, n_r, n_t, n_l):
    # DLMF 13.4.4: n_l Gamma(a+b)/Gamma(a) e^-z U(b, 2-a, z), z = n_l x
    a, b = n_r, n_r * (n_t - 1)
    with mpmath.workdps(60):
        z = n_l * mpmath.mpf(x)
        want = float(n_l * mpmath.gamma(a + b) / mpmath.gamma(a) * mpmath.exp(-z)
                     * mpmath.hyperu(b, 2 - a, z))
    assert product_pdf_mp([x], n_l, [(n_r, n_t)])[n_r, n_t][0] == want


def test_product_pdf_covers_the_whole_half_line_at_one_receive_antenna():
    # below n_l x = 1e-3 the n_R = 1 integral goes through E_1; the density
    # grows like n_l b ln(1/(n_l x)) and is finite at every x > 0
    pd = ProductDistribution(n_r=1, n_t=4, n_l=2)
    x = np.array([5e-324, 1e-300, 1e-100, 1e-20, 4.99e-4, 5e-4, 5.01e-4])
    got = product_pdf(x, pd)
    c = [mpmath.mpf(float(v)) * 2 for v in x]
    # int t^-1 (1-t)^2 e^(-c/t) dt = E_1 - 2 E_2 + E_3
    want = np.array([float(6 * (mpmath.expint(1, v) - 2 * mpmath.expint(2, v)
                                + mpmath.expint(3, v))) for v in c])
    assert np.max(np.abs(got - want) / want) <= 1e-14
    assert product_pdf(1e300, pd) == 0.0


def test_degenerate_single_transmit_antenna():
    # n_t = 1 kills the beta factor: the product is Exp(n_l) exactly
    pd = ProductDistribution(n_r=3, n_t=1, n_l=1)
    x = np.linspace(0.0, 6.0, 30)
    assert product_pdf(x, pd) == pytest.approx(np.exp(-x), rel=1e-9)
    assert exp_approx_pdf(x, 1, 1) == pytest.approx(np.exp(-x), rel=1e-12)


def test_sampling_oracle_matches_pdf():
    pd = ProductDistribution(n_r=2, n_t=2, n_l=2)
    samples = np.sort(sample_product(pd, 300_000, seed=4))
    grid = samples[:: samples.size // 400]
    cdf = np.array(
        [integrate.quad(lambda t: float(product_pdf(t, pd)), 0.0, g)[0] for g in grid]
    )
    emp = np.searchsorted(samples, grid, side="right") / samples.size
    assert np.max(np.abs(emp - cdf)) < 0.005


def test_exact_simulation_mean():
    s = simulate_exact_terms(2, 2, 1, 400_000, seed=8)
    assert s.mean() == pytest.approx(0.5, abs=0.005)
    assert np.all(s >= 0)


@pytest.mark.parametrize("n_r,n_t,n_l", [(2, 2, 1), (2, 2, 2), (3, 4, 3), (4, 4, 4), (2, 8, 8)])
def test_exact_terms_use_the_first_column_of_a_full_frame(n_r, n_t, n_l):
    # reference: a Haar frame's first column has the law of a Haar 1-frame,
    # orthonormalised here by a phase-fixed QR; chunk i of the library's
    # layout draws from the i-th spawned stream
    def chunk(n, rng):
        h0 = complex_normal(rng, (n_r, n_t, n))
        hi = complex_normal(rng, (n_r, n_t, n))
        q, r = np.linalg.qr(np.moveaxis(complex_normal(rng, (n_t, 1, n)), -1, 0))
        v = q[:, :, 0] * (r[:, 0, 0] / np.abs(r[:, 0, 0])).conj()[:, None] / math.sqrt(n_l)
        u = np.einsum("rtb,bt->br", hi, v)
        fro2 = np.sum(np.abs(h0) ** 2, axis=(0, 1))
        return np.abs(np.einsum("rb,br->b", h0[:, 0].conj(), u)) ** 2 / fro2

    n, seed = 5_000, 31
    ref = serial_chunks(chunk, n, seed, chunk_draws(n_r, n_t))
    s = simulate_exact_terms(n_r, n_t, n_l, n, seed)
    assert np.max(np.abs(s - ref) / ref) <= 1e-12


def test_chain_report_fields_and_rows():
    rep = compare_chain(2, 2, 1, n_samples=100_000, seed=0)
    rows = list(rep.rows())
    assert len(rows) == 300
    assert all(len(r) == 4 for r in rows)
    assert rep.mean_product == pytest.approx(0.5, rel=1e-12)
    assert rep.mean_exp == pytest.approx(0.5, rel=1e-12)
    assert abs(rep.mean_exact - 0.5) < 5 * rep.se_exact
    for key in ("exact_vs_product", "exact_vs_exp", "product_vs_exp"):
        assert set(rep.distances[key]) == {"ks", "l1"}


def test_chain_bins_and_cdf_match_the_histogram_forms(monkeypatch):
    grid = np.linspace(0.0, 3.0, 300)
    rng = np.random.default_rng(12)
    # zeros, every grid point (the top one too) and points past it
    samples = np.concatenate([rng.exponential(0.5, 30_000), np.zeros(11),
                              np.repeat(grid, 2), [3.5, 40.0]])
    rng.shuffle(samples)
    # the chain counts each chunk as it is drawn: one worker takes the
    # chunks in order, each one the next slice of the samples
    chunks = iter(np.split(samples, np.arange(1, 5) * chunk_draws(2, 2)))
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(approx, "_exact_terms_chunk", lambda *args: next(chunks).copy())
    rep = compare_chain(2, 2, 1, n_samples=samples.size, seed=0)
    counts, _ = np.histogram(samples, bins=np.append(grid, np.inf))
    expect = counts[:-1] / (samples.size * np.diff(grid))
    assert rep.exact_density.tobytes() == np.append(expect, expect[-1]).tobytes()
    cdf = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
    product = product_pdf(grid, rep.pd)
    trapezoids = np.diff(grid) * (product[1:] + product[:-1]) / 2.0
    product_cdf = np.concatenate([[0.0], np.cumsum(trapezoids)])
    assert rep.distances["exact_vs_product"]["ks"] == float(np.max(np.abs(cdf - product_cdf)))
    # the moments are those of the samples, summed chunk by chunk
    assert rep.mean_exact == pytest.approx(float(np.mean(samples)), rel=1e-14)
    assert rep.se_exact == pytest.approx(float(np.std(samples) / math.sqrt(samples.size)),
                                         rel=1e-13)


def test_chunk_moments_combine_to_those_of_the_union():
    rng = np.random.default_rng(3)
    parts = [rng.exponential(0.5, n) + shift for n, shift in ((1, 0.0), (4096, 1e3), (77, -2.0))]
    moments = (0, 0.0, 0.0)
    for part in parts:
        moments = approx._merge_moments(
            moments, (part.size, float(part.sum()), float(np.sum((part - part.mean()) ** 2))))
    union = np.concatenate(parts)
    assert moments[0] == union.size
    assert moments[1] == pytest.approx(float(union.sum()), rel=1e-15)
    assert moments[2] == pytest.approx(float(np.sum((union - union.mean()) ** 2)), rel=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_exact_term_is_refused(bad, monkeypatch):
    def kernel(n_r, n_t, n_l, n, rng, buffers):
        samples = rng.exponential(0.5, n)
        samples[-1] = bad
        return samples

    monkeypatch.setattr(approx, "_exact_terms_chunk", kernel)
    with pytest.raises(ConfigError) as err:
        compare_chain(2, 2, 1, n_samples=10_000, seed=0)
    assert str(err.value) == "samples must be a nonempty 1-d array of finite real numbers"


def test_independence_approximation_is_tight():
    # the exp x beta product tracks the exact joint statistic closely
    rep = compare_chain(2, 2, 1, n_samples=200_000, seed=3)
    assert rep.distances["exact_vs_product"]["ks"] < 0.01


L1_CEILINGS = {
    # measured product-vs-exponential L1 distances, with headroom;
    # the fidelity degrades as n_r drops (fatter beta spread)
    (2, 2): 0.15,
    (3, 2): 0.15,
    (4, 2): 0.15,
    (3, 3): 0.15,
    (4, 4): 0.15,
    (2, 3): 0.21,
    (2, 4): 0.21,
    (1, 2): 0.40,
    (1, 4): 0.52,
}


@pytest.mark.parametrize("n_r,n_t", sorted(L1_CEILINGS))
def test_exponential_stage_l1_ceilings(n_r, n_t):
    rep = compare_chain(n_r, n_t, 1, n_samples=10_000, seed=0)
    l1 = rep.distances["product_vs_exp"]["l1"]
    assert l1 < L1_CEILINGS[(n_r, n_t)], f"L1({n_r},{n_t}) = {l1:.3f}"
