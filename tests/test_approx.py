"""Projection-term approximation chain for OSTBC interference.

Stages: exact joint simulation of |c^H u|^2 / ||H||_F^2, the
independence approximation as an exp x beta product, and the final
mean-matched exponential.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from ranksinr.approx import (
    ProductDistribution,
    compare_chain,
    exp_approx_pdf,
    product_pdf,
    simulate_exact_terms,
)
from ranksinr.errors import UnsupportedDimensionError
from ranksinr.montecarlo import _generator, complex_normal

from conftest import ks_distance
from oracles import product_mean_quadrature, sample_product


def test_dimension_validation():
    with pytest.raises(UnsupportedDimensionError):
        ProductDistribution(n_r=0, n_t=2, n_l=1)
    with pytest.raises(UnsupportedDimensionError):
        ProductDistribution(n_r=2, n_t=2, n_l=3)  # n_l capped by n_t
    with pytest.raises(UnsupportedDimensionError):
        ProductDistribution(n_r=2, n_t=9, n_l=1)


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
    # reference: the whole n_l-frame orthonormalised by a phase-fixed QR,
    # first column kept; one chunk draws from the first spawned stream
    n, seed = 5_000, 31
    rng = _generator(np.random.SeedSequence(seed).spawn(1)[0])
    h0 = complex_normal(rng, (n_r, n_t, n))
    hi = complex_normal(rng, (n_r, n_t, n))
    q, r = np.linalg.qr(np.moveaxis(complex_normal(rng, (n_t, n_l, n)), -1, 0))
    v = q[:, :, 0] * (r[:, 0, 0] / np.abs(r[:, 0, 0])).conj()[:, None] / math.sqrt(n_l)
    u = np.einsum("rtb,bt->br", hi, v)
    fro2 = np.sum(np.abs(h0) ** 2, axis=(0, 1))
    ref = np.abs(np.einsum("rb,br->b", h0[:, 0].conj(), u)) ** 2 / fro2
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
