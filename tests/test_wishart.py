"""Largest-eigenvalue weight tables against independent oracles.

The shipped module is checked against its generator
(``wishart_tables``) byte for byte, and every table against the
generator's integer expansion.  The (2,2) table is checked against a
hand expansion of the 2x2 incomplete-gamma determinant; tables up to
p = 5 against the same determinant expanded over a dict of Fraction
coefficients; all tables against a digest of their exact values; larger
tables against eigendecompositions of simulated Wishart matrices and
against exact rational invariants.  The distribution itself is
evaluated through a beamforming model without interferers at
rho_bar = 1 (``eigen_model``).
"""

import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from ranksinr import wishart
from ranksinr.engine import _Identity, _psi_arrays
from ranksinr.errors import UnsupportedDimensionError
from ranksinr.wishart import compute_weights

import wishart_tables
from conftest import eigen_model, exact_mean, ks_distance

# det of [[g1(x), g2(x)], [g2(x), g3(x)]] with g_n the order-n lower
# incomplete gamma, expanded by hand and differentiated
HAND_22 = {
    (1, 0): Fraction(2),
    (1, 1): Fraction(-2),
    (1, 2): Fraction(2),
    (2, 0): Fraction(-1),
}


# sha256 over repr(sorted(weights.items())) for p = 1..8, q = p..8 in
# that order, taken from the Fraction expansion below run at every size
TABLES_DIGEST = "8c7af7f93d8e45504c779ff9aef1e5688b9231f71b6e5d5c2c642389f34b3115"


def _fraction_weights(p, q):
    """Reference expansion: ring elements as {(k, l): Fraction} dicts.

    Same bitmask-memoized Laplace expansion as the table generator
    (``wishart_tables``), with every coefficient a Fraction; too slow for
    the largest sizes (3.5 s at 8x8), hence the digest for those.
    """

    def entry(n):
        fact = math.factorial(n - 1)
        term = {(0, 0): Fraction(fact)}
        for m in range(n):
            term[(1, m)] = -Fraction(fact, math.factorial(m))
        return term

    def add_product(acc, a, b, sign):
        for (ka, la), ca in a.items():
            for (kb, lb), cb in b.items():
                key = (ka + kb, la + lb)
                acc[key] = acc.get(key, Fraction(0)) + sign * ca * cb

    entries = [[entry(q - p + i + j + 1) for j in range(p)] for i in range(p)]

    @functools.lru_cache(maxsize=None)
    def minor(colmask):
        cols = [c for c in range(p) if colmask & (1 << c)]
        if not cols:
            return {(0, 0): Fraction(1)}
        acc = {}
        for t, c in enumerate(cols):
            add_product(acc, entries[p - len(cols)][c],
                        minor(colmask & ~(1 << c)), -1 if t % 2 else 1)
        return acc

    det = dict(minor((1 << p) - 1))
    c_inf = det.pop((0, 0))
    deriv = {}
    for (k, l), c in det.items():
        if l > 0:
            deriv[(k, l - 1)] = deriv.get((k, l - 1), Fraction(0)) + c * l
        deriv[(k, l)] = deriv.get((k, l), Fraction(0)) - c * k
    return {
        (k, l): c * math.factorial(l) / (Fraction(k) ** (l + 1) * c_inf)
        for (k, l), c in deriv.items() if c
    }


@pytest.mark.parametrize(
    "p,q", [(p, q) for p in range(1, 6) for q in range(p, 9)]
)
def test_tables_equal_fraction_expansion(p, q):
    assert compute_weights(p, q).weights == _fraction_weights(p, q)


def test_shipped_module_is_what_the_generator_writes():
    assert wishart_tables.MODULE.read_bytes() == wishart_tables.render().encode()


def test_shipped_tables_equal_integer_expansion():
    assert list(wishart.TABLES) == wishart_tables.pairs()
    for p, q in wishart_tables.pairs():
        # the key order too: models and outputs read the tables in it
        expected = list(wishart_tables.exact_weights(p, q).items())
        assert list(compute_weights(p, q).weights.items()) == expected, (p, q)


def test_tables_are_cached_and_rebuild_to_the_same_bits():
    # the benchmark clears this cache to time cold tables
    old = compute_weights(2, 4)
    assert compute_weights(2, 4) is old
    compute_weights.cache_clear()
    new = compute_weights(2, 4)
    assert new is not old and new.weights == old.weights
    for a, b in zip(_psi_arrays(_Identity(old.weights)), _psi_arrays(_Identity(new.weights))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("text", [
    "1 0 1/1\n",           # l below q - p = 1
    "1 1 1/1\n2 1 0/1\n",  # k above p = 1
    "1 1 1/2\n",           # sums to 1/2
])
def test_corrupted_table_is_refused(monkeypatch, text):
    compute_weights.cache_clear()  # a cached 1x2 table would answer
    monkeypatch.setitem(wishart.TABLES, (1, 2), text)
    with pytest.raises(AssertionError):
        compute_weights(1, 2)


def test_all_tables_match_digest():
    h = hashlib.sha256()
    for a in range(1, 9):
        for b in range(a, 9):
            h.update(repr(sorted(compute_weights(a, b).weights.items())).encode())
    assert h.hexdigest() == TABLES_DIGEST


def test_hand_expansion_2x2():
    table = compute_weights(2, 2)
    assert table.weights == HAND_22


def test_single_antenna_is_unit_exponential():
    table = compute_weights(1, 1)
    assert table.weights == {(1, 0): Fraction(1)}
    x = np.linspace(0.0, 8.0, 50)
    assert eigen_model(1, 1).sinr_pdf(x) == pytest.approx(np.exp(-x), rel=1e-14)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (5, 6)])
def test_weights_sum_to_one_exactly(p, q):
    assert compute_weights(p, q).sum_exact() == 1


@pytest.mark.parametrize(
    "p,q,count", [(2, 2, 4), (4, 4, 24), (6, 6, 76), (8, 8, 176)]
)
def test_term_counts_are_stable(p, q, count):
    # regression pin: the ring expansion should not grow spurious terms
    assert len(compute_weights(p, q).weights) == count


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 4), (4, 4)])
def test_pdf_integrates_to_one(p, q):
    model = eigen_model(p, q)
    val, err = integrate.quad(
        lambda x: float(model.sinr_pdf(x)), 0.0, np.inf, limit=200
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_mean_2x2_is_seven_halves():
    mean = exact_mean(compute_weights(2, 2).weights)
    assert mean == Fraction(7, 2)


def test_dims_commute():
    a = compute_weights(2, 4)
    b = compute_weights(4, 2)
    assert a.weights == b.weights


def test_cdf_limits_and_monotonicity():
    x = np.linspace(0.0, 60.0, 200)[1:]  # the model takes x > 0
    c = eigen_model(4, 4).outage(x)
    assert c[0] == pytest.approx(0.0, abs=1e-12)
    assert c[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(c) >= -1e-12)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3)])
def test_against_simulated_wishart_eigenvalues(p, q):
    rng = np.random.default_rng(1234)
    n = 200_000
    h = (rng.standard_normal((n, q, p)) + 1j * rng.standard_normal((n, q, p))) / np.sqrt(2)
    lam = np.linalg.eigvalsh(np.swapaxes(h.conj(), 1, 2) @ h)[:, -1]
    lam.sort()
    ks = ks_distance(lam, eigen_model(p, q).outage(lam))
    assert ks < 0.01, f"KS({p},{q}) = {ks:.4f}"


def test_rejects_oversized_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        compute_weights(9, 2)
    with pytest.raises(UnsupportedDimensionError):
        compute_weights(2, 0)


def test_numpy_integer_dimensions_read_the_same_table():
    # the one integer rule of ScenarioConfig: np.int64(2) was once refused
    for count in (np.int64, np.int32, np.uint8):
        table = compute_weights(count(2), count(3))
        assert (table.p, table.q) == (2, 3) and table.weights == compute_weights(2, 3).weights


@pytest.mark.parametrize(
    "n_r,n_t", [(True, 2), (2, False), (2.0, 2), (2, 3.5), ("2", 2), (None, 2), (2, np.True_),
                # unhashable: these once met the cache first, a TypeError
                ([2], 2), ({}, 2)]
)
def test_rejects_non_integer_dimensions(n_r, n_t):
    compute_weights(1, 2)  # a cached 1x2 table must not answer for True
    with pytest.raises(UnsupportedDimensionError):
        compute_weights(n_r, n_t)
