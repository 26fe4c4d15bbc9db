"""Exact weight tables of the largest eigenvalue of complex Wishart matrices.

For H with i.i.d. unit-variance circularly-symmetric complex Gaussian
entries, the largest eigenvalue of H^H H has CDF det(A(x))/det(A(inf)),
where A(x) is p x p with entries gamma(q-p+i+j-1, x) (lower incomplete
gamma of integer order), p/q the smaller/larger of the two dimensions.
Expanded exactly and differentiated, it gives the PDF in the form

    p(x) = sum_{k=1..p} sum_l psi_kl * (x^l / l!) * k^{l+1} * e^{-k x},

a signed mixture of gamma densities with rational weights psi_kl.  The
schema caps both antenna counts at 8, so there are 36 tables (p <= q).
They ship exactly, as text in ``_tables``, which
``tests/wishart_tables.py`` generates by an integer expansion of the
determinant; this module only parses them and checks each one.

The tables stay exact here; ``engine.SinrModel`` rounds them to double
once and evaluates the distribution (a beamforming model without
interferers at rho_bar = 1 is the law of lambda_max itself).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from ._tables import TABLES
from .errors import UnsupportedDimensionError
from .scenario import MAX_ANTENNAS, check_count


@dataclass(frozen=True, eq=False)
class EigenWeightTable:
    """Weights psi_kl of the largest-eigenvalue PDF at unit scale.

    `weights` holds exact rationals keyed (k, l).
    """

    p: int
    q: int
    weights: dict[tuple[int, int], Fraction]

    def sum_exact(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


def compute_weights(n_r: int, n_t: int) -> EigenWeightTable:
    """Read the exact weight table of an n_r x n_t channel; each count is
    an integer in 1..MAX_ANTENNAS, or UnsupportedDimensionError."""
    n_r, n_t = (check_count(n, name, MAX_ANTENNAS, UnsupportedDimensionError)
                for n, name in ((n_r, "n_r"), (n_t, "n_t")))
    return _table(min(n_r, n_t), max(n_r, n_t))


@functools.lru_cache(maxsize=None)
def _table(p: int, q: int) -> EigenWeightTable:
    weights: dict[tuple[int, int], Fraction] = {}
    for line in TABLES[p, q].splitlines():
        k, l, w = line.split()
        k, l = int(k), int(l)
        # guards against a corrupted module: the indices the expansion can
        # produce, and the exact normalization below
        if not (1 <= k <= p and q - p <= l <= (q + p - 2 * k) * k):
            raise AssertionError(f"weight index ({k},{l}) out of range for p={p}, q={q}")
        weights[(k, l)] = Fraction(w)
    table = EigenWeightTable(p=p, q=q, weights=weights)
    total = table.sum_exact()
    if total != 1:
        raise AssertionError(f"weights sum to {total}, expected exactly 1")
    return table


# drops the parsed tables, so that the next read of each is cold
compute_weights.cache_clear = _table.cache_clear
