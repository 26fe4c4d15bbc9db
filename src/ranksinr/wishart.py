"""Exact weight tables of the largest eigenvalue of complex Wishart matrices.

For H with i.i.d. unit-variance circularly-symmetric complex Gaussian
entries, the largest eigenvalue of H^H H has CDF det(A(x))/det(A(inf)),
where A(x) is p x p with entries gamma(q-p+i+j-1, x) (lower incomplete
gamma of integer order), p/q the smaller/larger of the two dimensions.
Each entry expands as (n-1)! (1 - e^{-x} sum_{m<n} x^m/m!), so the whole
determinant lives in the ring of terms c * x^l * e^{-k x}.  Multiplying
it out and differentiating gives the PDF in the form

    p(x) = sum_{k=1..p} sum_l psi_kl * (x^l / l!) * k^{l+1} * e^{-k x},

a signed mixture of gamma densities.  The expansion is exact: a
floating-point one cancels catastrophically from p = 4 on.  Every entry
(n-1)! - e^{-x} sum_{m<n} ((n-1)!/m!) x^m has integer coefficients, so
the determinant, its constant part and its derivative stay in Python
integers; rationals appear only in psi_kl = c l! / (k^{l+1} c_inf).  A
cold 8 x 8 table takes about 0.15 s on a 2-core x86-64 host.

The tables stay exact here; ``engine.SinrModel`` rounds them to double
once and evaluates the distribution (a beamforming model without
interferers at rho_bar = 1 is the law of lambda_max itself).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedDimensionError
from .scenario import MAX_ANTENNAS

# sum_k e^{-k x} sum_l c[k][l] x^l as a tuple over k of integer lists over l
Ring = tuple[list[int], ...]


def _gamma_entry(n: int) -> Ring:
    """Lower incomplete gamma of integer order n as a ring element.

    The (n-1)! prefactor stays inside the entry: it makes every
    coefficient an integer, and normalizing it away would make the
    x -> inf limit matrix all-ones, hence singular.
    """
    fact = math.factorial(n - 1)
    return [fact], [-(fact // math.factorial(m)) for m in range(n)]


def _add_product(acc: list[list[int]], a: Ring, b: Ring, sign: int) -> None:
    """acc += sign * a * b, in place."""
    for ka, pa in enumerate(a):
        for kb, pb in enumerate(b):
            out = acc[ka + kb]
            out.extend([0] * (len(pa) + len(pb) - 1 - len(out)))
            for i, ca in enumerate(pa):
                ca *= sign
                for j, cb in enumerate(pb, i):
                    out[j] += ca * cb


def _det(entries: list[list[Ring]]) -> Ring:
    """Determinant over the ring.

    Laplace expansion row by row, memoized on the bitmask of columns not
    yet consumed: 2^p subproblems instead of p! cofactor paths.
    """
    p = len(entries)

    @functools.lru_cache(maxsize=None)
    def minor(colmask: int) -> Ring:
        cols = [c for c in range(p) if colmask & (1 << c)]
        if not cols:
            return ([1],)
        row = p - len(cols)
        acc: list[list[int]] = [[] for _ in range(len(cols) + 1)]
        for t, c in enumerate(cols):
            _add_product(acc, entries[row][c], minor(colmask & ~(1 << c)),
                         -1 if t % 2 else 1)
        return tuple(acc)

    return minor((1 << p) - 1)


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


# typed: True == 1 must not reach the cached 1 x q table past the check
@functools.lru_cache(maxsize=None, typed=True)
def compute_weights(n_r: int, n_t: int) -> EigenWeightTable:
    """Build the exact weight table for an n_r x n_t channel."""
    if not all(isinstance(n, int) and not isinstance(n, bool)
               and 1 <= n <= MAX_ANTENNAS for n in (n_r, n_t)):
        raise UnsupportedDimensionError(
            f"antenna counts must be integers in 1..{MAX_ANTENNAS}, got "
            f"({n_r!r}, {n_t!r}); rational coefficients grow combinatorially "
            "beyond that"
        )
    p, q = min(n_r, n_t), max(n_r, n_t)
    det = _det(
        [[_gamma_entry(q - p + i + j + 1) for j in range(p)] for i in range(p)]
    )
    # the k = 0 part is the constant, the unnormalized CDF at infinity:
    # only products of pure constants stay free of e^{-x}
    (c_inf,) = det[0]

    weights: dict[tuple[int, int], Fraction] = {}
    for k in range(1, len(det)):
        coeffs = det[k] + [0]
        for l in range(len(coeffs) - 1):
            # d/dx of c_l x^l e^{-kx}, collected at x^l e^{-kx}
            c = (l + 1) * coeffs[l + 1] - k * coeffs[l]
            if c:
                weights[(k, l)] = Fraction(c * math.factorial(l), k ** (l + 1) * c_inf)
                if not (1 <= k <= p and q - p <= l <= (q + p - 2 * k) * k):
                    raise AssertionError(f"weight index ({k},{l}) out of range for p={p}, q={q}")
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise AssertionError(f"weights sum to {total}, expected exactly 1")
    return EigenWeightTable(p=p, q=q, weights=weights)
