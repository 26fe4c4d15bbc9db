"""Dominant-eigenvalue statistics of complex central Wishart matrices.

For H with i.i.d. unit-variance circularly-symmetric complex Gaussian
entries, the largest eigenvalue of H^H H has CDF det(A(x))/det(A(inf)),
where A(x) is p x p with entries gamma(q-p+i+j-1, x) (lower incomplete
gamma of integer order), p/q the smaller/larger of the two dimensions.
Each entry expands as (n-1)! (1 - e^{-x} sum_{m<n} x^m/m!), so the whole
determinant lives in the ring of terms c * x^l * e^{-k x}.  Multiplying
it out and differentiating gives the PDF in the form

    p(x) = sum_{k=1..p} sum_l psi_kl * (x^l / l!) * k^{l+1} * e^{-k x},

a signed mixture of gamma densities.  The weights are computed in exact
rational arithmetic; a floating-point expansion cancels catastrophically
from p = 4 on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import UnsupportedDimensionError
from .scenario import MAX_ANTENNAS

# coefficient dict of sum_j c_j x^{l_j} e^{-k_j x}, keyed (k_j, l_j)
PolyExp = dict[tuple[int, int], Fraction]


def _gamma_entry(n: int) -> PolyExp:
    """Lower incomplete gamma of integer order n as a poly-exp element.

    The (n-1)! prefactor stays inside the entry: normalizing it away
    would make the x -> inf limit matrix all-ones, hence singular.
    """
    fact = math.factorial(n - 1)
    term: PolyExp = {(0, 0): Fraction(fact)}
    for m in range(n):
        term[(1, m)] = -Fraction(fact, math.factorial(m))
    return term


def _mul(a: PolyExp, b: PolyExp) -> PolyExp:
    out: PolyExp = {}
    for (ka, la), ca in a.items():
        for (kb, lb), cb in b.items():
            key = (ka + kb, la + lb)
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return {key: c for key, c in out.items() if c}


def _add_into(acc: PolyExp, term: PolyExp, negate: bool) -> None:
    for key, c in term.items():
        prev = acc.get(key, Fraction(0))
        acc[key] = prev - c if negate else prev + c
        if not acc[key]:
            del acc[key]


def _det(entries: list[list[PolyExp]]) -> PolyExp:
    """Determinant over the poly-exp ring.

    Laplace expansion row by row, memoized on the bitmask of columns not
    yet consumed: 2^p subproblems instead of p! cofactor paths.
    """
    p = len(entries)

    @functools.lru_cache(maxsize=None)
    def minor(colmask: int) -> tuple:
        cols = [c for c in range(p) if colmask & (1 << c)]
        if not cols:
            return (((0, 0), Fraction(1)),)
        row = p - len(cols)
        acc: PolyExp = {}
        for t, c in enumerate(cols):
            sub = dict(minor(colmask & ~(1 << c)))
            _add_into(acc, _mul(entries[row][c], sub), negate=bool(t % 2))
        return tuple(acc.items())

    full = (1 << p) - 1
    return dict(minor(full))


@dataclass(frozen=True, eq=False)
class EigenWeightTable:
    """Weights psi_kl of the largest-eigenvalue PDF at unit scale.

    `weights` holds exact rationals keyed (k, l); flat float arrays for
    evaluation are derived once at construction.
    """

    p: int
    q: int
    weights: dict[tuple[int, int], Fraction]
    _ks: np.ndarray = field(init=False, repr=False)
    _ls: np.ndarray = field(init=False, repr=False)
    _signs: np.ndarray = field(init=False, repr=False)
    _log_abs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        items = sorted(self.weights.items())
        ks = np.array([k for (k, _), _ in items], dtype=np.int64)
        ls = np.array([l for (_, l), _ in items], dtype=np.int64)
        vals = np.array([float(v) for _, v in items], dtype=np.float64)
        object.__setattr__(self, "_ks", ks)
        object.__setattr__(self, "_ls", ls)
        object.__setattr__(self, "_signs", np.sign(vals))
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_log_abs", np.log(np.abs(vals)))

    def sum_exact(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k, l, psi) arrays in sorted (k, l) order."""
        psis = self._signs * np.exp(self._log_abs)
        return self._ks.copy(), self._ls.copy(), psis


@functools.lru_cache(maxsize=None)
def compute_weights(n_r: int, n_t: int) -> EigenWeightTable:
    """Build the exact weight table for an n_r x n_t channel."""
    if not (1 <= n_r <= MAX_ANTENNAS and 1 <= n_t <= MAX_ANTENNAS):
        raise UnsupportedDimensionError(
            f"antenna counts must lie in 1..{MAX_ANTENNAS}, got ({n_r}, {n_t}); "
            "rational coefficients grow combinatorially beyond that"
        )
    p, q = min(n_r, n_t), max(n_r, n_t)
    det = _det(
        [[_gamma_entry(q - p + i + j + 1) for j in range(p)] for i in range(p)]
    )
    # constant part = unnormalized CDF at infinity; every other term
    # carries k >= 1 because only products of pure constants stay constant
    c_inf = det.pop((0, 0))

    deriv: PolyExp = {}
    for (k, l), c in det.items():
        if l > 0:
            _add_into(deriv, {(k, l - 1): c * l}, negate=False)
        _add_into(deriv, {(k, l): c * k}, negate=True)

    weights: dict[tuple[int, int], Fraction] = {}
    for (k, l), c in deriv.items():
        psi = c * math.factorial(l) / (Fraction(k) ** (l + 1) * c_inf)
        if psi:
            weights[(k, l)] = psi
            if not (1 <= k <= p and q - p <= l <= (q + p - 2 * k) * k):
                raise AssertionError(f"weight index ({k},{l}) out of range for p={p}, q={q}")
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise AssertionError(f"weights sum to {total}, expected exactly 1")
    return EigenWeightTable(p=p, q=q, weights=weights)


def _unit_pdf(u: np.ndarray, table: EigenWeightTable) -> np.ndarray:
    """PDF at unit scale, log-domain per term to dodge x^l overflow."""
    ks = table._ks.astype(np.float64)
    ls = table._ls.astype(np.float64)
    out = np.zeros_like(u)
    pos = u > 0
    if np.any(pos):
        up = u[pos, None]
        logterm = (
            table._log_abs
            + ls * np.log(up)
            - special.gammaln(ls + 1.0)
            + (ls + 1.0) * np.log(ks)
            - ks * up
        )
        out[pos] = np.sum(table._signs * np.exp(logterm), axis=1)
    if np.any(~pos):
        # x = 0: only l = 0 terms survive, each contributing psi * k
        zero_mask = table._ls == 0
        out[~pos] = float(np.sum(table._signs[zero_mask]
                                 * np.exp(table._log_abs[zero_mask])
                                 * ks[zero_mask]))
    return out


def pdf_lambda_max(x, table: EigenWeightTable, scale: float = 1.0):
    """PDF of scale * lambda_max at x; scalar in, scalar out."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("pdf_lambda_max requires x >= 0")
    flat = np.atleast_1d(arr) / scale
    vals = _unit_pdf(flat, table) / scale
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def cdf_lambda_max(x, table: EigenWeightTable, scale: float = 1.0):
    """CDF of scale * lambda_max; signed mixture of gamma CDFs."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("cdf_lambda_max requires x >= 0")
    flat = np.atleast_1d(arr)[:, None] / scale
    ks, ls, psis = table.flat()
    vals = np.sum(psis * special.gammainc(ls + 1.0, ks * flat), axis=1)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def mean_lambda_max(table: EigenWeightTable, scale: float = 1.0) -> float:
    """E[scale * lambda_max] from the gamma-mixture moments."""
    ks, ls, psis = table.flat()
    return scale * float(np.sum(psis * (ls + 1.0) / ks))
