"""Generator of ``src/ranksinr/_tables.py``, the shipped weight tables.

    PYTHONPATH=src python tests/wishart_tables.py

rewrites the module from the exact expansion below; the tests require
the committed module to equal ``render()`` byte for byte.

For H with i.i.d. unit-variance circularly-symmetric complex Gaussian
entries, the largest eigenvalue of H^H H has CDF det(A(x))/det(A(inf)),
where A(x) is p x p with entries gamma(q-p+i+j-1, x) (lower incomplete
gamma of integer order), p/q the smaller/larger of the two dimensions
(Khatri, Ann. Math. Statist. 35, 1964).  Each entry expands as
(n-1)! (1 - e^{-x} sum_{m<n} x^m/m!), so the whole determinant lives in
the ring of terms c * x^l * e^{-k x}.  Multiplying it out and
differentiating gives the weights psi_kl of the PDF (see ``wishart``).
The expansion is exact: a floating-point one cancels catastrophically
from p = 4 on.  Every entry (n-1)! - e^{-x} sum_{m<n} ((n-1)!/m!) x^m
has integer coefficients, so the determinant, its constant part and its
derivative stay in Python integers; rationals appear only in
psi_kl = c l! / (k^{l+1} c_inf).  All 36 tables take about 0.3 s on a
2-core x86-64 host.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from pathlib import Path

from ranksinr.scenario import MAX_ANTENNAS

MODULE = Path(__file__).resolve().parent.parent / "src" / "ranksinr" / "_tables.py"

HEADER = '''"""Exact weight tables psi_kl of the largest-eigenvalue density.

Generated by ``tests/wishart_tables.py``; do not edit.  One string
per antenna pair (p, q), p <= q, one line per weight in (k, l) order:
``k l numerator/denominator``.  ``wishart.compute_weights`` parses them.
"""

TABLES = {
'''

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


def exact_weights(p: int, q: int) -> dict[tuple[int, int], Fraction]:
    """psi_kl of the p x q table (p <= q), keyed (k, l) in ascending order."""
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
    return weights


def pairs() -> list[tuple[int, int]]:
    """Every (p, q) with 1 <= p <= q <= MAX_ANTENNAS, in module order."""
    return [(p, q) for p in range(1, MAX_ANTENNAS + 1) for q in range(p, MAX_ANTENNAS + 1)]


def render() -> str:
    """The text of the generated module."""
    parts = [HEADER]
    for p, q in pairs():
        lines = "".join(f"{k} {l} {w.numerator}/{w.denominator}\n"
                        for (k, l), w in exact_weights(p, q).items())
        parts.append(f'    ({p}, {q}): """\\\n{lines}""",\n')
    parts.append("}\n")
    return "".join(parts)


if __name__ == "__main__":
    MODULE.write_text(render())
