"""Probability clamping and inversion of monotone outage curves."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericInstabilityError

# round-off slack accepted on probabilities before declaring instability;
# the signed psi sum of the 8x8 eigenvalue table wobbles by about 1e-9,
# genuine breakdown overshoots by 1e-3 or more
PROB_SLACK = 1e-9

# the x4 lattice 4^j, |j| <= 249, spans the search range [1e-150, 1e150];
# its inner part |j| <= 75 (about 1e+-45) brackets any practical target
# in one call, the outer parts are searched only when it does not
LATTICE = 4.0 ** np.arange(-249, 250)
INNER = slice(249 - 75, 249 + 76)
# interior points per n-section step: the bracket shrinks 33x per call
SECTIONS = 32
FRACTIONS = np.arange(1, SECTIONS + 1) / (SECTIONS + 1)


def clamp_probability(p, context: str = "probability"):
    """Clamp round-off excursions; refuse anything materially outside [0,1].

    Takes a float or an array and returns the same kind.
    """
    arr = np.asarray(p, dtype=np.float64)
    # written as "not >=" so that NaN is refused too
    if not (arr.min() >= -PROB_SLACK and arr.max() <= 1.0 + PROB_SLACK):
        bad = arr[~((arr >= -PROB_SLACK) & (arr <= 1.0 + PROB_SLACK))]
        raise NumericInstabilityError(
            f"{context} evaluated to {float(bad[0])!r}, outside [0, 1]; "
            "the coefficient expansion has lost too much precision"
        )
    out = arr.clip(0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _first_true(pred, x: np.ndarray) -> int:
    """Index of the first x where pred holds; x.size if none."""
    hits = pred(x)
    return int(np.argmax(hits)) if hits.any() else x.size


def _nsection(pred, lo: float, hi: float, rel_tol: float) -> float:
    """Midpoint of the bracket lo < hi, pred false at lo and true at hi.

    pred maps an array to booleans and changes once, from false to true.
    Each call on SECTIONS interior points keeps the sub-interval where
    it changes, until the bracket is rel_tol wide or stops shrinking.
    """
    while hi - lo > rel_tol * lo:
        x = lo + (hi - lo) * FRACTIONS
        i = _first_true(pred, x)
        new = (x[i - 1] if i else lo, x[i] if i < SECTIONS else hi)
        if new == (lo, hi):  # the bracket is a few ulps wide
            break
        lo, hi = new
    return float(0.5 * (lo + hi))


def _bracket(reached, p_target: float) -> tuple[float, float]:
    """Neighbouring lattice points lo < hi, reached false at lo, true at hi."""
    inner = LATTICE[INNER]
    i = _first_true(reached, inner)
    if 0 < i < inner.size:
        return inner[i - 1], inner[i]
    x = LATTICE[:INNER.start + 1] if i == 0 else LATTICE[INNER.stop - 1:]
    j = _first_true(reached, x)
    if j == 0:
        raise NumericInstabilityError(
            f"no threshold above 1e-150 stays under outage {p_target}"
        )
    if j == x.size:
        raise NumericInstabilityError(
            f"no threshold below 1e150 reaches outage {p_target}"
        )
    return x[j - 1], x[j]


def threshold_at_outage(
    outage_fn: Callable[[np.ndarray], np.ndarray],
    p_target: float,
    rel_tol: float = 1e-10,
) -> float:
    """Largest-threshold inverse of a nondecreasing outage curve.

    Finds gamma0 with outage_fn(gamma0) = p_target.  outage_fn maps an
    array of thresholds to their outages; each call evaluates a whole
    array.  One call on the x4 lattice brackets the target, then each
    n-section call on SECTIONS interior points keeps the sub-interval
    where the curve crosses it, until the bracket is rel_tol wide.
    The curve is a CDF, hence monotone with full support, so a bracket
    always exists within floating range.
    """
    if not (0.0 < p_target < 1.0):
        raise ValueError(f"target outage must lie in (0, 1), got {p_target}")

    def reached(x):
        return np.asarray(outage_fn(x)) >= p_target

    return _nsection(reached, *_bracket(reached, p_target), rel_tol)
