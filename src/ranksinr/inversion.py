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
# interior points per n-section step: the bracket shrinks 33x per call;
# EDGES places them, between the bracket ends 0 and 1
SECTIONS = 32
EDGES = np.arange(SECTIONS + 2) / (SECTIONS + 1)
# relative width at which threshold_at_outage stops n-sectioning
THRESHOLD_REL_TOL = 1e-10


def clamp_probability(p):
    """Clamp round-off excursions; refuse anything materially outside [0,1].

    Takes a float or an array and returns the same kind; an array that
    lies in [0, 1] already comes back as it is.
    """
    arr = np.asarray(p, dtype=np.float64)
    lo, hi = arr.min(), arr.max()
    # written as "not >=" so that NaN is refused too
    if not (lo >= -PROB_SLACK and hi <= 1.0 + PROB_SLACK):
        bad = arr[~((arr >= -PROB_SLACK) & (arr <= 1.0 + PROB_SLACK))]
        raise NumericInstabilityError(
            f"SINR outage evaluated to {float(bad[0])!r}, outside [0, 1]; "
            "the coefficient expansion has lost too much precision"
        )
    if lo < 0.0 or hi > 1.0:
        arr = arr.clip(0.0, 1.0)
    return float(arr) if arr.ndim == 0 else arr


def _first_true(hits: np.ndarray) -> np.ndarray:
    """Per row of hits, the index of the first True, or of a True past the end."""
    padded = np.empty((hits.shape[0], hits.shape[1] + 1), dtype=bool)
    padded[:, -1] = True
    padded[:, :-1] = hits
    return padded.argmax(axis=1)


def _nsection(pred, lo: np.ndarray, hi: np.ndarray, rel_tol: float) -> np.ndarray:
    """Midpoints of the brackets lo < hi, one per row.

    pred(x, rows) maps points x, whose axis 0 runs over the row indices
    rows, to booleans that change once per row, from false at lo to true
    at hi.  Each call on SECTIONS interior points of every open bracket
    keeps the sub-interval where pred changes; a row drops out once its
    bracket is rel_tol wide or stops shrinking.
    """
    lo, hi = lo.copy(), hi.copy()
    rows = np.flatnonzero(hi - lo > rel_tol * lo)
    starts = EDGES.size * np.arange(rows.size)
    while rows.size:
        l, h = lo[rows], hi[rows]
        # each row's points l + (h - l) * EDGES, h exact; row j's from starts[j] in x.ravel()
        x = np.multiply.outer(h - l, EDGES)
        x += l[:, None]
        x[:, -1] = h
        k = _first_true(pred(x[:, 1:-1], rows)) + starts[:rows.size]
        new_lo, new_hi = x.ravel()[k], x.ravel()[k + 1]
        # a bracket a few ulps wide stops shrinking
        moved = (new_lo != l) | (new_hi != h)
        lo[rows], hi[rows] = new_lo, new_hi
        rows = rows[moved & (new_hi - new_lo > rel_tol * new_lo)]
    return 0.5 * (lo + hi)


def _bracket(reached, p_target: float, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbouring lattice points lo < hi per row, reached false at lo."""
    inner = LATTICE[INNER]
    i = _first_true(reached(inner[None].repeat(n_rows, axis=0), np.arange(n_rows)))
    # the rows with i = 0 or i = inner.size get their bracket below
    lo, hi = LATTICE[INNER.start - 1 + i], LATTICE[INNER.start + i]
    rows = np.flatnonzero(i % inner.size == 0)
    if rows.size:
        # the rows outside the inner part search the outer part on their side
        x = np.where((i[rows] == 0)[:, None], LATTICE[:INNER.start + 1],
                     LATTICE[INNER.stop - 1:])
        j = _first_true(reached(x, rows))
        bad = (j == 0) | (j == x.shape[1])
        if bad.any():
            raise NumericInstabilityError(
                f"no threshold above 1e-150 stays under outage {p_target}"
                if j[bad.argmax()] == 0 else
                f"no threshold below 1e150 reaches outage {p_target}"
            )
        at = np.arange(rows.size)
        lo[rows], hi[rows] = x[at, j - 1], x[at, j]
    return lo, hi


def threshold_at_outage(outage_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        p_target: float, n_rows: int = 1) -> np.ndarray:
    """Largest-threshold inverses of n_rows nondecreasing outage curves.

    Returns gamma0 with outage = p_target for every row.  outage_fn(x,
    rows) maps x, whose axis 0 runs over the row indices rows, to their
    outages.  One call on the x4 lattice brackets every row's target,
    then each n-section call on SECTIONS interior points of every open
    bracket keeps the sub-interval where its curve crosses it, until the
    bracket is THRESHOLD_REL_TOL wide.  Each row sees the points it
    would see alone, so a batch takes as many calls as its slowest row.
    The curves are CDFs, hence monotone with full support, so a bracket
    always exists within floating range; a row without one refuses all.
    """
    if not (0.0 < p_target < 1.0):
        raise ValueError(f"target outage must lie in (0, 1), got {p_target}")

    def reached(x, rows):
        return np.asarray(outage_fn(x, rows)) >= p_target

    return _nsection(reached, *_bracket(reached, p_target, n_rows), THRESHOLD_REL_TOL)
