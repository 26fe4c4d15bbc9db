"""Probability clamping and inversion of monotone outage curves.

A threshold is inverted in about four outage calls, each on every open
row at once: one call on a x4 lattice brackets the target and keeps the
outages F at the bracket ends, then each n-section call evaluates
SECTIONS points per row.  Most of them sit in a window around the secant
estimate of the crossing, the straight line through the bracket ends in
(log gamma, log F), or in (log gamma, log(1 - F)) for targets above 1/2,
where log F flattens: on a smooth curve it misses by about the square of
the bracket's relative width, so a window that holds the crossing takes
the bracket from 3 to about 2e-2, 5e-6 and the 1e-10 tolerance in three
calls.  The rest are spread evenly over the bracket, so a window that
misses, on a noisy or strongly bent curve, still shrinks it 9-fold.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericInstabilityError
from .scenario import check_probability

# round-off slack accepted on probabilities before declaring instability;
# the signed psi sum of the 8x8 eigenvalue table wobbles by about 1e-9,
# genuine breakdown overshoots by 1e-3 or more
PROB_SLACK = 1e-9

# the x4 lattice 4^j, |j| <= 249, spans the search range [1e-150, 1e150];
# its inner part |j| <= 75 (about 1e+-45) brackets any practical target
# in one call, the outer parts are searched only when it does not
LATTICE = 4.0 ** np.arange(-249, 250)
INNER = slice(249 - 75, 249 + 76)
# interior points per n-section step, in two sets: EVEN spreads 8 of them
# evenly over the bracket, which so shrinks at least 9x per call; WINDOW
# spreads the other 24 evenly inside a window around the secant estimate
# of the crossing, between the window ends 0 and 1
SECTIONS = 32
EVEN = np.arange(1, 9) / 9.0
WINDOW = np.arange(1, SECTIONS - EVEN.size + 1) / (SECTIONS - EVEN.size + 1)
# the window's half-width over the estimate: WINDOW_SCALE w^2 for a bracket
# of relative width w (the secant misses by about that on a smooth curve),
# at most WINDOW_MAX (what the x4 lattice bracket gets) and at least half
# the stopping tolerance, so that a window that holds the crossing ends
# the search
WINDOW_SCALE = 0.25
WINDOW_MAX = 0.2
# where a row's new lo, hi, f_lo and f_hi sit in its (2, SECTIONS + 2)
# block, points then values, relative to its first point reaching the target
PICKS = np.array([-1, 0, SECTIONS + 1, SECTIONS + 2])
# relative width at which threshold_at_outage stops n-sectioning
THRESHOLD_REL_TOL = 1e-10


def clamp_probability(p):
    """Clamp round-off excursions; refuse anything materially outside [0,1].

    Takes a float or an array and returns the same kind; an array that
    lies in [0, 1] already comes back as it is, an empty one included.
    """
    arr = np.asarray(p, dtype=np.float64)
    lo, hi = arr.min(initial=0.0), arr.max(initial=0.0)
    # written as "not >=" so that NaN is refused too
    if not (lo >= -PROB_SLACK and hi <= 1.0 + PROB_SLACK):
        bad = arr[~((arr >= -PROB_SLACK) & (arr <= 1.0 + PROB_SLACK))]
        raise NumericInstabilityError(
            f"SINR outage evaluated to {float(bad[0])!r}, outside [0, 1]; "
            "the signed psi sum of the eigenvalue table has lost too much precision"
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


def _nsection(outage_fn, p_target: float, bracket, rel_tol: float) -> np.ndarray:
    """Midpoints of the brackets lo < hi, one per row.

    outage_fn(x, rows) maps points x, whose axis 0 runs over the row
    indices rows, to values that cross p_target once per row: below it
    at lo, at least p_target at hi.  bracket is (lo, hi, f_lo, f_hi),
    f the values at lo and hi.  Each call on SECTIONS interior points of
    every open bracket keeps the sub-interval where the values reach
    p_target, with its end values; a row drops out once its bracket is
    rel_tol wide or stops shrinking.  A row's points depend on its own
    bracket alone: EVEN spread over it, WINDOW around the secant
    estimate of the crossing in (log x, log f), or in (log x,
    log(1 - f)) for p_target in (1/2, 1), or around the geometric
    midpoint where f_lo is 0, or f_hi is 1 in that range.
    """
    # lo, hi, f_lo, f_hi of every row
    ends = np.stack(bracket, axis=1, dtype=np.float64)
    # for a probability above 1/2 the secant runs in log(1 - f), where
    # log f flattens; a target of 1 or more is no probability
    upper = 0.5 < p_target < 1.0
    log_p = math.log1p(-p_target) if upper else math.log(p_target)
    rows = np.flatnonzero(ends[:, 1] - ends[:, 0] > rel_tol * ends[:, 0])
    # the same, in xf.ravel(), for the block of the j-th open row
    picks = 2 * (SECTIONS + 2) * np.arange(rows.size)[:, None] + PICKS
    while rows.size:
        e = ends[rows]
        l, h, width = e[:, 0], e[:, 1], e[:, 1] - e[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_f = np.log1p(-e[:, 2:]) if upper else np.log(e[:, 2:])
            t = (log_p - log_f[:, 0]) / (log_f[:, 1] - log_f[:, 0])
        t[e[:, 3] >= 1.0 if upper else e[:, 2] <= 0.0] = 0.5
        w = width / l
        est = l * (1.0 + w) ** t
        half = est * np.minimum(np.maximum(WINDOW_SCALE * w * w, 0.5 * rel_tol), WINDOW_MAX)
        a = np.maximum(est - half, l)
        # each row's points from l to h, both ends exact, and their values;
        # no point rounds past either end, so sorting keeps them in place
        xf = np.empty((rows.size, 2, SECTIONS + 2))
        x, f = xf[:, 0], xf[:, 1]
        xf[:, :, 0], xf[:, :, -1] = e[:, ::2], e[:, 1::2]
        np.add(l[:, None], width[:, None] * EVEN, out=x[:, 1:EVEN.size + 1])
        np.add(a[:, None], (np.minimum(est + half, h) - a)[:, None] * WINDOW,
               out=x[:, EVEN.size + 1:-1])
        x.sort(axis=1)
        f[:, 1:-1] = outage_fn(x[:, 1:-1], rows)
        # f_lo < p_target <= f_hi, so the first point that reaches it is inner or h
        ends[rows] = new = xf.ravel()[(f >= p_target).argmax(axis=1)[:, None] + picks[:rows.size]]
        # a bracket a few ulps wide stops shrinking
        new_width = new[:, 1] - new[:, 0]
        rows = rows[(new_width < width) & (new_width > rel_tol * new[:, 0])]
    return 0.5 * (ends[:, 0] + ends[:, 1])


def _bracket(outage_fn, p_target: float, n_rows: int):
    """Neighbouring lattice points lo < hi per row, the outage below
    p_target at lo, and the outages there: (lo, hi, f_lo, f_hi)."""
    inner = LATTICE[INNER]
    f = np.asarray(outage_fn(inner[None].repeat(n_rows, axis=0), np.arange(n_rows)))
    i = _first_true(f >= p_target)
    # the rows with i = 0 or i = inner.size get their bracket below
    lo, hi = LATTICE[INNER.start - 1 + i], LATTICE[INNER.start + i]
    at = np.arange(n_rows)
    f_lo, f_hi = f[at, i - 1], f[at, i % inner.size]
    rows = np.flatnonzero(i % inner.size == 0)
    if rows.size:
        # the rows outside the inner part search the outer part on their side
        x = np.where((i[rows] == 0)[:, None], LATTICE[:INNER.start + 1],
                     LATTICE[INNER.stop - 1:])
        f = np.asarray(outage_fn(x, rows))
        j = _first_true(f >= p_target)
        bad = (j == 0) | (j == x.shape[1])
        if bad.any():
            raise NumericInstabilityError(
                f"no threshold above 1e-150 stays under outage {p_target}"
                if j[bad.argmax()] == 0 else
                f"no threshold below 1e150 reaches outage {p_target}"
            )
        at = np.arange(rows.size)
        lo[rows], hi[rows] = x[at, j - 1], x[at, j]
        f_lo[rows], f_hi[rows] = f[at, j - 1], f[at, j]
    return lo, hi, f_lo, f_hi


def threshold_at_outage(outage_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        p_target: float, n_rows: int = 1) -> np.ndarray:
    """Largest-threshold inverses of n_rows nondecreasing outage curves.

    Returns gamma0 with outage = p_target for every row.  outage_fn(x,
    rows) maps x, whose axis 0 runs over the row indices rows, to their
    outages.  One call on the x4 lattice brackets every row's target and
    keeps the outages at the bracket ends; then each n-section call on
    SECTIONS interior points of every open bracket keeps the sub-interval
    where its curve crosses p_target, until the bracket is
    THRESHOLD_REL_TOL wide.  Most of the points sit in a window around
    the secant estimate of the crossing from the bracket ends, so a
    threshold takes about four calls in all.  Each row sees the points
    it would see alone, so a batch takes as many calls as its slowest
    row.  The curves are CDFs, hence monotone with full support, so a
    bracket always exists within floating range; a row without one
    refuses all.  A p_target outside (0, 1), NaN included, is refused
    with ConfigError (``scenario.check_probability``).
    """
    p_target = check_probability(p_target, "target outage")
    return _nsection(outage_fn, p_target, _bracket(outage_fn, p_target, n_rows),
                     THRESHOLD_REL_TOL)
