"""Probability clamping and inversion of monotone outage curves.

A threshold is inverted in about four outage calls, each on every row
at once: one call on a x4 lattice brackets the target and keeps the
outages F at the bracket ends, then each n-section call evaluates
SECTIONS points per row.  Most of them sit in a window around the secant
estimate of the crossing, the straight line through the bracket ends in
(log gamma, log(-log(1 - F))).  An outage curve is straight there in both
tails: F ~ c gamma^N in the lower one, where -log(1 - F) ~ F, and
-log(1 - F) ~ k gamma in the upper one.  On a smooth curve the secant
misses by about the square of the bracket's relative width, so a window
that holds the crossing takes the bracket from 3 to about 2e-2, 5e-6 and
the 1e-10 tolerance in three calls.  The rest are spread evenly over the
bracket, so a window that misses, on a noisy or strongly bent curve,
still shrinks it 9-fold.  The steering is a few float operations per row
and call, kept in Python floats; only the points and their outages are
arrays, one (rows, SECTIONS) block per call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericInstabilityError
from .scenario import check_probability

# round-off slack accepted on probabilities before declaring instability;
# the 8x8 beamforming outage, the noisiest, reads down to about -2e-11
# and never above 1, genuine breakdown overshoots by 1e-3 or more
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
# a row's points are base + scale * FRACTIONS, base and scale read from its
# (lo, width, window start, window width) at the columns BASE and SCALE
FRACTIONS = np.concatenate([EVEN, WINDOW])
BASE = np.repeat([0, 2], [EVEN.size, WINDOW.size])
SCALE = BASE + 1
# the window's half-width over the estimate: WINDOW_SCALE w^2 for a bracket
# of relative width w (the secant misses by about that on a smooth curve),
# at most WINDOW_MAX (what the x4 lattice bracket gets) and at least the
# stopping tolerance: a window that holds the crossing, its points 2 tol/25
# apart, ends the search, and holds it too where round-off moves the
# secant by a few tol/2
WINDOW_SCALE = 0.25
WINDOW_MAX = 0.2
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


def _first_reaching(f: np.ndarray, p_target: float) -> list[int]:
    """Per row of f, the index of its first value at or above p_target,
    or 0 where none is."""
    return (f >= p_target).argmax(axis=1).tolist()


def _log_hazard(f: float) -> float:
    """log(-log(1 - f)), the coordinate in which a probability target is
    steered, for f in (0, 1)."""
    return math.log(-math.log1p(-f))


def _nsection(outage_fn, p_target: float, bracket: list[tuple[float, ...]]) -> np.ndarray:
    """Midpoints of the brackets lo < hi, one per row.

    outage_fn(x) maps points x, one row of them per bracket, to
    probabilities that cross p_target once per row: below it at lo, at
    least p_target at hi.  bracket holds each row's (lo, hi, f_lo, f_hi)
    as floats, f the values at lo and hi.  Each call on SECTIONS interior
    points of every bracket keeps the sub-interval that ends at the first
    point reaching p_target, with its end values; a bracket closes once
    it is THRESHOLD_REL_TOL wide or stops shrinking, and a closed bracket
    is kept, whatever its row's new values, until all have closed.  A
    row's points depend on its own bracket alone, and its bookkeeping
    runs in floats of its own: EVEN spread over the bracket, WINDOW
    around the secant estimate of the crossing in (log x, log(-log(1 -
    f))), or around the geometric midpoint where that coordinate is
    infinite at an end (f_lo = 0 or f_hi = 1).
    """
    tol = THRESHOLD_REL_TOL
    ends = list(bracket)
    u_target = _log_hazard(p_target)
    open_ = [h - l > tol * l for l, h, _, _ in ends]
    while any(open_):
        spans = []
        for l, h, fl, fh in ends:
            w = (h - l) / l
            t = 0.5
            if 0.0 < fl and fh < 1.0:
                u_lo = _log_hazard(fl)
                du = _log_hazard(fh) - u_lo
                if du > 0.0:
                    t = (u_target - u_lo) / du
            est = l * (1.0 + w) ** t
            half = est * min(max(WINDOW_SCALE * w * w, tol), WINDOW_MAX)
            a = max(est - half, l)
            spans.append((l, h - l, a, min(est + half, h) - a))
        # no point rounds past either end of its bracket, so sorting a row
        # keeps its points between them
        c = np.array(spans)
        x = c[:, BASE]
        x += c[:, SCALE] * FRACTIONS
        x.sort(axis=1)
        f = np.asarray(outage_fn(x))
        for j, (k, xs, fs) in enumerate(zip(_first_reaching(f, p_target), x.tolist(),
                                            f.tolist())):
            if not open_[j]:
                continue
            l, h, fl, fh = ends[j]
            # f_lo < p_target <= f_hi: the bracket ends at the first point
            # that reaches p_target, or at hi where none does
            if fs[k] < p_target:
                ends[j] = new = xs[-1], h, fs[-1], fh
            elif k:
                ends[j] = new = xs[k - 1], xs[k], fs[k - 1], fs[k]
            else:
                ends[j] = new = l, xs[0], fl, fs[0]
            # a bracket a few ulps wide stops shrinking
            open_[j] = tol * new[0] < new[1] - new[0] < h - l
    return np.array([0.5 * (l + h) for l, h, _, _ in ends])


def _bracket(outage_fn, p_target: float, n_rows: int) -> list[tuple[float, ...]]:
    """Neighbouring lattice points lo < hi per row, the outage below
    p_target at lo, and the outages there: (lo, hi, f_lo, f_hi) floats."""
    inner = LATTICE[INNER]
    f = np.asarray(outage_fn(inner[None].repeat(n_rows, axis=0)))
    # per row its points, their outages and the index of the first that
    # reaches p_target
    crossings = list(zip([inner] * n_rows, f, _first_reaching(f, p_target)))
    # a row whose first point reaches the target searches the outer part
    # below, a row where none does the outer part above; a row bracketed
    # already is evaluated on one of them too, and keeps its bracket
    if any(i == 0 for _, _, i in crossings):
        x = np.array([LATTICE[:INNER.start + 1] if fs[0] >= p_target
                      else LATTICE[INNER.stop - 1:] for _, fs, _ in crossings])
        f = np.asarray(outage_fn(x))
        for j, (xs, fs, i) in enumerate(zip(x, f, _first_reaching(f, p_target))):
            if crossings[j][2]:
                continue
            if i == 0:
                raise NumericInstabilityError(
                    f"no threshold above 1e-150 stays under outage {p_target}"
                    if fs[0] >= p_target else
                    f"no threshold below 1e150 reaches outage {p_target}"
                )
            crossings[j] = xs, fs, i
    return [(float(xs[i - 1]), float(xs[i]), float(fs[i - 1]), float(fs[i]))
            for xs, fs, i in crossings]


def threshold_at_outage(outage_fn: Callable[[np.ndarray], np.ndarray],
                        p_target: float, n_rows: int = 1) -> np.ndarray:
    """Largest-threshold inverses of n_rows nondecreasing outage curves.

    Returns gamma0 with outage = p_target for every row.  outage_fn(x)
    maps an (n_rows, k) block x, a row of points per curve, to their
    outages.  One call on the x4 lattice brackets every row's target and
    keeps the outages at the bracket ends; then each n-section call on
    SECTIONS interior points of every bracket keeps the sub-interval
    where its curve crosses p_target, until the bracket is
    THRESHOLD_REL_TOL wide.  Most of the points sit in a window around
    the secant estimate of the crossing from the bracket ends, so a
    threshold takes about four calls in all.  Every call evaluates every
    row, and each row sees the points it would see alone, so a batch
    takes as many calls as its slowest row, and each threshold has the
    bits of its one-row inversion.  The curves are CDFs, hence monotone
    with full support, so a bracket always exists within floating range;
    a row without one refuses all.  A p_target outside (0, 1), NaN
    included, is refused with ConfigError (``scenario.check_probability``).
    """
    p_target = check_probability(p_target, "target outage")
    return _nsection(outage_fn, p_target, _bracket(outage_fn, p_target, n_rows))
