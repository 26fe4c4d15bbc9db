"""Inversion of monotone outage curves: bracket, then steer.

A threshold is inverted in three outage calls, each on every row at
once: one call on a x16 lattice brackets the target and keeps the
outages F and densities f at the bracket ends, then each n-section call
evaluates SECTIONS points per row.  Most of them sit in a window around
the cubic Hermite estimate of the crossing in (log gamma, u =
log(-log(1 - F))), from u and its slope du/dlog gamma = gamma f / ((1 -
F)(-log(1 - F))) at both bracket ends.  An outage curve is straight there
in both tails: F ~ c gamma^N in the lower one, where -log(1 - F) ~ F,
and -log(1 - F) ~ k gamma in the upper one.  On a smooth curve the
estimate misses by about the fourth power of the bracket's width in log
gamma, so a window that holds the crossing takes the bracket from the
lattice's factor 16 to about 1.6e-2 and then to the 1e-10 tolerance.
The rest of the points are spread evenly over the bracket in log gamma,
so a window that misses, on a noisy or strongly bent curve, still
shrinks it 9-fold.  A call asks for densities only where a row's
window could leave it open, so the last call evaluates the outage
alone.  Round-off noise, as on the 8x8 beamforming curve, crosses the
target many times within a few tolerances; there the bracket kept is the
crossing nearest the least-squares line through the window's points,
after one call on a window a few tolerances wide around it.

The steering is a few float operations per row and call, kept in
Python floats with ``math``; only the points, their outages and their
densities are arrays, one (rows, SECTIONS) block per call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericInstabilityError
from .scenario import check_probability

# the x16 lattice 16^j, |j| <= 125, spans the search range [1e-150, 1e150];
# its inner part |j| <= 19 (about 1e+-23) brackets any practical target
# in one call, the outer parts are searched only when it does not
LATTICE = 16.0 ** np.arange(-125, 126)
INNER = slice(125 - 19, 125 + 20)
# interior points per n-section step, in two sets: EVEN spreads 8 of them
# evenly over the bracket in log x, which so shrinks at least 9x per call;
# WINDOW spreads the other 24 evenly inside a window around the Hermite
# estimate of the crossing, between the window ends 0 and 1
SECTIONS = 32
EVEN = np.arange(1, 9) / 9.0
WINDOW = np.arange(1, SECTIONS - EVEN.size + 1) / (SECTIONS - EVEN.size + 1)
# the window's half-width in log x: (WINDOW_SCALE + WINDOW_GROWTH L^2) L^4
# for a bracket L wide in log x, at most WINDOW_MAX (what the x16 lattice
# bracket gets) and at least WINDOW_MIN stopping tolerances.  On the
# 2x2-4x4 curves the Hermite estimate misses by at most 0.008 L^4 at small
# L, by about 0.06 L^4 on the 8x8 block-code curve, and by up to 0.17 in
# log x from the lattice bracket, L = log 16: a lattice window that holds
# the crossing leaves a bracket 1.6e-2 wide, whose window, 1e-9 wide, then
# holds it with its points less than the tolerance apart.  The narrowest
# window, its points 0.48 tolerances apart, still closes its row, holds
# the crossing where round-off moves the estimate by a few tolerances,
# and spreads a noisy row's points wide enough for its least-squares line
WINDOW_SCALE = 0.015
WINDOW_GROWTH = 3.0
WINDOW_MAX = 0.2
WINDOW_MIN = 6.0
# the half-width of a noisy row's last window, in THRESHOLD_REL_TOL: its
# points lie 2 NOISE_WINDOW / 25 of it apart, so noise whose crossings
# spread over a few THRESHOLD_REL_TOL crosses p_target between many of them
NOISE_WINDOW = 2.0
# relative width at which threshold_at_outage stops n-sectioning
THRESHOLD_REL_TOL = 1e-10


def _end(x: float, f: float, d) -> tuple:
    """A bracket end (x, F, u, slope) from x, its outage F and density d
    (None where unknown): u = log(-log(1 - F)), the coordinate in which a
    probability target is steered, None unless 0 < F < 1, and du/dlog x =
    x d / ((1 - F) (-log(1 - F))), None unless positive and finite."""
    if not 0.0 < f < 1.0:
        return x, f, None, None
    q = -math.log1p(-f)
    slope = x * d / ((1.0 - f) * q) if d is not None else 0.0
    return x, f, math.log(q), slope if 0.0 < slope < math.inf else None


def _estimate(lo: tuple, hi: tuple, span: float, u_target: float) -> float:
    """Where the crossing of u_target lies between the ends lo and hi
    (``_end``), span apart in log x, as t in [0, 1] along log x.

    With a slope at both ends, the inverse cubic Hermite estimate in (log
    x, u), refined by one Newton step on the cubic Hermite interpolant of
    u; with a slope at one end only, the root of its tangent; with none,
    the secant, and the geometric midpoint where an end has no u (F = 0
    or 1).
    """
    u_lo, u_hi = lo[2], hi[2]
    c1 = lo[3] * span if lo[3] is not None else None
    s_hi = hi[3] * span if hi[3] is not None else None
    if c1 is not None and s_hi is not None and u_hi > u_lo:
        rise, gap = u_hi - u_lo, u_target - u_lo
        s = gap / rise
        t = s + s * (1.0 - s) * ((1.0 - s) * (rise / c1 - 1.0) - s * (rise / s_hi - 1.0))
        # H(t) = u_lo + t (c1 + t (c2 + t c3)): H(1) = u_hi, H'(0) = c1, H'(1) = s_hi
        c3 = c1 + s_hi - 2.0 * rise
        c2 = rise - c1 - c3
        slope = c1 + t * (2.0 * c2 + 3.0 * t * c3)
        if slope > 0.0:
            t -= (t * (c1 + t * (c2 + t * c3)) - gap) / slope
    elif c1 is not None:
        t = (u_target - u_lo) / c1
    elif s_hi is not None:
        t = 1.0 + (u_target - u_hi) / s_hi
    elif u_lo is not None and u_hi is not None and u_hi > u_lo:
        t = (u_target - u_lo) / (u_hi - u_lo)
    else:
        t = 0.5
    return min(max(t, 0.0), 1.0)


def _nsection(outage_fn, p_target: float, bracket: list[tuple]) -> np.ndarray:
    """Midpoints of the brackets lo < hi, one per row.

    outage_fn(x) maps points x, one row of them per bracket, to
    probabilities that cross p_target once per row: below it at lo, at
    least p_target at hi; outage_fn(x, density=True) to the pair of them
    and their densities.  bracket holds each row's ends (``_end``), lo
    then hi.  Each call on SECTIONS interior points of every bracket
    keeps a sub-interval that crosses p_target, with its end values: the
    one that ends at the first point reaching p_target where the points
    rise, the one nearest the crossing of their least-squares line where
    round-off noise makes them fall somewhere (``_noisy_crossing``).  A
    bracket closes once it is THRESHOLD_REL_TOL wide or stops shrinking,
    and a closed bracket is kept, whatever its row's new values, until
    all have closed; a noisy row that would close keeps its bracket for
    one more call, on a window NOISE_WINDOW tolerances either side of that
    line's crossing, and then keeps the sub-interval that crosses
    p_target nearest it: the noise crosses p_target often there, and the
    first window's line, through points spread further, is the better
    estimate.  A row's points depend on its own bracket alone, and its bookkeeping
    runs in floats of its own: EVEN spread over the bracket in log x,
    WINDOW around the estimate of the crossing (``_estimate``).  A row
    keeps the densities of a call only where its window's points lie
    more than THRESHOLD_REL_TOL apart, a window that does not close it
    even if it holds the crossing; a call evaluates densities only where
    an open row keeps them.
    """
    tol = THRESHOLD_REL_TOL
    ends = list(bracket)
    u_target = math.log(-math.log1p(-p_target))
    open_ = [hi[0] - lo[0] > tol * lo[0] for lo, hi in ends]
    # per row the log x a noisy row centres its next window on, or None
    centres = [None] * len(ends)
    while True in open_:
        spans, keep = [], []
        for (lo, hi), is_open, centre in zip(ends, open_, centres):
            span = math.log(hi[0] / lo[0])
            log_lo = math.log(lo[0])
            if centre is None:
                est = span * _estimate(lo, hi, span, u_target)
                sq = span * span
                half = min(max((WINDOW_SCALE + WINDOW_GROWTH * sq) * sq * sq, WINDOW_MIN * tol),
                           WINDOW_MAX)
            else:
                est, half = centre - log_lo, NOISE_WINDOW * tol
            a = max(est - half, 0.0)
            spans.append((log_lo, span, log_lo + a, min(est + half, span) - a))
            keep.append(is_open and 2.0 * half > (WINDOW.size + 1) * tol)
        # every point lies at least 1/25 of its window inside the bracket
        # in log x, far more than exp rounds off unless the bracket is a few
        # ulps wide, where it stops shrinking
        log_lo, span, start, width = np.array(spans).T[..., None]
        x = np.concatenate([log_lo + span * EVEN, start + width * WINDOW], axis=1)
        x.sort(axis=1)
        np.exp(x, out=x)
        f, d = outage_fn(x, density=True) if True in keep else (outage_fn(x), None)
        f = np.asarray(f)
        reach = f >= p_target
        falls = (f[:, 1:] < f[:, :-1]).any(axis=1).tolist()
        for j, k in enumerate(reach.argmax(axis=1).tolist()):
            if not open_[j]:
                continue
            lo, hi = ends[j]
            # F_lo < p_target <= F_hi: the bracket ends at the first point
            # that reaches p_target, or at hi where none does
            i = k if reach.item(j, k) else SECTIONS
            if falls[j]:
                i, centre = _noisy_crossing(x[j].tolist(), f[j].tolist(), lo, hi, p_target,
                                            centres[j], spans[j][2:])
            end = lambda n: _end(x.item(j, n), f.item(j, n), d.item(j, n) if keep[j] else None)
            new = (end(i - 1) if i else lo), (end(i) if i < SECTIONS else hi)
            l, h = new[0][0], new[1][0]
            if falls[j] and centres[j] is None and h - l <= tol * l:
                centres[j] = centre
                continue
            ends[j], centres[j] = new, None
            # a bracket a few ulps wide stops shrinking
            open_[j] = tol * l < h - l < hi[0] - lo[0]
    return np.array([0.5 * (lo[0] + hi[0]) for lo, hi in ends])


def _noisy_crossing(xs: list, fs: list, lo: tuple, hi: tuple, p_target: float,
                    centre: float | None, window: tuple) -> tuple[int, float]:
    """The index i of the sub-interval (point i - 1, point i) kept of a
    row whose outages fs fall somewhere, the bracket's ends lo and hi
    (``_end``) standing in for points -1 and len(xs), and the log x it is
    kept nearest: centre, or where that is None, the log x where the
    least-squares line through the outages of the points in the window
    (its start and width in log x) crosses p_target.

    The sub-interval kept crosses p_target nearest that log x: round-off
    noise, where it crosses p_target many times, so averages out where
    the first crossing would sit below the true one.  Without two points
    in the window, or with a line that does not rise, the first crossing
    stands in for the line's.
    """
    logs = [math.log(x) for x in (lo[0], *xs, hi[0])]
    reach = [False, *(f >= p_target for f in fs), True]
    crossings = [i for i in range(1, len(logs)) if reach[i] and not reach[i - 1]]
    if centre is None:
        start, width = window
        pts = [(u, f) for u, f in zip(logs[1:], fs) if start <= u <= start + width]
        centre = logs[crossings[0]]
        if len(pts) > 1:
            mean_u = sum(u for u, _ in pts) / len(pts)
            mean_f = sum(f for _, f in pts) / len(pts)
            suu = sum((u - mean_u) ** 2 for u, _ in pts)
            suf = sum((u - mean_u) * (f - mean_f) for u, f in pts)
            if suf > 0.0:
                centre = mean_u - (mean_f - p_target) * suu / suf
    return min(crossings, key=lambda i: abs(0.5 * (logs[i - 1] + logs[i]) - centre)) - 1, centre


def _first_reaching(f: np.ndarray, p_target: float) -> list[int]:
    """Per row of f, the index of its first value at or above p_target,
    or 0 where none is."""
    return (f >= p_target).argmax(axis=1).tolist()


def _bracket(outage_fn, p_target: float, n_rows: int) -> list[tuple]:
    """Neighbouring lattice points lo < hi per row, the outage below
    p_target at lo, as the row's ends (``_end``)."""
    inner = LATTICE[INNER]
    f, d = outage_fn(inner[None].repeat(n_rows, axis=0), density=True)
    # per row its points, outages, densities and the index of the first
    # point that reaches p_target
    crossings = list(zip([inner] * n_rows, f, d, _first_reaching(f, p_target)))
    # a row whose first point reaches the target searches the outer part
    # below, a row where none does the outer part above; a row bracketed
    # already is evaluated on one of them too, and keeps its bracket
    if any(i == 0 for *_, i in crossings):
        x = np.array([LATTICE[:INNER.start + 1] if fs[0] >= p_target
                      else LATTICE[INNER.stop - 1:] for _, fs, _, _ in crossings])
        f, d = outage_fn(x, density=True)
        for j, row in enumerate(zip(x, f, d, _first_reaching(f, p_target))):
            if crossings[j][3]:
                continue
            if row[3] == 0:
                raise NumericInstabilityError(
                    f"no threshold above 1e-150 stays under outage {p_target}"
                    if row[1][0] >= p_target else
                    f"no threshold below 1e150 reaches outage {p_target}"
                )
            crossings[j] = row
    return [tuple(_end(float(xs[n]), float(fs[n]), float(ds[n])) for n in (i - 1, i))
            for xs, fs, ds, i in crossings]


def threshold_at_outage(outage_fn: Callable[..., np.ndarray], p_target: float,
                        n_rows: int = 1) -> np.ndarray:
    """Largest-threshold inverses of n_rows nondecreasing outage curves.

    Returns gamma0 with outage = p_target for every row.  outage_fn(x)
    maps an (n_rows, k) block x, a row of points per curve, to their
    outages, and outage_fn(x, density=True) to the pair of their outages
    and densities, as ``SinrModel.outage`` does.  One call on the x16
    lattice brackets every row's target and keeps the outages and
    densities at the bracket ends; then each n-section call on SECTIONS
    interior points of every bracket keeps a sub-interval where its
    curve crosses p_target, until the bracket is THRESHOLD_REL_TOL wide.
    Most of the points sit in a window around the Hermite estimate of
    the crossing from the bracket ends, so a threshold takes three calls
    in all where the outage is smooth.  Every call evaluates every row,
    and each row sees the points it would see alone, so a batch takes as
    many calls as its slowest row, and each threshold has the bits of its
    one-row inversion.  The curves are CDFs, hence monotone with full
    support, so a bracket always exists within floating range; a row
    without one refuses all.  A p_target outside (0, 1), NaN included, is
    refused with ConfigError (``scenario.check_probability``).
    """
    p_target = check_probability(p_target, "target outage")
    return _nsection(outage_fn, p_target, _bracket(outage_fn, p_target, n_rows))
