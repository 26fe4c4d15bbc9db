"""Machine-speed calibration, so timings on a shared host stay comparable.

On a shared 2-core host the speed of the same code drifts by tens of
percent over seconds to minutes.  A fixed calibration kernel that
touches no ranksinr code runs between ops at most every ``PERIOD_S``;
each timing is then scaled by ``REFERENCE_S / mean kernel time within
WINDOW_S of it``, i.e. reported at the speed where the kernel takes
``REFERENCE_S``.  The kernel drives small numpy arrays and a LAPACK
call from Python rather than running a pure interpreter loop, because
the ops slow down more than such a loop when the host is busy: over
eight sweeps runs the run-to-run spread (standard deviation over mean)
of the median op latency was 0.18 unscaled, 0.12 scaled by an
interpreter loop and 0.08 scaled by this kernel.  It removes the host-wide part of the drift, not
the part that hits the library harder than the kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.004
PERIOD_S = 0.1
WINDOW_S = 1.0
_ROUNDS = 400
_X = np.linspace(0.1, 5.0, 64)
_M = np.arange(16.0).reshape(4, 4) % 7.0 + np.eye(4)


def _kernel() -> float:
    acc = 0.0
    for i in range(_ROUNDS):
        y = np.exp(-_X * (1.0 + i * 1e-3))
        acc += float(y @ _X) + float(np.linalg.det(_M + i))
    return acc


class SpeedLog:
    """Kernel timings taken during a run, and the scale factor they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        _kernel()  # the first call loads numpy's linear-algebra module

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)

    def tick(self) -> None:
        """Sample unless the last sample is recent."""
        if not self.times or time.perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.kernel_s[lo:hi]
        if not near:  # fall back to the samples on either side
            near = self.kernel_s[max(lo - 1, 0):lo + 1]
        return REFERENCE_S / statistics.fmean(near)
