"""Threshold-gain studies built on the closed-form models.

The figure of merit is the gamma0 gain: how much higher an outage
threshold a victim can support, at a fixed outage target (default 1%),
when a single interferer spreads its power over more spatial layers.
Positive gain means higher-rank interference is the milder one.

Every study inverts both ranks at once: the victim's psi table is the
same under either interferer, so one model holds a rank-1 and a rank-r
row per point and one lockstep inversion (``inversion``) answers them
all, in about four outage calls, each threshold with the bits of its
one-row inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bf, ostbc
from .errors import ConfigError
from .scenario import (
    MAX_ANTENNAS,
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    check_count,
    check_enum,
    check_real,
    db_to_linear,
    linear_to_db,
)


# points a dB grid may hold, and the largest interferer count a count sweep
# takes; larger ones are refused before allocation
MAX_GRID_POINTS = 100_000
# sweep points inverted together, each a rank-1 and a rank-r row: on a
# 2e4-point 4x4 BF sweep-inr, 64, 256, 512 and 2048 took 5.4, 5.2, 5.1 and
# 4.8 s (best of 3, one CPU of a 2-CPU host; 4.8, 5.3, 4.7 and 4.7 s with
# glibc malloc's trim and mmap thresholds raised, within the runs' spread)
# and peaked at 6.4, 8.4, 11.4 and 29.2 MiB (tracemalloc)
POINTS_PER_BATCH = 512


class SweepKind(Enum):
    THRESHOLD = "threshold"
    SNR = "snr"
    INR = "inr"


@dataclass(frozen=True)
class SweepSpec:
    """A dB grid from start_db to stop_db in steps of step_db, both ends
    included.  kind is a SweepKind or its value, the ends and step real
    numbers (the rules of ``scenario``); the step must be positive and
    finite, and the grid hold at most MAX_GRID_POINTS points.
    """

    kind: SweepKind
    start_db: float = 0.0
    stop_db: float = 0.0
    step_db: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", check_enum(self.kind, SweepKind, "kind"))
        for name in ("start_db", "stop_db", "step_db"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        # an infinite step would put inf * 0, a NaN, in the grid
        if not 0.0 < self.step_db < math.inf:
            raise ConfigError(f"step must be positive and finite, got {self.step_db}")
        if self.stop_db < self.start_db:
            raise ConfigError(f"empty grid: stop {self.stop_db} dB < start {self.start_db} dB")
        # written as "not <" so that an overflowing span is refused too
        if not self._steps() < MAX_GRID_POINTS:
            raise ConfigError(
                f"grid {self.start_db}:{self.stop_db}:{self.step_db} dB holds "
                f"more than {MAX_GRID_POINTS} points"
            )

    def _steps(self) -> float:
        # the slack keeps a stop that round-off leaves just short of a point
        return (self.stop_db - self.start_db) / self.step_db + 1e-9

    def grid_db(self) -> np.ndarray:
        n = int(math.floor(self._steps())) + 1
        return self.start_db + self.step_db * np.arange(n)


def equal_power_config(
    own_mode: OwnMode,
    n_r: int,
    n_t: int,
    snr_db: float,
    total_inr_db: float,
    count: int,
    rank: int,
) -> ScenarioConfig:
    """count equal-power iBSs of the given rank at fixed total power;
    count is an integer in 1..MAX_GRID_POINTS, rank one in 1..MAX_ANTENNAS.

    A single iBS keeps the INR as given, with no round trip through
    linear scale; the rank-1 vs rank-r studies build their configs so.
    """
    count = check_count(count, "count", MAX_GRID_POINTS)
    rank = check_count(rank, "rank", MAX_ANTENNAS)
    per_inr_db = (total_inr_db if count == 1
                  else linear_to_db(db_to_linear(total_inr_db, "total_inr_db") / count))
    if rank == 1:
        spec = InterfererSpec(technique=Technique.BEAMFORMING, inr_db=per_inr_db)
    else:
        spec = InterfererSpec(
            technique=Technique.SPATIAL_MULTIPLEXING, inr_db=per_inr_db, layers=rank
        )
    return ScenarioConfig(
        n_r=n_r,
        n_t=n_t,
        noise_power=1.0,
        snr_db=snr_db,
        own_mode=own_mode,
        interferers=(spec,) * count,
    )


def model_for(cfg: ScenarioConfig, *more: ScenarioConfig):
    """The model of a scenario, or one row per scenario of the same size."""
    return (bf if cfg.own_mode is OwnMode.BEAMFORMING else ostbc).from_config(cfg, *more)


@dataclass(frozen=True)
class GainPoint:
    """Gain at one sweep coordinate (dB value or interferer count)."""

    x: float
    threshold_rank1: float
    threshold_rankr: float

    @property
    def gain_db(self) -> float:
        return linear_to_db(self.threshold_rankr / self.threshold_rank1)


def _gain_points(own_mode: OwnMode, n_r: int, n_t: int, rank: int, p_star: float,
                 points: list[tuple]) -> list[GainPoint]:
    """Thresholds at p_star under count equal rank-1, and rank-r, iBSs at each
    (x, snr_db, inr_db, count) of points: one model of a rank-1 row per
    point, then a rank-r row per point, POINTS_PER_BATCH points at a time,
    inverts both ranks' rows together.  A rank-1 study holds the rank-1
    rows alone and reads each threshold for both ranks; a one-row model
    answers a float."""
    ranks = (1,) if check_count(rank, "rank", MAX_ANTENNAS) == 1 else (1, rank)
    out = []
    for s in range(0, len(points), POINTS_PER_BATCH):
        batch = points[s:s + POINTS_PER_BATCH]
        model = model_for(*(equal_power_config(own_mode, n_r, n_t, snr_db, inr_db, count, r)
                            for r in ranks for _, snr_db, inr_db, count in batch))
        thresholds = np.ravel(model.threshold(p_star)).tolist()
        out += [GainPoint(x, t1, tr) for (x, *_), t1, tr
                in zip(batch, thresholds, thresholds[-len(batch):])]
    return out


def threshold_gain(own_mode: OwnMode, n_r: int, n_t: int, snr_db: float, inr_db,
                   rank: int, p_star: float = 0.01) -> GainPoint | list[GainPoint]:
    """Gain at one INR, or one gain per INR of a 1-d array."""
    inrs = inr_db if np.ndim(inr_db) else [inr_db]
    points = _gain_points(own_mode, n_r, n_t, rank, p_star, [(v, snr_db, v, 1) for v in inrs])
    return points if np.ndim(inr_db) else points[0]


def sweep_inr(own_mode: OwnMode, n_r: int, n_t: int, snr_db: float, spec: SweepSpec,
              rank: int, p_star: float = 0.01) -> list[GainPoint]:
    return threshold_gain(own_mode, n_r, n_t, snr_db, spec.grid_db(), rank, p_star)


def sweep_snr(own_mode: OwnMode, n_r: int, n_t: int, inr_db: float, spec: SweepSpec,
              rank: int, p_star: float = 0.01) -> list[GainPoint]:
    return _gain_points(own_mode, n_r, n_t, rank, p_star,
                        [(v, v, inr_db, 1) for v in spec.grid_db()])


def sweep_interferer_count(own_mode: OwnMode, n_r: int, n_t: int, snr_db: float,
                           total_inr_db: float, counts, rank: int,
                           p_star: float = 0.01) -> list[GainPoint]:
    """Gain vs number of equal-power iBSs at constant total power, a point
    per entry of counts: a nonempty, nondecreasing sequence of integers in
    1..MAX_GRID_POINTS."""
    counts = [check_count(c, "every entry of counts", MAX_GRID_POINTS) for c in counts]
    if not counts:
        raise ConfigError("counts must be a nonempty list")
    if counts != sorted(counts):
        raise ConfigError("counts must be nondecreasing")
    return _gain_points(own_mode, n_r, n_t, rank, p_star,
                        [(float(c), snr_db, total_inr_db, c) for c in counts])
