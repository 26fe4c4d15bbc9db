"""Threshold-gain studies built on the closed-form models.

The figure of merit is the gamma0 gain: how much higher an outage
threshold a victim can support, at a fixed outage target (default 1%),
when a single interferer spreads its power over more spatial layers.
Positive gain means higher-rank interference is the milder one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import bf, ostbc
from .errors import ConfigError
from .scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    db_to_linear,
    linear_to_db,
)


# points a dB grid may hold, and the largest interferer count a count sweep
# takes; larger ones are refused before allocation
MAX_GRID_POINTS = 100_000


class SweepKind(Enum):
    THRESHOLD = "threshold"
    SNR = "snr"
    INR = "inr"
    NUM_INTERFERERS = "num_interferers"


@dataclass(frozen=True)
class SweepSpec:
    """A sweep axis: a dB grid, or an interferer-count list."""

    kind: SweepKind
    start_db: float = 0.0
    stop_db: float = 0.0
    step_db: float = 1.0
    counts: tuple[int, ...] = field(default_factory=tuple)
    p_star: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.p_star < 1.0:
            raise ConfigError(f"p_star must lie in (0, 1), got {self.p_star}")
        if self.kind is SweepKind.NUM_INTERFERERS:
            if not self.counts or any(
                not isinstance(c, int) or not 1 <= c <= MAX_GRID_POINTS for c in self.counts
            ):
                raise ConfigError(
                    f"counts must be a nonempty list of integers in 1..{MAX_GRID_POINTS}")
            if list(self.counts) != sorted(self.counts):
                raise ConfigError("counts must be nondecreasing")
        else:
            if self.step_db <= 0:
                raise ConfigError(f"step must be positive, got {self.step_db}")
            if self.stop_db < self.start_db:
                raise ConfigError(
                    f"empty grid: stop {self.stop_db} dB < start {self.start_db} dB"
                )
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
        if self.kind is SweepKind.NUM_INTERFERERS:
            raise ConfigError("count sweeps have no dB grid")
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
    """count equal-power iBSs of the given rank at fixed total power.

    A single iBS keeps the INR as given, with no round trip through
    linear scale; the rank-1 vs rank-r studies build their configs so.
    """
    per_inr_db = (total_inr_db if count == 1
                  else linear_to_db(db_to_linear(total_inr_db) / count))
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


def model_for(cfg: ScenarioConfig):
    if cfg.own_mode is OwnMode.BEAMFORMING:
        return bf.from_config(cfg)
    return ostbc.from_config(cfg)


@dataclass(frozen=True)
class GainPoint:
    """Gain at one sweep coordinate (dB value or interferer count)."""

    x: float
    threshold_rank1: float
    threshold_rankr: float

    @property
    def gain_db(self) -> float:
        return linear_to_db(self.threshold_rankr / self.threshold_rank1)


def _gain_point(x: float, own_mode: OwnMode, n_r: int, n_t: int, snr_db: float,
                inr_db: float, count: int, rank: int, p_star: float) -> GainPoint:
    """Thresholds at p_star under count equal rank-1, then rank-r, iBSs."""
    thr = [model_for(equal_power_config(own_mode, n_r, n_t, snr_db, inr_db, count, r))
           .threshold(p_star) for r in (1, rank)]
    return GainPoint(x=x, threshold_rank1=thr[0], threshold_rankr=thr[1])


def threshold_gain(
    own_mode: OwnMode,
    n_r: int,
    n_t: int,
    snr_db: float,
    inr_db: float,
    rank: int,
    p_star: float = 0.01,
) -> GainPoint:
    return _gain_point(inr_db, own_mode, n_r, n_t, snr_db, inr_db, 1, rank, p_star)


def sweep_inr(
    own_mode: OwnMode,
    n_r: int,
    n_t: int,
    snr_db: float,
    spec: SweepSpec,
    rank: int,
) -> list[GainPoint]:
    return [
        threshold_gain(own_mode, n_r, n_t, snr_db, v, rank, spec.p_star)
        for v in spec.grid_db()
    ]


def sweep_snr(
    own_mode: OwnMode,
    n_r: int,
    n_t: int,
    inr_db: float,
    spec: SweepSpec,
    rank: int,
) -> list[GainPoint]:
    return [
        _gain_point(v, own_mode, n_r, n_t, v, inr_db, 1, rank, spec.p_star)
        for v in spec.grid_db()
    ]


def sweep_interferer_count(
    own_mode: OwnMode,
    n_r: int,
    n_t: int,
    snr_db: float,
    total_inr_db: float,
    spec: SweepSpec,
    rank: int,
) -> list[GainPoint]:
    """Gain vs number of equal-power iBSs at constant total power."""
    return [_gain_point(float(count), own_mode, n_r, n_t, snr_db, total_inr_db, count, rank,
                        spec.p_star) for count in spec.counts]

