"""Scenario inputs and the mapping from interferers to exponential rates.

The analytic model reduces every interferer to a collection of
exponentially distributed interference contributions.  How many terms an
interferer adds, and at what scale, depends on the receiver's own
transmission mode:

* Beamforming reception: an interferer precoding n_L spatial layers adds
  n_L terms of scale INR/n_L; an OSTBC interferer adds a single term of
  scale INR/n_T.
* OSTBC reception: every interferer adds n_T*n_L equal terms of scale
  INR/(n_T^2*n_L) -- exactly for OSTBC interferers, approximately for
  precoded ones.

Powers are long-term averages.  Only the ratios enter the model: the
SNR P_0/sigma2 and each INR P_i/sigma2, read from their dB values.
noise_power is checked and hashed with the config, but no result
depends on it.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedDimensionError

# The exact weight tables ship for every pair of counts up to this cap
# (``_tables``, generated by tests/wishart_tables.py), and for no other.
MAX_ANTENNAS = 8


def _count(value, what: str, error: type[Exception]) -> int:
    """A count as a plain int: integer types pass (a numpy integer becomes
    an int), bool and every non-integer raise `error`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def db_to_linear(x_db, what: str = "dB value"):
    """The linear-scale value 10^(x/10) of a dB quantity, a positive finite
    float, or of an array of them by numpy's elementwise power.

    The one rule for a dB value: one that is not finite, or whose power
    overflows or underflows to 0, is refused, and the message names `what`.
    """
    if isinstance(x_db, np.ndarray) and x_db.ndim:
        with np.errstate(over="ignore"):
            x = 10.0 ** (x_db / 10.0)
        bad = ~((x > 0.0) & (x < math.inf))
        if not bad.any():
            return x
        x_db = float(x_db[bad][0])
    else:
        x_db = float(x_db)
        try:
            x = 10.0 ** (x_db / 10.0)
        except OverflowError:
            x = math.inf
        # a NaN fails both comparisons, so it is refused too
        if 0.0 < x < math.inf:
            return x
    raise ConfigError(f"{what} {x_db!r} dB is not positive and finite in linear scale")


def linear_to_db(x: float) -> float:
    """Convert a positive linear-scale quantity to dB."""
    if not (x > 0 and math.isfinite(x)):
        raise ConfigError(f"linear value must be positive and finite, got {x!r}")
    return 10.0 * math.log10(x)


class Technique(enum.Enum):
    """Transmission technique of a base station."""

    BEAMFORMING = "bf"
    SPATIAL_MULTIPLEXING = "sm"
    OSTBC = "ostbc"


class OwnMode(enum.Enum):
    """Reception mode of the user whose SINR is analyzed."""

    BEAMFORMING = "bf"
    OSTBC = "ostbc"


@dataclass(frozen=True)
class InterfererSpec:
    """One interfering base station.

    Parameters
    ----------
    technique : Technique
        What the interferer transmits to its own user.
    inr_db : float
        Long-term interference-to-noise ratio P/sigma2 at the receiver,
        in dB; its linear value 10^(inr_db/10) must be a positive finite
        float.
    layers : int
        Number of spatial layers n_L.  Meaningful for spatial
        multiplexing only; beamforming and OSTBC use a single layer.
    """

    technique: Technique
    inr_db: float
    layers: int = 1

    def __post_init__(self) -> None:
        db_to_linear(self.inr_db, "inr_db")  # refused here, not at first use
        object.__setattr__(self, "layers", _count(self.layers, "layers", ConfigError))
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.technique is not Technique.SPATIAL_MULTIPLEXING and self.layers != 1:
            raise ConfigError(
                f"{self.technique.value} interferers carry one layer, got {self.layers}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one interference scenario.

    Antenna counts are shared by all base stations in the model.
    """

    n_r: int
    n_t: int
    noise_power: float
    snr_db: float
    own_mode: OwnMode
    interferers: tuple[InterfererSpec, ...] = ()

    def __post_init__(self) -> None:
        for name in ("n_r", "n_t"):
            object.__setattr__(self, name, _count(getattr(self, name), name,
                                                  UnsupportedDimensionError))
        if not (1 <= self.n_r <= MAX_ANTENNAS and 1 <= self.n_t <= MAX_ANTENNAS):
            raise UnsupportedDimensionError(
                f"antenna counts must lie in 1..{MAX_ANTENNAS}, "
                f"got n_r={self.n_r}, n_t={self.n_t}"
            )
        if not (self.noise_power > 0 and math.isfinite(self.noise_power)):
            raise ConfigError(f"noise_power must be positive, got {self.noise_power!r}")
        db_to_linear(self.snr_db, "snr_db")  # refused here, not at first use
        object.__setattr__(self, "interferers", tuple(self.interferers))
        for i, spec in enumerate(self.interferers):
            # an interferer's precoder has n_t rows, so its rank is capped
            # by n_t alone; the victim's antenna count does not constrain it
            if (
                spec.technique is Technique.SPATIAL_MULTIPLEXING
                and spec.layers > self.n_t
            ):
                raise ConfigError(
                    f"interferers[{i}]: spatial multiplexing with {spec.layers} "
                    f"layers exceeds the {self.n_t} transmit antennas"
                )

    def warnings(self) -> tuple[str, ...]:
        """Model caveats for this configuration."""
        notes = []
        if self.own_mode is OwnMode.OSTBC and self.n_t > 2:
            notes.append(
                f"no full-rate orthogonal code exists for n_t={self.n_t}; "
                "OSTBC results extrapolate the two-antenna analysis"
            )
        return tuple(notes)


def build_rate_set(cfg: ScenarioConfig) -> tuple[float, ...]:
    """Expand interferers into per-term exponential scales.

    Order is deterministic: interferers in config order, each one's
    layer terms consecutive.
    """
    rates: list[float] = []
    for spec in cfg.interferers:
        inr = db_to_linear(spec.inr_db)
        if cfg.own_mode is OwnMode.BEAMFORMING:
            if spec.technique is Technique.OSTBC:
                rates.append(inr / cfg.n_t)
            else:
                rates.extend([inr / spec.layers] * spec.layers)
        else:
            n_terms = cfg.n_t * spec.layers
            rates.extend([inr / (cfg.n_t**2 * spec.layers)] * n_terms)
    return tuple(rates)


def own_numerator_scale(cfg: ScenarioConfig) -> float:
    """Scale of the numerator statistic X of the SINR.

    Beamforming: X = rho * lambda_max with rho = P_0/sigma2, the SNR.
    OSTBC: X is gamma distributed with scale rho = P_0/(n_T^2 sigma2); the
    squared code normalization quadruples (n_T=2) the effective noise.
    """
    rho = db_to_linear(cfg.snr_db)
    if cfg.own_mode is OwnMode.OSTBC:
        rho /= cfg.n_t**2
    return rho


_TOP_KEYS = {"n_r", "n_t", "noise_power", "snr_db", "own_mode", "interferers"}
_INT_KEYS = {"technique", "layers", "inr_db"}


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object, strictly.

    Checked here is the shape: unknown keys are rejected so that typos
    fail loudly instead of silently falling back to defaults, and every
    real is a JSON number; the counts and ranges are checked by
    ScenarioConfig and InterfererSpec.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"n_r", "n_t", "noise_power", "snr_db", "own_mode"} - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    def _real(obj: dict, key: str) -> float:
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{key} must be a number, got {v!r}")
        return float(v)

    try:
        own_mode = OwnMode(data["own_mode"])
    except ValueError:
        raise ConfigError(
            f"own_mode must be one of {[m.value for m in OwnMode]}, "
            f"got {data['own_mode']!r}"
        ) from None

    entries = data.get("interferers", [])
    if not isinstance(entries, list):
        raise ConfigError(f"interferers must be a list, got {entries!r}")
    interferers = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"interferers[{idx}] must be an object")
        bad = set(entry) - _INT_KEYS
        if bad:
            raise ConfigError(f"interferers[{idx}]: unknown keys {sorted(bad)}")
        if "technique" not in entry or "inr_db" not in entry:
            raise ConfigError(f"interferers[{idx}]: technique and inr_db are required")
        try:
            tech = Technique(entry["technique"])
        except ValueError:
            raise ConfigError(
                f"interferers[{idx}]: technique must be one of "
                f"{[t.value for t in Technique]}, got {entry['technique']!r}"
            ) from None
        try:
            spec = InterfererSpec(technique=tech, inr_db=_real(entry, "inr_db"),
                                  layers=entry.get("layers", 1))
        except ConfigError as exc:
            raise ConfigError(f"interferers[{idx}]: {exc}") from None
        interferers.append(spec)

    return ScenarioConfig(
        n_r=data["n_r"],
        n_t=data["n_t"],
        noise_power=_real(data, "noise_power"),
        snr_db=_real(data, "snr_db"),
        own_mode=own_mode,
        interferers=tuple(interferers),
    )


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario config from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Inverse of config_from_dict; canonical form for hashing/echoing."""
    return {
        "n_r": cfg.n_r,
        "n_t": cfg.n_t,
        "noise_power": cfg.noise_power,
        "snr_db": cfg.snr_db,
        "own_mode": cfg.own_mode.value,
        "interferers": [
            {"technique": s.technique.value, "layers": s.layers, "inr_db": s.inr_db}
            for s in cfg.interferers
        ],
    }
