"""Scenario inputs and the mapping from interferers to exponential rates.

The analytic model reduces every interferer to a collection of
exponentially distributed interference contributions.  How many terms an
interferer adds, and at what scale, depends on the receiver's own
transmission mode:

* Beamforming reception: an interferer precoding n_L spatial layers adds
  n_L terms of scale P/(n_L*sigma2); an OSTBC interferer adds a single
  term of scale P/(n_T*sigma2).
* OSTBC reception: every interferer adds n_T*n_L equal terms of scale
  P/(n_T^2*n_L*sigma2) -- exactly for OSTBC interferers, approximately
  for precoded ones.

Powers are long-term averages.  Only the ratios P/sigma2 enter the
model, so scaling all powers and the noise by a common factor changes
nothing downstream.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass

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


def db_to_linear(x_db: float) -> float:
    """Convert a dB quantity to its linear-scale value 10^(x/10), a positive
    finite float: a value that overflows or underflows to 0 is refused."""
    x_db = float(x_db)
    if not math.isfinite(x_db):
        raise ConfigError(f"dB value must be finite, got {x_db!r}")
    try:
        x = 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ConfigError(f"{x_db!r} dB overflows in linear scale") from None
    if x == 0.0:
        raise ConfigError(f"{x_db!r} dB underflows in linear scale")
    return x


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
        Long-term interference-to-noise ratio at the receiver, in dB.
        The linear power is P = sigma2 * 10^(inr_db/10).
    layers : int
        Number of spatial layers n_L.  Meaningful for spatial
        multiplexing only; beamforming and OSTBC use a single layer.
    """

    technique: Technique
    inr_db: float
    layers: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.inr_db):
            raise ConfigError(f"inr_db must be finite, got {self.inr_db!r}")
        object.__setattr__(self, "layers", _count(self.layers, "layers", ConfigError))
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.technique is not Technique.SPATIAL_MULTIPLEXING and self.layers != 1:
            raise ConfigError(
                f"{self.technique.value} interferers carry one layer, got {self.layers}"
            )

    def power(self, noise_power: float) -> float:
        """Linear long-term received power of this interferer."""
        return noise_power * db_to_linear(self.inr_db)


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
        if not math.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db!r}")
        object.__setattr__(self, "interferers", tuple(self.interferers))
        for power in (self.own_power, *self.interferer_powers()):
            if not 0.0 < power < math.inf:
                raise ConfigError(
                    f"linear power {power!r} (noise_power * 10^(dB/10)) must be "
                    "positive and finite"
                )
        for spec in self.interferers:
            # an interferer's precoder has n_t rows, so its rank is capped
            # by n_t alone; the victim's antenna count does not constrain it
            if (
                spec.technique is Technique.SPATIAL_MULTIPLEXING
                and spec.layers > self.n_t
            ):
                raise ConfigError(
                    f"spatial multiplexing with {spec.layers} layers exceeds "
                    f"the {self.n_t} transmit antennas"
                )

    @property
    def own_power(self) -> float:
        """Linear long-term power of the serving link, P_0."""
        return self.noise_power * db_to_linear(self.snr_db)

    def interferer_powers(self) -> tuple[float, ...]:
        """Linear powers P_i in config order."""
        return tuple(s.power(self.noise_power) for s in self.interferers)

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
    sigma2 = cfg.noise_power
    rates: list[float] = []
    for spec in cfg.interferers:
        p = spec.power(sigma2)
        if cfg.own_mode is OwnMode.BEAMFORMING:
            if spec.technique is Technique.OSTBC:
                rates.append(p / (cfg.n_t * sigma2))
            else:
                rates.extend([p / (spec.layers * sigma2)] * spec.layers)
        else:
            n_terms = cfg.n_t * spec.layers
            rates.extend([p / (cfg.n_t**2 * spec.layers * sigma2)] * n_terms)
    return tuple(rates)


def own_numerator_scale(cfg: ScenarioConfig) -> float:
    """Scale of the numerator statistic X of the SINR.

    Beamforming: X = rho * lambda_max with rho = P_0/sigma2.  OSTBC: X is
    gamma distributed with scale rho = P_0/(n_T^2 sigma2); the squared
    code normalization quadruples (n_T=2) the effective noise.
    """
    rho = cfg.own_power / cfg.noise_power
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
        inr_db = _real(entry, "inr_db")
        try:
            spec = InterfererSpec(technique=tech, inr_db=inr_db,
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
