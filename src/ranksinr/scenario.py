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

Each kind of input value has one rule here, and every public entry
point of the package calls it: ``check_count`` (an integer in lo..hi;
bool and every non-integer are refused, a numpy integer becomes an
int), ``check_real`` (an int or float, numpy's too, as a float; bool
and str are refused), ``check_probability`` (a real number in (0, 1)),
``check_points`` (evaluation points, finite and > 0 or >= 0),
``check_enum`` (an enum member, given as itself or by its value) and
``db_to_linear`` (a dB value whose linear value is positive and finite).
Each refusal is a ConfigError that names the value.  ScenarioConfig and
InterfererSpec keep what the rules return, so two equal configs hold the
same values and hash alike, whether built in Python or read from JSON.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigError, UnsupportedDimensionError

# The exact weight tables ship for every pair of counts up to this cap
# (``_tables``, generated by tests/wishart_tables.py), and for no other.
MAX_ANTENNAS = 8


# isinstance against these is a few times cheaper than against the
# abstract numbers.Integral and numbers.Real
_INTEGERS = (int, np.integer)
_REALS = (*_INTEGERS, float, np.floating)


def check_count(value, what: str, hi: int, error: type[ConfigError] = ConfigError,
                lo: int = 1) -> int:
    """The one integer rule: `value` as a plain int in lo..hi.  Integer
    types pass (a numpy integer becomes an int); bool, every non-integer
    and every value outside the range raise `error`, naming `what`."""
    if isinstance(value, _INTEGERS) and not isinstance(value, bool) and lo <= int(value) <= hi:
        return int(value)
    raise error(f"{what} must be an integer in {lo}..{hi}, got {value!r}")


def check_real(value, what: str) -> float:
    """A real number as a float: int and float types, numpy's too, pass;
    bool, str, every other type and an int past the double range raise
    ConfigError, naming `what`."""
    try:
        if isinstance(value, _REALS) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def check_probability(p, what: str) -> float:
    """A probability in (0, 1), open at both ends, as a float."""
    p = check_real(p, what)
    # written as "not <" so that NaN is refused too
    if not 0.0 < p < 1.0:
        raise ConfigError(f"{what} must lie in (0, 1), got {p!r}")
    return p


def check_points(x, what: str, positive: bool = False) -> np.ndarray:
    """Evaluation points, a scalar or an array of real numbers, as float64
    (a numpy scalar for a scalar): each finite and >= 0, or > 0 where
    `positive`, with -0.0 read as 0.0.  A bool or non-real point, NaN,
    inf or a point out of range raises ConfigError, naming `what`."""
    # a float, the commonest scalar, skips the array round trip; NaN fails
    # both comparisons and is refused below
    if type(x) is float and (x > 0.0 if positive else x >= 0.0) and x < math.inf:
        return np.float64(x + 0.0)
    arr = np.asarray(x)
    if arr.dtype.kind in "iuf":
        arr = np.add(arr, 0.0, dtype=np.float64)  # a copy, where -0.0 reads +0.0
        # NaN fails every comparison, so it is refused too
        if not arr.size or ((arr.min() > 0.0 if positive else arr.min() >= 0.0)
                            and arr.max() < math.inf):
            return arr
    raise ConfigError(f"{what} must be finite and {'>' if positive else '>='} 0, got {x!r}")


def check_enum(value, kind: type[enum.Enum], what: str):
    """A member of the enum `kind`, given as itself or by its value."""
    if type(value) is kind:
        return value
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"{what} must be one of {[m.value for m in kind]}, got {value!r}") from None


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
        x_db = check_real(x_db, what)
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
        What the interferer transmits to its own user, as a member or
        by its value ("bf", "sm" or "ostbc").
    inr_db : float
        Long-term interference-to-noise ratio P/sigma2 at the receiver,
        in dB; its linear value 10^(inr_db/10) must be a positive finite
        float.
    layers : int
        Number of spatial layers n_L, 1..MAX_ANTENNAS.  Meaningful for
        spatial multiplexing only; beamforming and OSTBC use a single
        layer.
    """

    technique: Technique
    inr_db: float
    layers: int = 1

    def __post_init__(self) -> None:
        # frozen: the checked values go straight into the instance __dict__
        vars(self).update(technique=check_enum(self.technique, Technique, "technique"),
                          inr_db=check_real(self.inr_db, "inr_db"),
                          layers=check_count(self.layers, "layers", MAX_ANTENNAS))
        db_to_linear(self.inr_db, "inr_db")  # refused here, not at first use
        if self.technique is not Technique.SPATIAL_MULTIPLEXING and self.layers != 1:
            raise ConfigError(
                f"{self.technique.value} interferers carry one layer, got {self.layers}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one interference scenario.

    Antenna counts are shared by all base stations in the model and lie
    in 1..MAX_ANTENNAS; noise_power is a positive finite number, snr_db
    a dB value, own_mode a member or its value ("bf" or "ostbc") and
    interferers a tuple or list of InterfererSpec.
    """

    n_r: int
    n_t: int
    noise_power: float
    snr_db: float
    own_mode: OwnMode
    interferers: tuple[InterfererSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.interferers, (tuple, list)):
            raise ConfigError(f"interferers must be a tuple or list, got {self.interferers!r}")
        vars(self).update(
            n_r=check_count(self.n_r, "n_r", MAX_ANTENNAS, UnsupportedDimensionError),
            n_t=check_count(self.n_t, "n_t", MAX_ANTENNAS, UnsupportedDimensionError),
            noise_power=check_real(self.noise_power, "noise_power"),
            snr_db=check_real(self.snr_db, "snr_db"),
            own_mode=check_enum(self.own_mode, OwnMode, "own_mode"),
            interferers=tuple(self.interferers))
        if not (self.noise_power > 0 and math.isfinite(self.noise_power)):
            raise ConfigError(f"noise_power must be positive, got {self.noise_power!r}")
        db_to_linear(self.snr_db, "snr_db")  # refused here, not at first use
        for i, spec in enumerate(self.interferers):
            if not isinstance(spec, InterfererSpec):
                raise ConfigError(f"interferers[{i}] must be an InterfererSpec, got {spec!r}")
            # an interferer's precoder has n_t rows, so its rank is capped
            # by n_t alone; the victim's antenna count does not constrain it
            if spec.layers > self.n_t:
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


# the fields of each config dataclass in order, and those without a default
_FIELDS = {cls: (tuple(f.name for f in fields(cls)),
                 {f.name for f in fields(cls) if f.default is MISSING})
           for cls in (InterfererSpec, ScenarioConfig)}


def _json_fields(cls, obj, where: str) -> None:
    """Refuse obj unless it is a JSON object whose keys are fields of the
    dataclass cls, among them every field without a default."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    names, required = _FIELDS[cls]
    for word, keys in (("unknown", obj.keys() - names), ("missing", required - obj.keys())):
        if keys:
            raise ConfigError(f"{where}: {word} keys {sorted(keys)}")


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object, strictly.

    Checked here is the JSON shape alone: an object with the fields of
    ScenarioConfig, and interferers a list of objects with those of
    InterfererSpec.  Unknown keys are rejected so that typos fail loudly
    instead of silently falling back to defaults.  Every value is decided
    by ScenarioConfig and InterfererSpec, so a config read from JSON
    equals, and hashes like, one built from the same values in Python.
    """
    _json_fields(ScenarioConfig, data, "config")
    entries = data.get("interferers", [])
    if not isinstance(entries, list):
        raise ConfigError(f"interferers must be a list, got {entries!r}")
    interferers = []
    for idx, entry in enumerate(entries):
        where = f"interferers[{idx}]"
        _json_fields(InterfererSpec, entry, where)
        try:
            interferers.append(InterfererSpec(**entry))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return ScenarioConfig(**dict(data, interferers=tuple(interferers)))


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
    """Inverse of config_from_dict, the fields by name and the enums by
    value; canonical form for hashing."""
    def plain(obj) -> dict:
        return {k: v.value if isinstance(v := getattr(obj, k), enum.Enum) else v
                for k in _FIELDS[type(obj)][0]}
    return dict(plain(cfg), interferers=[plain(spec) for spec in cfg.interferers])
