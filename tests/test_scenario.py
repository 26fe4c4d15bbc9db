"""Config validation and the interferer-to-rate-set expansion."""

import dataclasses
import math

import numpy as np
import pytest

from ranksinr.curves import config_hash
from ranksinr.errors import ConfigError, UnsupportedDimensionError
from ranksinr.montecarlo import simulate_bf_sinr
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
    config_from_dict,
    config_to_dict,
    db_to_linear,
    linear_to_db,
    load_config,
    own_numerator_scale,
)
from ranksinr.sweeps import model_for

from conftest import REF_BF, REF_OSTBC


def test_db_conversions_match_known_values():
    assert db_to_linear(15.0) == pytest.approx(31.62, abs=0.01)
    assert db_to_linear(6.0) == pytest.approx(3.98, abs=0.01)
    assert db_to_linear(8.0) == pytest.approx(6.31, abs=0.01)
    assert db_to_linear(10.0) == pytest.approx(10.0, abs=1e-12)


def test_db_roundtrip():
    for x in (-17.3, 0.0, 3.0, 42.0):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)


def test_db_rejects_nonfinite_and_nonpositive():
    with pytest.raises(ConfigError):
        db_to_linear(math.inf)
    # a numpy dB value once overflowed to inf with a RuntimeWarning, and
    # -4000 dB gave 0
    for db in (np.float64(4000.0), 4000.0, -4000.0, np.float64(-4000.0)):
        with pytest.raises(ConfigError, match="linear scale"):
            db_to_linear(db)
    assert type(db_to_linear(np.float64(10.0))) is float
    with pytest.raises(ConfigError):
        linear_to_db(0.0)
    with pytest.raises(ConfigError):
        linear_to_db(-1.0)
    with pytest.raises(ConfigError):
        linear_to_db(math.nan)


def test_interferer_layers_validation():
    with pytest.raises(ConfigError):
        InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING, inr_db=0.0, layers=0)
    # layers only make sense for spatial multiplexing
    with pytest.raises(ConfigError):
        InterfererSpec(technique=Technique.BEAMFORMING, inr_db=0.0, layers=2)
    with pytest.raises(ConfigError):
        InterfererSpec(technique=Technique.OSTBC, inr_db=0.0, layers=2)
    with pytest.raises(ConfigError):
        InterfererSpec(technique=Technique.OSTBC, inr_db=math.nan)


def test_antenna_bounds():
    for n_r, n_t in ((0, 2), (2, 0), (9, 2), (2, 9)):
        with pytest.raises(UnsupportedDimensionError):
            ScenarioConfig(
                n_r=n_r, n_t=n_t, noise_power=1.0, snr_db=0.0,
                own_mode=OwnMode.BEAMFORMING,
            )


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_counts_must_be_integers(value):
    # True once answered as a 1-antenna link; floats failed deep in the model
    for n_r, n_t in ((value, 2), (2, value)):
        with pytest.raises(UnsupportedDimensionError):
            ScenarioConfig(
                n_r=n_r, n_t=n_t, noise_power=1.0, snr_db=0.0,
                own_mode=OwnMode.OSTBC,
            )
    with pytest.raises(ConfigError):
        InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING, inr_db=0.0, layers=value)


@pytest.mark.parametrize("own_mode", list(OwnMode))
def test_numpy_integer_counts_are_plain_ints(own_mode):
    def config(count):
        return ScenarioConfig(
            n_r=count(2), n_t=count(4), noise_power=1.0, snr_db=15.0, own_mode=own_mode,
            interferers=(InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING,
                                        inr_db=10.0, layers=count(2)),),
        )

    plain, numpy = config(int), config(np.int64)
    assert numpy == plain
    assert {type(numpy.n_r), type(numpy.n_t), type(numpy.interferers[0].layers)} == {int}
    grid = np.geomspace(0.1, 100.0, 25)
    assert model_for(numpy).outage(grid).tobytes() == model_for(plain).outage(grid).tobytes()


def test_enums_may_be_given_by_value():
    # a str own_mode once built and failed at first use with AttributeError
    by_value = ScenarioConfig(2, 2, 1.0, 15.0, "bf", (InterfererSpec("sm", 10.0, 2),))
    members = ScenarioConfig(2, 2, 1.0, 15.0, OwnMode.BEAMFORMING,
                             (InterfererSpec(Technique.SPATIAL_MULTIPLEXING, 10.0, 2),))
    assert by_value == members and config_hash(by_value) == config_hash(members)
    assert by_value.own_mode is OwnMode.BEAMFORMING
    assert model_for(by_value).outage(2.0) == model_for(members).outage(2.0)
    assert (simulate_bf_sinr(by_value, 10, 0).samples.tobytes()
            == simulate_bf_sinr(members, 10, 0).samples.tobytes())
    for own_mode in ("mrc", Technique.BEAMFORMING, None, 1):
        with pytest.raises(ConfigError, match="own_mode must be one of"):
            ScenarioConfig(2, 2, 1.0, 15.0, own_mode)
    for technique in ("mrc", OwnMode.BEAMFORMING, None):
        with pytest.raises(ConfigError, match="technique must be one of"):
            InterfererSpec(technique, 10.0)


@pytest.mark.parametrize("field", ["noise_power", "snr_db", "inr_db"])
@pytest.mark.parametrize("value", ["1", True, None, [1.0],
                                   pytest.param(10**400, id="int-past-double")])
def test_real_values_must_be_numbers(field, value):
    # "15" and "10" once built, "1" raised TypeError and 10**400 OverflowError
    cfg = dict(n_r=2, n_t=2, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.BEAMFORMING)
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        if field == "inr_db":
            InterfererSpec(Technique.BEAMFORMING, value)
        else:
            ScenarioConfig(**dict(cfg, **{field: value}))


def test_numpy_reals_are_plain_floats():
    cfg = ScenarioConfig(2, 2, np.float32(0.5), np.int64(15), OwnMode.BEAMFORMING,
                         [InterfererSpec(Technique.BEAMFORMING, np.float64(8.0))])
    assert cfg == ScenarioConfig(2, 2, 0.5, 15.0, OwnMode.BEAMFORMING,
                                 (InterfererSpec(Technique.BEAMFORMING, 8.0),))
    assert {type(cfg.noise_power), type(cfg.snr_db), type(cfg.interferers[0].inr_db)} == {float}


@pytest.mark.parametrize("interferers", [None, 5, "bf", (5,), ({"technique": "bf"},)])
def test_interferers_must_be_a_sequence_of_specs(interferers):
    with pytest.raises(ConfigError, match="interferers"):
        ScenarioConfig(2, 2, 1.0, 15.0, OwnMode.BEAMFORMING, interferers)


def test_equal_configs_hash_equal():
    # only the JSON path once turned integers into floats, so these two
    # were equal and hashed 2b82b921ed9c... and efcff7b37049...
    cfg = ScenarioConfig(2, 2, 1, 15, OwnMode.BEAMFORMING,
                         (InterfererSpec(Technique.BEAMFORMING, 8),))
    twin = config_from_dict(config_to_dict(cfg))
    assert twin == cfg
    assert config_hash(twin) == config_hash(cfg) == (
        "efcff7b3704916f8bfa133d7dbe1da12ba81111c7fffa93e1401bb96e90eff57")


def test_readme_example_config_hash_is_pinned(tmp_path):
    # the hash every CLI output of the README's example config prints
    path = tmp_path / "scenario.json"
    path.write_text("""{
  "n_r": 2,
  "n_t": 2,
  "noise_power": 1.0,
  "snr_db": 15.0,
  "own_mode": "bf",
  "interferers": [
    {"technique": "ostbc", "inr_db": 6.0},
    {"technique": "bf", "inr_db": 8.0},
    {"technique": "sm", "inr_db": 10.0, "layers": 2}
  ]
}
""")
    assert config_hash(load_config(str(path))) == (
        "77483962ec61fb9e4098f224e27b3b2de0e58187cf503a4579ae7f2f1624c616")
    assert config_hash(REF_BF) == config_hash(load_config(str(path)))


def test_sm_rank_capped_by_transmit_antennas_only():
    # a rank-4 interferer hitting a 2-antenna receiver is legal
    cfg = ScenarioConfig(
        n_r=2, n_t=4, noise_power=1.0, snr_db=15.0,
        own_mode=OwnMode.BEAMFORMING,
        interferers=(
            InterfererSpec(
                technique=Technique.SPATIAL_MULTIPLEXING, inr_db=10.0, layers=4
            ),
        ),
    )
    assert len(build_rate_set(cfg)) == 4
    with pytest.raises(ConfigError):
        ScenarioConfig(
            n_r=4, n_t=2, noise_power=1.0, snr_db=15.0,
            own_mode=OwnMode.BEAMFORMING,
            interferers=(
                InterfererSpec(
                    technique=Technique.SPATIAL_MULTIPLEXING, inr_db=10.0, layers=3
                ),
            ),
        )


def test_own_power_and_numerator_scale():
    # the own power enters as the SNR P_0/sigma2 alone
    assert own_numerator_scale(REF_BF) == db_to_linear(15.0)
    assert own_numerator_scale(REF_BF) == pytest.approx(31.6228, abs=1e-3)
    # squared Alamouti normalization divides by n_t^2
    assert own_numerator_scale(REF_OSTBC) == pytest.approx(7.905, abs=0.003)


def test_reference_rate_set_bf_mode():
    rates = build_rate_set(REF_BF)
    assert len(rates) == 4
    p_ostbc, p_bf, p_sm = (db_to_linear(x) for x in (6.0, 8.0, 10.0))
    assert rates[0] == pytest.approx(p_ostbc / 2)
    assert rates[1] == pytest.approx(p_bf)
    assert rates[2] == rates[3] == pytest.approx(p_sm / 2)


def test_reference_rate_set_ostbc_mode():
    rates = build_rate_set(REF_OSTBC)
    # every interferer contributes n_t * n_l equal entries
    assert len(rates) == 2 + 2 + 4
    p_ostbc, p_bf, p_sm = (db_to_linear(x) for x in (6.0, 8.0, 10.0))
    assert rates[0] == rates[1] == pytest.approx(p_ostbc / 4)
    assert rates[2] == rates[3] == pytest.approx(p_bf / 4)
    assert rates[4:] == pytest.approx((p_sm / 8,) * 4)


def test_rate_set_invariant_to_common_power_scale():
    # only the dB ratios enter: no bit depends on noise_power
    for cfg in (REF_BF, REF_OSTBC):
        for sigma2 in (7.25, 1e-3):
            scaled_cfg = dataclasses.replace(cfg, noise_power=sigma2)
            assert build_rate_set(scaled_cfg) == build_rate_set(cfg)
            assert own_numerator_scale(scaled_cfg) == own_numerator_scale(cfg)


def test_warnings_flag_large_ostbc_arrays():
    cfg = ScenarioConfig(
        n_r=4, n_t=4, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC
    )
    assert any("full-rate" in w for w in cfg.warnings())
    assert REF_BF.warnings() == ()
    assert REF_OSTBC.warnings() == ()


def test_config_dict_roundtrip():
    data = config_to_dict(REF_BF)
    assert config_from_dict(data) == REF_BF


def test_config_from_dict_rejects_unknown_and_missing_keys():
    good = config_to_dict(REF_BF)
    bad = dict(good, typo_key=1)
    with pytest.raises(ConfigError, match=r"config: unknown keys \['typo_key'\]"):
        config_from_dict(bad)
    missing = {k: v for k, v in good.items() if k != "noise_power"}
    with pytest.raises(ConfigError, match=r"config: missing keys \['noise_power'\]"):
        config_from_dict(missing)
    bad_int = dict(good)
    bad_int["interferers"] = [{"technique": "sm", "inr_db": 0.0, "rank": 2}]
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(bad_int)


@pytest.mark.parametrize("value", [2.0, True, "2"])
def test_config_from_dict_counts_follow_the_one_integer_rule(value):
    # decided by ScenarioConfig and InterfererSpec; a refused layers count
    # still names its interferer
    good = config_to_dict(REF_BF)
    for key in ("n_r", "n_t"):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            config_from_dict(dict(good, **{key: value}))
    interferers = [{"technique": "bf", "inr_db": 8.0},
                   {"technique": "sm", "inr_db": 10.0, "layers": value}]
    with pytest.raises(ConfigError, match=r"^interferers\[1\]: layers must be an integer"):
        config_from_dict(dict(good, interferers=interferers))


def test_config_from_dict_rejects_wrong_types():
    good = config_to_dict(REF_BF)
    with pytest.raises(ConfigError):
        config_from_dict(dict(good, n_r=2.0))
    with pytest.raises(ConfigError):
        config_from_dict(dict(good, n_r=True))
    with pytest.raises(ConfigError):
        config_from_dict(dict(good, own_mode="mrc"))
    with pytest.raises(ConfigError):
        config_from_dict(dict(good, snr_db="15"))
    for interferers in (5, None, {"technique": "bf", "inr_db": 8.0}):
        with pytest.raises(ConfigError, match="must be a list"):
            config_from_dict(dict(good, interferers=interferers))
    # 10^400 overflows a double; 10^-400 is 0
    for db in (4000.0, -4000.0):
        with pytest.raises(ConfigError, match="linear"):
            config_from_dict(dict(good, snr_db=db))
        with pytest.raises(ConfigError, match="linear"):
            config_from_dict(dict(good, interferers=[{"technique": "bf", "inr_db": db}]))
    # noise_power scales nothing, so no product with it can overflow
    big = config_from_dict(dict(good, noise_power=1e300, snr_db=100.0))
    unit = config_from_dict(dict(good, snr_db=100.0))
    assert build_rate_set(big) == build_rate_set(unit)
    assert own_numerator_scale(big) == own_numerator_scale(unit)


def test_interferer_refusals_name_their_interferer():
    good = config_to_dict(REF_BF)
    sm3 = {"technique": "sm", "inr_db": 10.0, "layers": 3}
    bad_inr = {"technique": "sm", "inr_db": "10", "layers": 2}
    for interferer, message in ((sm3, "spatial multiplexing with 3 layers exceeds"),
                                (bad_inr, "inr_db must be a number")):
        interferers = [{"technique": "bf", "inr_db": 8.0}, interferer]
        with pytest.raises(ConfigError, match=rf"^interferers\[1\]: {message}"):
            config_from_dict(dict(good, interferers=interferers))
