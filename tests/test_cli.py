"""CLI behavior: formats, exit codes, determinism.

Runs main() in process for speed; one subprocess check at the end
confirms the module entry point is wired up.
"""

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ranksinr
from ranksinr import cli
from ranksinr.engine import SinrModel
from ranksinr.errors import NumericInstabilityError
from ranksinr.mixture import MixtureSpec, cdf_y, pdf_y
from ranksinr.montecarlo import chunk_draws
from ranksinr.scenario import build_rate_set, load_config
from ranksinr.sweeps import model_for, threshold_gain

from oracles import law_gaps, xi_rounded


# the reference mix: an OSTBC, a BF and a 2-layer SM interferer
REF_MIX = [
    {"technique": "ostbc", "inr_db": 6.0},
    {"technique": "bf", "inr_db": 8.0},
    {"technique": "sm", "inr_db": 10.0, "layers": 2},
]


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "n_r": 2,
        "n_t": 2,
        "noise_power": 1.0,
        "snr_db": 15.0,
        "own_mode": "bf",
        "interferers": [
            {"technique": "sm", "inr_db": 10.0, "layers": 2},
        ],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition(": ")
            meta[k] = v
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# --- happy paths ---


def test_outage_csv_shape(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "outage", "--config", cfg)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["gamma0_db", "outage"]
    assert meta["tool"].startswith("ranksinr ")
    assert "config_hash" in meta and meta["grid_db"] == "-5:20:0.5"
    assert len(rows) == 51
    p = [float(r[1]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in p)
    assert p == sorted(p)


@pytest.mark.filterwarnings("error")
def test_outage_is_silent_where_the_xi_mixture_is_unreliable(tmp_path, capsys):
    # 8x8 OSTBC under the reference mix: its Xi coefficients drift from
    # summing to 1, but the outage does not read them
    cfg = write_cfg(tmp_path, n_r=8, n_t=8, own_mode="ostbc", interferers=[
        {"technique": "ostbc", "inr_db": 6.0},
        {"technique": "bf", "inr_db": 8.0},
        {"technique": "sm", "inr_db": 10.0, "layers": 2},
    ])
    code, out, err = run(capsys, "outage", "--config", cfg)
    assert code == 0
    assert err == ""
    assert len(parse_csv(out)[2]) == 51


def test_one_point_grid_prints_the_row_of_the_full_grid(tmp_path, capsys):
    # 8x8 BF under the reference mix, whose signed psi sum amplifies
    # round-off by about 1e7: a value that depended on the other points of
    # the call read -1.09e-9 alone at 4 dB and exited 3
    cfg = write_cfg(tmp_path, n_r=8, n_t=8, interferers=REF_MIX)
    code, out, err = run(capsys, "outage", "--config", cfg)
    assert (code, err) == (0, "")
    full = {row[0]: row for row in parse_csv(out)[2]}
    code, out, err = run(capsys, "outage", "--config", cfg, "--grid=4:4:1")
    assert (code, err) == (0, "")
    assert parse_csv(out)[2] == [full["4"]]


def test_pdf_json_shape(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "pdf", "--config", cfg, "--format", "json",
                       "--grid=0:10:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["gamma_db", "pdf", "pdf_per_db"]
    assert len(doc["rows"]) == 11
    assert all(r[1] >= 0 for r in doc["rows"])


def test_outage_with_mc_columns(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "outage", "--config", cfg, "--mc",
                       "--samples", "40000", "--grid=0:10:5")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["gamma0_db", "outage", "mc_outage", "mc_se"]
    assert meta["seed"] == "0" and meta["samples"] == "40000"
    for r in rows:
        cf, emp, se = float(r[1]), float(r[2]), float(r[3])
        assert abs(emp - cf) < max(5 * se, 0.01)


@pytest.mark.parametrize("n_r,n_t", [(1, 1), (2, 4), (8, 1), (8, 8)])
def test_mc_metadata_reports_the_chunk_of_the_antenna_pair(tmp_path, capsys, n_r, n_t):
    cfg = write_cfg(tmp_path, n_r=n_r, n_t=n_t, interferers=[])
    for command in (["outage", "--mc", "--grid=0:10:5"], ["approx-validate"]):
        code, out, _ = run(capsys, *command, "--config", cfg, "--samples", "5")
        # five draws may fail approx-validate's mean check; it reports either way
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
        meta, _, _ = parse_csv(out)
        assert meta["chunk_size"] == str(chunk_draws(n_r, n_t)), command


def test_pdf_mc_density_tracks_closed_form(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "pdf", "--config", cfg, "--mc",
                       "--samples", "100000", "--grid=-2:16:1")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[-1] == "mc_pdf_per_db"
    sup = max(abs(float(r[2]) - float(r[3])) for r in rows)
    assert sup < 0.05


def test_gain_single_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "gain", "--config", cfg)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["inr_db", "threshold_rank1", "threshold_rankr", "gain_db"]
    assert len(rows) == 1 and meta["rank"] == "2"
    assert float(rows[0][3]) > 0.1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_r, n_t, own_mode, layers", [(2, 2, "bf", 2), (2, 4, "ostbc", 4)])
def test_gain_is_the_one_point_sweep_inr(tmp_path, capsys, fmt, n_r, n_t, own_mode, layers):
    cfg = write_cfg(tmp_path, n_r=n_r, n_t=n_t, own_mode=own_mode,
                    interferers=[{"technique": "sm", "inr_db": 10.0, "layers": layers}])
    code, gain, _ = run(capsys, "gain", "--config", cfg, "--format", fmt)
    assert code == 0
    code, sweep, _ = run(capsys, "sweep-inr", "--config", cfg, "--format", fmt,
                         "--grid=10.0:10.0:1")
    assert code == 0
    # the two differ by the sweep's grid line alone; JSON floats round-trip,
    # so equal documents hold bit-identical values
    if fmt == "csv":
        assert sweep.replace("# grid: 10.0:10.0:1\n", "") == gain
        assert len(parse_csv(gain)[2]) == 1
    else:
        doc = json.loads(sweep)
        assert doc["meta"].pop("grid") == "10.0:10.0:1"
        assert doc == json.loads(gain) and len(doc["rows"]) == 1


@pytest.mark.parametrize("own_mode", ["bf", "ostbc"])
@pytest.mark.parametrize("n_r, n_t", [(1, 3), (2, 2), (2, 4), (4, 4)])
@pytest.mark.parametrize("technique, full_rank", [("bf", False), ("sm", False), ("sm", True)],
                         ids=["bf", "sm-1", "sm-full"])
def test_gain_reads_the_configured_scenario(tmp_path, capsys, own_mode, n_r, n_t, technique,
                                            full_rank):
    # the threshold at the config's own rank is the config's own threshold,
    # bit for bit, through the library and through the command
    layers = n_t if full_rank else 1
    interferer = {"technique": technique, "inr_db": 10.0}
    if technique == "sm":
        interferer["layers"] = layers
    path = write_cfg(tmp_path, n_r=n_r, n_t=n_t, own_mode=own_mode, interferers=[interferer])
    cfg = load_config(path)
    expect = model_for(cfg).threshold(0.01).hex()
    point = threshold_gain(cfg.own_mode, n_r, n_t, cfg.snr_db, 10.0, layers)
    assert point.threshold_rankr.hex() == expect
    code, out, _ = run(capsys, "gain", "--config", path, "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row[2].hex() == expect


@pytest.mark.parametrize("command", ["gain", "sweep-snr", "sweep-inr", "sweep-n"])
def test_gain_commands_refuse_an_ostbc_interferer(tmp_path, capsys, command):
    # its rank-1 row was once rebuilt as a bf interferer, so that a gain of 0
    # read the thresholds of another scenario
    cfg = write_cfg(tmp_path, interferers=[{"technique": "ostbc", "inr_db": 10.0}])
    code, out, err = run(capsys, command, "--config", cfg)
    assert code == cli.EXIT_CONFIG and out == ""
    assert "an ostbc one" in err


def test_sweep_inr_rows_follow_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "sweep-inr", "--config", cfg, "--grid=0:6:3")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[0] == "inr_db"
    assert [float(r[0]) for r in rows] == [0.0, 3.0, 6.0]


def test_sweep_snr_rows_follow_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "sweep-snr", "--config", cfg, "--grid=10:20:5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == [10.0, 15.0, 20.0]


def test_sweep_n_counts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "sweep-n", "--config", cfg, "--grid=1:3:1")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[0] == "n_ibs"
    assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0]
    gains = [float(r[3]) for r in rows]
    assert gains[0] >= gains[-1]


@pytest.mark.parametrize("fault, message", [
    (0.0, "no threshold below 1e150 reaches outage 0.01"),
    (1.5, "evaluated to 1.5, outside"),
])
def test_one_failing_row_refuses_the_whole_sweep(tmp_path, capsys, monkeypatch,
                                                 fault, message):
    # the sweep's model holds a row per rank and point, rank 1 first, and
    # inverts each rank's rows together; row 3, the rank-1 row of the fourth
    # point, reads the fault: 0 leaves it no bracket, 1.5 lies outside [0, 1]
    real = SinrModel._outage

    def faulty(self, gamma, rows=0):
        return np.where(np.asarray(rows) == 3, fault, real(self, gamma, rows))

    monkeypatch.setattr(SinrModel, "_outage", faulty)
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep-inr", "--config", write_cfg(tmp_path),
                       "--grid=0:9:3", "--out", str(out))
    assert code == cli.EXIT_NUMERIC
    assert message in err
    assert not out.exists()


def test_dump_weights_fractions_sum_to_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n_r=3, n_t=3)
    code, out, _ = run(capsys, "dump-weights", "--config", cfg)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["k", "l", "psi_exact", "psi"]
    assert meta["weight_sum"] == "1"
    total = sum(Fraction(r[2]) for r in rows)
    assert total == 1


# sha256 over the dump-weights CSV bytes of every n_r <= n_t pair, in
# order, taken before the tables shipped as data (while every process
# expanded the determinant)
DUMP_WEIGHTS_DIGEST = "8ed9ca0d2dd63cb0d44f6e6a5548ade7d63227b4855a1061acf53cd3d214c572"


def test_dump_weights_of_every_pair_match_digest(tmp_path):
    h = hashlib.sha256()
    out = tmp_path / "weights.csv"
    for n_r in range(1, 9):
        for n_t in range(n_r, 9):
            cfg = write_cfg(tmp_path, n_r=n_r, n_t=n_t, interferers=[])
            assert cli.main(["dump-weights", "--config", cfg, "--out", str(out)]) == 0
            h.update(out.read_bytes())
    assert h.hexdigest() == DUMP_WEIGHTS_DIGEST


# sha256 over every subcommand's name and help and, for each of its
# actions, the option strings, dest, default, type name, choices, required
# flag and help, taken while each subparser was built by hand
PARSER_DIGEST = "ed743475d3a14d02a4cd9a1b9275e12e5295aff2bb701276c44078dd4664e783"


def test_parser_matches_digest():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    h = hashlib.sha256()
    for name, sp in sub.choices.items():
        h.update(repr((name, helps[name])).encode())
        for a in sp._actions:
            h.update(repr((a.option_strings, a.dest, a.default,
                           getattr(a.type, "__name__", a.type), a.choices,
                           a.required, a.help)).encode())
    assert h.hexdigest() == PARSER_DIGEST


def test_dump_xi_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, interferers=REF_MIX)
    code, out, _ = run(capsys, "dump-xi", "--config", cfg)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["group", "rho", "beta", "j", "xi"]
    assert meta["n_groups"] == "3"
    assert abs(float(meta["xi_sum"]) - 1.0) < 1e-9
    # one coefficient per (group, order) pair
    assert len(rows) == 4


# the (OSTBC, BF, 2-layer SM) INR patterns of the benchmark's curves
# scenarios (benchmarks/workloads.py)
REF_PATTERNS = ((6.0, 8.0, 10.0), (10.0, 8.0, 6.0), (4.0, 9.0, 12.0), (12.0, 4.0, 9.0),
                (7.0, 7.5, 11.0), (3.0, 12.0, 8.0), (9.0, 3.0, 5.0), (11.0, 10.0, 2.0),
                (5.0, 6.0, 7.0), (2.0, 11.0, 5.0), (8.0, 2.0, 12.0), (10.0, 12.0, 4.0))


def pattern_cfg(tmp_path, n_r, n_t, mode, o, b, s):
    return write_cfg(tmp_path, n_r=n_r, n_t=n_t, own_mode=mode, interferers=[
        {"technique": "ostbc", "inr_db": o},
        {"technique": "bf", "inr_db": b},
        {"technique": "sm", "inr_db": s, "layers": 2},
    ])


def dumped_xi(tmp_path, capsys, cfg):
    """dump-xi's JSON of a config: its meta, and each printed coefficient as
    float hex beside the correctly rounded one of the rates it printed."""
    out = tmp_path / "xi.json"
    code, _, err = run(capsys, "dump-xi", "--config", cfg, "--format", "json", "--out", str(out))
    assert code == cli.EXIT_OK, err
    doc = json.loads(out.read_text())
    out.unlink()
    groups = {g: (rho, beta) for g, rho, beta, _, _ in doc["rows"]}
    got = {(g, j): xi.hex() for g, _, _, j, xi in doc["rows"]}
    return doc["meta"], got, xi_rounded(*zip(*(groups[g] for g in sorted(groups))))


@pytest.mark.parametrize("mode", ["ostbc", "bf"])
@pytest.mark.parametrize("n_r,n_t", [(2, 4)])
def test_dump_xi_is_accurate_or_refused(tmp_path, capsys, n_r, n_t, mode):
    # every pattern answers, each coefficient correctly rounded; the mixture
    # depends on n_t, not n_r, so 4x4 would repeat the 2x4 mixes
    for o, b, s in REF_PATTERNS:
        cfg = pattern_cfg(tmp_path, n_r, n_t, mode, o, b, s)
        meta, got, expect = dumped_xi(tmp_path, capsys, cfg)
        assert got == expect, (o, b, s)
        assert meta["xi_sum"] == "1"


@pytest.mark.parametrize("n_r,n_t,mode,patterns", [
    (2, 2, "ostbc", REF_PATTERNS[:1]),
    (2, 4, "ostbc", REF_PATTERNS), (2, 4, "bf", REF_PATTERNS),
], ids=["ostbc-2x2-reference-mix", "ostbc-2x4", "bf-2x4"])
def test_law_of_y_answers_every_pattern_mix(tmp_path, n_r, n_t, mode, patterns):
    # the laws read the count series, never the Xi coefficients; the mixture
    # depends on n_t, not n_r, so 4x4 repeats the 2x4 mixes
    for o, b, s in patterns:
        rates = build_rate_set(load_config(pattern_cfg(tmp_path, n_r, n_t, mode, o, b, s)))
        # cdf within 1e-12 relative, pdf within 1e-12 of its peak and
        # relative up to E[Y], against 200 digits; test_mixture holds the
        # (12, 4, 9) mix to this bar on the 241-point grid it once failed
        gaps = law_gaps(rates, np.linspace(0.0, 6.0 * sum(rates), 121), pdf_y, cdf_y)
        assert max(gaps) <= 1e-12, (o, b, s, gaps)


def test_dump_xi_refuses_seven_full_rank_sm_interferers(tmp_path, capsys):
    # sum|Xi| = 7.5e55: once refused, and before that printed xi_sum
    # -2.07e39; exact, every coefficient is correctly rounded and they sum to 1
    cfg = write_cfg(tmp_path, n_r=4, n_t=4, own_mode="ostbc", interferers=[
        {"technique": "sm", "inr_db": float(v), "layers": 4} for v in range(1, 8)
    ])
    meta, got, expect = dumped_xi(tmp_path, capsys, cfg)
    assert got == expect
    assert (meta["xi_sum"], format(float(meta["xi_abs_sum"]), ".2g")) == ("1", "7.5e+55")


def test_dump_xi_json_bytes_on_the_reference_mix(tmp_path, capsys):
    cfg = write_cfg(tmp_path, interferers=REF_MIX)
    out = tmp_path / "xi.json"
    code, _, _ = run(capsys, "dump-xi", "--config", cfg, "--format", "json",
                     "--out", str(out))
    assert code == cli.EXIT_OK
    rows = [[1, 6.309573444801933, 1, 1, 33.9119915983677],
            [2, 5.0, 2, 1, -26.3669828608185],
            [2, 5.0, 2, 2, -6.343383597831856],
            [3, 1.9905358527674861, 1, 1, -0.20162513971734272]]
    meta = {"conditioning": "0.207553403769",
            "config_hash": "77483962ec61fb9e4098f224e27b3b2de0e58187cf503a4579ae7f2f1624c616",
            "n_groups": "3", "tool": f"ranksinr {ranksinr.__version__}",
            "xi_abs_sum": "66.8239831967", "xi_sum": "1"}
    expect = {"columns": ["group", "rho", "beta", "j", "xi"], "meta": meta, "rows": rows}
    assert out.read_text() == json.dumps(expect, indent=1) + "\n"


def test_dump_xi_prints_the_configs_own_rates(tmp_path, capsys):
    # each group is printed at its rate; a power-weighted merge of the two
    # equal rates of the SM layers printed 12.5594321575479, an ulp off
    cfg = write_cfg(tmp_path, interferers=[
        {"technique": "ostbc", "inr_db": 10.0},
        {"technique": "bf", "inr_db": 10.5},
        {"technique": "sm", "inr_db": 14.0, "layers": 2},
    ])
    out = tmp_path / "xi.json"
    code, _, _ = run(capsys, "dump-xi", "--config", cfg, "--format", "json",
                     "--out", str(out))
    assert code == cli.EXIT_OK
    assert "12.559432157547898," in out.read_text()
    rates = build_rate_set(load_config(cfg))
    assert [row[1:3] for row in json.loads(out.read_text())["rows"] if row[3] == 1] == [
        [rho, rates.count(rho)] for rho in sorted(set(rates), reverse=True)]


def test_dump_xi_refuses_a_near_tie(tmp_path, capsys):
    # rates 2.3e-10 apart stay two groups, whose coefficients of about
    # 4e9 cancel: once refused, they are printed correctly rounded
    cfg = write_cfg(tmp_path, interferers=[
        {"technique": "bf", "inr_db": 5.0},
        {"technique": "bf", "inr_db": 5.000000001},
    ])
    rates = build_rate_set(load_config(cfg))
    assert 0.0 < rates[1] / rates[0] - 1.0 < 3e-10
    meta, got, expect = dumped_xi(tmp_path, capsys, cfg)
    assert got == expect
    assert meta["xi_sum"] == "1" and float(meta["xi_abs_sum"]) > 1e9


@pytest.mark.parametrize("n, interferers, abs_sum", [
    (2, REF_MIX, "1.48e+05"),
    (4, REF_MIX, "3.54e+11"),
    # three groups 2.3e-9 apart: the exact coefficients overflow double
    (8, [{"technique": "sm", "inr_db": v, "layers": 8}
         for v in (10.0, 10.00000001, 10.00000002)], None),
], ids=["ostbc-2x2-reference-mix", "ostbc-4x4-reference-mix", "ostbc-8x8-near-tie"])
def test_dump_xi_refuses_cancelling_coefficients(tmp_path, capsys, n, interferers, abs_sum):
    # cancelling coefficients are printed exactly rounded, with the sum|Xi|
    # that the refusal of 40-digit ones once quoted; only a coefficient
    # past the double range is refused
    cfg = write_cfg(tmp_path, n_r=n, n_t=n, own_mode="ostbc", interferers=interferers)
    if abs_sum is not None:
        meta, got, expect = dumped_xi(tmp_path, capsys, cfg)
        assert got == expect
        assert (meta["xi_sum"], format(float(meta["xi_abs_sum"]), ".3g")) == ("1", abs_sum)
        return
    out = tmp_path / "xi.csv"
    code, _, err = run(capsys, "dump-xi", "--config", cfg, "--out", str(out))
    assert code == cli.EXIT_NUMERIC
    assert err == ("numeric instability: the Xi coefficient of group 1, order 1 is past "
                   "the double range\n")
    assert not out.exists()


def test_mc_validate_passes_for_bf(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "mc-validate", "--config", cfg,
                       "--samples", "150000", "--grid=-5:20:2.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["tolerance"] == 0.01
    assert doc["max_abs_outage_delta"] < 0.01
    assert len(doc["points"]) == 11


def test_mc_validate_flags_the_ostbc_approximation_gap(tmp_path, capsys):
    # 2x4 OSTBC under the reference mix: the exponential surrogate is off
    # by about 0.057, clear of the 0.03 tolerance at any seed
    cfg = write_cfg(tmp_path, n_r=2, n_t=4, own_mode="ostbc", interferers=[
        {"technique": "ostbc", "inr_db": 6.0},
        {"technique": "bf", "inr_db": 8.0},
        {"technique": "sm", "inr_db": 10.0, "layers": 2},
    ])
    code, out, _ = run(capsys, "mc-validate", "--config", cfg,
                       "--samples", "120000", "--grid=-5:15:2.5")
    assert code == cli.EXIT_VALIDATION
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["tolerance"] == 0.03
    assert any("approximate" in n for n in doc["notes"])


def test_mc_validate_warns_on_tiny_sample_counts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "mc-validate", "--config", cfg,
                       "--samples", "500", "--grid=5:10:5")
    doc = json.loads(out)
    assert any("insufficient" in n for n in doc["notes"])


def test_mc_validate_insufficiency_note_follows_the_dkw_band(tmp_path, capsys):
    # sqrt(ln(2/0.01)/(2n)) crosses the BF tolerance 0.01 between
    # n = 26491 and n = 26492
    cfg = write_cfg(tmp_path)
    for samples, insufficient in ((26491, True), (26492, False)):
        _, out, _ = run(capsys, "mc-validate", "--config", cfg,
                        "--samples", str(samples), "--grid=5:10:5")
        doc = json.loads(out)
        assert doc["tolerance"] == 0.01
        assert doc["dkw_band"] == math.sqrt(math.log(2.0 / 0.01) / (2.0 * samples))
        assert (doc["dkw_band"] > 0.01) is insufficient
        assert any("insufficient" in n for n in doc["notes"]) is insufficient


@pytest.mark.parametrize("command", ["outage", "pdf"])
def test_mc_curves_print_the_dkw_band_of_mc_validate(tmp_path, capsys, command):
    # the same band as mc-validate's, printed in the meta of both formats
    cfg = write_cfg(tmp_path)
    _, out, _ = run(capsys, "mc-validate", "--config", cfg, "--samples", "3000",
                    "--grid=5:10:5")
    band = json.loads(out)["dkw_band"]
    for fmt in ("csv", "json"):
        code, out, _ = run(capsys, command, "--config", cfg, "--mc", "--samples", "3000",
                           "--grid=5:10:5", "--format", fmt)
        assert code == 0
        meta = parse_csv(out)[0] if fmt == "csv" else json.loads(out)["meta"]
        assert meta["dkw_band"] == format(band, ".12g"), fmt
    code, out, _ = run(capsys, command, "--config", cfg, "--grid=5:10:5")
    assert code == 0 and "dkw_band" not in parse_csv(out)[0]


def test_approx_validate_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "approx-validate", "--config", cfg,
                       "--format", "json", "--samples", "50000")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["means"]) == {"exact", "product", "exp_approx"}
    assert "product_vs_exp" in doc["distances"]
    assert doc["meta"]["rng"] == "sfc64"
    # the chunk rule of the 2x2 config, the exact-terms runner's too
    assert doc["meta"]["chunk_size"] == str(chunk_draws(2, 2))


# --- determinism ---


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = ["outage", "--config", cfg, "--mc", "--samples", "50000",
            "--grid=0:10:5"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    assert cli.main(base + ["--seed", "7", "--out", str(c)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def _without_config_hash(text):
    return [line for line in text.splitlines() if "config_hash" not in line]


def test_outputs_do_not_depend_on_noise_power(tmp_path, capsys):
    # only the dB ratios enter the model; noise_power reaches the config
    # hash and nothing else
    configs = [write_cfg(tmp_path, f"cfg-{sigma2}.json", noise_power=sigma2)
               for sigma2 in (1.0, 1e-3)]
    mc = ["--samples", "20000", "--seed", "5"]
    for argv in (["outage", "--format", "csv"], ["outage", "--format", "json"],
                 ["pdf", "--format", "csv"], ["pdf", "--format", "json"],
                 ["outage", "--mc", *mc, "--format", "csv"],
                 ["outage", "--mc", *mc, "--format", "json"],
                 ["mc-validate", *mc, "--grid=0:10:5"]):
        unit, small = (run(capsys, *argv, "--config", cfg) for cfg in configs)
        assert unit[0] == small[0] == 0, argv
        assert unit[1] != small[1], argv
        assert _without_config_hash(unit[1]) == _without_config_hash(small[1]), argv


def test_main_runs_back_to_back_in_one_process(tmp_path, capsys):
    # one parser serves every call; no option or default of one call
    # reaches the next
    assert cli.build_parser() is cli.build_parser()
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "mc-validate", "--config", cfg,
                       "--samples", "20000", "--grid=0:10:5")
    assert code == 0 and len(json.loads(out)["points"]) == 3
    code, out, _ = run(capsys, "outage", "--config", cfg, "--mc",
                       "--samples", "20000", "--grid=0:10:5")
    assert code == 0
    assert parse_csv(out)[1] == ["gamma0_db", "outage", "mc_outage", "mc_se"]
    code, out, _ = run(capsys, "outage", "--config", cfg, "--grid=0:10:5")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["gamma0_db", "outage"] and len(rows) == 3
    assert "seed" not in meta and "samples" not in meta
    assert parse_exit_code("outage", "--config", cfg, "--samples", "0") == cli.EXIT_CONFIG
    capsys.readouterr()
    code, out, _ = run(capsys, "gain", "--config", cfg)
    assert code == 0 and parse_csv(out)[1][0] == "inr_db"


@pytest.mark.filterwarnings("error")
def test_thresholds_whose_scaled_value_overflows_read_the_limits(tmp_path, capsys):
    # at snr -100 dB, gamma/rho_bar overflows from about 2980 dB on;
    # e^{-a_k} underflowed long before, so the outage is 1 and the density 0
    cfg = write_cfg(tmp_path, snr_db=-100.0,
                    interferers=[{"technique": "bf", "inr_db": 5.0}])
    code, out, err = run(capsys, "pdf", "--config", cfg, "--grid=3000:3080:40")
    assert (code, err) == (0, "")
    assert [r[1:] for r in parse_csv(out)[2]] == [["0", "0"]] * 3
    code, out, err = run(capsys, "outage", "--config", cfg, "--grid=3000:3080:40")
    assert (code, err) == (0, "")
    assert [r[1] for r in parse_csv(out)[2]] == ["1"] * 3


@pytest.mark.parametrize("command", ["outage", "pdf", "dump-xi"])
def test_interference_too_weak_to_square_is_answered(tmp_path, capsys, command):
    # at -2000 dB the rates are about 1e-200, whose squares underflow to 0;
    # the mixture's grouping must neither divide by them nor crash
    cfg = write_cfg(tmp_path, own_mode="ostbc",
                    interferers=[{"technique": "sm", "inr_db": -2000.0, "layers": 2}])
    code, _, _ = run(capsys, command, "--config", cfg)
    assert code in (cli.EXIT_OK, cli.EXIT_NUMERIC)


# --- failure modes ---


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "outage", "--config", str(tmp_path / "nope.json"))
    assert code == cli.EXIT_CONFIG
    assert "config error" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n_r": 2, "n_t": 2, "noise_power": 1.0, "snr_db": 15.0,
        "own_mode": "bf", "interferers": [], "snr": 15.0,
    }))
    code, _, err = run(capsys, "outage", "--config", str(path))
    assert code == cli.EXIT_CONFIG
    assert "snr" in err


def test_unparseable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "outage", "--config", str(path))
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("grid", ["0:5", "a:b:c", "5:0:1", "0:5:0", "nan:5:1", "0:inf:1",
                                  "0:1e15:1"])
def test_bad_grids_exit_2(tmp_path, capsys, grid):
    cfg = write_cfg(tmp_path)
    code, _, err = run(capsys, "outage", "--config", cfg, f"--grid={grid}")
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error")


@pytest.mark.parametrize("grid", ["-5:4000:1000", "-4000:0:1000"])
@pytest.mark.parametrize("command", ["outage", "pdf", "mc-validate", "sweep-inr",
                                     "sweep-snr"])
def test_grid_points_that_overflow_or_underflow_exit_2(tmp_path, capsys, command, grid):
    # 10^(dB/10) is inf at 3995 dB and 0 at -4000 dB; refused before any
    # model or simulation runs, and, for the sweeps, as an INR or SNR
    cfg = write_cfg(tmp_path)
    samples = ["--samples", "1000"] if command == "mc-validate" else []
    code, out, err = run(capsys, command, "--config", cfg, f"--grid={grid}", *samples)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error") and "linear scale" in err
    assert out == ""


def parse_exit_code(*argv):
    # argparse reports a bad option value by exiting 2 before main() runs
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code


# --chunk-size no longer exists, so argparse refuses it as an unknown option
NONPOSITIVE_OPTION_ERRORS = {
    "--samples": "samples must be an integer in 1..",
    "--chunk-size": "unrecognized arguments: --chunk-size",
}


@pytest.mark.parametrize("option", ["--samples", "--chunk-size"])
@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", [
    ["mc-validate"], ["outage", "--mc"], ["pdf", "--mc"], ["approx-validate"],
], ids="-".join)
def test_nonpositive_sample_options_exit_2(tmp_path, capsys, command, option, value):
    cfg = write_cfg(tmp_path)
    assert parse_exit_code(*command, "--config", cfg, option, value) == cli.EXIT_CONFIG
    assert NONPOSITIVE_OPTION_ERRORS[option] in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["mc-validate"], ["outage", "--mc"], ["pdf", "--mc"], ["approx-validate"],
], ids="-".join)
def test_chunk_size_is_not_an_option(tmp_path, capsys, command):
    # the Monte Carlo chunk size is fixed: a run depends on its seed and
    # sample count alone
    cfg = write_cfg(tmp_path)
    code = parse_exit_code(*command, "--config", cfg, "--chunk-size", str(chunk_draws(2, 2)))
    assert code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --chunk-size" in capsys.readouterr().err


def test_mc_validate_writes_json_only(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "report.csv"
    argv = ["mc-validate", "--config", cfg, "--samples", "20000", "--grid=0:10:5"]
    assert parse_exit_code(*argv, "--format", "csv", "--out", str(out)) == cli.EXIT_CONFIG
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert not out.exists()
    code, default, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--format", "json") == (0, default, "")
    assert json.loads(default)["passed"] is True


@pytest.mark.parametrize("command", ["gain", "sweep-inr"])
@pytest.mark.parametrize("target", ["0", "1", "1.5", "-0.1", "nan"])
def test_target_outage_outside_unit_interval_exits_2(tmp_path, capsys, command, target):
    cfg = write_cfg(tmp_path)
    code = parse_exit_code(command, "--config", cfg, "--target-outage", target)
    assert code == cli.EXIT_CONFIG
    assert "target outage" in capsys.readouterr().err


def test_single_point_grid_with_mc(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "pdf", "--config", cfg, "--mc",
                       "--samples", "20000", "--grid=5:5:1")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[-1] == "mc_pdf_per_db" and len(rows) == 1
    # one bin from 4.5 to 5.5 dB
    assert abs(float(rows[0][2]) - float(rows[0][3])) < 0.02
    code, out, _ = run(capsys, "mc-validate", "--config", cfg,
                       "--samples", "20000", "--grid=5:5:1")
    doc = json.loads(out)
    assert len(doc["points"]) == 1 and doc["points"][0]["gamma0_db"] == 5.0
    assert math.isfinite(doc["pdf_sup_norm_per_db"])


def test_gain_rejects_multi_interferer_configs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, interferers=[
        {"technique": "bf", "inr_db": 8.0},
        {"technique": "bf", "inr_db": 8.0},
    ])
    code, _, err = run(capsys, "gain", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert "exactly one interferer" in err


def test_sweep_n_rejects_fractional_counts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code, _, err = run(capsys, "sweep-n", "--config", cfg, "--grid=1:3:0.5")
    assert code == cli.EXIT_CONFIG
    assert "counts must be integers" in err


def test_sweep_n_counts_are_not_db_values(tmp_path, capsys):
    # 4001 read as dB overflows in linear scale; as a count it is an
    # ordinary one, and a grid of counts is checked as a grid and for size
    cfg = write_cfg(tmp_path)
    code, out, _ = run(capsys, "sweep-n", "--config", cfg, "--grid=1:4001:1000")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["1", "1001", "2001", "3001", "4001"]
    for grid, message in (("5:1:1", "empty grid"), ("1:1e9:1", "more than"),
                          ("1e300:1e300:1", "an integer in 1..100000")):
        code, _, err = run(capsys, "sweep-n", "--config", cfg, f"--grid={grid}")
        assert code == cli.EXIT_CONFIG
        assert message in err


def test_sweep_n_zero_step_exits_2(tmp_path):
    # a zero step once appended counts forever; in a subprocess, so that
    # a regression times out instead of hanging the suite
    cfg = write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ranksinr", "sweep-n", "--config", cfg,
         "--grid=1:5:0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_CONFIG
    assert "step must be positive" in proc.stderr


def test_numeric_instability_exits_3(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)

    def blow_up(_cfg):
        raise NumericInstabilityError("mixture conditioning lost")

    monkeypatch.setattr(cli, "model_for", blow_up)
    code, _, err = run(capsys, "outage", "--config", cfg)
    assert code == cli.EXIT_NUMERIC
    assert "numeric instability" in err


@pytest.mark.parametrize("command", ["outage", "pdf", "gain", "dump-xi", "mc-validate"])
def test_an_interference_rate_that_underflows_exits_2(tmp_path, capsys, command):
    # -3230 dB is 1e-323, a positive double, but split over 8 layers it is
    # 0.0: once a plain ValueError that ended in a traceback with exit 1
    cfg = write_cfg(tmp_path, n_t=8, interferers=[
        {"technique": "sm", "inr_db": -3230.0, "layers": 8}])
    samples = ["--samples", "1000"] if command == "mc-validate" else []
    code, out, err = run(capsys, command, "--config", cfg, *samples)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith("config error: ") and "must be positive and finite" in err
    assert err.count("\n") == 1


def test_samples_past_the_largest_array_exit_2(tmp_path, capsys):
    # the option's old maximum, 2^63 - 1, has no float64 array numpy can
    # size: its chunk list once ended in a MemoryError traceback
    cfg = write_cfg(tmp_path)
    code = parse_exit_code("mc-validate", "--config", cfg, "--samples", str(2**63 - 1))
    assert code == cli.EXIT_CONFIG
    assert f"samples must be an integer in 1..{2**60 - 1}," in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["mc-validate"], ["outage", "--mc"], ["pdf", "--mc"], ["approx-validate"],
], ids="-".join)
def test_no_monte_carlo_command_allocates_a_sample_array(tmp_path, capsys, monkeypatch,
                                                         command):
    # the commands count each chunk as it is drawn.  An array of the sample
    # count, which mc-validate and approx-validate once allocated and
    # refused (exit 2) where the host could not hold it, is made to fail
    # here, and every command still answers
    from ranksinr import montecarlo

    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if isinstance(shape, int) and shape == 4321:
            raise MemoryError("Unable to allocate 33.8 KiB")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(montecarlo.np, "empty", empty)
    code, out, err = run(capsys, *command, "--config", write_cfg(tmp_path), "--samples", "4321")
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION) and out and not err


def test_a_streamed_mc_validate_holds_no_samples(tmp_path, monkeypatch):
    # the tracemalloc peak of mc-validate at 1e6 samples is within 1 MB of
    # its peak at 1e5, where 1e6 samples alone take 7.6 MiB.  On one worker,
    # so that neither peak depends on how two threads' chunks overlap
    from ranksinr import montecarlo

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    cfg = write_cfg(tmp_path, own_mode="ostbc", interferers=REF_MIX)
    out = tmp_path / "report.json"

    def peak(samples):
        tracemalloc.start()
        try:
            code = cli.main(["mc-validate", "--config", cfg, "--samples", str(samples),
                             "--out", str(out)])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # the imports and caches of a first run
    (small_code, small), (large_code, large) = peak(100_000), peak(1_000_000)
    assert small_code == large_code == cli.EXIT_OK
    assert large - small < 2**20, (small, large)


def test_model_path_never_computes_xi(tmp_path, capsys, monkeypatch):
    # the curves, the gains and the Monte Carlo check read the count pmf
    # of engine; with the partial-fraction coefficients made to raise on
    # read, every command still writes the same bytes
    ref = write_cfg(tmp_path, "ref.json", interferers=REF_MIX)
    single = write_cfg(tmp_path, "single.json")
    runs = [["outage", "--config", ref], ["outage", "--config", single],
            ["pdf", "--config", ref], ["pdf", "--config", single],
            # the gain commands take exactly one interferer
            ["gain", "--config", single],
            ["sweep-inr", "--config", single, "--grid=0:10:5"],
            ["sweep-n", "--config", single, "--grid=1:3:1"]]
    runs += [["mc-validate", "--config", cfg, "--samples", "100000", "--grid=0:10:5"]
             for cfg in (ref, single)]
    out = tmp_path / "out"

    def outputs():
        got = []
        for argv in runs:
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK, argv
            got.append(out.read_bytes())
        return got

    plain = outputs()

    def refuse(_spec):
        raise AssertionError("Xi coefficients computed")

    monkeypatch.setattr(MixtureSpec, "xi", property(refuse))
    assert outputs() == plain


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ranksinr.cli", "outage", "--config", cfg,
         "--grid=0:5:5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("5,")


def test_package_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ranksinr", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"ranksinr {ranksinr.__version__}"


def test_import_leaves_scipy_unloaded(tmp_path):
    # nothing in the library imports scipy or mpmath, not even after a run
    # of approx-validate, whose product density is a numpy quadrature
    cfg = write_cfg(tmp_path, own_mode="ostbc", interferers=REF_MIX)
    chain = ["approx-validate", "--config", cfg, "--samples", "20000",
             "--out", str(tmp_path / "chain.csv")]
    probe = ("import sys, {}; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'mpmath')))")
    for module in ("ranksinr", "ranksinr.cli", f"ranksinr.cli; ranksinr.cli.main({chain!r})"):
        proc = subprocess.run([sys.executable, "-c", probe.format(module)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module
    assert (tmp_path / "chain.csv").stat().st_size > 0


def test_commands_run_without_scipy(tmp_path):
    # every command; "import scipy" and "import mpmath" fail in the child
    ref = write_cfg(tmp_path, "ref.json", interferers=REF_MIX)
    single = write_cfg(tmp_path, "single.json")
    runs = [
        ["outage", "--config", ref],
        ["pdf", "--config", ref],
        ["gain", "--config", single],
        ["sweep-snr", "--config", single, "--grid=10:20:5"],
        ["sweep-inr", "--config", single, "--grid=0:10:5"],
        ["sweep-n", "--config", single, "--grid=1:3:1"],
        ["mc-validate", "--config", ref, "--samples", "100000", "--grid=0:10:5"],
        ["dump-weights", "--config", ref],
        ["dump-xi", "--config", ref],
        ["approx-validate", "--config", ref, "--samples", "20000"],
    ]
    for i, argv in enumerate(runs):
        argv += ["--out", str(tmp_path / f"out{i}")]
    child = ("import json, sys; sys.modules['scipy'] = sys.modules['mpmath'] = None; "
             "from ranksinr import cli; runs = json.loads(sys.argv[1]); "
             "print(json.dumps([cli.main(a) for a in runs]))")
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [cli.EXIT_OK] * len(runs), proc.stderr
    assert all((tmp_path / f"out{i}").stat().st_size > 0 for i in range(len(runs)))


def test_laws_of_y_run_without_scipy(tmp_path):
    # "import scipy" and "import mpmath" fail in the child, which prints
    # the laws on the 2x2 OSTBC reference mix
    cfg = write_cfg(tmp_path, own_mode="ostbc", interferers=REF_MIX)
    rates = build_rate_set(load_config(cfg))
    y = np.linspace(0.0, 6.0 * sum(rates), 61)
    child = ("import json, sys; sys.modules['scipy'] = sys.modules['mpmath'] = None; "
             "import numpy as np; from ranksinr.mixture import cdf_y, pdf_y; "
             "rates, y = json.loads(sys.argv[1]); "
             "print(json.dumps([law(np.array(y), rates).tolist() for law in (pdf_y, cdf_y)]))")
    proc = subprocess.run([sys.executable, "-c", child, json.dumps([rates, y.tolist()])],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [pdf_y(y, rates).tolist(), cdf_y(y, rates).tolist()]
