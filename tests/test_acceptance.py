"""Acceptance gate.

One test per release criterion.  Every test prints a single
[PASS]/[FAIL] line with the measured numbers, so the run log doubles as
a results table.  Antenna labels below follow the transmit x receive
convention (a "4x2" case is n_t=4, n_r=2).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from conftest import REF_BF, eigen_model, ks_distance
from ranksinr import bf, cli, ostbc
from ranksinr.approx import ProductDistribution, product_mean_quadrature
from ranksinr.cli import _mc_density_per_db
from ranksinr.mixture import build_mixture, cdf_y, pdf_y, sample_sum
from ranksinr.scenario import OwnMode, build_rate_set, config_to_dict
from ranksinr.sweeps import (
    SweepKind,
    SweepSpec,
    find_crossing,
    sweep_interferer_count,
    threshold_gain,
)
from ranksinr.wishart import compute_weights

GRID_STEP_DB = 0.5
GRID_DB = np.arange(-5.0, 20.0 + 1e-9, GRID_STEP_DB)


@pytest.fixture
def announce(capsys):
    def emit(tag: str, passed: bool, detail: str) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"\n[{verdict}] criterion {tag}: {detail}")

    return emit


def test_criterion_01_weight_tables_normalize(announce):
    t0 = time.perf_counter()
    sums_exact = True
    worst = 0.0
    for n_r in range(1, 7):
        for n_t in range(1, 7):
            table = compute_weights(n_r, n_t)
            sums_exact &= table.sum_exact() == Fraction(1)
            model = eigen_model(n_r, n_t)
            total, _ = quad(
                lambda x: float(model.sinr_pdf(x)), 0.0, np.inf, limit=300
            )
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = sums_exact and worst <= 1e-9 and elapsed < 10.0
    announce(
        "1",
        ok,
        f"36 weight tables: rational sums all exactly 1 = {sums_exact}, "
        f"max |pdf integral - 1| = {worst:.2e}, runtime {elapsed:.1f}s (< 10s)",
    )
    assert sums_exact
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_bf_closed_form_matches_simulation(
    announce, bf_ref_run, ref_bf_cfg
):
    dist, seconds = bf_ref_run
    model = bf.from_config(ref_bf_cfg)
    gamma = 10.0 ** (GRID_DB / 10.0)
    deltas = np.abs(dist.ecdf(gamma) - np.asarray(model.outage(gamma)))
    ok = float(deltas.max()) <= 0.01 and seconds < 120.0
    announce(
        "2",
        ok,
        f"BF reference scenario, 1e6 samples in {seconds:.1f}s (< 120s): "
        f"max |empirical - closed| = {deltas.max():.5f} (<= 0.01), "
        f"median {np.median(deltas):.5f}",
    )
    assert float(deltas.max()) <= 0.01
    assert seconds < 120.0


def test_criterion_03_ostbc_surrogate_within_band(
    announce, ostbc_ref_run, ref_ostbc_cfg
):
    dist, seconds = ostbc_ref_run
    model = ostbc.from_config(ref_ostbc_cfg)
    gamma = 10.0 ** (GRID_DB / 10.0)
    delta_out = float(
        np.max(np.abs(dist.ecdf(gamma) - np.asarray(model.outage(gamma))))
    )

    pdf_closed = np.asarray(model.sinr_pdf(gamma)) * gamma * math.log(10.0) / 10.0
    pdf_emp = _mc_density_per_db(dist, GRID_DB, GRID_STEP_DB)
    diff = np.abs(pdf_closed - pdf_emp)
    peak_at = float(GRID_DB[int(np.argmax(diff))])
    mode_at = float(GRID_DB[int(np.argmax(pdf_closed))])
    near_mode = abs(peak_at - mode_at) <= 3.0
    tails_small = max(diff[0], diff[-1]) < 0.5 * float(diff.max())
    ok = delta_out <= 0.03 and near_mode and tails_small
    announce(
        "3",
        ok,
        f"OSTBC reference scenario: max |empirical - closed| = {delta_out:.5f} "
        f"(<= 0.03); density mismatch peaks at {peak_at:+.1f} dB vs mode at "
        f"{mode_at:+.1f} dB, tail mismatch < half the peak = {tails_small}",
    )
    assert delta_out <= 0.03
    assert near_mode and tails_small


def test_criterion_04a_bf_4x4_gain_exceeds_2db(announce):
    inrs = np.arange(6.0, 15.0 + 1e-9, 1.0)
    gains = [
        threshold_gain(OwnMode.BEAMFORMING, 4, 4, 15.0, v, 4).gain_db for v in inrs
    ]
    ok = min(gains) > 2.0
    announce(
        "4a",
        ok,
        f"4x4 BF rank-4 gain over INR 6..15 dB: min {min(gains):.3f} dB, "
        f"max {max(gains):.3f} dB (> 2.0 required)",
    )
    assert min(gains) > 2.0


def test_criterion_04b_bf_2x2_gain_at_inr0(announce):
    g = threshold_gain(OwnMode.BEAMFORMING, 2, 2, 15.0, 0.0, 2).gain_db
    ok = 0.25 <= g <= 0.55
    announce("4b", ok, f"2x2 BF rank-2 gain at INR 0 dB: {g:.3f} dB (in [0.25, 0.55])")
    assert 0.25 <= g <= 0.55


def test_criterion_04c_ostbc_gains_small_but_positive(announce):
    inrs = np.arange(0.0, 15.0 + 1e-9, 1.0)
    # the OSTBC study set: 2x2, 2x4 and 4x4 with a rank-2 interferer
    rank2_cases = {"2x2": (2, 2), "2x4": (4, 2), "4x4": (4, 4)}
    lo, hi = np.inf, -np.inf
    for n_r, n_t in rank2_cases.values():
        for v in inrs:
            g = threshold_gain(OwnMode.OSTBC, n_r, n_t, 15.0, v, 2).gain_db
            lo, hi = min(lo, g), max(hi, g)
    # at 4x4 the maximal-rank curve hugs the white-interference frontier and
    # its gain spills past the 1 dB band; positivity still has to hold
    spill = {
        r: max(threshold_gain(OwnMode.OSTBC, 4, 4, 15.0, v, r).gain_db for v in inrs)
        for r in (3, 4)
    }
    spill_lo = {
        r: min(threshold_gain(OwnMode.OSTBC, 4, 4, 15.0, v, r).gain_db for v in inrs)
        for r in (3, 4)
    }
    ok = lo > 0.0 and hi < 1.0 and min(spill_lo.values()) > 0.0
    announce(
        "4c",
        ok,
        f"OSTBC rank-2 gains over INR 0..15 dB span [{lo:.3f}, {hi:.3f}] dB "
        f"(inside (0, 1.0)); 4x4 rank-3/rank-4 stay positive but peak at "
        f"{spill[3]:.3f}/{spill[4]:.3f} dB, past the 1 dB band (documented "
        f"model property: the curve hugs the white-interference frontier)",
    )
    assert lo > 0.0
    assert hi < 1.0
    assert min(spill_lo.values()) > 0.0


def test_criterion_05_gain_indifferent_to_snr(announce):
    cases = {
        "2x2 BF R2": (OwnMode.BEAMFORMING, 2, 2, 2),
        "4x4 BF R4": (OwnMode.BEAMFORMING, 4, 4, 4),
        "2x2 OSTBC R2": (OwnMode.OSTBC, 2, 2, 2),
        "4x4 OSTBC R4": (OwnMode.OSTBC, 4, 4, 4),
    }
    spreads = {}
    for label, (mode, n_r, n_t, rank) in cases.items():
        gains = [
            threshold_gain(mode, n_r, n_t, float(snr), 15.0, rank).gain_db
            for snr in (5, 10, 15, 20, 25)
        ]
        spreads[label] = max(gains) - min(gains)
    worst = max(spreads.values())
    ok = worst < 0.1
    announce(
        "5",
        ok,
        f"gain spread across SNR 5..25 dB at INR 15 dB: worst {worst:.2e} dB "
        f"over {len(cases)} configurations (< 0.1 required)",
    )
    assert worst < 0.1


def test_criterion_06_outage_curves_cross_above_ten_percent(announce):
    cases = {"2x2 R2": (2, 2, 2), "4x2 R4": (2, 4, 4), "4x4 R4": (4, 4, 4)}
    levels = {
        label: find_crossing(OwnMode.BEAMFORMING, n_r, n_t, 15.0, 10.0, rank)[1]
        for label, (n_r, n_t, rank) in cases.items()
    }
    ok = min(levels.values()) > 0.1
    announce(
        "6",
        ok,
        "rank-1 vs higher-rank BF curves cross at outage "
        + ", ".join(f"{lab} {lvl:.3f}" for lab, lvl in levels.items())
        + " (all > 0.1)",
    )
    assert min(levels.values()) > 0.1


def test_criterion_07_product_mean(announce):
    worst = 0.0
    n_cases = 0
    for n_r in range(1, 5):
        for n_t in range(1, 5):
            for n_l in range(1, n_t + 1):
                pd = ProductDistribution(n_r=n_r, n_t=n_t, n_l=n_l)
                err = abs(product_mean_quadrature(pd) - 1.0 / (n_t * n_l))
                worst = max(worst, err)
                n_cases += 1
    ok = worst <= 1e-9
    announce(
        "7",
        ok,
        f"exp x beta product mean vs 1/(n_t*n_l): max error {worst:.2e} "
        f"over {n_cases} dimension triples (<= 1e-9)",
    )
    assert worst <= 1e-9


def test_criterion_08_mixture_density_matches_sampled_sums(announce, ref_bf_cfg):
    rates = build_rate_set(ref_bf_cfg)
    mix = build_mixture(rates)
    rng = np.random.default_rng(2024)
    s = np.sort(sample_sum(rates, 1_000_000, rng))
    ks = ks_distance(s, np.asarray(cdf_y(s, mix)))

    erlang = build_mixture((2.0, 2.0, 2.0))
    y = np.linspace(0.01, 40.0, 400)
    gamma_gap = float(
        np.max(np.abs(np.asarray(pdf_y(y, erlang)) - stats.gamma.pdf(y, a=3, scale=2.0)))
    )
    ok = ks < 0.005 and gamma_gap <= 1e-12
    announce(
        "8",
        ok,
        f"mixture density vs 1e6 sampled exponential sums: KS = {ks:.5f} "
        f"(< 0.005); single-group branch vs gamma pdf: max gap {gamma_gap:.2e} "
        f"(<= 1e-12)",
    )
    assert ks < 0.005
    assert gamma_gap <= 1e-12


def test_criterion_09_gain_erodes_with_interferer_count(announce):
    spec = SweepSpec(kind=SweepKind.NUM_INTERFERERS, counts=(1, 2, 3, 4, 5))
    seqs = {}
    for label, (n_r, n_t, rank) in {"2x2 R2": (2, 2, 2), "4x4 R4": (4, 4, 4)}.items():
        pts = sweep_interferer_count(
            OwnMode.BEAMFORMING, n_r, n_t, 15.0, 15.0, spec, rank
        )
        seqs[label] = [p.gain_db for p in pts]
    mono = all(
        a >= b - 1e-9 for seq in seqs.values() for a, b in zip(seq, seq[1:])
    )
    announce(
        "9",
        mono,
        "gain vs equal-power iBS count at total INR 15 dB is nonincreasing: "
        + "; ".join(
            f"{lab} " + "->".join(f"{g:.3f}" for g in seq) for lab, seq in seqs.items()
        ),
    )
    assert mono


def test_criterion_10_monte_carlo_reruns_are_byte_identical(announce, tmp_path):
    cfg_path = tmp_path / "ref.json"
    cfg_path.write_text(json.dumps(config_to_dict(REF_BF)))
    outputs = {}
    for command, extra in {
        "outage": ["--mc", "--grid=0:10:2"],
        "pdf": ["--mc", "--grid=0:10:2"],
        "mc-validate": ["--grid=0:10:5"],
        "approx-validate": [],
    }.items():
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}-{attempt}.dat"
            argv = [
                command, "--config", str(cfg_path), "--seed", "11",
                "--samples", "60000", "--chunk-size", "25000",
                "--out", str(out), *extra,
            ]
            code = cli.main(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
            blobs.append(out.read_bytes())
        outputs[command] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    announce(
        "10",
        ok,
        "repeated seeded runs byte-identical: "
        + ", ".join(f"{cmd} {'yes' if same else 'NO'}" for cmd, same in outputs.items()),
    )
    assert ok
