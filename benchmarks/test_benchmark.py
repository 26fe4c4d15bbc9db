"""Self-tests of the benchmark: op generation, reference and failure rule.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from ranksinr import cli, scenario, sweeps, wishart  # noqa: E402
from workloads import (GRID, REF_INRS, WORKLOADS, Op, build_ops,  # noqa: E402
                       passes_for, ref_mix)
from workloads import scenario as make_scenario  # noqa: E402

GAMMAS = [checks.db_to_lin(x) for x in checks.grid_db(GRID)]


def weights(n_r, n_t):
    return wishart.compute_weights(n_r, n_t).weights


@pytest.fixture()
def book():
    return checks.ReferenceBook(weights)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    a = [op.key() for op in build_ops(workload, 7)]
    assert a == [op.key() for op in build_ops(workload, 7)]
    assert a != [op.key() for op in build_ops(workload, 8)]
    # the seed moves values, never the structure
    shape = [(op.command, op.size, op.config["own_mode"], len(op.config["interferers"]))
             for op in build_ops(workload, 8)]
    assert shape == [(op.command, op.size, op.config["own_mode"],
                      len(op.config["interferers"])) for op in build_ops(workload, 7)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_count_is_a_function_of_the_arguments(workload, tmp_path, monkeypatch):
    # not of the clock: the same seed must attempt, and so fail, the same ops
    counts = [passes_for(workload, s) for s in (0.01, 1, 10, 20, 60)]
    assert counts == sorted(counts) and counts[0] == 1
    assert passes_for(workload, 20) == passes_for(workload, 20.0)
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    ops = build_ops(workload, 3)[:3]
    results = run.Runner(ops, tmp_path, speed.SpeedLog()).passes(2)
    assert [r["op"] for r in results] == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("own_mode, interferers", [
    ("bf", ref_mix(REF_INRS)),
    ("ostbc", [{"technique": "sm", "inr_db": 10.0, "layers": 2}]),
])
def test_reference_matches_library_at_2x2(own_mode, interferers):
    cfg = make_scenario(2, 2, own_mode, interferers)
    model = sweeps.model_for(scenario.config_from_dict(cfg))
    ref = reference.Reference(cfg, weights(2, 2) if own_mode == "bf" else None)
    vals = [ref.evaluate(g) for g in GAMMAS]
    peak = max(v[1] for v in vals)
    assert np.max(np.abs(model.outage(GAMMAS) - [v[0] for v in vals])) <= 1e-14
    assert np.max(np.abs(model.sinr_pdf(GAMMAS) - [v[1] for v in vals])) / peak <= 1e-14


def _docstring_sums(cfg, psi, gamma):
    """The bf.py docstring double sums, unregrouped, in mpmath at 60 digits."""
    with mpmath.workdps(60):
        groups = reference.rate_groups(cfg)
        rho_bar = mpmath.power(10, mpmath.mpf(cfg["snr_db"]) / 10)
        g = mpmath.mpf(gamma)
        xi = reference.xi_coefficients(groups)
        surv = dens = mpmath.mpf(0)
        for i, (rho_i, beta) in enumerate(groups):
            kappa = rho_bar / mpmath.mpf(str(rho_i))
            for j in range(1, beta + 1):
                x_ij = mpmath.mpf(str(xi[(i, j)]))
                for (k, l), p in psi.items():
                    c = x_ij * mpmath.mpf(p.numerator) / p.denominator
                    base = mpmath.exp(-k * g / rho_bar) * (kappa / (k * g + kappa)) ** j
                    surv += c * base * mpmath.fsum(
                        math.comb(r, s) * mpmath.rf(j, s) / math.factorial(r)
                        * (k * g / rho_bar) ** r * (rho_bar / (k * g + kappa)) ** s
                        for r in range(l + 1) for s in range(r + 1))
                    dens += c * g**l * mpmath.exp(-k * g / rho_bar) \
                        * (k / rho_bar) ** (l + 1) * mpmath.fsum(
                            math.comb(l + 1, r) * mpmath.rf(j, r) / math.factorial(l)
                            * kappa**j * rho_bar**r / (k * g + kappa) ** (r + j)
                            for r in range(l + 2))
        return float(1 - surv), float(dens)


@pytest.mark.parametrize("n", [2, 4])
def test_reference_recurrences_match_the_docstring_sums(n):
    cfg = make_scenario(n, n, "bf", ref_mix(REF_INRS))
    ref = reference.Reference(cfg, weights(n, n))
    for gamma in (0.5, 3.0, 40.0):
        out, pdf, _, _ = ref.evaluate(gamma)
        want_out, want_pdf = _docstring_sums(cfg, weights(n, n), gamma)
        assert out == pytest.approx(want_out, rel=1e-14, abs=1e-16)
        assert pdf == pytest.approx(want_pdf, rel=1e-14, abs=1e-16)


def test_xi_coefficients_sum_to_one():
    cfg = make_scenario(2, 4, "ostbc", ref_mix(REF_INRS))
    xi = reference.xi_coefficients(reference.rate_groups(cfg))
    assert abs(float(sum(xi.values())) - 1.0) < 1e-30


def test_refused_op_counts_as_failed_without_crashing(tmp_path, book):
    # OSTBC 2x4 on the reference mix: exit 3 at the time of writing
    op = Op("t/0", "outage", make_scenario(2, 4, "ostbc", ref_mix(REF_INRS)),
            [f"--grid={GRID}"])
    assert checks.classify(op, book)  # the Xi-cancellation class
    res = run.Runner([op], tmp_path, speed.SpeedLog()).run_op(0)
    verdict = checks.check(op, res["code"], res["text"], res["error"], book)
    if res["code"] != 0:
        assert not verdict.ok and verdict.reason.startswith(f"exit {res['code']}")


@pytest.mark.parametrize("behaviour", ["raise", "exit", "wrong", "right"])
def test_failure_rule(tmp_path, book, monkeypatch, behaviour):
    op = Op("t/0", "outage", make_scenario(2, 2, "bf", ref_mix(REF_INRS)),
            [f"--grid={GRID}"])
    real_main = cli.main

    def fake_main(argv):
        if behaviour == "raise":
            raise RuntimeError("boom")
        if behaviour == "exit":
            return 3
        code = real_main(argv)
        if behaviour == "wrong":
            out = Path(argv[argv.index("--out") + 1])
            doc = json.loads(out.read_text())
            doc["rows"][0][1] += 1e-11
            out.write_text(json.dumps(doc))
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    res = run.Runner([op], tmp_path, speed.SpeedLog()).run_op(0)
    verdict = checks.check(op, res["code"], res["text"], res["error"], book)
    assert verdict.ok is (behaviour == "right")
    assert not checks.classify(op, book)  # a failure here makes the run incorrect


def test_tracer_sees_calls_through_imported_names():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "t"
        sweeps.threshold_gain(scenario.OwnMode.BEAMFORMING, 4, 4, 15.0, 10.0, 4)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[0] == "sweeps.threshold_gain"
    assert names.count("inversion.threshold_at_outage") == 2
    assert "wishart.compute_weights" in names  # bound in bf by `from .wishart import`
    assert cli.main is tracing.TARGETS[-1][0].main  # originals restored
    assert all(s.op == "t" and s.end >= s.start for s in tracer.spans)


def test_self_time_subtracts_children():
    spans = [tracing.Span(0, "a", "t", None, 0.0, 10.0),
             tracing.Span(1, "b", "t", 0, 1.0, 4.0),
             tracing.Span(2, "c", "t", 0, 3.0, 6.0)]
    assert tracing.self_time(spans, 0, {0: [1, 2]}) == pytest.approx(5.0)
