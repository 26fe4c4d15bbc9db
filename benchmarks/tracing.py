"""Span tracing of the library's public functions, from outside the library.

``Tracer.install`` swaps each traced public function (and each traced
model method) for a wrapper that records a span: name, start, end,
parent span and the id of the op that caused it, plus a few counts read
from the arguments or the result (grid points, samples, mixture groups).
Every ``ranksinr`` module attribute bound to the original function is
swapped, so calls through ``from .x import f`` bindings are seen too.
Spans are kept in memory; ``uninstall`` restores the originals.  No
code under ``src/`` changes.

``layer_metrics`` turns the spans into the per-layer metrics, and
``run_probe`` makes the fixed calls behind the ROADMAP baseline table.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import ranksinr
from ranksinr import (approx, bf, cli, curves, inversion, mixture, montecarlo,
                      ostbc, scenario, sweeps, wishart)
import workloads


@dataclass(eq=False)
class Span:
    idx: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    scale: float = 1.0  # machine-speed factor, see speed.py

    @property
    def duration(self) -> float:
        return (self.end - self.start) * self.scale


def _size_of_cfg(args, kw):
    cfg = args[0]
    return {"size": f"{cfg.n_r}x{cfg.n_t}"}


def _size_of_pair(args, kw):
    return {"size": f"{args[0]}x{args[1]}"}


def _points(args, kw):
    return {"points": int(np.size(args[1]))}


def _mixture(args, kw, result):
    return {"groups": result.n_groups,
            "xi_abs_sum": float(np.sum(np.abs(result.terms()[2])))}


def _samples(args, kw):
    cfg = args[0]
    return {"size": f"{cfg.n_r}x{cfg.n_t}", "samples": int(args[1])}


# (owner, attribute, span name, attrs from the arguments, attrs from the result)
TARGETS = [
    (wishart, "compute_weights", "wishart.compute_weights", _size_of_pair, None),
    (mixture, "build_mixture", "mixture.build_mixture", None, _mixture),
    (bf, "from_config", "bf.from_config", _size_of_cfg, None),
    (bf.BfModel, "outage", "bf.BfModel.outage", _points, None),
    (bf.BfModel, "sinr_pdf", "bf.BfModel.sinr_pdf", _points, None),
    (ostbc, "from_config", "ostbc.from_config", _size_of_cfg, None),
    (ostbc.OstbcModel, "outage", "ostbc.OstbcModel.outage", _points, None),
    (ostbc.OstbcModel, "sinr_pdf", "ostbc.OstbcModel.sinr_pdf", _points, None),
    (inversion, "threshold_at_outage", "inversion.threshold_at_outage", None, None),
    (sweeps, "threshold_gain", "sweeps.threshold_gain", None, None),
    (sweeps, "sweep_inr", "sweeps.sweep_inr", None, None),
    (sweeps, "sweep_snr", "sweeps.sweep_snr", None, None),
    (sweeps, "sweep_interferer_count", "sweeps.sweep_interferer_count", None, None),
    (montecarlo, "simulate_bf_sinr", "montecarlo.simulate_bf_sinr", _samples, None),
    (montecarlo, "simulate_ostbc_sinr", "montecarlo.simulate_ostbc_sinr", _samples, None),
    (montecarlo.EmpiricalDistribution, "ecdf", "montecarlo.EmpiricalDistribution.ecdf",
     None, None),
    (approx, "compare_chain", "approx.compare_chain", _size_of_pair, None),
    (approx, "product_pdf", "approx.product_pdf", None, None),
    (curves, "render", "curves.render", None, None),
    (cli, "main", "cli.main", None, None),
]
MODULES = (ranksinr, approx, bf, cli, curves, inversion, mixture, montecarlo, ostbc,
           scenario, sweeps, wishart)


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, from_args, from_result):
        def traced(*args, **kw):
            idx = len(self.spans)
            span = Span(idx, name, self.op, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            if from_args is not None:
                span.attrs.update(from_args(args, kw))
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kw)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if from_result is not None:
                span.attrs.update(from_result(args, kw, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, from_args, from_result in TARGETS:
            original = getattr(owner, attr)
            traced = self._wrap(original, name, from_args, from_result)
            holders = [owner] if isinstance(owner, type) else [
                m for m in MODULES
                for a, v in vars(m).items() if v is original
            ]
            for holder in dict.fromkeys(holders):
                for a, v in list(vars(holder).items()):
                    if v is original:
                        self._restore.append((holder, a, original))
                        setattr(holder, a, traced)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# derived metrics


def self_time(spans: list[Span], idx: int, children: dict[int, list[int]]) -> float:
    """Span duration minus the part of it covered by its child spans."""
    covered, reach = 0.0, spans[idx].start
    for c in sorted(children.get(idx, []), key=lambda c: spans[c].start):
        s, e = max(spans[c].start, reach), spans[c].end
        if e > s:
            covered += e - s
            reach = e
    return spans[idx].duration - covered * spans[idx].scale


def _children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s.idx)
    return out


def _named(spans, name, **attrs):
    return [s for s in spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]


# each metric reads the spans it names (hits) and, for nesting, all spans


def _median_ms(hits, spans=None) -> float:
    return statistics.median(s.duration for s in hits) * 1e3


def _per_point_us(hits, spans=None) -> float:
    return sum(s.duration for s in hits) / sum(s.attrs["points"] for s in hits) * 1e6


def _evals(hits, spans) -> float:
    """Median count of model outage calls made inside each threshold span."""
    kids = _children(spans)
    return statistics.median(
        sum(1 for c in kids.get(t.idx, []) if spans[c].name.endswith("Model.outage"))
        for t in hits)


def _self_ms(hits, spans) -> float:
    kids = _children(spans)
    return statistics.median(self_time(spans, s.idx, kids) for s in hits) * 1e3


# per-layer metrics of the workload's traced pass; when the workload never
# calls a layer, the value comes from the probe's spans instead
WORKLOAD_METRICS = {
    "mixture.build_mixture_ms": ("mixture.build_mixture", _median_ms),
    "mixture.groups_max": ("mixture.build_mixture",
                           lambda hits, _: max(s.attrs.get("groups", 0) for s in hits)),
    "mixture.xi_abs_sum_max": ("mixture.build_mixture",
                               lambda hits, _: max(s.attrs.get("xi_abs_sum", 0.0)
                                                   for s in hits)),
    "bf.from_config_ms": ("bf.from_config", _median_ms),
    "bf.outage_us_per_point": ("bf.BfModel.outage", _per_point_us),
    "bf.pdf_us_per_point": ("bf.BfModel.sinr_pdf", _per_point_us),
    "ostbc.from_config_ms": ("ostbc.from_config", _median_ms),
    "ostbc.outage_us_per_point": ("ostbc.OstbcModel.outage", _per_point_us),
    "ostbc.pdf_us_per_point": ("ostbc.OstbcModel.sinr_pdf", _per_point_us),
    "inversion.evals_per_threshold": ("inversion.threshold_at_outage", _evals),
    "inversion.threshold_ms": ("inversion.threshold_at_outage", _median_ms),
    "sweeps.threshold_gain_ms": ("sweeps.threshold_gain", _median_ms),
    "montecarlo.ecdf_ms": ("montecarlo.EmpiricalDistribution.ecdf", _median_ms),
    "approx.product_pdf_ms": ("approx.product_pdf", _median_ms),
    "curves.render_ms": ("curves.render", _median_ms),
    "cli.self_ms": ("cli.main", _self_ms),
}


def layer_metrics(work: list[Span], probe: list[Span]) -> dict[str, tuple[float, str]]:
    """{metric: (value, source)}; source is 'workload' or 'probe'."""
    out: dict[str, tuple[float, str]] = {}
    for metric, (name, fn) in WORKLOAD_METRICS.items():
        spans, source = work, "workload"
        if not _named(spans, name):
            spans, source = probe, "probe"
        out[metric] = (float(fn(_named(spans, name), spans)), source)
    out.update({k: (v, "probe") for k, v in probe_metrics(probe).items()})
    return out


# ---------------------------------------------------------------------------
# baseline probe: the fixed calls behind the ROADMAP baseline table

PROBE_WEIGHTS = ((2, 2), (2, 4), (4, 4), (8, 8))
PROBE_SIZES = ((2, 2), (4, 4), (8, 8))
# sweep_inr grids per size: 16 points except at 8x8, where one point
# already takes seconds
PROBE_SWEEP = {(2, 2): (0.0, 15.0), (4, 4): (0.0, 15.0), (8, 8): (10.0, 10.0)}
PROBE_MC = (("bf", 2, 2, 100_000), ("ostbc", 2, 2, 100_000),
            ("bf", 4, 4, 25_000), ("ostbc", 2, 4, 100_000))
PROBE_CHAIN = ((2, 2, 200_000), (4, 4, 400_000))


def run_probe(tracer: Tracer, between=lambda: None) -> None:
    """Make the baseline-table calls with the tracer installed.

    ``between`` runs before each stage (the machine-speed sampler).
    """
    grid = 10.0 ** (np.arange(-5.0, 20.0 + 1e-9, 0.5) / 10.0)
    original = wishart.compute_weights.__wrapped__
    for n_r, n_t in PROBE_WEIGHTS:
        between()
        tracer.op = f"probe/weights/{n_r}x{n_t}"
        original.cache_clear()
        wishart.compute_weights(n_r, n_t)
    # each clear dropped the tables before it; refill them untraced
    for n_r, n_t in PROBE_WEIGHTS:
        original(n_r, n_t)
    for n_r, n_t in PROBE_SIZES:
        between()
        tracer.op = f"probe/bf/{n_r}x{n_t}"
        cfg = scenario.config_from_dict(workloads.scenario(
            n_r, n_t, "bf", workloads.ref_mix(workloads.REF_INRS)))
        model = bf.from_config(cfg)
        model.outage(grid)
        if n_r == 2:
            model.sinr_pdf(grid)
            ocfg = scenario.config_from_dict(workloads.scenario(
                n_r, n_t, "ostbc", workloads.ref_mix(workloads.REF_INRS)))
            omodel = ostbc.from_config(ocfg)
            omodel.outage(grid)
            omodel.sinr_pdf(grid)
        between()
        tracer.op = f"probe/sweep_inr/{n_r}x{n_t}"
        lo, hi = PROBE_SWEEP[(n_r, n_t)]
        spec = sweeps.SweepSpec(kind=sweeps.SweepKind.INR, start_db=lo, stop_db=hi,
                                step_db=1.0)
        sweeps.sweep_inr(scenario.OwnMode.BEAMFORMING, n_r, n_t, workloads.SNR_DB,
                         spec, n_t)
    for mode, n_r, n_t, samples in PROBE_MC:
        between()
        tracer.op = f"probe/mc/{mode}/{n_r}x{n_t}"
        cfg = scenario.config_from_dict(workloads.scenario(
            n_r, n_t, mode, workloads.ref_mix(workloads.REF_INRS)))
        sim = (montecarlo.simulate_bf_sinr if mode == "bf"
               else montecarlo.simulate_ostbc_sinr)
        sim(cfg, samples, 0).ecdf(grid)
    for n_r, n_t, samples in PROBE_CHAIN:
        between()
        tracer.op = f"probe/chain/{n_r}x{n_t}"
        approx.compare_chain(n_r, n_t, 2, n_samples=samples, seed=0)


def probe_metrics(probe: list[Span]) -> dict[str, float]:
    """Per-size metrics: the rows of the baseline table."""
    out: dict[str, float] = {}
    for n_r, n_t in PROBE_WEIGHTS:
        size = f"{n_r}x{n_t}"
        out[f"wishart.compute_weights_ms.{size}"] = _median_ms(
            [s for s in _named(probe, "wishart.compute_weights", size=size)
             if s.op == f"probe/weights/{size}"])
    for n_r, n_t in PROBE_SIZES:
        size = f"{n_r}x{n_t}"
        op = [s for s in probe if s.op == f"probe/bf/{size}"]
        out[f"bf.from_config_ms.{size}"] = _median_ms(_named(op, "bf.from_config"))
        out[f"bf.outage_grid_ms.{size}"] = _median_ms(
            [s for s in _named(op, "bf.BfModel.outage")
             if s.attrs["points"] == workloads.GRID_POINTS])
        sweep = [s for s in probe if s.op == f"probe/sweep_inr/{size}"]
        ths = _named(sweep, "inversion.threshold_at_outage")
        out[f"inversion.evals_per_threshold.{size}"] = float(_evals(ths, probe))
        runs = _named(sweep, "sweeps.sweep_inr")
        lo, hi = PROBE_SWEEP[(n_r, n_t)]
        out[f"sweeps.sweep_inr_ms_per_point.{size}"] = (
            _median_ms(runs) / (hi - lo + 1.0))
    for mode, n_r, n_t, _ in PROBE_MC:
        size = f"{n_r}x{n_t}"
        sims = _named(probe, f"montecarlo.simulate_{mode}_sinr", size=size)
        out[f"montecarlo.simulate_{mode}_s_per_1e5.{size}"] = (
            sum(s.duration for s in sims) / sum(s.attrs["samples"] for s in sims) * 1e5)
    for n_r, n_t, _ in PROBE_CHAIN:
        size = f"{n_r}x{n_t}"
        out[f"approx.compare_chain_s.{size}"] = _median_ms(
            _named(probe, "approx.compare_chain", size=size)) / 1e3
    return out


UNITS = (("xi_abs_sum_max", "ratio"), ("_ms", "ms"), ("_ms_per_point", "ms"), ("_us_per_point", "us"),
         ("_s_per_1e5", "s"), ("_s", "s"), ("_share", "fraction"))


def unit_of(metric: str) -> str:
    """Unit from the name's suffix, ignoring a trailing .NxM size."""
    parts = metric.split(".")
    base = parts[1] if len(parts) > 2 else parts[-1]
    return next((u for suffix, u in UNITS if base.endswith(suffix)), "count")


def baseline_table(m: dict[str, float]) -> str:
    """The ROADMAP baseline table, rebuilt from the per-layer metrics."""
    def cell(key, fmt):
        return fmt.format(m[key]) if key in m else "—"

    rows = [
        ("`compute_weights` (cold)", "wishart.compute_weights_ms.{}", "{:.3g} ms"),
        ("BF model build (reference mix)", "bf.from_config_ms.{}", "{:.3g} ms"),
        ("BF outage over a 51-point grid", "bf.outage_grid_ms.{}", "{:.3g} ms"),
        ("outage evaluations per `threshold()`", "inversion.evals_per_threshold.{}",
         "{:.0f}"),
        ("`sweep_inr`, BF, full rank, per point", "sweeps.sweep_inr_ms_per_point.{}",
         "{:.3g} ms"),
        ("MC BF, per 1e5 samples", "montecarlo.simulate_bf_s_per_1e5.{}", "{:.3g} s"),
        ("MC OSTBC, per 1e5 samples", "montecarlo.simulate_ostbc_s_per_1e5.{}",
         "{:.3g} s"),
        ("approximation chain (`compare_chain`)", "approx.compare_chain_s.{}", "{:.3g} s"),
    ]
    sizes = ("2x2", "2x4", "4x4", "8x8")
    lines = ["| layer | " + " | ".join(sizes) + " |",
             "|---|" + "---|" * len(sizes)]
    for label, key, fmt in rows:
        lines.append(f"| {label} | " + " | ".join(cell(key.format(s), fmt) for s in sizes)
                     + " |")
    return "\n".join(lines)
