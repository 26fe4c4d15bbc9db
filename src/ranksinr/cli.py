"""Command-line front end.

Subcommands evaluate the closed-form curves, the Monte Carlo oracle,
the gain sweeps, and the approximation-chain comparison, emitting
self-describing CSV or JSON.  Exit codes: 0 success, 2 configuration
error, 3 numeric instability, 4 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from ._version import __version__
from .approx import compare_chain
from .curves import metadata, render
from .errors import ConfigError, NumericInstabilityError, RankSinrError
from .mixture import build_mixture
from .montecarlo import (
    DEFAULT_CHUNK,
    RNG_NAME,
    simulate_bf_sinr,
    simulate_ostbc_sinr,
)
from .scenario import (
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
    load_config,
)
from .sweeps import (
    SweepKind,
    SweepSpec,
    model_for,
    sweep_inr,
    sweep_interferer_count,
    sweep_snr,
    threshold_gain,
)
from .wishart import compute_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4

XI_ABS_SUM_MAX = 1e-12 * 2.0**53


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be START:STOP:STEP in dB, got {text!r}")
    try:
        a, b, s = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid values must be numbers: {text!r}") from exc
    if not all(math.isfinite(v) for v in (a, b, s)):
        raise ConfigError(f"grid values must be finite: {text!r}")
    return a, b, s


def _grid_db(args) -> tuple[np.ndarray, np.ndarray, float]:
    """The --grid points in dB, in linear scale, and their step."""
    a, b, s = _parse_grid(args.grid)
    spec = SweepSpec(kind=SweepKind.THRESHOLD, start_db=a, stop_db=b, step_db=s)
    grid_db = spec.grid_db()
    with np.errstate(over="ignore"):
        grid = 10.0 ** (grid_db / 10.0)
    bad = (grid == 0.0) | np.isinf(grid)
    if bad.any():
        raise ConfigError(
            f"grid point {grid_db[bad][0]} dB underflows or overflows in linear scale")
    return grid_db, grid, s


def _seed(value: str) -> int:
    n = int(value)
    if not 0 <= n < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return n


def _positive_int(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return n


def _target_outage(value: str) -> float:
    p = float(value)
    if not 0.0 < p < 1.0:
        raise argparse.ArgumentTypeError(f"target outage must lie in (0, 1), got {value}")
    return p


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> ScenarioConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return load_config(args.config)


def _simulate(cfg: ScenarioConfig, args):
    if cfg.own_mode is OwnMode.BEAMFORMING:
        return simulate_bf_sinr(cfg, args.samples, args.seed, args.chunk_size)
    return simulate_ostbc_sinr(cfg, args.samples, args.seed, args.chunk_size)


def _single_interferer(cfg: ScenarioConfig):
    if len(cfg.interferers) != 1:
        raise ConfigError(
            f"gain commands need exactly one interferer, config has {len(cfg.interferers)}"
        )
    spec = cfg.interferers[0]
    rank = spec.layers if spec.technique is Technique.SPATIAL_MULTIPLEXING else 1
    return spec, rank


def _mc_density_per_db(dist, grid_db: np.ndarray, step_db: float) -> np.ndarray:
    """Empirical density per dB in bins of width step_db centred on the grid."""
    edges = np.append(grid_db - step_db / 2, grid_db[-1] + step_db / 2)
    return dist.histogram_db(edges)


# ---------------------------------------------------------------------------
# subcommands


def cmd_pdf(args) -> int:
    cfg = _load(args)
    model = model_for(cfg)
    grid_db, grid, step_db = _grid_db(args)
    pdf = model.sinr_pdf(grid)
    per_db = pdf * grid * math.log(10.0) / 10.0
    columns = ["gamma_db", "pdf", "pdf_per_db"]
    rows = [list(t) for t in zip(grid_db, pdf, per_db)]
    meta_kw = {"grid_db": args.grid}
    if args.mc:
        dist = _simulate(cfg, args)
        mc = _mc_density_per_db(dist, grid_db, step_db)
        columns.append("mc_pdf_per_db")
        for row, v in zip(rows, mc):
            row.append(float(v))
        meta_kw.update(seed=args.seed, samples=args.samples, rng=RNG_NAME,
                       chunk_size=args.chunk_size)
    _write(args, render(args.format, columns, rows, metadata(cfg, **meta_kw)))
    return EXIT_OK


def cmd_outage(args) -> int:
    cfg = _load(args)
    model = model_for(cfg)
    grid_db, grid, _ = _grid_db(args)
    out = model.outage(grid)
    columns = ["gamma0_db", "outage"]
    rows = [list(t) for t in zip(grid_db, out)]
    meta_kw = {"grid_db": args.grid}
    if args.mc:
        dist = _simulate(cfg, args)
        emp = dist.ecdf(grid)
        se = np.sqrt(np.maximum(emp * (1 - emp), 0.0) / dist.sample_count)
        columns += ["mc_outage", "mc_se"]
        for row, e, s in zip(rows, emp, se):
            row += [float(e), float(s)]
        meta_kw.update(seed=args.seed, samples=args.samples, rng=RNG_NAME,
                       chunk_size=args.chunk_size)
    _write(args, render(args.format, columns, rows, metadata(cfg, **meta_kw)))
    return EXIT_OK


def cmd_gain(args) -> int:
    cfg = _load(args)
    spec, rank = _single_interferer(cfg)
    point = threshold_gain(
        cfg.own_mode, cfg.n_r, cfg.n_t, cfg.snr_db, spec.inr_db, rank,
        args.target_outage,
    )
    columns = ["inr_db", "threshold_rank1", "threshold_rankr", "gain_db"]
    rows = [[point.x, point.threshold_rank1, point.threshold_rankr, point.gain_db]]
    meta = metadata(cfg, target_outage=args.target_outage, rank=rank)
    _write(args, render(args.format, columns, rows, meta))
    return EXIT_OK


def _emit_sweep(args, cfg, points, x_name: str, rank: int) -> int:
    columns = [x_name, "threshold_rank1", "threshold_rankr", "gain_db"]
    rows = [[p.x, p.threshold_rank1, p.threshold_rankr, p.gain_db] for p in points]
    meta = metadata(cfg, target_outage=args.target_outage, rank=rank, grid=args.grid)
    _write(args, render(args.format, columns, rows, meta))
    return EXIT_OK


def cmd_sweep_snr(args) -> int:
    cfg = _load(args)
    spec, rank = _single_interferer(cfg)
    a, b, s = _parse_grid(args.grid)
    sw = SweepSpec(kind=SweepKind.SNR, start_db=a, stop_db=b, step_db=s,
                   p_star=args.target_outage)
    points = sweep_snr(cfg.own_mode, cfg.n_r, cfg.n_t, spec.inr_db, sw, rank)
    return _emit_sweep(args, cfg, points, "snr_db", rank)


def cmd_sweep_inr(args) -> int:
    cfg = _load(args)
    spec, rank = _single_interferer(cfg)
    a, b, s = _parse_grid(args.grid)
    sw = SweepSpec(kind=SweepKind.INR, start_db=a, stop_db=b, step_db=s,
                   p_star=args.target_outage)
    points = sweep_inr(cfg.own_mode, cfg.n_r, cfg.n_t, cfg.snr_db, sw, rank)
    return _emit_sweep(args, cfg, points, "inr_db", rank)


def cmd_sweep_n(args) -> int:
    cfg = _load(args)
    spec, rank = _single_interferer(cfg)
    grid, _, _ = _grid_db(args)
    counts = np.round(grid)
    bad = (np.abs(grid - counts) > 1e-9) | (counts < 1)
    if bad.any():
        raise ConfigError(
            f"interferer counts must be positive integers, got {grid[bad][0]}")
    sw = SweepSpec(kind=SweepKind.NUM_INTERFERERS, counts=tuple(int(c) for c in counts),
                   p_star=args.target_outage)
    points = sweep_interferer_count(
        cfg.own_mode, cfg.n_r, cfg.n_t, cfg.snr_db, spec.inr_db, sw, rank
    )
    return _emit_sweep(args, cfg, points, "n_ibs", rank)


def cmd_mc_validate(args) -> int:
    cfg = _load(args)
    model = model_for(cfg)
    tolerance = 0.01 if cfg.own_mode is OwnMode.BEAMFORMING else 0.03
    grid_db, grid, step_db = _grid_db(args)
    dist = _simulate(cfg, args)

    closed = np.asarray(model.outage(grid), dtype=float)
    emp = dist.ecdf(grid)
    deltas = emp - closed
    pdf_closed = np.asarray(model.sinr_pdf(grid), dtype=float) * grid * math.log(10.0) / 10.0
    pdf_emp = _mc_density_per_db(dist, grid_db, step_db)
    sup_pdf = float(np.max(np.abs(pdf_closed - pdf_emp)))

    notes = []
    if cfg.own_mode is OwnMode.OSTBC:
        notes.append(
            "closed form is approximate for OSTBC reception; mismatch concentrates near the mode"
        )
    worst_se = 0.5 / math.sqrt(args.samples)
    if 3.0 * worst_se > tolerance:
        notes.append(
            f"sample count {args.samples} is statistically insufficient for "
            f"tolerance {tolerance} (3 sigma = {3 * worst_se:.4f})"
        )
    max_delta = float(np.max(np.abs(deltas)))
    passed = max_delta <= tolerance

    report = {
        "meta": dict(metadata(cfg, seed=args.seed, samples=args.samples,
                              rng=RNG_NAME, chunk_size=args.chunk_size,
                              grid_db=args.grid)),
        "own_mode": cfg.own_mode.value,
        "tolerance": tolerance,
        "max_abs_outage_delta": max_delta,
        "pdf_sup_norm_per_db": sup_pdf,
        "passed": passed,
        "notes": notes,
        "points": [
            {
                "gamma0_db": float(g),
                "closed_form": float(c),
                "empirical": float(e),
                "delta": float(d),
            }
            for g, c, e, d in zip(grid_db, closed, emp, deltas)
        ],
    }
    _write(args, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return EXIT_OK if passed else EXIT_VALIDATION


def cmd_approx_validate(args) -> int:
    cfg = _load(args)
    n_l = 1
    for spec in cfg.interferers:
        if spec.technique is Technique.SPATIAL_MULTIPLEXING:
            n_l = spec.layers
            break
    rep = compare_chain(cfg.n_r, cfg.n_t, n_l, n_samples=args.samples, seed=args.seed,
                        chunk_size=args.chunk_size)
    passed = abs(rep.mean_exact - rep.mean_product) <= 5.0 * rep.se_exact
    meta = metadata(cfg, seed=args.seed, samples=args.samples, rng=RNG_NAME,
                    chunk_size=args.chunk_size, n_l=n_l,
                    mean_exact=rep.mean_exact, mean_product=rep.mean_product,
                    mean_exp=rep.mean_exp, passed=passed,
                    **{
                        f"{k}_{m}": v[m]
                        for k, v in rep.distances.items()
                        for m in ("ks", "l1")
                    })
    if args.format == "csv":
        _write(args, render_csv_chain(rep, meta))
    else:
        payload = {
            "meta": dict(meta),
            "distances": rep.distances,
            "means": {
                "exact": rep.mean_exact,
                "product": rep.mean_product,
                "exp_approx": rep.mean_exp,
            },
            "passed": passed,
        }
        _write(args, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return EXIT_OK if passed else EXIT_VALIDATION


def render_csv_chain(rep, meta) -> str:
    return render(
        "csv", ["x", "exact", "meijer_equivalent", "exp_approx"], rep.rows(), meta
    )


def cmd_dump_weights(args) -> int:
    cfg = _load(args)
    table = compute_weights(cfg.n_r, cfg.n_t)
    rows = [
        [k, l, f"{w.numerator}/{w.denominator}", float(w)]
        for (k, l), w in sorted(table.weights.items())
    ]
    meta = metadata(cfg, n_r=cfg.n_r, n_t=cfg.n_t,
                    weight_sum=str(table.sum_exact()))
    _write(args, render(args.format, ["k", "l", "psi_exact", "psi"], rows, meta))
    return EXIT_OK


def cmd_dump_xi(args) -> int:
    cfg = _load(args)
    rates = build_rate_set(cfg)
    mix = build_mixture(rates)
    # rounding a coefficient to double costs up to |Xi| 2^-53, so the
    # printed coefficients and any sum of them, xi_sum included, keep
    # 1e-12 absolute only while sum|Xi| <= 1e-12 * 2^53 (about 9.0e3)
    abs_sum = math.fsum(abs(v) for v in mix.xi.values())
    if abs_sum > XI_ABS_SUM_MAX:
        raise NumericInstabilityError(
            f"Xi coefficients cancel: sum|Xi| = {abs_sum:.3g} exceeds "
            f"{XI_ABS_SUM_MAX:.2g}, so in double they are off by more than "
            "1e-12 absolute"
        )
    rows = []
    for i, (rho, beta) in enumerate(zip(mix.rates, mix.multiplicities), start=1):
        for j in range(1, beta + 1):
            rows.append([i, rho, beta, j, mix.xi[(i, j)]])
    meta = metadata(cfg, xi_sum=mix.xi_sum(), conditioning=mix.conditioning,
                    n_groups=mix.n_groups)
    _write(args, render(args.format, ["group", "rho", "beta", "j", "xi"], rows, meta))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Parsing leaves it unchanged, so `main` can be called again and again
    in one process; the subcommands look up the library functions they
    call at call time.
    """
    p = argparse.ArgumentParser(
        prog="ranksinr",
        description="Closed-form SINR and outage under rank-aware MIMO interference",
    )
    p.add_argument("--version", action="version", version=f"ranksinr {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid_default=None, mc=False, sweep=False):
        sp.add_argument("--config", required=True, help="scenario JSON path")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if grid_default is not None:
            sp.add_argument("--grid", default=grid_default,
                            help=f"START:STOP:STEP in dB (default {grid_default})")
        if mc:
            sp.add_argument("--seed", type=_seed, default=0)
            sp.add_argument("--samples", type=_positive_int, default=1_000_000)
            sp.add_argument("--chunk-size", type=_positive_int, default=DEFAULT_CHUNK)
        if sweep:
            sp.add_argument("--target-outage", type=_target_outage, default=0.01)

    sp = sub.add_parser("pdf", help="closed-form SINR density")
    common(sp, grid_default="-5:20:0.5", mc=True)
    sp.add_argument("--mc", action="store_true", help="append empirical density")
    sp.set_defaults(func=cmd_pdf)

    sp = sub.add_parser("outage", help="closed-form outage curve")
    common(sp, grid_default="-5:20:0.5", mc=True)
    sp.add_argument("--mc", action="store_true", help="append empirical outage")
    sp.set_defaults(func=cmd_outage)

    sp = sub.add_parser("gain", help="threshold gain of the config's interferer rank")
    common(sp, sweep=True)
    sp.set_defaults(func=cmd_gain)

    sp = sub.add_parser("sweep-snr", help="gain vs SNR at the config's INR")
    common(sp, grid_default="5:25:5", sweep=True)
    sp.set_defaults(func=cmd_sweep_snr)

    sp = sub.add_parser("sweep-inr", help="gain vs INR at the config's SNR")
    common(sp, grid_default="0:15:1", sweep=True)
    sp.set_defaults(func=cmd_sweep_inr)

    sp = sub.add_parser("sweep-n", help="gain vs iBS count at constant total power")
    common(sp, grid_default="1:5:1", sweep=True)
    sp.set_defaults(func=cmd_sweep_n)

    sp = sub.add_parser("mc-validate", help="closed form vs Monte Carlo report")
    common(sp, grid_default="-5:20:0.5", mc=True)
    sp.set_defaults(func=cmd_mc_validate, format="json")

    sp = sub.add_parser("approx-validate", help="projection-term approximation chain")
    common(sp, mc=True)
    sp.set_defaults(func=cmd_approx_validate)

    sp = sub.add_parser("dump-weights", help="eigenvalue expansion weights")
    common(sp)
    sp.set_defaults(func=cmd_dump_weights)

    sp = sub.add_parser("dump-xi", help="interference mixture coefficients")
    common(sp)
    sp.set_defaults(func=cmd_dump_xi)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericInstabilityError as exc:
        print(f"numeric instability: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RankSinrError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
