"""Command-line front end.

Subcommands evaluate the closed-form curves, the Monte Carlo oracle,
the gain sweeps, and the approximation-chain comparison, emitting
self-describing CSV or JSON.  Exit codes: 0 success, 2 configuration
error, 3 numeric instability, 4 validation failure.

Each input is read in one place: the subcommands and their options are
the rows of `_COMMANDS`, the --grid text is parsed by `_grid` alone, and
the config is checked by `scenario`.  `gain` writes the layout of the
sweeps through their emitter, a one-point `sweep-inr` without the grid.
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
    MAX_SAMPLES,
    MAX_SEED,
    RNG_NAME,
    chunk_draws,
    count_sinr,
)
from .scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    build_rate_set,
    check_count,
    check_probability,
    db_to_linear,
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
DKW_ALPHA = 0.01


def _grid(args) -> SweepSpec:
    """The --grid text START:STOP:STEP as a dB grid."""
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be START:STOP:STEP in dB, got {args.grid!r}")
    try:
        a, b, s = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid values must be numbers: {args.grid!r}") from exc
    if not all(math.isfinite(v) for v in (a, b, s)):
        raise ConfigError(f"grid values must be finite: {args.grid!r}")
    return SweepSpec(kind=SweepKind.THRESHOLD, start_db=a, stop_db=b, step_db=s)


def _grid_db(args) -> tuple[np.ndarray, np.ndarray, float]:
    """The --grid points in dB, in linear scale, and their step."""
    spec = _grid(args)
    grid_db = spec.grid_db()
    return grid_db, db_to_linear(grid_db, "grid point"), spec.step_db


def _option(check, value, *args, **kwargs):
    """An option value under one of the scenario rules; argparse reports
    a refusal and exits 2."""
    try:
        return check(value, *args, **kwargs)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(value: str) -> int:
    return _option(check_count, int(value), "seed", MAX_SEED, lo=0)


def _positive_int(value: str) -> int:
    return _option(check_count, int(value), "samples", MAX_SAMPLES)


def _target_outage(value: str) -> float:
    return _option(check_probability, float(value), "target outage")


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, cfg: ScenarioConfig, columns: list[str], rows, **meta) -> int:
    _write(args, render(args.format, columns, rows, metadata(cfg, **meta)))
    return EXIT_OK


def _mc_meta(args, cfg: ScenarioConfig) -> dict:
    """The metadata of a Monte Carlo run: the draws are a function of these."""
    return {"seed": args.seed, "samples": args.samples, "rng": RNG_NAME,
            "chunk_size": chunk_draws(cfg.n_r, cfg.n_t)}


def _dkw_band(samples: int) -> float:
    """The half-width within which the empirical CDF of ``samples`` draws
    lies of the true CDF everywhere, with probability 1 - DKW_ALPHA
    (Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant, Ann.
    Probab. 18, 1990)."""
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * samples))


def _gain_config(args) -> tuple[ScenarioConfig, InterfererSpec, int]:
    """The config of a gain command, its one interferer and that one's rank
    (its layer count: a beamforming interferer carries one layer).  The
    gains compare precoded interferers, so an OSTBC one is refused."""
    cfg = load_config(args.config)
    if len(cfg.interferers) != 1:
        raise ConfigError(
            f"gain commands need exactly one interferer, config has {len(cfg.interferers)}"
        )
    spec = cfg.interferers[0]
    if spec.technique is Technique.OSTBC:
        raise ConfigError("gain commands compare bf and sm interferers, config has an ostbc one")
    return cfg, spec, spec.layers


def _emit_gains(args, cfg: ScenarioConfig, points, x_name: str, rank: int,
                grid: str | None = None) -> int:
    rows = [[p.x, p.threshold_rank1, p.threshold_rankr, p.gain_db] for p in points]
    return _emit(args, cfg, [x_name, "threshold_rank1", "threshold_rankr", "gain_db"], rows,
                 target_outage=args.target_outage, rank=rank, grid=grid)


def _bin_edges_db(grid_db: np.ndarray, step_db: float) -> np.ndarray:
    """The edges of the bins of width step_db centred on the grid, in dB."""
    return np.append(grid_db - step_db / 2, grid_db[-1] + step_db / 2)


# ---------------------------------------------------------------------------
# subcommands


def cmd_pdf(args) -> int:
    cfg = load_config(args.config)
    model = model_for(cfg)
    grid_db, grid, step_db = _grid_db(args)
    pdf = model.sinr_pdf(grid)
    columns = ["gamma_db", "pdf", "pdf_per_db"]
    values = [grid_db, pdf, pdf * grid * math.log(10.0) / 10.0]
    meta = {"grid_db": args.grid}
    if args.mc:
        columns.append("mc_pdf_per_db")
        _, density = count_sinr(cfg, args.samples, args.seed,
                                edges_db=_bin_edges_db(grid_db, step_db))
        values.append(density)
        meta.update(_mc_meta(args, cfg), dkw_band=_dkw_band(args.samples))
    return _emit(args, cfg, columns, zip(*values), **meta)


def cmd_outage(args) -> int:
    cfg = load_config(args.config)
    model = model_for(cfg)
    grid_db, grid, _ = _grid_db(args)
    columns = ["gamma0_db", "outage"]
    values = [grid_db, model.outage(grid)]
    meta = {"grid_db": args.grid}
    if args.mc:
        emp, _ = count_sinr(cfg, args.samples, args.seed, grid=grid)
        columns += ["mc_outage", "mc_se"]
        values += [emp, np.sqrt(np.maximum(emp * (1 - emp), 0.0) / args.samples)]
        meta.update(_mc_meta(args, cfg), dkw_band=_dkw_band(args.samples))
    return _emit(args, cfg, columns, zip(*values), **meta)


def cmd_gain(args) -> int:
    cfg, spec, rank = _gain_config(args)
    point = threshold_gain(
        cfg.own_mode, cfg.n_r, cfg.n_t, cfg.snr_db, spec.inr_db, rank,
        args.target_outage,
    )
    return _emit_gains(args, cfg, [point], "inr_db", rank)


def cmd_sweep_snr(args) -> int:
    cfg, spec, rank = _gain_config(args)
    points = sweep_snr(cfg.own_mode, cfg.n_r, cfg.n_t, spec.inr_db,
                       _grid(args), rank, args.target_outage)
    return _emit_gains(args, cfg, points, "snr_db", rank, args.grid)


def cmd_sweep_inr(args) -> int:
    cfg, spec, rank = _gain_config(args)
    points = sweep_inr(cfg.own_mode, cfg.n_r, cfg.n_t, cfg.snr_db,
                       _grid(args), rank, args.target_outage)
    return _emit_gains(args, cfg, points, "inr_db", rank, args.grid)


def cmd_sweep_n(args) -> int:
    cfg, spec, rank = _gain_config(args)
    grid = _grid(args).grid_db()
    counts = np.round(grid)
    # the sweep checks the counts' range
    bad = np.abs(grid - counts) > 1e-9
    if bad.any():
        raise ConfigError(
            f"interferer counts must be integers, got {grid[bad][0]}")
    points = sweep_interferer_count(cfg.own_mode, cfg.n_r, cfg.n_t, cfg.snr_db, spec.inr_db,
                                    [int(c) for c in counts], rank, args.target_outage)
    return _emit_gains(args, cfg, points, "n_ibs", rank, args.grid)


def cmd_mc_validate(args) -> int:
    cfg = load_config(args.config)
    model = model_for(cfg)
    tolerance = 0.01 if cfg.own_mode is OwnMode.BEAMFORMING else 0.03
    grid_db, grid, step_db = _grid_db(args)
    emp, pdf_emp = count_sinr(cfg, args.samples, args.seed, grid=grid,
                              edges_db=_bin_edges_db(grid_db, step_db))

    closed = np.asarray(model.outage(grid), dtype=float)
    deltas = emp - closed
    pdf_closed = np.asarray(model.sinr_pdf(grid), dtype=float) * grid * math.log(10.0) / 10.0
    sup_pdf = float(np.max(np.abs(pdf_closed - pdf_emp)))

    notes = []
    if cfg.own_mode is OwnMode.OSTBC:
        notes.append(
            "closed form is approximate for OSTBC reception; mismatch concentrates near the mode"
        )
    dkw_band = _dkw_band(args.samples)
    if dkw_band > tolerance:
        notes.append(
            f"sample count {args.samples} is statistically insufficient for "
            f"tolerance {tolerance} (DKW band = {dkw_band:.4f})"
        )
    max_delta = float(np.max(np.abs(deltas)))
    passed = max_delta <= tolerance

    report = {
        "meta": metadata(cfg, **_mc_meta(args, cfg), grid_db=args.grid),
        "own_mode": cfg.own_mode.value,
        "tolerance": tolerance,
        "dkw_band": dkw_band,
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
    cfg = load_config(args.config)
    n_l = next((s.layers for s in cfg.interferers
                if s.technique is Technique.SPATIAL_MULTIPLEXING), 1)
    rep = compare_chain(cfg.n_r, cfg.n_t, n_l, n_samples=args.samples, seed=args.seed)
    passed = abs(rep.mean_exact - rep.mean_product) <= 5.0 * rep.se_exact
    meta = dict(_mc_meta(args, cfg), n_l=n_l, mean_exact=rep.mean_exact,
                mean_product=rep.mean_product, mean_exp=rep.mean_exp, passed=passed,
                **{f"{k}_{m}": v[m] for k, v in rep.distances.items() for m in ("ks", "l1")})
    if args.format == "csv":
        _emit(args, cfg, ["x", "exact", "meijer_equivalent", "exp_approx"], rep.rows(), **meta)
    else:
        payload = {
            "meta": metadata(cfg, **meta),
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


def cmd_dump_weights(args) -> int:
    cfg = load_config(args.config)
    table = compute_weights(cfg.n_r, cfg.n_t)
    rows = [
        [k, l, f"{w.numerator}/{w.denominator}", float(w)]
        for (k, l), w in sorted(table.weights.items())
    ]
    return _emit(args, cfg, ["k", "l", "psi_exact", "psi"], rows,
                 n_r=cfg.n_r, n_t=cfg.n_t, weight_sum=str(table.sum_exact()))


def cmd_dump_xi(args) -> int:
    cfg = load_config(args.config)
    mix = build_mixture(build_rate_set(cfg))
    # exact coefficients, each rounded once; one past the double range is refused
    xi = mix.xi
    rows = []
    for i, (rho, beta) in enumerate(zip(mix.rates, mix.multiplicities), start=1):
        for j in range(1, beta + 1):
            rows.append([i, rho, beta, j, xi[(i, j)]])
    return _emit(args, cfg, ["group", "rho", "beta", "j", "xi"], rows,
                 xi_sum=mix.xi_sum(), xi_abs_sum=math.fsum(abs(v) for v in xi.values()),
                 conditioning=mix.conditioning, n_groups=mix.n_groups)


# ---------------------------------------------------------------------------
# parser

# name, help, handler, --format choices (the default first), default --grid,
# Monte Carlo options, --mc help, --target-outage
_BOTH = ("csv", "json")
_COMMANDS = (
    ("pdf", "closed-form SINR density", cmd_pdf, _BOTH,
     "-5:20:0.5", True, "append empirical density", False),
    ("outage", "closed-form outage curve", cmd_outage, _BOTH,
     "-5:20:0.5", True, "append empirical outage", False),
    ("gain", "threshold gain of the config's interferer rank", cmd_gain, _BOTH,
     None, False, None, True),
    ("sweep-snr", "gain vs SNR at the config's INR", cmd_sweep_snr, _BOTH,
     "5:25:5", False, None, True),
    ("sweep-inr", "gain vs INR at the config's SNR", cmd_sweep_inr, _BOTH,
     "0:15:1", False, None, True),
    ("sweep-n", "gain vs iBS count at constant total power", cmd_sweep_n, _BOTH,
     "1:5:1", False, None, True),
    # its report is JSON only
    ("mc-validate", "closed form vs Monte Carlo report", cmd_mc_validate, ("json",),
     "-5:20:0.5", True, None, False),
    ("approx-validate", "projection-term approximation chain", cmd_approx_validate, _BOTH,
     None, True, None, False),
    ("dump-weights", "eigenvalue expansion weights", cmd_dump_weights, _BOTH,
     None, False, None, False),
    ("dump-xi", "interference mixture coefficients", cmd_dump_xi, _BOTH,
     None, False, None, False),
)


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
    for name, help_, func, formats, grid, mc, mc_help, target in _COMMANDS:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="scenario JSON path")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=formats, default=formats[0])
        if grid is not None:
            sp.add_argument("--grid", default=grid,
                            help=f"START:STOP:STEP in dB (default {grid})")
        if mc:
            sp.add_argument("--seed", type=_seed, default=0)
            sp.add_argument("--samples", type=_positive_int, default=1_000_000)
        if target:
            sp.add_argument("--target-outage", type=_target_outage, default=0.01)
        if mc_help is not None:
            sp.add_argument("--mc", action="store_true", help=mc_help)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericInstabilityError as exc:
        print(f"numeric instability: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RankSinrError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
