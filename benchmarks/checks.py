"""Reference checks of op outputs, and the failure rule.

An op fails when the CLI call raises, exits non-zero, or returns output
that disagrees with the high-precision reference (``reference.py``).
Failed ops count in ``failed`` and in ``pass_share``; like every other
op they count in the latency percentiles and the throughput, so that
both are measured over the same work whatever the outcome.

Some ops sit where the closed forms cannot be evaluated to the
tolerance in double precision: the sum of the absolute values of the
mixture terms times 2^-53 exceeds the tolerance at one of the op's
points.  These are the Xi-cancellation defects the ROADMAP documents
(OSTBC on the reference mix, many SM layers, 8x8 BF).  Their failures
are *expected* failures: counted like any other, but they leave the
run's ``correct`` flag true.  A failure of any other op is a
regression and makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import reference
from workloads import GRID_POINTS, TARGET_OUTAGE, Op, single

EPS = 2.0**-53
# threshold_at_outage stops bisecting once the bracket is 1e-10 wide
# relative; the returned midpoint is within half of that, so the outage
# there may differ from the target by up to about this * gamma * pdf
INVERSION_REL_TOL = 1e-10
# the product density is an adaptive quadrature with epsabs 1e-10
PRODUCT_TOL = 1e-9
# CSV fields carry 12 significant digits
CSV_REL_TOL = 1e-11
TOLERANCES = {
    "outage_abs": reference.OUTAGE_TOL,
    "pdf_peak_normalised": reference.PDF_TOL,
    "threshold": f"{reference.OUTAGE_TOL} + {INVERSION_REL_TOL}*gamma*pdf on outage",
    "product_pdf_abs": PRODUCT_TOL,
}


def grid_db(spec: str) -> list[float]:
    a, b, s = (float(p) for p in spec.split(":"))
    n = int(math.floor((b - a) / s + 1e-9)) + 1
    return [a + s * i for i in range(n)]


def db_to_lin(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


class ReferenceBook:
    """Reference models and point values, each computed once per run."""

    def __init__(self, weights):
        # weights(n_r, n_t) -> exact {(k, l): Fraction} table
        self._weights = weights
        self._models: dict[str, reference.Reference] = {}
        self._points: dict[tuple[str, float], tuple] = {}

    def at(self, cfg: dict, gamma: float) -> tuple[float, float, float, float]:
        key = json.dumps(cfg, sort_keys=True)
        hit = self._points.get((key, gamma))
        if hit is None:
            model = self._models.get(key)
            if model is None:
                weights = (self._weights(cfg["n_r"], cfg["n_t"])
                           if cfg["own_mode"] == "bf" else None)
                model = self._models[key] = reference.Reference(cfg, weights)
            hit = self._points[(key, gamma)] = model.evaluate(gamma)
        return hit

    def curve(self, cfg: dict, gammas) -> list[tuple]:
        return [self.at(cfg, g) for g in gammas]


def _ill_conditioned(values) -> bool:
    """True when double-precision mixture sums cannot reach the tolerance."""
    peak = max(v[1] for v in values)
    return any(v[2] * EPS > reference.OUTAGE_TOL or v[3] / peak * EPS > reference.PDF_TOL
               for v in values)


# ---------------------------------------------------------------------------
# what each op evaluates, known before it runs


def _sweep_points(op: Op) -> list[tuple[dict, int]]:
    """(scenario, iBS count) pairs of a sweeps op, rank 1 and rank r each."""
    cfg, rank = op.config, op.check["rank"]
    n_r, n_t, mode = cfg["n_r"], cfg["n_t"], cfg["own_mode"]
    snr, inr = cfg["snr_db"], cfg["interferers"][0]["inr_db"]
    out = []
    if op.command == "gain":
        xs = [(snr, inr, 1)]
    elif op.command == "sweep-inr":
        xs = [(snr, x, 1) for x in grid_db(op.check["grid"])]
    elif op.command == "sweep-snr":
        xs = [(x, inr, 1) for x in grid_db(op.check["grid"])]
    else:
        xs = [(snr, inr, int(round(x))) for x in grid_db(op.check["grid"])]
    for s, i, count in xs:
        for r in (1, rank):
            out.append((single(n_r, n_t, mode, s, i, r, count), count))
    return out


CLASSIFY_GRID = [db_to_lin(x) for x in grid_db("-5:20:2.5")]


def classify(op: Op, book: ReferenceBook) -> bool:
    """Whether the op belongs to the expected-failure (ill-conditioned) class.

    Also fills the reference values the check will need, so that the
    expensive part of checking happens before the timed phase.
    """
    if op.command in ("outage", "pdf", "mc-validate"):
        gammas = [db_to_lin(x) for x in grid_db(op.args[0].split("=", 1)[1])]
        return _ill_conditioned(book.curve(op.config, gammas))
    if op.command == "approx-validate":
        return False
    return any(_ill_conditioned(book.curve(cfg, CLASSIFY_GRID))
               for cfg, _ in _sweep_points(op))


# ---------------------------------------------------------------------------
# checks after the op ran


@dataclass
class Verdict:
    ok: bool
    reason: str = ""


def work_units(op: Op) -> int:
    """Work an op asks for: curve points, thresholds or MC samples."""
    if op.command in ("outage", "pdf"):
        return GRID_POINTS
    if op.command in ("mc-validate", "approx-validate"):
        return op.check["samples"]
    return len(_sweep_points(op))


def _check_curve(op: Op, doc: dict, book: ReferenceBook) -> Verdict:
    rows = doc["rows"]
    if len(rows) != GRID_POINTS:
        return Verdict(False, f"{len(rows)} rows, expected {GRID_POINTS}")
    refs = book.curve(op.config, [db_to_lin(r[0]) for r in rows])
    if op.command == "outage":
        err = max(abs(r[1] - ref[0]) for r, ref in zip(rows, refs))
        tol = reference.OUTAGE_TOL
    else:
        peak = max(ref[1] for ref in refs)
        err = max(abs(r[1] - ref[1]) for r, ref in zip(rows, refs)) / peak
        tol = reference.PDF_TOL
    if not err <= tol:
        return Verdict(False, f"{op.command} off the reference by {err:.3g} > {tol:g}")
    return Verdict(True)


def _check_thresholds(op: Op, doc: dict, book: ReferenceBook) -> Verdict:
    rows = doc["rows"]
    points = _sweep_points(op)
    if 2 * len(rows) != len(points):
        return Verdict(False, f"{len(rows)} rows, expected {len(points) // 2}")
    for n, row in enumerate(rows):
        x, thr1, thrr, gain_db = row
        for thr, (cfg, _) in zip((thr1, thrr), points[2 * n: 2 * n + 2]):
            p, f, _, _ = book.at(cfg, thr)
            err = abs(p - TARGET_OUTAGE)
            tol = reference.OUTAGE_TOL + INVERSION_REL_TOL * thr * f
            if not err <= tol:
                return Verdict(False, f"threshold {thr!r} at x={x} has outage "
                                      f"{p!r}, off {TARGET_OUTAGE} by {err:.3g} > {tol:.3g}")
        if not abs(gain_db - 10.0 * math.log10(thrr / thr1)) <= 1e-9:
            return Verdict(False, f"gain_db {gain_db} inconsistent with thresholds at x={x}")
    return Verdict(True)


def _check_mc(op: Op, doc: dict, book: ReferenceBook) -> Verdict:
    pts = doc["points"]
    if len(pts) != GRID_POINTS or doc["meta"]["samples"] != str(op.check["samples"]):
        return Verdict(False, "unexpected grid or sample count in the report")
    refs = book.curve(op.config, [db_to_lin(p["gamma0_db"]) for p in pts])
    err = max(abs(p["closed_form"] - r[0]) for p, r in zip(pts, refs))
    if not err <= reference.OUTAGE_TOL:
        return Verdict(False, f"closed form off the reference by {err:.3g}")
    gap = max(abs(p["empirical"] - r[0]) for p, r in zip(pts, refs))
    if not (doc["passed"] and gap <= doc["tolerance"]):
        return Verdict(False, f"simulation off the reference by {gap:.3g}")
    return Verdict(True)


def _check_chain(op: Op, text: str) -> Verdict:
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition(": ")
            meta[k] = v
        elif line:
            rows.append(line)
    table = list(csv.reader(io.StringIO("\n".join(rows))))
    header, body = table[0], [[float(v) for v in r] for r in table[1:]]
    if header != ["x", "exact", "meijer_equivalent", "exp_approx"] or meta.get("passed") != "True":
        return Verdict(False, "chain report did not pass")
    n_r, n_t, n_l = op.config["n_r"], op.config["n_t"], op.check["n_l"]
    if abs(float(meta["mean_product"]) * n_t * n_l - 1.0) > CSV_REL_TOL:
        return Verdict(False, f"product mean {meta['mean_product']} != 1/{n_t * n_l}")
    # x is printed to 12 digits; the grid is uniform from 0, so take the
    # exact abscissa from the row index instead of the rounded value
    rate, step = n_t * n_l, body[-1][0] / (len(body) - 1)
    for i in range(1, len(body), 10):
        x, _, product, expo = body[i]
        if abs(x - i * step) > CSV_REL_TOL * x:
            return Verdict(False, f"grid point {i} is {x}, expected {i * step}")
        x = i * step
        want = rate * math.exp(-min(rate * x, 700.0))
        if abs(expo - want) > CSV_REL_TOL * want:
            return Verdict(False, f"exponential stage off at x={x}")
        ref = reference.product_pdf(x, n_r, n_t, n_l)
        if abs(product - ref) > PRODUCT_TOL + CSV_REL_TOL * abs(ref):
            return Verdict(False, f"product density off the reference at x={x}: "
                                  f"{product!r} vs {ref!r}")
    return Verdict(True)


def check(op: Op, exit_code, text: str | None, error: str, book: ReferenceBook) -> Verdict:
    """Apply the failure rule to one op's result."""
    if exit_code is None:
        return Verdict(False, f"raised {error}")
    if exit_code != 0:
        return Verdict(False, f"exit {exit_code}: {error}")
    if op.command == "approx-validate":
        return _check_chain(op, text)
    doc = json.loads(text)
    if op.command in ("outage", "pdf"):
        return _check_curve(op, doc, book)
    if op.command == "mc-validate":
        return _check_mc(op, doc, book)
    return _check_thresholds(op, doc, book)
