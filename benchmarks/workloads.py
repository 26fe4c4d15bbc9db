"""Benchmark workloads: the seeded list of CLI operations each one runs.

An operation (op) is one ``ranksinr`` CLI command on a generated config
file.  The workload seed draws the INR/SNR values and the Monte Carlo
seeds; the scenario *structure* (sizes, victims, interferer kinds,
layer counts, grid lengths, sample counts) is fixed, so the work per op
and the op count do not depend on the seed and timings stay comparable
across seeds.

Each workload exercises different layers of the library:

* ``curves`` -- outage and pdf curves on the default 51-point grid.
  The general multi-group path (wishart -> mixture -> bf/ostbc term
  build and evaluation) does almost all the work; inversion and Monte
  Carlo do none.  The 8x8 ops dominate the wall time and so the
  throughput, the small ops set the median latency.  It holds the
  configs that are refused with exit 3 today (OSTBC at n_t >= 4 on the
  reference mix, six 4-layer SM interferers against a BF victim), so
  correctness fixes show in the pass share.
* ``sweeps`` -- single-interferer threshold-gain commands (rank 1 vs
  rank 2..n_t).  Each threshold costs one model build and ~38 scalar
  outage calls through the single-group route; ``mixture`` has nothing
  to do.  A change to inversion, to per-call overhead or to the
  single-group paths shows here and not in ``curves``.
* ``oracle`` -- ``mc-validate`` on the reference mix and
  ``approx-validate``.  ``montecarlo`` and ``approx`` do nearly all the
  work: BF 4x4 is slow because of the block-power eigensolver, the
  approximation chain at 4x4 is dominated by the product-density
  quadrature.  Closed forms are a small share and inversion is
  bypassed.  8x8 Monte Carlo is left out: a sample count that keeps a
  run short trips ``mc-validate``'s own 3-sigma insufficiency note.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("curves", "sweeps", "oracle")
GRID = "-5:20:0.5"
GRID_POINTS = 51
TARGET_OUTAGE = 0.01
SNR_DB = 15.0

# the interferer mix of tests/conftest.py, kept as is by oracle
REF_INRS = (6.0, 8.0, 10.0)
# INR patterns in dB of the curves scenarios, (OSTBC, BF, SM) for the
# reference mix; the first is REF_INRS, the others space the interferers
# differently, near ties included.  The seed shifts each pattern by a
# common offset: that moves the operating point but keeps the rate
# ratios, and with them the Xi coefficients and their cancellation, the
# same for every seed.
REF_PATTERNS = ((6.0, 8.0, 10.0), (10.0, 8.0, 6.0), (4.0, 9.0, 12.0), (12.0, 4.0, 9.0),
                (7.0, 7.5, 11.0), (3.0, 12.0, 8.0), (9.0, 3.0, 5.0), (11.0, 10.0, 2.0),
                (5.0, 6.0, 7.0), (2.0, 11.0, 5.0), (8.0, 2.0, 12.0), (10.0, 12.0, 4.0))
SIX_SM_PATTERNS = ((3.0, 4.0, 5.0, 6.0, 7.0, 8.0), (0.0, 2.0, 4.0, 6.0, 8.0, 10.0))


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


def ref_mix(inrs) -> list[dict]:
    """OSTBC + BF + 2-layer SM interferers at the given INRs."""
    o, b, s = inrs
    return [
        {"technique": "ostbc", "inr_db": o},
        {"technique": "bf", "inr_db": b},
        {"technique": "sm", "inr_db": s, "layers": 2},
    ]


def scenario(n_r: int, n_t: int, own_mode: str, interferers, snr_db=SNR_DB) -> dict:
    return {
        "n_r": n_r,
        "n_t": n_t,
        "noise_power": 1.0,
        "snr_db": snr_db,
        "own_mode": own_mode,
        "interferers": list(interferers),
    }


def single(n_r, n_t, own_mode, snr_db, inr_db, rank, count=1) -> dict:
    """count equal iBSs of one rank sharing a total INR (sweeps' scenarios)."""
    # the split of sweeps.equal_power_config, kept in dB as in a config
    per_inr = inr_db if count == 1 else 10.0 * math.log10(10.0 ** (inr_db / 10.0) / count)
    spec = ({"technique": "bf", "inr_db": per_inr} if rank == 1
            else {"technique": "sm", "inr_db": per_inr, "layers": rank})
    return scenario(n_r, n_t, own_mode, [dict(spec) for _ in range(count)], snr_db)


@dataclass
class Op:
    """One CLI command: ``ranksinr <command> --config <file> <args>``."""

    id: str
    command: str
    config: dict
    args: list[str] = field(default_factory=list)
    # what the reference check needs beyond the config
    check: dict = field(default_factory=dict)

    @property
    def size(self) -> str:
        return f"{self.config['n_r']}x{self.config['n_t']}"

    def argv(self, config_path: str, out_path: str) -> list[str]:
        fmt = "csv" if self.command == "approx-validate" else "json"
        return [self.command, "--config", config_path, "--out", out_path,
                "--format", fmt, *self.args]

    def key(self) -> tuple:
        """Everything that defines the op, for determinism checks."""
        return (self.id, self.command, repr(sorted(self.config.items())),
                tuple(self.args), repr(sorted(self.check.items())))


def _curves(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    shifts = _lattice(-3.0, 3.0, 0.5)

    def add(n_r, n_t, mode, inrs, layers=None):
        interferers = (ref_mix(inrs) if layers is None else
                       [{"technique": "sm", "inr_db": v, "layers": layers} for v in inrs])
        cfg = scenario(n_r, n_t, mode, interferers)
        for cmd in ("outage", "pdf"):
            ops.append(Op(f"curves/{len(ops):03d}", cmd, cfg, [f"--grid={GRID}"]))

    def shifted(pattern):
        shift = rng.choice(shifts)
        return [v + shift for v in pattern]

    for n_r, n_t in ((2, 2), (2, 4), (4, 4)):
        for mode in ("bf", "ostbc"):
            for pattern in REF_PATTERNS:
                add(n_r, n_t, mode, shifted(pattern))
    # six 4-layer SM interferers (ROADMAP: BF victim at 4x4 refused);
    # the OSTBC victim is left out, its 96-term Xi build alone takes ~6 s
    for n_r, n_t in ((2, 4), (4, 4)):
        for pattern in SIX_SM_PATTERNS:
            add(n_r, n_t, "bf", shifted(pattern), layers=4)
    # the 8x8 ops set most of the wall time, so they keep the reference
    # INRs: a shifted 8x8 outage can be refused at its first grid point,
    # which would make the wall time depend on the seed
    for mode in ("bf", "ostbc"):
        add(8, 8, mode, REF_INRS)
    return ops


def _sweeps(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    snr_lattice = _lattice(5.0, 25.0, 0.5)
    inr_lattice = _lattice(0.0, 15.0, 0.5)

    def add(cmd, n_r, n_t, mode, rank, snr, inr, grid=None):
        # the config's single interferer carries the rank under study
        cfg = single(n_r, n_t, mode, snr, inr, rank)
        args = [f"--target-outage={TARGET_OUTAGE}"]
        if grid:
            args.append(f"--grid={grid}")
        ops.append(Op(f"sweeps/{len(ops):03d}", cmd, cfg, args,
                      {"rank": rank, "grid": grid}))

    # gain ops per size and victim mode.  Their latencies fall in bands
    # by family: 2x2 ~3-5 ms, 2x4 OSTBC ~5-6, 2x4 BF ~7-9, 4x4 OSTBC
    # ~11-12, 4x4 BF ~25, the sweeps and 8x8 above.  The counts put the
    # median latency in the middle of the 2x4 BF band (70 ops below it,
    # 71 above) and the 90th percentile inside the 4x4 BF band, not on
    # the gap between two bands, where the seed's draws or a slow moment
    # would move it from one band to the next
    gains = {(2, 2): {"bf": 20, "ostbc": 20},
             (2, 4): {"bf": 50, "ostbc": 30},
             (4, 4): {"bf": 40, "ostbc": 20}}
    for (n_r, n_t), counts in gains.items():
        ranks = list(range(2, n_t + 1))
        for mode, count in counts.items():
            for i in range(count):
                add("gain", n_r, n_t, mode, ranks[i % len(ranks)],
                    rng.choice(snr_lattice), rng.choice(inr_lattice))
        # one sweep of each kind per size, at full rank, victims alternating
        start = rng.randint(-5, 5)
        add("sweep-inr", n_r, n_t, "bf", n_t, rng.choice(snr_lattice), 0.0,
            f"{start}:{start + 15}:1")
        start = rng.choice(_lattice(0.0, 10.0, 0.5))
        add("sweep-snr", n_r, n_t, "ostbc", n_t, 15.0, rng.choice(inr_lattice),
            f"{start}:{start + 20}:5")
        add("sweep-n", n_r, n_t, "bf" if n_t == 4 else "ostbc", n_t,
            rng.choice(snr_lattice), rng.choice(inr_lattice), "1:5:1")
    for rank in (8, 4):
        add("gain", 8, 8, "bf", rank, rng.choice(snr_lattice), rng.choice(inr_lattice))
    return ops


# samples per case: enough that mc-validate's tolerance sits >= 5 sigma
# away from the statistical error (OSTBC also carries the ~0.027 model gap
# of the exponential approximation against its 0.03 tolerance)
ORACLE_MC = (
    (2, 2, "bf", 200_000),
    (4, 4, "bf", 80_000),
    (2, 2, "ostbc", 1_000_000),  # Alamouti decoder
    (2, 4, "ostbc", 200_000),    # component path
)
ORACLE_CHAIN = ((2, 2, 200_000), (4, 4, 400_000))


def _oracle(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for n_r, n_t, mode, samples in ORACLE_MC:
        ops.append(Op(f"oracle/{len(ops):03d}", "mc-validate",
                      scenario(n_r, n_t, mode, ref_mix(REF_INRS)),
                      [f"--grid={GRID}", "--samples", str(samples),
                       "--seed", str(rng.randrange(2**32))],
                      {"samples": samples}))
    for n_r, n_t, samples in ORACLE_CHAIN:
        ops.append(Op(f"oracle/{len(ops):03d}", "approx-validate",
                      scenario(n_r, n_t, "ostbc", ref_mix(REF_INRS)),
                      ["--samples", str(samples), "--seed", str(rng.randrange(2**32))],
                      {"samples": samples, "n_l": 2}))
    return ops


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one workload; a pure function of (workload, seed)."""
    builders = {"curves": _curves, "sweeps": _sweeps, "oracle": _oracle}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](random.Random(f"{workload}:{seed}"))


# rough wall time of one pass over each workload's ops, measured on a
# shared 2-core x86-64 host; a run makes enough whole passes to fill
# --seconds at that pace
PASS_SECONDS = {"curves": 7.0, "sweeps": 10.0, "oracle": 14.0}


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes one run makes: a function of its arguments only.

    A count taken from the clock instead would let a slow moment drop a
    pass, and with it that pass's failed ops, from one run of a seed but
    not from another.
    """
    return max(1, math.ceil(seconds / PASS_SECONDS[workload] - 1e-9))


def antenna_pairs(ops: list[Op]) -> list[tuple[int, int]]:
    """Distinct (n_r, n_t) pairs whose weight tables the ops need."""
    return sorted({(op.config["n_r"], op.config["n_t"]) for op in ops})
