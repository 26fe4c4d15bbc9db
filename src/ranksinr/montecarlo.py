"""Monte Carlo oracle: simulate the physical link, no closed forms.

Every analytic result in this package is validated against this module,
so it deliberately shares no math with the closed-form paths beyond the
scenario definitions.  Per draw of i.i.d. Rayleigh channels it records
the post-processing SINR conditioned on the channels (interference
power averaged over data symbols, which unit-modulus constellations
make exact).  Every per-draw array has its draw axis last and
contiguous, so each contraction is a short loop over antenna indices of
length-n vector operations, and each interferer is reduced to its
leakage as it is drawn.  Conventions that must match the analytic model:

* Beamforming reception: the serving BS beamforms along the dominant
  eigenvector w of H0^H H0 (one batched LAPACK ``eigh`` per chunk);
  MRC makes SINR = rho*lam/(1+Y) with Y the per-layer leakage sum.
  The combiner f = H0 w is projected first, g = f^H H, and a layer
  leaks |g c|^2: c is a Haar column scaled 1/sqrt(n_L) for a precoded
  interferer, whose unit-modulus symbol cancels there and is not
  drawn, and q/n_T for an OSTBC one with q a unit-modulus symbol
  vector, i.e. the symbol vector is normalized to unit norm, which is
  what gives the analysis's Exp(rate n_T) leakage term and rate
  INR/n_T.  A full-rank precoder (n_L = n_T) is unitary, so its layers
  leak ||g||^2/n_L in all, draw by draw, and no frame is drawn for it.
* OSTBC reception (n_T = 2): exact Alamouti combining.  The numerator
  is SNR*||H0||_F^2/n_T^2; the per-symbol noise reference is
  n_T*||H0||_F^2 noise powers, matching the quadrupled noise in the
  numerator scale.  Precoded interference projects onto both columns
  of H0, ||H0^H H V||_F^2, which is ||H0^H H||_F^2/n_L without a
  drawn frame at full rank; an interfering Alamouti block combines
  into two exact independent exponential terms.
* OSTBC reception (any other n_T): component path without code
  structure -- the same column projections, with a fresh symbol vector
  per time instant for OSTBC interferers.

Only the SNR and the INRs of the scenario enter a draw, as linear
ratios read from their dB values; noise_power does not.

Determinism: a run is split into chunks of ``chunk_draws(n_r, n_t)``
samples, so that no per-draw array of a chunk holds more than
CHUNK_ENTRIES complex entries.  Each chunk draws from its own SFC64
stream spawned from the master seed; draw order within a chunk is fixed
(H0, then interferer randomness in config order; the eigensolve draws
nothing) so results depend only on (scenario, n_samples, seed).  Chunks
run in parallel threads (numpy's generators, ufuncs, einsum and batched
eigh release the GIL) and each writes its samples into its own slice of
one array, so the worker count never changes a result.

Memory: a run holds its samples, 8 bytes each, and no other array of
their length.  ``EmpiricalDistribution`` answers each ECDF or histogram
query by sorting the samples block by block in one CHUNK_ENTRIES buffer
and adding up the ``searchsorted`` counts of the blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericInstabilityError
from .scenario import (OwnMode, ScenarioConfig, Technique, check_count, db_to_linear,
                       own_numerator_scale)

RNG_NAME = "sfc64"
# complex entries of one chunk's largest per-draw array: 8192 draws at 2x2,
# 2048 at 2x4 and 4x4, 512 at 8x8.  One chunk of the reference mix then
# allocates at most 2.0-5.0 MB (tracemalloc peak, either receiver, any
# antenna pair), where a fixed 16384 draws took 6-8 MB at 2x2 and 59-130 MB
# at 8x8 and ran no faster
CHUNK_ENTRIES = 2**15
# what run_chunks takes: a sample count whose float64 array numpy can size,
# a 64-bit seed
MAX_SAMPLES, MAX_SEED = int(np.iinfo(np.intp).max) // 8, 2**64 - 1
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed_seq))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussians, unit variance.

    The last axis of shape is the draw axis.  A value's real and
    imaginary parts are two consecutive standard normals, scaled by
    1/sqrt(2); the result is C-contiguous.
    """
    z = rng.standard_normal((*shape, 2)).view(complex)[..., 0]
    z *= 1.0 / math.sqrt(2.0)
    return z


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2  # np.abs(z)**2 would go through hypot


def haar_columns(rng: np.random.Generator, batch: int, n: int, k: int) -> np.ndarray:
    """Haar-random orthonormal k-frames in C^n, shape (n, k, batch).

    Classical Gram-Schmidt, applied twice per column, orthonormalises
    the columns of a complex Gaussian matrix Z.  It computes Z = QR with
    the diagonal of R real and positive: each column's R entry is the
    norm it is divided by.  That QR factor is unique, and its Q is
    exactly Haar distributed, because the Gaussian law of Z is invariant
    under left multiplication by any unitary U, which maps the factor Q
    to UQ (Mezzadri, Notices AMS 54, 2007, where a LAPACK QR gets the
    positive diagonal from a phase fix).  The second pass only removes
    the round-off the first one leaves behind.  Each column is projected
    on all earlier ones at once, so the loop runs over columns, never
    over the batch.  At k = 1 the frame is z/||z||.
    """
    q = complex_normal(rng, (n, k, batch))
    for j in range(k):
        v, prev = q[:, j], q[:, :j]
        for _ in range(2 if j else 0):
            v -= np.einsum("nkb,kb->nb", prev, np.einsum("nkb,nb->kb", prev.conj(), v))
        v /= np.sqrt(_abs2(v).sum(axis=0))
    return q


def qpsk_symbols(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-modulus QPSK symbols of the given shape, draw axis last."""
    return _QPSK[rng.integers(0, 4, size=shape)]


# ---------------------------------------------------------------------------
# dominant eigenpair


# accepted eigensolver residual ||M w - lam w|| / lam of every draw
EIGH_RESIDUAL_TOL = 1e-10


def _gram(h: np.ndarray) -> np.ndarray:
    """H^H H of each draw, (p, p, n): the lower triangle row by row, mirrored."""
    p = h.shape[1]
    m = np.empty((p, p, h.shape[-1]), dtype=complex)
    h_h = h.conj()
    for i in range(p):
        np.einsum("rb,rjb->jb", h_h[:, i], h[:, :i + 1], out=m[i, :i + 1])
        m[:i, i] = m[i, :i].conj()
    return m


def _top_eigpair(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenpair, lam (n,) and w (p, n), of each Hermitian PSD (p, p, n) draw.

    One batched LAPACK ``eigh`` on a moved-axis view; a draw whose residual
    ||M w - lam w|| exceeds EIGH_RESIDUAL_TOL*lam raises NumericInstabilityError.
    """
    evals, evecs = np.linalg.eigh(np.moveaxis(mats, -1, 0))
    lam, w = evals[:, -1], np.ascontiguousarray(evecs[:, :, -1].T)
    resid = np.sqrt(_abs2(np.einsum("ijb,jb->ib", mats, w) - lam * w).sum(axis=0))
    # written as "not <=" so that a NaN residual is refused too
    bad = ~(resid <= EIGH_RESIDUAL_TOL * np.maximum(lam, np.finfo(float).tiny))
    if np.any(bad):
        raise NumericInstabilityError(
            f"eigh residual above {EIGH_RESIDUAL_TOL} relative for "
            f"{int(np.sum(bad))} of {lam.size} draws"
        )
    return lam, w


# ---------------------------------------------------------------------------
# empirical results


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Raw SINR samples (linear), in draw order: a nonempty 1-d array of
    finite real numbers, never mutated.  Each query counts them block by
    block and keeps no sorted copy (the module docstring's Memory note)."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = self.samples
        # min and max are reductions, not copies, and propagate a NaN
        if not (isinstance(s, np.ndarray) and s.ndim == 1 and s.size
                and s.dtype.kind in "iuf" and np.isfinite(s.min()) and np.isfinite(s.max())):
            raise ConfigError("samples must be a nonempty 1-d array of finite real numbers")

    @property
    def sample_count(self) -> int:
        return int(self.samples.size)

    def _count_below(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The number of samples < each point of ``left`` and <= each point
        of ``right``, in one pass: each block of CHUNK_ENTRIES samples is
        copied into one buffer, sorted there, and its counts added up, which
        are then the counts of the whole sorted array."""
        n = self.samples.size
        buf = np.empty(min(n, CHUNK_ENTRIES), dtype=self.samples.dtype)
        below = np.zeros(left.shape, dtype=np.intp)
        at_or_below = np.zeros(right.shape, dtype=np.intp)
        for start in range(0, n, buf.size):
            block = buf[:min(buf.size, n - start)]
            block[...] = self.samples[start:start + block.size]
            block.sort()
            below += np.searchsorted(block, left, side="left")
            at_or_below += np.searchsorted(block, right, side="right")
        return below, at_or_below

    def ecdf(self, grid) -> np.ndarray:
        """Empirical CDF evaluated on a grid of linear SINR values."""
        _, at_or_below = self._count_below(np.empty(0), np.asarray(grid))
        return at_or_below / self.samples.size

    def histogram_db(self, edges_db: np.ndarray) -> np.ndarray:
        """Density per dB over the given increasing dB bin edges.

        The bins of ``np.histogram`` on 10 log10 of the positive samples,
        the last one closed, counted block by block at the linear edges
        10^(e/10).
        """
        edges = 10.0 ** (np.asarray(edges_db) / 10.0)
        below, (last, nonpositive) = self._count_below(edges, np.array([edges[-1], 0.0]))
        below[-1] = last
        # no bin holds a sample <= 0, also where an edge underflows to 0
        counts = np.diff(np.maximum(below, nonpositive))
        return counts / (self.samples.size * np.diff(edges_db))


# ---------------------------------------------------------------------------
# chunk runner


def chunk_draws(n_r: int, n_t: int) -> int:
    """Draws per chunk: the most whose per-draw arrays each hold at most
    CHUNK_ENTRIES complex entries.  The largest hold n_t max(n_r, n_t):
    the n_r x n_t channels and the n_t x n_t Gram matrices, precoder
    frames and OSTBC symbol blocks."""
    return CHUNK_ENTRIES // (n_t * max(n_r, n_t))


def _chunk_sizes(n_samples: int, chunk: int) -> list[int]:
    full, rem = divmod(n_samples, chunk)
    return [chunk] * full + ([rem] if rem else [])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(
    simulate: Callable[[int, np.random.Generator], np.ndarray],
    n_samples: int,
    seed: int,
    chunk: int,
) -> np.ndarray:
    """``simulate(n, rng)`` over the ``chunk``-sample chunks of
    ``n_samples``, the last one holding the remainder, in one array.

    ``n_samples`` is a positive integer and ``seed`` an integer in
    0..2^64-1 (``scenario.check_count``); ConfigError refuses any other.
    ``chunk`` comes from ``chunk_draws``.  Chunk i draws from the i-th
    SFC64 stream spawned from ``seed``, so each chunk is independent of
    the others and of where it runs.  The chunks run on up to one thread
    per usable CPU, each writing its slice of the result; an exception
    from any chunk is raised here.  A result array the host cannot
    allocate is a ConfigError, raised before any chunk is listed.
    """
    n_samples = check_count(n_samples, "n_samples", MAX_SAMPLES)
    seed = check_count(seed, "seed", MAX_SEED, lo=0)
    try:
        out = np.empty(n_samples)
    except MemoryError:
        raise ConfigError(
            f"{n_samples} samples need {8 * n_samples} bytes, more than this host can allocate"
        ) from None
    sizes = _chunk_sizes(n_samples, chunk)
    rngs = [_generator(ss) for ss in np.random.SeedSequence(seed).spawn(len(sizes))]

    def fill(start: int, n: int, rng: np.random.Generator) -> None:
        out[start:start + n] = simulate(n, rng)

    with ThreadPoolExecutor(max_workers=min(len(sizes), _usable_cpus())) as pool:
        # reading every result raises a failed chunk's exception
        list(pool.map(fill, range(0, n_samples, chunk), sizes, rngs))
    return out


# ---------------------------------------------------------------------------
# beamforming-mode simulation


def _simulate_bf_chunk(cfg: ScenarioConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    h0 = complex_normal(rng, (cfg.n_r, cfg.n_t, n))
    # the eigensolve draws nothing, so each chunk's stream is still H0
    # then the interferers in config order
    _, w = _top_eigpair(_gram(h0))
    f_h = np.einsum("rtb,tb->rb", h0, w).conj()  # the MRC combiner f = H0 w, conjugated
    lam = _abs2(f_h).sum(axis=0)  # ||H0 w||^2, consistent with f
    y = np.zeros(n)
    for spec in cfg.interferers:
        # the combiner projected first: g = f^H H, one row per draw
        g = np.einsum("rb,rtb->tb", f_h, complex_normal(rng, (cfg.n_r, cfg.n_t, n)))
        inr = db_to_linear(spec.inr_db)
        if spec.technique is Technique.OSTBC:
            g = np.einsum("tb,tlb->lb", g, qpsk_symbols(rng, (cfg.n_t, 1, n)) / cfg.n_t)
        else:
            # a layer's unit-modulus symbol cancels in its leakage |g v|^2,
            # and a full-rank V is unitary, so ||g V|| = ||g|| draw by draw
            inr /= spec.layers
            if spec.layers < cfg.n_t:
                g = np.einsum("tb,tlb->lb", g, haar_columns(rng, n, cfg.n_t, spec.layers))
        y += inr * _abs2(g).sum(axis=0) / lam
    return own_numerator_scale(cfg) * lam / (1.0 + y)


def simulate_bf_sinr(cfg: ScenarioConfig, n_samples: int, seed: int) -> EmpiricalDistribution:
    """Simulate post-MRC SINR samples for beamforming reception.

    A draw whose dominant eigenpair of H0^H H0 has an eigensolver residual
    above EIGH_RESIDUAL_TOL relative raises NumericInstabilityError.
    """
    if cfg.own_mode is not OwnMode.BEAMFORMING:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected bf")
    samples = run_chunks(lambda n, rng: _simulate_bf_chunk(cfg, n, rng), n_samples, seed,
                         chunk_draws(cfg.n_r, cfg.n_t))
    return EmpiricalDistribution(samples=samples)


# ---------------------------------------------------------------------------
# OSTBC-mode simulation


def _simulate_ostbc_chunk(cfg: ScenarioConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """SINR samples of one chunk: exact Alamouti combining at n_T = 2,
    else the per-instant projection model."""
    h0 = complex_normal(rng, (cfg.n_r, cfg.n_t, n))
    h0_h = h0.conj()
    fro2 = _abs2(h0).reshape(-1, n).sum(axis=0)
    # normalized interference Y per draw, symbol-averaged powers
    y = np.zeros(n)
    for spec in cfg.interferers:
        h = complex_normal(rng, (cfg.n_r, cfg.n_t, n))
        inr = db_to_linear(spec.inr_db)
        if spec.technique is Technique.OSTBC and cfg.n_t == 2:
            # interfering Alamouti block combines into two exact terms
            c1, c2, g1, g2 = h0_h[:, 0], h0[:, 1], h[:, 0], h[:, 1]
            a = np.einsum("rb,rb->b", c1, g1) + np.einsum("rb,rb->b", c2, g2.conj())
            b = np.einsum("rb,rb->b", c1, g2) - np.einsum("rb,rb->b", c2, g1.conj())
            y += (inr / cfg.n_t**2) * (_abs2(a) + _abs2(b)) / fro2
            continue
        if spec.technique is Technique.OSTBC:
            # component path: fresh full-power symbol vector per instant
            d = qpsk_symbols(rng, (cfg.n_t, cfg.n_t, n))
            g = np.einsum("rtb,tmb->rmb", h, d) / math.sqrt(cfg.n_t)
            proj = np.einsum("rmb,rmb->mb", h0_h, g)
        else:
            if spec.layers < cfg.n_t:
                v = haar_columns(rng, n, cfg.n_t, spec.layers) / math.sqrt(spec.layers)
                h = np.einsum("rtb,tlb->rlb", h, v)
            else:
                # a full-rank V is unitary: ||H0^H H V||_F = ||H0^H H||_F draw by draw
                inr /= spec.layers
            # every column of H0 is a combining direction once per block
            proj = np.einsum("rmb,rlb->mlb", h0_h, h)
        y += (inr / cfg.n_t) * _abs2(proj).reshape(-1, n).sum(axis=0) / fro2
    return own_numerator_scale(cfg) * fro2 / (1.0 + y)


def simulate_ostbc_sinr(cfg: ScenarioConfig, n_samples: int, seed: int) -> EmpiricalDistribution:
    """Simulate post-combining SINR samples for OSTBC reception.

    n_T = 2 uses exact Alamouti combining; other antenna counts use the
    per-instant projection model.
    """
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected ostbc")
    samples = run_chunks(lambda n, rng: _simulate_ostbc_chunk(cfg, n, rng), n_samples, seed,
                         chunk_draws(cfg.n_r, cfg.n_t))
    return EmpiricalDistribution(samples=samples)
