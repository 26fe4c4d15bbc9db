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
eigh release the GIL) and ``run_chunks`` hands each chunk's result to the
caller in chunk order, so the worker count never changes a result.  A
chunk's standard normals are drawn into its worker's ``DrawBuffers`` with
``standard_normal(out=...)``, which draws the values a fresh array would
hold.

Memory: the counting path, ``count_sinr``, holds no array of the sample
count.  Each chunk worker sorts its chunk in place and returns the
integer ``searchsorted`` counts at the query points, which the caller
adds up; the ECDF and the per-dB histogram are then those of all the
samples, byte for byte, and a run holds a few chunks of arrays per
worker at any sample count.  Each worker refills one block of draw
buffers chunk after chunk (``DrawBuffers``), so its chunks do not hand
their draws back to the OS and fault them in again.
``simulate_bf_sinr`` and ``simulate_ostbc_sinr`` return the samples
themselves, 8 bytes each, in one array; ``EmpiricalDistribution``
answers each ECDF or histogram query on them by sorting them block by
block in one CHUNK_ENTRIES buffer and adding up the counts of the
blocks, as the counting path does.
"""

from __future__ import annotations

import collections
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

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
# what a run takes: a sample count whose float64 array numpy can size,
# a 64-bit seed
MAX_SAMPLES, MAX_SEED = int(np.iinfo(np.intp).max) // 8, 2**64 - 1
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed_seq))


def complex_normal(rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussians, unit variance.

    The last axis of shape is the draw axis.  A value's real and
    imaginary parts are two consecutive standard normals, scaled by
    1/sqrt(2); the result is C-contiguous.  With ``out``, a float64
    array of at least 2 prod(shape) entries, the normals fill its first
    entries in place and the result is a view of them; the values are
    those of a fresh array.
    """
    if out is None:
        pairs = rng.standard_normal((*shape, 2))
    else:
        pairs = out[:2 * math.prod(shape)].reshape(*shape, 2)
        rng.standard_normal(out=pairs)
    z = pairs.view(complex)[..., 0]
    z *= 1.0 / math.sqrt(2.0)
    return z


class DrawBuffers:
    """One worker's standard-normal draw arrays, kept from chunk to chunk.

    A kernel names each draw "h0", "h" or "frame", and ``normal`` refills
    that name's stretch of one float64 block in place; two draws alive at
    once need two names.  A stretch holds CHUNK_ENTRIES complex entries,
    the most that any per-draw array of a ``chunk_draws`` chunk holds; a
    larger draw, from a caller that sizes its own chunks, moves the block
    to one with larger stretches.  One block is allocated once for all the
    draws of a worker, and it is larger than any temporary of a chunk:
    glibc's malloc raises its mmap and trim thresholds to the size of a
    mapped block when it frees one, so once a run's blocks are freed, the
    chunk temporaries of later runs stay on the heap instead of being
    mapped, unmapped and faulted in chunk after chunk.
    """

    NAMES = ("h0", "h", "frame")

    def __init__(self) -> None:
        self._stretch = 2 * CHUNK_ENTRIES
        self._block = np.empty(len(self.NAMES) * self._stretch)

    def normal(self, rng: np.random.Generator, shape, name: str) -> np.ndarray:
        """``complex_normal(rng, shape)`` drawn into the stretch ``name``."""
        size = 2 * math.prod(shape)
        if size > self._stretch:
            # the draws of this chunk made before keep the old block alive
            self._stretch = size
            self._block = np.empty(len(self.NAMES) * size)
        start = self.NAMES.index(name) * self._stretch
        return complex_normal(rng, shape, out=self._block[start:start + size])


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2  # np.abs(z)**2 would go through hypot


def haar_columns(rng: np.random.Generator, batch: int, n: int, k: int,
                 buffers: DrawBuffers | None = None) -> np.ndarray:
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
    over the batch.  At k = 1 the frame is z/||z||.  With ``buffers`` the
    Gaussian matrix is drawn into, and the frame returned in, its stretch
    "frame".
    """
    shape = (n, k, batch)
    q = complex_normal(rng, shape) if buffers is None else buffers.normal(rng, shape, "frame")
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


_SAMPLES_RULE = "samples must be a nonempty 1-d array of finite real numbers"


def block_counts(block: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``block`` in place and count its values: the number < each
    point of ``left`` and <= each point of ``right``.  Added up over the
    blocks of a sample set, these are the counts of the whole sorted set.
    A non-finite value is refused with a ConfigError."""
    block.sort()
    # the sort puts -inf first, +inf and NaN last
    if not (np.isfinite(block[0]) and np.isfinite(block[-1])):
        raise ConfigError(_SAMPLES_RULE)
    return (np.searchsorted(block, left, side="left"),
            np.searchsorted(block, right, side="right"))


def _density_per_db(edges_db, below: np.ndarray, at_or_below_last, nonpositive,
                    n: int) -> np.ndarray:
    """The per-dB histogram over ``edges_db`` of n samples, from the counts
    below each linear edge and at or below the last edge and 0: the bins
    of ``np.histogram`` on their dB values, the last bin closed."""
    below[-1] = at_or_below_last
    # no bin holds a sample <= 0, also where an edge underflows to 0
    counts = np.diff(np.maximum(below, nonpositive))
    return counts / (n * np.diff(edges_db))


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
            raise ConfigError(_SAMPLES_RULE)

    @property
    def sample_count(self) -> int:
        return int(self.samples.size)

    def _count_below(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``block_counts`` of all the samples, in one pass: each block
        of CHUNK_ENTRIES samples is copied into one buffer and counted there."""
        n = self.samples.size
        buf = np.empty(min(n, CHUNK_ENTRIES), dtype=self.samples.dtype)
        below = np.zeros(left.shape, dtype=np.intp)
        at_or_below = np.zeros(right.shape, dtype=np.intp)
        for start in range(0, n, buf.size):
            block = buf[:min(buf.size, n - start)]
            block[...] = self.samples[start:start + block.size]
            lo, hi = block_counts(block, left, right)
            below += lo
            at_or_below += hi
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
        return _density_per_db(edges_db, below, last, nonpositive, self.samples.size)


# ---------------------------------------------------------------------------
# chunk runner


def chunk_draws(n_r: int, n_t: int) -> int:
    """Draws per chunk: the most whose per-draw arrays each hold at most
    CHUNK_ENTRIES complex entries.  The largest hold n_t max(n_r, n_t):
    the n_r x n_t channels and the n_t x n_t Gram matrices, precoder
    frames and OSTBC symbol blocks."""
    return CHUNK_ENTRIES // (n_t * max(n_r, n_t))


def _chunk_sizes(n_samples: int, chunk: int) -> Iterator[int]:
    """The sample count of each chunk, the last one holding the remainder,
    made one at a time: a run of any length lists none of them."""
    return (min(chunk, n_samples - start) for start in range(0, n_samples, chunk))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_run(n_samples: int, seed: int) -> tuple[int, int]:
    return (check_count(n_samples, "n_samples", MAX_SAMPLES),
            check_count(seed, "seed", MAX_SEED, lo=0))


def run_chunks(
    simulate: Callable[[int, np.random.Generator, DrawBuffers], object],
    n_samples: int,
    seed: int,
    chunk: int,
    take: Callable[[int, object], None],
) -> None:
    """``simulate(n, rng, buffers)`` on each ``chunk``-sample chunk of
    ``n_samples``, the last one holding the remainder, and ``take(start,
    result)`` on each chunk's result, in this thread and in chunk order.

    ``n_samples`` is a positive integer and ``seed`` an integer in
    0..2^64-1 (``scenario.check_count``); ConfigError refuses any other.
    ``chunk`` comes from ``chunk_draws``.  Chunk i draws from the i-th
    SFC64 stream spawned from ``seed``, so each chunk is independent of
    the others and of where it runs.  The chunks run on up to one thread
    per usable CPU; each thread passes one ``DrawBuffers`` to all the
    chunks it runs.  At most two chunks per thread are queued or done but
    not yet taken, so a run holds the same few chunk results at any
    sample count.  An exception from any chunk is raised here.
    """
    n_samples, seed = _check_run(n_samples, seed)
    workers = min(-(-n_samples // chunk), _usable_cpus())
    local = threading.local()

    def run(i: int, n: int):
        if not hasattr(local, "buffers"):
            local.buffers = DrawBuffers()
        # the i-th child of SeedSequence(seed).spawn, made when needed
        rng = _generator(np.random.SeedSequence(seed, spawn_key=(i,)))
        return simulate(n, rng, local.buffers)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        for i, n in enumerate(_chunk_sizes(n_samples, chunk)):
            pending.append((i * chunk, pool.submit(run, i, n)))
            if len(pending) == 2 * workers:
                start, done = pending.popleft()
                take(start, done.result())
        for start, done in pending:
            take(start, done.result())


def sample_chunks(
    simulate: Callable[[int, np.random.Generator, DrawBuffers], np.ndarray],
    n_samples: int,
    seed: int,
    chunk: int,
) -> np.ndarray:
    """The samples of ``run_chunks`` in one array, in draw order.  An array
    the host cannot allocate is a ConfigError, raised before any chunk runs."""
    n_samples, seed = _check_run(n_samples, seed)
    try:
        out = np.empty(n_samples)
    except MemoryError:
        raise ConfigError(
            f"{n_samples} samples need {8 * n_samples} bytes, more than this host can allocate"
        ) from None

    def take(start: int, samples: np.ndarray) -> None:
        out[start:start + samples.size] = samples

    run_chunks(simulate, n_samples, seed, chunk, take)
    return out


# ---------------------------------------------------------------------------
# beamforming-mode simulation


def _simulate_bf_chunk(cfg: ScenarioConfig, n: int, rng: np.random.Generator,
                       buffers: DrawBuffers) -> np.ndarray:
    h0 = buffers.normal(rng, (cfg.n_r, cfg.n_t, n), "h0")
    # the eigensolve draws nothing, so each chunk's stream is still H0
    # then the interferers in config order
    _, w = _top_eigpair(_gram(h0))
    f_h = np.einsum("rtb,tb->rb", h0, w).conj()  # the MRC combiner f = H0 w, conjugated
    lam = _abs2(f_h).sum(axis=0)  # ||H0 w||^2, consistent with f
    y = np.zeros(n)
    for spec in cfg.interferers:
        # the combiner projected first: g = f^H H, one row per draw
        g = np.einsum("rb,rtb->tb", f_h, buffers.normal(rng, (cfg.n_r, cfg.n_t, n), "h"))
        inr = db_to_linear(spec.inr_db)
        if spec.technique is Technique.OSTBC:
            g = np.einsum("tb,tlb->lb", g, qpsk_symbols(rng, (cfg.n_t, 1, n)) / cfg.n_t)
        else:
            # a layer's unit-modulus symbol cancels in its leakage |g v|^2,
            # and a full-rank V is unitary, so ||g V|| = ||g|| draw by draw
            inr /= spec.layers
            if spec.layers < cfg.n_t:
                g = np.einsum("tb,tlb->lb", g,
                              haar_columns(rng, n, cfg.n_t, spec.layers, buffers))
        y += inr * _abs2(g).sum(axis=0) / lam
    return own_numerator_scale(cfg) * lam / (1.0 + y)


def simulate_bf_sinr(cfg: ScenarioConfig, n_samples: int, seed: int) -> EmpiricalDistribution:
    """Simulate post-MRC SINR samples for beamforming reception.

    A draw whose dominant eigenpair of H0^H H0 has an eigensolver residual
    above EIGH_RESIDUAL_TOL relative raises NumericInstabilityError.
    """
    if cfg.own_mode is not OwnMode.BEAMFORMING:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected bf")
    return EmpiricalDistribution(samples=sample_chunks(
        lambda n, rng, buffers: _simulate_bf_chunk(cfg, n, rng, buffers),
        n_samples, seed, chunk_draws(cfg.n_r, cfg.n_t)))


# ---------------------------------------------------------------------------
# OSTBC-mode simulation


def _simulate_ostbc_chunk(cfg: ScenarioConfig, n: int, rng: np.random.Generator,
                          buffers: DrawBuffers) -> np.ndarray:
    """SINR samples of one chunk: exact Alamouti combining at n_T = 2,
    else the per-instant projection model."""
    h0 = buffers.normal(rng, (cfg.n_r, cfg.n_t, n), "h0")
    h0_h = h0.conj()
    fro2 = _abs2(h0).reshape(-1, n).sum(axis=0)
    # normalized interference Y per draw, symbol-averaged powers
    y = np.zeros(n)
    for spec in cfg.interferers:
        h = buffers.normal(rng, (cfg.n_r, cfg.n_t, n), "h")
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
                v = haar_columns(rng, n, cfg.n_t, spec.layers, buffers) / math.sqrt(spec.layers)
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
    return EmpiricalDistribution(samples=sample_chunks(
        lambda n, rng, buffers: _simulate_ostbc_chunk(cfg, n, rng, buffers),
        n_samples, seed, chunk_draws(cfg.n_r, cfg.n_t)))


# ---------------------------------------------------------------------------
# counted runs


def count_sinr(cfg: ScenarioConfig, n_samples: int, seed: int, grid=None,
               edges_db=None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The empirical CDF on ``grid`` (1-d, linear SINR) and the density per
    dB over the increasing dB bin edges ``edges_db`` of the SINR samples that
    ``simulate_bf_sinr`` or ``simulate_ostbc_sinr`` (by ``cfg.own_mode``)
    draws: the bytes of that distribution's ``ecdf`` and ``histogram_db``.
    Each chunk worker counts its chunk as it is drawn (``block_counts``) and
    the integer counts are added up here, so no array of ``n_samples`` is
    held.  A query left as None is not counted and is returned as None.
    """
    kernel = _simulate_bf_chunk if cfg.own_mode is OwnMode.BEAMFORMING else _simulate_ostbc_chunk
    points = np.empty(0) if grid is None else np.asarray(grid)
    left, right = np.empty(0), points
    if edges_db is not None:
        left = 10.0 ** (np.asarray(edges_db) / 10.0)
        right = np.concatenate([points, [left[-1], 0.0]])
    below = np.zeros(left.shape, dtype=np.intp)
    at_or_below = np.zeros(right.shape, dtype=np.intp)

    def count(n: int, rng: np.random.Generator, buffers: DrawBuffers):
        return block_counts(kernel(cfg, n, rng, buffers), left, right)

    def take(_start: int, counts: tuple[np.ndarray, np.ndarray]) -> None:
        below[...] += counts[0]
        at_or_below[...] += counts[1]

    run_chunks(count, n_samples, seed, chunk_draws(cfg.n_r, cfg.n_t), take)
    ecdf = density = None
    if grid is not None:
        ecdf = at_or_below[:points.size] / n_samples
    if edges_db is not None:
        density = _density_per_db(edges_db, below, *at_or_below[points.size:], n_samples)
    return ecdf, density
