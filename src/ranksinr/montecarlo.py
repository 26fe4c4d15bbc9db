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
  leaks |g c|^2: c is a Haar column scaled 1/sqrt(n_L) times its
  symbol for a precoded interferer, q/n_T for an OSTBC one with q a
  unit-modulus symbol vector, i.e. the symbol vector is normalized to
  unit norm, which is what gives the analysis's Exp(rate n_T) leakage
  term and rate P/(n_T sigma2).
* OSTBC reception (n_T = 2): exact Alamouti combining.  The numerator
  is P0*||H0||_F^2/(n_T^2 sigma2); the per-symbol noise reference is
  n_T*sigma2*||H0||_F^2, matching the quadrupled noise in the
  numerator scale.  Precoded interference projects onto both columns
  of H0; an interfering Alamouti block combines into two exact
  independent exponential terms.
* OSTBC reception (any n_T): component path without code structure --
  the same column projections, with a fresh symbol vector per time
  instant for OSTBC interferers.  For n_T = 2 the two paths differ
  only in that interferer treatment.

Determinism: per-chunk SFC64 streams spawned from the master seed;
draw order within a chunk is fixed (H0, then interferer randomness in
config order; the eigensolve draws nothing) so results depend only on
(scenario, n_samples, seed, chunk_size).  Chunks run in parallel
threads (numpy's generators, ufuncs, einsum and batched eigh release
the GIL) and are concatenated in chunk order, so the worker count never
changes a result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericInstabilityError
from .scenario import OwnMode, ScenarioConfig, Technique, own_numerator_scale

RNG_NAME = "sfc64"
# 2^14 samples: a chunk's arrays stay near the cache and a few-1e5-sample
# run still splits into enough chunks to keep every CPU busy; on the oracle
# benchmark (2-CPU host) it beat 2^15 and 2^16
DEFAULT_CHUNK = 16_384
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed_seq))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussians, unit variance.

    The last axis of shape is the draw axis.  The values are the draws
    of the batch-first shape (shape[-1], *shape[:-1]), real parts then
    imaginary parts, written transposed 1024 draws at a time, so both
    sides of the copy stay in cache.
    """
    n = shape[-1]
    z = np.empty(shape, dtype=complex)
    flat = z.reshape(-1, n)
    for part in (flat.real, flat.imag):
        draws = rng.standard_normal((n, flat.shape[0]))
        for s in range(0, n, 1024):
            part[:, s:s + 1024] = draws[s:s + 1024].T
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
    """Unit-modulus QPSK symbols, drawn batch-first as complex_normal draws."""
    return _QPSK[np.moveaxis(rng.integers(0, 4, size=(shape[-1], *shape[:-1])), 0, -1)]


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
    """Raw SINR samples (linear)."""

    samples: np.ndarray

    @property
    def sample_count(self) -> int:
        return int(self.samples.size)

    def ecdf(self, grid) -> np.ndarray:
        """Empirical CDF evaluated on a grid of linear SINR values."""
        sorted_samples = np.sort(self.samples)
        return np.searchsorted(sorted_samples, np.asarray(grid), side="right") / self.samples.size

    def histogram_db(self, edges_db: np.ndarray) -> np.ndarray:
        """Density per dB over the given dB bin edges."""
        vals_db = 10.0 * np.log10(self.samples[self.samples > 0])
        counts, _ = np.histogram(vals_db, bins=edges_db)
        widths = np.diff(edges_db)
        return counts / (self.samples.size * widths)


# ---------------------------------------------------------------------------
# chunk runner


def _chunk_sizes(n_samples: int, chunk_size: int) -> list[int]:
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    full, rem = divmod(n_samples, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(
    simulate: Callable[[int, np.random.Generator], np.ndarray],
    n_samples: int,
    seed: int,
    chunk_size: int,
) -> np.ndarray:
    """Concatenated ``simulate(n, rng)`` over the chunks of ``n_samples``.

    Chunk i draws from the i-th SFC64 stream spawned from ``seed``, so
    each chunk is independent of the others and of where it runs.  The
    chunks run on up to one thread per usable CPU and are joined in
    chunk order; an exception from any chunk is raised here.
    """
    sizes = _chunk_sizes(n_samples, chunk_size)
    rngs = [_generator(ss) for ss in np.random.SeedSequence(seed).spawn(len(sizes))]
    with ThreadPoolExecutor(max_workers=min(len(sizes), _usable_cpus())) as pool:
        return np.concatenate(list(pool.map(simulate, sizes, rngs)))


# ---------------------------------------------------------------------------
# beamforming-mode simulation


def _simulate_bf_chunk(cfg: ScenarioConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    sigma2 = cfg.noise_power
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
        if spec.technique is Technique.OSTBC:
            cols = qpsk_symbols(rng, (cfg.n_t, 1, n)) / cfg.n_t
        else:
            v = haar_columns(rng, n, cfg.n_t, spec.layers) / math.sqrt(spec.layers)
            cols = v * qpsk_symbols(rng, (spec.layers, n))
        leak = _abs2(np.einsum("tb,tlb->lb", g, cols)).sum(axis=0)
        y += (spec.power(sigma2) / sigma2) * leak / lam
    return own_numerator_scale(cfg) * lam / (1.0 + y)


def simulate_bf_sinr(
    cfg: ScenarioConfig,
    n_samples: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> EmpiricalDistribution:
    """Simulate post-MRC SINR samples for beamforming reception.

    A draw whose dominant eigenpair of H0^H H0 has an eigensolver residual
    above EIGH_RESIDUAL_TOL relative raises NumericInstabilityError.
    """
    if cfg.own_mode is not OwnMode.BEAMFORMING:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected bf")
    samples = run_chunks(
        lambda n, rng: _simulate_bf_chunk(cfg, n, rng), n_samples, seed, chunk_size,
    )
    return EmpiricalDistribution(samples=samples)


# ---------------------------------------------------------------------------
# OSTBC-mode simulation


def _simulate_ostbc_chunk(
    cfg: ScenarioConfig, n: int, rng: np.random.Generator, force_component: bool
) -> np.ndarray:
    sigma2 = cfg.noise_power
    h0 = complex_normal(rng, (cfg.n_r, cfg.n_t, n))
    h0_h = h0.conj()
    fro2 = _abs2(h0).reshape(-1, n).sum(axis=0)
    alamouti = cfg.n_t == 2 and not force_component
    # normalized interference Y per draw, symbol-averaged powers
    y = np.zeros(n)
    for spec in cfg.interferers:
        h = complex_normal(rng, (cfg.n_r, cfg.n_t, n))
        p_i = spec.power(sigma2)
        if spec.technique is Technique.OSTBC and alamouti:
            # interfering Alamouti block combines into two exact terms
            c1, c2, g1, g2 = h0_h[:, 0], h0[:, 1], h[:, 0], h[:, 1]
            a = np.einsum("rb,rb->b", c1, g1) + np.einsum("rb,rb->b", c2, g2.conj())
            b = np.einsum("rb,rb->b", c1, g2) - np.einsum("rb,rb->b", c2, g1.conj())
            y += (p_i / (cfg.n_t**2 * sigma2)) * (_abs2(a) + _abs2(b)) / fro2
            continue
        if spec.technique is Technique.OSTBC:
            # component path: fresh full-power symbol vector per instant
            d = qpsk_symbols(rng, (cfg.n_t, cfg.n_t, n))
            g = np.einsum("rtb,tmb->rmb", h, d) / math.sqrt(cfg.n_t)
            proj = np.einsum("rmb,rmb->mb", h0_h, g)
        else:
            v = haar_columns(rng, n, cfg.n_t, spec.layers) / math.sqrt(spec.layers)
            # every column of H0 is a combining direction once per block
            proj = np.einsum("rmb,rlb->mlb", h0_h, np.einsum("rtb,tlb->rlb", h, v))
        y += (p_i / (cfg.n_t * sigma2)) * _abs2(proj).reshape(-1, n).sum(axis=0) / fro2
    return own_numerator_scale(cfg) * fro2 / (1.0 + y)


def simulate_ostbc_sinr(
    cfg: ScenarioConfig,
    n_samples: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
    force_component: bool = False,
) -> EmpiricalDistribution:
    """Simulate post-combining SINR samples for OSTBC reception.

    n_T = 2 uses exact Alamouti combining; other antenna counts (or
    force_component=True) use the per-instant projection model.
    """
    if cfg.own_mode is not OwnMode.OSTBC:
        raise ConfigError(f"scenario own_mode is {cfg.own_mode.value}, expected ostbc")
    samples = run_chunks(
        lambda n, rng: _simulate_ostbc_chunk(cfg, n, rng, force_component),
        n_samples, seed, chunk_size,
    )
    return EmpiricalDistribution(samples=samples)
