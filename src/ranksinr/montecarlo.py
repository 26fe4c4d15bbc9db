"""Monte Carlo oracle: simulate the physical link, no closed forms.

Every analytic result in this package is validated against this module,
so it deliberately shares no math with the closed-form paths beyond the
scenario definitions.  Per channel draw it builds i.i.d. Rayleigh
matrices, the serving link's transmit/receive processing, and each
interferer's equivalent channels, then records the post-processing SINR
conditioned on the channels (interference power averaged over data
symbols, which unit-modulus constellations make exact).

Conventions that must match the analytic model:

* Beamforming reception: the serving BS beamforms along the dominant
  eigenvector of H0^H H0 (one batched LAPACK ``eigh`` per chunk); MRC
  makes SINR = rho*lam/(1+Y) with Y the per-layer leakage sum.  A
  precoded interferer's layer enters through a Haar column scaled
  1/sqrt(n_L); an OSTBC interferer enters through
  H*q/n_T with q a unit-modulus symbol vector, i.e. the symbol vector
  is normalized to unit norm, which is what gives the analysis's
  Exp(rate n_T) leakage term and rate P/(n_T sigma2).
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
    """i.i.d. circularly-symmetric complex Gaussians, unit variance."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= 1.0 / math.sqrt(2.0)
    return z


def haar_columns(rng: np.random.Generator, batch: int, n: int, k: int) -> np.ndarray:
    """Haar-random orthonormal k-frames in C^n, batched.

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
    q = complex_normal(rng, (batch, n, k))
    for j in range(k):
        v = q[:, :, j]
        if j:
            prev = q[:, :, :j]
            prev_h = prev.conj()
            for _ in range(2):
                v -= np.einsum("bnk,bk->bn", prev, np.einsum("bnk,bn->bk", prev_h, v))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return q


def qpsk_symbols(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-modulus QPSK symbols."""
    return _QPSK[rng.integers(0, 4, size=shape)]


# ---------------------------------------------------------------------------
# dominant eigenpair


# accepted eigensolver residual ||M w - lam w|| / lam of every draw
EIGH_RESIDUAL_TOL = 1e-10


def _top_eigpair(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenpair of each Hermitian PSD matrix in a batch.

    One batched LAPACK ``eigh``; its result must pass the residual test
    ||M w - lam w|| <= EIGH_RESIDUAL_TOL*lam, and any draw that fails it
    raises NumericInstabilityError.
    """
    evals, evecs = np.linalg.eigh(mats)
    lam, w = evals[:, -1], evecs[:, :, -1]
    resid = np.linalg.norm((mats @ w[..., None])[..., 0] - lam[:, None] * w, axis=1)
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
    h0 = complex_normal(rng, (n, cfg.n_r, cfg.n_t))

    # the eigensolve draws nothing, so each chunk's stream is H0 then the
    # interferers in config order
    draws = []
    for spec in cfg.interferers:
        h = complex_normal(rng, (n, cfg.n_r, cfg.n_t))
        if spec.technique is Technique.OSTBC:
            d = qpsk_symbols(rng, (n, cfg.n_t))
            equiv = np.einsum("brt,bt->br", h, d) / cfg.n_t
            draws.append((spec, equiv[..., None]))
        else:
            v = haar_columns(rng, n, cfg.n_t, spec.layers) / math.sqrt(spec.layers)
            d = qpsk_symbols(rng, (n, spec.layers))
            equiv = np.einsum("btl,bl->btl", v, d)
            draws.append((spec, h @ equiv))

    mats = np.conj(np.swapaxes(h0, 1, 2)) @ h0
    _, w = _top_eigpair(mats)
    f = np.einsum("brt,bt->br", h0, w)
    lam = np.sum(np.abs(f) ** 2, axis=1)  # ||H0 w||^2, consistent with f

    y = np.zeros(n)
    for spec, equiv in draws:
        p_i = spec.power(sigma2)
        leak = np.abs(np.einsum("br,brl->bl", f.conj(), equiv)) ** 2
        y += (p_i / sigma2) * np.sum(leak, axis=1) / lam
    rho = own_numerator_scale(cfg)
    return rho * lam / (1.0 + y)


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


def _ostbc_interference_terms(
    cfg: ScenarioConfig, h0: np.ndarray, rng: np.random.Generator, alamouti: bool
) -> np.ndarray:
    """Normalized interference Y per draw, symbol-averaged powers."""
    n = h0.shape[0]
    sigma2 = cfg.noise_power
    fro2 = np.sum(np.abs(h0) ** 2, axis=(1, 2))
    y = np.zeros(n)
    for spec in cfg.interferers:
        h = complex_normal(rng, (n, cfg.n_r, cfg.n_t))
        p_i = spec.power(sigma2)
        if spec.technique is Technique.OSTBC and alamouti:
            # interfering Alamouti block combines into two exact terms
            c1, c2 = h0[:, :, 0], h0[:, :, 1]
            g1, g2 = h[:, :, 0], h[:, :, 1]
            a = np.sum(c1.conj() * g1, axis=1) + np.sum(c2 * g2.conj(), axis=1)
            b = np.sum(c1.conj() * g2, axis=1) - np.sum(c2 * g1.conj(), axis=1)
            y += (p_i / (cfg.n_t**2 * sigma2)) * (np.abs(a) ** 2 + np.abs(b) ** 2) / fro2
        elif spec.technique is Technique.OSTBC:
            # component path: fresh full-power symbol vector per instant
            d = qpsk_symbols(rng, (n, cfg.n_t, cfg.n_t))
            g = np.einsum("brt,btm->brm", h, d) / math.sqrt(cfg.n_t)
            proj = np.abs(np.einsum("brm,brm->bm", h0.conj(), g)) ** 2
            y += (p_i / (cfg.n_t * sigma2)) * np.sum(proj, axis=1) / fro2
        else:
            v = haar_columns(rng, n, cfg.n_t, spec.layers) / math.sqrt(spec.layers)
            u = h @ v
            # every column of H0 is a combining direction once per block
            proj = np.abs(np.einsum("brm,brl->bml", h0.conj(), u)) ** 2
            y += (p_i / (cfg.n_t * sigma2)) * np.sum(proj, axis=(1, 2)) / fro2
    return y


def _simulate_ostbc_chunk(
    cfg: ScenarioConfig, n: int, rng: np.random.Generator, force_component: bool
) -> np.ndarray:
    sigma2 = cfg.noise_power
    h0 = complex_normal(rng, (n, cfg.n_r, cfg.n_t))
    alamouti = cfg.n_t == 2 and not force_component
    y = _ostbc_interference_terms(cfg, h0, rng, alamouti)
    fro2 = np.sum(np.abs(h0) ** 2, axis=(1, 2))
    x = own_numerator_scale(cfg) * fro2
    return x / (1.0 + y)


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
