"""Simulation oracle self-checks: known limits, isotropy, determinism.

These tests validate the oracle against distributions known without the
analytic machinery (exponential/gamma limits, Haar isotropy), so that
using it to judge the closed forms is not circular.
"""

import math

import numpy as np
import pytest
from scipy import stats

from ranksinr import bf
from ranksinr.errors import ConfigError
from ranksinr.montecarlo import (
    EmpiricalDistribution,
    _generator,
    complex_normal,
    dominant_eigvec,
    empirical_outage,
    haar_columns,
    simulate_bf_sinr,
    simulate_ostbc_sinr,
)
from ranksinr.scenario import (
    InterfererSpec,
    OwnMode,
    ScenarioConfig,
    Technique,
    own_numerator_scale,
)

from conftest import REF_BF, REF_OSTBC, ks_distance


def test_runs_are_byte_identical():
    a = simulate_bf_sinr(REF_BF, 60_000, seed=42)
    b = simulate_bf_sinr(REF_BF, 60_000, seed=42)
    assert a.samples.tobytes() == b.samples.tobytes()
    c = simulate_bf_sinr(REF_BF, 60_000, seed=43)
    assert a.samples.tobytes() != c.samples.tobytes()


def test_mode_mismatch_rejected():
    with pytest.raises(ConfigError):
        simulate_bf_sinr(REF_OSTBC, 10, seed=0)
    with pytest.raises(ConfigError):
        simulate_ostbc_sinr(REF_BF, 10, seed=0)


def test_dominant_eigvec_matches_dense_solver():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 6):
        h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = h.conj().T @ h
        lam, w = dominant_eigvec(m)
        evals, evecs = np.linalg.eigh(m)
        assert lam == pytest.approx(evals[-1], rel=1e-8)
        top = evecs[:, -1]
        overlap = abs(np.vdot(top, w))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_dominant_eigvec_trivial_and_guard():
    lam, w = dominant_eigvec(np.diag([4.0, 1.0]).astype(complex))
    assert lam == pytest.approx(4.0, rel=1e-12)
    assert abs(w[0]) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        dominant_eigvec(np.eye(2, dtype=complex), tol=1e-3)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), 1e-17, 1e-3])
def test_simulate_bf_rejects_tol_outside_its_range(tol):
    # a bad argument, not a numeric failure of the eigensolver
    with pytest.raises(ValueError, match="tol must lie in"):
        simulate_bf_sinr(REF_BF, 1000, seed=0, tol=tol)


def test_dominant_eigvec_on_a_tied_top_eigenvalue():
    tol = 1e-10
    m = np.eye(3, dtype=complex)
    lam, w = dominant_eigvec(m, tol=tol)
    assert lam == 1.0
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(m @ w - lam * w) <= tol * lam


def test_complex_normal_matches_the_two_array_construction():
    # same generator state, same draw order: real parts, then imaginary
    a = np.random.default_rng(8)
    b = np.random.default_rng(8)
    z = complex_normal(a, (1000, 3, 2))
    re = b.standard_normal((1000, 3, 2))
    im = b.standard_normal((1000, 3, 2))
    assert z.tobytes() == ((re + 1j * im) / math.sqrt(2.0)).tobytes()


@pytest.mark.parametrize("n", [2, 4, 8])
def test_bf_without_interference_is_rho_times_top_singular_value_squared(n):
    # one chunk draws H0 first from the first spawned stream; without
    # interferers each sample is rho * sigma_max(H0)^2
    cfg = ScenarioConfig(
        n_r=n, n_t=n, noise_power=1.0, snr_db=10.0, own_mode=OwnMode.BEAMFORMING
    )
    seed, draws = 17, 2_000
    dist = simulate_bf_sinr(cfg, draws, seed=seed)
    rng = _generator(np.random.SeedSequence(seed).spawn(1)[0])
    h0 = complex_normal(rng, (draws, n, n))
    sigma_max = np.linalg.svd(h0, compute_uv=False)[:, 0]
    expected = own_numerator_scale(cfg) * sigma_max**2
    assert np.max(np.abs(dist.samples / expected - 1.0)) <= 1e-12


def test_haar_columns_isotropy():
    rng = np.random.default_rng(11)
    n_t, n_l, draws = 4, 2, 100_000
    q = haar_columns(rng, draws, n_t, n_l)
    v = q / np.sqrt(n_l)
    # exact per draw: V^H V = I / n_l
    gram = np.swapaxes(v.conj(), 1, 2) @ v
    assert np.max(np.abs(gram - np.eye(n_l) / n_l)) < 1e-12
    # on average: E[V V^H] = I / n_t
    outer = np.mean(v @ np.swapaxes(v.conj(), 1, 2), axis=0)
    assert np.max(np.abs(outer - np.eye(n_t) / n_t)) < 0.01


def _phase_fixed_qr_frames(rng, batch, n, k):
    # reference: LAPACK QR with the R-diagonal phases divided out (Mezzadri 2007)
    q, r = np.linalg.qr(complex_normal(rng, (batch, n, k)))
    diag = np.einsum("bkk->bk", r)
    return q * (diag / np.abs(diag)).conj()[:, None, :]


@pytest.mark.parametrize("n", range(1, 9))
def test_haar_columns_equal_phase_fixed_qr_frames(n):
    draws = 2_000
    for k in range(1, n + 1):
        seed = np.random.SeedSequence([n, k])
        a, b = _generator(seed), _generator(seed)
        q = haar_columns(a, draws, n, k)
        ref = _phase_fixed_qr_frames(b, draws, n, k)
        assert np.max(np.abs(q - ref)) <= 1e-12, (n, k)
        gram = np.swapaxes(q.conj(), 1, 2) @ q
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-13, (n, k)
        # both consumed the stream identically
        assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes()


def test_single_antenna_no_interference_is_unit_exponential():
    cfg = ScenarioConfig(
        n_r=1, n_t=1, noise_power=1.0, snr_db=0.0, own_mode=OwnMode.BEAMFORMING
    )
    dist = simulate_bf_sinr(cfg, 1_000_000, seed=9)
    s = np.sort(dist.samples)
    ks = ks_distance(s, 1.0 - np.exp(-s))
    assert ks < 0.005, f"KS = {ks:.5f}"


def test_ostbc_numerator_is_gamma():
    cfg = ScenarioConfig(
        n_r=2, n_t=2, noise_power=1.0, snr_db=15.0, own_mode=OwnMode.OSTBC
    )
    dist = simulate_ostbc_sinr(cfg, 1_000_000, seed=9)
    s = np.sort(dist.samples)
    ks = ks_distance(s, stats.gamma.cdf(s, a=4, scale=own_numerator_scale(cfg)))
    assert ks < 0.005, f"KS = {ks:.5f}"


def test_bf_layer_leakage_is_exponential():
    # a unit vector independent of H sees each scaled precoder layer as
    # an Exp(rate n_l) power: |w^H H v_l|^2 with v = haar/sqrt(n_l)
    rng = np.random.default_rng(21)
    n, n_r, n_t, n_l = 400_000, 2, 4, 4
    h = complex_normal(rng, (n, n_r, n_t))
    v = haar_columns(rng, n, n_t, n_l) / np.sqrt(n_l)
    w = complex_normal(rng, (n, n_r))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    u = np.einsum("brt,btl->brl", h, v)
    leak = np.abs(np.einsum("br,brl->bl", w.conj(), u)) ** 2
    for layer in range(n_l):
        s = np.sort(leak[:, layer])
        ks = ks_distance(s, 1.0 - np.exp(-n_l * s))
        assert ks < 0.005, f"layer {layer}: KS = {ks:.5f}"


def test_alamouti_and_component_paths_agree(
    ostbc_ref_run, ostbc_ref_component_run
):
    exact, _ = ostbc_ref_run
    a = np.sort(exact.samples)
    b = np.sort(ostbc_ref_component_run.samples)
    grid = np.concatenate([a[:: len(a) // 2000], b[:: len(b) // 2000]])
    grid.sort()
    ks = float(
        np.max(
            np.abs(
                np.searchsorted(a, grid, side="right") / a.size
                - np.searchsorted(b, grid, side="right") / b.size
            )
        )
    )
    assert ks < 0.01, f"KS = {ks:.5f}"


def test_bf_reference_outage_matches_closed_form(bf_ref_run, ref_bf_cfg):
    dist, _ = bf_ref_run
    model = bf.from_config(ref_bf_cfg)
    est = dist.outage(1.0)
    assert abs(est.probability - model.outage(1.0)) < 0.005


def test_outage_estimate_and_ecdf():
    samples = np.array([0.5, 1.0, 1.5, 2.0])
    dist = EmpiricalDistribution(
        samples=samples, seed=0, chunk_size=4, rng_name="philox4x64"
    )
    est = dist.outage(1.2)
    assert est.probability == 0.5
    assert est.std_error == pytest.approx(np.sqrt(0.25 / 4))
    assert empirical_outage(dist, 1.2) == est
    grid = np.array([0.4, 1.0, 3.0])
    assert dist.ecdf(grid) == pytest.approx([0.0, 0.5, 1.0])


def test_histogram_density_in_db():
    cfg = ScenarioConfig(
        n_r=1, n_t=1, noise_power=1.0, snr_db=0.0, own_mode=OwnMode.BEAMFORMING
    )
    dist = simulate_bf_sinr(cfg, 200_000, seed=3)
    edges = np.arange(-30.0, 20.5, 0.5)
    dens = dist.histogram_db(edges)
    mass = np.sum(dens * np.diff(edges))
    assert 0.97 < mass <= 1.0 + 1e-9


def test_gaussian_symbols_fatten_the_interference_tail():
    # instantaneous symbol powers equal their average only for
    # unit-modulus constellations, which is what the analysis assumes;
    # gaussian symbols add multiplicative spread and push low-threshold
    # outage up, so the sensitivity knob must move in that direction
    pq = simulate_bf_sinr(REF_BF, 150_000, seed=5, symbol_mode="qpsk").outage(1.0)
    pg = simulate_bf_sinr(REF_BF, 150_000, seed=5, symbol_mode="gaussian").outage(1.0)
    assert pg.probability > pq.probability + 4 * (pq.std_error + pg.std_error)


def test_chunking_covers_all_samples():
    dist = simulate_bf_sinr(REF_BF, 123_457, seed=1, chunk_size=50_000)
    assert dist.sample_count == 123_457
    assert dist.chunk_size == 50_000
