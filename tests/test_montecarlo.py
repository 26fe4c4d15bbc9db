"""Simulation oracle self-checks: known limits, isotropy, determinism.

These tests validate the oracle against distributions known without the
analytic machinery (exponential/gamma limits, Haar isotropy), so that
using it to judge the closed forms is not circular.
"""

import numpy as np
import pytest
from scipy import stats

from ranksinr import approx, bf, montecarlo
from ranksinr.approx import simulate_exact_terms
from ranksinr.errors import ConfigError, NumericInstabilityError
from ranksinr.montecarlo import (
    EmpiricalDistribution,
    _generator,
    _top_eigpair,
    complex_normal,
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
from oracles import (
    bf_chunk_batch_first,
    complex_normal_batch_first,
    exact_terms_batch_first,
    haar_frames_batch_first,
    ostbc_chunk_batch_first,
)


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
        lam, w = _top_eigpair(m[..., None])
        evals, evecs = np.linalg.eigh(m)
        assert lam[0] == pytest.approx(evals[-1], rel=1e-8)
        top = evecs[:, -1]
        overlap = abs(np.vdot(top, w[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_dominant_eigvec_trivial_and_guard(monkeypatch):
    lam, w = _top_eigpair(np.diag([4.0, 1.0]).astype(complex)[..., None])
    assert lam[0] == pytest.approx(4.0, rel=1e-12)
    assert abs(w[0, 0]) == pytest.approx(1.0, abs=1e-10)
    # the residual check: no draw of a random Hermitian batch has an
    # exactly zero residual, so a zero tolerance refuses the batch
    h = complex_normal(np.random.default_rng(6), (3, 3, 50))
    mats = np.einsum("rib,rjb->ijb", h.conj(), h)
    _top_eigpair(mats)
    monkeypatch.setattr(montecarlo, "EIGH_RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericInstabilityError, match="eigh residual"):
        _top_eigpair(mats)


def test_dominant_eigvec_on_a_tied_top_eigenvalue():
    m = np.eye(3, dtype=complex)
    lam, w = _top_eigpair(m[..., None])
    assert lam[0] == 1.0
    assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(m @ w[:, 0] - lam[0] * w[:, 0]) <= montecarlo.EIGH_RESIDUAL_TOL * lam[0]


def test_complex_normal_matches_the_two_array_construction():
    # same generator state, same draw order: real parts, then imaginary,
    # of the batch-first shape; the draws land transposed, draw axis last
    for shape in [(1000,), (1, 1000), (3, 2, 1000), (8, 8, 2500)]:
        a = _generator(np.random.SeedSequence(8))
        b = _generator(np.random.SeedSequence(8))
        z = complex_normal(a, shape)
        ref = complex_normal_batch_first(b, (shape[-1], *shape[:-1]))
        assert z.flags.c_contiguous
        assert z.tobytes() == np.ascontiguousarray(np.moveaxis(ref, 0, -1)).tobytes(), shape
        # both leave the generator in the same state
        assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes(), shape


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
    h0 = complex_normal(rng, (n, n, draws))
    sigma_max = np.linalg.svd(np.moveaxis(h0, -1, 0), compute_uv=False)[:, 0]
    expected = own_numerator_scale(cfg) * sigma_max**2
    assert np.max(np.abs(dist.samples / expected - 1.0)) <= 1e-12


def test_haar_columns_isotropy():
    rng = np.random.default_rng(11)
    n_t, n_l, draws = 4, 2, 100_000
    q = haar_columns(rng, draws, n_t, n_l)
    assert q.shape == (n_t, n_l, draws)
    v = q / np.sqrt(n_l)
    # exact per draw: V^H V = I / n_l
    gram = np.einsum("tkb,tlb->klb", v.conj(), v)
    assert np.max(np.abs(gram - (np.eye(n_l) / n_l)[..., None])) < 1e-12
    # on average: E[V V^H] = I / n_t
    outer = np.einsum("skb,tkb->st", v, v.conj()) / draws
    assert np.max(np.abs(outer - np.eye(n_t) / n_t)) < 0.01


@pytest.mark.parametrize("n", range(1, 9))
def test_haar_columns_equal_phase_fixed_qr_frames(n):
    draws = 2_000
    for k in range(1, n + 1):
        seed = np.random.SeedSequence([n, k])
        a, b = _generator(seed), _generator(seed)
        q = haar_columns(a, draws, n, k)
        # reference: LAPACK QR with the R-diagonal phases divided out
        ref = haar_frames_batch_first(b, draws, n, k)
        assert np.max(np.abs(np.moveaxis(q, -1, 0) - ref)) <= 1e-12, (n, k)
        gram = np.einsum("nib,njb->ijb", q.conj(), q)
        assert np.max(np.abs(gram - np.eye(k)[..., None])) <= 1e-13, (n, k)
        # both consumed the stream identically
        assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes()


_SIZES = [(1, 1), (2, 2), (2, 4), (4, 4)]


def _every_interferer_kind(n_r, n_t, own_mode):
    """An OSTBC, a BF and an SM interferer of each layer count 1..n_t."""
    interferers = (
        InterfererSpec(technique=Technique.OSTBC, inr_db=6.0),
        InterfererSpec(technique=Technique.BEAMFORMING, inr_db=8.0),
        *(InterfererSpec(technique=Technique.SPATIAL_MULTIPLEXING, inr_db=10.0 - layers,
                         layers=layers) for layers in range(1, n_t + 1)),
    )
    return ScenarioConfig(n_r=n_r, n_t=n_t, noise_power=1.0, snr_db=15.0,
                          own_mode=own_mode, interferers=interferers)


def _assert_same_samples_and_stream(kernel, reference, draws=3_000):
    # both on the same generator state; they must draw the same values
    seed = np.random.SeedSequence(29)
    a, b = _generator(seed), _generator(seed)
    got, ref = kernel(draws, a), reference(draws, b)
    assert got.shape == ref.shape == (draws,)
    err = np.abs(got - ref)
    assert np.all((err <= 1e-12 * np.abs(ref)) | (err <= 1e-15)), float(np.max(err / ref))
    assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes()


@pytest.mark.parametrize("n_r,n_t", _SIZES)
def test_bf_kernel_matches_the_batch_first_reference(n_r, n_t):
    cfg = _every_interferer_kind(n_r, n_t, OwnMode.BEAMFORMING)
    _assert_same_samples_and_stream(
        lambda n, rng: montecarlo._simulate_bf_chunk(cfg, n, rng),
        lambda n, rng: bf_chunk_batch_first(cfg, n, rng))


@pytest.mark.parametrize("force_component", [False, True], ids=["alamouti", "component"])
@pytest.mark.parametrize("n_r,n_t", _SIZES)
def test_ostbc_kernel_matches_the_batch_first_reference(n_r, n_t, force_component):
    cfg = _every_interferer_kind(n_r, n_t, OwnMode.OSTBC)
    _assert_same_samples_and_stream(
        lambda n, rng: montecarlo._simulate_ostbc_chunk(cfg, n, rng, force_component),
        lambda n, rng: ostbc_chunk_batch_first(cfg, n, rng, force_component))


@pytest.mark.parametrize("n_r,n_t", _SIZES)
def test_exact_terms_kernel_matches_the_batch_first_reference(n_r, n_t):
    for n_l in range(1, n_t + 1):
        _assert_same_samples_and_stream(
            lambda n, rng: approx._exact_terms_chunk(n_r, n_t, n_l, n, rng),
            lambda n, rng: exact_terms_batch_first(n_r, n_t, n_l, n, rng))


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
    h = complex_normal(rng, (n_r, n_t, n))
    v = haar_columns(rng, n, n_t, n_l) / np.sqrt(n_l)
    w = complex_normal(rng, (n_r, n))
    w /= np.linalg.norm(w, axis=0)
    u = np.einsum("rtb,tlb->rlb", h, v)
    leak = np.abs(np.einsum("rb,rlb->lb", w.conj(), u)) ** 2
    for layer in range(n_l):
        s = np.sort(leak[layer])
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
    assert abs(dist.ecdf(1.0) - model.outage(1.0)) < 0.005


def test_outage_estimate_and_ecdf():
    dist = EmpiricalDistribution(samples=np.array([0.5, 1.0, 1.5, 2.0]))
    assert dist.ecdf(1.2) == 0.5
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


def test_chunking_covers_all_samples():
    dist = simulate_bf_sinr(REF_BF, 123_457, seed=1, chunk_size=50_000)
    assert dist.sample_count == 123_457


_CHUNK, _N_CHUNKED = 1_000, 3_357  # three full chunks and a remainder
_RUNNERS = {
    "bf": (lambda seed: simulate_bf_sinr(REF_BF, _N_CHUNKED, seed, _CHUNK).samples,
           lambda n, rng: montecarlo._simulate_bf_chunk(REF_BF, n, rng)),
    "ostbc-alamouti": (
        lambda seed: simulate_ostbc_sinr(REF_OSTBC, _N_CHUNKED, seed, _CHUNK).samples,
        lambda n, rng: montecarlo._simulate_ostbc_chunk(REF_OSTBC, n, rng, False)),
    "ostbc-component": (
        lambda seed: simulate_ostbc_sinr(REF_OSTBC, _N_CHUNKED, seed, _CHUNK,
                                         force_component=True).samples,
        lambda n, rng: montecarlo._simulate_ostbc_chunk(REF_OSTBC, n, rng, True)),
    "exact-terms": (
        lambda seed: simulate_exact_terms(2, 4, 2, _N_CHUNKED, seed, _CHUNK),
        lambda n, rng: approx._exact_terms_chunk(2, 4, 2, n, rng)),
}


@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_results_do_not_depend_on_the_worker_count(name, monkeypatch):
    # reference: the chunks one after another in this thread, chunk i on
    # the i-th spawned stream
    run, chunk = _RUNNERS[name]
    seed = 23
    children = np.random.SeedSequence(seed).spawn(4)
    sizes = [_CHUNK] * 3 + [_N_CHUNKED - 3 * _CHUNK]
    serial = np.concatenate([chunk(n, _generator(ss)) for n, ss in zip(sizes, children)])
    assert run(seed).tobytes() == serial.tobytes()
    for workers in (1, 3):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        assert run(seed).tobytes() == serial.tobytes()


@pytest.mark.parametrize("simulate,cfg,kw", [
    (simulate_bf_sinr, REF_BF, {}),
    # the Alamouti path draws no symbols, the component path does
    (simulate_ostbc_sinr, REF_OSTBC, {"force_component": True}),
])
def test_an_error_inside_a_chunk_reaches_the_caller(simulate, cfg, kw, monkeypatch):
    def fail(rng, shape):
        raise RuntimeError("symbol draw failed")

    monkeypatch.setattr(montecarlo, "qpsk_symbols", fail)
    with pytest.raises(RuntimeError, match="symbol draw failed"):
        simulate(cfg, _N_CHUNKED, 0, _CHUNK, **kw)
