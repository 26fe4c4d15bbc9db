"""Simulation oracle self-checks: known limits, isotropy, determinism.

These tests validate the oracle against distributions known without the
analytic machinery (exponential/gamma limits, Haar isotropy), so that
using it to judge the closed forms is not circular.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ranksinr import approx, bf, montecarlo
from ranksinr.approx import simulate_exact_terms
from ranksinr.errors import ConfigError, NumericInstabilityError
from ranksinr.montecarlo import (
    MAX_SAMPLES,
    DrawBuffers,
    EmpiricalDistribution,
    _generator,
    _gram,
    _top_eigpair,
    chunk_draws,
    complex_normal,
    count_sinr,
    haar_columns,
    qpsk_symbols,
    run_chunks,
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
    exact_terms_batch_first,
    haar_frames_batch_first,
    ostbc_chunk_batch_first,
    serial_chunks,
)


def test_runs_are_byte_identical():
    a = simulate_bf_sinr(REF_BF, 60_000, seed=42)
    b = simulate_bf_sinr(REF_BF, 60_000, seed=42)
    assert a.samples.tobytes() == b.samples.tobytes()
    c = simulate_bf_sinr(REF_BF, 60_000, seed=43)
    assert a.samples.tobytes() != c.samples.tobytes()


@pytest.mark.parametrize("n_samples", [True, 2.5, 0, -1, "3", None, np.float64(3.0)])
def test_sample_count_follows_the_one_integer_rule(n_samples):
    # True once drew 1 sample and 2.5 raised TypeError
    with pytest.raises(ConfigError, match="n_samples must be an integer"):
        simulate_bf_sinr(REF_BF, n_samples, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5, True, None, "0"])
def test_seed_follows_the_one_integer_rule(seed):
    # None once drew from fresh OS entropy, so no two runs agreed
    with pytest.raises(ConfigError, match="seed must be an integer"):
        simulate_ostbc_sinr(REF_OSTBC, 10, seed=seed)


def test_the_largest_sample_count_is_the_largest_float64_array():
    # one more sample once made numpy raise its own "array is too big"
    # ValueError; 8 EiB exceeds every 64-bit address space, so the largest
    # count is a refusal of the allocation
    assert MAX_SAMPLES == np.iinfo(np.intp).max // 8
    with pytest.raises(ConfigError, match="n_samples must be an integer"):
        simulate_bf_sinr(REF_BF, MAX_SAMPLES + 1, seed=0)
    with pytest.raises(ConfigError, match="more than this host can allocate"):
        simulate_bf_sinr(REF_BF, MAX_SAMPLES, seed=0)


def test_numpy_integer_counts_draw_the_same_samples():
    assert (simulate_bf_sinr(REF_BF, np.int64(30), seed=np.uint64(5)).samples.tobytes()
            == simulate_bf_sinr(REF_BF, 30, seed=5).samples.tobytes())


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


def test_complex_normal_pairs_consecutive_normals():
    # a value's real and imaginary parts are two consecutive standard
    # normals over sqrt(2), draw axis last, C-contiguous
    for shape in [(1000,), (1, 1000), (3, 2, 1000), (8, 8, 2500)]:
        a = _generator(np.random.SeedSequence(8))
        b = _generator(np.random.SeedSequence(8))
        z = complex_normal(a, shape)
        pairs = b.standard_normal((*shape, 2))
        ref = (pairs[..., 0] + 1j * pairs[..., 1]) / math.sqrt(2.0)
        assert z.shape == shape and z.flags.c_contiguous
        assert z.tobytes() == ref.tobytes(), shape
        # both leave the generator in the same state
        assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes(), shape


def test_qpsk_symbols_index_the_constellation_by_integers():
    for shape in [(1000,), (3, 1000), (4, 4, 2500)]:
        a = _generator(np.random.SeedSequence(9))
        b = _generator(np.random.SeedSequence(9))
        d = qpsk_symbols(a, shape)
        ref = montecarlo._QPSK[b.integers(0, 4, size=shape)]
        assert d.shape == shape and d.tobytes() == ref.tobytes(), shape
        assert np.all(np.abs(np.abs(d) - 1.0) <= 1e-15)
        # both leave the generator in the same state
        assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes(), shape


@pytest.mark.parametrize("n", [2, 4, 8])
def test_bf_without_interference_is_rho_times_top_singular_value_squared(n):
    # each chunk draws H0 first from its spawned stream; without
    # interferers each sample is rho * sigma_max(H0)^2
    cfg = ScenarioConfig(
        n_r=n, n_t=n, noise_power=1.0, snr_db=10.0, own_mode=OwnMode.BEAMFORMING
    )
    seed, draws = 17, 2_000
    dist = simulate_bf_sinr(cfg, draws, seed=seed)

    def chunk(size, rng):
        h0 = complex_normal(rng, (n, n, size))
        return np.linalg.svd(np.moveaxis(h0, -1, 0), compute_uv=False)[:, 0] ** 2

    expected = own_numerator_scale(cfg) * serial_chunks(chunk, draws, seed, chunk_draws(n, n))
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


@pytest.mark.parametrize("n_r", range(1, 9))
def test_a_full_rank_frame_and_layer_symbols_leave_the_leakage_unchanged(n_r):
    # the kernels draw neither: a full-rank precoder leaks ||g||^2 at the
    # BF receiver and ||H0^H H||_F^2 at the OSTBC one, over n_L, and a
    # precoded layer leaks |g v|^2 whatever its unit-modulus symbol
    draws = 500
    for n_t in range(1, 9):
        rng = _generator(np.random.SeedSequence([n_r, n_t]))
        h0, h = complex_normal(rng, (n_r, n_t, draws)), complex_normal(rng, (n_r, n_t, draws))
        side = _generator(np.random.SeedSequence([n_r, n_t, 1]))
        v = haar_columns(side, draws, n_t, n_t)
        d = qpsk_symbols(side, (n_t, draws))
        _, w = _top_eigpair(_gram(h0))
        g = np.einsum("rb,rtb->tb", np.einsum("rtb,tb->rb", h0, w).conj(), h)
        layers = np.abs(np.einsum("tb,tlb->lb", g, v)) ** 2
        with_symbols = np.abs(np.einsum("tb,tlb->lb", g, v * d)) ** 2
        assert np.max(np.abs(with_symbols / layers - 1.0)) <= 1e-12, n_t
        free = np.sum(np.abs(g) ** 2, axis=0)
        assert np.max(np.abs(with_symbols.sum(axis=0) / free - 1.0)) <= 1e-12, n_t
        h0_h = h0.conj()
        framed = np.einsum("rmb,rlb->mlb", h0_h, np.einsum("rtb,tlb->rlb", h, v * d))
        free = np.einsum("rmb,rtb->mtb", h0_h, h)
        assert np.max(np.abs(np.sum(np.abs(framed) ** 2, axis=(0, 1))
                             / np.sum(np.abs(free) ** 2, axis=(0, 1)) - 1.0)) <= 1e-12, n_t


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
    # both on the same generator state; they must draw the same values.  The
    # kernel draws into buffers that an earlier, larger chunk left full of
    # other values, as a worker's second chunk does
    buffers = DrawBuffers()
    kernel(draws + 500, _generator(np.random.SeedSequence(30)), buffers)
    seed = np.random.SeedSequence(29)
    a, b = _generator(seed), _generator(seed)
    got, ref = kernel(draws, a, buffers), reference(draws, b)
    assert got.shape == ref.shape == (draws,)
    err = np.abs(got - ref)
    assert np.all((err <= 1e-12 * np.abs(ref)) | (err <= 1e-15)), float(np.max(err / ref))
    assert a.standard_normal(4).tobytes() == b.standard_normal(4).tobytes()


@pytest.mark.parametrize("n_r,n_t", _SIZES)
def test_bf_kernel_matches_the_batch_first_reference(n_r, n_t):
    cfg = _every_interferer_kind(n_r, n_t, OwnMode.BEAMFORMING)
    _assert_same_samples_and_stream(
        lambda n, rng, buffers: montecarlo._simulate_bf_chunk(cfg, n, rng, buffers),
        lambda n, rng: bf_chunk_batch_first(cfg, n, rng))


# each size named by the path the kernel takes there: Alamouti at n_t = 2
@pytest.mark.parametrize("n_r,n_t", _SIZES, ids=[
    f"{n_r}-{n_t}-{'alamouti' if n_t == 2 else 'component'}" for n_r, n_t in _SIZES])
def test_ostbc_kernel_matches_the_batch_first_reference(n_r, n_t):
    cfg = _every_interferer_kind(n_r, n_t, OwnMode.OSTBC)
    _assert_same_samples_and_stream(
        lambda n, rng, buffers: montecarlo._simulate_ostbc_chunk(cfg, n, rng, buffers),
        lambda n, rng: ostbc_chunk_batch_first(cfg, n, rng))


@pytest.mark.parametrize("n_r,n_t", _SIZES)
def test_exact_terms_kernel_matches_the_batch_first_reference(n_r, n_t):
    for n_l in range(1, n_t + 1):
        _assert_same_samples_and_stream(
            lambda n, rng, buffers: approx._exact_terms_chunk(n_r, n_t, n_l, n, rng, buffers),
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


# dB edges whose linear value maps back onto the edge in double, so that a
# sample exactly on an edge falls in the same bin in either scale
_ROUND_TRIP_EDGES = np.array([-20.0, -10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0, 20.0])


def test_one_sort_ecdf_and_histogram_match_the_log_forms():
    linear_edges = 10.0 ** (_ROUND_TRIP_EDGES / 10.0)
    assert np.array_equal(10.0 * np.log10(linear_edges), _ROUND_TRIP_EDGES)
    rng = np.random.default_rng(5)
    samples = np.concatenate([
        rng.exponential(2.0, 20_000),
        np.zeros(37),  # no dB value: counted in no bin, but in the sample count
        np.repeat(linear_edges, 3),  # every edge, the top one (a closed bin) too
        [1e3, 1e-5],  # above and below every bin
    ])
    rng.shuffle(samples)
    dist = EmpiricalDistribution(samples=samples)
    positive = samples[samples > 0]
    counts, _ = np.histogram(10.0 * np.log10(positive), bins=_ROUND_TRIP_EDGES)
    expect = counts / (samples.size * np.diff(_ROUND_TRIP_EDGES))
    assert dist.histogram_db(_ROUND_TRIP_EDGES).tobytes() == expect.tobytes()
    # bins of unequal width, on edges that do not round trip
    edges = np.sort(rng.uniform(-25.0, 15.0, 40))
    counts, _ = np.histogram(10.0 * np.log10(positive), bins=edges)
    expect = counts / (samples.size * np.diff(edges))
    assert dist.histogram_db(edges).tobytes() == expect.tobytes()
    grid = np.concatenate([[0.0, -1.0], linear_edges, rng.exponential(2.0, 50)])
    expect = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
    assert dist.ecdf(grid).tobytes() == expect.tobytes()
    # the raw samples keep their draw order
    assert np.array_equal(dist.samples, samples)


_B = montecarlo.CHUNK_ENTRIES


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 3 * _B + 17])
def test_block_counts_are_the_counts_of_the_sorted_samples(n):
    # sizes around the block length: one partial block, one full block, a
    # full one and a one-sample tail, several and a short tail
    linear_edges = 10.0 ** (_ROUND_TRIP_EDGES / 10.0)
    rng = np.random.default_rng(n)
    grid = np.concatenate([linear_edges, rng.exponential(2.0, 30)])
    special = np.concatenate([
        [0.0, -0.0, -1.0, 1e3, 1e-5],  # on 0 and outside every edge
        np.repeat(linear_edges, 2),  # tied to an edge and a grid point
        np.repeat(grid[-30:], 2),  # tied to a grid point only
    ])
    samples = np.concatenate([special, rng.exponential(2.0, n)])[:n]
    rng.shuffle(samples)
    before = samples.tobytes()
    dist = EmpiricalDistribution(samples=samples)
    ordered = np.sort(samples)
    queries = np.concatenate([[0.0, -0.0, -2.0, 1e4], grid])
    expect = np.searchsorted(ordered, queries, side="right") / n
    assert dist.ecdf(queries).tobytes() == expect.tobytes()
    rough = np.sort(rng.uniform(-60.0, 40.0, 25))  # edges beyond every sample too
    for edges_db in (_ROUND_TRIP_EDGES, rough):
        edges = 10.0 ** (edges_db / 10.0)
        below = np.searchsorted(ordered, edges, side="left")
        below[-1] = np.searchsorted(ordered, edges[-1], side="right")
        counts = np.diff(np.maximum(below, np.searchsorted(ordered, 0.0, side="right")))
        expect = counts / (n * np.diff(edges_db))
        assert dist.histogram_db(edges_db).tobytes() == expect.tobytes()
    assert dist.samples is samples and samples.tobytes() == before


@pytest.mark.parametrize("samples", [
    np.array([]),
    [0.5, 1.0],
    np.ones((2, 3)),
    np.array([0.5, np.nan, 1.0]),
    np.array([0.5, np.inf]),
    np.array([-np.inf, 0.5]),
    np.array([0.5 + 1j]),
    np.array([True, False]),
], ids=["empty", "list", "2-d", "nan", "inf", "-inf", "complex", "bool"])
def test_samples_must_be_a_nonempty_1d_array_of_finite_reals(samples):
    with pytest.raises(ConfigError, match="samples"):
        EmpiricalDistribution(samples=samples)


@pytest.mark.parametrize("query", ["ecdf", "histogram_db"])
def test_a_query_holds_no_copy_of_the_samples(query):
    # a sorted copy of 1e6 samples alone takes 7.6 MiB
    samples = np.random.default_rng(11).exponential(2.0, 1_000_000)
    dist = EmpiricalDistribution(samples=samples)
    grid_db = np.arange(-5.0, 20.25, 0.5)
    points = 10.0 ** (grid_db / 10.0) if query == "ecdf" else np.append(grid_db - 0.25, 20.25)
    tracemalloc.start()
    try:
        getattr(dist, query)(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("n_r", range(1, 9))
def test_every_antenna_pair_gets_a_chunk_within_the_budget(n_r, monkeypatch):
    seen = []

    def spy(simulate, n_samples, seed, chunk, take):
        seen.append(chunk)
        return run_chunks(simulate, n_samples, seed, chunk, take)

    monkeypatch.setattr(montecarlo, "run_chunks", spy)
    monkeypatch.setattr(approx, "run_chunks", spy)
    for n_t in range(1, 9):
        chunk = chunk_draws(n_r, n_t)
        # the most draws whose n_r x n_t channels and n_t x n_t Gram
        # matrices each fit the budget
        largest = max(n_r * n_t, n_t * n_t)
        assert chunk * largest <= montecarlo.CHUNK_ENTRIES < (chunk + 1) * largest
        seen.clear()
        for mode, simulate in ((OwnMode.BEAMFORMING, simulate_bf_sinr),
                               (OwnMode.OSTBC, simulate_ostbc_sinr)):
            cfg = ScenarioConfig(n_r=n_r, n_t=n_t, noise_power=1.0, snr_db=10.0,
                                 own_mode=mode, interferers=REF_BF.interferers[:2])
            assert simulate(cfg, 3, seed=0).sample_count == 3
        assert simulate_exact_terms(n_r, n_t, 1, 3, 0).shape == (3,)
        assert seen == [chunk] * 3, (n_r, n_t)


def test_chunking_covers_all_samples():
    assert list(montecarlo._chunk_sizes(123_457, 50_000)) == [50_000, 50_000, 23_457]
    chunk = chunk_draws(REF_BF.n_r, REF_BF.n_t)
    assert list(montecarlo._chunk_sizes(123_457, chunk)) == [chunk] * 15 + [123_457 - 15 * chunk]
    dist = simulate_bf_sinr(REF_BF, 123_457, seed=1)
    assert dist.sample_count == 123_457


REF_OSTBC_2X4 = dataclasses.replace(REF_OSTBC, n_t=4)
# the CLI's default grid, -5..20 dB in 0.5 dB steps, and its per-dB bins
_GRID_DB = np.arange(-5.0, 20.25, 0.5)
_GRID, _EDGES_DB = 10.0 ** (_GRID_DB / 10.0), np.append(_GRID_DB - 0.25, 20.25)


def _kernel(simulate, cfg):
    # one chunk of the library's kernel, on buffers of its own
    return lambda n, rng: simulate(cfg, n, rng, DrawBuffers())


def _counted(cfg):
    return lambda n, seed: np.concatenate(count_sinr(cfg, n, seed, _GRID, _EDGES_DB))


def _counts_of(samples):
    dist = EmpiricalDistribution(samples=samples)
    return np.concatenate([dist.ecdf(_GRID), dist.histogram_db(_EDGES_DB)])


def _chain(n, seed):
    rep = approx.compare_chain(2, 4, 2, n_samples=n, seed=seed)
    return rep.exact_density, np.array([rep.mean_exact, rep.se_exact])


def _chain_of(samples):
    # the chain's bins and its moments, these only to round-off
    grid = np.linspace(0.0, 3.0, 300)
    density = (np.diff(np.searchsorted(np.sort(samples), grid, side="left"))
               / (samples.size * np.diff(grid)))
    return (np.append(density, density[-1]),
            np.array([np.mean(samples), np.std(samples) / math.sqrt(samples.size)]))


def _exactly(run):
    return lambda n, seed: (run(n, seed), np.empty(0))


# name: (antenna pair, run(n, seed), one chunk's kernel(n, rng), and the
# (bytes, round-off) parts of the run's result, from the serial samples)
_RUNNERS = {
    "bf": ((REF_BF.n_r, REF_BF.n_t),
           _exactly(lambda n, seed: simulate_bf_sinr(REF_BF, n, seed).samples),
           _kernel(montecarlo._simulate_bf_chunk, REF_BF),
           lambda samples: (samples, np.empty(0))),
    "ostbc-alamouti": (
        (REF_OSTBC.n_r, REF_OSTBC.n_t),
        _exactly(lambda n, seed: simulate_ostbc_sinr(REF_OSTBC, n, seed).samples),
        _kernel(montecarlo._simulate_ostbc_chunk, REF_OSTBC),
        lambda samples: (samples, np.empty(0))),
    # the component path, which the library takes at n_t != 2
    "ostbc-component": (
        (REF_OSTBC_2X4.n_r, REF_OSTBC_2X4.n_t),
        _exactly(lambda n, seed: simulate_ostbc_sinr(REF_OSTBC_2X4, n, seed).samples),
        _kernel(montecarlo._simulate_ostbc_chunk, REF_OSTBC_2X4),
        lambda samples: (samples, np.empty(0))),
    "exact-terms": (
        (2, 4),
        _exactly(lambda n, seed: simulate_exact_terms(2, 4, 2, n, seed)),
        lambda n, rng: approx._exact_terms_chunk(2, 4, 2, n, rng, DrawBuffers()),
        lambda samples: (samples, np.empty(0))),
    # the counting path: the ECDF and the per-dB histogram, counted chunk by chunk
    "bf-counted": (
        (REF_BF.n_r, REF_BF.n_t),
        _exactly(_counted(REF_BF)),
        _kernel(montecarlo._simulate_bf_chunk, REF_BF),
        lambda samples: (_counts_of(samples), np.empty(0))),
    "ostbc-component-counted": (
        (REF_OSTBC_2X4.n_r, REF_OSTBC_2X4.n_t),
        _exactly(_counted(REF_OSTBC_2X4)),
        _kernel(montecarlo._simulate_ostbc_chunk, REF_OSTBC_2X4),
        lambda samples: (_counts_of(samples), np.empty(0))),
    "compare-chain": (
        (2, 4),
        _chain,
        lambda n, rng: approx._exact_terms_chunk(2, 4, 2, n, rng, DrawBuffers()),
        _chain_of),
}


@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_results_do_not_depend_on_the_worker_count(name, monkeypatch):
    # reference: the chunks of the library's layout one after another in
    # this thread, chunk i on the i-th spawned stream.  A run's bytes are
    # those of the reference, but the chain's moments, which it sums chunk
    # by chunk, match the reference's to round-off and each other's bytes
    dims, run, chunk, expect = _RUNNERS[name]
    size = chunk_draws(*dims)
    n, seed = 3 * size + 357, 23  # three full chunks and a remainder
    assert list(montecarlo._chunk_sizes(n, size)) == [size] * 3 + [357]
    exact, rounded = expect(serial_chunks(chunk, n, seed, size))
    first = run(n, seed)
    assert first[0].tobytes() == exact.tobytes()
    assert np.allclose(first[1], rounded, rtol=1e-13, atol=0.0)
    for workers in (1, 3):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        again = run(n, seed)
        assert again[0].tobytes() == exact.tobytes()
        assert again[1].tobytes() == first[1].tobytes()


@pytest.mark.parametrize("simulate,cfg", [
    (simulate_bf_sinr, REF_BF),
    # the Alamouti path draws no symbols, the component path (n_t = 4) does
    (simulate_ostbc_sinr, dataclasses.replace(REF_OSTBC, n_t=4)),
    (count_sinr, REF_BF),
    (count_sinr, dataclasses.replace(REF_OSTBC, n_t=4)),
])
def test_an_error_inside_a_chunk_reaches_the_caller(simulate, cfg, monkeypatch):
    def fail(rng, shape):
        raise RuntimeError("symbol draw failed")

    # a budget of 64 entries: chunks of 16 draws at 2x2 and 8 at 2x4
    monkeypatch.setattr(montecarlo, "CHUNK_ENTRIES", 64)
    monkeypatch.setattr(montecarlo, "qpsk_symbols", fail)
    with pytest.raises(RuntimeError, match="symbol draw failed"):
        simulate(cfg, 3_357, 0)


# n = 1, one short of a chunk, one chunk, one past it, three and a tail
_AROUND_A_CHUNK = {"1": lambda c: 1, "chunk-1": lambda c: c - 1, "chunk": lambda c: c,
                   "chunk+1": lambda c: c + 1, "3chunk+17": lambda c: 3 * c + 17}


@pytest.mark.parametrize("count", sorted(_AROUND_A_CHUNK))
@pytest.mark.parametrize("n_r", [2, 4])
@pytest.mark.parametrize("simulate", [simulate_bf_sinr, simulate_ostbc_sinr])
def test_streamed_counts_are_the_counts_of_the_sorted_samples(simulate, n_r, count):
    mode = OwnMode.BEAMFORMING if simulate is simulate_bf_sinr else OwnMode.OSTBC
    cfg = dataclasses.replace(REF_BF, n_r=n_r, n_t=n_r, own_mode=mode)
    n, seed = _AROUND_A_CHUNK[count](chunk_draws(n_r, n_r)), 5
    ordered = np.sort(simulate(cfg, n, seed).samples)
    # dB edges past every sample too
    edges_db = np.concatenate([[-80.0], _EDGES_DB, [90.0]])
    ecdf, density = count_sinr(cfg, n, seed, grid=_GRID, edges_db=edges_db)
    assert ecdf.tobytes() == (np.searchsorted(ordered, _GRID, side="right") / n).tobytes()
    edges = 10.0 ** (edges_db / 10.0)
    below = np.searchsorted(ordered, edges, side="left")
    below[-1] = np.searchsorted(ordered, edges[-1], side="right")
    counts = np.diff(np.maximum(below, np.searchsorted(ordered, 0.0, side="right")))
    assert density.tobytes() == (counts / (n * np.diff(edges_db))).tobytes()
    # either query alone counts the same
    alone, no_density = count_sinr(cfg, n, seed, grid=_GRID)
    assert alone.tobytes() == ecdf.tobytes() and no_density is None
    no_ecdf, alone = count_sinr(cfg, n, seed, edges_db=edges_db)
    assert alone.tobytes() == density.tobytes() and no_ecdf is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_sample_is_refused_as_it_is_counted(bad, monkeypatch):
    def kernel(cfg, n, rng, buffers):
        samples = rng.exponential(size=n)
        samples[n // 2] = bad
        return samples

    monkeypatch.setattr(montecarlo, "_simulate_bf_chunk", kernel)
    with pytest.raises(ConfigError) as err:
        count_sinr(REF_BF, 20_000, 0, grid=_GRID)
    assert str(err.value) == "samples must be a nonempty 1-d array of finite real numbers"


@pytest.mark.parametrize("simulate,cfg", [
    (simulate_bf_sinr, REF_BF),
    (simulate_ostbc_sinr, REF_OSTBC),
    (simulate_ostbc_sinr, dataclasses.replace(REF_OSTBC, n_t=4)),
], ids=["bf", "ostbc-alamouti", "ostbc-component"])
def test_draws_do_not_depend_on_noise_power(simulate, cfg):
    # the kernels read the SNR and INRs as ratios; noise_power scales nothing
    runs = [simulate(dataclasses.replace(cfg, noise_power=sigma2), 20_000, seed=3).samples
            for sigma2 in (1.0, 1e-3, 7.25)]
    assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()
