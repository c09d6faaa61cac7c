"""Simulation layer: increment statistics, scheme exactness, oracles."""

import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from kolmonet import bounds, build, nets, problems, sde


# The sampler's oracles: the allocating computations whose bits the in-place sampler reproduces.


def _normals(gen, shape):
    """Normals of ``Generator.integers(0, 2**53)`` through the midpoint uniform."""
    return ndtri((gen.integers(0, 2**53, size=shape).astype(np.float64) + 0.5) * sde._U53)


def _mulhilo(a, b):
    """High and low 64-bit halves of the 128-bit products a * b, via 32-bit limbs."""
    a_lo, a_hi = a & sde._LO32, a >> np.uint64(32)
    b_lo, b_hi = b & sde._LO32, b >> 32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> 32) + (lh & sde._LO32) + (hl & sde._LO32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), a * b


def _philox_words(seed, key1, blocks):
    """Words of blocks 1..``blocks`` of the streams keyed (seed, key1[i]): shape (rows, 4 * blocks)."""
    c0 = np.arange(1, blocks + 1, dtype=np.uint64) + np.zeros_like(key1)
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = seed & sde._MASK64, key1
    for r in range(sde._PHILOX_ROUNDS):
        if r:
            k0 = (k0 + sde._PHILOX_W[0]) & sde._MASK64
            k1 = k1 + np.uint64(sde._PHILOX_W[1])
        # one round, as numpy's Philox: two 64x64->128 products, then the lane shuffle
        hi0, lo0 = _mulhilo(sde._PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(sde._PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(key1), 4 * blocks)


def _philox_normals(seed, tag, index, n):
    """First n normals of the streams keyed (seed, tag << 48 | index[i]), shape (len(index), n),
    through the sampler's in-place path; row i must equal ``_normals(sde._stream(seed, tag, index[i]), n)``."""
    index = np.asarray(index, dtype=np.uint64).reshape(-1)
    return sde._normals_into(np.empty((len(index), n)), seed, tag, index, sde._scratch(seed, tag, n, len(index)))


def test_increments_centered():
    grid = sde.sample_brownian(1, 1, 100_000, 1, 1.0)
    inc = grid.increments[:, 0, 0]
    se = inc.std(ddof=1) / math.sqrt(len(inc))
    assert abs(inc.mean()) <= 4 * se


def test_increment_covariance():
    B = np.array([[1.0, 0.5], [0.0, 2.0]])
    grid = sde.sample_brownian(2, 4, 100_000, 2, 1.0, B)
    inc = grid.increments[:, 2, :]
    emp = np.cov(inc.T)
    want = (1.0 / 4.0) * B @ B.T
    assert np.abs(emp - want).max() <= 0.05 * np.abs(want).max()


def test_same_seed_bit_identical():
    a = sde.sample_brownian(77, 3, 50, 2, 0.5)
    b = sde.sample_brownian(77, 3, 50, 2, 0.5)
    assert np.array_equal(a.increments, b.increments)


def test_path_prefix_stable_when_m_grows():
    a = sde.sample_brownian(5, 4, 10, 3, 1.0)
    b = sde.sample_brownian(5, 4, 25, 3, 1.0)
    assert np.array_equal(a.increments, b.increments[:10])


def _per_path_increments(seed, N, M, T, B):
    # the per-path C generator, one stream per path: the reference for the vectorized sampler
    k = B.shape[1]
    return np.stack(
        [math.sqrt(T / N) * (_normals(sde._stream(seed, 1, m), (N, k)) @ B.T) for m in range(M)]
    )


SEEDS = (0, 2**63 + 5, -1)


@pytest.mark.parametrize(
    "N, M, B",
    [
        (3, 7300, np.eye(3)),  # N*k = 9: not a multiple of 4, and M crosses both chunk boundaries
        (5, 40, np.arange(6.0).reshape(3, 2) - 2.5),  # k != d, N*k = 10
        (7, 30, np.arange(6.0).reshape(2, 3) / 4),  # k != d, N*k = 21
        (511, 3, np.eye(1)),  # N*k = 511, the last vectorized length
        (256, 3, np.eye(2)),  # N*k = 512, the first per-path length
        (171, 3, np.eye(3)),  # N*k = 513
        (16, 1, np.eye(1)),  # M = 1
        (1, 50, np.eye(2)),  # N = 1
    ],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_brownian_matches_per_path_streams(seed, N, M, B):
    grid = sde.sample_brownian(seed, N, M, B.shape[0], 0.7, B)
    assert np.array_equal(grid.increments, _per_path_increments(seed, N, M, 0.7, B))


@pytest.mark.parametrize(
    "N, B",
    [
        (5, np.array([[1.0, 0.5], [0.0, 2.0]])),  # N*k = 10: the vectorized sampler
        (300, np.arange(6.0).reshape(2, 3) / 4),  # N*k = 900: the per-path generator
    ],
)
@pytest.mark.parametrize("first, M", [(0, 4), (1, 1), (3, 9), (11, 2)])
def test_sample_brownian_first_draws_rows_of_the_full_draw(monkeypatch, N, B, first, M):
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 4)  # several sampler chunks even for a few paths
    full = sde.sample_brownian(8, N, 13, B.shape[0], 0.6, B).increments
    part = sde.sample_brownian(8, N, M, B.shape[0], 0.6, B, first=first).increments
    assert np.array_equal(part, full[first : first + M])


def test_sample_brownian_rejects_a_negative_first_path():
    with pytest.raises(ValueError):
        sde.sample_brownian(8, 4, 2, 1, 1.0, first=-1)


def test_path_indices_stop_below_the_purpose_tag():
    # the key is tag << 48 | m, so path 2^48 would draw path 0 of the next tag
    last = sde.sample_brownian(0, 4, 1, 1, 1.0, first=2**48 - 1).increments
    assert np.array_equal(last, 0.5 * _normals(sde._stream(0, 1, 2**48 - 1), (1, 4, 1)))
    for first, M in ((2**48 - 1, 2), (2**48, 1)):
        with pytest.raises(ValueError, match="2\\^48"):
            sde.sample_brownian(0, 4, M, 1, 1.0, first=first)
    for n in (4, 512):
        with pytest.raises(ValueError, match="2\\^48"):
            _philox_normals(0, 1, [3, 2**48], n)


PADDED = [(512, 1), (171, 3), (4096, 1), (1366, 3)]  # N*d = 512, 513, 4096, 4098


@pytest.mark.parametrize("N, d", PADDED + [(511, 1), (170, 3), (16, 2)])
def test_long_paths_have_a_padded_row_stride(N, d):
    inc = sde.sample_brownian(6, N, 5, d, 1.0).increments
    assert inc.shape == (5, N, d) and not inc.flags.writeable
    if N * d >= 512:
        assert inc.strides == (8 * (N * d + 8), 8 * d, 8)
        assert inc.strides[0] % 4096 != 0
    else:
        assert inc.flags.c_contiguous
    assert inc.tobytes() == np.ascontiguousarray(inc).tobytes()


@pytest.mark.parametrize("N, d", PADDED + [(511, 1), (16, 2)])
def test_path_rows_in_a_buffer_are_views_laid_out_as_fresh_ones(N, d):
    fresh = sde._path_rows(5, N, d)
    buffer = np.empty(5 * sde._row_values(N, d) + 3)
    view = sde._path_rows(5, N, d, buffer)
    assert view.shape == fresh.shape == (5, N, d) and view.strides == fresh.strides
    assert view.base is buffer and np.shares_memory(view, buffer[: 5 * sde._row_values(N, d)])
    assert not np.shares_memory(view, buffer[5 * sde._row_values(N, d) :])


def _rows_of(buffer, M, N, d, padded):
    # an (M, N, d) view of the leading values of buffer, rows padded by 8 values or contiguous
    stride = N * d + (8 if padded else 0)
    return buffer[: M * stride].reshape(M, stride)[:, : N * d].reshape(M, N, d)


@pytest.mark.parametrize(
    "N, B",
    [
        (7, np.array([[1.3]])),  # 7 normals per path: the vectorized streams
        (600, np.array([[-1.3]])),  # 600: the per-path generator
        (5, np.arange(9.0).reshape(3, 3) / 4 - 1),  # d = 3, 15 normals
        (200, np.array([[1.0], [-0.5], [2.0]])),  # d = 3, k = 1, 200 normals, 600 values
    ],
)
@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("first", [0, 5])
def test_sample_brownian_into_out_gives_the_allocating_bits(monkeypatch, N, B, padded, first):
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 16)  # several sampler chunks of the 9 paths
    M, d = 9, B.shape[0]
    want = sde.sample_brownian(4, N, M, d, 0.8, B, first=first)
    buffer = np.full(M * (N * d + 8) + 3, np.nan)
    out = _rows_of(buffer, M, N, d, padded)
    got = sde.sample_brownian(4, N, M, d, 0.8, B, first=first, out=out)
    assert got.increments.tobytes() == want.increments.tobytes()
    assert np.shares_memory(got.increments, out) and not got.increments.flags.writeable and out.flags.writeable
    # nothing outside out is written
    out[...] = np.nan
    assert np.isnan(buffer).all()


def test_sample_brownian_rejects_a_bad_out_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew into a bad out")

    monkeypatch.setattr(sde, "_fill_increments", no_draw)
    read_only = np.empty((4, 3, 2))
    read_only.flags.writeable = False
    for out in (np.empty((4, 3, 1)), np.empty((3, 3, 2)), np.empty((4, 6)), np.empty((4, 3, 2), np.float32),
                read_only, np.empty((4, 3, 2)).tolist()):
        with pytest.raises(ValueError, match="out must be a writable float64 array of shape \\(4, 3, 2\\)"):
            sde.sample_brownian(1, 3, 4, 2, 1.0, out=out)


@pytest.mark.parametrize("n", [16, 4096])
@pytest.mark.parametrize("b", [1.0, -1.3, math.sqrt(2.0)])
def test_one_by_one_diffusion_scales_with_the_matmul_bits(monkeypatch, n, b):
    # signed zeros, subnormals and normals in place of the streams' normals, in one chunk of 5 paths
    z = np.resize([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1.0, -0.7, 3.9, -8.2], (5, n))
    monkeypatch.setattr(sde, "_normals_into", lambda out, *args: np.copyto(out, z))
    B, scale = np.array([[b]]), math.sqrt(0.5 / n)
    (got,) = sde._fill_increments((np.empty((5, n, 1)),), 0, 1, np.arange(5, dtype=np.uint64), (B,), scale)
    want = np.matmul(z.reshape(5, n, 1), B.T) * scale
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[0, :2]).any()  # z = +-0.0: the matmul's sum starts at +0.0


@pytest.mark.parametrize("N, d", [(600, 1), (16, 1), (300, 2), (16, 2), (128, 5), (16, 5)])
def test_walk_norms_are_numpys_norms_bitwise(N, d):
    # padded rows (N d >= 512) and contiguous ones, and their contiguous copies
    inc = sde.sample_brownian(3, N, 7, d, 1.0).increments
    walk = np.zeros((7, N + 1, d))
    np.cumsum(inc, axis=-2, out=walk[:, 1:])
    want = np.linalg.norm(walk, axis=-1)
    for a in (inc, np.ascontiguousarray(inc)):
        assert sde.walk_norms(a).tobytes() == want.tobytes()
        assert sde.walk_norms(a[2]).tobytes() == want[2].tobytes()


@pytest.mark.parametrize("N, d", PADDED)
def test_padded_increments_give_the_bits_of_contiguous_ones(monkeypatch, N, d):
    pb = problems.ou_linear_problem(d).problem
    noise = sde.sample_brownian(9, N, 6, d, pb.T, sde.sqrtm_psd(2.0 * pb.A))
    padded = noise.increments
    dense = np.ascontiguousarray(padded)
    assert not padded.flags.c_contiguous and dense.flags.c_contiguous
    dense_noise = sde.BrownianGrid(
        seed=noise.seed, N=N, M=6, d=d, T=noise.T, increments=dense, diffusion=noise.diffusion
    )
    for factor in [f for f in (2, 3, 9, 64, N // 2) if N % f == 0]:
        assert np.array_equal(noise.coarsen(factor).increments, dense_noise.coarsen(factor).increments)
    assert np.array_equal(sde.walk_norms(padded), sde.walk_norms(dense))
    x = np.linspace(-1.0, 1.0, 6 * d).reshape(6, d)
    for a, b in zip(sde.euler_states(x, pb.drift_net, padded, pb.T), sde.euler_states(x, pb.drift_net, dense, pb.T)):
        assert np.array_equal(a, b)
    ts = np.array([0.0, 0.3 * pb.T, pb.T])
    xs = np.linspace(-0.5, 0.5, 3 * d).reshape(3, d)
    want = sde.mc_values(pb.init_net, pb.drift_net, dense, pb.T, ts, xs)
    assert np.array_equal(sde.mc_values(pb.init_net, pb.drift_net, padded, pb.T, ts, xs), want)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 1)  # one point per chunk: the Euler loop reads the padded rows
    assert np.array_equal(sde.mc_values(pb.init_net, pb.drift_net, padded, pb.T, ts, xs), want)
    # a network of all N steps is too large to build here; the first 8 steps keep the padded row stride
    short = padded[:2, :8]
    assert short.strides[0] == padded.strides[0]
    grid = np.arange(9) * (pb.T / 8)
    want = build.build_euler_net(pb.drift_net, np.ascontiguousarray(short), grid, 0.25)
    got = build.build_euler_net(pb.drift_net, short, grid, 0.25)
    assert len(got.layers) == len(want.layers)
    for a, b in zip(got.layers, want.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 511, 512, 513])
@pytest.mark.parametrize("seed", SEEDS)
def test_philox_normals_rows_match_streams(seed, n):
    index = [0, 9, 3, 2**48 - 1]
    z = _philox_normals(seed, 5, index, n)
    assert z.shape == (len(index), n)
    for row, m in zip(z, index):
        assert np.array_equal(row, _normals(sde._stream(seed, 5, m), n))


@pytest.mark.parametrize("n", [6, 600])
def test_philox_normals_independent_of_row_order_and_chunking(monkeypatch, n):
    index = np.arange(300)
    whole = _philox_normals(11, 1, index, n)
    perm = np.random.default_rng(0).permutation(index)
    assert np.array_equal(_philox_normals(11, 1, perm, n), whole[perm])
    parts = [_philox_normals(11, 1, part, n) for part in np.array_split(index, 7)]
    assert np.array_equal(np.vstack(parts), whole)
    # the sampler's chunks: 150 of 2 paths (n = 6) or 300 of 1 (n = 600); T = N scales by 1.0
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 5)
    assert np.array_equal(sde.sample_brownian(11, n, 300, 1, float(n)).increments.reshape(300, n), whole)


@pytest.fixture
def pool_size(monkeypatch):
    """Set the sampler's thread count."""
    return lambda size: monkeypatch.setattr(sde, "_workers", lambda: size)


@pytest.fixture
def pools(monkeypatch):
    """The thread counts of the pools the sampler makes, in order."""
    made = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, size, **kwargs):
            made.append(size)
            super().__init__(size, **kwargs)

    monkeypatch.setattr(sde, "ThreadPoolExecutor", Recording)
    return made


@pytest.fixture
def chunk_threads(monkeypatch):
    """The names of the threads that draw the sampler's chunks, in the order the chunks start."""
    names = []
    normals_into = sde._normals_into

    def record(*args):
        names.append(threading.current_thread().name)
        return normals_into(*args)

    monkeypatch.setattr(sde, "_normals_into", record)
    return names


def _sampler_threads():
    return [t for t in threading.enumerate() if t.name.startswith("kolmonet-sampler")]


@pytest.mark.parametrize(
    "N, B",
    [
        (5, np.array([[1.0, 0.5], [0.0, 2.0]])),  # N*k = 10 < 512, contiguous rows, 6 paths a chunk
        (200, np.array([[1.0], [-0.5], [2.0]])),  # N*k = 200 < 512, padded rows (N*d = 600)
        (256, np.array([[1.0, 0.5]])),  # N*k = 512, the per-path generator, contiguous rows
        (300, np.arange(6.0).reshape(2, 3) / 4),  # N*k = 900, padded rows
    ],
)
@pytest.mark.parametrize("size", [1, 2, 3])
def test_sample_brownian_bits_do_not_depend_on_the_thread_count(monkeypatch, pool_size, pools, size, N, B):
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 16)  # 5 to 23 chunks of the 23 paths
    first, M, d = 5, 23, B.shape[0]
    pool_size(1)
    serial = sde.sample_brownian(3, N, M, d, 0.8, B, first=first).increments
    assert pools == []
    pool_size(size)
    got = sde.sample_brownian(3, N, M, d, 0.8, B, first=first).increments
    assert pools == ([size] if size > 1 else [])
    assert got.strides == serial.strides and np.array_equal(got, serial)
    assert np.array_equal(got, _per_path_increments(3, N, first + M, 0.8, B)[first:])


@pytest.mark.parametrize("N", [3, 600])
def test_sampler_threads_beyond_the_cpus_keep_their_buffers_apart(monkeypatch, pool_size, N):
    # more threads than CPUs, switching every microsecond: a buffer two chunks shared would mix their paths,
    # and a product buffer two outputs of a chunk shared would mix their factors
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 8)
    pool_size(1)
    want = sde.sample_brownian(12, N, 200, 2, 1.0).increments
    Bs, index = (np.eye(2), np.array([[2.0, 0.0], [1.0, -1.0]])), np.arange(200, dtype=np.uint64)
    shared = sde._fill_increments([np.empty((200, N, 2)) for _ in Bs], 12, 1, index, Bs, np.sqrt(1.0 / N))
    pool_size(6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(sde.sample_brownian(12, N, 200, 2, 1.0).increments, want)
            outs = sde._fill_increments([np.empty((200, N, 2)) for _ in Bs], 12, 1, index, Bs, np.sqrt(1.0 / N))
            assert all(np.array_equal(out, w) for out, w in zip(outs, shared))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("M, N", [(16, 16), (3, 256)])  # short and long point streams
def test_point_path_increments_do_not_depend_on_the_thread_count(monkeypatch, pool_size, size, M, N):
    # the MC Euler functional study's draw: point i's M paths are one stream, scaled after B;
    # a second factor filled from the same draw has the oracle's bits of its own
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 64)
    pool_size(size)
    Bs = (np.array([[1.0, 0.5], [0.25, 2.0]]), np.array([[-0.5, 3.0], [1.5, 0.0]]))
    index = np.arange(9, 40, dtype=np.uint64)
    outs = tuple(np.empty((len(index), M, N, 2)) for _ in Bs)
    assert sde._fill_increments(outs, 4, 7, index, Bs, math.sqrt(0.5 / N)) is outs
    z = _philox_normals(4, 7, index, M * N * 2).reshape(len(index) * M, N, 2)
    for got, B in zip(outs, Bs):
        want = z @ B.T
        want *= math.sqrt(0.5 / N)
        assert np.array_equal(got, want.reshape(got.shape))


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("N", [16, 600])  # 16 d words a path: vectorized Philox; 600 d: the per-path generator
@pytest.mark.parametrize(
    "Bs", [(np.array([[math.sqrt(2.0)]]), np.eye(1)), (np.array([[1.0, 0.5], [0.0, 2.0]]), np.eye(2))]
)
def test_each_output_of_a_shared_draw_is_a_one_output_draw(monkeypatch, pool_size, size, N, Bs):
    # the moment study's draw: one set of normals, scaled by the heat and OU factors
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 64)  # several chunks of the 37 paths on both branches
    pool_size(size)
    M, d, index = 37, len(Bs[0]), np.arange(3, 40, dtype=np.uint64)
    buffer = np.full(len(Bs) * M * sde._row_values(N, d) + 5, np.nan)
    views = sde._path_rows(len(Bs) * M, N, d, buffer)
    outs = [views[i * M : (i + 1) * M] for i in range(len(Bs))]
    sde._fill_increments(outs, 11, 1, index, Bs, math.sqrt(0.7 / N))
    for out, B in zip(outs, Bs):
        (alone,) = sde._fill_increments((sde._path_rows(M, N, d),), 11, 1, index, (B,), math.sqrt(0.7 / N))
        assert out.tobytes() == alone.tobytes()
        assert out.tobytes() == sde.sample_brownian(11, N, M, d, 0.7, B, first=3).increments.tobytes()
    assert np.isnan(buffer[len(Bs) * M * sde._row_values(N, d) :]).all()


@pytest.mark.parametrize(
    "shapes, factors",
    [
        ([(4, 3, 2), (4, 3, 2)], [(2, 2), (2, 1)]),  # two column counts k
        ([(4, 3, 2), (5, 3, 2)], [(2, 2), (2, 2)]),  # two output shapes
        ([(4, 3, 2), (4, 3, 1)], [(2, 2), (1, 2)]),  # two dimensions d
        ([(4, 3, 2)], [(3, 2)]),  # a factor of 3 rows for d = 2
        ([(4, 3, 2), (4, 3, 2)], [(2, 2)]),  # an output without its factor
    ],
)
def test_a_shared_draw_of_mismatched_outputs_or_factors_raises_before_drawing(monkeypatch, pool_size, shapes, factors):
    def no_draw(*args):
        raise AssertionError("drew for mismatched outputs")

    monkeypatch.setattr(sde, "_normals_into", no_draw)
    monkeypatch.setattr(sde, "_scratch", no_draw)
    pool_size(2)
    outs = [np.empty(shape) for shape in shapes]
    with pytest.raises(ValueError, match="need outputs of one shape and d x k factors of one k"):
        sde._fill_increments(outs, 1, 1, np.arange(shapes[0][0], dtype=np.uint64), [np.ones(f) for f in factors], 1.0)


@pytest.mark.parametrize("n", [4, 600])
def test_a_path_index_error_of_a_later_chunk_reaches_the_caller(monkeypatch, pool_size, n):
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 1)  # one path per chunk: the error is raised in the fourth
    pool_size(2)
    with pytest.raises(ValueError, match="path index 281474976710656 reaches 2\\^48"):
        sde.sample_brownian(0, n, 6, 1, 1.0, first=2**48 - 3)
    assert _sampler_threads() == []


@pytest.mark.parametrize("n", [16, 600])
def test_no_sampler_thread_outlives_a_draw(monkeypatch, pool_size, chunk_threads, n):
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 4)  # 6 chunks of the 6 paths
    pool_size(2)
    sde.sample_brownian(1, n, 6, 1, 1.0)
    assert len(chunk_threads) == 6 and all(name.startswith("kolmonet-sampler") for name in chunk_threads)
    assert _sampler_threads() == []


def test_each_draw_makes_its_own_pool_sized_for_its_chunks(monkeypatch, pool_size, pools, chunk_threads):
    # 16 normals a path, 4 Philox blocks a chunk: one path per chunk
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 4)
    pool_size(8)
    sde.sample_brownian(5, 16, 2, 1, 1.0)
    assert pools == [2] and len(set(chunk_threads)) <= 2
    del chunk_threads[:]
    sde.sample_brownian(5, 16, 25, 1, 1.0)
    assert pools == [2, 8] and len(chunk_threads) == 25 and len(set(chunk_threads)) <= 8
    assert _sampler_threads() == []


def test_a_chunk_of_short_streams_is_one_philox_pass(monkeypatch, pool_size):
    # 10 normals a path: 3 blocks, so 5 paths (15 blocks) a chunk of at most 16 blocks, and 5 chunks of 23 paths
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 16)
    pool_size(1)  # the chunks in order
    passes = []
    philox_lanes = sde._philox_lanes

    def record(seed, key1, blocks, work):
        passes.append((len(key1), blocks, work.shape))
        return philox_lanes(seed, key1, blocks, work)

    monkeypatch.setattr(sde, "_philox_lanes", record)
    B = np.array([[1.0, 0.5], [0.0, 2.0]])
    got = sde.sample_brownian(3, 5, 23, 2, 0.8, B).increments
    assert passes == [(5, 3, (10, 15))] * 4 + [(3, 3, (10, 15))]
    assert np.array_equal(got, _per_path_increments(3, 5, 23, 0.8, B))


def test_a_one_chunk_draw_starts_no_thread(monkeypatch, pool_size):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(sde, "ThreadPoolExecutor", no_pool)
    pool_size(2)
    sde.sample_brownian(2026, 8, 64, 1, 1.0)  # the reference build's draw
    pool_size(1)
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 1)
    sde.sample_brownian(2026, 8, 64, 1, 1.0)  # 64 chunks, one thread


@pytest.mark.parametrize("rows, blocks", [(1, 1), (7, 3), (300, 4), (37, 128), (4096, 4)])
@pytest.mark.parametrize("seed", SEEDS)
def test_philox_lanes_equal_the_allocating_words(seed, rows, blocks):
    # tag 0xFFFF: the first key bump, inside the shortened round 1, wraps 2^64; 4,096 x 4 is a full pass
    for tag in (5, 0xFFFF):
        key1 = (np.uint64(tag << 48) | np.arange(2**48 - rows, 2**48, dtype=np.uint64))[:, None]
        work = np.full((11, rows * blocks + 5), 7, dtype=np.uint64)  # stale words and spare lanes
        lanes = sde._philox_lanes(seed, key1, blocks, work)
        got = np.stack(lanes, axis=-1).reshape(rows, 4 * blocks)
        assert np.array_equal(got, _philox_words(seed, key1, blocks))
        assert all(np.shares_memory(lane, work) for lane in lanes)
    assert 4096 * 4 == sde._CHUNK_BLOCKS


@pytest.mark.parametrize("value, cap", [(None, None), ("", None), ("1", 1), ("3", 3), ("02", 2)])
def test_sampler_threads_are_the_cpus_capped_by_kolmonet_threads(monkeypatch, value, cap):
    if value is None:
        monkeypatch.delenv("KOLMONET_THREADS", raising=False)
    else:
        monkeypatch.setenv("KOLMONET_THREADS", value)
    cpus = len(os.sched_getaffinity(0))
    assert sde._workers() == (min(cpus, cap) if cap else cpus)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", " 2"])
def test_kolmonet_threads_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("KOLMONET_THREADS", value)
    with pytest.raises(ValueError, match="KOLMONET_THREADS must be a positive integer"):
        sde._workers()


def _states(x, drift, increments, T):
    # all states of the Euler recursion, shape (M, N+1, d)
    return np.stack(list(sde.euler_states(x, drift, increments, T)), axis=1)


def test_euler_zero_drift_partial_sums():
    grid = sde.sample_brownian(3, 6, 20, 2, 2.0)
    states = _states(np.zeros(2), None, grid.increments, grid.T)
    assert np.array_equal(states[:, 1:], np.cumsum(grid.increments, axis=1))


def _stored_euler_grid(x, drift, increments, T):
    # independent reference: every step written into one grid, its drift read off a strided column
    mu = sde._as_fn(drift)
    M, N, d = increments.shape
    y = np.empty((M, N + 1, d))
    y[:, 0] = x
    for n in range(N):
        y[:, n + 1] = y[:, n] + (T / N) * np.asarray(mu(y[:, n])).reshape(M, d) + increments[:, n]
    return y


def _interpolated(y, T, t):
    # independent reference: Y_t read off a stored grid y of shape (M, N+1, d), one time per path
    # or one for all; grid times, and t = T, give the stored value bitwise
    M, N = len(y), y.shape[1] - 1
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (M,))
    n = np.minimum(np.floor(t * N / T).astype(np.intp), N - 1)
    lo, hi = y[np.arange(M), n], y[np.arange(M), n + 1]
    rho = (t * N / T - n)[:, None]
    grid = np.arange(N + 1) * (T / N)
    out = np.where((t == grid[n])[:, None], lo, (1.0 - rho) * lo + rho * hi)
    return np.where(((t == grid[n + 1]) | (t == T))[:, None], hi, out)


def _values(drift, increments, T, ts, xs):
    # Y_t of every point and path through mc_values, shape (K, M, d): one call per coordinate
    d = increments.shape[-1]
    return np.stack([sde.mc_values(lambda y, i=i: y[:, i], drift, increments, T, ts, xs) for i in range(d)], axis=-1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("network", [False, True])
def test_euler_states_equal_euler_grid_values(d, network):
    pb = problems.ou_linear_problem(d).problem
    drift = pb.drift_net if network else (lambda y: -y + 0.25 * y**2)
    noise = sde.sample_brownian(12, 9, 40, d, pb.T, sde.sqrtm_psd(2.0 * pb.A))
    x = np.linspace(-1.0, 1.0, 40 * d).reshape(40, d)
    grid = _stored_euler_grid(x, drift, noise.increments, pb.T)
    states = list(sde.euler_states(x, drift, noise.increments, pb.T))
    assert len(states) == 10 and all(y.shape == (40, d) for y in states)
    # every state is its own array: keeping some of them equals reading them off the grid
    assert np.array_equal(np.stack(states, axis=1), grid)
    *_, last = sde.euler_states(x[0], drift, noise.increments, pb.T)
    assert np.array_equal(last, _stored_euler_grid(x[0], drift, noise.increments, pb.T)[:, -1])


def test_walk_norms_are_the_norms_of_the_partial_sums():
    inc = sde.sample_brownian(4, 5, 3, 2, 1.0).increments
    norms = sde.walk_norms(inc)
    assert norms.shape == (3, 6)
    for m in range(3):
        assert np.array_equal(norms[m], sde.walk_norms(inc[m]))
        total = np.zeros(2)
        for n in range(6):
            assert norms[m, n] == pytest.approx(math.hypot(*total), rel=1e-15, abs=0.0)
            if n < 5:
                total = total + inc[m, n]
    assert sde.walk_norms(np.zeros((0, 1))).tolist() == [0.0]


def test_euler_single_explicit_step():
    *_, last = sde.euler_states(np.array([1.0]), lambda y: -y, np.zeros((1, 1, 1)), 1.0)
    assert last[0, 0] == 0.0


def test_euler_constant_drift_closed_form():
    c = 0.75
    grid = sde.sample_brownian(9, 8, 50, 1, 1.0)
    *_, last = sde.euler_states(np.array([0.3]), lambda y: np.full_like(y, c), grid.increments, grid.T)
    w_T = grid.increments.sum(axis=1)
    want = 0.3 + c * 1.0 + w_T[:, 0]
    assert np.abs(last[:, 0] - want).max() <= 1e-12


def test_interpolate_grid_points_bitwise():
    for N, T in [(5, 1.0), (7, 0.49)]:  # 7 (0.49 / 7) != 0.49, and 0.49 * 7 / 0.49 != 7
        grid = sde.sample_brownian(4, N, 30, 2, T)
        drift = lambda y: -0.5 * y
        states = _states(np.ones(2), drift, grid.increments, T)
        got = _values(drift, grid.increments, T, np.append(grid.grid, T), np.ones((N + 2, 2)))
        for n in range(N + 1):
            assert np.array_equal(got[n], states[:, n])
        assert np.array_equal(got[N + 1], states[:, N])


def test_interpolate_midpoint_mean():
    grid = sde.sample_brownian(6, 4, 10, 1, 1.0)
    states = _states(np.zeros(1), None, grid.increments, grid.T)
    t = (grid.grid[1] + grid.grid[2]) / 2
    want = 0.5 * (states[:, 1] + states[:, 2])
    assert np.allclose(_values(None, grid.increments, 1.0, [t], np.zeros((1, 1)))[0], want, rtol=0, atol=1e-15)


def test_interpolate_norm_convexity():
    grid = sde.sample_brownian(8, 4, 200, 3, 1.0)
    states = _states(np.full(3, 0.2), lambda y: -y, grid.increments, grid.T)
    ts = np.random.default_rng(0).uniform(0.0, 1.0, size=25)
    got = _values(lambda y: -y, grid.increments, 1.0, ts, np.full((25, 3), 0.2))
    for t, y_t in zip(ts, got):
        n = min(int(t * 4), 3)
        v = np.linalg.norm(y_t, axis=1)
        cap = np.maximum(np.linalg.norm(states[:, n], axis=1), np.linalg.norm(states[:, n + 1], axis=1))
        assert np.all(v <= cap * (1 + 1e-12))


def test_interpolate_rejects_outside_horizon():
    # the message names the first time outside [0, T], NaN included
    inc = sde.sample_brownian(1, 2, 1, 1, 1.0).increments
    for ts, first in [([1.5], "1.5"), ([0.5, -0.25, 2.0], "-0.25"), ([0.3, np.nan], "nan")]:
        with pytest.raises(ValueError, match=r"^time %s outside \[0, 1\]$" % first):
            sde.mc_values(None, None, inc, 1.0, ts, np.zeros((len(ts), 1)))


def test_interpolate_per_path_times_match_scalar_calls():
    # per-point times in one call give each point's value alone, and the stored grid's
    grid = sde.sample_brownian(4, 5, 30, 2, 1.0)
    drift = lambda y: -0.5 * y
    ts = np.random.default_rng(1).uniform(0.0, 1.0, 30)
    ts[:7] = np.append(grid.grid, 1.0)
    xs = np.ones((30, 2))
    got = _values(drift, grid.increments, 1.0, ts, xs)
    stored = _stored_euler_grid(np.ones(2), drift, grid.increments, 1.0)
    for i, t in enumerate(ts):
        assert np.array_equal(got[i], _values(drift, grid.increments, 1.0, ts[i : i + 1], xs[i : i + 1])[0])
        assert np.array_equal(got[i], _interpolated(stored, 1.0, t))
    # the oracle's per-path times: path m read at ts[m]
    per_path = _interpolated(stored, 1.0, ts)
    assert np.array_equal(per_path, got[np.arange(30), np.arange(30)])


def test_euler_grid_per_path_start_values():
    grid = sde.sample_brownian(2, 4, 6, 2, 1.0)
    xs = np.arange(12.0).reshape(6, 2) / 7
    states = _states(xs, lambda y: -y, grid.increments, grid.T)
    for m in range(6):
        assert np.array_equal(states[m], _states(xs[m], lambda y: -y, grid.increments, grid.T)[m])
    with pytest.raises(ValueError):
        next(sde.euler_states(xs[:5], None, grid.increments, grid.T))


def _per_point_values(f0, drift, increments, T, ts, xs):
    # the reference: one stored grid and one interpolation per point, on that point's paths
    out = []
    for i, (t, x) in enumerate(zip(ts, xs)):
        inc = increments if increments.ndim == 3 else increments[i]
        out.append(np.asarray(f0(_interpolated(_stored_euler_grid(x, drift, inc, T), T, t))).ravel())
    return np.array(out)


@pytest.mark.parametrize("name, d, N, M", [("heat_relu", 1, 8, 64), ("ou_linear", 2, 4, 16), ("ou_linear", 5, 3, 8)])
@pytest.mark.parametrize("per_point", [False, True])
def test_mc_values_bitwise_equal_to_per_point_loop(monkeypatch, name, d, N, M, per_point):
    tp = problems.get_problem(name, d)
    pb = tp.problem
    ts, xs = tp.measure.sample(40, 3)
    ts[: N + 2] = np.append(np.arange(N + 1) * (pb.T / N), pb.T)  # grid points and t = T
    B = sde.sqrtm_psd(2.0 * pb.A)
    if per_point:
        inc = np.stack([sde.sample_brownian(100 + i, N, M, d, pb.T, B).increments for i in range(40)])
    else:
        inc = sde.sample_brownian(100, N, M, d, pb.T, B).increments
    want = _per_point_values(lambda y: nets.realize(pb.init_net, y), pb.drift_net, inc, pb.T, ts, xs)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 7 * M * (N + 1) * d)  # chunks of 7 points
    got = sde.mc_values(pb.init_net, pb.drift_net, inc, pb.T, ts, xs)
    assert got.shape == (40, M)
    assert np.array_equal(got, want)
    assert np.array_equal(got.mean(1), np.array([w.mean() for w in want]))


def test_mc_values_keeps_two_states_per_path():
    # one point, 2,048 paths of 512 steps: the whole grid of states would be 8.4 MB
    inc = sde.sample_brownian(3, 512, 2048, 1, 1.0).increments
    tracemalloc.start()
    try:
        got = sde.mc_values(lambda y: y, None, inc, 1.0, [0.7], np.zeros((1, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.array_equal(got, _per_point_values(lambda y: y, None, inc, 1.0, [0.7], np.zeros((1, 1))))


def test_mc_values_rejects_mismatched_shapes():
    with pytest.raises(ValueError):  # per-point increments for 3 points, 2 points given
        sde.mc_values(None, None, np.zeros((3, 4, 2, 1)), 1.0, np.zeros(2), np.zeros((2, 1)))
    with pytest.raises(ValueError):  # d = 1 increments, d = 3 start values
        sde.mc_values(None, None, np.zeros((4, 2, 1)), 1.0, np.zeros(2), np.zeros((2, 3)))


def test_feynman_kac_pinned_outputs():
    # (estimate, std_error) as computed before feynman_kac ran through mc_values
    quad, ou5 = problems.quadratic_heat_problem(3).problem, problems.ou_linear_problem(5).problem
    cases = [
        (lambda y: np.maximum(y, 0.0).sum(axis=1), None, np.eye(2), 0.5, [1.0, -1.0], 16, 21,
         (1.1654416734340534, 0.019952308742969025)),
        (lambda y: y.sum(axis=1), lambda y: -y, 0.5 * np.eye(1), 1.0, [0.8], 7, 22,
         (0.28338780841517414, 0.014928376988881945)),
        (lambda y: y.sum(axis=1), lambda y: -y, 0.5 * np.eye(1), 0.49, [0.8], 7, 25,  # last node != t
         (0.46927838454395976, 0.012984650341902725)),
        (lambda y: nets.realize(quad.init_net, y).ravel(), quad.drift_net, quad.A, 0.7, [0.1, -0.2, 0.3], 5, 23,
         (4.359336907161063, 0.07992567759533108)),
        (lambda y: nets.realize(ou5.init_net, y).ravel(), ou5.drift_net, ou5.A, 0.3, [0.4] * 5, 3, 24,
         (1.4481503438164054, 0.02460109902417688)),
    ]
    for f0, drift, A, t, x, steps, seed, want in cases:
        assert sde.feynman_kac(f0, drift, A, t, np.array(x), 2000, steps, seed) == want


def test_feynman_kac_degenerate_exact():
    f0 = lambda y: (y**2).sum(axis=1)
    est, se = sde.feynman_kac(f0, None, np.zeros((2, 2)), 0.7, np.array([1.0, 2.0]), 100, 4, 0)
    assert est == pytest.approx(5.0, abs=1e-12)


def test_feynman_kac_heat_closed_form():
    f0 = lambda y: np.maximum(y, 0.0).sum(axis=1)
    t, x = 0.5, np.array([1.0, -1.0])
    est, se = sde.feynman_kac(f0, None, np.eye(2), t, x, 100_000, 16, 21)
    s = math.sqrt(2 * t)
    exact = sum(xi * ndtr(xi / s) + s * math.exp(-0.5 * (xi / s) ** 2) / math.sqrt(2 * math.pi) for xi in x)
    assert abs(est - exact) <= 4 * se


def test_feynman_kac_ou_mean():
    est, se = sde.feynman_kac(
        lambda y: y.sum(axis=1), lambda y: -y, 0.5 * np.eye(1), 1.0, np.array([0.8]), 100_000, 256, 22
    )
    assert abs(est - 0.8 * math.exp(-1.0)) <= 4 * se + 0.8 / 256


def test_feynman_kac_rejects_non_psd():
    with pytest.raises(ValueError):
        sde.feynman_kac(lambda y: y.sum(axis=1), None, np.array([[-1.0]]), 0.5, np.zeros(1), 10, 2, 0)


def test_sqrtm_psd_clamps_rounding_noise():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 2, 0
    r = sde.sqrtm_psd(a)
    assert np.allclose(r @ r, a, atol=1e-12)


def test_lp_error_identical_functions():
    m = sde.UniformSpaceTimeMeasure(1.0, -1.0, 1.0, 2)
    t, x = m.sample(1000, 0)
    v = np.sin(t) + x.sum(axis=1)
    assert sde.lp_distance(v, v, 2.0) == 0.0


def test_lp_error_constant_offset():
    m = sde.UniformSpaceTimeMeasure(2.0, 0.0, 1.0, 1)
    t, x = m.sample(500, 1)
    for p in (1.0, 2.0, 4.0):
        assert sde.lp_distance(np.zeros(len(t)), np.full(len(t), -0.37), p) == pytest.approx(0.37, rel=1e-12)


def test_lp_error_linear_in_time():
    m = sde.UniformSpaceTimeMeasure(1.0, -1.0, 1.0, 1)
    t, x = m.sample(400_000, 2)
    assert sde.lp_distance(t, 0 * t, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=3e-3)


def test_lp_error_rejects_bad_order():
    m = sde.UniformSpaceTimeMeasure(1.0, 0.0, 1.0, 1)
    t, x = m.sample(10, 0)
    with pytest.raises(ValueError):
        sde.lp_distance(t, t, 0.0)


def test_measure_mass_and_sampling_box():
    m = sde.UniformSpaceTimeMeasure(2.0, -1.0, 3.0, 2)
    assert m.mass == 2.0
    t, x = m.sample(1000, 5)
    assert t.min() >= 0 and t.max() <= 2.0
    assert x.min() >= -1.0 and x.max() <= 3.0
    t2, x2 = m.sample(1000, 5)
    assert np.array_equal(t, t2) and np.array_equal(x, x2)


def test_strong_interpolation_midpoint_small():
    # reduced-size version of the acceptance criterion
    from kolmonet.studies import strong_interp_study

    rows, ok = strong_interp_study(paths=20_000, seed=5)
    assert ok
    (N, paths, rms, se, target) = rows[0]
    assert target == bounds.interp_error_bound(2.0, 1.0 / 8, 1.0)
