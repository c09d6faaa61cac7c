"""Simulation layer: increment statistics, scheme exactness, oracles."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from kolmonet import bounds, nets, problems, sde


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
        [math.sqrt(T / N) * (sde._normals(sde._stream(seed, 1, m), (N, k)) @ B.T) for m in range(M)]
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 511, 512, 513])
@pytest.mark.parametrize("seed", SEEDS)
def test_philox_normals_rows_match_streams(seed, n):
    index = [0, 9, 3, 2**48 - 1]
    z = sde._philox_normals(seed, 5, index, n)
    assert z.shape == (len(index), n)
    for row, m in zip(z, index):
        assert np.array_equal(row, sde._normals(sde._stream(seed, 5, m), n))


@pytest.mark.parametrize("n", [6, 600])
def test_philox_normals_independent_of_row_order_and_chunking(monkeypatch, n):
    index = np.arange(300)
    whole = sde._philox_normals(11, 1, index, n)
    perm = np.random.default_rng(0).permutation(index)
    assert np.array_equal(sde._philox_normals(11, 1, perm, n), whole[perm])
    parts = [sde._philox_normals(11, 1, part, n) for part in np.array_split(index, 7)]
    assert np.array_equal(np.vstack(parts), whole)
    monkeypatch.setattr(sde, "_CHUNK_BLOCKS", 5)
    assert np.array_equal(sde._philox_normals(11, 1, index, n), whole)


def test_euler_zero_drift_partial_sums():
    grid = sde.sample_brownian(3, 6, 20, 2, 2.0)
    state = sde.euler_grid(np.zeros(2), None, grid)
    assert np.array_equal(state.grid_values[:, 1:], np.cumsum(grid.increments, axis=1))


def test_euler_single_explicit_step():
    grid = sde.BrownianGrid(
        seed=0, N=1, M=1, d=1, T=1.0, increments=np.zeros((1, 1, 1)), diffusion=np.eye(1)
    )
    state = sde.euler_grid(np.array([1.0]), lambda y: -y, grid)
    assert state.grid_values[0, 1, 0] == 0.0


def test_euler_constant_drift_closed_form():
    c = 0.75
    grid = sde.sample_brownian(9, 8, 50, 1, 1.0)
    state = sde.euler_grid(np.array([0.3]), lambda y: np.full_like(y, c), grid)
    w_T = grid.increments.sum(axis=1)
    want = 0.3 + c * 1.0 + w_T[:, 0]
    assert np.abs(state.grid_values[:, -1, 0] - want).max() <= 1e-12


def test_interpolate_grid_points_bitwise():
    for N, T in [(5, 1.0), (7, 0.49)]:  # 7 (0.49 / 7) != 0.49, and 0.49 * 7 / 0.49 != 7
        grid = sde.sample_brownian(4, N, 30, 2, T)
        state = sde.euler_grid(np.ones(2), lambda y: -0.5 * y, grid)
        for n in range(N + 1):
            assert np.array_equal(sde.interpolate(state, grid.grid[n]), state.grid_values[:, n])
        assert np.array_equal(sde.interpolate(state, T), state.grid_values[:, N])


def test_interpolate_midpoint_mean():
    grid = sde.sample_brownian(6, 4, 10, 1, 1.0)
    state = sde.euler_grid(np.zeros(1), None, grid)
    t = (grid.grid[1] + grid.grid[2]) / 2
    want = 0.5 * (state.grid_values[:, 1] + state.grid_values[:, 2])
    assert np.allclose(sde.interpolate(state, t), want, rtol=0, atol=1e-15)


def test_interpolate_norm_convexity():
    grid = sde.sample_brownian(8, 4, 200, 3, 1.0)
    state = sde.euler_grid(np.full(3, 0.2), lambda y: -y, grid)
    gen = np.random.default_rng(0)
    for t in gen.uniform(0.0, 1.0, size=25):
        n = min(int(t * 4), 3)
        v = np.linalg.norm(sde.interpolate(state, t), axis=1)
        cap = np.maximum(
            np.linalg.norm(state.grid_values[:, n], axis=1),
            np.linalg.norm(state.grid_values[:, n + 1], axis=1),
        )
        assert np.all(v <= cap * (1 + 1e-12))


def test_interpolate_rejects_outside_horizon():
    grid = sde.sample_brownian(1, 2, 1, 1, 1.0)
    state = sde.euler_grid(np.zeros(1), None, grid)
    with pytest.raises(ValueError):
        sde.interpolate(state, 1.5)


def test_interpolate_per_path_times_match_scalar_calls():
    grid = sde.sample_brownian(4, 5, 30, 2, 1.0)
    state = sde.euler_grid(np.ones(2), lambda y: -0.5 * y, grid)
    ts = np.random.default_rng(1).uniform(0.0, 1.0, 30)
    ts[:7] = np.append(grid.grid, 1.0)
    got = sde.interpolate(state, ts)
    for m, t in enumerate(ts):
        assert np.array_equal(got[m], sde.interpolate(state, t)[m])
    with pytest.raises(ValueError):
        sde.interpolate(state, np.append(ts[:-1], np.nan))


def test_euler_grid_per_path_start_values():
    grid = sde.sample_brownian(2, 4, 6, 2, 1.0)
    xs = np.arange(12.0).reshape(6, 2) / 7
    state = sde.euler_grid(xs, lambda y: -y, grid)
    for m in range(6):
        assert np.array_equal(state.grid_values[m], sde.euler_grid(xs[m], lambda y: -y, grid).grid_values[m])
    with pytest.raises(ValueError):
        sde.euler_grid(xs[:5], None, grid)


def _per_point_values(f0, drift, increments, T, ts, xs):
    # the reference: one euler_grid and one interpolate per point, on that point's paths
    out = []
    for i, (t, x) in enumerate(zip(ts, xs)):
        inc = increments if increments.ndim == 3 else increments[i]
        M, N, d = inc.shape
        noise = sde.BrownianGrid(seed=None, N=N, M=M, d=d, T=T, increments=inc, diffusion=None)
        out.append(np.asarray(f0(sde.interpolate(sde.euler_grid(x, drift, noise), t))).ravel())
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

    rows, ok = strong_interp_study(paths=20_000, N=8, seed=5)
    assert ok
    (N, paths, rms, se, target) = rows[0]
    assert target == bounds.interp_error_bound(2.0, 1.0 / 8, 1.0)
