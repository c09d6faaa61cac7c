"""The domination suite: every bound beats its matched empirical quantity."""

import dataclasses
import hashlib
import math
import weakref

import numpy as np
import pytest
from scipy.stats import linregress

from kolmonet import bounds, cli, nets, problems, sde, studies

def test_bounds_domination_suite(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["study", "bounds", "--seed", "505", "--out", str(out)])
    *rows, status = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert code == 0 and status == ["status pass"], [r for r in rows if float(r[3]) < float(r[4])]
    lines = out.read_text().splitlines()
    assert lines[0] == "bound_name,formula,inputs,value,empirical,slack"
    assert len(lines) == len(rows) + 1
    # slack column is value - empirical, nonnegative throughout, in the file and on stdout
    assert all(float(line.rsplit(",", 1)[1]) >= 0.0 for line in lines[1:])
    assert all(float(r[5]) == float(r[3]) - float(r[4]) >= 0.0 for r in rows)


def test_mc_euler_functional_errors_independent_of_chunk(monkeypatch):
    # each sample point draws its paths from its own stream, so chunking cannot change a draw
    tp = problems.heat_relu_problem(1)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 37 * 8 * 5)  # 37 points of 8 paths, 4 steps
    a = studies._mc_euler_functional_errors(tp, 4, 8, 300, seed=404)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 1 << 22)  # one chunk
    b = studies._mc_euler_functional_errors(tp, 4, 8, 300, seed=404)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("elements", [1, 4 * 512, 1 << 22])
def test_weak_error_study_independent_of_chunk(monkeypatch, elements):
    # one path per chunk; 16 and 4 paths per chunk, neither dividing 30; one chunk.
    # The 512-step grid draws through the per-path generator, the 128-step one vectorized.
    want = studies.weak_error_study(Ns=(2, 8), paths=30, seed=9)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", elements)
    assert studies.weak_error_study(Ns=(2, 8), paths=30, seed=9) == want


def test_weak_slope_is_linregress_bitwise():
    # on the study's own rows at the CLI's --paths 500, and on random sets of 2 to 10 points
    rows, slope, _ = studies.weak_error_study(paths=500, seed=0)
    x = [math.log(N) for N, *_ in rows]
    y = [math.log(est) for _, _, est, _, _ in rows]
    assert slope == linregress(x, y).slope
    gen = np.random.default_rng(17)
    for n in gen.integers(2, 11, size=500):
        x, y = gen.uniform(-5.0, 5.0, size=n), gen.normal(size=n)
        assert studies._slope(x, y) == linregress(x, y).slope


def _record_draws(monkeypatch, owner, name, written, arrays):
    """Wrap ``owner.name`` to keep weakrefs to the arrays of each draw.

    Returns two lists with one entry per draw: how many arrays of earlier
    draws were alive when it started, and the array that owns the memory
    it writes into (``written(*args, **kwargs)``, a view)."""
    draw, refs, alive, owners = getattr(owner, name), [], [], []

    def recorded(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        owners.append(written(*args, **kwargs).base)
        out = draw(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in arrays(out))
        return out

    monkeypatch.setattr(owner, name, recorded)
    return alive, owners


def test_weak_study_holds_one_chunk_at_a_time(monkeypatch):
    # every chunk of both grids is drawn into one buffer, and no earlier chunk's grid is alive
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 4 * 512)  # 2 and 8 chunks of 16 and 4 paths
    alive, owners = _record_draws(
        monkeypatch, sde, "sample_brownian", lambda *args, out, **kwargs: out, lambda grid: [grid, grid.increments]
    )
    studies.weak_error_study(Ns=(2, 8), paths=30, seed=9)
    assert len(alive) == 10 and alive == [0] * 10
    assert owners[0] is not None and all(o is owners[0] for o in owners)


def test_mc_euler_functional_holds_one_chunk_at_a_time(monkeypatch):
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 37 * 8 * 5)  # 9 chunks of 37 points, the last of 4
    alive, owners = _record_draws(monkeypatch, sde, "_fill_increments", lambda outs, *args: outs[0], list)
    studies._mc_euler_functional_errors(problems.heat_relu_problem(1), 4, 8, 300, seed=404)
    assert len(alive) == 9 and alive == [0] * 9
    assert owners[0] is not None and all(o is owners[0] for o in owners)


# 11,200 values per row: chunks of 700, 350 and 140 paths at d = 1, 2 and 5, so 3,000 paths end in a partial chunk
_SMALL_MOMENT_CHUNK = 16 * 700


def test_moment_study_draws_each_chunk_once_into_step_major_views_of_one_buffer(monkeypatch):
    # both rows of a chunk come from one draw into two step-major views of one buffer, within the
    # chunk's budget, the chunks cover the paths in order, and no earlier chunk's views are alive
    monkeypatch.setattr(studies, "_MOMENT_CHUNK_VALUES", _SMALL_MOMENT_CHUNK)
    draws = []

    def written(outs, seed, tag, index, *args):
        draws.append(([(o.shape, o.strides, o.base, o.__array_interface__["data"][0]) for o in outs], index.copy()))
        return outs[0]

    alive, owners = _record_draws(monkeypatch, sde, "_fill_increments", written, list)
    studies.moment_study(paths=3000, seed=202)
    assert len(alive) == 5 + 9 + 22 and alive == [0] * len(alive)
    assert owners[0] is not None and all(o is owners[0] for o in owners)
    covered = {}
    for (heat, ou), index in draws:
        (m, steps, d), strides, base, start = heat
        assert steps == 16 and m * steps * d <= _SMALL_MOMENT_CHUNK and base is owners[0]
        assert strides == (8 * d, 8 * 2 * m * d, 8)  # increments[:, n] is contiguous
        assert ou == ((m, steps, d), strides, base, start + 8 * m * d)
        covered.setdefault(d, []).append(index)
    assert all(np.array_equal(np.concatenate(covered[d]), np.arange(3000)) for d in studies.MOMENT_DIMS)


def _moment_row_oracle(name, d, q, paths, seed):
    """A row as the study computed it with a draw of its own and ``sde.walk_norms``."""
    pb = problems.get_problem(name, d).problem
    noise = sde.sample_brownian(seed + d, 16, paths, d, pb.T, pb.B)
    x0 = np.full(d, 0.5)
    states = sde.euler_states(x0, pb.drift_net, noise.increments, pb.T)
    norms = np.stack([np.linalg.norm(y, axis=1) for y in states], axis=1)
    powq = norms**q
    means = powq.mean(axis=0)
    n_star = int(np.argmax(means))
    emp = means[n_star] ** (1.0 / q)
    se = powq[:, n_star].std(ddof=1) / math.sqrt(paths)
    se_emp = se / (q * emp ** (q - 1.0)) if emp > 0 else se
    trace = float(np.trace(pb.B @ pb.B.T))
    C, c = pb.params.C, pb.params.c
    moment = bounds.gaussian_moment_bound(q, pb.T * trace)
    bound = bounds.apriori_sde_bound(float(np.linalg.norm(x0)), C, c, pb.T, moment)
    running_max = np.maximum.accumulate(sde.walk_norms(noise.increments), axis=1)
    envelope = bounds.drift_growth_envelope(np.linalg.norm(x0), C, c, noise.grid[None, :], running_max)
    violations = int((norms > envelope * (1 + 1e-12) + 1e-12).sum())
    return (name, d, q, emp, se_emp, bound, violations), emp <= bound + 3.0 * se_emp and violations == 0


@pytest.mark.parametrize("q, paths, seed", [(2.0, 3000, 202), (4.0, 3000, 7), (2.0, 20_000, 506)])
def test_moment_rows_of_one_shared_draw_are_the_rows_of_their_own_draws(q, paths, seed):
    rows, ok = studies.moment_study(q=q, paths=paths, seed=seed)
    want = [_moment_row_oracle(name, d, q, paths, seed) for name in ("heat_relu", "ou_linear") for d in (1, 2, 5)]
    assert rows == [row for row, _ in want] and ok == all(row_ok for _, row_ok in want)


def _hex(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


@pytest.mark.parametrize("q", [2.0, 4.0])
def test_moment_rows_of_partial_chunks_are_the_rows_of_their_own_draws(monkeypatch, q):
    monkeypatch.setattr(studies, "_MOMENT_CHUNK_VALUES", _SMALL_MOMENT_CHUNK)
    rows, ok = studies.moment_study(q=q, paths=3000, seed=31)
    want = [_moment_row_oracle(name, d, q, 3000, 31) for name in ("heat_relu", "ou_linear") for d in (1, 2, 5)]
    assert _hex(rows) == _hex(row for row, _ in want) and ok == all(row_ok for _, row_ok in want)


def _violations_oracle(x0, increments, T, C, c, norms):
    """The envelope violations of the norms as the rows counted them, from the whole walk and envelope."""
    N = increments.shape[1]
    running_max = np.maximum.accumulate(sde.walk_norms(increments), axis=1)
    grid = np.arange(N + 1) * (T / N)
    envelope = bounds.drift_growth_envelope(np.linalg.norm(x0), C, c, grid[None, :], running_max)
    return int((norms > envelope * (1 + 1e-12) + 1e-12).sum())


@pytest.mark.parametrize("d", [1, 2, 5])
def test_step_wise_walk_norms_are_walk_norms_bitwise(d):
    # the moment study's increments, and signed zeros, subnormals and large values:
    # the state norms bitwise, and the streamed envelope's count that of the whole arrays
    heat, x0 = problems.heat_relu_problem(d).problem, np.full(d, 0.5)
    drawn = sde.sample_brownian(9, 16, 500, d, heat.T, heat.B).increments
    step_major = np.ascontiguousarray(drawn.transpose(1, 0, 2)).transpose(1, 0, 2)  # as the study lays them out
    edge = np.resize([0.0, -0.0, 5e-324, -2.5e-310, 1e150, -3.0, 0.7, 1e-160], (40, 16, d))
    for name in ("heat_relu", "ou_linear"):
        pb = problems.get_problem(name, d).problem
        C, c = pb.params.C, pb.params.c
        for inc in (drawn, step_major, edge):
            norms, violations = studies._moment_norms(x0, pb.drift_net, inc, pb.T, C, c, out=np.empty((len(inc), 17)))
            states = sde.euler_states(x0, pb.drift_net, inc, pb.T)
            assert norms.tobytes() == np.stack([np.linalg.norm(y, axis=1) for y in states], axis=1).tobytes()
            assert violations == _violations_oracle(x0, inc, pb.T, C, c, norms)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_envelope_count_fails_states_the_envelope_does_not_bound(d):
    # a drift of 4y under ou_linear's C = 0 and c = 1 (kappa 4 lets the problem take it):
    # the states grow by 1.25 a step, the envelope by e^(1/16)
    pb, x0 = problems.ou_linear_problem(d).problem, np.full(d, 0.5)
    params = dataclasses.replace(pb.params, kappa=4.0)
    pushed = dataclasses.replace(pb, drift_net=nets.affine_net(4.0 * np.eye(d)), params=params)
    inc = sde.sample_brownian(9, 16, 500, d, pb.T, pb.B).increments
    C, c = pb.params.C, pb.params.c
    norms, violations = studies._moment_norms(x0, pushed.drift_net, inc, pb.T, C, c, out=np.empty((500, 17)))
    assert 0 < violations == _violations_oracle(x0, inc, pb.T, C, c, norms)
    row, row_ok = studies._moment_row("ou_linear", pushed, norms, violations, 2.0)
    assert row[-1] == violations and not row_ok
    unpushed = studies._moment_norms(x0, pb.drift_net, inc, pb.T, C, c, out=np.empty((500, 17)))
    assert studies._moment_row("ou_linear", pb, *unpushed, 2.0)[0][-1] == 0


@pytest.mark.parametrize("d", range(1, 8))
def test_column_norms_are_linalg_norms_bitwise(d):
    gen = np.random.default_rng(d)
    drawn = gen.normal(size=(2000, d)) * np.exp(gen.uniform(-40.0, 40.0, size=(2000, d)))
    edge_values = [0.0, -0.0, 5e-324, -2.5e-310, 1e150, -3.0, 0.7, 1e-160, 1e154, -3e-154, np.inf, -np.inf, np.nan]
    edge = gen.choice(edge_values, size=(2000, d))
    for a in (drawn, edge):
        column = np.full((len(a), 3), 7.0)[:, 1]  # a strided column, as the study writes the state norms
        with np.errstate(over="ignore", invalid="ignore"):
            got = studies._column_norms(a, np.empty_like(a), column)
            want = np.linalg.norm(a, axis=1)
        assert got.base is column.base and got.tobytes() == want.tobytes()


def test_column_norms_reject_eight_columns():
    # from 8 terms on numpy's pairwise sum groups the squares otherwise, so the bits would differ
    a = np.ones((10, 8))
    with pytest.raises(ValueError, match="below 8 columns, got 8"):
        studies._column_norms(a, np.empty_like(a), np.empty(10))


def test_study_euler_stdout_is_pinned(capsys):
    # the moment rows print only the walk norms' violation count, so the rows are pinned whole
    assert cli.main(["study", "euler", "--paths", "20000"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == "327a560667f31f833afaadcdf6e43545115820f418ee752aa2a42c615a7a301b"


def test_study_euler_stdout_at_the_benchmarks_paths_is_pinned(capsys):
    # the benchmark's own command: 100,000 interpolation paths and 20,000 moment paths
    assert cli.main(["study", "euler", "--paths", "100000"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == "58d99d6c27bf33cdb76e2ac885c162456ae6de9bcc16c8fc252bc6a19e63c39c"


@pytest.mark.parametrize("elements", [800, 5 * 800, 1 << 22])
def test_row_means_are_numpys_means(monkeypatch, elements):
    # a row per chunk; 5 rows per chunk, not dividing 64; one chunk
    a = np.random.default_rng(3).normal(size=(64, 800))
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", elements)
    per_row, mean = studies._row_means(lambda lo, hi: a[lo:hi].copy(), 64, 800)
    assert np.array_equal(per_row, a.mean(axis=1)) and mean == a.mean()


@pytest.mark.parametrize("n, cols", [(48, 800), (64, 804), (4, 64)])
def test_row_means_rejects_shapes_whose_flat_sum_is_not_the_row_sums_in_halves(n, cols):
    with pytest.raises(ValueError, match="power-of-two"):
        studies._row_means(lambda lo, hi: np.ones((hi - lo, cols)), n, cols)


def _coarse_mean_shift(coarsen):
    def wrong(grid, factor):
        coarse = coarsen(grid, factor)
        return dataclasses.replace(coarse, increments=coarse.increments + 1e-3)

    return wrong


def _step_of_one_more_node(euler_states):
    return lambda x, drift, inc, T: euler_states(x, drift, inc, T * inc.shape[1] / (inc.shape[1] + 1))


@pytest.mark.parametrize(
    "owner, name, wrong",
    [(sde.BrownianGrid, "coarsen", _coarse_mean_shift), (sde, "euler_states", _step_of_one_more_node)],
)
def test_weak_exact_mean_gate_fails_a_wrong_scheme(monkeypatch, owner, name, wrong):
    # coarse increments of mean 1e-3, or an Euler step of T/(N+1), stay far under the
    # paper's bound; the signed estimate against its exact mean must catch them
    for shift in (0.0, 0.01):
        assert studies.weak_error_study(paths=1000, seed=0, drift_shift=shift)[2]
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    for shift in (0.0, 0.01):
        rows, _, ok = studies.weak_error_study(paths=1000, seed=0, drift_shift=shift)
        assert all(est <= bound for _, _, est, _, bound in rows) and not ok


def test_study_euler_passes_a_seed_beyond_three_standard_errors(capsys):
    # correct code: the midpoint RMS lies 3.15 SE from its target at this seed
    assert cli.main(["study", "euler", "--paths", "100000", "--seed", "1114088975"]) == 0
    out = capsys.readouterr().out
    _, _, _, rms, se, target, _ = out.splitlines()[0].split(",")
    assert 3.0 < abs(float(rms) - float(target)) / float(se) <= 4.0
    assert out.rstrip().endswith("status pass")


def test_study_euler_steps_no_zero_net(monkeypatch, capsys):
    # heat's drift net is all zero: the Euler steps of its moment rows take the zero function
    # (the problem's one growth spot check, at construction, still realizes it)
    realize, seen, zero = nets.realize, [], []

    def spy(net, x):
        seen.append(net)
        if not any(l.weight.any() or l.bias.any() for l in net.layers):
            zero.append(net)
        return realize(net, x)

    monkeypatch.setattr(sde, "realize", spy)
    assert cli.main(["study", "euler", "--paths", "2000"]) == 0
    assert seen and not zero  # the ou_linear rows still realize their drift


def _mc_values_at_half_time(mc_values):
    return lambda f0, drift, inc, T, t, x: mc_values(f0, drift, inc, T, np.asarray(t) / 2, x)


def _scaled_increments(sample_brownian):
    def sample(*args, **kwargs):
        grid = sample_brownian(*args, **kwargs)
        return dataclasses.replace(grid, increments=1.05 * grid.increments)

    return sample


@pytest.mark.parametrize(
    "name, wrong",
    [("mc_values", _mc_values_at_half_time), ("sample_brownian", _scaled_increments)],
)
@pytest.mark.parametrize("seed", [5, 1114088975])
def test_strong_interp_gate_fails_a_wrong_scheme(monkeypatch, name, wrong, seed):
    # the midpoint taken at h/4, or increments scaled by 1.05, must fail the 4-SE gate
    assert studies.strong_interp_study(paths=20_000, seed=seed)[1]
    monkeypatch.setattr(sde, name, wrong(getattr(sde, name)))
    assert not studies.strong_interp_study(paths=20_000, seed=seed)[1]


def _strong_interp_row_from_the_whole_fine_grid(paths, seed):
    """The strong interpolation row from all 2N fine steps over [0, T], of which it reads two."""
    T, d, N = 1.0, 1, studies.INTERP_STEPS
    h = T / N
    fine = sde.sample_brownian(seed, 2 * N, paths, d, T, np.eye(d))
    coarse = fine.coarsen(2)
    x0 = np.full(d, 0.5)
    y_mid = sde.mc_values(lambda y: y, lambda y: -y, coarse.increments, T, [0.5 * h], x0[None]).reshape(paths, d)
    z_mid = x0 + 0.5 * h * -x0 + fine.increments[:, 0]
    sq = ((y_mid - z_mid) ** 2).sum(axis=1)
    rms = math.sqrt(sq.mean())
    se_rms = sq.std(ddof=1) / math.sqrt(paths) / (2.0 * rms)
    return (N, paths, rms, se_rms, bounds.interp_error_bound(2.0, h, 1.0))


@pytest.mark.parametrize("paths, seed", [(20_000, 0), (20_000, 3), (50_000, 7), (2, 101), (1_000, 2**64 - 1)])
def test_strong_interp_row_equals_the_whole_fine_grid_oracle(paths, seed):
    # the study draws the first coarse step's two fine steps: the first two of the 2N-step grid
    (row,), _ = studies.strong_interp_study(paths=paths, seed=seed)
    want = _strong_interp_row_from_the_whole_fine_grid(paths, seed)
    assert np.array(row).tobytes() == np.array(want).tobytes()


