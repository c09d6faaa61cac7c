"""Block-structured realize: equality with the dense loop, plans, exactness contracts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from kolmonet import bounds, build, nets, problems, sde

EPS = np.finfo(np.float64).eps


def _realize_dense(net, x):
    """The dense loop realize ran before the block path: one product per layer."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    for layer in net.layers[:-1]:
        x = np.maximum(x @ layer.weight.T + layer.bias, 0.0)
    last = net.layers[-1]
    x = x @ last.weight.T + last.bias
    return x[0] if single else x


def _blocked(net):
    """Per layer, whether realize runs it through its blocks."""
    return [step[3] for step in net._plan[0]]


def _assert_close_to_dense(net, x):
    # per entry: 16 eps relative to max(1, |dense|); seen at most 4 eps on the builds below
    got, want = nets.realize(net, x), _realize_dense(net, x)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 16 * EPS * np.maximum(1.0, np.abs(want)))


def _build(maker, d, N, M, delta, seed):
    tp = maker(d)
    sol = build.solve(tp.problem, bounds.Budget(N=N, M=M, delta=delta), seed=seed)
    return tp, sol.net


def _points(tp, n, seed):
    ts, xs = tp.measure.sample(n, seed)
    return np.column_stack([ts, xs])


# ---------------------------------------------------------------------------
# equality with the dense loop


@pytest.fixture(scope="module")
def reference():
    # the README reference build (heat, d=1, (N, M, delta) = (8, 64, 2^-8), seed 2026)
    return _build(problems.heat_relu_problem, 1, 8, 64, 2.0**-8, 2026)


@pytest.mark.parametrize("n", [512, 4096])
def test_reference_build_bitwise_equal_to_dense(reference, n):
    tp, net = reference
    assert sum(_blocked(net)) == 1536  # every hidden layer of the 64 path networks
    x = _points(tp, n, 5)
    assert nets.realize(net, x).tobytes() == _realize_dense(net, x).tobytes()


@pytest.mark.parametrize(
    "maker, d, N, M, delta, seed, bitwise",
    [
        (problems.quadratic_heat_problem, 1, 4, 5, 2.0**-8, 2026, True),
        (problems.quadratic_heat_problem, 3, 3, 4, 2.0**-8, 2026, False),
        (problems.ou_linear_problem, 2, 8, 4, 2.0**-8, 2026, False),
        (problems.heat_relu_problem, 1, 8, 1, 2.0**-8, 2026, False),  # M = 1
        (problems.ou_linear_problem, 2, 1, 5, 2.0**-3, 8, False),  # N = 1
        (problems.heat_relu_problem, 2, 1, 1, 2.0**-3, 9, False),  # N = M = 1
    ],
)
def test_builds_match_dense(maker, d, N, M, delta, seed, bitwise):
    tp, net = _build(maker, d, N, M, delta, seed)
    assert any(_blocked(net))
    for n in (1, 100, 512):
        x = _points(tp, n, 3)
        _assert_close_to_dense(net, x)
        if bitwise:
            assert nets.realize(net, x).tobytes() == _realize_dense(net, x).tobytes()


@st.composite
def hidden_block_net(draw):
    """A random net whose weights are blocks hidden by row and column permutations.

    Each row and each column joins one of a few groups or none; an entry is
    nonzero only where its row and column share a group, and then with
    probability 3/4.  Rows and columns in no group are zero rows and zero
    columns, and groups may be empty on either side.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = [draw(st.integers(1, 40)) for _ in range(draw(st.integers(2, 5)))]
    layers = []
    for k in range(len(dims) - 1):
        groups = draw(st.integers(1, 12))
        row_group = gen.integers(0, groups + 1, dims[k + 1])
        col_group = gen.integers(0, groups + 1, dims[k])
        mask = (row_group[:, None] == col_group[None, :]) & (row_group[:, None] < groups)
        mask &= gen.random(mask.shape) < 0.75
        weight = np.where(mask, gen.normal(size=mask.shape), 0.0)
        layers.append(nets.Layer(weight, gen.normal(size=dims[k + 1])))
    return nets.Network(tuple(layers))


def _magnitude(net, x):
    """Dense realize of |W|, |b| on |x|: bounds every partial sum of either path."""
    z = np.abs(x)
    for layer in net.layers:
        z = z @ np.abs(layer.weight).T + np.abs(layer.bias)
    return z


@settings(max_examples=60, deadline=None)
@given(hidden_block_net(), st.integers(0, 2**32 - 1), st.integers(0, 9))
def test_hidden_block_nets_match_dense(net, seed, n):
    x = np.random.default_rng(seed).normal(size=(n, net.in_dim))
    got, want = nets.realize(net, x), _realize_dense(net, x)
    assert got.shape == want.shape == (n, net.out_dim)
    width = max(net.dims)
    assert np.all(np.abs(got - want) <= 4 * width * net.depth * EPS * _magnitude(net, x))


def _hidden_blocks_weight(gen, out, inp, groups):
    row_group = gen.permutation(np.arange(out) % (groups + 1))
    col_group = gen.permutation(np.arange(inp) % (groups + 1))
    mask = (row_group[:, None] == col_group[None, :]) & (row_group[:, None] < groups)
    return np.where(mask, gen.normal(size=mask.shape), 0.0)


def test_block_and_dense_layers_interleave():
    # block -> dense -> block -> block: the dense layer and the output undo the bin order
    gen = np.random.default_rng(11)
    layers = [
        nets.Layer(_hidden_blocks_weight(gen, 40, 30, 8), gen.normal(size=40)),
        nets.Layer(gen.normal(size=(24, 40)), gen.normal(size=24)),
        nets.Layer(_hidden_blocks_weight(gen, 36, 24, 6), gen.normal(size=36)),
        nets.Layer(_hidden_blocks_weight(gen, 32, 36, 7), gen.normal(size=32)),
    ]
    net = nets.Network(tuple(layers))
    assert _blocked(net) == [True, False, True, True]
    _assert_close_to_dense(net, gen.normal(size=(64, 30)))


def test_dense_nets_take_the_old_path_bitwise():
    # no layer splits: the drift nets of the problems, and random full weights
    gen = np.random.default_rng(12)
    cases = [
        nets.Network((nets.Layer(gen.normal(size=(30, 20)), gen.normal(size=30)),
                      nets.Layer(gen.normal(size=(3, 30)), gen.normal(size=3)))),
    ]
    for name in problems.problem_names():
        for d in range(1, 6):
            cases.append(problems.get_problem(name, d).problem.drift_net)
    for net in cases:
        assert not any(_blocked(net))
        x = gen.normal(size=(257, net.in_dim))
        got = nets.realize(net, x)
        assert got.flags.c_contiguous
        assert got.tobytes() == _realize_dense(net, x).tobytes()


def test_zero_weight_layer_gives_its_bias():
    gen = np.random.default_rng(13)
    bias = gen.normal(size=20)
    net = nets.Network((nets.Layer(np.zeros((20, 20)), bias),))
    assert _blocked(net) == [True]
    assert np.array_equal(nets.realize(net, gen.normal(size=(5, 20))), np.tile(bias, (5, 1)))


@pytest.mark.parametrize("blocked", [True, False])
def test_empty_batch(blocked):
    gen = np.random.default_rng(14)
    w = _hidden_blocks_weight(gen, 24, 24, 6) if blocked else gen.normal(size=(24, 24))
    net = nets.Network((nets.Layer(w, np.zeros(24)), nets.Layer(gen.normal(size=(2, 24)), np.zeros(2))))
    assert _blocked(net)[0] == blocked
    assert nets.realize(net, np.zeros((0, 24))).shape == (0, 2)


# ---------------------------------------------------------------------------
# what realize's docstring promises


@pytest.mark.parametrize("blocked", [True, False])
def test_single_input_is_a_batch_of_one_and_repeats_bitwise(reference, blocked):
    tp, net = reference
    if not blocked:
        net = nets.Network(net.layers[:2] + (nets.Layer(np.ones((1, 58)), np.zeros(1)),))
    assert any(_blocked(net)) == blocked
    x = _points(tp, 64, 7)
    batch = nets.realize(net, x)
    assert nets.realize(net, x).tobytes() == batch.tobytes()
    for row in x[:16]:
        assert nets.realize(net, row).tobytes() == nets.realize(net, row[None])[0].tobytes()


def test_realize_rejects_inputs_of_the_wrong_rank():
    net = nets.affine_net(np.array([[2.0]]))
    with pytest.raises(ValueError, match="vector or a batch"):
        nets.realize(net, 1.0)
    with pytest.raises(ValueError, match="vector or a batch"):
        nets.realize(net, np.zeros((2, 1, 1)))


def test_plan_is_made_once_per_network(reference):
    _tp, net = reference
    assert net._plan is net._plan
    distinct = {id(layer.weight) for layer in net.layers}
    stacks = {id(step[1]) for step, on in zip(net._plan[0], _blocked(net)) if on}
    assert len(stacks) < len(distinct) == 29


# ---------------------------------------------------------------------------
# the split of one weight


def test_split_of_the_reference_pipeline_layer(reference):
    # 74 x 74: 16 sawtooth blocks of 4 x 4, 2 of 2 x 2 and 6 of 1 x 1, in 19 bins of 4 x 4
    _tp, net = reference
    blocks = nets._split(net.layers[10].weight)
    assert blocks.stack.shape == (19, 4, 4)


@pytest.mark.parametrize("seed", range(5))
def test_split_reassembles_the_weight_with_ascending_columns(seed):
    gen = np.random.default_rng(seed)
    w = _hidden_blocks_weight(gen, 37, 29, 7)
    blocks = nets._split(w)
    bins, rb, cb = blocks.stack.shape
    rebuilt = np.zeros_like(w)
    for r in range(bins * rb):
        i = blocks.src[r]
        b = r // rb
        cols = blocks.cols[b * cb : (b + 1) * cb]
        row = blocks.stack[b, r % rb]
        if i == w.shape[0]:  # a padding row
            assert not row.any()
            continue
        assert blocks.position[i] == r
        assert np.all(np.diff(cols[row != 0]) > 0)  # the row's columns stay ascending
        rebuilt[i, cols[row != 0]] = row[row != 0]
    assert rebuilt.tobytes() == w.tobytes()


def test_small_or_unsplit_weights_stay_dense():
    gen = np.random.default_rng(15)
    assert nets._split(gen.normal(size=(15, 15))) is None  # under 256 entries
    assert nets._split(gen.normal(size=(40, 40))) is None  # one block
    # blocks of 20 x 20 and 20 x 20: two bins take half the dense multiply-adds
    a, b = gen.normal(size=(2, 20, 20))
    assert nets._split(nets._block_diag([a, b])).stack.shape == (2, 20, 20)
    # blocks of 30 x 30 and 10 x 10: two bins of 30 x 30 take more than half
    assert nets._split(nets._block_diag([gen.normal(size=(30, 30)), b[:10, :10]])) is None
    # one dense column joins every row: a single block
    w = _hidden_blocks_weight(gen, 40, 40, 8)
    w[:, 3] = 1.0
    assert nets._split(w) is None


# ---------------------------------------------------------------------------
# the split against its scipy.sparse oracle


def _split_scipy(weight):
    """``nets._split`` as it labelled the blocks with scipy.sparse's ``connected_components``."""
    out, inp = weight.shape
    if weight.size < nets._BLOCK_MIN_SIZE:
        return None
    i, j = np.nonzero(weight)
    # row r of the graph lists columns out + j; np.nonzero runs row by row
    ends = np.cumsum(np.bincount(i, minlength=out))
    indptr = np.concatenate(([0], ends, np.full(inp, i.size)))
    graph = csr_matrix((np.ones(i.size), out + j, indptr), shape=(out + inp, out + inp))
    count, label = connected_components(graph, directed=False)
    row_label, col_label = label[:out], label[out:]
    heights = np.bincount(row_label, minlength=count)
    widths = np.bincount(col_label, minlength=count)
    rb, cb = int(heights.max()), int(widths.max())
    bin_of, row_off, col_off = (np.zeros(count, dtype=np.intp) for _ in range(3))
    b, rows, cols = -1, rb, cb
    for k in sorted(np.flatnonzero(heights), key=lambda k: (-heights[k], -widths[k])):
        if rows + heights[k] > rb or cols + widths[k] > cb:
            b, rows, cols = b + 1, 0, 0
        bin_of[k], row_off[k], col_off[k] = b, rows, cols
        rows += heights[k]
        cols += widths[k]
    bins = b + 1
    if 2 * bins * rb * cb > weight.size:
        return None
    row_slot = bin_of[row_label] * rb + row_off[row_label] + nets._rank(row_label, count)
    col_at = col_off[col_label] + nets._rank(col_label, count)
    read = heights[col_label] > 0
    gather = np.zeros(bins * cb, dtype=np.intp)
    gather[(bin_of[col_label] * cb + col_at)[read]] = np.flatnonzero(read)
    src = np.full(bins * rb, out, dtype=np.intp)
    src[row_slot] = np.arange(out)
    stack = np.zeros((bins * rb, cb))
    stack[row_slot[i], col_at[j]] = weight[i, j]
    return nets._Blocks(stack.reshape(bins, rb, cb), gather, src, row_slot)


def _assert_split_as_scipy(weight):
    """``nets._split(weight)`` equals the oracle field by field, in dtype, shape and bytes."""
    got, want = nets._split(weight), _split_scipy(weight)
    assert (got is None) == (want is None)
    for field in () if want is None else dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
    return got


@pytest.mark.parametrize(
    "maker, d, N, M",
    [
        (problems.heat_relu_problem, 1, 4, 3),
        (problems.heat_relu_problem, 2, 3, 2),
        (problems.heat_relu_problem, 3, 2, 2),
        (problems.ou_linear_problem, 1, 4, 3),
        (problems.ou_linear_problem, 2, 3, 2),
        (problems.ou_linear_problem, 3, 2, 2),
        (problems.quadratic_heat_problem, 1, 4, 3),
        (problems.quadratic_heat_problem, 2, 3, 2),
        (problems.quadratic_heat_problem, 3, 2, 2),
    ],
)
def test_split_of_every_distinct_build_weight_equals_scipy(maker, d, N, M):
    _tp, net = _build(maker, d, N, M, 2.0**-8, 2026)
    weights = {id(layer.weight): layer.weight for layer in net.layers}.values()
    assert sum(_assert_split_as_scipy(w) is not None for w in weights) >= 3


def test_split_of_every_distinct_reference_weight_equals_scipy(reference):
    _tp, net = reference
    weights = {id(layer.weight): layer.weight for layer in net.layers}.values()
    assert len(weights) == 29
    # 4 weights under 256 entries and the 58 x 6 one stay dense
    assert sum(_assert_split_as_scipy(w) is not None for w in weights) == 24


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 48),
    st.integers(1, 48),
    st.integers(0, 16),
    st.floats(0.05, 1.0),
)
@example(seed=0, out=20, inp=30, groups=0, density=1.0)  # an all-zero weight
def test_split_of_hidden_block_patterns_equals_scipy(seed, out, inp, groups, density):
    # a row or a column in group `groups` is zero, and groups = 0 gives an all-zero weight
    gen = np.random.default_rng(seed)
    row_group = gen.integers(0, groups + 1, out)
    col_group = gen.integers(0, groups + 1, inp)
    mask = (row_group[:, None] == col_group[None, :]) & (row_group[:, None] < groups)
    mask &= gen.random(mask.shape) < density
    _assert_split_as_scipy(np.where(mask, gen.normal(size=mask.shape), 0.0))


@pytest.mark.parametrize("shuffled", [False, True])
def test_split_of_a_two_thousand_node_chain_equals_scipy(shuffled):
    # rows p[k] and p[k + 1] share column q[k]: one path through all 1,000 rows and 1,000 columns
    gen = np.random.default_rng(21)
    p, q = (gen.permutation(1000) for _ in range(2)) if shuffled else (np.arange(1000),) * 2
    w = np.zeros((1000, 1000))
    w[p, q] = gen.normal(size=1000)
    w[p[1:], q[:-1]] = gen.normal(size=999)
    assert _assert_split_as_scipy(w) is None  # one block
    w[p[500], q[499]] = 0.0  # two chains of 1,000 nodes
    assert _assert_split_as_scipy(w).stack.shape == (2, 500, 500)


# ---------------------------------------------------------------------------
# README "Notes on exactness", on the block path


def test_identity_net_is_exact_through_blocks():
    net = nets.identity_net(32)
    assert _blocked(net) == [True, True]
    x = np.random.default_rng(16).normal(size=(100, 32)) * 10.0 ** np.arange(-16, 16)
    assert np.array_equal(nets.realize(net, x), x)


def test_product_zero_factor_is_exact_through_blocks():
    K, eps, R = 16, 2.0**-10, 2.0
    net = nets.parallel_stack(
        [nets.select_inputs(nets.product_net(eps, R), [2 * i, 2 * i + 1], 2 * K) for i in range(K)]
    )
    assert all(_blocked(net))
    gen = np.random.default_rng(17)
    x = gen.uniform(-R, R, size=(200, 2 * K))
    x[np.arange(200)[:, None], 2 * np.arange(K) + gen.integers(0, 2, size=(200, K))] = 0.0
    assert np.array_equal(nets.realize(net, x), np.zeros((200, K)))


def test_ramps_vanish_left_of_their_cells_through_blocks():
    grid = np.sort(np.random.default_rng(18).uniform(0.0, 1.0, 17))
    K = len(grid) - 1
    net = nets.parallel_stack([nets.select_inputs(nets.hat_time_net(grid, n), [n], K) for n in range(K)])
    assert all(_blocked(net))
    t = grid[:-1] - np.random.default_rng(19).uniform(0.0, 1.0, size=(50, K)) * grid[:-1]
    t[0] = grid[:-1]  # at tau_n itself
    assert np.array_equal(nets.realize(net, t), np.zeros((50, K)))


def test_mc_average_is_adapted_through_blocks():
    # increments beyond step n do not reach Psi at t <= tau_n, bitwise
    gen = np.random.default_rng(20)
    pb = problems.heat_relu_problem(1).problem
    N, M = 4, 8
    budget = bounds.Budget(N=N, M=M, delta=2.0**-4)
    noise = sde.sample_brownian(3, N, M, 1, pb.T, sde.sqrtm_psd(2.0 * pb.A))
    net = build.build_mc_average_net(pb, budget, noise).net
    assert all(on for on, layer in zip(_blocked(net), net.layers) if layer.weight.size >= 256)
    assert sum(_blocked(net)) >= 0.8 * net.depth
    for n in (1, 2, 3):
        inc = noise.increments.copy()
        inc[:, n:] += gen.normal(size=inc[:, n:].shape)
        other = build.build_mc_average_net(pb, budget, dataclasses.replace(noise, increments=inc)).net
        ts = np.linspace(0.0, n * pb.T / N, 9)
        pts = np.column_stack([np.repeat(ts, 5), np.tile(gen.uniform(-2, 2, 5), 9)])
        assert np.array_equal(nets.realize(net, pts), nets.realize(other, pts))
