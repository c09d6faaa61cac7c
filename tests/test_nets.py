"""Network calculus: exactness, algebra, and the two special constructions."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolmonet import build, nets


def straight_line_eval(net, x):
    """Independent oracle: explicit per-layer loop, no batching."""
    v = np.array(x, dtype=np.float64)
    for layer in net.layers[:-1]:
        v = np.maximum(layer.weight @ v + layer.bias, 0.0)
    last = net.layers[-1]
    return last.weight @ v + last.bias


def random_net(gen, dims):
    return nets.Network(
        tuple(
            nets.Layer(gen.normal(size=(dims[k + 1], dims[k])), gen.normal(size=dims[k + 1]))
            for k in range(len(dims) - 1)
        )
    )


@st.composite
def net_dims(draw, in_dim=None, out_dim=None, max_width=5, max_depth=3):
    depth = draw(st.integers(1, max_depth))
    dims = [in_dim or draw(st.integers(1, max_width))]
    for _ in range(depth - 1):
        dims.append(draw(st.integers(1, max_width)))
    dims.append(out_dim or draw(st.integers(1, max_width)))
    return tuple(dims)


@st.composite
def small_net(draw, in_dim=None, out_dim=None):
    dims = draw(net_dims(in_dim=in_dim, out_dim=out_dim))
    seed = draw(st.integers(0, 2**31))
    return random_net(np.random.default_rng(seed), dims)


# ---------------------------------------------------------------------------
# realization


def test_realize_identity_case():
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(nets.realize(nets.identity_net(3), x), x)


def test_realize_single_affine_no_final_activation():
    net = nets.affine_net(np.array([[2.0]]), np.array([3.0]))
    assert nets.realize(net, np.array([-1.0])) == pytest.approx(1.0, abs=0)


def test_realize_matches_straight_line_oracle():
    gen = np.random.default_rng(7)
    net = random_net(gen, (3, 4, 2))
    for _ in range(10):
        x = gen.uniform(-5, 5, size=3)
        assert np.allclose(nets.realize(net, x), straight_line_eval(net, x), rtol=1e-12)


def test_realize_shape_error():
    with pytest.raises(ValueError):
        nets.realize(nets.identity_net(2), np.zeros(3))


# ---------------------------------------------------------------------------
# parameter count


def test_param_count_identity_one():
    # dims (1, 2, 1): 2*2 + 1*3 = 7
    assert nets.param_count(nets.identity_net(1)) == 7


def test_param_count_identity_formula_and_seven_d_squared():
    for d in range(1, 17):
        p = nets.param_count(nets.identity_net(d))
        assert p == 4 * d * d + 3 * d
        assert p <= 7 * d * d


def test_param_count_identity_two():
    assert nets.param_count(nets.identity_net(2)) == 22


def test_param_count_dims_2_5_3():
    net = random_net(np.random.default_rng(0), (2, 5, 3))
    assert nets.param_count(net) == 5 * 3 + 3 * 6


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_is_neutral():
    gen = np.random.default_rng(1)
    for d in (1, 3):
        g = random_net(gen, (d, 4, d))
        net = nets.compose(nets.identity_net(d), g)
        for _ in range(5):
            x = gen.uniform(-5, 5, size=d)
            assert np.allclose(nets.realize(net, x), nets.realize(g, x), rtol=1e-12, atol=1e-12)


def test_compose_affine_algebra():
    gen = np.random.default_rng(2)
    W, b = gen.normal(size=(2, 3)), gen.normal(size=2)
    V, c = gen.normal(size=(3, 4)), gen.normal(size=3)
    net = nets.compose(nets.affine_net(W, b), nets.affine_net(V, c))
    assert net.depth == 1
    assert np.allclose(net.layers[0].weight, W @ V)
    assert np.allclose(net.layers[0].bias, W @ c + b)


def test_compose_depth_one_into_deep():
    # the depth(f) = 1 < depth(g) branch, exercised explicitly
    gen = np.random.default_rng(3)
    f = nets.affine_net(gen.normal(size=(1, 3)), gen.normal(size=1))
    g = random_net(gen, (2, 4, 3))
    fg = nets.compose(f, g)
    assert fg.depth == g.depth
    x = gen.uniform(-3, 3, size=2)
    assert np.allclose(nets.realize(fg, x), nets.realize(f, nets.realize(g, x)), rtol=1e-12)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        nets.compose(nets.identity_net(2), nets.identity_net(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), net_dims())
def test_compose_realization_equivalence(seed, dims_g):
    gen = np.random.default_rng(seed)
    g = random_net(gen, dims_g)
    f = random_net(gen, (g.out_dim, int(gen.integers(1, 5)), int(gen.integers(1, 5))))
    x = gen.uniform(-10, 10, size=g.in_dim)
    lhs = nets.realize(nets.compose(f, g), x)
    rhs = nets.realize(f, nets.realize(g, x))
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_compose_associative_layer_for_layer(seed):
    gen = np.random.default_rng(seed)
    dims = [int(gen.integers(1, 5)) for _ in range(4)]
    h = random_net(gen, (dims[0], int(gen.integers(1, 5)), dims[1]))
    g = random_net(gen, (dims[1], int(gen.integers(1, 5)), dims[2]))
    f = random_net(gen, (dims[2], int(gen.integers(1, 5)), dims[3]))
    left = nets.compose(nets.compose(f, g), h)
    right = nets.compose(f, nets.compose(g, h))
    assert left.dims == right.dims
    for a, b in zip(left.layers, right.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), net_dims(), net_dims())
def test_param_count_of_composition_matches_formula(seed, dims_g, dims_f):
    gen = np.random.default_rng(seed)
    g = random_net(gen, dims_g)
    f = random_net(gen, (g.out_dim,) + dims_f[1:])
    fg = nets.compose(f, g)
    dims = fg.dims
    formula = sum(dims[k] * (dims[k - 1] + 1) for k in range(1, len(dims)))
    structural = sum(l.weight.size + l.bias.size for l in fg.layers)
    assert nets.param_count(fg) == formula == structural


# ---------------------------------------------------------------------------
# identity networks and concatenation


def test_identity_scalar():
    assert nets.realize(nets.identity_net(1), np.array([-5.0])) == pytest.approx(-5.0, abs=0)


def test_identity_large_dim_exact():
    gen = np.random.default_rng(11)
    d = 64
    x = gen.uniform(-100, 100, size=d)
    err = np.abs(nets.realize(nets.identity_net(d), x) - x).max()
    assert err <= 4 * d * np.finfo(float).eps


def test_concat_realizes_like_compose():
    gen = np.random.default_rng(4)
    g = random_net(gen, (2, 5, 3))
    f = random_net(gen, (3, 4, 2))
    joined = nets.concat_with_identity(f, g)
    # one layer more than plain composition: depth(f) + depth(g)
    assert joined.depth == f.depth + g.depth
    for _ in range(5):
        x = gen.uniform(-5, 5, size=2)
        assert np.allclose(
            nets.realize(joined, x), nets.realize(nets.compose(f, g), x), rtol=1e-12, atol=1e-12
        )


def test_extend_length_preserves_realization():
    gen = np.random.default_rng(5)
    g = random_net(gen, (3, 4, 2))
    for extra in (1, 2, 5):
        padded = nets.extend_length(g, g.depth + extra)
        assert padded.depth == g.depth + extra
        x = gen.uniform(-5, 5, size=3)
        assert np.allclose(nets.realize(padded, x), nets.realize(g, x), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# averages


def test_average_single_net_weight_one():
    gen = np.random.default_rng(6)
    f = random_net(gen, (2, 3, 2))
    avg = nets.average_nets([f], [1.0])
    x = gen.uniform(-5, 5, size=2)
    assert np.array_equal(nets.realize(avg, x), nets.realize(f, x))


def test_average_of_net_and_its_negation_is_zero():
    gen = np.random.default_rng(7)
    f = random_net(gen, (3, 4, 1))
    neg = nets.Network(
        f.layers[:-1] + (nets.Layer(-f.layers[-1].weight, -f.layers[-1].bias),)
    )
    avg = nets.average_nets([f, neg], [0.5, 0.5])
    for _ in range(10):
        x = gen.uniform(-5, 5, size=3)
        assert abs(nets.realize(avg, x)[0]) <= 1e-12


def test_average_matches_direct_sum_oracle():
    gen = np.random.default_rng(8)
    members = [random_net(gen, (2, int(gen.integers(2, 5)), 1)) for _ in range(4)]
    weights = gen.uniform(-1, 1, size=4)
    avg = nets.average_nets(members, weights)
    for _ in range(20):
        x = gen.uniform(-5, 5, size=2)
        direct = sum(w * nets.realize(m, x)[0] for w, m in zip(weights, members))
        assert abs(nets.realize(avg, x)[0] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_average_param_bound_for_equal_dims():
    gen = np.random.default_rng(9)
    members = [random_net(gen, (2, 4, 3, 1)) for _ in range(4)]
    avg = nets.average_nets(members, [0.25] * 4)
    per = max(nets.param_count(m) for m in members)
    assert nets.param_count(avg) <= 16 * per


def test_average_errors():
    with pytest.raises(ValueError):
        nets.average_nets([], [])
    with pytest.raises(ValueError):
        nets.average_nets([nets.identity_net(1), nets.identity_net(2)], [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31))
def test_average_linearity_property(seed):
    gen = np.random.default_rng(seed)
    f = random_net(gen, (2, int(gen.integers(1, 5)), 1))
    g = random_net(gen, (2, int(gen.integers(1, 5)), 1))
    a, b = gen.uniform(-2, 2, size=2)
    avg = nets.average_nets([f, g], [a, b])
    x = gen.uniform(-5, 5, size=2)
    want = a * nets.realize(f, x)[0] + b * nets.realize(g, x)[0]
    assert abs(nets.realize(avg, x)[0] - want) <= 1e-12 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# product networks


def test_product_zero_factor_annihilation_exact():
    pn = nets.product_net(1e-2, 1.0)
    pts = np.array([[0.0, 0.7], [0.7, 0.0], [0.0, 0.0], [0.0, -0.9], [-0.3, 0.0]])
    out = nets.realize(pn, pts).ravel()
    assert np.array_equal(out, np.zeros(5))


def test_product_dense_grid_oracle():
    eps = 1e-3
    pn = nets.product_net(eps, 1.0)
    g = np.linspace(-1.0, 1.0, 201)
    A, B = np.meshgrid(g, g)
    pts = np.column_stack([A.ravel(), B.ravel()])
    out = nets.realize(pn, pts).ravel()
    assert np.abs(out - A.ravel() * B.ravel()).max() <= eps


def test_product_size_grows_logarithmically():
    p_fine = nets.param_count(nets.product_net(2.0**-10, 1.0))
    p_coarse = nets.param_count(nets.product_net(2.0**-5, 1.0))
    assert p_fine / p_coarse <= 3.0


def test_product_rejects_bad_eps():
    with pytest.raises(ValueError):
        nets.product_net(0.0, 1.0)
    with pytest.raises(ValueError):
        nets.product_net(-0.1, 1.0)
    with pytest.raises(ValueError):
        nets.product_net(0.5, 0.5)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**31),
    st.sampled_from([2.0**-k for k in range(1, 11)]),
    st.floats(1.0, 8.0),
)
def test_product_error_bound_random(seed, eps, R):
    gen = np.random.default_rng(seed)
    pn = nets.product_net(eps, R)
    pts = gen.uniform(-R, R, size=(200, 2))
    out = nets.realize(pn, pts).ravel()
    assert np.abs(out - pts[:, 0] * pts[:, 1]).max() <= eps


# ---------------------------------------------------------------------------
# hat ramps


def test_hat_values_at_cell_ends_and_midpoint():
    grid = np.linspace(0.0, 1.0, 5)
    hat = nets.hat_time_net(grid, 1)
    assert nets.realize(hat, np.array([grid[1]]))[0] == 0.0
    assert nets.realize(hat, np.array([grid[2]]))[0] == 1.0
    mid = (grid[1] + grid[2]) / 2
    assert nets.realize(hat, np.array([mid]))[0] == pytest.approx(0.5, abs=1e-15)


def test_hat_matches_closed_form():
    grid = np.arange(9) * (2.0 / 8)
    gen = np.random.default_rng(12)
    for n in (0, 3, 7):
        hat = nets.hat_time_net(grid, n)
        t = gen.uniform(0.0, 2.0, size=1000)
        want = np.clip((t - grid[n]) / (grid[n + 1] - grid[n]), 0.0, 1.0)
        got = nets.realize(hat, t[:, None]).ravel()
        assert np.abs(got - want).max() <= 1e-12


def test_hat_zero_left_of_cell_is_exact():
    grid = np.arange(5) * 0.25
    hat = nets.hat_time_net(grid, 2)
    t = np.linspace(0.0, grid[2], 50)[:, None]
    assert np.array_equal(nets.realize(hat, t).ravel(), np.zeros(50))


def test_hat_degenerate_grid():
    with pytest.raises(ValueError):
        nets.hat_time_net(np.array([0.0, 0.0, 1.0]), 0)


# ---------------------------------------------------------------------------
# document round trip


def _network_doc(net):
    buf = io.StringIO()
    nets.write_network(buf, net)
    return json.loads(buf.getvalue())


def test_network_doc_round_trip():
    gen = np.random.default_rng(13)
    net = random_net(gen, (2, 4, 3))
    back = nets.network_from_doc(_network_doc(net))
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)


def test_network_doc_rejects_bad_dims():
    doc = _network_doc(nets.identity_net(2))
    doc["dims"] = [2, 4]
    with pytest.raises(ValueError):
        nets.network_from_doc(doc)


def _write_network_per_value(net):
    """Reference writer: formats every stored number on its own."""

    def tokens(a):
        return ", ".join(nets._fmt(v) for v in a.ravel().tolist())

    out = '{"version": %d, "dims": %s, "layers": [' % (
        nets.NETWORK_FORMAT_VERSION, json.dumps(list(net.dims)))
    out += ", ".join(
        '{"weight": [%s], "bias": [%s]}' % (tokens(l.weight), tokens(l.bias))
        for l in net.layers
    )
    return out + "]}"


_EDGE_VALUES = [
    5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1 + 0.2, 2.0, 1e16, 1e17, -0.0, 0.0, -1.0,
]


def _repeated_values_net(seed, dims):
    # draws from a small pool so most entries repeat, as in a built pipeline
    gen = np.random.default_rng(seed)
    pool = np.concatenate([gen.normal(size=5), [0.0, 1.0, -1.0]])
    return nets.Network(
        tuple(
            nets.Layer(gen.choice(pool, size=(b, a)), gen.choice(pool, size=b))
            for a, b in zip(dims, dims[1:])
        )
    )


@pytest.mark.parametrize(
    "net",
    [
        _repeated_values_net(0, (3, 40, 17, 1)),
        _repeated_values_net(1, (1, 1, 1)),
        nets.Network((nets.Layer(np.full((6, 5), 0.3), np.full(6, 0.3)),)),
        nets.Network(
            (
                nets.Layer(np.array(_EDGE_VALUES * 3).reshape(11, 3), np.array(_EDGE_VALUES)),
                nets.Layer(np.array([_EDGE_VALUES[::-1]]), np.array([1e17])),
            )
        ),
        random_net(np.random.default_rng(15), (2, 7, 1)),
    ],
    ids=["repeated", "one_by_one", "one_value", "edge_values", "all_distinct"],
)
def test_write_network_matches_per_value_writer(net):
    buf = io.StringIO()
    nets.write_network(buf, net)
    assert buf.getvalue() == _write_network_per_value(net)
    back = nets.network_from_doc(json.loads(buf.getvalue()))
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def _shared_weight_members(seed, dims, M):
    # like the builder's path networks: one set of weights, biases per member
    gen = np.random.default_rng(seed)
    template = random_net(gen, dims)
    return [
        nets.Network(tuple(nets.Layer(l.weight, gen.normal(size=l.out_dim)) for l in template.layers))
        for _ in range(M)
    ]


def _equal_bytes_net():
    # equal bytes under different shapes, and equal shapes and sizes with other bytes
    a = np.arange(1.0, 7.0)
    return nets.Network(
        (
            nets.Layer(a.reshape(2, 3), a[:2]),
            nets.Layer(a.reshape(3, 2), a[:3]),
            nets.Layer(a[::-1].reshape(2, 3), a[1:3]),
            nets.Layer(a.reshape(3, 2), a[:3] + 0.5),
        )
    )


def _same_matrix_net(depth, width):
    w = np.random.default_rng(3).normal(size=(width, width))
    return nets.Network(tuple(nets.Layer(w, np.zeros(width)) for _ in range(depth)))


@pytest.mark.parametrize(
    "net",
    [
        build._pipeline_average(_shared_weight_members(4, (2, 5, 4, 1), 3), 1.0 / 3),
        _equal_bytes_net(),
        _same_matrix_net(6, 4),
    ],
    ids=["pipeline_of_shared_weights", "equal_bytes_other_shapes", "one_matrix"],
)
def test_write_network_repeated_arrays_match_per_value_writer(net):
    assert len({l.weight.tobytes() for l in net.layers}) < len(net.layers)
    buf = io.StringIO()
    nets.write_network(buf, net)
    assert buf.getvalue() == _write_network_per_value(net)


def test_write_network_is_independent_of_earlier_calls():
    # each call formats its own arrays; nothing carries over between networks
    first, second = _same_matrix_net(3, 4), _equal_bytes_net()
    for net in (first, second, first):
        buf = io.StringIO()
        nets.write_network(buf, net)
        assert buf.getvalue() == _write_network_per_value(net)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("occurrence", [0, 3])
def test_write_network_rejects_non_finite_in_repeated_matrix(value, occurrence):
    w = np.random.default_rng(5).normal(size=(4, 4))
    layers = [nets.Layer(w, np.zeros(4)) for _ in range(5)]
    bad = w.copy()
    bad[1, 2] = value
    layers[occurrence] = nets.Layer(bad, np.zeros(4))
    net = nets.Network(tuple(layers))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite"):
            nets.write_network(io.StringIO(), net)


def test_write_network_writes_negative_zero_as_zero():
    # the writer merges -0.0 with 0.0; that is only sound because Layer stores no -0.0
    buf = io.StringIO()
    nets.write_network(buf, nets.affine_net(np.array([[-0.0, 2.0, -0.0]]), np.array([-0.0])))
    assert '"weight": [0, 2, 0], "bias": [0]' in buf.getvalue()


def test_write_network_rejects_non_finite():
    # once alone and once repeated among finite values, in a weight and in a bias
    for value in (np.nan, np.inf, -np.inf):
        for key, index in (("weight", (2, 1)), ("bias", 7), ("weight", slice(None, None, 3)), ("bias", slice(None, None, 2))):
            arrays = {"weight": np.ones((40, 3)), "bias": np.linspace(-1.0, 1.0, 40)}
            arrays[key][index] = value
            net = nets.Network((nets.Layer(np.ones((3, 2)), np.zeros(3)), nets.Layer(**arrays)))
            with pytest.raises(ValueError, match="non-finite"):
                nets.write_network(io.StringIO(), net)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", ["weight", "bias"])
def test_network_from_doc_rejects_non_finite(value, key):
    doc = _network_doc(nets.identity_net(2))
    doc["layers"][1][key][1] = value
    with pytest.raises(ValueError, match="non-finite"):
        nets.network_from_doc(doc)


def test_layer_validation():
    with pytest.raises(ValueError):
        nets.Layer(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        nets.Network(())
    with pytest.raises(ValueError):
        nets.Network(
            (nets.Layer(np.zeros((2, 2)), np.zeros(2)), nets.Layer(np.zeros((1, 3)), np.zeros(1)))
        )


def test_network_file_round_trip(tmp_path):
    gen = np.random.default_rng(14)
    net = random_net(gen, (3, 5, 2))
    path = tmp_path / "net.json"
    with open(path, "w") as fh:
        nets.write_network(fh, net)
    with open(path) as fh:
        back = nets.network_from_doc(json.load(fh))
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
