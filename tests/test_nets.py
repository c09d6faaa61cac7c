"""Network calculus: exactness, algebra, and the two special constructions."""

import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolmonet import bounds, build, nets, problems


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
    with pytest.raises(ValueError, match="need at least one network"):
        nets.average_nets([], [])
    with pytest.raises(ValueError):
        nets.average_nets([nets.identity_net(1), nets.identity_net(2)], [1.0, 1.0])
    with pytest.raises(ValueError, match="share the output dimension"):
        nets.average_nets([nets.identity_net(1), nets.affine_net(np.ones((2, 1)))], [1.0, 1.0])


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


@pytest.mark.parametrize(
    "eps, R, log10",
    [(1e-150, np.float64(8e150), "451.806"), (1e-300, 1e5, "310"), (0.5, np.float64(1e200), "400.301"),
     (1e-5, math.inf, "inf")],
)
def test_product_range_beyond_the_float_range_raises_with_its_log10(eps, R, log10):
    # R arrives as a numpy scalar from the builder: R * R / eps would overflow with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("eps = %g, R = %g, log10(R^2 / eps) = %s" % (eps, R, log10)) + "$"):
            nets.product_net(eps, R)


def test_product_range_at_the_edge_of_the_float_range_keeps_its_stages():
    # log10(R^2 / eps) = 307: finite, so the stage count is the formula's
    R = np.float64(1e150)
    pn = nets.product_net(1e-7, R)
    assert nets.product_depth_stages(1e-7, R) == 510 and len(pn.layers) == 510 + 4


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


def _shared_weight_template(seed, dims, M):
    # like the builder's path networks: one set of weights, biases per member
    gen = np.random.default_rng(seed)
    template = random_net(gen, dims)
    return nets.Network(
        tuple(nets.Layer(l.weight, gen.normal(size=(M, l.out_dim))) for l in template.layers)
    )


def _member(net, m):
    # member m of a network whose biases may carry a member axis
    return nets.Network(
        tuple(nets.Layer(l.weight, l.bias[m] if l.bias.ndim == 2 else l.bias) for l in net.layers)
    )


def _assert_layers_equal(a, b):
    assert a.dims == b.dims
    for la, lb in zip(a.layers, b.layers):
        assert la.weight.shape == lb.weight.shape and la.bias.shape == lb.bias.shape
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


@pytest.mark.parametrize("out_dim, k", [(1, 1), (1, 6), (5, 1), (3, 4), (68, 68), (7, 70)])
@pytest.mark.parametrize("axis_in", ["both", "inner", "outer"])
def test_compose_member_biases_match_per_member_matvec(out_dim, k, axis_in):
    # the fused bias of member m is bitwise w1 @ bl[m] + b1[m], including 1 x 1 and k = 1
    M = 5
    gen = np.random.default_rng(out_dim * 100 + k)
    inner = (M, k) if axis_in in ("both", "inner") else (k,)
    outer = (M, out_dim) if axis_in in ("both", "outer") else (out_dim,)
    g = nets.Network((nets.Layer(gen.normal(size=(k, 3)), gen.normal(size=inner)),))
    f = nets.Network((nets.Layer(gen.normal(size=(out_dim, k)), gen.normal(size=outer)),))
    fused = nets.compose(f, g).layers[0]
    assert fused.bias.shape == (M, out_dim)
    w1 = f.layers[0].weight
    for m in range(M):
        bl, b1 = _member(g, m).layers[0].bias, _member(f, m).layers[0].bias
        assert fused.bias[m].tobytes() == (w1 @ bl + b1).tobytes()
        _assert_layers_equal(_member(nets.compose(f, g), m), nets.compose(_member(f, m), _member(g, m)))


def _mixed_member_group(M):
    # plain, shared-weight, mixed and shallower nets; some biases carry a member axis
    gen = np.random.default_rng(8)
    plain = random_net(gen, (2, 4, 3, 2))
    member = _shared_weight_template(9, (2, 5, 4, 2), M)
    mixed = nets.Network(
        (
            nets.Layer(gen.normal(size=(3, 2)), gen.normal(size=(M, 3))),
            nets.Layer(gen.normal(size=(3, 3)), gen.normal(size=3)),
            nets.Layer(gen.normal(size=(2, 3)), gen.normal(size=(M, 2))),
        )
    )
    shallow = _shared_weight_template(10, (2, 3, 2), M)  # padded on the input side
    return [plain, member, mixed, shallow]


def test_stacked_layers_mix_vector_and_member_biases():
    # parallel_stack and average_nets repeat a plain bias for every member of another
    M = 3
    group = _mixed_member_group(M)
    for combine in (nets.parallel_stack, lambda ns: nets.average_nets(ns, [0.5, 2.0, -1.0, 0.25])):
        together = combine(group)
        assert [l.bias.shape for l in together.layers] == [(M, l.out_dim) for l in together.layers]
        for m in range(M):
            _assert_layers_equal(_member(together, m), combine([_member(n, m) for n in group]))


def _stacked_biases(members, k):
    return _parallel_biases_old([n.layers[k].bias for n in members])


def _parallel_biases_old(bs):
    # parallel_stack's bias joiner before nets._join: a vector is repeated for every member of another bias
    lead = np.broadcast_shapes(*(b.shape[:-1] for b in bs))
    return np.concatenate([np.broadcast_to(b, lead + b.shape[-1:]) for b in bs], axis=-1)


def _pipeline_biases_old(M, *parts):
    # pipeline_average's bias joiner before nets._join: the (M, rows) table of the member biases
    return np.concatenate([np.broadcast_to(b, (M, b.shape[-1])) for b in parts], axis=-1)


def _block_diag(mats):
    # the block-diagonal assembly nets used before its tile assembler
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def _average_nets_old(members, weights):
    # the assembly average_nets replaced: pad, stack all layers but the last
    # side by side, join the weighted last layers in one hstack; nets of depth
    # 1 sum their weighted layers, and one net of weight 1 is returned as is
    depth = max(n.depth for n in members)
    members = [nets.extend_length(n, depth) for n in members]
    if len(members) == 1 and weights[0] == 1.0:
        return members[0]
    if depth == 1:
        w = sum(wt * n.layers[0].weight for wt, n in zip(weights, members))
        b = sum(wt * n.layers[0].bias for wt, n in zip(weights, members))
        return nets.Network((nets.Layer(w, b),))

    layers = [nets.Layer(np.vstack([n.layers[0].weight for n in members]), _stacked_biases(members, 0))]
    for k in range(1, depth - 1):
        layers.append(nets.Layer(_block_diag([n.layers[k].weight for n in members]), _stacked_biases(members, k)))
    layers.append(
        nets.Layer(
            np.hstack([wt * n.layers[-1].weight for wt, n in zip(weights, members)]),
            sum(wt * n.layers[-1].bias for wt, n in zip(weights, members)),
        )
    )
    return nets.Network(tuple(layers))


@pytest.mark.parametrize("N", [3, 8])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("name", problems.problem_names())
def test_step_base_average_gives_the_old_bits(name, d, N):
    # the builder's identity-plus-drift step; heat's zero drift has depth 1
    pb = problems.get_problem(name, d).problem
    h = pb.T / N
    id_aff = nets.affine_net(np.eye(d))
    old = _average_nets_old([nets.extend_length(id_aff, pb.drift_net.depth), pb.drift_net], [1.0, h])
    _assert_layers_equal(nets.average_nets([id_aff, pb.drift_net], [1.0, h]), old)


@pytest.mark.parametrize("d", [1, 3])
def test_quadratic_initial_value_gives_the_old_bits(d):
    # the sum of d square networks, the one average with a single net at d = 1
    R = 8.0
    dup = nets.affine_net(np.array([[1.0], [1.0]]))
    squares = [
        nets.select_inputs(nets.compose(nets.product_net(2.0**-12, R), dup), [i], d)
        for i in range(d)
    ]
    init = problems.quadratic_heat_problem(d, R).problem.init_net
    _assert_layers_equal(init, _average_nets_old(squares, [1.0] * d))


def test_mixed_member_group_average_gives_the_old_bits():
    # with zero last biases the two assemblies agree bitwise, member axes included
    M = 3
    group = [
        nets.Network(n.layers[:-1] + (nets.Layer(n.layers[-1].weight, np.zeros(n.layers[-1].bias.shape)),))
        for n in _mixed_member_group(M)
    ]
    weights = [0.5, 2.0, -1.0, 0.25]
    new = nets.average_nets(group, weights)
    assert new.layers[-1].bias.shape == (M, 2)
    _assert_layers_equal(new, _average_nets_old(group, weights))


@pytest.mark.parametrize("dims", [(2, 5, 1), (2, 5, 4, 1)], ids=["no_hidden_block", "one_hidden_block"])
def test_pipeline_average_matches_member_list_pipeline(dims):
    # templates no build makes: depth 2 has no hidden block between the first and the accumulator
    from test_builder import _pipeline_average_of_members

    M = 3
    template = _shared_weight_template(11, dims, M)
    net = nets.pipeline_average(template, M)
    _assert_layers_equal(net, _pipeline_average_of_members([_member(template, m) for m in range(M)], 1.0 / M))
    assert len({id(l.weight) for l in net.layers}) == template.depth + 2


def test_member_axis_network_is_neither_realized_nor_written():
    # with as many points as members, realize would otherwise broadcast silently
    net = _shared_weight_template(4, (2, 5, 1), 2)
    with pytest.raises(ValueError, match="member axis"):
        nets.realize(net, np.zeros((2, 2)))
    buf = io.StringIO()
    with pytest.raises(ValueError, match="member axis"):
        nets.write_network(buf, net)
    assert buf.getvalue() == ""


# ---------------------------------------------------------------------------
# the tile assembler against the stacking calls it replaced


def _identity_net_old(d):
    eye = np.eye(d)
    return nets.Network(
        (nets.Layer(np.vstack([eye, -eye]), np.zeros(2 * d)), nets.Layer(np.hstack([eye, -eye]), np.zeros(d)))
    )


def _parallel_stack_old(members):
    depth = max(n.depth for n in members)
    members = [nets.extend_length(n, depth) for n in members]
    if len(members) == 1:
        return members[0]
    layers = [nets.Layer(np.vstack([n.layers[0].weight for n in members]), _stacked_biases(members, 0))]
    for k in range(1, depth):
        layers.append(nets.Layer(_block_diag([n.layers[k].weight for n in members]), _stacked_biases(members, k)))
    return nets.Network(tuple(layers))


def _average_nets_mixing_old(members, weights):
    eye = np.eye(members[0].out_dim)
    return nets.compose(nets.affine_net(np.hstack([w * eye for w in weights])), nets.parallel_stack(members))


def _pipeline_average_old(template, M):
    P = template.in_dim
    pairs = 2 * P
    carry, quiet = np.eye(pairs + 2), np.zeros(pairs + 2)
    read = np.hstack([np.eye(P), -np.eye(P), np.zeros((P, 2))])
    biases = lambda *parts: _pipeline_biases_old(M, *parts)
    first, *hidden, out = template.layers
    difference = _block_diag([np.eye(pairs), np.array([[1.0, -1.0], [-1.0, 1.0]])])
    add = np.vstack([np.zeros((pairs, out.in_dim)), out.weight, -out.weight])
    blocks = [(np.vstack([carry, first.weight @ read]), biases(quiet, first.bias))]
    blocks += [(_block_diag([carry, l.weight]), biases(quiet, l.bias)) for l in hidden]
    blocks.append((np.hstack([difference, add]), biases(np.zeros(pairs), out.bias, -out.bias)))
    layers = [nets.Layer(read.T, quiet)]
    for m in range(M):
        layers.extend(nets.Layer(w, b[m]) for w, b in blocks)
    scale = 1.0 / M
    layers.append(nets.Layer(np.hstack([np.zeros((1, pairs)), [[scale, -scale]]]), np.zeros(1)))
    return nets.Network(tuple(layers))


def _product_net_old(eps, R=1.0):
    K = nets.product_depth_stages(eps, R)
    s = 1.0 / (2.0 * R)
    layers = [nets.Layer(np.array([[s, s], [-s, -s], [s, -s], [-s, s]]), np.zeros(4))]
    basis = np.ones((3, 2))
    shift = np.array([0.0, -0.5, -1.0])
    layers.append(nets.Layer(_block_diag([basis, basis]), np.concatenate([shift, shift])))
    saw = np.array([2.0, -4.0, 2.0])
    for k in range(1, K):
        if k == 1:
            blk = np.vstack([saw, saw, saw, np.array([1.0, 0.0, 0.0]) - 0.25 * saw])
        else:
            blk = np.zeros((4, 4))
            blk[:3, :3] = np.vstack([saw, saw, saw])
            blk[3, :3] = -(4.0 ** -k) * saw
            blk[3, 3] = 1.0
        bias = np.array([0.0, -0.5, -1.0, 0.0])
        layers.append(nets.Layer(_block_diag([blk, blk]), np.concatenate([bias, bias])))
    if K == 1:
        fin = (np.array([1.0, 0.0, 0.0]) - 0.25 * saw)[None, :]
    else:
        fin = np.zeros((1, 4))
        fin[0, :3] = -(4.0 ** -K) * saw
        fin[0, 3] = 1.0
    layers.append(nets.Layer(_block_diag([fin, fin]), np.zeros(2)))
    layers.append(nets.Layer(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2)))
    layers.append(nets.Layer(np.array([[R * R, -R * R]]), np.zeros(1)))
    return nets.Network(tuple(layers))


_OLD_ASSEMBLY = {
    "identity_net": _identity_net_old,
    "parallel_stack": _parallel_stack_old,
    "average_nets": _average_nets_mixing_old,
    "pipeline_average": _pipeline_average_old,
    "product_net": _product_net_old,
}


def _old_assembly(monkeypatch, make):
    # make() with every multi-part weight stacked as before; nets, problems and build call through the module
    with monkeypatch.context() as patch:
        for name, old in _OLD_ASSEMBLY.items():
            patch.setattr(nets, name, old)
        return make()


def _assert_assembled(net):
    # every weight is frozen, holds no -0.0, and is shared by a Layer as it is
    for layer in net.layers:
        w = layer.weight
        assert not w.flags.writeable and not np.signbit(w[w == 0.0]).any()
        assert nets.Layer(layer.weight, layer.bias).weight is layer.weight


@pytest.mark.parametrize("d", [1, 3])
def test_identity_net_gives_the_old_bits(d):
    new = nets.identity_net(d)
    _assert_layers_equal(new, _identity_net_old(d))
    _assert_assembled(new)


@pytest.mark.parametrize("eps, R, K", [(1.0, 1.0, 1), (2.0**-4, 1.0, 2), (2.0**-6, 1.0, 3), (2.0**-12, 8.0, 9)])
def test_product_net_gives_the_old_bits(eps, R, K):
    assert nets.product_depth_stages(eps, R) == K
    new = nets.product_net(eps, R)
    _assert_layers_equal(new, _product_net_old(eps, R))
    _assert_assembled(new)


def test_parallel_stack_gives_the_old_bits():
    # member axes, identity padding of shallower nets, and a one-net stack
    gen = np.random.default_rng(21)
    group = _mixed_member_group(3)
    deep = [random_net(gen, (2, 3)), random_net(gen, (2, 4, 1)), random_net(gen, (2, 5, 3, 3, 2))]
    for members in (group, deep, deep[1:2]):
        new = nets.parallel_stack(members)
        _assert_layers_equal(new, _parallel_stack_old(members))
        _assert_assembled(new)


@pytest.mark.parametrize("M", [1, 3])
@pytest.mark.parametrize("dims", [(2, 5, 1), (2, 5, 4, 1), (3, 6, 5, 4, 1)])
def test_pipeline_average_gives_the_old_bits(dims, M):
    # zeros in the template's weights make -0.0 in the negated tiles, which must come out +0.0
    template = _shared_weight_template(31, dims, M)
    template = nets.Network(
        tuple(nets.Layer(np.where(np.abs(l.weight) < 0.3, 0.0, l.weight), l.bias) for l in template.layers)
    )
    new = nets.pipeline_average(template, M)
    _assert_layers_equal(new, _pipeline_average_old(template, M))
    _assert_assembled(new)


def _solve(maker, d, N, M):
    return build.solve(maker(d).problem, bounds.Budget(N=N, M=M, delta=2.0**-8), seed=2026).net


_BUILDS = [
    (problems.heat_relu_problem, 1, 3, 1),
    (problems.heat_relu_problem, 2, 2, 3),
    (problems.ou_linear_problem, 1, 2, 2),
    (problems.ou_linear_problem, 3, 3, 1),
    (problems.quadratic_heat_problem, 1, 2, 3),
    (problems.quadratic_heat_problem, 2, 3, 2),
    (problems.heat_relu_problem, 1, 8, 64),  # the README reference
]


@pytest.mark.parametrize("maker, d, N, M", _BUILDS)
def test_builds_give_the_old_bits(monkeypatch, maker, d, N, M):
    # the problem's own networks are assembled inside the same swap
    new = _solve(maker, d, N, M)
    _assert_layers_equal(new, _old_assembly(monkeypatch, lambda: _solve(maker, d, N, M)))
    _assert_assembled(new)
    if (d, N, M) == (1, 8, 64):
        # 1,730 layers that hold 29 weight arrays
        assert new.depth == 1730 and len({id(l.weight) for l in new.layers}) == 29


def _copies(monkeypatch, make):
    # make() and how many arrays Layer copied meanwhile: _freeze's copy branch
    freeze, copies = nets._freeze, [0]

    def counting(a):
        out = freeze(a)
        copies[0] += out is not a
        return out

    with monkeypatch.context() as patch:
        patch.setattr(nets, "_freeze", counting)
        return make(), copies[0]


@pytest.mark.parametrize("maker, d, N, M", _BUILDS)
def test_member_biases_are_rows_of_one_table_per_block(tmp_path, monkeypatch, maker, d, N, M):
    net, copies = _copies(monkeypatch, lambda: _solve(maker, d, N, M))
    assert copies <= 250  # 2,080 on the reference build when each member row was copied
    if M > 1:
        # between the read and average layers, M members of B blocks; block j of member m holds row m of table j
        blocks = (net.depth - 2) // M
        tables = [net.layers[1 + j].bias.base for j in range(blocks)]
        assert len({id(t) for t in tables}) == blocks
        for i, layer in enumerate(net.layers[1:-1]):
            (m, j), table = divmod(i, blocks), tables[i % blocks]
            assert layer.bias.base is table and table.shape == (M, layer.out_dim)
            assert layer.bias.ctypes.data == table[m].ctypes.data and layer.bias.strides == table[m].strides
            assert not table.flags.writeable and not np.signbit(table[table == 0.0]).any()
        if (d, N, M) == (1, 8, 64):
            assert blocks == 27 and len({id(l.bias.base) for l in net.layers[1:-1]}) == 27
    # a file's arrays are converted once and shared by the layers as they are
    path = tmp_path / "net.json"
    build.save_solution(build.SolutionNet(net, {}), path)
    back, copies = _copies(monkeypatch, lambda: build.load_solution(path).net)
    _assert_layers_equal(back, net)
    assert copies == 0  # 101 on the reference file when each converted array was copied


@pytest.mark.parametrize("M", [None, 3])
def test_join_gives_the_bits_of_both_old_bias_joiners(M):
    # vectors holding -0.0, and with M a member table among them; _join makes -0.0 +0.0, as Layer did
    gen = np.random.default_rng(12)
    parts = [np.array([-0.0, 1.5, 0.0]), gen.normal(size=2 if M is None else (M, 2)), np.array([-2.0, -0.0])]
    parts[1][..., 0] = -0.0
    members = 3 if M is None else M
    pairs = [(nets._join(parts), _parallel_biases_old(parts))]
    pairs.append((nets._join(parts, (members,)), _pipeline_biases_old(members, *parts)))
    for joined, old in pairs:
        assert joined.shape == old.shape and joined.tobytes() == (old + 0.0).tobytes()
        assert not joined.flags.writeable and not np.signbit(joined[joined == 0.0]).any()
        weight = np.ones((joined.shape[-1], 1))
        assert nets.Layer(weight, joined).bias is joined
        if joined.ndim == 2:
            row = joined[1]
            assert nets.Layer(weight, row).bias is row


def test_layer_shares_the_assembled_array():
    w = nets._assemble((3, 4), [(0, 0, -np.eye(2)), (2, 1, [[-0.0, 5.0]])])
    layer = nets.Layer(w, np.zeros(3))
    assert layer.weight is w and not w.flags.writeable
    assert not np.signbit(w[w == 0.0]).any()
    assert w.tolist() == [[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 5.0, 0.0]]
    # compose's fused weight is frozen in place and shared the same way
    f = nets.affine_net(np.array([[-1.0, 1.0]]))
    fused = nets.compose(f, nets.affine_net(np.array([[0.0, 2.0], [0.0, -3.0]]))).layers[0]
    assert fused.weight.tolist() == [[0.0, -5.0]] and not np.signbit(fused.weight[0, 0])
    assert nets.Layer(fused.weight, fused.bias).weight is fused.weight
    # and so is its fused bias, a vector or a member table
    g = nets.affine_net(np.array([[1.0], [2.0]]), np.array([[-1.0, 0.5], [2.0, -0.0]]))
    for fused in (fused, nets.compose(f, g).layers[0]):
        assert not fused.bias.flags.writeable and nets.Layer(fused.weight, fused.bias).bias is fused.bias


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
        nets.pipeline_average(_shared_weight_template(4, (2, 5, 4, 1), 3), 3),
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
        nets.Layer(np.zeros((2, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        nets.Layer(np.zeros((2, 2)), np.zeros((4, 1, 2)))
    with pytest.raises(ValueError):
        nets.Network(())
    with pytest.raises(ValueError):
        nets.Network(
            (nets.Layer(np.zeros((2, 2)), np.zeros(2)), nets.Layer(np.zeros((1, 3)), np.zeros(1)))
        )


def test_layer_shares_the_arrays_a_layer_owns():
    first = nets.Layer(np.ones((2, 3)), np.zeros(2))
    second = nets.Layer(first.weight, first.bias)
    assert second.weight is first.weight and second.bias is first.bias


def _writable(w):
    return w, lambda: w.fill(7.0)


def _read_only(w):
    # read-only, but owned by the caller, who may make it writable again
    w.flags.writeable = False

    def mutate():
        w.flags.writeable = True
        w.fill(7.0)

    return w, mutate


def _broadcast_view(w):
    row = w[0].copy()
    return np.broadcast_to(row, w.shape), lambda: row.fill(7.0)


def _read_only_view(w):
    # read-only, but a view of the caller's writable array
    view = w[:]
    view.flags.writeable = False
    return view, lambda: w.fill(7.0)


@pytest.mark.parametrize("given", [_writable, _read_only, _broadcast_view, _read_only_view])
def test_layer_copies_arrays_it_did_not_freeze(given):
    weight, mutate = given(np.array([[-0.0, 1.0, -2.0], [-0.0, 1.0, -2.0]]))
    layer = nets.Layer(weight, np.array([-0.0, 3.0]))
    assert layer.weight is not weight and np.array_equal(layer.weight, weight)
    assert not np.signbit(layer.weight[:, 0]).any() and not np.signbit(layer.bias[0])
    mutate()
    assert np.array_equal(layer.weight, [[0.0, 1.0, -2.0], [0.0, 1.0, -2.0]])
    assert not layer.weight.flags.writeable


def test_layer_copies_views_of_an_owned_array_in_another_dtype_and_lists():
    owned = nets.Layer(np.array([[1.5, -2.0]]), np.zeros(1)).weight
    for given in (owned.view(">f8"), owned.view(np.int64), [[1.5, -0.0]]):
        layer = nets.Layer(given, np.zeros(1))
        assert layer.weight is not given and layer.weight.dtype == np.float64
        assert not layer.weight.flags.writeable
        assert layer.weight.tobytes() == (np.asarray(given, np.float64) + 0.0).tobytes()


def test_network_from_doc_leaves_the_callers_arrays_as_they_are():
    weight, bias = np.array([-0.0, 2.0, 3.0, -4.0]), np.array([-0.0, 1.0])
    doc = {"version": nets.NETWORK_FORMAT_VERSION, "dims": [2, 2], "layers": [{"weight": weight, "bias": bias}]}
    layer = nets.network_from_doc(doc).layers[0]
    assert weight.flags.writeable and bias.flags.writeable
    assert np.signbit(weight[0]) and np.signbit(bias[0])  # not made +0.0 in place
    weight.fill(7.0)
    bias.fill(7.0)
    assert layer.weight.tolist() == [[0.0, 2.0], [3.0, -4.0]] and layer.bias.tolist() == [0.0, 1.0]
    assert not np.signbit(layer.weight[0, 0]) and not np.signbit(layer.bias[0])


def test_network_from_doc_shares_each_distinct_list_and_shape():
    # equal array texts come back as one list; each (list, shape) becomes one array
    net = _equal_bytes_net()
    buf = io.StringIO()
    nets.write_network(buf, net)
    back = nets.network_from_doc(build._loads(buf.getvalue()))
    _assert_layers_equal(back, net)
    weights = [l.weight for l in back.layers]
    # layers 1 and 3 repeat one matrix; layer 0 holds its text under another shape
    assert weights[1] is weights[3]
    assert weights[0] is not weights[1] and weights[0].shape == (2, 3)
    assert len({id(w) for w in weights}) == len({(w.shape, w.tobytes()) for w in weights})
    assert all(not w.flags.writeable for w in weights)


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
