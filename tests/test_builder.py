"""Builder contracts: emulation error, adaptedness, growth, averaging, IO."""

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from kolmonet import bounds, build, nets, problems, sde


def _grid(N, T=1.0):
    return np.arange(N + 1) * (T / N)


def _zero_drift(d):
    return nets.affine_net(np.zeros((d, d)), np.zeros(d))


def test_single_step_zero_drift_zero_noise_is_exact_identity():
    psi = build.build_euler_net(_zero_drift(1), np.zeros((1, 1)), _grid(1), 0.5)
    gen = np.random.default_rng(0)
    pts = np.column_stack([gen.uniform(0, 1, 20), gen.uniform(-3, 3, 20)])
    out = nets.realize(psi, pts)
    assert np.array_equal(out.ravel(), pts[:, 1])


def test_grid_time_deviation_within_bound():
    gen = np.random.default_rng(1)
    d, N, delta = 1, 4, 2.0**-6
    tp = problems.ou_linear_problem(d)
    drift = tp.problem.drift_net
    inc = gen.normal(scale=0.5, size=(N, d))
    grid = _grid(N)
    psi = build.build_euler_net(drift, inc, grid, delta, growth=(0.0, 1.0))
    running_max = np.maximum.accumulate(sde.walk_norms(inc))
    for x in (-1.2, 0.0, 0.7):
        # the scheme at the grid times is the grid state
        states = sde.mc_values(lambda y: y, drift, inc[None], 1.0, grid, np.full((N + 1, d), x))
        for n in range(N + 1):
            val = nets.realize(psi, np.array([grid[n], x]))
            want = states[n]
            m = min(n, N - 1)
            g = bounds.drift_growth_envelope(abs(x), 0.0, 1.0, grid[m : m + 2], running_max[m : m + 2])
            cap = bounds.euler_emulation_error_bound(delta, d, 3.0, g[0], g[1])
            assert np.abs(val - want).max() <= cap


def test_random_points_deviation_within_bound():
    gen = np.random.default_rng(2)
    d, N, delta = 1, 2, 2.0**-5
    drift = problems.ou_linear_problem(d).problem.drift_net
    inc = gen.normal(scale=0.7, size=(N, d))
    grid = _grid(N)
    psi = build.build_euler_net(drift, inc, grid, delta, growth=(0.0, 1.0))
    running_max = np.maximum.accumulate(sde.walk_norms(inc))
    points = [(gen.uniform(0.0, 1.0), gen.uniform(-2.0, 2.0, size=d)) for _ in range(1000)]
    ts, xs = np.array([t for t, _ in points]), np.array([x for _, x in points])
    wants = sde.mc_values(lambda y: y, drift, inc[None], 1.0, ts, xs)
    worst = 0.0
    for t, x, want in zip(ts, xs, wants):
        got = nets.realize(psi, np.concatenate([[t], x]))
        n = min(int(t * N), N - 1)
        g = bounds.drift_growth_envelope(np.linalg.norm(x), 0.0, 1.0, grid[n : n + 2], running_max[n : n + 2])
        cap = bounds.euler_emulation_error_bound(delta, d, 3.0, g[0], g[1])
        dev = np.abs(got - want).max()
        worst = max(worst, dev / cap)
        assert dev <= cap
    assert worst <= 1.0


def test_adaptedness_exact_on_shared_prefix():
    gen = np.random.default_rng(3)
    for d in (1, 2):
        N = 4
        drift = problems.ou_linear_problem(d).problem.drift_net
        y = gen.normal(size=(N, d))
        for n_agree in (1, 2, 3):
            z = y.copy()
            z[n_agree:] += gen.normal(size=(N - n_agree, d))
            py = build.build_euler_net(drift, y, _grid(N), 0.25, growth=(0.0, 1.0))
            pz = build.build_euler_net(drift, z, _grid(N), 0.25, growth=(0.0, 1.0))
            ts = np.linspace(0.0, n_agree / N, 9)
            pts = np.column_stack([ts, np.tile(gen.uniform(-2, 2, size=d), (9, 1))])
            assert np.array_equal(nets.realize(py, pts), nets.realize(pz, pts))


def test_growth_bound_sampled():
    gen = np.random.default_rng(4)
    for d in (1, 2):
        N = 2
        drift = problems.ou_linear_problem(d).problem.drift_net
        grid = _grid(N)
        for _ in range(16):
            y = gen.normal(size=(N, d))
            psi = build.build_euler_net(drift, y, grid, 0.5, growth=(0.0, 1.0))
            ts = gen.uniform(0, 1, size=313)
            xs = gen.uniform(-3, 3, size=(313, d))
            vals = np.linalg.norm(nets.realize(psi, np.column_stack([ts, xs])), axis=1)
            running_max = np.maximum.accumulate(sde.walk_norms(y))
            n = np.minimum((ts * N).astype(int), N - 1)
            g_lo, g_hi = (
                bounds.drift_growth_envelope(np.linalg.norm(xs, axis=1), 0.0, 1.0, grid[m], running_max[m])
                for m in (n, n + 1)
            )
            assert np.all(vals <= 6 * math.sqrt(d) + 2 * (g_lo**2 + g_hi**2))


def test_builder_input_validation():
    drift = _zero_drift(1)
    with pytest.raises(ValueError):
        build.build_euler_net(drift, np.zeros((2, 1)), _grid(2), 1.5)
    with pytest.raises(ValueError):
        build.build_euler_net(drift, np.zeros((2, 1)), np.array([0.0, 0.3, 1.0]), 0.5)
    for shape in [(2,), (3, 1), (4, 3, 1), (2, 4, 2, 1)]:
        with pytest.raises(ValueError, match="increments must have shape"):
            build.build_euler_net(drift, np.zeros(shape), _grid(2), 0.5)
    template = build.build_euler_net(drift, np.zeros((3, 2, 1)), _grid(2), 0.5)
    with pytest.raises(ValueError, match="carry 4 members"):
        nets.pipeline_average(template, 4)
    with pytest.raises(ValueError, match="scalar"):
        nets.pipeline_average(nets.parallel_stack([template, template]), 3)


def _pipeline_average_of_members(members, scale):
    """The pipeline average of a list of path networks, one weight matrix per member layer."""
    P = members[0].in_dim
    pairs = 2 * P
    width0 = pairs + 2
    read = np.hstack([np.eye(P), -np.eye(P)])
    entry = np.zeros((width0, P))
    entry[:P, :] = np.eye(P)
    entry[P:pairs, :] = -np.eye(P)
    layers = [nets.Layer(entry, np.zeros(width0))]
    for net in members:
        prev = 0
        for k in range(net.depth - 1):
            lay = net.layers[k]
            w = lay.out_dim
            wk = np.zeros((width0 + w, width0 + prev))
            wk[:width0, :width0] = np.eye(width0)
            bk = np.zeros(width0 + w)
            if k == 0:
                wk[width0:, :pairs] = lay.weight @ read
            else:
                wk[width0:, width0:] = lay.weight
            bk[width0:] = lay.bias
            layers.append(nets.Layer(wk, bk))
            prev = w
        out = net.layers[-1]
        wt = np.zeros((width0, width0 + prev))
        bt = np.zeros(width0)
        wt[:pairs, :pairs] = np.eye(pairs)
        wt[pairs, pairs] = 1.0
        wt[pairs, pairs + 1] = -1.0
        wt[pairs + 1, pairs] = -1.0
        wt[pairs + 1, pairs + 1] = 1.0
        wt[pairs, width0:] = out.weight[0]
        wt[pairs + 1, width0:] = -out.weight[0]
        bt[pairs] = out.bias[0]
        bt[pairs + 1] = -out.bias[0]
        layers.append(nets.Layer(wt, bt))
    final = np.zeros((1, width0))
    final[0, pairs] = scale
    final[0, pairs + 1] = -scale
    layers.append(nets.Layer(final, np.zeros(1)))
    return nets.Network(tuple(layers))


def _assert_layers_equal(a, b):
    assert a.dims == b.dims
    for la, lb in zip(a.layers, b.layers):
        assert la.weight.shape == lb.weight.shape and la.bias.shape == lb.bias.shape
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


@pytest.mark.parametrize(
    "maker, d, N, M, delta, seed",
    [
        (problems.heat_relu_problem, 1, 8, 64, 2.0**-8, 2026),  # the README reference build
        (problems.quadratic_heat_problem, 1, 3, 4, 2.0**-4, 6),
        (problems.quadratic_heat_problem, 3, 2, 3, 2.0**-2, 7),
        (problems.ou_linear_problem, 2, 4, 3, 2.0**-4, 5),
        (problems.ou_linear_problem, 2, 1, 5, 2.0**-3, 8),  # N = 1
        (problems.heat_relu_problem, 2, 3, 1, 2.0**-3, 9),  # M = 1
        (problems.ou_linear_problem, 1, 1, 1, 2.0**-1, 10),
    ],
)
def test_template_build_matches_per_path_builds(maker, d, N, M, delta, seed):
    # oracle: each path network built from its own increments, then the member-list pipeline
    pb = maker(d).problem
    noise = sde.sample_brownian(seed, N, M + 1, d, pb.T, sde.sqrtm_psd(2.0 * pb.A))
    growth = (pb.params.C, pb.params.c)
    paths = [
        build.build_euler_net(pb.drift_net, noise.increments[m], noise.grid, delta, growth)
        for m in range(M)
    ]
    template = build.build_euler_net(pb.drift_net, noise.increments[:M], noise.grid, delta, growth)
    assert any(l.bias.ndim == 2 for l in template.layers)
    for m, path in enumerate(paths):
        member = nets.Network(
            tuple(nets.Layer(l.weight, l.bias[m] if l.bias.ndim == 2 else l.bias) for l in template.layers)
        )
        _assert_layers_equal(member, path)
    members = [nets.compose(pb.init_net, path) for path in paths]
    oracle = members[0] if M == 1 else _pipeline_average_of_members(members, 1.0 / M)
    net = build.build_mc_average_net(pb, bounds.Budget(N=N, M=M, delta=delta), noise).net
    _assert_layers_equal(net, oracle)
    if M > 1:
        # one weight array per template layer, shared by every member, plus entry and exit
        assert len({id(l.weight) for l in net.layers}) == members[0].depth + 2


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("name", problems.problem_names())
def test_problem_diffusion_factor_is_sqrtm_of_twice_a(name, d):
    pb = problems.get_problem(name, d).problem
    assert pb.B.tobytes() == sde.sqrtm_psd(2.0 * pb.A).tobytes()
    assert pb.B is pb.B  # computed once


def test_average_m1_reduces_to_composition():
    tp = problems.heat_relu_problem(1)
    noise = sde.sample_brownian(7, 2, 1, 1, 1.0, sde.sqrtm_psd(2 * tp.problem.A))
    sol = build.build_mc_average_net(tp.problem, bounds.Budget(N=2, M=1, delta=0.5), noise)
    direct = nets.compose(
        tp.problem.init_net,
        build.build_euler_net(
            tp.problem.drift_net, noise.increments[0], noise.grid, 0.5, growth=(0.0, 0.0)
        ),
    )
    assert sol.net.dims == direct.dims
    gen = np.random.default_rng(5)
    pts = np.column_stack([gen.uniform(0, 1, 50), gen.uniform(-2, 2, 50)])
    assert np.array_equal(nets.realize(sol.net, pts), nets.realize(direct, pts))


def _direct_mc_average(tp, noise, ts, xs):
    """Oracle: per sampled point, average the initial net over the scheme paths."""
    out = np.empty(len(ts))
    for i in range(len(ts)):
        vals = sde.mc_values(tp.problem.init_net, tp.problem.drift_net, noise.increments, noise.T, [ts[i]], xs[i : i + 1])
        out[i] = vals.mean()
    return out


def test_average_deviation_within_mc_sum_bound():
    tp = problems.heat_relu_problem(1)
    budget = bounds.Budget(N=4, M=4, delta=2.0**-6)
    B = sde.sqrtm_psd(2 * tp.problem.A)
    noise = sde.sample_brownian(11, budget.N, budget.M, 1, 1.0, B)
    sol = build.build_mc_average_net(tp.problem, budget, noise)
    gen = np.random.default_rng(6)
    ts = gen.uniform(0, 1, 128)
    xs = gen.uniform(-1, 1, size=(128, 1))
    got = nets.realize(sol.net, np.column_stack([ts, xs])).ravel()
    want = _direct_mc_average(tp, noise, ts, xs)
    max_walk = sde.walk_norms(noise.increments).max(axis=1)
    h2, h3 = (bounds.path_growth_factor(np.abs(xs), 0.0, 0.0, 1.0, max_walk, r) for r in (2.0, 3.0))
    caps = bounds.mc_sum_error_bound(budget.delta, 1, 0.0, 1.0, budget.M, h2, h3)
    assert np.all(np.abs(got - want) <= caps)


def test_param_count_within_bound_small_instance():
    tp = problems.heat_relu_problem(1)
    budget = bounds.Budget(N=2, M=2, delta=0.5)
    noise = sde.sample_brownian(13, 2, 2, 1, 1.0, sde.sqrtm_psd(2 * tp.problem.A))
    sol = build.build_mc_average_net(tp.problem, budget, noise)
    count = nets.param_count(sol.net)
    assert count <= bounds.solution_param_bound(tp.problem.params, 1, 2, 2, 0.5)
    assert sol.provenance["bound_values"]["param_count"] == count
    # the sharper per-construction forms hold as well
    frak_d = bounds.product_size_budget(0.5, 3.0)
    drift = tp.problem.drift_net
    assert count <= bounds.mc_sum_param_bound(
        2, 2, 1, frak_d, drift.depth, nets.param_count(drift), nets.param_count(tp.problem.init_net)
    )


def test_solve_deterministic_and_prefix_stable():
    tp = problems.heat_relu_problem(1)
    budget = bounds.Budget(N=2, M=2, delta=0.5)
    a = build.solve(tp.problem, budget, seed=99)
    b = build.solve(tp.problem, budget, seed=99)
    assert build.serialize(a) == build.serialize(b)
    # doubling M with the same seed keeps the per-path networks identical
    n2 = sde.sample_brownian(99, 2, 2, 1, 1.0, sde.sqrtm_psd(2 * tp.problem.A))
    n4 = sde.sample_brownian(99, 2, 4, 1, 1.0, sde.sqrtm_psd(2 * tp.problem.A))
    for m in range(2):
        pa = build.build_euler_net(tp.problem.drift_net, n2.increments[m], n2.grid, 0.5)
        pb = build.build_euler_net(tp.problem.drift_net, n4.increments[m], n4.grid, 0.5)
        for la, lb in zip(pa.layers, pb.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)


def test_serialize_round_trip_identity_based():
    net = nets.identity_net(3)
    sol = build.SolutionNet(net=net, provenance={"seed": 0, "N": 1, "M": 1, "delta": 1.0})
    data = build.serialize(sol)
    back = build.deserialize(data)
    assert build.serialize(back) == data
    x = np.array([0.3, -1.0, 2.0])
    assert np.array_equal(nets.realize(back.net, x), x)


def test_serialize_round_trip_random_net_bit_equal():
    gen = np.random.default_rng(8)
    layers = tuple(
        nets.Layer(gen.normal(size=(a, b)), gen.normal(size=a))
        for a, b in [(4, 2), (3, 4), (1, 3)]
    )
    sol = build.SolutionNet(net=nets.Network(layers), provenance={"seed": 1})
    back = build.deserialize(build.serialize(sol))
    for la, lb in zip(sol.net.layers, back.net.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_deserialize_corrupted_header():
    sol = build.SolutionNet(net=nets.identity_net(2), provenance={"seed": 0})
    data = build.serialize(sol).decode()
    with pytest.raises(build.SolutionNetFormatError):
        build.deserialize(data.replace('"dims": [2, 4, 2]', '"dims": [2, 4]').encode())
    with pytest.raises(build.SolutionNetFormatError):
        build.deserialize(b"not json at all")
    with pytest.raises(build.SolutionNetFormatError):
        build.deserialize(data.replace("kolmonet-solution", "something-else").encode())


@pytest.mark.parametrize(
    "good, bad",
    [
        ('"bias": [0, 0]', '"bias": [NaN, 0]'),
        ('"bias": [0, 0]', '"bias": [Infinity, 0]'),
        ('"bias": [0, 0]', '"bias": [-Infinity, 0]'),
        ('"bias": [0, 0]', '"bias": [1e400, 0]'),
        ('"delta": 0.5', '"delta": NaN'),
        ('"delta": 0.5', '"delta": -Infinity'),
    ],
)
def test_deserialize_rejects_non_finite(good, bad):
    sol = build.SolutionNet(net=nets.affine_net(np.ones((2, 1))), provenance={"delta": 0.5})
    data = build.serialize(sol).decode()
    assert good in data
    with pytest.raises(build.SolutionNetFormatError, match="non-finite"):
        build.deserialize(data.replace(good, bad).encode())


def test_serialize_refuses_non_finite_provenance(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_bytes(b"an earlier build")
    for value in (math.inf, -math.inf, math.nan):
        sol = build.SolutionNet(
            net=nets.identity_net(1), provenance={"bound_values": {"error_bound_unit_mass": value}}
        )
        with pytest.raises(ValueError, match="provenance holds a value the reader rejects"):
            build.serialize(sol)
        for path in (old, new):
            with pytest.raises(ValueError):
                build.save_solution(sol, path)
    assert old.read_bytes() == b"an earlier build"
    assert not new.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["weight", "bias"])
def test_save_solution_refuses_a_non_finite_network_before_opening(tmp_path, field, value):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_bytes(b"an earlier build")
    tp = problems.ou_linear_problem(1)
    sol = build.solve(tp.problem, bounds.Budget(N=2, M=2, delta=2.0**-4), seed=31415)
    layers = list(sol.net.layers)
    k = len(layers) - 2  # a later layer: the writer would have written most of the file by then
    arrays = {"weight": np.array(layers[k].weight), "bias": np.array(layers[k].bias)}
    arrays[field].flat[-1] = value
    layers[k] = nets.Layer(**arrays)
    bad = build.SolutionNet(nets.Network(tuple(layers)), sol.provenance)
    for path in (old, new):
        with pytest.raises(ValueError, match="non-finite"):
            build.save_solution(bad, path)
    assert old.read_bytes() == b"an earlier build"
    assert not new.exists()


def test_build_with_an_error_bound_beyond_float_range_raises():
    # at kappa = 8, d = 10 the error bound is near 3e383: the build stops with its log10
    # rather than hand the writer a provenance that holds inf
    tp = problems.heat_relu_problem(10)
    pb = dataclasses.replace(tp.problem, params=dataclasses.replace(tp.problem.params, kappa=8.0))
    noise = sde.sample_brownian(7, 1, 1, 10, 1.0, sde.sqrtm_psd(2 * pb.A))
    with pytest.raises(OverflowError, match="^solution_error_bound exceeds float range: log10 = 383.466192$"):
        build.build_mc_average_net(pb, bounds.Budget(N=1, M=1, delta=0.5), noise)


def _deserialize_oracle(data):
    """The reader before each distinct array text was parsed once: json.loads, then np.asarray per layer."""
    doc = json.loads(data.decode(), parse_constant=build._reject_constant)
    dims = doc["network"]["dims"]
    layers = tuple(
        nets.Layer(
            np.asarray(entry["weight"], dtype=np.float64).reshape(dims[k + 1], dims[k]),
            np.asarray(entry["bias"], dtype=np.float64),
        )
        for k, entry in enumerate(doc["network"]["layers"])
    )
    return nets.Network(layers), doc["provenance"]


def _assert_reads_as_oracle(data, read=build.deserialize):
    back = read(data)
    net, provenance = _deserialize_oracle(data)
    assert back.provenance == provenance
    assert back.net.dims == net.dims
    for la, lb in zip(back.net.layers, net.layers):
        assert la.weight.shape == lb.weight.shape
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()
    return back


@pytest.mark.parametrize(
    "maker, d, N, M, delta, seed",
    [
        (problems.heat_relu_problem, 1, 8, 64, 2.0**-8, 2026),  # the README reference build
        (problems.ou_linear_problem, 2, 4, 3, 2.0**-4, 5),
        (problems.quadratic_heat_problem, 1, 3, 4, 2.0**-4, 6),
    ],
)
def test_reader_matches_json_oracle_on_builds(maker, d, N, M, delta, seed):
    sol = build.solve(maker(d).problem, bounds.Budget(N=N, M=M, delta=delta), seed=seed)
    back = _assert_reads_as_oracle(build.serialize(sol))
    assert back.provenance == sol.provenance
    # equal weight matrices load as one shared array, as they were built
    weights = [l.weight for l in back.net.layers]
    assert len({id(w) for w in weights}) == len({(w.shape, w.tobytes()) for w in weights})
    assert len({id(w) for w in weights}) == len({id(l.weight) for l in sol.net.layers})


def test_reader_parses_each_distinct_array_text_once(monkeypatch):
    sol = build.solve(problems.ou_linear_problem(1).problem, bounds.Budget(N=2, M=4, delta=2.0**-4), seed=2)
    data = build.serialize(sol)
    arrays = re.findall(r"\[[^\[\]]*\]", data.decode())
    assert len(set(arrays)) < len(arrays)
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    build.deserialize(data)
    assert sorted(parsed) == sorted(set(arrays))


_HAND_EDITED = """{ "format" : "kolmonet-solution",\r
  "version": 1,
  "network": {"dims": [ 2,\t3, 1 ], "version": 1,
    "layers": [
      {"weight": [ 1,  -0 ,
                   0.5, 2e-3, -0.0, 7 ], "bias": [-0, 1,2]},
      {"bias": [5], "weight": [1,
 1,1]}
    ]},
  "provenance": {"note": "[1, 2] and ]", "pair": [[1, 2], [1, 2]], "nested": [[[3]], [], [5]],
                 "tags": ["x]", "[y", "{z"], "bias_text": [5], "seed": 3}
}
"""


def test_reader_matches_json_oracle_on_hand_edited_documents():
    back = _assert_reads_as_oracle(_HAND_EDITED.encode())
    assert back.net.dims == (2, 3, 1)
    assert back.provenance["note"] == "[1, 2] and ]"
    # equal texts parse to one list inside the reader; the caller's lists are its own
    first, second = back.provenance["pair"]
    assert first == second and first is not second
    back.provenance["bias_text"].append(6)
    assert build.deserialize(_HAND_EDITED.encode()).provenance["bias_text"] == [5]
    one = build.serialize(build.SolutionNet(net=nets.affine_net([[2.5]], [-1.0]), provenance={"seed": 1}))
    assert b'"weight": [2.5], "bias": [-1]' in one
    _assert_reads_as_oracle(one)


_REJECTED_EDITS = [
    lambda text: text[: len(text) // 2],  # truncated inside a bias array
    lambda text: text[:-3],  # truncated after the last array
    lambda text: text.replace('"bias": [5]', '"bias": [5'),  # unclosed [
    lambda text: text.replace('"pair": [[1, 2]', '"pair": [[1, 2,]'),  # a bad number array
    lambda text: text.replace("0.5, 2e-3", "0.5,\n 2e-3 x"),  # a bad value on a later line
    lambda text: text.replace('"bias": [5]', '"bias": []'),  # parses, but the bias does not fit
    lambda text: "\ufeff" + text,  # a UTF-8 byte order mark
]


@pytest.mark.parametrize("edit", _REJECTED_EDITS)
def test_reader_rejects_what_the_json_oracle_rejects(edit):
    data = edit(_HAND_EDITED).encode()
    with pytest.raises((json.JSONDecodeError, ValueError)) as oracle:
        _deserialize_oracle(data)
    with pytest.raises(build.SolutionNetFormatError) as reader:
        build.deserialize(data)
    if isinstance(oracle.value, json.JSONDecodeError):
        assert str(reader.value) == "not a solution-network document: %s" % oracle.value


# two array texts of equal length whose first and last _KEY bytes agree: they share a lookup key
_KEY_TWINS = ["[%s]" % ", ".join("1" * 7 + middle + "1" * 7) for middle in "23"]
_KEY_TWINS_DOCUMENT = """{"format": "kolmonet-solution", "version": 1,
  "network": {"dims": [15, 1, 15, 1], "version": 1, "layers": [
    {"weight": %(a)s, "bias": [0]},
    {"weight": %(b)s, "bias": %(a)s},
    {"weight": %(a)s, "bias": [0.5]}]},
  "provenance": {"rows": [%(b)s, %(a)s, %(b)s], "seed": 1}}
""" % dict(zip("ab", _KEY_TWINS))


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_reader_tells_apart_array_texts_that_share_a_lookup_key(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(build, "_CHUNK", chunk)
    a, b = _KEY_TWINS
    k = build._KEY
    assert len(a) == len(b) > 2 * k and a[:k] == b[:k] and a[-k:] == b[-k:] and a != b
    back = _assert_reads_as_oracle(_KEY_TWINS_DOCUMENT.encode())
    assert back.provenance["rows"] == [json.loads(b), json.loads(a), json.loads(b)]
    assert back.net.layers[1].weight.ravel().tolist() == json.loads(b)


class _Unseekable(io.BytesIO):
    """A stream the reader cannot read a second time: a document it takes for malformed raises here."""

    def seek(self, *args):
        raise AssertionError("the reader read a valid document a second time")


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_reader_reads_every_written_file_in_one_pass(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(build, "_CHUNK", chunk)
    documents = [_HAND_EDITED.encode()]
    for maker in (problems.heat_relu_problem, problems.ou_linear_problem, problems.quadratic_heat_problem):
        for d in (1, 2):
            for M in (1, 2):
                sol = build.solve(maker(d).problem, bounds.Budget(N=2, M=M, delta=2.0**-4), seed=11)
                documents.append(build.serialize(sol))
    if chunk is None:  # 23 MB: at a few bytes a read the scan would take minutes
        reference = bounds.Budget(N=8, M=64, delta=2.0**-8)
        documents.append(build.serialize(build.solve(problems.heat_relu_problem(1).problem, reference, seed=2026)))
    for data in documents:
        _assert_reads_as_oracle(data, lambda raw: build._read(_Unseekable(raw)))


def _deeply_nested(inside_provenance):
    # 5,000 nested arrays, deeper than json parses
    deep = "[" * 5000 + "]" * 5000
    if inside_provenance:
        return '{"format": "kolmonet-solution", "version": 1, "provenance": {"x": %s}, "network": {}}' % deep
    return '{"format": "kolmonet-solution", "x": %s}' % deep


@pytest.mark.parametrize("inside_provenance", [False, True])
def test_reader_rejects_nesting_json_cannot_parse(tmp_path, inside_provenance):
    text = _deeply_nested(inside_provenance)
    with pytest.raises(RecursionError):
        json.loads(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(build.SolutionNetFormatError, match="^not a solution-network document: maximum recursion depth"):
        build.load_solution(path)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, None])
def test_reader_matches_json_oracle_at_any_chunk_size(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(build, "_CHUNK", chunk)
    back = _assert_reads_as_oracle(_HAND_EDITED.encode())
    assert back.provenance["note"] == "[1, 2] and ]"
    sol = build.solve(problems.ou_linear_problem(1).problem, bounds.Budget(N=2, M=2, delta=2.0**-4), seed=31415)
    _assert_reads_as_oracle(build.serialize(sol))
    for edit in _REJECTED_EDITS:
        data = edit(_HAND_EDITED).encode()
        with pytest.raises((json.JSONDecodeError, ValueError)) as oracle:
            _deserialize_oracle(data)
        with pytest.raises(build.SolutionNetFormatError) as reader:
            build.deserialize(data)
        if isinstance(oracle.value, json.JSONDecodeError):
            assert str(reader.value) == "not a solution-network document: %s" % oracle.value


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_reader_chunks_end_inside_strings_and_arrays(monkeypatch, chunk):
    monkeypatch.setattr(build, "_CHUNK", chunk)
    fh, ends = io.BytesIO(_HAND_EDITED.encode()), [0]

    def read(n):
        part = fh.read(n)
        ends.append(ends[-1] + len(part))
        return part

    assert build._load(read) == json.loads(_HAND_EDITED)
    # a chunk ends inside the string that holds "[" and "]", and inside an array of numbers
    for inside in ('"[1, 2] and ]"', '[ 1,  -0 ,\n                   0.5, 2e-3, -0.0, 7 ]'):
        start = _HAND_EDITED.index(inside)
        assert any(start < end < start + len(inside) - 1 for end in ends)


@pytest.mark.parametrize("chunk", [64, None])
def test_reader_rejects_invalid_utf8_beyond_the_first_chunk(tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(build, "_CHUNK", chunk)
    tp = problems.ou_linear_problem(1)
    sol = build.solve(tp.problem, bounds.Budget(N=2, M=2, delta=2.0**-4), seed=31415)
    data = build.serialize(build.SolutionNet(sol.net, dict(sol.provenance, pad="a" * build._CHUNK)))
    for at in (data.rindex(b"a"), data.rindex(b", ")):  # in the provenance, then in the last layer
        assert at > build._CHUNK
        bad = data[:at] + b"\xff" + data[at + 1 :]
        with pytest.raises(UnicodeDecodeError) as oracle:
            bad.decode()
        path = tmp_path / "bad.json"
        path.write_bytes(bad)
        for load in (build.deserialize, build.load_solution):
            with pytest.raises(build.SolutionNetFormatError) as reader:
                load(bad if load is build.deserialize else path)
            assert str(reader.value) == "not a solution-network document: %s" % oracle.value


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, None])
def test_reader_reads_characters_that_chunks_split(tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(build, "_CHUNK", chunk)
    data = build.serialize(build.SolutionNet(net=nets.identity_net(1), provenance={"note": "NOTE"}))
    # four-, three- and two-byte characters, the first across the end of the first chunk if it is long
    at = data.index(b"NOTE")
    data = data.replace(b"NOTE", b"a" * max(0, build._CHUNK - 2 - at) + "\U0001d11e\u20ac\u00e9".encode() * 4)
    fh, ends = io.BytesIO(data), [0]

    def read(n):
        part = fh.read(n)
        ends.append(ends[-1] + len(part))
        return part

    assert build._load(read) == json.loads(data.decode())
    assert any(data[end] & 0xC0 == 0x80 for end in ends[:-1])  # a chunk ends inside a character
    back = _assert_reads_as_oracle(data)
    assert back.provenance["note"].endswith("\U0001d11e\u20ac\u00e9")
    path = tmp_path / "note.json"
    path.write_bytes(data)
    assert build.load_solution(path).provenance == back.provenance
    # an error after them counts characters, as json's does
    for bad in (data.replace(b'"bias": [0]', b'"bias": [0,]'), data.replace(b"]}]}}", b"]}]}")):
        with pytest.raises(json.JSONDecodeError) as oracle:
            json.loads(bad.decode())
        with pytest.raises(build.SolutionNetFormatError) as reader:
            build.deserialize(bad)
        assert str(reader.value) == "not a solution-network document: %s" % oracle.value


def test_load_solution_of_the_reference_build_holds_under_a_quarter_of_the_file(tmp_path):
    path = tmp_path / "heat.json"
    budget = bounds.Budget(N=8, M=64, delta=2.0**-8)
    build.save_solution(build.solve(problems.heat_relu_problem(1).problem, budget, seed=2026), path)
    tracemalloc.start()
    try:
        back = build.load_solution(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.net.depth == 1730
    assert peak < path.stat().st_size / 4


def test_pde_problem_validation():
    with pytest.raises(ValueError):
        build.PdeProblem(
            drift_net=_zero_drift(2),
            init_net=nets.affine_net(np.ones((1, 3))),
            A=np.eye(2),
            T=1.0,
            params=bounds.RegularityParams(T=1.0, kappa=1.0),
        )
    # drift too large for the declared kappa
    with pytest.raises(ValueError):
        build.PdeProblem(
            drift_net=nets.affine_net(5.0 * np.eye(1)),
            init_net=nets.affine_net(np.ones((1, 1))),
            A=np.eye(1),
            T=1.0,
            params=bounds.RegularityParams(T=1.0, kappa=1.0),
        )


def test_path_net_param_count_within_display_bound():
    tp = problems.ou_linear_problem(1)
    drift = tp.problem.drift_net
    delta = 2.0**-4
    noise = sde.sample_brownian(15, 2, 1, 1, 1.0, sde.sqrtm_psd(2 * tp.problem.A))
    psi = build.build_euler_net(drift, noise.increments[0], noise.grid, delta, growth=(0.0, 1.0))
    cap = bounds.euler_net_param_bound(
        2, 1, bounds.product_size_budget(delta, 3.0), drift.depth, nets.param_count(drift)
    )
    assert nets.param_count(psi) <= cap


@pytest.mark.parametrize(
    "maker, d, N, M, delta, seed, length, digest",
    [
        # criterion 9's OU build
        (
            problems.ou_linear_problem, 1, 2, 2, 2.0**-4, 31415, 67_416,
            "0ee18ded784f8593a22d2b2a305740681a8ce83e1552f337315bb4c0fc7b819a",
        ),
        # averages over d > 1, and the product-net initial value at d = 1 and 3
        (
            problems.heat_relu_problem, 2, 3, 2, 2.0**-8, 2026, 494_515,
            "71e8b42dbde21bdd81d5bf628e7259669743f4038e2e5d776b066bbbff1b8112",
        ),
        (
            problems.ou_linear_problem, 2, 8, 4, 2.0**-8, 2026, 6_351_591,
            "50a5cb18d1d3dc6fa8598848cdb65afcdbb6de329e3cc608a39e69bf8d66662f",
        ),
        (
            problems.quadratic_heat_problem, 1, 4, 5, 2.0**-8, 2026, 633_792,
            "a6a0c818e32980ac28c5f6ef0d7208c7d0f86145385af90275ad63d5202a0ddc",
        ),
        (
            problems.quadratic_heat_problem, 3, 3, 4, 2.0**-8, 2026, 2_260_402,
            "c85b545b6074a71368bdcdfc9d45bd9c10e3f335893cb3de23f7f92b9f30a2ef",
        ),
    ],
    ids=["ou_linear-d1", "heat_relu-d2", "ou_linear-d2", "quadratic_heat-d1", "quadratic_heat-d3"],
)
def test_serialized_bytes_pinned(maker, d, N, M, delta, seed, length, digest):
    # the digests pin the v1 writer's bytes and the network assembly across refactors;
    # each holds under the Prescott and SkylakeX OpenBLAS kernels
    data = build.serialize(build.solve(maker(d).problem, bounds.Budget(N=N, M=M, delta=delta), seed=seed))
    assert len(data) == length
    assert hashlib.sha256(data).hexdigest() == digest


def test_reference_build_bytes_pinned():
    # the README reference build (heat, d=1, (N, M, delta) = (8, 64, 2^-8), seed 2026)
    tp = problems.heat_relu_problem(1)
    budget = bounds.Budget(N=8, M=64, delta=2.0**-8)
    data = build.serialize(build.solve(tp.problem, budget, seed=2026))
    assert len(data) == 23_350_890
    assert hashlib.sha256(data).hexdigest() == "72c5caa0feac59b9b020171c1efe58c0ea5a3281581b9e1d3ec80d2ee04c6702"


@pytest.mark.parametrize(
    "maker, seed, budget, new_bound, old_bound, length, digest",
    [
        (
            problems.heat_relu_problem, 2026, bounds.Budget(N=8, M=64, delta=2.0**-8),
            280555821131.07965, 280555821131.0795, 23_350_889,
            "0732a6d8356ab1f764b787f22174acfad4115dc479c7bf3318ef9da604a234e4",
        ),
        (
            problems.ou_linear_problem, 31415, bounds.Budget(N=2, M=2, delta=2.0**-4),
            858725893750.4617, 858725893750.4613, 67_416,
            "7a1b985f70dd9f4f0c549227fa5924fbca67b587d5bfd9b34100e15e02dc3e63",
        ),
    ],
)
def test_pinned_builds_differ_from_the_float_bounds_only_in_the_error_bound(
    maker, seed, budget, new_bound, old_bound, length, digest
):
    # old_bound is the display evaluated in float arithmetic, rounded at every step; with it
    # in place the file is byte for byte the one that evaluation gives, so the way the error
    # bound is evaluated reaches no other field
    sol = build.solve(maker(1).problem, budget, seed=seed)
    values = sol.provenance["bound_values"]
    assert values["error_bound_unit_mass"] == new_bound
    values["error_bound_unit_mass"] = old_bound
    data = build.serialize(sol)
    assert len(data) == length
    assert hashlib.sha256(data).hexdigest() == digest


def test_save_solution_rewrites_in_place_to_the_new_length(tmp_path):
    # criterion 9's OU build over a longer file, then a larger build over it
    path = tmp_path / "net.json"
    path.write_bytes(b"x" * 2**20)
    tp = problems.ou_linear_problem(1)
    small = build.solve(tp.problem, bounds.Budget(N=2, M=2, delta=2.0**-4), seed=31415)
    build.save_solution(small, path)
    data = path.read_bytes()
    assert data == build.serialize(small)
    assert hashlib.sha256(data).hexdigest() == "0ee18ded784f8593a22d2b2a305740681a8ce83e1552f337315bb4c0fc7b819a"
    large = build.solve(tp.problem, bounds.Budget(N=4, M=4, delta=2.0**-4), seed=7)
    assert len(build.serialize(large)) > len(data)
    build.save_solution(large, path)
    assert path.read_bytes() == build.serialize(large)


def test_save_solution_new_file_mode_follows_umask(tmp_path):
    tp = problems.ou_linear_problem(1)
    sol = build.solve(tp.problem, bounds.Budget(N=1, M=1, delta=2.0**-4), seed=3)
    for mask in (0o022, 0o077, 0o002):
        saved, opened = tmp_path / ("saved%o" % mask), tmp_path / ("opened%o" % mask)
        old = os.umask(mask)
        try:
            build.save_solution(sol, saved)
            with open(opened, "wb"):
                pass
        finally:
            os.umask(old)
        assert stat.S_IMODE(saved.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode)


@pytest.mark.parametrize("N, M", [(1, 4), (4, 1), (1, 1)])
def test_degenerate_build_round_trip(N, M):
    # M = 1 skips the pipeline average; N = 1 has a single Euler cell
    tp = problems.heat_relu_problem(1)
    sol = build.solve(tp.problem, bounds.Budget(N=N, M=M, delta=2.0**-4), seed=7)
    data = build.serialize(sol)
    back = build.deserialize(data)
    assert build.serialize(back) == data
    assert back.provenance == sol.provenance
    assert back.net.dims == sol.net.dims
    for la, lb in zip(sol.net.layers, back.net.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
