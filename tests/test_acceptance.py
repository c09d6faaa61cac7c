"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Budgets, tolerances, and runtime caps are pinned here and nowhere else.
Monte Carlo comparisons allow three standard errors of the estimator
unless the criterion states otherwise.
"""

import math
import time

import numpy as np
import pytest

from kolmonet import bounds, build, nets, problems, sde, studies


@pytest.fixture
def report(capsys, request):
    outcome = {"ok": False, "detail": ""}
    yield outcome
    with capsys.disabled():
        status = "PASS" if outcome["ok"] else "FAIL"
        name = request.node.name.replace("test_criterion_", "criterion ")
        print("ACCEPTANCE %s: %s %s" % (name, status, outcome["detail"]))


def test_criterion_1_calculus_exactness(report):
    start = time.time()
    rows, ok = studies.calculus_study(instances=500, seed=0)
    elapsed = time.time() - start
    report["ok"] = ok and elapsed < 5.0
    report["detail"] = "failures=%s elapsed=%.2fs" % ({r[0]: r[2] for r in rows}, elapsed)
    assert ok, rows
    assert elapsed < 5.0


def test_criterion_2_product_size_budget(report):
    exact = bounds.product_size_budget(1.0, 3.0)
    gen = np.random.default_rng(2)
    rel = 0.0
    for eps in gen.uniform(1e-4, 1.0, size=20):
        a = bounds.product_size_budget(eps, 3.0)
        b = 2160.0 * (math.log2(1.0 / eps) + 4.0) - 504.0
        rel = max(rel, abs(a - b) / abs(b))
    report["ok"] = exact == 8136.0 and rel <= 1e-12
    report["detail"] = "value=%g max_rel_dev=%.2e" % (exact, rel)
    assert exact == 8136.0
    assert rel <= 1e-12


def test_criterion_3_strong_interpolation(report):
    start = time.time()
    rows, ok = studies.strong_interp_study(paths=100_000, seed=101)
    elapsed = time.time() - start
    (N, paths, rms, se, target) = rows[0]
    report["ok"] = ok and elapsed < 30.0
    report["detail"] = "rms=%.6f target=%.6f se=%.2e elapsed=%.1fs" % (rms, target, se, elapsed)
    assert abs(rms - target) <= 3 * se
    assert elapsed < 30.0


def test_criterion_4_moment_bounds_dominate(report):
    rows = []
    ok = True
    for q in (2.0, 4.0):
        qrows, qok = studies.moment_study(q=q, paths=20_000, seed=202)
        rows.extend(qrows)
        ok = ok and qok
    worst = min(bound - emp for _, _, _, emp, _, bound, _ in rows)
    violations = sum(r[-1] for r in rows)
    report["ok"] = ok
    report["detail"] = "min_slack=%.3f envelope_violations=%d cases=%d" % (
        worst, violations, len(rows),
    )
    assert ok, rows


def test_criterion_5_weak_error_rate(report):
    rows, slope, ok = studies.weak_error_study(paths=20_000, seed=303)
    report["ok"] = ok and slope <= -0.35
    report["detail"] = "slope=%.3f (cap -0.35), all points dominated=%s" % (slope, ok)
    assert slope <= -0.35
    assert ok, rows


def test_criterion_6_mc_euler_lp_bound(report):
    rows, shrink, ok = studies.mc_lp_study(budgets=((16, 16), (256, 256)), K=4096, seed=404)
    report["ok"] = ok and shrink >= 2.5
    report["detail"] = "errors=%s shrink=%.2f (floor 2.5)" % (
        ["%.4f" % r[2] for r in rows], shrink,
    )
    assert ok, rows
    assert shrink >= 2.5


def _direct_average_batch(tp, noise, M, ts, xs):
    """Vectorized oracle: (1/M) sum_m f0(Y_t^{m,x}) at each sampled point."""
    pb = tp.problem
    d = pb.d
    K = len(ts)
    N = noise.N
    T = noise.T
    h = T / N
    inc = np.tile(noise.increments[:M], (K, 1, 1))
    y = np.empty((K * M, N + 1, d))
    y[:, 0] = np.repeat(xs, M, axis=0)
    for n in range(N):
        y[:, n + 1] = y[:, n] + h * nets.realize(pb.drift_net, y[:, n]) + inc[:, n]
    tcol = np.repeat(ts, M)
    n_idx = np.minimum((tcol * N / T).astype(int), N - 1)
    rho = tcol * N / T - n_idx
    rows = np.arange(K * M)
    y_t = (1 - rho)[:, None] * y[rows, n_idx] + rho[:, None] * y[rows, n_idx + 1]
    return nets.realize(pb.init_net, y_t).ravel().reshape(K, M).mean(axis=1)


def test_criterion_7_builder_contract(report):
    start = time.time()
    gen = np.random.default_rng(7)
    deviation_violations = 0
    param_violations = 0
    growth_violations = 0
    adapted_violations = 0
    cells = 0
    for d in (1, 2):
        tp = problems.ou_linear_problem(d)
        pb = tp.problem
        B = sde.sqrtm_psd(2.0 * pb.A)
        growth = (pb.params.C, pb.params.c)
        for N in (2, 8):
            for M in (1, 16):
                for delta in (2.0**-4, 2.0**-8):
                    cells += 1
                    budget = bounds.Budget(N=N, M=M, delta=delta)
                    noise = sde.sample_brownian(700 + cells, N, M, d, pb.T, B)
                    sol = build.build_mc_average_net(pb, budget, noise)
                    # (b) parameter budget
                    if nets.param_count(sol.net) > bounds.solution_param_bound(
                        pb.params, d, N, M, delta
                    ):
                        param_violations += 1
                    # (a) deviation from the direct Monte Carlo average
                    K = 1000
                    ts = gen.uniform(0, pb.T, K)
                    xs = gen.uniform(-1.5, 1.5, size=(K, d))
                    got = nets.realize(sol.net, np.column_stack([ts, xs])).ravel()
                    want = _direct_average_batch(tp, noise, M, ts, xs)
                    norms = sde.walk_norms(noise.increments[:M])  # (M, N+1)
                    xn = np.linalg.norm(xs, axis=1)
                    C, c = growth
                    lip = math.sqrt(d)  # initial net is the coordinate sum
                    h2, h3 = (
                        bounds.path_growth_factor(xn[:, None], C, c, pb.T, norms.max(axis=1), r)
                        for r in (2.0, 3.0)
                    )
                    caps = bounds.mc_sum_error_bound(delta, d, pb.params.alpha, lip, M, h2, h3)
                    deviation_violations += int((np.abs(got - want) > caps).sum())
                    # (c) growth on the first path network
                    psi = build.build_euler_net(
                        pb.drift_net, noise.increments[0], noise.grid, delta, growth
                    )
                    vals = np.linalg.norm(
                        nets.realize(psi, np.column_stack([ts, xs])), axis=1
                    )
                    running_max = np.maximum.accumulate(norms[0])
                    n_idx = np.minimum((ts * N / pb.T).astype(int), N - 1)
                    g_lo, g_hi = (
                        bounds.drift_growth_envelope(xn, C, c, noise.grid[n], running_max[n])
                        for n in (n_idx, n_idx + 1)
                    )
                    growth_violations += int((vals > 6 * math.sqrt(d) + 2 * (g_lo**2 + g_hi**2)).sum())
        # (c) adaptedness per (d, N): exact equality on a shared prefix
        for N in (2, 8):
            y = gen.normal(size=(N, d))
            z = y.copy()
            z[N // 2 :] += 1.0
            py = build.build_euler_net(pb.drift_net, y, np.arange(N + 1) * (pb.T / N), 0.25, growth)
            pz = build.build_euler_net(pb.drift_net, z, np.arange(N + 1) * (pb.T / N), 0.25, growth)
            ts = np.linspace(0, (N // 2) * pb.T / N, 11)
            pts = np.column_stack([ts, np.tile(gen.uniform(-1, 1, d), (11, 1))])
            if not np.array_equal(nets.realize(py, pts), nets.realize(pz, pts)):
                adapted_violations += 1
    elapsed = time.time() - start
    total = deviation_violations + param_violations + growth_violations + adapted_violations
    report["ok"] = total == 0 and elapsed < 120.0
    report["detail"] = (
        "cells=%d deviation=%d params=%d growth=%d adapted=%d elapsed=%.1fs"
        % (cells, deviation_violations, param_violations, growth_violations, adapted_violations, elapsed)
    )
    assert deviation_violations == 0
    assert param_violations == 0
    assert growth_violations == 0
    assert adapted_violations == 0
    assert elapsed < 120.0


def test_criterion_8_end_to_end_heat(report):
    tp = problems.heat_relu_problem(1)
    pb = tp.problem
    budget = bounds.Budget(N=8, M=64, delta=2.0**-8)
    seed = 2026
    noise = sde.sample_brownian(seed, budget.N, budget.M, 1, pb.T, sde.sqrtm_psd(2 * pb.A))
    sol = build.build_mc_average_net(pb, budget, noise)
    K = 1024
    ts, xs = tp.measure.sample(K, seed=123)
    got = nets.realize(sol.net, np.column_stack([ts, xs])).ravel()
    # the network must track its own Monte Carlo average (oracle for the fixture)
    oracle = _direct_average_batch(tp, noise, budget.M, ts, xs)
    assert np.abs(got - oracle).max() <= 1e-3
    exact = tp.exact_solution(ts, xs)
    l2 = math.sqrt(np.mean((got - exact) ** 2))
    cap = bounds.solution_error_bound(
        pb.params, 1, budget.N, budget.M, budget.delta, tp.measure.mass
    )
    scaled = l2 * tp.measure.mass ** (1.0 / pb.params.p)
    report["ok"] = scaled <= cap and l2 <= 0.15
    report["detail"] = "l2=%.4f cap=0.15 closed_form_bound=%.3g" % (l2, cap)
    assert scaled <= cap
    assert l2 <= 0.15


def test_criterion_9_deterministic_serialization(report):
    tp = problems.ou_linear_problem(1)
    budget = bounds.Budget(N=2, M=2, delta=2.0**-4)
    a = build.serialize(build.solve(tp.problem, budget, seed=31415))
    b = build.serialize(build.solve(tp.problem, budget, seed=31415))
    report["ok"] = a == b
    report["detail"] = "bytes=%d identical=%s" % (len(a), a == b)
    assert a == b
