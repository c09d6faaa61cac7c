"""Experiment suites shared by the command-line driver and the test suite.

Each study returns (rows, ok) where rows are plain tuples ready for CSV
emission and ok reports whether every checked inequality held at its
stated tolerance.  Tolerances follow the convention used throughout:
closed-form bounds must dominate empirical quantities up to three Monte
Carlo standard errors of the estimator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import linregress

from . import bounds, build, nets, problems, sde


# ---------------------------------------------------------------------------
# calculus exactness


def _random_net(gen, dims):
    layers = [
        nets.Layer(gen.normal(size=(dims[k + 1], dims[k])), gen.normal(size=dims[k + 1]))
        for k in range(len(dims) - 1)
    ]
    return nets.Network(tuple(layers))


def _straight_line_eval(net, x):
    # independent oracle: explicit loop, no batching
    v = np.array(x, dtype=np.float64)
    for layer in net.layers[:-1]:
        v = np.maximum(layer.weight @ v + layer.bias, 0.0)
    last = net.layers[-1]
    return last.weight @ v + last.bias


def calculus_study(instances: int = 500, seed: int = 0):
    """Randomized exactness checks for realization, composition, identities, counting."""
    gen = np.random.default_rng(seed)
    fail = {"realize": 0, "compose": 0, "associativity": 0, "identity": 0, "param_count": 0}
    for _ in range(instances):
        d0, d1, d2, d3 = (int(gen.integers(1, 6)) for _ in range(4))
        f = _random_net(gen, (d1, int(gen.integers(1, 6)), d2))
        g = _random_net(gen, (d0, int(gen.integers(1, 6)), d1))
        h = _random_net(gen, (int(gen.integers(1, 6)), d0))
        # realization against the straight-line oracle
        xx = gen.uniform(-10, 10, size=d0)
        if not np.allclose(nets.realize(g, xx), _straight_line_eval(g, xx), rtol=1e-10, atol=1e-10):
            fail["realize"] += 1
        fg = nets.compose(f, g)
        y = gen.uniform(-10, 10, size=d0)
        lhs = nets.realize(fg, y)
        rhs = nets.realize(f, nets.realize(g, y))
        scale = max(1.0, np.abs(rhs).max())
        if np.abs(lhs - rhs).max() > 1e-10 * scale:
            fail["compose"] += 1
        left = nets.compose(nets.compose(f, g), h)
        right = nets.compose(f, nets.compose(g, h))
        same = all(
            np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)
            for a, b in zip(left.layers, right.layers)
        ) and left.depth == right.depth
        if not same:
            fail["associativity"] += 1
        idn = nets.identity_net(int(gen.integers(1, 9)))
        z = gen.uniform(-10, 10, size=idn.in_dim)
        if np.abs(nets.realize(idn, z) - z).max() > 4 * idn.in_dim * np.finfo(float).eps * 10:
            fail["identity"] += 1
        dims = fg.dims
        formula = sum(dims[k] * (dims[k - 1] + 1) for k in range(1, len(dims)))
        structural = sum(l.weight.size + l.bias.size for l in fg.layers)
        if formula != structural or formula != nets.param_count(fg):
            fail["param_count"] += 1
    rows = [(name, instances, count) for name, count in sorted(fail.items())]
    return rows, all(c == 0 for c in fail.values())


# ---------------------------------------------------------------------------
# strong interpolation error and scheme moments


def strong_interp_study(paths: int = 100_000, N: int = 8, seed: int = 101):
    """Midpoint RMS of the interpolation gap against (1/2) sqrt(h Trace(B B*)).

    The continuous-time scheme is realized on a refinement of factor two,
    which is exact at the midpoints because the drift only enters through
    grid values.  The gate accepts |RMS - target| <= 4 standard errors, a
    two-sided test that fails correct code on about 6.3e-5 of seeds
    (2 (1 - Phi(4)), with the estimate close to normal at these path counts).
    """
    T, d = 1.0, 1
    h = T / N
    fine = sde.sample_brownian(seed, 2 * N, paths, d, T, np.eye(d))
    coarse = fine.coarsen(2)
    drift = lambda y: -y
    state = sde.euler_grid(np.full(d, 0.5), drift, coarse)
    n = 0
    t_mid = (n + 0.5) * h
    y_mid = sde.interpolate(state, t_mid)
    z_mid = (
        state.grid_values[:, n]
        + 0.5 * h * drift(state.grid_values[:, n])
        + fine.increments[:, 2 * n]
    )
    sq = ((y_mid - z_mid) ** 2).sum(axis=1)
    mean_sq = sq.mean()
    se_sq = sq.std(ddof=1) / math.sqrt(paths)
    rms = math.sqrt(mean_sq)
    se_rms = se_sq / (2.0 * rms)
    target = bounds.interp_error_bound(2.0, h, 1.0)
    ok = abs(rms - target) <= 4.0 * se_rms
    rows = [(N, paths, rms, se_rms, target)]
    return rows, ok


def moment_study(ds=(1, 2, 5), q: float = 2.0, paths: int = 20_000, N: int = 16, seed: int = 202):
    """Scheme moments against the a-priori bound, and pathwise growth envelopes.

    Rows: (problem, d, q, empirical, std_error, bound, envelope_violations).
    """
    rows = []
    ok = True
    for name in ("heat_relu", "ou_linear"):
        for d in ds:
            row, row_ok = _moment_row(name, d, q, paths, N, seed)
            ok = ok and row_ok
            rows.append(row)
    return rows, ok


def _moment_row(name: str, d: int, q: float, paths: int, N: int, seed: int):
    # one function per row, so that a row's path arrays are freed before the next row's
    tp = problems.get_problem(name, d)
    pb = tp.problem
    B = sde.sqrtm_psd(2.0 * pb.A)
    noise = sde.sample_brownian(seed + d, N, paths, d, pb.T, B)
    x0 = np.full(d, 0.5)
    state = sde.euler_grid(x0, pb.drift_net, noise)
    norms = np.linalg.norm(state.grid_values, axis=2)  # (paths, N+1)
    del state  # the grid values are the row's largest array
    powq = norms**q
    means = powq.mean(axis=0)
    n_star = int(np.argmax(means))
    emp = means[n_star] ** (1.0 / q)
    se = powq[:, n_star].std(ddof=1) / math.sqrt(paths)
    se_emp = se / (q * emp ** (q - 1.0)) if emp > 0 else se
    trace = float(np.trace(B @ B.T))
    C, c = pb.params.C, pb.params.c
    bound = bounds.apriori_sde_bound(
        float(np.linalg.norm(x0)),
        C,
        c,
        pb.T,
        bounds.gaussian_moment_bound(q, pb.T * trace),
    )
    # pathwise Gronwall envelope on the grid
    walk = np.empty((paths, N + 1, d))
    walk[:, 0] = 0.0
    np.cumsum(noise.increments, axis=1, out=walk[:, 1:])
    running_max = np.maximum.accumulate(np.linalg.norm(walk, axis=2), axis=1)
    taus = noise.grid[None, :]
    envelope = (np.linalg.norm(x0) + C * taus + running_max) * np.exp(c * taus)
    violations = int((norms > envelope * (1 + 1e-12) + 1e-12).sum())
    row_ok = emp <= bound + 3.0 * se_emp and violations == 0
    return (name, d, q, emp, se_emp, bound, violations), row_ok


# ---------------------------------------------------------------------------
# weak error convergence


def weak_error_study(
    Ns=(2, 4, 8, 16, 32, 64),
    paths: int = 20_000,
    refine: int = 64,
    seed: int = 303,
    drift_shift: float = 0.0,
):
    """Weak error of the scheme for the OU problem against the closed-form bound.

    Uses the coupled estimator E[f0(X_T) - g0(Y_T)] with X realized by a
    fine Euler scheme on the same Brownian path (strong order one for
    additive noise makes the oracle bias negligible).  ``drift_shift``
    perturbs the scheme drift to -x + drift_shift, exercising the eps1
    term of the bound.  Rows: (N, paths, |estimate|, std_error, bound).
    """
    tp = problems.ou_linear_problem(1)
    pb = tp.problem
    d = 1
    x0 = np.full(d, 0.7)
    B = sde.sqrtm_psd(2.0 * pb.A)
    trace = float(np.trace(B.T @ B))
    rows = []
    estimates = []
    ok = True
    for j, N in enumerate(Ns):
        nf = refine * N
        fine = sde.sample_brownian(seed + j, nf, paths, d, pb.T, B)
        xs = sde.euler_grid(x0, lambda y: -y, fine)
        ys = sde.euler_grid(x0, lambda y: -y + drift_shift, fine.coarsen(refine))
        diff = xs.grid_values[:, -1].sum(axis=1) - ys.grid_values[:, -1].sum(axis=1)
        est = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(paths))
        params = bounds.RegularityParams(
            T=pb.T, kappa=pb.params.kappa, eta=pb.params.eta, p=2.0,
            c=1.0, C=abs(drift_shift), varsigma0=1.0, varsigma1=0.0, varsigma2=1.0,
            ell=0.0, L0=1.0, L1=1.0, eps0=0.0, eps1=abs(drift_shift), eps2=0.0,
        )
        bound = bounds.weak_error_bound(params, float(np.linalg.norm(x0)), 0.0, pb.T / N, trace)
        rows.append((N, paths, abs(est), se, bound))
        estimates.append((N, abs(est), se))
        ok = ok and abs(est) <= bound + 3.0 * se
    logs = [(math.log(n), math.log(max(e, 1e-300))) for n, e, _ in estimates]
    slope = linregress([a for a, _ in logs], [b for _, b in logs]).slope
    return rows, slope, ok


# ---------------------------------------------------------------------------
# Monte Carlo Euler functional error (heat problem, closed-form reference)


def _mc_euler_functional_errors(tp, N, M, K, seed):
    """Sampled squared errors of the MC Euler functional against the exact solution.

    Fresh Brownian paths per sample point (the estimator targets the
    P (x) nu integrated error): point i draws its M x N x k normals from
    the stream keyed (seed, 7 << 48 | i), so the result does not depend on
    how the points are chunked.  Points run in the chunks of ``sde.mc_values``.
    """
    pb = tp.problem
    d = pb.d
    B = sde.sqrtm_psd(2.0 * pb.A)
    ts, xs = tp.measure.sample(K, seed)
    u_vals = tp.exact_solution(ts, xs)
    sq_errors = np.empty(K)
    scale = math.sqrt(pb.T / N)
    k_noise = B.shape[1]
    for s in sde._point_chunks(K, M, N, d):
        index = np.arange(K)[s]
        z = sde._philox_normals(seed, sde._TAG_POINT_PATHS, index, M * N * k_noise)
        inc = scale * (z.reshape(len(index) * M, N, k_noise) @ B.T)
        vals = sde.mc_values(
            pb.init_net, pb.drift_net, inc.reshape(len(index), M, N, d), pb.T, ts[s], xs[s]
        ).mean(axis=1)
        sq_errors[s] = (vals - u_vals[s]) ** 2
    return sq_errors


def mc_lp_study(budgets=((16, 16), (256, 256)), K: int = 4096, seed: int = 404, d: int = 1):
    """Empirical L^2(nu (x) P) error of the MC Euler functional vs its bound.

    Rows: (N, M, estimate, std_error, bound).  ok requires domination at
    every budget and the expected shrink between the first and last one.
    """
    tp = problems.heat_relu_problem(d)
    params = tp.problem.params
    rows = []
    errs = []
    ok = True
    for N, M in budgets:
        sq = _mc_euler_functional_errors(tp, N, M, K, seed)
        mean_sq = sq.mean()
        se_sq = sq.std(ddof=1) / math.sqrt(K)
        est = math.sqrt(mean_sq)
        se = se_sq / (2.0 * est) if est > 0 else se_sq
        bound = bounds.mc_lp_error_bound(params, tp.problem.d, N, M, tp.measure.mass)
        scaled = est * tp.measure.mass ** (1.0 / params.p)
        rows.append((N, M, est, se, bound))
        errs.append(est)
        ok = ok and scaled <= bound + 3.0 * se
    shrink = errs[0] / errs[-1] if errs[-1] > 0 else math.inf
    return rows, shrink, ok


# ---------------------------------------------------------------------------
# bound domination report


def bounds_study(seed: int = 505):
    """Domination suite: every evaluator against its matched empirical quantity.

    Rows: (bound_name, formula, inputs, value, empirical) with the
    convention that value must be >= empirical - 3 MC std errors (the
    empirical column already has the allowance subtracted where the
    matched quantity is stochastic).
    """
    rows = []
    gen = np.random.default_rng(seed)

    # Gaussian moment bound, p = 4, standard normal pairs
    z = gen.standard_normal((1_000_000, 2))
    powp = (z**2).sum(axis=1) ** 2
    emp = powp.mean() ** 0.25
    se = powp.std() / math.sqrt(len(powp)) / (4 * emp**3)
    rows.append(
        (
            "gaussian_moment_bound",
            "moment",
            "p=4;trace=2",
            bounds.gaussian_moment_bound(4.0, 2.0),
            emp - 3 * se,
        )
    )

    # scheme moments and pathwise envelopes
    mrows, _ = moment_study(ds=(1, 2, 5), paths=20_000, seed=seed + 1)
    for name, d, q, emp, se_emp, bound, violations in mrows:
        rows.append(
            (
                "apriori_sde_bound",
                "scheme-moment",
                "problem=%s;d=%d;q=%g" % (name, d, q),
                bound,
                emp - 3 * se_emp + violations,  # any envelope violation breaks domination
            )
        )

    # interpolation error (equality case)
    irows, _ = strong_interp_study(paths=50_000, seed=seed + 2)
    for N, paths, rms, se_rms, target in irows:
        rows.append(
            ("interp_error_bound", "midpoint-rms", "N=%d" % N, target + 3 * se_rms, rms)
        )
        rows.append(
            ("interp_error_bound_lower", "midpoint-rms", "N=%d" % N, rms, target - 3 * se_rms)
        )

    # weak error with a perturbed drift
    wrows, _, _ = weak_error_study(Ns=(4, 16), paths=20_000, seed=seed + 3, drift_shift=0.01)
    for N, paths, est, se, bound in wrows:
        rows.append(
            ("weak_error_bound", "weak-error", "N=%d;eps1=0.01" % N, bound, est - 3 * se)
        )

    # MC Euler functional error on the desk-scale matrix corners
    for d_mc, budget_list in ((1, ((16, 16), (256, 256))), (2, ((16, 16),)), (5, ((16, 16),))):
        lrows, _, _ = mc_lp_study(budgets=budget_list, K=1024, seed=seed + 4 + d_mc, d=d_mc)
        for N, M, est, se, bound in lrows:
            rows.append(
                (
                    "mc_lp_error_bound",
                    "mc-euler-lp",
                    "d=%d;N=%d;M=%d" % (d_mc, N, M),
                    bound,
                    est - 3 * se,
                )
            )

    # gronwall growth-factor moments, (r, q) = (2, 2), heat problem, d = 1
    tp = problems.heat_relu_problem(1)
    B = sde.sqrtm_psd(2.0 * tp.problem.A)
    trace = float(np.trace(B.T @ B))
    N, paths = 8, 20_000
    noise = sde.sample_brownian(seed + 5, N, paths, 1, tp.problem.T, B)
    walk = np.concatenate(
        [np.zeros((paths, 1, 1)), np.cumsum(noise.increments, axis=1)], axis=1
    )
    max_walk = np.linalg.norm(walk, axis=2).max(axis=1)
    ts, xs = tp.measure.sample(2048, seed + 6)
    xnorm = np.linalg.norm(xs, axis=1)
    C_eff = tp.problem.params.C * tp.problem.T
    h2 = 1.0 + (xnorm[:, None] + C_eff + max_walk[None, :]) ** 2  # c = 0
    emp = math.sqrt((h2**2).mean())
    per_point = (h2**2).mean(axis=1)
    se = per_point.std(ddof=1) / math.sqrt(len(per_point)) / (2 * emp)
    cal_c = max(1.0, (xnorm ** 8).mean() ** (1.0 / 8.0))
    mart = bounds.gaussian_moment_bound(4.0, tp.problem.T * trace)
    val = bounds.gronwall_moment_bound(2.0, 2.0, 0.0, C_eff, cal_c, mart, tp.measure.mass)
    rows.append(("gronwall_moment_bound", "growth-factor", "r=2;q=2", val, emp - 3 * se))

    # builder: emulation error, averaged deviation, parameter bounds
    tp1 = problems.heat_relu_problem(1)
    budget = bounds.Budget(N=2, M=2, delta=0.5)
    noise = sde.sample_brownian(seed + 7, budget.N, budget.M, 1, 1.0, B)
    sol = build.build_mc_average_net(tp1.problem, budget, noise)
    p_count = nets.param_count(sol.net)
    p_bound = bounds.solution_param_bound(tp1.problem.params, 1, budget.N, budget.M, budget.delta)
    rows.append(("solution_param_bound", "param-count", "d=1;N=2;M=2;delta=0.5", p_bound, float(p_count)))

    psi = build.build_euler_net(
        tp1.problem.drift_net, noise.increments[0], noise.grid, budget.delta
    )
    worst_ratio = 0.0
    for t in np.linspace(0.0, 1.0, 9):
        for xv in (-1.0, 0.0, 1.5):
            x = np.array([xv])
            approx = nets.realize(psi, np.concatenate([[t], x]))
            st = sde.euler_grid(x, tp1.problem.drift_net, noise)
            exact = sde.interpolate(st, t)[0]
            n = min(int(t * budget.N), budget.N - 1)
            walk = np.concatenate([np.zeros((1, 1)), np.cumsum(noise.increments[0], axis=0)])
            gs = [
                bounds.drift_growth_envelope(
                    abs(xv), 0.0, 0.0, m / budget.N, np.linalg.norm(walk[: m + 1], axis=1).max()
                )
                for m in (n, n + 1)
            ]
            limit = bounds.euler_emulation_error_bound(budget.delta, 1, 3.0, gs[0], gs[1])
            dev = float(np.abs(approx - exact).max())
            worst_ratio = max(worst_ratio, dev / limit)
    rows.append(
        ("euler_emulation_error_bound", "path-deviation", "d=1;N=2", 1.0, worst_ratio)
    )

    ok = all(value >= emp_allowed for _, _, _, value, emp_allowed in rows)
    return rows, ok
