"""Experiment suites shared by the command-line driver and the test suite.

Each study returns (rows, ok) where rows are plain tuples ready for CSV
emission and ok reports whether every checked inequality held at its
stated tolerance.  Tolerances follow the convention used throughout:
closed-form bounds must dominate empirical quantities up to three Monte
Carlo standard errors of the estimator.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import numpy as np

from . import bounds, build, nets, problems, sde

# Steps of the strong interpolation study's coarse grid.
INTERP_STEPS = 8
# Fine steps per coarse step of the weak error study's oracle.
WEAK_REFINE = 64
# Dimensions and grid steps of the scheme moment rows.
MOMENT_DIMS = (1, 2, 5)
MOMENT_STEPS = 16
# Increment values per row in a chunk of the moment rows' paths: a chunk draws both rows of a d
# into one buffer of twice this many values (4.2 MB).
_MOMENT_CHUNK_VALUES = 1 << 18


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


def strong_interp_study(paths: int = 100_000, seed: int = 101):
    """Midpoint RMS of the interpolation gap against (1/2) sqrt(h Trace(B B*)).

    The continuous-time scheme is realized on a refinement of factor two,
    which is exact at the midpoints because the drift only enters through
    grid values.  The row reads the first midpoint alone, so it draws only
    the first coarse step's two fine steps, bitwise the first two of the
    2N-step fine grid.  The gate accepts |RMS - target| <= 4 standard
    errors, a two-sided test that fails correct code on about 6.3e-5 of
    seeds (2 (1 - Phi(4)), with the estimate close to normal at these path
    counts).
    """
    T, d, N = 1.0, 1, INTERP_STEPS
    h = T / N
    fine = sde.sample_brownian(seed, 2, paths, d, h, np.eye(d))
    coarse = fine.coarsen(2)
    drift = lambda y: -y
    x0 = np.full(d, 0.5)
    # the first midpoint: the interpolated scheme against one fine Euler step from x0
    y_mid = sde.mc_values(lambda y: y, drift, coarse.increments, h, [0.5 * h], x0[None]).reshape(paths, d)
    z_mid = x0 + 0.5 * h * drift(x0) + fine.increments[:, 0]
    sq = ((y_mid - z_mid) ** 2).sum(axis=1)
    mean_sq = sq.mean()
    se_sq = sq.std(ddof=1) / math.sqrt(paths)
    rms = math.sqrt(mean_sq)
    se_rms = se_sq / (2.0 * rms)
    target = bounds.interp_error_bound(2.0, h, 1.0)
    ok = abs(rms - target) <= 4.0 * se_rms
    rows = [(N, paths, rms, se_rms, target)]
    return rows, ok


def moment_study(q: float = 2.0, paths: int = 20_000, seed: int = 202):
    """Scheme moments on a 16-step grid against the a-priori bound, and pathwise growth envelopes.

    Rows: (problem, d, q, empirical, std_error, bound, envelope_violations).
    The heat_relu and ou_linear rows at one d read the same normals, scaled
    by their own B.  Each d runs its paths in chunks of at most
    ``_MOMENT_CHUNK_VALUES`` increment values per row, and each chunk draws
    both rows once, into two step-major views of one flat buffer sized for
    the largest chunk: each step's increments are contiguous, as the Euler
    recursion reads them.  A row takes its state norms and its envelope
    count chunk by chunk beside the recursion (``_moment_norms``), forms no
    walk or envelope array, and runs its statistics on the (paths, 17)
    norms of all chunks.  Each path's stream is keyed by its index, and
    everything per path is elementwise, so chunking changes no draw; the
    drift nets run on a chunk's batch, and the heat (zero) and OU (weights
    0 and +-1) drifts give the same bits on any batch.
    """
    names = ("heat_relu", "ou_linear")
    buffer = np.empty(len(names) * max(_moment_chunk_paths(paths, d) * MOMENT_STEPS * d for d in MOMENT_DIMS))
    per_d = [_moment_rows(names, d, q, paths, seed, buffer) for d in MOMENT_DIMS]
    rows = [row for per_name in zip(*per_d) for row in per_name]  # each problem's rows, d by d
    return [row for row, _ in rows], all(row_ok for _, row_ok in rows)


def _moment_chunk_paths(paths: int, d: int) -> int:
    """Paths per chunk of the moment rows at d: at most ``_MOMENT_CHUNK_VALUES`` increment values per row."""
    return min(paths, max(1, _MOMENT_CHUNK_VALUES // (MOMENT_STEPS * d)))


def _moment_rows(names, d: int, q: float, paths: int, seed: int, buffer):
    pbs = [problems.get_problem(name, d).problem for name in names]
    (T,) = {pb.T for pb in pbs}  # one horizon, so one scale for every row's increments
    norms = [np.empty((paths, MOMENT_STEPS + 1)) for _ in pbs]
    violations = [0] * len(pbs)
    step = _moment_chunk_paths(paths, d)
    for lo in range(0, paths, step):
        hi = min(lo + step, paths)
        counts = _moment_chunk(pbs, seed + d, lo, hi, T, buffer, [rows[lo:hi] for rows in norms])
        violations = [v + n for v, n in zip(violations, counts)]
    return [_moment_row(name, pb, rows, v, q) for name, pb, rows, v in zip(names, pbs, norms, violations)]


def _moment_chunk(pbs, seed: int, lo: int, hi: int, T: float, buffer, norms):
    # one function per chunk, so that its views of the buffer are gone before the next chunk's draw
    m, d = hi - lo, pbs[0].d
    # step-major: views[i, n] is row i of step n's (2m, d) block, so each step's increments are contiguous
    views = buffer[: len(pbs) * m * MOMENT_STEPS * d].reshape(MOMENT_STEPS, len(pbs) * m, d).transpose(1, 0, 2)
    incs = [views[i * m : (i + 1) * m] for i in range(len(pbs))]
    index = np.arange(lo, hi, dtype=np.uint64)
    # rows [lo, hi) of sample_brownian(seed, MOMENT_STEPS, paths, d, T, pb.B) for every pb, from one draw
    sde._fill_increments(incs, seed, sde._TAG_INCREMENTS, index, [pb.B for pb in pbs], np.sqrt(T / MOMENT_STEPS))
    x0 = np.full(d, 0.5)
    return [
        _moment_norms(x0, pb.drift_net, inc, T, pb.params.C, pb.params.c, out)[1]
        for pb, inc, out in zip(pbs, incs, norms)
    ]


def _column_norms(a, square, out):
    """``np.linalg.norm(a, axis=1)`` of a (rows, d) array with d < 8, bitwise, written into ``out``.

    numpy's reduce adds fewer than 8 terms in sequence (from 8 on, its
    pairwise sum groups them otherwise, so d >= 8 raises ValueError), so
    adding the squares column by column, in a (rows, d) ``square`` buffer,
    gives its bits without its per-row loop.
    """
    if a.shape[1] >= 8:
        raise ValueError("column norms match np.linalg.norm only below 8 columns, got %d" % a.shape[1])
    np.multiply(a, a, out=square)
    total = square[:, 0]
    for j in range(1, a.shape[1]):
        total = np.add(total, square[:, j], out=out)
    return np.sqrt(total, out=out)


def _moment_norms(x0, drift, increments, T: float, C: float, c: float, out):
    """The norms ||Y_n|| of the Euler states, written into the (paths, N+1) ``out``, and how many
    exceed the Gronwall envelope; returns (out, count).

    One pass beside the recursion.  ``increments`` may have any strides;
    the study's are step-major, so ``increments[:, n]`` is contiguous.  Each
    state's norms go into a contiguous (paths,) vector, which the envelope
    reads, and are then copied into ``out[:, n]``.  At state n the noise
    walk's partial sum gains step n - 1, and the running maximum of its
    norms (a (paths,) vector) sets g_n = ``bounds.drift_growth_envelope``
    at tau_n, widened by a relative and an absolute 1e-12.  The norms and
    the count are those of ``np.linalg.norm`` of the states,
    ``sde.walk_norms``, ``np.maximum.accumulate`` and one envelope call on
    the whole grid, bitwise; no walk or envelope array is formed.
    """
    paths, N, d = increments.shape
    x_norm = np.linalg.norm(x0)
    grid = np.arange(N + 1) * (T / N)
    norm, square = np.empty(paths), np.empty((paths, d))
    partial, walk, running_max = np.zeros((paths, d)), np.empty(paths), np.zeros(paths)
    violations = 0
    for n, y in enumerate(sde.euler_states(x0, drift, increments, T)):
        out[:, n] = _column_norms(y, square, norm)
        if n:
            partial += increments[:, n - 1]
            np.maximum(running_max, _column_norms(partial, square, walk), out=running_max)
        envelope = bounds.drift_growth_envelope(x_norm, C, c, grid[n : n + 1], running_max)
        envelope *= 1 + 1e-12
        envelope += 1e-12
        violations += int(np.count_nonzero(norm > envelope))
    return out, violations


def _moment_row(name: str, pb, norms, violations: int, q: float):
    """A row of ``moment_study`` from the (paths, N+1) state norms and the envelope violations."""
    paths, d = len(norms), pb.d
    x0 = np.full(d, 0.5)
    C, c = pb.params.C, pb.params.c
    powq = norms**q
    means = powq.mean(axis=0)
    n_star = int(np.argmax(means))
    emp = means[n_star] ** (1.0 / q)
    se = powq[:, n_star].std(ddof=1) / math.sqrt(paths)
    se_emp = se / (q * emp ** (q - 1.0)) if emp > 0 else se
    trace = float(np.trace(pb.B @ pb.B.T))
    bound = bounds.apriori_sde_bound(
        float(np.linalg.norm(x0)),
        C,
        c,
        pb.T,
        bounds.gaussian_moment_bound(q, pb.T * trace),
    )
    row_ok = emp <= bound + 3.0 * se_emp and violations == 0
    return (name, d, q, emp, se_emp, bound, violations), row_ok


# ---------------------------------------------------------------------------
# weak error convergence


def weak_error_study(
    Ns=(2, 4, 8, 16, 32, 64),
    paths: int = 20_000,
    seed: int = 303,
    drift_shift: float = 0.0,
):
    """Weak error of the scheme for the OU problem against the closed-form bound.

    Uses the coupled estimator E[f0(X_T) - g0(Y_T)] with X realized by a
    fine Euler scheme on the same Brownian path (strong order one for
    additive noise makes the oracle bias negligible).  ``drift_shift``
    perturbs the scheme drift to -x + drift_shift, exercising the eps1
    term of the bound.  Rows: (N, paths, |estimate|, std_error, bound).
    The signed estimate must lie within 4 SE of its exact mean too.  Paths
    run in chunks of at most ``sde._MC_CHUNK_ELEMENTS`` fine increments, one
    chunk alive at a time, and only the terminal states are kept; chunking
    cannot change a bit.  Every chunk of every grid is drawn into a view of
    one flat buffer, sized for the largest chunk.
    """
    tp = problems.ou_linear_problem(1)
    pb = tp.problem
    d = 1
    x0 = np.full(d, 0.7)
    trace = float(np.trace(pb.B.T @ pb.B))
    steps = [max(1, sde._MC_CHUNK_ELEMENTS // (WEAK_REFINE * N * d)) for N in Ns]
    buffer = np.empty(max(min(step, paths) * sde._row_values(WEAK_REFINE * N, d) for N, step in zip(Ns, steps)))
    rows = []
    estimates = []
    ok = True
    for j, (N, step) in enumerate(zip(Ns, steps)):
        nf = WEAK_REFINE * N
        diff = np.empty(paths)
        for lo in range(0, paths, step):
            # only the helper's frame holds the chunk's grid, so it is gone before the next draw
            m = min(step, paths - lo)
            diff[lo : lo + step] = _weak_chunk_diff(
                sde.sample_brownian(seed + j, nf, m, d, pb.T, pb.B, first=lo, out=sde._path_rows(m, nf, d, buffer)),
                x0, drift_shift,
            )
        est = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(paths))
        params = dataclasses.replace(pb.params, C=abs(drift_shift), eps1=abs(drift_shift))
        bound = bounds.weak_error_bound(params, float(np.linalg.norm(x0)), 0.0, pb.T / N, trace)
        # E[Y_N] = x0 (1 - h)^N + s (1 - (1 - h)^N) for the step h = T/N and drift -y + s
        decay = (1.0 - pb.T / N) ** N
        exact = float(x0.sum()) * ((1.0 - pb.T / nf) ** nf - decay) - drift_shift * (1.0 - decay)
        rows.append((N, paths, abs(est), se, bound))
        estimates.append((N, abs(est), se))
        ok = ok and abs(est) <= bound + 3.0 * se and abs(est - exact) <= 4.0 * se
    x = [math.log(n) for n, _, _ in estimates]
    y = [math.log(max(e, 1e-300)) for _, e, _ in estimates]
    return rows, _slope(x, y), ok


def _weak_chunk_diff(fine, x0, drift_shift):
    """Per-path f0(X_T) - g0(Y_T) of one chunk: the fine scheme against the coarse one."""
    coarse = fine.coarsen(WEAK_REFINE).increments
    x_T = deque(sde.euler_states(x0, lambda y: -y, fine.increments, fine.T), maxlen=1)[0]
    y_T = deque(sde.euler_states(x0, lambda y: -y + drift_shift, coarse, fine.T), maxlen=1)[0]
    return x_T.sum(axis=1) - y_T.sum(axis=1)


def _slope(x, y):
    """Least-squares slope of y on x, by the numpy calls of ``scipy.stats.linregress``, so its bits."""
    ssxm, ssxym = np.cov(x, y, bias=True)[0]
    return ssxym / ssxm


# ---------------------------------------------------------------------------
# Monte Carlo Euler functional error (heat problem, closed-form reference)


def _mc_euler_functional_errors(tp, N, M, K, seed):
    """Sampled squared errors of the MC Euler functional against the exact solution.

    Fresh Brownian paths per sample point (the estimator targets the
    P (x) nu integrated error): point i draws its M x N x k normals from
    the stream keyed (seed, 7 << 48 | i), so the result does not depend on
    how the points are chunked.  Points run in the chunks of ``sde.mc_values``,
    one chunk alive at a time, and each chunk's paths are drawn by the
    sampler's threads, one point's stream per task when a stream holds at
    least 4 * ``sde._CHUNK_BLOCKS`` normals.  Every chunk fills a leading
    slice of one (points per chunk, M, N, d) buffer.
    """
    pb = tp.problem
    ts, xs = tp.measure.sample(K, seed)
    u_vals = tp.exact_solution(ts, xs)
    sq_errors = np.empty(K)
    chunks = sde._point_chunks(K, M, N, pb.d)
    buffer = np.empty((chunks[0].stop, M, N, pb.d))
    index = np.arange(K, dtype=np.uint64)
    for s in chunks:
        inc = buffer[: s.stop - s.start]
        sde._fill_increments((inc,), seed, sde._TAG_POINT_PATHS, index[s], (pb.B,), math.sqrt(pb.T / N))
        vals = sde.mc_values(pb.init_net, pb.drift_net, inc, pb.T, ts[s], xs[s]).mean(axis=1)
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


def _row_means(rows_of, n: int, cols: int):
    """``a.mean(axis=1)`` and ``a.mean()`` of the (n, cols) array a whose rows [lo, hi) are
    ``rows_of(lo, hi)``, bitwise, from chunks of at most ``sde._MC_CHUNK_ELEMENTS`` values.

    A row mean is its row's sum over ``cols``.  numpy's flat pairwise sum
    of a contiguous array splits a range of more than 128 values in
    halves, less each half's remainder modulo 8.  For n a power of two and
    cols a multiple of 8 above 64, every split falls on a row boundary
    down to single rows, so the flat sum is the row sums added in halves.
    """
    if n & (n - 1) or cols % 8 or cols <= 64:
        raise ValueError(
            "need a power-of-two row count and a multiple of 8 above 64 columns, got %d x %d" % (n, cols)
        )
    step = max(1, sde._MC_CHUNK_ELEMENTS // cols)
    sums = np.concatenate([rows_of(lo, min(lo + step, n)).sum(axis=1) for lo in range(0, n, step)])

    def halves(lo, hi):
        if hi - lo == 1:
            return sums[lo]
        mid = (lo + hi) // 2
        return halves(lo, mid) + halves(mid, hi)

    return sums / cols, halves(0, n) / (n * cols)


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
    mrows, _ = moment_study(paths=20_000, seed=seed + 1)
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
    B = tp.problem.B
    trace = float(np.trace(B.T @ B))
    N, paths = 8, 20_000
    noise = sde.sample_brownian(seed + 5, N, paths, 1, tp.problem.T, B)
    max_walk = sde.walk_norms(noise.increments).max(axis=1)
    ts, xs = tp.measure.sample(2048, seed + 6)
    xnorm = np.linalg.norm(xs, axis=1)
    C, c = tp.problem.params.C, tp.problem.params.c

    def h2sq(lo, hi):  # rows [lo, hi) of the 2,048 x 20,000 squares, squared in place
        h2 = bounds.path_growth_factor(xnorm[lo:hi, None], C, c, tp.problem.T, max_walk[None, :], 2.0)
        return np.square(h2, out=h2)

    per_point, mean = _row_means(h2sq, len(xnorm), paths)
    emp = math.sqrt(mean)
    se = per_point.std(ddof=1) / math.sqrt(len(per_point)) / (2 * emp)
    cal_c = max(1.0, (xnorm ** 8).mean() ** (1.0 / 8.0))
    mart = bounds.gaussian_moment_bound(4.0, tp.problem.T * trace)
    val = bounds.gronwall_moment_bound(2.0, 2.0, c, C * tp.problem.T, cal_c, mart, tp.measure.mass)
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
    running_max = np.maximum.accumulate(sde.walk_norms(noise.increments[0]))
    worst_ratio = 0.0
    for t in np.linspace(0.0, 1.0, 9):
        for xv in (-1.0, 0.0, 1.5):
            x = np.array([xv])
            approx = nets.realize(psi, np.concatenate([[t], x]))
            # path 0 of the scheme, run on both paths as the drift's batch
            exact = sde.mc_values(lambda y: y, tp1.problem.drift_net, noise.increments, noise.T, [t], x[None])[0, :1]
            n = min(int(t * budget.N), budget.N - 1)
            g_lo, g_hi = bounds.drift_growth_envelope(
                abs(xv), 0.0, 0.0, np.array([n, n + 1]) / budget.N, running_max[n : n + 2]
            )
            limit = bounds.euler_emulation_error_bound(budget.delta, 1, 3.0, g_lo, g_hi)
            dev = float(np.abs(approx - exact).max())
            worst_ratio = max(worst_ratio, dev / limit)
    rows.append(
        ("euler_emulation_error_bound", "path-deviation", "d=1;N=2", 1.0, worst_ratio)
    )

    ok = all(value >= emp_allowed for _, _, _, value, emp_allowed in rows)
    return rows, ok
