"""Output checks for the benchmark workloads, computed apart from kolmonet.

Every reference here is recomputed from the method's definition: the
Philox stream layout of the Brownian sampler, the closed-form heat
solution, the Euler chain's second moments, the exact weak error of the
linear OU functional and the planner's exponents.  Nothing is compared
against a stored copy of the program's output.  Each ``check_*``
function returns a list of failure messages; an empty list means pass.

This module imports numpy and scipy only, never kolmonet.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import ndtr, ndtri

_U53 = 2.0**-53
_TAG_INCREMENTS = 1
_TAG_MEASURE = 2


# ---------------------------------------------------------------------------
# random streams, redrawn from the documented layout


def philox(seed: int, tag: int, index: int) -> np.random.Generator:
    """Philox4x64 generator keyed by (seed, tag << 48 | index)."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64((tag << 48) | index)])
    return np.random.Generator(np.random.Philox(key=key))


def reference_increments(seed: int, N: int, M: int, T: float, B, first: int = 0) -> np.ndarray:
    """Increments of paths first..first+M-1, shape (M, N, d).

    Path m draws N x k integers in [0, 2^53) from its own stream, maps
    them to uniforms (i + 0.5) 2^-53, to normals through ndtri, and scales
    by sqrt(T/N) B.
    """
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    k = B.shape[1]
    out = np.empty((M, N, B.shape[0]))
    for i, m in enumerate(range(first, first + M)):
        u = (philox(seed, _TAG_INCREMENTS, m).integers(0, 2**53, size=(N, k)).astype(np.float64) + 0.5) * _U53
        out[i] = math.sqrt(T / N) * (ndtri(u) @ B.T)
    return out


def measure_points(n: int, seed: int, d: int, T: float = 1.0, alpha: float = -1.0, beta: float = 1.0):
    """The sample points (t, x) the program's uniform space-time measure draws for ``seed``."""
    u = philox(seed, _TAG_MEASURE, 0).random((n, d + 1))
    return u[:, 0] * T, alpha + u[:, 1:] * (beta - alpha)


def check_increments(program: np.ndarray, reference: np.ndarray) -> list:
    program = np.asarray(program)
    if program.shape != reference.shape:
        return ["increments shape %s, expected %s" % (program.shape, reference.shape)]
    if program.tobytes() != reference.tobytes():
        bad = int((program.view(np.uint64) != reference.view(np.uint64)).sum())
        return ["%d increments differ bitwise from the redrawn Philox stream" % bad]
    return []


# ---------------------------------------------------------------------------
# plan


PLAN_KEYS = ("cost_exponent_c", "log10_guaranteed_params", "log10_N", "log10_M", "log10_delta")


def parse_kv(text: str) -> dict:
    """``key value`` lines of a command's stdout, as floats."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = float(parts[1])
    return out


def plan_exponents(kappa: float, eta: float = 1.0):
    """(exp_N, exp_M, cost exponent) of the budget formulas, as functions of kappa and eta."""
    k = kappa
    exp_n = 2 * k * (k + 4) + 2 * max(eta, k * (2 * k + 1)) + 2 * eta
    exp_m = 2 * k + 2 * max(eta, k * k) + 2 * eta
    cost = 18 + 12 * k + 4 * max(eta, k * k) + 4 * eta + exp_n * (6 + 4 * k)
    return exp_n, exp_m, cost


def check_plans(runs, tol: float = 1e-9) -> list:
    """``runs``: list of ((d, eps, kappa), exit_code, stdout).

    Every call exits 0 with finite numbers in log10 form; the exponents
    match their closed forms; and between two plans at the same (d, kappa)
    the log10 budgets move by the eps scaling laws.
    """
    fails = []
    parsed = {}
    for (d, eps, kappa), rc, text in runs:
        tag = "plan d=%d eps=%r kappa=%g" % (d, eps, kappa)
        if rc != 0:
            fails.append("%s exited %d" % (tag, rc))
            continue
        vals = parse_kv(text)
        missing = [k for k in PLAN_KEYS if k not in vals]
        if missing:
            fails.append("%s lacks %s" % (tag, missing))
            continue
        if not all(math.isfinite(v) for v in vals.values()):
            fails.append("%s printed a non-finite number" % tag)
            continue
        exp_n, exp_m, cost = plan_exponents(kappa)
        if vals["cost_exponent_c"] != cost:
            fails.append("%s cost exponent %r, closed form %r" % (tag, vals["cost_exponent_c"], cost))
        gap = (exp_n - exp_m) * math.log10(d)
        if abs(vals["log10_N"] - vals["log10_M"] - gap) > tol:
            fails.append("%s log10 N - log10 M = %r, closed form %r" % (tag, vals["log10_N"] - vals["log10_M"], gap))
        parsed[(d, eps, kappa)] = vals
    groups = {}
    for (d, eps, kappa), vals in parsed.items():
        groups.setdefault((d, kappa), []).append((eps, vals))
    for (d, kappa), members in groups.items():
        members.sort(key=lambda m: m[0])
        for (eps1, small), (eps2, large) in zip(members, members[1:]):
            r = math.log10(eps2 / eps1)
            laws = {
                "log10_N": 2 * r,
                "log10_M": 2 * r,
                "log10_guaranteed_params": (18 + 8 * kappa) * r,
            }
            if small["log10_delta"] < 0 and large["log10_delta"] < 0:
                laws["log10_delta"] = -r
            for key, want in laws.items():
                got = small[key] - large[key]
                if abs(got - want) > tol * max(1.0, abs(want)):
                    fails.append(
                        "plan d=%d kappa=%g: %s grows by %r from eps %r to %r, scaling law says %r"
                        % (d, kappa, key, got, eps2, eps1, want)
                    )
    return fails


# ---------------------------------------------------------------------------
# build and the reference network


def load_layers(data: bytes):
    """(provenance, [(weight, bias), ...]) parsed from a solution file with json alone."""
    doc = json.loads(data.decode())
    net = doc["network"]
    dims = [int(v) for v in net["dims"]]
    layers = []
    for k, entry in enumerate(net["layers"]):
        w = np.asarray(entry["weight"], dtype=np.float64).reshape(dims[k + 1], dims[k])
        layers.append((w, np.asarray(entry["bias"], dtype=np.float64)))
    return doc["provenance"], dims, layers


def forward(layers, x: np.ndarray) -> np.ndarray:
    """Rectifier network on a batch: ReLU on hidden layers, affine output."""
    for w, b in layers[:-1]:
        x = np.maximum(x @ w.T + b, 0.0)
    w, b = layers[-1]
    return x @ w.T + b


def check_build(stdout: str, rc: int, dims, layers) -> list:
    if rc != 0:
        return ["build exited %d" % rc]
    vals = parse_kv(stdout)
    fails = []
    formula = sum(dims[k] * (dims[k - 1] + 1) for k in range(1, len(dims)))
    stored = sum(w.size + b.size for w, b in layers)
    count = vals.get("param_count")
    bound = vals.get("param_bound")
    if count is None or bound is None:
        return ["build printed no param_count/param_bound"]
    if count != formula or count != stored:
        fails.append("param_count %r, but the loaded network has %d (dims formula %d)" % (count, stored, formula))
    if not count <= bound:
        fails.append("param_count %r exceeds param_bound %r" % (count, bound))
    return fails


def heat_exact(t, x) -> np.ndarray:
    """u(t, x) = sum_i [x_i Phi(x_i / s) + s phi(x_i / s)], s = sqrt(2t); sum max(x_i, 0) at t = 0."""
    t = np.asarray(t, dtype=np.float64)[:, None]
    x = np.asarray(x, dtype=np.float64)
    s = np.sqrt(2.0 * t)
    safe = np.where(s > 0, s, 1.0)
    z = x / safe
    smooth = x * ndtr(z) + s * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return np.where(s > 0, smooth, np.maximum(x, 0.0)).sum(axis=1)


def heat_mc_average(increments: np.ndarray, T: float, t, x) -> np.ndarray:
    """(1/M) sum_m f0(x + W^m_t) for zero drift, W^m the linear interpolation of partial sums."""
    M, N, d = increments.shape
    walk = np.concatenate([np.zeros((M, 1, d)), np.cumsum(increments, axis=1)], axis=1)
    s = np.asarray(t) * N / T
    n = np.minimum(np.floor(s).astype(int), N - 1)
    rho = (s - n)[None, :, None]
    w_t = (1.0 - rho) * walk[:, n] + rho * walk[:, n + 1]  # (M, K, d)
    return np.maximum(x[None, :, :] + w_t, 0.0).sum(axis=2).mean(axis=0)


def l2(a, b) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def check_reference_network(net_values, mc_values, exact_values, mc_tol: float = 1e-3, l2_cap: float = 0.15) -> list:
    fails = []
    gap = float(np.abs(np.asarray(net_values) - np.asarray(mc_values)).max())
    if not gap <= mc_tol:
        fails.append("network deviates from the direct MC average by %.3g > %g" % (gap, mc_tol))
    err = l2(net_values, exact_values)
    if not err <= l2_cap:
        fails.append("network L2 error %.4g against the closed-form heat solution exceeds %g" % (err, l2_cap))
    return fails


VERIFY_HEADER = "lp_error_vs_exact,lp_error_vs_mc_average,solution_error_bound,status"


def parse_verify(text: str):
    lines = text.strip().splitlines()
    if len(lines) != 2 or lines[0] != VERIFY_HEADER:
        return None
    exact, mc, bound, status = lines[1].split(",")
    return {"exact": float(exact), "mc": float(mc), "bound": float(bound), "status": status}


def check_verify(stdout: str, rc: int, own_l2: float, mc_tol: float = 1e-3, l2_cap: float = 0.15, rel: float = 1e-9) -> list:
    if rc != 0:
        return ["verify exited %d" % rc]
    row = parse_verify(stdout)
    if row is None:
        return ["verify output is not the documented two-line CSV"]
    fails = []
    if row["status"] != "pass":
        fails.append("verify status %r" % row["status"])
    if not row["mc"] <= mc_tol:
        fails.append("lp_error_vs_mc_average %.3g > %g" % (row["mc"], mc_tol))
    if not row["exact"] <= l2_cap:
        fails.append("lp_error_vs_exact %.4g > %g" % (row["exact"], l2_cap))
    if not abs(row["exact"] - own_l2) <= rel * abs(own_l2):
        fails.append("lp_error_vs_exact %r differs from the recomputed L2 %r" % (row["exact"], own_l2))
    return fails


# ---------------------------------------------------------------------------
# study euler


def heat_second_moment_max(d: int, T: float = 1.0, x0: float = 0.5) -> float:
    """max_n E|Y_n|^2 of the zero-drift chain with covariance 2 h I per step: |x0|^2 + 2 d T."""
    return d * x0 * x0 + 2.0 * d * T


def ou_second_moment_max(d: int, N: int = 16, T: float = 1.0, a: float = 0.5, x0: float = 0.5) -> float:
    """max_n E|Y_n|^2 of Y_{n+1} = (1 - h) Y_n + sqrt(2 a h) Z: d (m_n^2 + v_n)."""
    h = T / N
    m, v, best = x0, 0.0, x0 * x0
    for _ in range(N):
        m, v = (1.0 - h) * m, (1.0 - h) ** 2 * v + 2.0 * a * h
        best = max(best, m * m + v)
    return d * best


def parse_csv_rows(text: str):
    lines = text.strip().splitlines()
    status = lines[-1] if lines else ""
    return [line.split(",") for line in lines[:-1]], status


def check_study_euler(stdout: str, rc: int, paths: int, N_interp: int = 8, ds=(1, 2, 5)) -> list:
    if rc != 0:
        return ["study euler exited %d" % rc]
    rows, status = parse_csv_rows(stdout)
    fails = [] if status == "status pass" else ["study euler status line %r" % status]
    interp = [r for r in rows if r[0] == "interp"]
    moments = {r[1]: r for r in rows if r[0] == "moment"}
    if len(interp) != 1:
        return fails + ["expected one interp row, got %d" % len(interp)]
    _, case, n_paths, est, se, _bound, _v = interp[0]
    target = 0.5 * math.sqrt(1.0 / N_interp)  # (1/2) sqrt(h tr BB*), B = I, d = 1
    if case != "N=%d" % N_interp or int(n_paths) != paths:
        fails.append("interp row %r does not describe N=%d with %d paths" % (interp[0], N_interp, paths))
    if not abs(float(est) - target) <= 3.0 * float(se):
        fails.append("midpoint RMS %s is not within 3 SE (%s) of %r" % (est, se, target))
    m_paths = max(1000, paths // 5)
    for prob, ref in (("heat_relu", heat_second_moment_max), ("ou_linear", ou_second_moment_max)):
        for d in ds:
            key = "%s;d=%d;q=2" % (prob, d)
            row = moments.get(key)
            if row is None:
                fails.append("missing moment row %s" % key)
                continue
            _, _, n_paths, est, se, _bound, viol = row
            want = math.sqrt(ref(d))
            if int(n_paths) != m_paths:
                fails.append("moment row %s used %s paths, expected %d" % (key, n_paths, m_paths))
            if not abs(float(est) - want) <= 4.0 * float(se):
                fails.append("moment %s = %s is not within 4 SE (%s) of %r" % (key, est, se, want))
            if int(viol) != 0:
                fails.append("moment %s has %s envelope violations" % (key, viol))
    if len(moments) != 2 * len(ds):
        fails.append("expected %d moment rows, got %d" % (2 * len(ds), len(moments)))
    return fails


# ---------------------------------------------------------------------------
# study weak


def ou_weak_error(N: int, refine: int = 64, T: float = 1.0, x0: float = 0.7) -> float:
    """E[X_T - Y_T] for Euler on dX = -X dt + dW with the linear f0: x0 [(1 - h/r)^{rN} - (1 - h)^N]."""
    h = T / N
    return x0 * ((1.0 - h / refine) ** (refine * N) - (1.0 - h) ** N)


def check_study_weak(stdout: str, rc: int, paths: int, Ns=(2, 4, 8, 16, 32, 64), slope_cap: float = -0.35) -> list:
    if rc != 0:
        return ["study weak exited %d" % rc]
    rows, status = parse_csv_rows(stdout)
    fails = [] if status == "status pass" else ["study weak status line %r" % status]
    data = [r for r in rows if r[0] != "slope"]
    slope_rows = [r for r in rows if r[0] == "slope"]
    if [int(r[0]) for r in data] != list(Ns) or len(slope_rows) != 1:
        return fails + ["study weak rows are not N = %s plus one slope row" % (list(Ns),)]
    logs = []
    for n_str, n_paths, est, se, _bound in data:
        N, est, se = int(n_str), float(est), float(se)
        want = ou_weak_error(N)
        if int(n_paths) != paths:
            fails.append("weak row N=%d used %s paths, expected %d" % (N, n_paths, paths))
        if not abs(est - want) <= 4.0 * se:
            fails.append("weak error at N=%d is %r, not within 4 SE (%r) of %r" % (N, est, se, want))
        logs.append((math.log(N), math.log(max(est, 1e-300))))
    slope = float(slope_rows[0][2])
    xs = np.array([a for a, _ in logs])
    ys = np.array([b for _, b in logs])
    fit = float(((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum())
    if not abs(slope - fit) <= 1e-9 * max(1.0, abs(fit)):
        fails.append("printed slope %r differs from the least-squares slope %r of the rows" % (slope, fit))
    if not slope <= slope_cap:
        fails.append("weak error slope %r above %r" % (slope, slope_cap))
    return fails
