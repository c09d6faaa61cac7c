"""The benchmark's output checks accept correct output and reject wrong output.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import math

import numpy as np
import pytest

from kolmonet import build, cli, nets, sde
from perfbench import checks


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def change_digit(text, key, offset):
    """Change the digit ``offset`` characters after the decimal point of ``key``'s value."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key + " "):
            pos = line.index(".") + offset
            lines[i] = line[:pos] + str((int(line[pos]) + 1) % 10) + line[pos + 1:]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plan


PLAN_INPUTS = [(10, 0.1, 1.0), (10, 0.001, 1.0), (3, 0.5, 6.0), (3, 0.02, 6.0)]


@pytest.fixture(scope="module")
def plan_runs():
    out = []
    for d, eps, kappa in PLAN_INPUTS:
        rc, text = run_cli(["plan", "--d", str(d), "--eps", repr(eps), "--kappa", repr(kappa)])
        out.append(((d, eps, kappa), rc, text))
    return out


def test_plan_check_accepts_program_output(plan_runs):
    assert checks.check_plans(plan_runs) == []


@pytest.mark.parametrize("key", ["log10_N", "log10_M", "log10_guaranteed_params", "log10_delta", "cost_exponent_c"])
def test_plan_check_rejects_one_changed_digit(plan_runs, key):
    inputs, rc, text = plan_runs[1]
    offset = 0 if key == "cost_exponent_c" else 4
    if key == "cost_exponent_c":
        text = text.replace("cost_exponent_c 218", "cost_exponent_c 219")
    else:
        text = change_digit(text, key, offset)
    assert text != plan_runs[1][2]
    assert checks.check_plans([plan_runs[0], (inputs, rc, text)] + plan_runs[2:])


def test_plan_check_rejects_nonzero_exit_and_non_finite(plan_runs):
    inputs, _rc, text = plan_runs[0]
    assert checks.check_plans([(inputs, 1, text)])
    assert checks.check_plans([(inputs, 0, text.replace("log10_N 39", "log10_N inf #"))])


# ---------------------------------------------------------------------------
# increments


def test_increment_check_matches_program_and_rejects_one_flipped_bit():
    B = math.sqrt(2.0) * np.eye(1)
    program = sde.sample_brownian(2026, 8, 6, 1, 1.0, B).increments
    reference = checks.reference_increments(2026, 8, 6, 1.0, B)
    assert checks.check_increments(program, reference) == []
    flipped = program.copy()
    flipped.view(np.uint64)[3, 5, 0] ^= np.uint64(1)
    assert checks.check_increments(flipped, reference)


def test_increment_check_covers_later_paths_and_several_dimensions():
    B = np.array([[1.0, 0.5], [0.0, 2.0], [0.3, 0.0]])
    program = sde.sample_brownian(7, 4, 12, 3, 2.0, B).increments
    assert checks.check_increments(program[9:], checks.reference_increments(7, 4, 3, 2.0, B, first=9)) == []
    assert checks.check_increments(program[8:11], checks.reference_increments(7, 4, 3, 2.0, B, first=9))


def test_measure_points_are_the_program_sample_points():
    t, x = sde.UniformSpaceTimeMeasure(1.0, -1.0, 1.0, 2).sample(64, 11)
    tr, xr = checks.measure_points(64, 11, 2)
    assert np.array_equal(t, tr) and np.array_equal(x, xr)


# ---------------------------------------------------------------------------
# build, reference network, verify


@pytest.fixture(scope="module")
def small_builds(tmp_path_factory):
    root = tmp_path_factory.mktemp("nets")
    heat, ou = str(root / "heat.json"), str(root / "ou.json")
    spec = ["--d", "1", "--N", "2", "--M", "4", "--delta", "0.015625", "--seed", "3"]
    heat_build = run_cli(["build", "--problem", "heat_relu", *spec, "--out", heat])
    ou_build = run_cli(["build", "--problem", "ou_linear", *spec, "--out", ou])
    return {"heat": (heat, heat_build), "ou": (ou, ou_build)}


def _layers(path):
    with open(path, "rb") as fh:
        return checks.load_layers(fh.read())


def test_forward_matches_realize(small_builds):
    path, _ = small_builds["heat"]
    _prov, _dims, layers = _layers(path)
    pts = np.random.default_rng(0).uniform(-1, 1, (32, 2))
    assert np.array_equal(checks.forward(layers, pts), nets.realize(build.load_solution(path).net, pts))


def test_build_check_accepts_and_rejects(small_builds):
    path, (rc, text) = small_builds["heat"]
    _prov, dims, layers = _layers(path)
    assert checks.check_build(text, rc, dims, layers) == []
    count = int(checks.parse_kv(text)["param_count"])
    assert checks.check_build(text.replace("param_count %d" % count, "param_count %d" % (count + 1)), rc, dims, layers)
    lowered = "\n".join(
        "param_bound %d" % (count - 1) if line.startswith("param_bound") else line for line in text.splitlines()
    )
    assert checks.check_build(lowered, rc, dims, layers)
    assert checks.check_build(text, 1, dims, layers)


def _own_points(n=64, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, n), rng.uniform(-1, 1, (n, 1))


def test_reference_network_check_accepts_heat_and_rejects_ou_network(small_builds):
    t, x = _own_points()
    B = math.sqrt(2.0) * np.eye(1)
    inc = checks.reference_increments(3, 2, 4, 1.0, B)
    mc = checks.heat_mc_average(inc, 1.0, t, x)
    exact = checks.heat_exact(t, x)
    heat_vals = checks.forward(_layers(small_builds["heat"][0])[2], np.column_stack([t, x])).ravel()
    ou_vals = checks.forward(_layers(small_builds["ou"][0])[2], np.column_stack([t, x])).ravel()
    # the small heat network tracks its MC average; four paths are too few for the L2 cap
    assert checks.check_reference_network(heat_vals, mc, exact, l2_cap=math.inf) == []
    fails = checks.check_reference_network(ou_vals, mc, exact)
    assert any("MC average" in f for f in fails) and any("L2" in f for f in fails)


def test_heat_mc_average_is_exact_at_zero_noise():
    t, x = _own_points()
    zero = np.zeros((2, 4, 1))  # two paths: the mean of two equal values is exact
    assert np.array_equal(checks.heat_mc_average(zero, 1.0, t, x), np.maximum(x, 0.0).sum(axis=1))


def test_heat_exact_against_quadrature():
    # u(t, x) = E[max(x + sqrt(2t) Z, 0)], Z standard normal, by the trapezoid rule
    z = np.linspace(-12.0, 12.0, 240_001)
    density = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    t, x = np.array([0.3, 1.0]), np.array([[-0.4], [0.7]])
    quad = [np.trapezoid(np.maximum(xi + math.sqrt(2 * ti) * z, 0) * density, z) for ti, xi in zip(t, x[:, 0])]
    assert np.allclose(checks.heat_exact(t, x), quad, rtol=1e-8)


def test_verify_check_accepts_heat_and_rejects_ou_as_heat(small_builds):
    for which, expect_ok in (("heat", True), ("ou", False)):
        path, _ = small_builds[which]
        rc, text = run_cli(["verify", "--in", path, "--problem", "heat_relu", "--d", "1", "--samples", "128", "--seed", "4"])
        tv, xv = checks.measure_points(128, 4, 1)
        own = checks.l2(checks.forward(_layers(path)[2], np.column_stack([tv, xv])).ravel(), checks.heat_exact(tv, xv))
        fails = checks.check_verify(text, rc, own, l2_cap=0.5 if expect_ok else 0.15)
        assert (fails == []) == expect_ok, fails
        if expect_ok:
            changed = checks.parse_verify(text)["exact"] * (1 + 1e-6)
            row = text.splitlines()[1].split(",")
            row[0] = repr(changed)
            assert checks.check_verify(text.splitlines()[0] + "\n" + ",".join(row), rc, own, l2_cap=0.5)
            assert checks.check_verify(text, 1, own, l2_cap=0.5)


# ---------------------------------------------------------------------------
# studies


def test_ou_second_moment_matches_closed_sum():
    h, a, x0, d = 1 / 16, 0.5, 0.5, 3
    best = max(x0**2 * (1 - h) ** (2 * n) + 2 * a * h * sum((1 - h) ** (2 * i) for i in range(n)) for n in range(17))
    assert checks.ou_second_moment_max(d) == pytest.approx(d * best, rel=1e-14)


def _euler_stdout(shift_case=None, shift=0.0, violations=0, paths=20000):
    se = 0.005
    rows = ["interp,N=8,%d,%r,%r,0.17677669529663689,0" % (paths, 0.5 * math.sqrt(1 / 8) + (shift if shift_case == "interp" else 0), 4e-4)]
    m = max(1000, paths // 5)
    for prob, ref in (("heat_relu", checks.heat_second_moment_max), ("ou_linear", checks.ou_second_moment_max)):
        for d in (1, 2, 5):
            key = "%s;d=%d;q=2" % (prob, d)
            est = math.sqrt(ref(d)) + (shift * se / 4e-4 if shift_case == key else 0.0)
            rows.append("moment,%s,%d,%r,%r,9.0,%d" % (key, m, est, se, violations if shift_case == key else 0))
    return "\n".join(rows + ["status pass"]) + "\n"


def test_euler_check_accepts_exact_references():
    assert checks.check_study_euler(_euler_stdout(), 0, 20000) == []


@pytest.mark.parametrize("case", ["interp", "heat_relu;d=2;q=2", "ou_linear;d=5;q=2"])
def test_euler_check_rejects_reference_shifted_by_10_se(case):
    assert checks.check_study_euler(_euler_stdout(case, 10 * 4e-4), 0, 20000)


def test_euler_check_rejects_violations_status_and_exit():
    assert checks.check_study_euler(_euler_stdout("ou_linear;d=1;q=2", 0.0, violations=1), 0, 20000)
    assert checks.check_study_euler(_euler_stdout().replace("status pass", "status fail"), 1, 20000)
    assert checks.check_study_euler(_euler_stdout(), 1, 20000)


def test_euler_check_accepts_program_output():
    rc, text = run_cli(["study", "euler", "--paths", "20000"])
    assert checks.check_study_euler(text, rc, 20000) == []


def _weak_stdout(shift_row=None, shift=0.0, slope_delta=0.0, paths=5000):
    Ns = (2, 4, 8, 16, 32, 64)
    se = [1e-4 * 2.0 ** -j for j in range(6)]
    est = [checks.ou_weak_error(N) + (shift * se[j] if N == shift_row else 0.0) for j, N in enumerate(Ns)]
    xs, ys = np.log(Ns), np.log(est)
    slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum()) + slope_delta
    rows = ["%d,%d,%r,%r,99.0" % (N, paths, e, s) for N, e, s in zip(Ns, est, se)]
    return "\n".join(rows + ["slope,,%r,,-0.35" % slope, "status pass"]) + "\n"


def test_weak_check_accepts_exact_references():
    assert checks.check_study_weak(_weak_stdout(), 0, 5000) == []


@pytest.mark.parametrize("N", [2, 64])
def test_weak_check_rejects_reference_shifted_by_10_se(N):
    assert checks.check_study_weak(_weak_stdout(N, 10.0), 0, 5000)


def test_weak_check_rejects_changed_slope_and_exit():
    assert checks.check_study_weak(_weak_stdout(slope_delta=1e-6), 0, 5000)
    assert checks.check_study_weak(_weak_stdout(), 1, 5000)


def test_weak_check_accepts_program_output():
    rc, text = run_cli(["study", "weak", "--paths", "1000"])
    assert checks.check_study_weak(text, rc, 1000) == []
