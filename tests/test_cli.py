"""Command-line driver: subcommands, exit codes, determinism, config precedence."""

import json
import math
import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest

import kolmonet
from kolmonet import bounds, build, cli, nets, problems, sde


def run(argv):
    return cli.main(argv)


def test_plan_finite_budget_exit_zero(capsys):
    assert run(["plan", "--d", "1", "--eps", "1", "--kappa", "1", "--eta", "1", "--T", "1", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "cost_exponent_c" in out
    assert "log10_" in out or "N " in out


def test_build_then_verify_pass(tmp_path, capsys):
    out = tmp_path / "net.json"
    code = run(
        [
            "build", "--problem", "heat_relu", "--d", "1",
            "--N", "4", "--M", "16", "--delta", "0.015625",
            "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "param_count" in text and "ratio" in text
    code = run(
        ["verify", "--in", str(out), "--problem", "heat_relu", "--d", "1", "--samples", "256", "--seed", "5"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert text.strip().endswith("pass")


def test_verify_corrupted_network_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ definitely not a network")
    assert run(["verify", "--in", str(bad), "--problem", "heat_relu", "--d", "1"]) == 2


def test_verify_non_finite_network_exit_two(tmp_path, capsys):
    out = tmp_path / "net.json"
    args = ["build", "--problem", "heat_relu", "--d", "1", "--N", "1", "--M", "1", "--delta", "0.5", "--seed", "3"]
    assert run(args + ["--out", str(out)]) == 0
    text = out.read_text()
    assert '"bias": [0' in text
    out.write_text(text.replace('"bias": [0', '"bias": [NaN', 1))
    capsys.readouterr()
    assert run(["verify", "--in", str(out), "--problem", "heat_relu", "--d", "1"]) == 2
    assert "cannot load network" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_samples_below_one_exit_two(tmp_path, capsys, samples):
    # checked before the file is loaded, so a missing file is not what fails
    args = ["verify", "--in", str(tmp_path / "absent.json"), "--problem", "heat_relu", "--samples", samples]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert "--samples must be at least 1, got %s" % samples in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("d", ["0", "-1"])
def test_dimension_below_one_exit_two(tmp_path, capsys, command, d):
    path = tmp_path / "net.json"
    if command == "build":
        args = ["build", "--N", "1", "--M", "1", "--delta", "0.5", "--out", str(path)]
    else:
        args = ["verify", "--in", str(path)]
    assert run(args + ["--problem", "heat_relu", "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: dimension d must be at least 1, got %s\n" % d
    assert captured.out == ""
    assert not path.exists()


def test_build_with_non_finite_provenance_exit_two_and_keeps_the_file(tmp_path, capsys, monkeypatch):
    # the error bound raises OverflowError rather than return inf, so this guards the writer
    # against any non-finite provenance value; the reader would reject such a file
    monkeypatch.setattr(build, "solution_error_bound", lambda *args: math.inf)
    out = tmp_path / "net.json"
    out.write_bytes(b"an earlier build")
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625"]
    assert run(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "cannot write %s: provenance holds a value the reader rejects" % out in captured.err
    assert captured.out == ""
    assert out.read_bytes() == b"an earlier build"


def test_build_with_a_product_range_beyond_the_float_range_exits_two_with_one_line(tmp_path):
    # delta = 1e-150 makes the product range R about 8e150, so R^2 / delta overflows
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(kolmonet.__file__).parents[1]))
    out = tmp_path / "net.json"
    argv = ["build", "--problem", "heat_relu", "--d", "1", "--N", "1", "--M", "1", "--delta", "1e-150"]
    proc = subprocess.run(
        [sys.executable, "-m", "kolmonet.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
    assert proc.stderr == (
        "error: product range R^2 / eps beyond the float range: eps = 1e-150, R = 8e+150, "
        "log10(R^2 / eps) = 451.806\n"
    )
    # 1e-100 still builds
    assert run(argv[:-1] + ["1e-100", "--out", str(out)]) == 0


def test_verify_missing_file_exit_two(tmp_path):
    assert run(["verify", "--in", str(tmp_path / "absent.json"), "--problem", "heat_relu", "--d", "1"]) == 2


def test_study_calculus_pass(tmp_path, capsys):
    out = tmp_path / "calc.csv"
    assert run(["study", "calculus", "--instances", "60", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "check,instances,failures"


@pytest.mark.parametrize(
    "suite, flag, value, least",
    [
        ("weak", "--paths", "1", 2),
        ("weak", "--paths", "-5", 2),
        ("euler", "--paths", "1", 2),
        ("euler", "--paths", "0", 2),
        ("calculus", "--instances", "0", 1),
        ("calculus", "--instances", "-2", 1),
    ],
)
def test_study_degenerate_counts_exit_two_before_any_work(tmp_path, capsys, monkeypatch, suite, flag, value, least):
    def no_work(*args, **kwargs):
        raise AssertionError("the study ran")

    for name in ("weak_error_study", "strong_interp_study", "moment_study", "calculus_study"):
        monkeypatch.setattr(cli.studies, name, no_work)
    out = tmp_path / "rows.csv"
    assert run(["study", suite, flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s must be at least %d, got %s\n" % (flag, least, value)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "suite, flag",
    [("bounds", "--paths"), ("bounds", "--instances"), ("calculus", "--paths"), ("euler", "--instances"), ("weak", "--instances")],
)
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_study_flag_its_suite_does_not_read_exits_two_before_any_work(
    tmp_path, capsys, monkeypatch, suite, flag, via_config
):
    def no_work(*args, **kwargs):
        raise AssertionError("the study ran")

    for name in ("weak_error_study", "strong_interp_study", "moment_study", "calculus_study", "bounds_study"):
        monkeypatch.setattr(cli.studies, name, no_work)
    out = tmp_path / "rows.csv"
    argv = ["study", suite, flag, "5", "--out", str(out)]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: 5}))
        argv = ["study", suite, "--config", str(cfg), "--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: study %s does not read %s\n" % (suite, flag)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "suite, study, size",
    [("euler", "strong_interp_study", "paths"), ("weak", "weak_error_study", "paths"), ("calculus", "calculus_study", "instances")],
)
def test_study_size_flags_keep_their_defaults(monkeypatch, suite, study, size):
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        raise ValueError("recorded")

    monkeypatch.setattr(cli.studies, study, record)
    assert run(["study", suite, "--seed", "3"]) == 2
    assert calls == [{size: {"paths": 20_000, "instances": 500}[size], "seed": 3}]


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_kolmonet_threads_exits_two_before_any_work(capsys, monkeypatch, value):
    def no_work(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli.studies, "strong_interp_study", no_work)
    monkeypatch.setenv("KOLMONET_THREADS", value)
    assert run(["study", "euler", "--paths", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: KOLMONET_THREADS must be a positive integer, got %r\n" % value
    assert captured.out == ""


def test_bad_kolmonet_threads_exits_two_from_a_fresh_process():
    env = dict(os.environ, KOLMONET_THREADS="0", PYTHONPATH=str(pathlib.Path(kolmonet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kolmonet.cli", "plan"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: KOLMONET_THREADS must be a positive integer, got '0'\n"


def test_study_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["study", "calculus", "--instances", "40", "--out", str(a)]) == 0
    assert run(["study", "calculus", "--instances", "40", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_deterministic_bytes(tmp_path):
    f1, f2 = tmp_path / "n1.json", tmp_path / "n2.json"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.25", "--seed", "17"]
    assert run(args + ["--out", str(f1)]) == 0
    assert run(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_build_to_dev_null(tmp_path, capsys):
    # a target that is not a regular file is written as before, without truncation
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(tmp_path / "net.json")]) == 0
    to_file = capsys.readouterr().out
    assert run(args + ["--out", "/dev/null"]) == 0
    assert capsys.readouterr().out == to_file
    assert len(to_file.splitlines()) == 3


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 23, "M": 4}))
    out = tmp_path / "n.json"
    # flag --M beats config M; config seed fills the unset flag
    assert run(
        [
            "build", "--problem", "heat_relu", "--d", "1", "--N", "2", "--M", "2",
            "--delta", "0.5", "--config", str(cfg), "--out", str(out),
        ]
    ) == 0
    from kolmonet import build as build_mod

    prov = build_mod.load_solution(out).provenance
    assert prov["seed"] == 23
    assert prov["M"] == 2


def test_unknown_problem_exit_two(capsys):
    with pytest.raises(SystemExit):
        run(["build", "--problem", "unknown", "--d", "1", "--N", "1", "--M", "1", "--delta", "0.5", "--out", "x"])


def test_build_then_verify_reference_budget(tmp_path, capsys):
    # the end-to-end budget (N, M, delta) = (8, 64, 2^-8) driven through files
    out = tmp_path / "heat.json"
    code = run(
        [
            "build", "--problem", "heat_relu", "--d", "1",
            "--N", "8", "--M", "64", "--delta", str(2.0**-8),
            "--seed", "2026", "--out", str(out),
        ]
    )
    assert code == 0
    code = run(
        ["verify", "--in", str(out), "--problem", "heat_relu", "--d", "1", "--samples", "256", "--seed", "11"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("pass")


def test_verify_rejects_network_of_another_problem(tmp_path, capsys):
    out = tmp_path / "ou.json"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    code = run(["verify", "--in", str(out), "--problem", "heat_relu", "--d", "1", "--samples", "512", "--seed", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "another problem" in captured.err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("N", "2", "provenance N must be an integer"),
        ("M", 2.0, "provenance M must be an integer"),
        ("seed", 1.5, "provenance seed must be an integer"),
        ("seed", True, "provenance seed must be an integer"),
        ("delta", "x", "provenance delta must be a number in (0, 1]"),
        ("delta", 0.0, "provenance delta must be a number in (0, 1]"),
    ],
)
def test_verify_mistyped_provenance_exit_two(tmp_path, capsys, field, value, message):
    out = tmp_path / "ou.json"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(out)]) == 0
    solution = build.load_solution(str(out))
    solution.provenance[field] = value
    build.save_solution(solution, str(out))
    capsys.readouterr()
    assert run(["verify", "--in", str(out), "--problem", "ou_linear", "--d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("N", 10**11, "provenance N=100000000000, M=2, d=1 need at least 200000000000 parameters"),
        ("M", 10**11, "provenance N=2, M=100000000000, d=1 need at least 200000000000 parameters"),
        ("N", 0, "provenance N and M must be positive, got N=0, M=2"),
        ("M", -1, "provenance N and M must be positive, got N=2, M=-1"),
    ],
    ids=["N-huge", "M-huge", "N-zero", "M-negative"],
)
def test_verify_provenance_sizes_beyond_the_network_exit_two_before_sampling(tmp_path, capsys, monkeypatch, field, value, message):
    # a tampered N or M would size the Brownian draw: 10^11 x 2 increments raised a memory error
    out = tmp_path / "ou.json"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(out)]) == 0
    solution = build.load_solution(str(out))
    solution.provenance[field] = value
    build.save_solution(solution, str(out))
    capsys.readouterr()

    def no_draw(*args, **kwargs):
        raise AssertionError("verify sampled before checking the provenance sizes")

    monkeypatch.setattr(sde, "sample_brownian", no_draw)
    assert run(["verify", "--in", str(out), "--problem", "ou_linear", "--d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_verify_non_scalar_network_exit_two_before_sampling(tmp_path, capsys, monkeypatch):
    # a hand-edited file: the right problem_hash, and a last layer with two outputs
    out = tmp_path / "ou.json"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(out)]) == 0
    solution = build.load_solution(str(out))
    last = solution.net.layers[-1]
    two = nets.Layer(np.vstack([last.weight, -last.weight]), np.concatenate([last.bias, last.bias]))
    build.save_solution(build.SolutionNet(nets.Network(solution.net.layers[:-1] + (two,)), solution.provenance), str(out))
    capsys.readouterr()

    def no_draw(*args, **kwargs):
        raise AssertionError("verify sampled a network it cannot check")

    monkeypatch.setattr(sde, "sample_brownian", no_draw)
    assert run(["verify", "--in", str(out), "--problem", "ou_linear", "--d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: network output dimension 2 is not 1: verify needs a scalar network\n"


@pytest.mark.parametrize("suite", ["calculus", "bounds"])
@pytest.mark.parametrize("seed", ["-1", "-505"])
def test_study_negative_seed_of_default_rng_suites_exits_two_naming_the_flag(tmp_path, capsys, monkeypatch, suite, seed):
    # calculus and bounds seed numpy's default_rng, which rejects a negative seed without naming it
    def no_work(*args, **kwargs):
        raise AssertionError("the study ran")

    for name in ("calculus_study", "bounds_study"):
        monkeypatch.setattr(cli.studies, name, no_work)
    out = tmp_path / "rows.csv"
    assert run(["study", suite, "--seed", seed, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be at least 0 for study %s, got %s\n" % (suite, seed)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("name", ["heat_relu", "ou_linear", "quadratic_heat"])
@pytest.mark.parametrize("d", [1, 2])
def test_built_networks_have_at_least_n_m_d_parameters(name, d):
    # the size check of verify: every step of every member carries d product blocks
    tp = problems.get_problem(name, d)
    B = sde.sqrtm_psd(2.0 * tp.problem.A)
    for N, M in [(1, 1), (3, 2), (2, 3)]:
        noise = sde.sample_brownian(1, N, M, d, tp.problem.T, B)
        sol = build.build_mc_average_net(tp.problem, bounds.Budget(N=N, M=M, delta=0.25), noise)
        assert nets.param_count(sol.net) >= 1000 * N * M * d


@pytest.mark.parametrize("flag, value", [("--kappa", "nan"), ("--eta", "nan"), ("--p", "nan"), ("--T", "inf"), ("--kappa", "inf")])
def test_plan_non_finite_regularity_exit_two(capsys, flag, value):
    assert run(["plan", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "%s must be finite, got %s" % (flag[2:], value) in captured.err


def test_verify_realizes_the_network_once(tmp_path, capsys, monkeypatch):
    out = tmp_path / "heat.json"
    args = ["build", "--problem", "heat_relu", "--d", "1", "--N", "2", "--M", "4", "--delta", "0.0625", "--seed", "1"]
    assert run(args + ["--out", str(out)]) == 0
    from kolmonet import nets

    calls = []
    realize = nets.realize

    def counting(net, x):
        if net.in_dim == 2:  # the (t, x) solution network; drift and f0 take x alone
            calls.append(np.shape(x))
        return realize(net, x)

    monkeypatch.setattr(nets, "realize", counting)
    assert run(["verify", "--in", str(out), "--problem", "heat_relu", "--d", "1", "--samples", "64", "--seed", "5"]) == 0
    assert calls == [(64, 2)]


def _plan_log10_params(capsys, argv):
    assert run(argv) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("log10_guaranteed_params")]
    return float(line[0].split()[1])


def test_explicit_flag_at_default_beats_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.5}))
    explicit = _plan_log10_params(capsys, ["plan", "--eps", "1.0", "--config", str(cfg)])
    assert explicit == _plan_log10_params(capsys, ["plan", "--eps", "1.0"])
    assert _plan_log10_params(capsys, ["plan", "--config", str(cfg)]) == _plan_log10_params(
        capsys, ["plan", "--eps", "0.5"]
    )
    assert explicit != _plan_log10_params(capsys, ["plan", "--eps", "0.5"])


def test_config_unknown_key_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key in ("epz", "ep"):  # "ep" would pass argparse as an abbreviation of --eps
        cfg.write_text(json.dumps({key: 0.5}))
        assert run(["plan", "--eps", "1.0", "--config", str(cfg)]) == 2
        assert "'%s'" % key in capsys.readouterr().err


def test_config_wrongly_typed_value_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": "abc"}))
    with pytest.raises(SystemExit) as exc:
        run(["plan", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def test_config_not_an_object_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["plan", "--config", str(cfg)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_build_and_verify_script_runs_build_then_verify(tmp_path, capsys, monkeypatch):
    # the script is build then verify of the written file, with its own flags
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "build_and_verify.py"
    out = tmp_path / "heat.json"
    argv = ["--N", "2", "--M", "3", "--delta", "0.0625", "--seed", "4", "--samples", "64", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", [str(script)] + argv)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    prov = build.load_solution(str(out)).provenance
    assert (prov["N"], prov["M"], prov["delta"], prov["seed"]) == (2, 3, 0.0625, 4)
    problem = ["--problem", "heat_relu", "--d", "1"]
    assert run(["build", *problem, "--N", "2", "--M", "3", "--delta", "0.0625", "--seed", "4",
                "--out", str(tmp_path / "direct.json")]) == 0
    assert run(["verify", "--in", str(out), *problem, "--samples", "64", "--seed", "123"]) == 0
    assert text == capsys.readouterr().out
    assert text.splitlines()[3] == "lp_error_vs_exact,lp_error_vs_mc_average,solution_error_bound,status"
    assert (tmp_path / "direct.json").read_bytes() == out.read_bytes()


def test_plan_prints_a_buildable_budget(capsys):
    assert run(["plan", "--d", "1", "--eps", "1", "--kappa", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "N 6331426257991"
    assert [line.split()[0] for line in lines] == ["cost_exponent_c", "log10_guaranteed_params", "N", "M", "delta"]
    assert int(lines[3].split()[1]) >= 1
    assert 0.0 < float(lines[4].split()[1]) <= 1.0


def test_verify_out_file_equals_stdout(tmp_path, capsys):
    net, report = tmp_path / "ou.json", tmp_path / "verify.csv"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(net)]) == 0
    capsys.readouterr()
    verify = ["verify", "--in", str(net), "--problem", "ou_linear", "--d", "1", "--samples", "64", "--seed", "5"]
    assert run(verify + ["--out", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out


def test_study_weak_out_file_has_header_and_slope_row(tmp_path, capsys):
    out = tmp_path / "weak.csv"
    assert run(["study", "weak", "--paths", "500", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,M,estimate,std_error,bound"
    assert [line.split(",")[:2] for line in lines[1:-1]] == [[str(n), "500"] for n in (2, 4, 8, 16, 32, 64)]
    label, empty, slope, empty2, cap = lines[-1].split(",")
    assert (label, empty, empty2, float(cap)) == ("slope", "", "", -0.35)
    printed = capsys.readouterr().out.splitlines()
    assert printed[-2] == "slope,,%r,,-0.35" % float(slope)
    assert float(slope) <= -0.35


def test_solution_file_cut_inside_its_last_array_exit_two(tmp_path, capsys):
    net = tmp_path / "ou.json"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(net)]) == 0
    data = net.read_bytes()
    cut = data[: data.rindex(b"[") + 2]  # the reader finds no "]" after the last "["
    assert b"]" not in cut[cut.rindex(b"[") :]
    with pytest.raises(build.SolutionNetFormatError, match="not a solution-network document"):
        build.deserialize(cut)
    net.write_bytes(cut)
    capsys.readouterr()
    assert run(["verify", "--in", str(net), "--problem", "ou_linear", "--d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot load network" in captured.err


def test_solution_file_with_invalid_utf8_beyond_the_first_chunk_exit_two(tmp_path, capsys, monkeypatch):
    net = tmp_path / "ou.json"
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625", "--seed", "2026"]
    assert run(args + ["--out", str(net)]) == 0
    monkeypatch.setattr(build, "_CHUNK", 1024)
    data = net.read_bytes()
    at = data.rindex(b", ")  # in the last layer, many chunks in
    assert at > 8 * build._CHUNK
    net.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    capsys.readouterr()
    assert run(["verify", "--in", str(net), "--problem", "ou_linear", "--d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot load network: not a solution-network document: 'utf-8' codec can't decode byte 0xff" in captured.err


def test_import_and_path_studies_load_no_heavy_module():
    # build and verify may load mpmath for their bounds, and no scipy module
    # a fresh interpreter on this package's sources: this one has loaded them all
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_imports.py"
    src = str(pathlib.Path(kolmonet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
    none = "exit 0, loaded none of scipy.stats, scipy.sparse, mpmath"
    assert proc.stdout.splitlines() == [
        "import kolmonet.cli: " + none,
        "kolmonet study weak --paths 200: " + none,
        "kolmonet study euler --paths 2000: " + none,
        "kolmonet build --problem ou_linear --d 1 --N 2 --M 2 --delta 0.0625 --out ou.json: exit 0, loaded mpmath",
        "kolmonet verify --problem ou_linear --d 1 --in ou.json: exit 0, loaded mpmath",
    ], proc.stderr
    assert proc.returncode == 0
