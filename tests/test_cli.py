"""Command-line driver: subcommands, exit codes, determinism, config precedence."""

import json
import math

import numpy as np
import pytest

from kolmonet import build, cli


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


def test_build_with_non_finite_provenance_exit_two_and_keeps_the_file(tmp_path, capsys, monkeypatch):
    # the bound overflows to inf at large kappa and d; the reader would reject such a file
    monkeypatch.setattr(build, "solution_error_bound", lambda *args: math.inf)
    out = tmp_path / "net.json"
    out.write_bytes(b"an earlier build")
    args = ["build", "--problem", "ou_linear", "--d", "1", "--N", "2", "--M", "2", "--delta", "0.0625"]
    assert run(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "cannot write %s: provenance holds a value the reader rejects" % out in captured.err
    assert captured.out == ""
    assert out.read_bytes() == b"an earlier build"


def test_verify_missing_file_exit_two(tmp_path):
    assert run(["verify", "--in", str(tmp_path / "absent.json"), "--problem", "heat_relu", "--d", "1"]) == 2


def test_study_calculus_pass(tmp_path, capsys):
    out = tmp_path / "calc.csv"
    assert run(["study", "calculus", "--instances", "60", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "check,instances,failures"


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
