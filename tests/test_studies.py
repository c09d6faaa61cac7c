"""The domination suite: every bound beats its matched empirical quantity."""

import dataclasses
import pathlib
import runpy
import sys

import numpy as np
import pytest

from kolmonet import cli, problems, sde, studies


def test_bounds_domination_suite(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["study", "bounds", "--seed", "505", "--out", str(out)])
    *rows, status = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert code == 0 and status == ["status pass"], [r for r in rows if float(r[3]) < float(r[4])]
    lines = out.read_text().splitlines()
    assert lines[0] == "bound_name,formula,inputs,value,empirical,slack"
    assert len(lines) == len(rows) + 1
    # slack column is value - empirical, nonnegative throughout, in the file and on stdout
    assert all(float(line.rsplit(",", 1)[1]) >= 0.0 for line in lines[1:])
    assert all(float(r[5]) == float(r[3]) - float(r[4]) >= 0.0 for r in rows)


def test_mc_euler_functional_errors_independent_of_chunk(monkeypatch):
    # each sample point draws its paths from its own stream, so chunking cannot change a draw
    tp = problems.heat_relu_problem(1)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 37 * 8 * 5)  # 37 points of 8 paths, 4 steps
    a = studies._mc_euler_functional_errors(tp, 4, 8, 300, seed=404)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 1 << 22)  # one chunk
    b = studies._mc_euler_functional_errors(tp, 4, 8, 300, seed=404)
    assert np.array_equal(a, b)


def test_study_euler_passes_a_seed_beyond_three_standard_errors(capsys):
    # correct code: the midpoint RMS lies 3.15 SE from its target at this seed
    assert cli.main(["study", "euler", "--paths", "100000", "--seed", "1114088975"]) == 0
    out = capsys.readouterr().out
    _, _, _, rms, se, target, _ = out.splitlines()[0].split(",")
    assert 3.0 < abs(float(rms) - float(target)) / float(se) <= 4.0
    assert out.rstrip().endswith("status pass")


def _interpolate_at_half_time(interpolate):
    return lambda state, t: interpolate(state, t / 2)


def _scaled_increments(sample_brownian):
    def sample(*args, **kwargs):
        grid = sample_brownian(*args, **kwargs)
        return dataclasses.replace(grid, increments=1.05 * grid.increments)

    return sample


@pytest.mark.parametrize(
    "name, wrong",
    [("interpolate", _interpolate_at_half_time), ("sample_brownian", _scaled_increments)],
)
@pytest.mark.parametrize("seed", [5, 1114088975])
def test_strong_interp_gate_fails_a_wrong_scheme(monkeypatch, name, wrong, seed):
    # the midpoint taken at h/4, or increments scaled by 1.05, must fail the 4-SE gate
    assert studies.strong_interp_study(paths=20_000, seed=seed)[1]
    monkeypatch.setattr(sde, name, wrong(getattr(sde, name)))
    assert not studies.strong_interp_study(paths=20_000, seed=seed)[1]


@pytest.mark.parametrize("wrong, line", [(False, "ok"), (True, "outside 4 standard errors")])
def test_run_convergence_reports_the_strong_gate(tmp_path, monkeypatch, capsys, wrong, line):
    # the script's last line names the gate strong_interp_study applies
    if wrong:
        monkeypatch.setattr(sde, "interpolate", _interpolate_at_half_time(sde.interpolate))
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_convergence.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path), "--paths", "200", "--seed", "4"])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[-1] == "strong interpolation check: %s" % line
