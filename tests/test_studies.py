"""The domination suite: every bound beats its matched empirical quantity."""

import numpy as np

from kolmonet import bounds, problems, sde, studies


def test_bounds_domination_suite(tmp_path):
    rows, ok = studies.bounds_study(seed=505)
    assert ok, [r for r in rows if r[3] < r[4]]
    out = tmp_path / "report.csv"
    bounds.write_bounds_report(out, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "bound_name,formula,inputs,value,empirical,slack"
    assert len(lines) == len(rows) + 1
    # slack column is value - empirical, nonnegative throughout
    assert all(float(line.rsplit(",", 1)[1]) >= 0.0 for line in lines[1:])


def test_mc_euler_functional_errors_independent_of_chunk(monkeypatch):
    # each sample point draws its paths from its own stream, so chunking cannot change a draw
    tp = problems.heat_relu_problem(1)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 37 * 8 * 5)  # 37 points of 8 paths, 4 steps
    a = studies._mc_euler_functional_errors(tp, 4, 8, 300, seed=404)
    monkeypatch.setattr(sde, "_MC_CHUNK_ELEMENTS", 1 << 22)  # one chunk
    b = studies._mc_euler_functional_errors(tp, 4, 8, 300, seed=404)
    assert np.array_equal(a, b)
