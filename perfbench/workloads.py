"""Workload definitions: the CLI calls of one round, made from the seed, and their checks.

A round is a fixed list of ``kolmonet`` command lines run in process
through ``kolmonet.cli.main(argv)``, one after another (a closed loop with
one caller).  Every round of a run repeats the same command lines, so
the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import checks

WORKLOADS = ("pipeline_heat", "study_euler", "study_weak")

# The reference network of the pipeline: README's build command.  Its seed
# is fixed because the network's L2 error against the exact solution is a
# Monte Carlo quantity of its 64 paths (about 1% of build seeds exceed the
# 0.15 cap); the run seed varies the verify points and the checks instead.
REF_BUILD = dict(problem="heat_relu", d=1, N=8, M=64, delta=0.00390625, seed=2026)
# The mismatched-problem operation: an ou_linear network verified as heat_relu.
# Its inputs do not depend on the run seed.
MISMATCH_BUILD = dict(problem="ou_linear", d=1, N=2, M=2, delta=0.0625, seed=2026)
MISMATCH_VERIFY_SEED = 5

EULER_PATHS = 100_000
WEAK_PATHS = 5_000
CHECK_POINTS = 256


@dataclass
class Op:
    kind: str  # plan | build | verify | build_mismatch | verify_mismatch | study
    argv: list
    expect_nonzero: bool = False
    outputs: tuple = ()  # files the command writes
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    op: Op
    rc: int
    stdout: str
    seconds: float
    out_bytes: int

    @property
    def failed(self) -> bool:
        return (self.rc == 0) if self.op.expect_nonzero else (self.rc != 0)


def _build_argv(spec, out):
    return [
        "build", "--problem", spec["problem"], "--d", str(spec["d"]), "--N", str(spec["N"]),
        "--M", str(spec["M"]), "--delta", repr(spec["delta"]), "--seed", str(spec["seed"]), "--out", out,
    ]


def _plan_inputs(rng):
    """Pairs of plans at equal (d, kappa): README's d=10, kappa 1 and 6, and one drawn (d, kappa)."""
    d_c = int(rng.integers(1, 51))
    kappa_c = float(rng.integers(1, 4))
    eps_c = float(10.0 ** -rng.uniform(0.0, 1.0))
    out = []
    for d, kappa, eps in ((10, 1.0, 0.1), (10, 6.0, 0.1), (d_c, kappa_c, eps_c)):
        out.append((d, eps, kappa))
        out.append((d, float(eps * 10.0 ** -rng.uniform(0.5, 3.0)), kappa))
    return out


def make_ops(workload: str, seed: int, outdir: str):
    """(ops of one round, inputs the checks need), all derived from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ctx = {"seed": seed}
    if workload == "pipeline_heat":
        ops = [
            Op("plan", ["plan", "--d", str(d), "--eps", repr(eps), "--kappa", repr(kappa)], meta={"input": (d, eps, kappa)})
            for d, eps, kappa in _plan_inputs(rng)
        ]
        ref = os.path.join(outdir, "heat_ref.json")
        mis = os.path.join(outdir, "ou_as_heat.json")
        verify_seed = int(rng.integers(0, 2**31))
        ctx.update(ref_path=ref, verify_seed=verify_seed, check_seed=int(rng.integers(0, 2**31)))
        ops += [
            Op("build", _build_argv(REF_BUILD, ref), outputs=(ref,)),
            Op("verify", ["verify", "--in", ref, "--problem", "heat_relu", "--d", "1", "--samples", "512", "--seed", str(verify_seed)]),
            Op("build_mismatch", _build_argv(MISMATCH_BUILD, mis), outputs=(mis,)),
            Op(
                "verify_mismatch",
                ["verify", "--in", mis, "--problem", "heat_relu", "--d", "1", "--samples", "512", "--seed", str(MISMATCH_VERIFY_SEED)],
                expect_nonzero=True,
            ),
        ]
    elif workload in ("study_euler", "study_weak"):
        # The study commands run as documented, at the CLI's default seed 0.
        # Their pass/fail gates are statistical (the midpoint RMS must lie
        # within 3 SE, two-sided), so a seed-dependent study input would fail
        # on a few seeds in a thousand.  The run seed picks which paths, and
        # for ``weak`` which fine grid, the stream check redraws.
        suite, paths = ("euler", EULER_PATHS) if workload == "study_euler" else ("weak", WEAK_PATHS)
        ctx.update(first_path=int(rng.integers(0, 4096)), weak_grid=int(rng.integers(0, 6)))
        ops = [Op("study", ["study", suite, "--paths", str(paths)])]
    else:
        raise ValueError("unknown workload %r" % workload)
    return ops, ctx


def setup_problems(workload: str):
    """The problems a workload's commands build, as (name, d) pairs."""
    if workload == "pipeline_heat":
        return [("heat_relu", 1), ("ou_linear", 1)]
    if workload == "study_euler":
        return [(name, d) for name in ("heat_relu", "ou_linear") for d in (1, 2, 5)]
    return [("ou_linear", 1)]


def run_op(cli, op: Op) -> Result:
    buf = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    text = buf.getvalue()
    out_bytes = len(text.encode()) + sum(os.path.getsize(p) for p in op.outputs if os.path.exists(p))
    return Result(op, rc, text, seconds, out_bytes)


def run_round(cli, ops):
    return [run_op(cli, op) for op in ops]


def round_times(results):
    """End-to-end times of one round: the whole round and each command kind."""
    out = {"round_s": sum(r.seconds for r in results)}
    for r in results:
        key = {"build": "build_s", "verify": "verify_s", "study": "study_s"}.get(r.op.kind)
        if key:
            out[key] = r.seconds
    return out


# ---------------------------------------------------------------------------
# checks of a run's outputs


def check_rounds(rounds) -> list:
    """Every round of a run printed the same text and wrote the same bytes."""
    first = rounds[0]
    fails = []
    for i, rnd in enumerate(rounds[1:], 1):
        for a, b in zip(first, rnd):
            if (a.rc, a.stdout, a.out_bytes) != (b.rc, b.stdout, b.out_bytes):
                fails.append("round %d: %s differs from round 0" % (i, " ".join(a.op.argv[:2])))
    return fails


def check_outputs(workload: str, ctx: dict, results, sample_brownian) -> list:
    """Checks of one round's outputs; ``sample_brownian`` is the program's sampler under test."""
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r)
    fails = []
    if workload == "pipeline_heat":
        fails += checks.check_plans([(r.op.meta["input"], r.rc, r.stdout) for r in by_kind["plan"]])
        fails += _check_reference(ctx, by_kind["build"][0], by_kind["verify"][0], sample_brownian)
        if by_kind["build_mismatch"][0].rc != 0:
            fails.append("mismatch build exited %d" % by_kind["build_mismatch"][0].rc)
    elif workload == "study_euler":
        fails += checks.check_study_euler(by_kind["study"][0].stdout, by_kind["study"][0].rc, EULER_PATHS)
        # the interpolation study's fine grid: seed 0, 2 * 8 steps, B = I
        fails += _check_stream(sample_brownian, 0, 16, ctx["first_path"], np.eye(1))
    else:
        fails += checks.check_study_weak(by_kind["study"][0].stdout, by_kind["study"][0].rc, WEAK_PATHS)
        # fine grid j: seed 0 + j, 64 * 2^(j+1) steps, B = sqrt(2 * 0.5) I = I
        j = ctx["weak_grid"]
        fails += _check_stream(sample_brownian, j, 64 * 2 ** (j + 1), ctx["first_path"], np.eye(1))
    return fails


def _check_stream(sample_brownian, seed, N, first, B, count=16, T=1.0):
    """Paths [first, first + count) of the program's grid against the redrawn stream."""
    program = sample_brownian(seed, N, first + count, B.shape[0], T, B).increments[first:]
    return checks.check_increments(program, checks.reference_increments(seed, N, count, T, B, first=first))


def _check_reference(ctx, build, verify, sample_brownian) -> list:
    with open(ctx["ref_path"], "rb") as fh:
        prov, dims, layers = checks.load_layers(fh.read())
    fails = checks.check_build(build.stdout, build.rc, dims, layers)
    spec = REF_BUILD
    B = np.sqrt(2.0) * np.eye(spec["d"])  # sqrt(2A), A = I
    ref_inc = checks.reference_increments(spec["seed"], spec["N"], spec["M"], 1.0, B)
    fails += checks.check_increments(sample_brownian(spec["seed"], spec["N"], spec["M"], spec["d"], 1.0, B).increments, ref_inc)
    if (prov.get("seed"), prov.get("N"), prov.get("M")) != (spec["seed"], spec["N"], spec["M"]):
        fails.append("provenance %r does not record the build inputs" % prov)
    # the network at the benchmark's own points against the direct MC average and the closed form
    rng = np.random.default_rng(ctx["check_seed"])
    t = rng.uniform(0.0, 1.0, CHECK_POINTS)
    x = rng.uniform(-1.0, 1.0, (CHECK_POINTS, spec["d"]))
    tv, xv = checks.measure_points(512, ctx["verify_seed"], spec["d"])
    net_all = checks.forward(layers, np.column_stack([np.concatenate([t, tv]), np.vstack([x, xv])])).ravel()
    net_own, net_verify = net_all[:CHECK_POINTS], net_all[CHECK_POINTS:]
    fails += checks.check_reference_network(
        net_own, checks.heat_mc_average(ref_inc, 1.0, t, x), checks.heat_exact(t, x)
    )
    own_l2 = checks.l2(net_verify, checks.heat_exact(tv, xv))
    fails += checks.check_verify(verify.stdout, verify.rc, own_l2)
    return fails
