"""Reference figures for perfbench/README.md: single stages timed in process.

Run from the repository root:

    PYTHONPATH=src python3 -m perfbench.reference [--outdir DIR]

Times the ROADMAP baseline stages (sampling, the reference build,
serialization, deserialization, ``realize`` on 4,096 points, the planner)
as the median of three calls, then one run of the tier-1 test suite in a
child process (a few minutes).  Writes ``reference.json`` to
``--outdir`` (a fresh temporary directory by default, outside the
repository) and prints a table.  BLAS threads are pinned as in run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from perfbench.run import child_env

REPEATS = 3


def timed(fn, repeats):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, result


def machine_info(env) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "KOLMONET_THREADS": env.get("KOLMONET_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--outdir")
    args = ap.parse_args(argv)
    root = os.getcwd()
    env = child_env(root)
    os.environ.update({k: env[k] for k in ("KOLMONET_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

    import numpy as np

    from kolmonet import bounds, build, nets, problems, sde

    outdir = args.outdir or tempfile.mkdtemp(prefix="kolmonet-reference-")
    os.makedirs(outdir, exist_ok=True)
    r = REPEATS
    tp = problems.get_problem("heat_relu", 1)
    B = sde.sqrtm_psd(2.0 * tp.problem.A)
    budget = bounds.Budget(N=8, M=64, delta=0.00390625)
    rows = []

    def add(stage, workload, fn):
        med, times, result = timed(fn, r)
        rows.append({"stage": stage, "workload": workload, "median_s": med, "times_s": times})
        print("%-28s %-34s %8.3f s" % (stage, workload, med), flush=True)
        return result

    add("sample_brownian", "M=100k, N=16, d=1", lambda: sde.sample_brownian(0, 16, 100_000, 1, 1.0))
    add("sample_brownian", "M=20k, N=64, d=1", lambda: sde.sample_brownian(0, 64, 20_000, 1, 1.0))
    noise = sde.sample_brownian(2026, budget.N, budget.M, 1, 1.0, B)
    sol = add("build_mc_average_net", "heat d=1 (8, 64, 2^-8)", lambda: build.build_mc_average_net(tp.problem, budget, noise))
    data = add("serialize", "reference network", lambda: build.serialize(sol))
    add("deserialize", "reference network", lambda: build.deserialize(data))
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (4096, 2))
    add("realize", "reference network, 4,096 points", lambda: nets.realize(sol.net, pts))
    add("plan_budget", "d=10, eps=0.1", lambda: bounds.plan_budget(tp.problem.params, 10, 0.1))
    sizes = {"layers": sol.net.depth, "params": nets.param_count(sol.net), "bytes": len(data)}
    print("reference network: %(layers)d layers, %(params)d params, %(bytes)d bytes" % sizes)

    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    rows.append({"stage": "tier-1 suite", "workload": summary, "median_s": seconds, "times_s": [seconds]})
    print("%-28s %-34s %8.1f s" % ("tier-1 suite", summary, seconds))

    out = {"machine": machine_info(env), "repeats": r, "reference_network": sizes, "rows": rows}
    path = os.path.join(outdir, "reference.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print("machine %s" % json.dumps(out["machine"]))
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
