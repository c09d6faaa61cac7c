"""Benchmark of the kolmonet command line; see perfbench/README.md.

Run from the root of a kolmonet checkout:

    python3 perfbench/run.py --workload pipeline_heat --seed 1 --seconds 20 --trace 0

Each untraced run measures set-up time in several fresh probe processes,
then runs the workload in one fresh worker process, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when the run completed, 2 on bad arguments or a
checkout without kolmonet's sources, 1 when a child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 5
DEADLINE_S = 170.0  # every run ends within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "bytes"),
]
# printed for reading, not part of the JSON result: they exist on some workloads only
SHOWN_TOO = [("build_s", "s"), ("verify_s", "s"), ("study_s", "s"), ("solution_bytes", "bytes")]
WORKLOADS = ("pipeline_heat", "study_euler", "study_weak")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    env["KOLMONET_THREADS"] = threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv, env, root, deadline):
    """Run a child to completion, or kill it at the deadline; returns (rc, stdout)."""
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("error: %s did not finish before the deadline" % " ".join(argv[:4]))
    if proc.returncode != 0:
        sys.stderr.write(err)
    return proc.returncode, out


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kolmonet", "cli.py")):
        print("error: run from the root of a kolmonet checkout (src/kolmonet is missing)", file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".bench_build", "perfbench", args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    env = child_env(root)
    base = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    for i in range(0 if args.trace else SETUP_PROBES + 1):  # the first probe warms caches and byte-compiles
        spawned = time.monotonic()
        rc, out = run_child(base + ["--setup-only"], env, root, deadline)
        if rc != 0:
            print("error: set-up probe exited %d" % rc, file=sys.stderr)
            return 1
        if i:
            setup.append(last_json(out)["ready"] - spawned)

    rc, out = run_child(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", outdir], env, root, deadline
    )
    if rc != 0:
        print("error: workload process exited %d" % rc, file=sys.stderr)
        return 1
    res = last_json(out)
    shown = res["shown"]
    if setup:
        shown["setup_s"] = statistics.median(setup)
    for failure in res["failures"]:
        print("CHECK FAILED: %s" % failure)
    print("workload %s seed %d: attempted %d failed %d; rounds %s" % (
        args.workload, args.seed, res["attempted"], res["failed"], res["rounds"]))
    for name, unit in END_TO_END + SHOWN_TOO:
        value = shown.get(name)
        print("  %-16s %s %s" % (name, "n/a" if value is None else repr(value), unit))
    if args.trace:
        result_metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in res["units"]}
    else:
        result_metrics = {name: {"value": shown[name], "unit": unit} for name, unit in END_TO_END}
    print(
        json.dumps(
            {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": result_metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
