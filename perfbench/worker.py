"""One workload run in a fresh process: ``python3 -m perfbench.worker ...``.

Started by ``perfbench/run.py`` from the root of a checkout with ``src``
on PYTHONPATH.  With ``--setup-only`` it imports what the workload needs,
builds the workload's problems and prints the monotonic clock reading at
which it was ready.  Otherwise it sets up, runs timed rounds until
``--seconds`` have passed, checks the outputs and prints one JSON line
with the counts and metrics (medians over rounds).  The first round of a
process is slower (BLAS thread start, first touch of memory); the median
over four or more rounds absorbs it.  With ``--trace 1`` one untimed
round runs first, then untraced and traced rounds alternate; the
per-layer metrics come from the traced rounds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

from perfbench import workloads


def setup(workload: str):
    """Imports, the lazy imports the workload's commands pay, and its problems."""
    cli = importlib.import_module("kolmonet.cli")
    if workload == "pipeline_heat":
        importlib.import_module("mpmath")  # imported lazily by every ``plan``
    from kolmonet import problems

    for name, d in workloads.setup_problems(workload):
        problems.get_problem(name, d)
    return cli


def _median_dicts(dicts):
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def _net_counts(ref_path, outdir):
    from kolmonet import build

    from perfbench import spans

    net = build.load_solution(ref_path).net
    rows = spans.anatomy(net)
    with open(os.path.join(outdir, "anatomy_reference_network.json"), "w") as fh:
        json.dump({"dims": list(net.dims), "layers": rows}, fh)
    return {
        "build.net.layers": net.depth,
        "build.net.params": sum(r["macs_per_row"] + r["out"] for r in rows),
        "build.net.nonzero_weights": sum(r["nonzero_weights"] for r in rows),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", default=".")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    ops, ctx = workloads.make_ops(args.workload, args.seed, args.outdir)
    rounds, plain, traced = [], [], []
    tracer, units = None, []
    if args.trace:
        from perfbench import spans

        tracer = spans.Tracer()
        layer_rounds = []
        rounds.append(workloads.run_round(cli, ops))  # untimed: keeps the cold round out of the overhead
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not plain or (tracer and not traced):
        if tracer is not None and len(traced) < len(plain):
            mark = tracer.mark()
            tracer.install()
            try:
                results = workloads.run_round(cli, ops)
            finally:
                tracer.uninstall()
            traced.append(workloads.round_times(results))
            layer_rounds.append(tracer.summarize(mark))
        else:
            results = workloads.run_round(cli, ops)
            plain.append(workloads.round_times(results))
        rounds.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from kolmonet import sde

    failures = workloads.check_rounds(rounds) + workloads.check_outputs(args.workload, ctx, rounds[-1], sde.sample_brownian)
    attempted = sum(len(r) for r in rounds)
    failed = sum(res.failed for r in rounds for res in r)

    times = _median_dicts(plain)
    metrics = dict(times, peak_rss_mb=peak_rss_mb, output_bytes=float(sum(res.out_bytes for res in rounds[-1])))
    if "ref_path" in ctx:
        metrics["solution_bytes"] = float(os.path.getsize(ctx["ref_path"]))
    shown = dict(metrics)
    if tracer is not None:
        layers = _median_dicts(layer_rounds)
        traced_times = _median_dicts(traced)
        for key in ("round_s", "build_s", "verify_s", "study_s"):
            layers["trace_overhead." + key] = traced_times.get(key, 0.0) - times.get(key, 0.0)
        if "ref_path" in ctx:
            layers.update(_net_counts(ctx["ref_path"], args.outdir))
        tracer.write(os.path.join(args.outdir, "spans.jsonl"))
        metrics = {name: layers.get(name, 0) for name, _unit in spans.LAYER_METRICS}
        units = spans.LAYER_METRICS
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "units": units,
                "shown": shown,
                "rounds": {
                    "timed_s": [t["round_s"] for t in plain],
                    "traced_s": [t["round_s"] for t in traced],
                },
                "failures": failures,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
