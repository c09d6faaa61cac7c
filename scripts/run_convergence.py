#!/usr/bin/env python3
"""Convergence tables: weak error vs step count, strong interpolation gap.

Writes weak_error.csv and strong_interp.csv (columns N, M, estimate,
std_error, bound) into --outdir and prints the fitted weak-error slope.
"""

import argparse
import os

from kolmonet import sde, studies


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--paths", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    rows, slope, ok = studies.weak_error_study(paths=args.paths, seed=args.seed)
    sde.write_convergence_csv(os.path.join(args.outdir, "weak_error.csv"), rows)
    print("weak error slope: %.3f (%s)" % (slope, "ok" if ok else "bound violated"))

    rows, ok = studies.strong_interp_study(paths=max(args.paths, 50_000), seed=args.seed + 1)
    sde.write_convergence_csv(os.path.join(args.outdir, "strong_interp.csv"), rows)
    print("strong interpolation check: %s" % ("ok" if ok else "outside 4 standard errors"))


if __name__ == "__main__":
    main()
