#!/usr/bin/env python3
"""Convergence tables: weak error vs step count, strong interpolation gap.

Runs `kolmonet study weak --paths P --seed S` and `kolmonet study euler
--paths max(P, 50000) --seed S+1`, with `--out` files OUTDIR/weak.csv and
OUTDIR/euler.csv.  The last line reports the euler study's gate; the exit
code is the worse of the two studies'.
"""

import argparse
import os
import sys

from kolmonet import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--paths", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    out = lambda suite: ["--out", os.path.join(args.outdir, suite + ".csv")]
    weak = cli.main(["study", "weak", "--paths", str(args.paths), "--seed", str(args.seed), *out("weak")])
    euler_paths = str(max(args.paths, 50_000))
    euler = cli.main(["study", "euler", "--paths", euler_paths, "--seed", str(args.seed + 1), *out("euler")])
    if euler != cli.EXIT_INPUT_ERROR:
        print("strong interpolation check: %s" % ("ok" if euler == cli.EXIT_OK else "outside 4 standard errors"))
    return max(weak, euler)


if __name__ == "__main__":
    sys.exit(main())
