#!/usr/bin/env python3
"""End-to-end demo: build the heat-problem solution network, then verify it.

Runs `kolmonet build` and then `kolmonet verify` of the written file, at
the reference budget (N, M, delta) = (8, 64, 2^-8) unless flags say
otherwise.  `verify` prints the sampled L^2 error against the closed-form
solution and against the Monte Carlo average, next to the closed-form
bound; the exit code is that of the first command that fails.
"""

import argparse
import sys

from kolmonet import cli

PROBLEM = ["--problem", "heat_relu", "--d", "1"]
SAMPLE_SEED = "123"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=8)
    ap.add_argument("--M", type=int, default=64)
    ap.add_argument("--delta", type=float, default=2.0**-8)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--samples", type=int, default=1024)
    ap.add_argument("--out", default="heat_solution.json")
    args = ap.parse_args(argv)
    budget = ["--N", str(args.N), "--M", str(args.M), "--delta", repr(args.delta)]
    rc = cli.main(["build", *PROBLEM, *budget, "--seed", str(args.seed), "--out", args.out])
    if rc != cli.EXIT_OK:
        return rc
    return cli.main(["verify", "--in", args.out, *PROBLEM, "--samples", str(args.samples), "--seed", SAMPLE_SEED])


if __name__ == "__main__":
    sys.exit(main())
