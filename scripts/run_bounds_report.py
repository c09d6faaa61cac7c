#!/usr/bin/env python3
"""Domination report: every closed-form bound against its empirical quantity.

Runs `kolmonet study bounds` at --seed (default 505), which writes the
report CSV to --out and prints each row and the overall status; the exit
code is the study's (1 when a bound fails to dominate).
"""

import argparse
import sys

from kolmonet import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="bounds_report.csv")
    ap.add_argument("--seed", type=int, default=505)
    args = ap.parse_args(argv)
    return cli.main(["study", "bounds", "--seed", str(args.seed), "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
