"""Batch experiment driver.

Subcommands: ``plan`` (budget formulas), ``build`` (construct and write a
solution network), ``verify`` (error report for a written network), and
``study euler|weak|calculus|bounds`` (property and convergence suites).
``--paths`` sizes euler and weak and ``--instances`` calculus; a suite
given a size flag it does not read exits 2 (bounds reads neither).

All commands are deterministic given their flags; seeds are explicit.
Exit codes: 0 success, 1 bound violation, 2 input/IO error.  Flags beat
values from ``--config`` (a JSON file mirroring flag names), which beat
built-in defaults.  KOLMONET_THREADS, a positive integer, caps the
threads of the Brownian sampler's draws of long streams (one per CPU by
default; streams of fewer than 512 words draw on the calling thread),
and BLAS parallelism too when set before the interpreter first loads
numpy; any other nonempty value exits 2 before any work.
"""

import os

from . import _thread_cap

try:
    _threads = _thread_cap()
except ValueError:
    _threads = None  # main() rejects the value
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, str(_threads))

import argparse
import json
import sys

import numpy as np

from . import bounds, build, nets, problems, sde, studies

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INPUT_ERROR = 2


def _parse(parser, argv):
    """Parse ``argv``, with the entries of its --config file as flags placed before it.

    So an explicit flag beats a config entry even when it equals the
    default, and argparse rejects a wrongly typed value with exit 2, as it
    does for flags.  A key must be a flag name in full: argparse would
    take an abbreviation.
    """
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError("cannot read config: %s" % exc) from None
    flags = parser._subparsers._group_actions[0].choices[args.command]._option_string_actions
    if not isinstance(cfg, dict) or not all("--%s" % key in flags for key in cfg):
        raise ValueError("config must be a JSON object whose keys are %s flags: %s" % (args.command, cfg))
    argv = sys.argv[1:] if argv is None else list(argv)
    return parser.parse_args(argv[:1] + ["--%s=%s" % item for item in cfg.items()] + argv[1:])


def _fail(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return EXIT_INPUT_ERROR


def cmd_plan(args) -> int:
    params = bounds.RegularityParams(T=args.T, kappa=args.kappa, eta=args.eta, p=args.p)
    plan = bounds.plan_budget(params, args.d, args.eps)
    print("cost_exponent_c %.17g" % plan.cost_exponent)
    print("log10_guaranteed_params %.17g" % plan.log10_cost)
    if plan.representable:
        budget = plan.budget()
        print("N %d" % budget.N)
        print("M %d" % budget.M)
        print("delta %.17g" % budget.delta)
    else:
        print("log10_N %.17g" % plan.log10_N)
        print("log10_M %.17g" % plan.log10_M)
        print("log10_delta %.17g" % plan.log10_delta)
        print("note budget exceeds practical build sizes; use --N/--M/--delta overrides with build")
    return EXIT_OK


def cmd_build(args) -> int:
    try:
        tp = problems.get_problem(args.problem, args.d)
    except KeyError as exc:
        return _fail(str(exc))
    budget = bounds.Budget(N=args.N, M=args.M, delta=args.delta)
    solution = build.solve(tp.problem, budget, args.seed)
    try:
        build.save_solution(solution, args.out)
    except (OSError, ValueError) as exc:
        return _fail("cannot write %s: %s" % (args.out, exc))
    count = solution.provenance["bound_values"]["param_count"]
    limit = solution.provenance["bound_values"]["param_bound"]
    print("param_count %d" % count)
    print("param_bound %.17g" % limit)
    print("ratio %.17g" % (count / limit))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        tp = problems.get_problem(args.problem, args.d)
    except KeyError as exc:
        return _fail(str(exc))
    if args.samples < 1:
        return _fail("--samples must be at least 1, got %d" % args.samples)
    try:
        solution = build.load_solution(args.infile)
    except (OSError, build.SolutionNetFormatError) as exc:
        return _fail("cannot load network: %s" % exc)
    prov = solution.provenance
    needed = {"problem_hash", "seed", "N", "M", "delta"}
    if not needed.issubset(prov):
        return _fail("provenance block missing %s" % sorted(needed - set(prov)))
    pb = tp.problem
    if prov["problem_hash"] != pb.hash():
        return _fail(
            "network was built for another problem (problem_hash %s, %s d=%d has %s)"
            % (prov["problem_hash"], args.problem, pb.d, pb.hash())
        )
    net = solution.net
    if net.in_dim != pb.d + 1:
        return _fail("network input dimension %d does not match problem d+1=%d" % (net.in_dim, pb.d + 1))
    if net.out_dim != 1:
        return _fail("network output dimension %d is not 1: verify needs a scalar network" % net.out_dim)
    N, M, delta, seed = prov["N"], prov["M"], prov["delta"], prov["seed"]
    for name, value in (("N", N), ("M", M), ("seed", seed)):
        if type(value) is not int:
            return _fail("provenance %s must be an integer, got %r" % (name, value))
    if type(delta) not in (int, float) or not 0.0 < delta <= 1.0:
        return _fail("provenance delta must be a number in (0, 1], got %r" % (delta,))
    if min(N, M) < 1:
        return _fail("provenance N and M must be positive, got N=%d, M=%d" % (N, M))
    # every step of every member carries d product blocks, so a network has at least N M d parameters
    if N * M * pb.d > nets.param_count(net):
        return _fail(
            "provenance N=%d, M=%d, d=%d need at least %d parameters, the network has %d"
            % (N, M, pb.d, N * M * pb.d, nets.param_count(net))
        )
    noise = sde.sample_brownian(seed, N, M, pb.d, pb.T, pb.B)
    p = pb.params.p
    # one set of measure points and one realization of the network serve both errors
    ts, xs = tp.measure.sample(args.samples, args.seed)
    net_vals = nets.realize(net, np.column_stack([ts, xs])).ravel()
    err_exact = sde.lp_distance(net_vals, tp.exact_solution(ts, xs), p)
    mc_average = sde.mc_values(pb.init_net, pb.drift_net, noise.increments, pb.T, ts, xs).mean(1)
    err_mc = sde.lp_distance(net_vals, mc_average, p)
    mass_fac = tp.measure.mass ** (1.0 / p)
    bound = bounds.solution_error_bound(pb.params, pb.d, N, M, delta, tp.measure.mass)
    ok = err_exact * mass_fac <= bound + tp.init_accuracy
    values = (err_exact, err_mc, bound, "pass" if ok else "fail")
    header = ("lp_error_vs_exact", "lp_error_vs_mc_average", "solution_error_bound", "status")
    if args.out:
        try:
            sde.write_convergence_csv(args.out, [values], header)
        except OSError as exc:
            return _fail("cannot write %s: %s" % (args.out, exc))
    print(",".join(header))
    print("%.17g,%.17g,%.17g,%s" % values)
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def cmd_study(args) -> int:
    name = args.suite
    reads = {"euler": "paths", "weak": "paths", "calculus": "instances"}.get(name)
    for flag in ("paths", "instances"):
        if flag != reads and getattr(args, flag) is not None:
            return _fail("study %s does not read --%s" % (name, flag))
    paths = 20_000 if args.paths is None else args.paths
    instances = 500 if args.instances is None else args.instances
    if name in ("euler", "weak") and paths < 2:
        return _fail("--paths must be at least 2, got %d" % paths)
    if name == "calculus" and instances < 1:
        return _fail("--instances must be at least 1, got %d" % instances)
    # these two seed numpy's default_rng, which takes no negative seed
    if name in ("calculus", "bounds") and args.seed < 0:
        return _fail("--seed must be at least 0 for study %s, got %d" % (name, args.seed))
    if name == "calculus":
        rows, ok = studies.calculus_study(instances=instances, seed=args.seed)
        header = ("check", "instances", "failures")
    elif name == "euler":
        moment_paths = max(1000, paths // 5)
        rows1, ok1 = studies.strong_interp_study(paths=paths, seed=args.seed)
        rows2, ok2 = studies.moment_study(paths=moment_paths, seed=args.seed + 1)
        rows = [("interp", "N=%d" % N, M, est, se, bnd, 0) for N, M, est, se, bnd in rows1]
        rows += [
            ("moment", "%s;d=%d;q=%g" % (prob, d, q), moment_paths, est, se, bnd, viol)
            for prob, d, q, est, se, bnd, viol in rows2
        ]
        ok = ok1 and ok2
        header = ("check", "case", "paths", "estimate", "std_error", "bound", "violations")
    elif name == "weak":
        rows, slope, ok = studies.weak_error_study(paths=paths, seed=args.seed)
        rows = list(rows) + [("slope", "", slope, "", -0.35)]
        header = ("N", "M", "estimate", "std_error", "bound")
    else:  # bounds; argparse admits no other suite
        rows, ok = studies.bounds_study(seed=args.seed)
        rows = [row + (row[3] - row[4],) for row in rows]
        header = ("bound_name", "formula", "inputs", "value", "empirical", "slack")
    if args.out:
        try:
            sde.write_convergence_csv(args.out, rows, header)
        except OSError as exc:
            return _fail("cannot write %s: %s" % (args.out, exc))
    for row in rows:
        print(",".join(str(v) for v in row))
    print("status %s" % ("pass" if ok else "fail"))
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kolmonet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="evaluate the budget formulas")
    p_plan.add_argument("--d", type=int, default=1)
    p_plan.add_argument("--eps", type=float, default=1.0)
    p_plan.add_argument("--kappa", type=float, default=1.0)
    p_plan.add_argument("--eta", type=float, default=1.0)
    p_plan.add_argument("--T", type=float, default=1.0)
    p_plan.add_argument("--p", type=float, default=2.0)
    p_plan.set_defaults(func=cmd_plan)

    p_build = sub.add_parser("build", help="construct a solution network and write it")
    p_build.add_argument("--problem", required=True, choices=problems.problem_names())
    p_build.add_argument("--d", type=int, default=1)
    p_build.add_argument("--N", type=int, required=True)
    p_build.add_argument("--M", type=int, required=True)
    p_build.add_argument("--delta", type=float, required=True)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="error report for a written network")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--problem", required=True, choices=problems.problem_names())
    p_verify.add_argument("--d", type=int, default=1)
    p_verify.add_argument("--samples", type=int, default=512)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_study = sub.add_parser("study", help="run a property/convergence suite")
    p_study.add_argument("suite", choices=("euler", "weak", "calculus", "bounds"))
    # None marks a flag not given: a suite rejects a size flag it does not read
    p_study.add_argument("--paths", type=int, help="paths per estimate: euler, weak (default 20000)")
    p_study.add_argument("--instances", type=int, help="instances per check: calculus (default 500)")
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--out")
    p_study.set_defaults(func=cmd_study)

    for sub_parser in (p_plan, p_build, p_verify, p_study):
        sub_parser.add_argument("--config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _thread_cap()
        args = _parse(parser, argv)
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
