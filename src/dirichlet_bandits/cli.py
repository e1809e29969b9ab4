"""Command-line front end.

Subcommands: ``value``, ``lambda``, ``breakeven``, ``verify``, ``sweep``.
Results go to stdout, diagnostics to stderr.  Exit codes:

    0  success (verify: zero violations)
    1  verify found violations
    2  configuration/usage errors (bad config, unknown suite, bad grid,
       trial count below 1, --jobs below 1, negative seed, tolerance not
       positive, non-finite number, unwritable --out file)
    3  solver resource budget exceeded
    4  discount sequence not regular where an index computation needs one
    5  precondition failure (one-armed command on a two-armed config,
       break-even observation with fewer than two stages or non-positive
       discounts)
    6  internal error: an unexpected exception, reported as one stderr line

Floats print with 10 significant digits so repeated runs diff cleanly.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial

from .config import InstanceConfig, load_instance
from .errors import (
    BanditError,
    ConfigError,
    DegenerateHorizonError,
    HorizonTooShortError,
    InvalidParameterError,
    NonPositiveDiscountError,
    NotRegularError,
    ResourceBudgetExceededError,
)
from .index import DEFAULT_TOL, break_even_observation, break_even_value, index_sweep, sweep_csv
from .measures import mean_preserving_spread, predictive, scale, shift
from .solver import PolicyNode, policy_tree, value
from .verify import InstanceGen, REPORT_ONLY_SUITES, SUITE_ORDER, format_reports, run_suites

SWEEP_PARAMS = ("mass", "spread", "shift")


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return format(float(v), ".10g")


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {e}") from e
    if not grid:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return grid


def _print_policy(root: PolicyNode) -> None:
    # Depth first on an explicit stack: a tree can be deeper than the recursion limit.
    stack = [(root, "", 0)]
    while stack:
        node, label, indent = stack.pop()
        pad = "  " * indent
        key = node.key
        head = f"{pad}{label}stage={key.stage} counts={list(key.counts1)}/{list(key.counts2)}"
        print(f"{head} action={node.action.value} w={_fmt(node.report.w)}")
        stack.extend((child, f"obs {_fmt(obs)} -> ", indent + 1)
                     for obs, child in reversed(node.branches))


def _cmd_value(args) -> int:
    cfg = load_instance(args.config, force_mode="exact" if args.exact else None)
    # One solve: with --policy the root's report is the tree's.
    tree = None if args.policy is None else policy_tree(cfg.state(), args.policy, cfg.options)
    report = value(cfg.state(), cfg.options) if tree is None else tree.report
    print(f"W = {_fmt(report.w)}")
    print(f"W1 = {_fmt(report.w1)}")
    print(f"W2 = {_fmt(report.w2)}")
    print(f"action = {report.action.value}")
    if tree is not None:
        _print_policy(tree)
    return 0


class _NotOneArmed(BanditError):
    pass


def _one_armed_config(path) -> InstanceConfig:
    cfg = load_instance(path)
    if cfg.arm2 is not None and not cfg.arm2_known:
        raise _NotOneArmed(
            "this command needs a one-armed config: arm2 must be {'known': ...} or absent"
        )
    return cfg


def _cmd_index(search, key, args) -> int:
    cfg = _one_armed_config(args.config)
    res = search(cfg.arm1, cfg.discount, args.tol, options=cfg.options)
    print(f"{key} = {_fmt(res.value)}")
    print(f"bracket = [{_fmt(res.bracket[0])}, {_fmt(res.bracket[1])}]")
    print(f"iterations = {res.iterations}")
    print(f"residual = {_fmt(res.residual)}")
    return 0


def _write_out(path, text) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InvalidParameterError(f"cannot write --out file: {e}") from e


def _cmd_verify(args) -> int:
    reports = run_suites([args.suite], InstanceGen(seed=args.seed), args.trials, jobs=args.jobs)
    print(format_reports(reports))
    if args.out:
        doc = {"suites": [r.to_dict() for r in reports]}
        _write_out(args.out, json.dumps(doc, indent=2) + "\n")
    failed = any(
        r.violations for r in reports if r.suite_name not in REPORT_ONLY_SUITES
    )
    return 1 if failed else 0


def _spread_family(F, M, atom_index, delta):
    if delta == 0:
        return scale(F, M)
    return scale(mean_preserving_spread(F, atom_index, delta), M)


def _cmd_sweep(args) -> int:
    cfg = load_instance(args.config)
    arm = cfg.arm1
    if args.param == "mass":
        family = partial(scale, predictive(arm))
        expected = "nonincreasing"
    elif args.param == "spread":
        F = predictive(arm)
        weights = F.weights
        atom_index = max(range(len(weights)), key=lambda j: weights[j])
        family = partial(_spread_family, F, arm.total_mass, atom_index)
        expected = "nondecreasing"
    else:
        family = partial(shift, arm)
        expected = "nondecreasing"
    result = index_sweep(family, cfg.discount, args.grid, expected=expected, tol=args.tol)
    text = sweep_csv(result)
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    for prev_p, cur_p, delta in result.flags:
        print(
            f"warning: lambda moves {delta:+.3g} against the expected "
            f"{result.expected} direction between param={prev_p:g} and param={cur_p:g}",
            file=sys.stderr,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-bandit",
        description=(
            "Exact finite-horizon evaluation of one- and two-armed Dirichlet "
            "bandits: values, break-even indices, and property-verification "
            "suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="maximum expected payoff of an instance")
    p_value.add_argument("config", help="instance configuration file (JSON)")
    p_value.add_argument("--policy", type=int, metavar="DEPTH", default=None,
                         help="also print the optimal-policy tree to this depth")
    p_value.add_argument("--exact", action="store_true",
                         help="exact rational arithmetic")
    p_value.set_defaults(func=_cmd_value)

    p_lam = sub.add_parser("lambda", help="break-even value of a one-armed instance")
    p_lam.add_argument("config")
    p_lam.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_lam.set_defaults(func=partial(_cmd_index, break_even_value, "lambda"))

    p_b = sub.add_parser("breakeven", help="break-even observation of a one-armed instance")
    p_b.add_argument("config")
    p_b.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_b.set_defaults(func=partial(_cmd_index, break_even_observation, "b"))

    p_ver = sub.add_parser("verify", help="run randomized property suites")
    p_ver.add_argument("suite", choices=list(SUITE_ORDER) + ["all"],
                       help="lemma1: convexity in point-mass reallocation; "
                            "thm1: monotone in the increasing convex order; "
                            "thm2: monotone in prior weight; "
                            "lemma3: dilution at the known arm's level; "
                            "lemma4: averaging added mass; "
                            "prop1: break-even observation >= break-even value; "
                            "strictness: strict weight gaps (report only); "
                            "oracle: solver vs exhaustive tree; "
                            "montecarlo: simulation vs solver")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--out", default=None, help="write machine-readable JSON report")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per instance and usable CPU")
    p_ver.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="break-even value over a parameter grid (CSV)")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p_sweep.add_argument("--grid", type=_parse_grid, required=True,
                         help="comma-separated parameter values")
    p_sweep.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ResourceBudgetExceededError as e:
        print(f"solver resource error: {e}", file=sys.stderr)
        return 3
    except NotRegularError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (_NotOneArmed, NonPositiveDiscountError, HorizonTooShortError,
            DegenerateHorizonError) as e:
        print(f"precondition failure: {e}", file=sys.stderr)
        return 5
    except BanditError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
