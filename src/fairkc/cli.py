"""fairkc command-line interface.

Subcommands: generate, solve, evaluate, oracle, experiment.
Exit codes: 0 success, 2 infeasible, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys


from . import audit, harness, instances, oracle
from .core import (
    ExperimentConfig,
    InfeasibleError,
    cost,
    ds_violation,
    gf_violation,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3


def _add_bound_args(p):
    p.add_argument("--delta", type=float, default=0.2,
                   help="proportion slack: beta=(1-delta)r, alpha=(1+delta)r")
    p.add_argument("--theta", type=float, default=0.8,
                   help="center quota: k_lo = ceil(theta r k)")


def build_parser():
    ap = argparse.ArgumentParser(prog="fairkc")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an instance as matrix JSON")
    g.add_argument("--family", required=True,
                   choices=["l-community", "proportional-gadget", "random"])
    g.add_argument("--output", required=True)
    g.add_argument("--l", type=int, default=2)
    g.add_argument("--size", type=int, default=4)
    g.add_argument("--R", type=float, default=1.0)
    g.add_argument("--pattern", default="alternating", choices=instances.PATTERNS)
    g.add_argument("--k", type=int, default=5)
    g.add_argument("--group-size", type=int, default=1)
    g.add_argument("--alpha-ap", type=float, default=1.0)
    g.add_argument("--n", type=int, default=20)
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--proportions", default=None,
                   help="comma-separated color proportions (default: uniform)")
    g.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("solve", help="run one algorithm on an instance")
    s.add_argument("--algo", required=True, choices=harness.ALGORITHMS)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--output", required=True)
    s.add_argument("--seed", type=int, default=None)
    _add_bound_args(s)

    e = sub.add_parser("evaluate", help="report violations and audit values")
    e.add_argument("--solution", required=True)
    e.add_argument("--input", required=True)
    e.add_argument("--k", type=int, default=None,
                   help="center budget (default: number of centers)")
    e.add_argument("--p", type=int, default=1)
    _add_bound_args(e)

    o = sub.add_parser("oracle", help="brute-force optimum at desk scale")
    o.add_argument("--input", required=True)
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--gf", action="store_true", help="impose GF bounds")
    o.add_argument("--ds", action="store_true", help="impose DS bounds")
    o.add_argument("--rho-allow", type=float, default=0.0)
    o.add_argument("--output", default=None)
    _add_bound_args(o)

    x = sub.add_parser("experiment", help="five-algorithm comparison")
    x.add_argument("--config", required=True,
                   help="JSON with input, k_values, delta, theta, p, seed, output")
    x.add_argument("--timings", action="store_true",
                   help="include wall-time fields in the report")
    return ap


def _config(args, k, inst, p=1):
    """The knobs of one command on inst; a value out of range is a parse error."""
    try:
        if k > inst.n:
            raise ValueError(f"k={k} exceeds the instance's {inst.n} points")
        return ExperimentConfig(k_values=(k,), delta=args.delta, theta=args.theta, p=p)
    except ValueError as exc:
        raise harness.ParseError(str(exc)) from None


def _cmd_generate(args):
    if args.family == "l-community":
        inst = instances.gen_l_community(args.l, args.size, args.R, args.pattern)
    elif args.family == "proportional-gadget":
        inst = instances.gen_proportional_gadget(
            args.k, args.group_size, args.R, args.alpha_ap
        )
    else:
        if args.proportions is None:
            props = [1.0 / args.m] * args.m
        else:
            props = [float(t) for t in args.proportions.split(",")]
        inst = instances.gen_random(args.n, args.m, args.dim, props, args.seed)
    harness.save_instance(inst, args.output)
    return EXIT_OK


def _cmd_solve(args):
    inst = harness.load_instance(args.input)
    cfg = _config(args, args.k, inst)
    gfb = cfg.gf_bounds(inst)
    needs_ds = args.algo in ("alg-ds", "gf-to-gfds", "ds-to-gfds")
    dsb = cfg.ds_bounds(inst, args.k) if needs_ds else None
    table = harness.ALGORITHM_TABLE
    stage, step = table[args.algo]
    base = table[stage][1](inst, args.k, gfb, dsb, args.seed, None) if stage else None
    sol = step(inst, args.k, gfb, dsb, args.seed, base)
    harness.save_solution(sol, args.output)
    print(json.dumps({"cost": cost(inst, sol), "centers": list(sol.centers)}))
    return EXIT_OK


def _cmd_evaluate(args):
    inst = harness.load_instance(args.input)
    sol = harness.load_solution(args.solution)
    k = args.k if args.k is not None else len(sol.centers)
    cfg = _config(args, k, inst, p=args.p)
    gfb = cfg.gf_bounds(inst)
    dsb = cfg.ds_bounds(inst, k)
    out = {
        "cost": cost(inst, sol),
        "gf_rho": gf_violation(inst, gfb, sol),
        "ds_violation": ds_violation(sol, dsb, inst),
        "inactive_centers": list(sol.inactive_centers()),
    }
    out.update(audit.audit_all(inst, sol, k, p=cfg.p))
    print(json.dumps(harness.sanitize(out), indent=2))
    return EXIT_OK


def _cmd_oracle(args):
    inst = harness.load_instance(args.input)
    cfg = _config(args, args.k, inst)
    gfb = cfg.gf_bounds(inst) if args.gf else None
    dsb = cfg.ds_bounds(inst, args.k) if args.ds else None
    got = oracle.brute_force_opt(
        inst, args.k, gfb=gfb, dsb=dsb, rho_allow=args.rho_allow
    )
    if got is None:
        print(json.dumps({"status": "infeasible"}))
        return EXIT_INFEASIBLE
    best_cost, sol = got
    if args.output:
        harness.save_solution(sol, args.output)
    print(json.dumps({"status": "ok", "cost": best_cost, "centers": list(sol.centers)}))
    return EXIT_OK


def _cmd_experiment(args):
    with open(args.config) as fh:
        try:
            cfg_obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise harness.ParseError(f"{args.config}: {exc}") from None
    for key in ("input", "k_values", "output"):
        if key not in cfg_obj:
            raise harness.ParseError(f"{args.config}: missing key {key!r}")
    inst = harness.load_instance(cfg_obj["input"])
    try:
        cfg = ExperimentConfig(
            k_values=tuple(cfg_obj["k_values"]),
            delta=float(cfg_obj.get("delta", 0.2)),
            theta=float(cfg_obj.get("theta", 0.8)),
            p=int(cfg_obj.get("p", 1)),
            seed=int(cfg_obj.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise harness.ParseError(f"{args.config}: {exc}") from None
    report = harness.run_experiment(inst, cfg)
    harness.emit_report(report, cfg_obj["output"], include_timing=args.timings)
    print(f"wrote {cfg_obj['output']}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "oracle": _cmd_oracle,
    "experiment": _cmd_experiment,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (harness.ParseError, harness.ColorCardinality) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
