"""Command-line interface.

Commands: validate, solve-welfare, solve-maximin, solve-exante, oracle,
bounds, gen.  Reports are printed as JSON on stdout.  Exit codes: 0 success,
1 solver error, 2 input error, 3 size-cap refusal.  Identical invocations
produce identical reports apart from the wall_ms field.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import generators
from .errors import CapacityError, InputError
from .exante import solve_exante_maximin
from .model import validate_instance
from .dp_maximin import solve_expost_maximin
from .dp_welfare import solve_social_welfare
from .oracle import GridPlanTable
from .serialize import (
    instance_to_dict,
    mixture_to_dict,
    parse_instance,
    plan_to_dict,
    report_to_dict,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _write_csv(path: str, rewards) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["population", "expected_reward"])
        for j, r in enumerate(np.asarray(rewards)):
            writer.writerow([j, repr(float(r))])


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_validate(args) -> int:
    try:
        parse_instance(args.instance)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    _emit({"valid": True, "violations": []})
    return EXIT_OK


def _cmd_solve(args, kind: str) -> int:
    instance = parse_instance(args.instance)
    if kind == "welfare":
        report, plan = solve_social_welfare(instance, args.epsilon)
        out_payload = plan_to_dict(plan)
    elif kind == "maximin":
        report, plan = solve_expost_maximin(instance, args.epsilon)
        out_payload = plan_to_dict(plan)
    else:
        mixture, report, _ = solve_exante_maximin(
            instance, args.epsilon, rounds=args.rounds
        )
        out_payload = mixture_to_dict(mixture)
    if args.out:
        _write_json(args.out, out_payload)
    if args.csv:
        _write_csv(args.csv, report.per_population_rewards)
    _emit(report_to_dict(report))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.out and args.objective not in ("exante", "all"):
        raise InputError(f"--out writes the exante mixture; --objective {args.objective} "
                         "has none")
    instance = parse_instance(args.instance)
    table = GridPlanTable(instance, args.grid)
    out = {"grid": args.grid}
    objective = args.objective
    if objective in ("welfare", "all"):
        value, plan = table.welfare()
        out["welfare"] = {"value": value, "budget_used": plan.total_cost(instance)}
    if objective in ("maximin", "all"):
        value, plan = table.expost_maximin()
        out["expost_maximin"] = {
            "value": value,
            "budget_used": plan.total_cost(instance),
        }
    if objective in ("exante", "all"):
        value, mixture = table.exante_maximin()
        out["exante_maximin"] = {
            "value": value,
            "support_size": len(mixture.support),
        }
        if args.out:
            _write_json(args.out, mixture_to_dict(mixture))
    _emit(out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    instance = parse_instance(args.instance)
    out = {"welfare_upper_bound": bounds_mod.welfare_upper_bound(instance)}
    if instance.all_malleable():
        out["maximin_lower_bound"] = bounds_mod.maximin_lower_bound(instance)
        if args.epsilon is not None and instance.cost_model.kind != "l1":
            out["note"] = "the fairness-price bracket requires unit (l1) costs"
        elif args.epsilon is not None:
            lower, upper, cert = bounds_mod.price_of_fairness_bracket(
                instance, args.epsilon
            )
            out["fairness_price"] = {
                "lower": lower,
                "upper": upper,
                "empirical_ratio": cert.empirical_ratio,
                "welfare_value": cert.welfare_value,
                "maximin_plan_welfare": cert.maximin_plan_welfare,
                "maximin_value": cert.maximin_value,
                "approximation_slack": cert.approximation_slack,
            }
    else:
        out["maximin_lower_bound"] = None
        out["note"] = "maximin bounds require every edge malleable"
    _emit(out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    meta = {}
    if args.family == "fairness-price":
        instance = generators.fairness_price_instance(args.w, args.pop_eps, args.B)
    elif args.family == "separation":
        instance = generators.separation_instance(args.B)
    elif args.family == "cover-reduction":
        if not args.graph:
            raise InputError("cover-reduction requires --graph")
        with open(args.graph) as fh:
            edges = generators.parse_edge_list(fh.read())
        instance, meta = generators.cover_reduction_instance(
            edges, args.kappa, args.h_eps
        )
        meta = {k: v for k, v in meta.items()
                if k in ("budget", "threshold", "chain_length", "n_vertices")}
    elif args.family == "random":
        instance = generators.random_instance(
            args.seed, args.w, args.k, args.malleable_fraction, args.B
        )
    else:
        raise InputError(f"unknown family {args.family!r}")
    violations = validate_instance(instance)
    if violations:  # e.g. a NaN --B; never write a file `validate` refuses
        raise InputError("generated instance is invalid: " + "; ".join(violations))
    payload = instance_to_dict(instance)
    if args.out:
        _write_json(args.out, payload)
        _emit({"family": args.family, "out": args.out, "layers": payload["layers"],
               **meta})
    else:
        _emit(payload)
    return EXIT_OK


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (discretization and grid steps)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type: an integer >= low (round counts, generator sizes)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _fraction(text: str) -> float:
    """argparse type: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipeopt",
        description="Budgeted intervention planning on layered stochastic pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, epsilon=True):
        p.add_argument("--instance", required=True, help="instance JSON path")
        if epsilon:
            p.add_argument("--epsilon", type=_positive_float, required=True,
                           help="discretization step")
        p.add_argument("--out", help="write plan/mixture JSON here")
        p.add_argument("--csv", help="write per-population rewards CSV here")

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("--instance", required=True)

    p = sub.add_parser("solve-welfare", help="approximate welfare maximization")
    add_common(p)

    p = sub.add_parser("solve-maximin", help="approximate deterministic maximin")
    add_common(p)

    p = sub.add_parser("solve-exante", help="approximate randomized maximin")
    add_common(p)
    p.add_argument("--rounds", type=_int_at_least(1), default=None,
                   help="MW warm-start rounds (default 1)")

    p = sub.add_parser("oracle", help="brute-force grid baselines")
    p.add_argument("--instance", required=True)
    p.add_argument("--grid", type=_positive_float, required=True,
                   help="enumeration step")
    p.add_argument("--objective", default="all",
                   choices=["welfare", "maximin", "exante", "all"])
    p.add_argument("--out", help="write the exante mixture JSON here")

    p = sub.add_parser("bounds", help="analytic bounds and the fairness-price bracket")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=_positive_float, default=None,
                   help="also compute the empirical fairness-price bracket")

    p = sub.add_parser("gen", help="generate a named instance")
    p.add_argument("--family", required=True,
                   choices=["fairness-price", "separation", "cover-reduction",
                            "random"])
    p.add_argument("--out", help="write instance JSON here (default: stdout)")
    p.add_argument("--w", type=_int_at_least(1), default=3,
                   help="width (fairness-price, random)")
    p.add_argument("--k", type=_int_at_least(2), default=3, help="depth (random)")
    p.add_argument("--pop-eps", type=float, default=0.1,
                   help="tail population mass (fairness-price)")
    p.add_argument("--B", "--budget", dest="B", type=float, default=1.0,
                   help="budget")
    p.add_argument("--graph", help="edge-list file (cover-reduction)")
    p.add_argument("--kappa", type=int, default=2,
                   help="cover size (cover-reduction)")
    p.add_argument("--h-eps", dest="h_eps", type=float, default=0.25,
                   help="chain step probability (cover-reduction)")
    p.add_argument("--seed", type=int, default=0, help="seed (random)")
    p.add_argument("--malleable-fraction", type=_fraction, default=1.0,
                   help="fraction of malleable edges (random)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "solve-welfare":
            return _cmd_solve(args, "welfare")
        if args.command == "solve-maximin":
            return _cmd_solve(args, "maximin")
        if args.command == "solve-exante":
            return _cmd_solve(args, "exante")
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "gen":
            return _cmd_gen(args)
        parser.error(f"unknown command {args.command}")
    except CapacityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InputError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
