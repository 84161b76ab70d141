"""Command-line interface.

Exit codes: 0 success, 2 infeasible instance (scripts need to tell
infeasibility apart from failure), 1 any other `StripcastError` or an
unreadable file: bad input, a typed refusal (a precondition, a size cap,
`solve --algo two-hop` without the hop bound 2, or `solve --algo` whose
answer breaks the hop bound) or a failed self-check.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import acceptance, hopdp, io_cli, narrow, oracle, twohop, wide
from .model import (
    NARROW_LIMIT,
    BroadcastSet,
    ContractError,
    InfeasibleError,
    InstanceError,
    StripcastError,
    StripInstance,
    make_broadcast_set,
    validate_broadcast,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def pick_algorithm(instance: StripInstance, hops: int | None) -> str:
    """Dispatch rule for --algo auto.

    Narrow strips go to the narrow or hop solver; planar instances support
    only the 2-hop solver, wider strips only the unbounded window solver;
    everything else falls back to the exhaustive oracle.
    """
    if instance.width is not None and instance.width <= NARROW_LIMIT:
        return "hop" if hops is not None else "narrow"
    if hops == 2:
        return "two-hop"
    if hops is None and instance.width is not None:
        return "wide"
    return "brute"


def run_solver(instance: StripInstance, algo: str, hops: int | None) -> BroadcastSet:
    if algo == "auto":
        algo = pick_algorithm(instance, hops)
    if algo == "narrow":
        result = narrow.solve_narrow(instance)
    elif algo == "hop":
        result = hopdp.solve_hop(instance, hops)
    elif algo == "two-hop":
        if hops != 2:
            bound = "no hop bound" if hops is None else f"hop bound {hops}"
            raise ContractError(f"--algo two-hop needs hop bound 2, got {bound}")
        result = twohop.solve_two_hop(instance)
    elif algo == "wide":
        result = wide.solve_wide(instance)
    elif algo == "brute":
        result = oracle.brute_min_broadcast(instance, hops=hops)
    else:
        raise InstanceError(f"unknown algorithm {algo!r}")
    return result


def _cmd_solve(args) -> int:
    if args.hops is not None and args.hops < 1:
        raise InstanceError(f"--hops: hop bound must be >= 1, got {args.hops}")
    instance = io_cli.load_instance(args.file)
    hops = args.hops if args.hops is not None else instance.hops
    result = run_solver(instance, args.algo, hops)
    report = validate_broadcast(instance, result, hops=hops)
    hops_txt = "inf" if report.max_hops_needed == float("inf") else int(report.max_hops_needed)
    if not report.valid:
        raise ContractError(
            f"--algo {args.algo} ignores the hop bound: its set needs "
            f"{hops_txt} hops > {hops}"
        )
    print(f"size {result.size}")
    print("active: " + " ".join(str(i) for i in result.active))
    print(
        f"valid: dominating={report.is_dominating} connected={report.is_connected} "
        f"max_hops={hops_txt}"
    )
    return EXIT_OK


def _parse_set(text: str, instance: StripInstance) -> list[int]:
    """The point indices of a ``--set`` value, each checked against the instance."""
    try:
        indices = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise InstanceError(f"--set must be a comma-separated index list, got {text!r}")
    for i in indices:
        if not 0 <= i < instance.n:
            raise InstanceError(f"--set index {i} out of range 0..{instance.n - 1}")
    return indices


def _cmd_verify(args) -> int:
    instance = io_cli.load_instance(args.file)
    candidate = make_broadcast_set(instance, _parse_set(args.set, instance))
    report = validate_broadcast(instance, candidate)
    hops_txt = "inf" if report.max_hops_needed == float("inf") else int(report.max_hops_needed)
    print(f"dominating: {report.is_dominating}")
    print(f"connected: {report.is_connected}")
    print(f"max_hops_needed: {hops_txt}")
    if instance.hops is not None:
        print(f"hop_bound {instance.hops}: {'ok' if report.hops_ok else 'exceeded'}")
    if report.witnesses:
        print("witnesses: " + " ".join(str(i) for i in report.witnesses))
    return EXIT_OK if report.valid else EXIT_ERROR


def _cmd_gen(args) -> int:
    if args.hops is not None and args.hops < 1:
        raise InstanceError(f"--hops must be a positive integer, got {args.hops}")
    if args.kind == "random-strip":
        inst = io_cli.gen_random_strip(
            args.n, args.width, args.seed, min_sep=args.min_sep
        )
        meta = {
            "generator": "random-strip",
            "seed": args.seed,
            "n": args.n,
            "min_sep": args.min_sep,
        }
    elif args.kind == "chain":
        inst = io_cli.gen_chain(args.n, width=args.width)
        meta = {"generator": "chain", "n": args.n}
    elif args.kind == "bundle":
        inst = io_cli.gen_bundle(args.variables, args.hops or 2)
        meta = {"generator": "bundle", "variables": args.variables, "hops": args.hops or 2}
    else:
        raise InstanceError(f"unknown generator kind {args.kind!r}")
    if args.hops:
        inst = dataclasses.replace(inst, hops=args.hops)
    io_cli.save_instance(inst, args.output, meta=meta)
    print(f"wrote {inst.n} points to {args.output}")
    return EXIT_OK


def _cmd_render(args) -> int:
    instance = io_cli.load_instance(args.file)
    active = [] if args.set is None else _parse_set(args.set, instance)
    svg = io_cli.render_svg(instance, active)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    results = acceptance.run_suite(args.suite)
    failed = [name for name, ok, _ in results if not ok]
    return EXIT_OK if not failed else EXIT_ERROR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stripcast",
        description="Exact minimum-broadcast solvers for unit-disk graphs in strips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument(
        "--algo",
        default="auto",
        choices=["auto", "narrow", "hop", "two-hop", "wide", "brute"],
    )
    p.add_argument("--hops", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="validate a candidate active set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated active indices")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", default="random-strip", choices=["random-strip", "chain", "bundle"])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--width", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-sep", type=float, default=0.05, dest="min_sep")
    p.add_argument("--variables", type=int, default=1, help="bundle strings")
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("render", help="render an instance (and a set) to SVG")
    p.add_argument("file")
    p.add_argument("--set", default=None, help="comma-separated active indices")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("bench", help="run the acceptance suites")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc.reason}")
        if exc.witness:
            print("witness: " + " ".join(str(i) for i in exc.witness))
        return EXIT_INFEASIBLE
    except (StripcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
