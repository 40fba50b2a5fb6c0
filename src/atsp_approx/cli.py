"""Command-line interface: solve / verify / gen / oracle.

Reads instances from a file argument or stdin (JSON edge list or TSPLIB
ATSP FULL_MATRIX), writes machine-readable JSON to stdout and diagnostics
to stderr.  Exit codes: 0 ok, 1 invalid input or stdout closed by its
reader, 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import AtspError, InputError, InternalCheckError
from .graph import Digraph, EdgeMultiset
from .harness import (
    GENERATOR_MODELS,
    _is_int,
    gen_instance,
    held_karp_opt,
    instance_to_json,
    parse_instance,
    run_pipeline,
    verify_tour,
)
from .rational import format_rational, parse_rational

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _epsilon(value: str) -> Fraction:
    eps = parse_rational(value)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    return eps


def _resolve_tour(g: Digraph, walk: list) -> EdgeMultiset:
    """Resolve [tail, head] pairs to edges; the cheapest matching parallel
    edge wins."""
    by_pair: dict[tuple[int, int], int] = {}
    for e in g.edges:
        key = (e.tail, e.head)
        if key not in by_pair or e.cost_num < g.cost_num[by_pair[key]]:
            by_pair[key] = e.eid
    tour = EdgeMultiset(g)
    for item in walk:
        if not isinstance(item, list) or len(item) != 2 or \
                not all(_is_int(v) for v in item):
            raise InputError(f"bad tour step {item!r}")
        key = (item[0], item[1])
        if key not in by_pair:
            raise InputError(f"tour uses a missing arc {key}")
        tour.add(by_pair[key])
    return tour


def cmd_solve(args: argparse.Namespace) -> int:
    name, g = parse_instance(_read_source(args.instance))
    report = run_pipeline(name, g, _epsilon(args.epsilon), with_oracle=args.oracle)
    print(report.to_json())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _, g = parse_instance(_read_source(args.instance))
    try:
        doc = json.loads(_read_source(args.tour))
    # JSONDecodeError, an over-long integer on 3.11+, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad tour JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("tour file must hold a JSON object")
    walk = doc.get("tour_walk", doc.get("tour"))
    if not isinstance(walk, list):
        raise InputError('tour file needs a list "tour_walk" (or "tour")')
    tour = _resolve_tour(g, walk)
    ok, diagnostics = verify_tour(tour)
    print(json.dumps({
        "valid": ok,
        "cost": format_rational(tour.cost()),
        "diagnostics": diagnostics,
    }, indent=2))
    return EXIT_OK if ok else EXIT_INPUT


def cmd_gen(args: argparse.Namespace) -> int:
    g = gen_instance(args.model, args.n, args.seed)
    print(instance_to_json(f"{args.model}-{args.n}-{args.seed}", g))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    name, g = parse_instance(_read_source(args.instance))
    value = held_karp_opt(g)
    print(json.dumps({"instance": name, "held_karp_opt": format_rational(value)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atsp-approx",
        description="Constant-factor ATSP approximation with exact LP certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="instance file, or - for stdin; JSON when "
                       "its first non-blank character is {, TSPLIB otherwise")

    solve = sub.add_parser("solve", help="run the full pipeline")
    add_instance_arg(solve)
    solve.add_argument("--epsilon", default="1",
                       help="approximation slack (rational, default 1)")
    solve.add_argument("--oracle", action="store_true",
                       help="also compute the exact Held-Karp optimum")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a tour against an instance")
    add_instance_arg(verify)
    verify.add_argument("tour", help="tour JSON file, or - for stdin")
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen.add_argument("--model", choices=GENERATOR_MODELS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    oracle = sub.add_parser("oracle", help="exact optimum via Held-Karp")
    add_instance_arg(oracle)
    oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout shows up here
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AtspError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
