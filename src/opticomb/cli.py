"""Command line front end: run a program file against a theory file.

Exit codes: 0 when every statement executed, 2 for unreadable or
unparseable input, 3 when a statement is ill typed for the theory or the
chosen strategy does not apply.
"""
from __future__ import annotations

import argparse
import sys

from .core import CategoryError
from .theory import TheoryError, load_theory, parse_tolerance
from .program import (
    STRATEGIES,
    ProgramError,
    load_program,
    render_json,
    render_text,
    run_program,
)


def _bound(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    try:
        return parse_tolerance(text)
    except TheoryError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opticomb",
        description="decision procedures for combs with holes over a pluggable theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a program against a theory")
    run.add_argument("theory", help="path to a theory file")
    run.add_argument("program", help="path to a program file")
    run.add_argument(
        "--strategy", default="auto", choices=STRATEGIES,
        help="decision strategy for each equiv relation that offers it; "
             "the others run auto",
    )
    run.add_argument(
        "--bound", type=_bound, default=2,
        help="search bound for enumerative strategies",
    )
    run.add_argument(
        "--tolerance", type=_tolerance, default=None,
        help="override the theory's numeric tolerance (exact theories have none)",
    )
    run.add_argument(
        "--format", dest="fmt", default="text", choices=("text", "json"),
        help="output format",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        backend = load_theory(args.theory)
    except (TheoryError, OSError) as exc:
        print(f"theory error: {exc}", file=sys.stderr)
        return 2
    try:
        statements = load_program(args.program)
    except (ProgramError, OSError) as exc:
        print(f"program error: {exc}", file=sys.stderr)
        return 2
    if args.tolerance is not None and backend.tolerance is not None:
        backend.tolerance = args.tolerance
    try:
        reports = run_program(
            backend, statements, strategy=args.strategy, bound=args.bound
        )
    except ProgramError as exc:
        print(f"program error: {exc}", file=sys.stderr)
        return 2
    except CategoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rendered = render_json(reports) if args.fmt == "json" else render_text(reports)
    sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
