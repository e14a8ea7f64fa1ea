"""Command-line front end.

Exit codes are part of the interface so shell pipelines can compare
decisions without parsing output:

* 0 / 1 — yes / no for ``validate``, ``solve``, and ``check``
* 2 — usage, parse, or contract errors
* 3 — a brute-force cap was exceeded

Every error is printed to stderr as one line starting with
``error[<code>]:`` so scripts can grep for the class of failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ContractError, ParseError, QraiseError, ResourceLimitError
from .harness import SHAPE_PATTERNS, TARGETS, PrefixPattern, QbfGenSpec
from .harness import check_equivalence, measure_growth
from .parsing import parse_qbf
from .qbf import qbf_valid


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qraise",
        description="Build and check QBF encodings into abduction, default logic, and planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_target(name: str, help: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help)
        command.add_argument("--target", choices=tuple(TARGETS), required=True)
        return command

    validate = sub.add_parser("validate", help="decide a QBF file; exit 0 valid, 1 invalid")
    validate.add_argument("qbf_file", type=Path)

    reduce_cmd = with_target("reduce", "translate a QBF file into a target instance")
    reduce_cmd.add_argument("qbf_file", type=Path)
    reduce_cmd.add_argument("-o", "--output", type=Path, default=None)

    solve = with_target("solve", "decide an instance file; exit 0 yes, 1 no")
    solve.add_argument("instance_file", type=Path)

    check = with_target("check", "compare a target against QBF validity in bulk")
    check.add_argument("--exhaustive", action="store_true")
    check.add_argument("--vars", type=int, default=3)
    check.add_argument("--depth", type=int, default=3)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--pattern", choices=tuple(SHAPE_PATTERNS), default=None)
    check.add_argument("--count", type=int, default=500)
    check.add_argument("--per-case", action="store_true", help="print one line per case")
    check.add_argument("--fixture-dir", type=Path, default=None)

    growth = with_target("growth", "tabulate instance growth per raise")
    growth.add_argument("--raises", type=int, default=5)

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    q = parse_qbf(args.qbf_file.read_text(encoding="utf-8"))
    if qbf_valid(q):
        print("valid")
        return 0
    print("invalid")
    return 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    target = TARGETS[args.target]
    q = parse_qbf(args.qbf_file.read_text(encoding="utf-8"))
    text = target.serialize(target.reduce_qbf(q))
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text, encoding="utf-8")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    target = TARGETS[args.target]
    answer, detail = target.solve(target.parse(args.instance_file.read_text(encoding="utf-8")))
    print(f"{'yes' if answer else 'no'} {detail}".rstrip())
    return 0 if answer else 1


def _cmd_check(args: argparse.Namespace) -> int:
    if args.exhaustive:
        if args.pattern is not None:
            raise ContractError("--exhaustive and --pattern are mutually exclusive")
        pattern = PrefixPattern.EXHAUSTIVE
    elif args.pattern is not None:
        pattern = SHAPE_PATTERNS[args.pattern]
    else:
        raise ContractError("check needs either --exhaustive or --pattern")
    spec = QbfGenSpec(
        seed=args.seed,
        num_vars=args.vars,
        prefix_pattern=pattern,
        matrix_depth=args.depth,
        count=args.count,
    )
    report = check_equivalence(
        args.target, spec, fixture_dir=args.fixture_dir, collect_cases=args.per_case
    )
    print(report.render(include_cases=args.per_case))
    if report.counterexamples:
        return 1
    if report.resource_errors:
        return 3
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    print(measure_growth(args.target, args.raises).render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "reduce": _cmd_reduce,
        "solve": _cmd_solve,
        "check": _cmd_check,
        "growth": _cmd_growth,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error[resource]: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"error[contract]: {exc}", file=sys.stderr)
        return 2
    except QraiseError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        # Deeply nested input overflows the recursive parser and AST walks;
        # a traceback's exit status 1 would read as a "no".
        print(f"error[internal]: input nested too deeply: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
