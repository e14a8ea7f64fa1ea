"""Command-line front end.

Exit codes are part of the interface so shell pipelines can compare
decisions without parsing output:

* 0 / 1 — yes / no for ``validate``, ``solve``, and ``check``
* 2 — usage, parse, contract, I/O, or internal errors
* 3 — a brute-force cap was exceeded

Every error is printed to stderr as one line starting with
``error[<code>]:`` so scripts can grep for the class of failure. Each
package error class carries its code and exit status (``errors``).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import stat
import sys
from pathlib import Path

from .errors import ContractError, ParseError, QraiseError
from .harness import SHAPE_PATTERNS, TARGETS, PrefixPattern, QbfGenSpec
from .harness import check_equivalence, measure_growth
from .parsing import parse_qbf
from .qbf import qbf_valid


# Built on first use and kept for the process: in-process callers of ``main``
# (tests, the benchmark, scripts driving many files) would otherwise rebuild
# the whole tree on every call. A shell user builds it once per process anyway.
# Not built at import, so importing qraise stays cheap.
@functools.cache
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


def _read_text(path: Path) -> str:
    """``path``'s text, read as UTF-8. A byte that is not UTF-8 is a
    ``ParseError`` at the line and column of the first such byte, found by
    reading the file again with each bad byte escaped to a lone surrogate."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        text = path.read_text(encoding="utf-8", errors="surrogateescape")
        at = re.search("[\udc80-\udcff]", text).start()  # type: ignore[union-attr]
        line_start = text.rfind("\n", 0, at) + 1
        raise ParseError(
            f"byte 0x{ord(text[at]) - 0xdc00:02x} is not UTF-8",
            text.count("\n", 0, at) + 1,
            at - line_start + 1,
        ) from None


def _cmd_validate(args: argparse.Namespace) -> int:
    q = parse_qbf(_read_text(args.qbf_file))
    if qbf_valid(q):
        print("valid")
        return 0
    print("invalid")
    return 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    target = TARGETS[args.target]
    q = parse_qbf(_read_text(args.qbf_file))
    text = target.serialize(target.reduce_qbf(q))
    if args.output is None:
        sys.stdout.write(text)
    else:
        _overwrite(args.output, text)
    return 0


def _overwrite(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` like ``Path.write_text``, but cut an
    existing regular file to its new length after writing instead of
    truncating it to zero first. On ext4 (``auto_da_alloc``, the default) a
    file truncated to zero has its data flushed to disk on close, so every
    ``reduce -o`` over an existing file blocked on the disk (rewriting 30 KB
    files on a 2-vCPU VM: 0.36 ms median, up to 18 ms, against 0.12 ms
    median and no wait this way). A write cut short leaves old bytes after
    the new ones. Pipes and devices are written as they are."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _cmd_solve(args: argparse.Namespace) -> int:
    target = TARGETS[args.target]
    answer, detail = target.solve(target.parse(_read_text(args.instance_file)))
    print(f"{'yes' if answer else 'no'} {detail}".rstrip())
    return 0 if answer else 1


def _at_least(value: int, least: int, option: str) -> None:
    """Reject an option value that would make a vacuous run."""
    if value < least:
        raise ContractError(f"{option} must be at least {least}, got {value}")


def _cmd_check(args: argparse.Namespace) -> int:
    if args.exhaustive:
        if args.pattern is not None:
            raise ContractError("--exhaustive and --pattern are mutually exclusive")
        pattern = PrefixPattern.EXHAUSTIVE
    elif args.pattern is not None:
        pattern = SHAPE_PATTERNS[args.pattern]
    else:
        raise ContractError("check needs either --exhaustive or --pattern")
    _at_least(args.vars, 0, "--vars")
    _at_least(args.depth, 0, "--depth")
    if pattern is not PrefixPattern.EXHAUSTIVE:
        # A random QBF has 1 to --vars variables; the exhaustive set starts at 0.
        _at_least(args.vars, 1, "--vars")
        _at_least(args.count, 1, "--count")
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
    print(report.render())
    if report.counterexamples:
        return 1
    if report.resource_errors:
        return 3
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    _at_least(args.raises, 0, "--raises")
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
    except QraiseError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.status
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # Deeply nested input still overflows the formula walks that recurse:
        # the node methods behind formulas.evaluate_reading (plan replay, the
        # recursive QBF oracle) and truth_table, substitute, and the nodes' own
        # __hash__/__eq__. A traceback would exit 1, a "no"; the error's text
        # varies with the stack depth.
        print("error[internal]: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
