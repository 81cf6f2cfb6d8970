"""Command-line runner for the bundled example properties and scenario files.

Exit codes: 0 when every executed example's outcome matches its expected
outcome, 1 on a mismatch (including a reference judgment that disagrees with
the stepwise monitor), 2 on usage errors, on scenario files that cannot be
read, parsed or evaluated, and on a ``--json`` path that cannot be written
(checked before the first case runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import harness, runtime
from .examples import EXAMPLES, observed_outcome, run_example
from .harness import HarnessConfig

if TYPE_CHECKING:
    from . import symbolic

DEFAULT_SEED = 42


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def ratio(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be a ratio in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcheck",
        description="Temporal property testing of micro-batch stream transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate the bundled examples")

    run = sub.add_parser("run", help="run one bundled example, or all of them")
    run.add_argument("name", help="example name, or 'all'")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument(
        "--min-tests", type=positive_int, default=None, help="override min passing cases"
    )
    run.add_argument("--batch-interval-ms", type=positive_int, default=100)
    run.add_argument(
        "--parallelism",
        type=positive_int,
        default=1,
        help="accepted for compatibility; cases always run one at a time on one thread",
    )
    run.add_argument("--oracle", action="store_true", help="cross-check against the reference judge")
    run.add_argument("--verbose", action="store_true", help="print per-step traces")
    run.add_argument("--json", dest="json_path", default=None, help="write reports as JSON")
    run.add_argument(
        "--inconclusive-warn",
        type=ratio,
        default=None,
        metavar="R",
        help="warn when the inconclusive ratio exceeds R",
    )

    evaluate = sub.add_parser("eval", help="judge a scenario file (formula, word, expected verdict)")
    evaluate.add_argument("path", help="path to a .sexpr scenario file")
    evaluate.add_argument("--oracle", action="store_true", help="also run the reference judge")
    return parser


def _cmd_list() -> int:
    for spec in EXAMPLES.values():
        print(f"{spec.name:24} [{spec.expected:4}] {spec.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.name == "all":
        selected = list(EXAMPLES.values())
    elif args.name in EXAMPLES:
        selected = [EXAMPLES[args.name]]
    else:
        print(f"unknown example {args.name!r}; try 'streamcheck list'", file=sys.stderr)
        return 2
    if args.json_path:
        reason = _unwritable(args.json_path)
        if reason is not None:
            print(f"cannot write {args.json_path}: {reason}", file=sys.stderr)
            return 2

    documents = []
    all_match = True
    for spec in selected:
        cfg = HarnessConfig(
            batch_interval_ms=args.batch_interval_ms,
            min_tests_ok=args.min_tests or spec.min_tests_ok,
            seed=args.seed,
            parallelism=args.parallelism,
            oracle_crosscheck=args.oracle,
        )
        try:
            report = run_example(spec, cfg)
        except harness.OracleMismatch as exc:
            print(
                f"{spec.name}: reference judgment disagrees with the stepwise monitor in {exc}",
                file=sys.stderr,
            )
            return 1
        outcome = observed_outcome(report)
        matched = outcome == spec.expected
        all_match = all_match and matched
        status = "ok" if matched else "MISMATCH"
        print(
            f"{spec.name:24} expected={spec.expected:4} observed={outcome:5} [{status}] "
            f"cases={report.cases} passed={report.passed} inconclusive={report.inconclusive} "
            f"failed={report.failed} errors={report.errors}"
        )
        if args.inconclusive_warn is not None and report.inconclusive_ratio > args.inconclusive_warn:
            print(
                f"  warning: inconclusive ratio {report.inconclusive_ratio:.2f} "
                f"exceeds {args.inconclusive_warn:.2f}"
            )
        if report.error_message:
            print(f"  error: {report.error_message}")
        if args.verbose and report.counterexample is not None:
            cex = report.counterexample
            print(f"  counterexample in case {cex.case_index}, failing step {cex.failing_step}:")
            for instant, batch in enumerate(cex.prefix, 1):
                print(f"    instant {instant}: {list(batch)!r}")
            for entry in cex.trace:
                print(f"    {entry.line()}")
        documents.append(
            {"example": spec.name, "expected": spec.expected, "observed": outcome}
            | harness.report_to_dict(report)
        )

    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(documents, handle, sort_keys=True, separators=(",", ":"))
                handle.write("\n")
        except OSError as exc:
            print(f"cannot write {args.json_path}: {exc}", file=sys.stderr)
            return 2
    return 0 if all_match else 1


def _unwritable(path: str) -> Optional[OSError]:
    """Why ``path`` cannot be opened for writing, or ``None``.

    It is opened for appending, so an existing file is neither truncated nor
    changed, and a file the check creates is removed again.
    """
    created = not os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return exc
    if created:
        os.remove(path)
    return None


def _builtin(name: str, operation):
    """Wrap a built-in so an ill-typed argument is a :class:`symbolic.SymbolicError`."""

    def apply(*args):
        try:
            return operation(*args)
        except TypeError as exc:
            from . import symbolic

            shown = " ".join(map(repr, args))
            raise symbolic.SymbolicError(f"({name} {shown}): {exc}") from exc

    return apply


_ARITHMETIC = {
    "plus": _builtin("plus", lambda a, b: a + b),
}
_PRED_BUILTINS = {
    "leq": _builtin("leq", lambda a, b: a <= b),
}


def default_interpretation(phi: symbolic.SymFormula, word) -> symbolic.Interpretation:
    """Initial-model interpretation: nullary symbols denote themselves,
    with built-in arithmetic (`plus`) and ordering (`leq`)."""
    from . import symbolic

    names = sorted(symbolic.constants(phi, *(term for term, _ in word)) - _ARITHMETIC.keys())
    functions = {name: (lambda name=name: name) for name in names}
    functions.update(_ARITHMETIC)
    return symbolic.Interpretation(
        functions=functions, predicates=dict(_PRED_BUILTINS), constants=tuple(names)
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import sexpr, symbolic

    try:
        with open(args.path, encoding="utf-8") as handle:
            formula, word, expected = sexpr.parse_scenario(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except sexpr.SexprError as exc:
        print(f"cannot parse {args.path}: {exc}", file=sys.stderr)
        return 2

    interp = default_interpretation(formula, word)
    try:
        monitor = runtime.Monitor(symbolic.compile_formula(formula, interp))
        for term, time in word:
            if monitor.verdict is not None:
                break
            monitor.step(term, time)
        verdict = monitor.finish()
        reference = symbolic.judge(word, 1, formula, interp) if args.oracle else None
    except (symbolic.SymbolicError, runtime.FormulaError, RecursionError) as exc:
        print(f"cannot evaluate {args.path}: {exc}", file=sys.stderr)
        return 2
    print(f"{args.path}: verdict={verdict.symbol} expected={expected.symbol}")
    if reference is not None:
        print(f"{args.path}: reference={reference.symbol}")
        if reference is not verdict:
            print("reference judgment disagrees with the stepwise monitor", file=sys.stderr)
            return 1
    return 0 if verdict is expected else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
