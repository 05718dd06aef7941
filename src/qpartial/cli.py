"""Command line front end: run programs, interval expectations, verification.

Every report is the text of ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline, so identical inputs and seeds produce byte-identical
reports. Exit codes: 0 success (``run``: loop converged; ``verify``: all
checks passed), 2 for a nonconverged run or failed checks, 1 for any
error, a program nested too deep for Python's recursion limit included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .density import FixpointConfig, PartialDensityOperator, matrix_from_json, nontermination_probability
from .errors import ParseError
from .observables import BoundedObservable, e0, missing_mass_interval, spectrum_bounds
from .qlang import interpret, parse
from .verify import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpartial",
        description="Quantum while-programs over partial density operators, "
        "interval expected values, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="interpret a program file")
    run_p.add_argument("program", help="path to a program source file")
    run_p.add_argument("--input", help="operator JSON for the initial state (default: ground state)")
    run_p.add_argument("--max-iter", type=int, default=FixpointConfig.max_iterations)
    run_p.add_argument("--trace-tol", type=float, default=FixpointConfig.trace_tol)

    expect_p = sub.add_parser("expect", help="interval expected value of an observable")
    expect_p.add_argument("observable", help="Hermitian operator JSON file")
    expect_p.add_argument("state", help="partial density operator JSON file")

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("suite", choices=SUITES)
    verify_p.add_argument("--dims", default="2,3,4", help="comma-separated dimensions in [2, 16]")
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=42)

    for p in (run_p, expect_p, verify_p):
        p.add_argument("--out", help="also write the JSON report to this path")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "expect":
            return _cmd_expect(args)
        return _cmd_verify(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run(args) -> int:
    cfg = FixpointConfig(max_iterations=args.max_iter, trace_tol=args.trace_tol)
    with open(args.program, encoding="utf-8") as fh:
        program = parse(fh.read())
    if args.input is None:
        state = PartialDensityOperator.ground_state(program.dim)
    else:
        state = _load_state(args.input)
    report = interpret(program, state, cfg)
    _emit(report.to_json(), args.out)
    return 0 if report.converged else 2


def _cmd_expect(args) -> int:
    observable = matrix_from_json(_load_json(args.observable))
    state = _load_state(args.state)
    r = BoundedObservable(observable)
    m, big_m = spectrum_bounds(r)
    center = e0(r, state)
    box = missing_mass_interval(center, state, m, big_m)
    missing = nontermination_probability(state)
    _emit({"lo": box.lo, "hi": box.hi, "e0": center, "missing": missing, "m": m, "M": big_m}, args.out)
    return 0


def _cmd_verify(args) -> int:
    dims = [int(part) for part in args.dims.split(",") if part.strip()]
    report = run_suite(args.suite, dims, args.trials, args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.all_passed else 2


def _load_state(path: str) -> PartialDensityOperator:
    return PartialDensityOperator(matrix_from_json(_load_json(path)))


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: dict, out_path: str | None) -> None:
    """Write the report to ``out_path`` first, so a failed write prints nothing."""
    text = _json_text(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


_compact = json.JSONEncoder(sort_keys=True).encode


def _json_text(o, level: int = 0) -> str:
    """``json.dumps(o, indent=2, sort_keys=True)``, byte for byte, at nesting ``level``.

    Dicts and generic lists are laid out as the stdlib's pure-Python
    encoder lays them out. A list is first encoded in one call of the C
    encoder, which also raises the stdlib's ``TypeError`` for what JSON
    cannot hold. Its compact text, with no ``"`` or ``{``, holds no string
    and no dict: every leaf is a number, boolean or null, whose text holds
    no bracket and no ``", "``. One ``[`` is then a flat list, and
    ``len(o) + 1`` of them, with every item a nonempty list, a list of
    flat rows (an operator's). Either is laid out by re-indenting that
    text, which separates items with ``", "`` and rows with ``"], ["``.
    """
    if not isinstance(o, (dict, list, tuple)):
        return _compact(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(o, dict):
        # {k: 0} encodes as '{<key text>: 0}': the C encoder turns each key
        # into its JSON string, or raises, as the stdlib does
        items = (f"{_compact({k: 0})[1:-4]}: {_json_text(v, level + 1)}" for k, v in sorted(o.items()))
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    text = _compact(o)
    if '"' not in text and "{" not in text:
        brackets = text.count("[")
        if brackets == 1:
            return "[" + inner + text[1:-1].replace(", ", "," + inner) + outer + "]"
        if brackets == len(o) + 1 and all(isinstance(row, (list, tuple)) and row for row in o):
            row = inner + "  "
            body = text[2:-2].replace(", ", "," + row)
            body = body.replace("]," + row + "[", inner + "]," + inner + "[" + row)
            return "[" + inner + "[" + row + body + inner + "]" + outer + "]"
    return "[" + inner + ("," + inner).join(_json_text(x, level + 1) for x in o) + outer + "]"


if __name__ == "__main__":
    sys.exit(main())
