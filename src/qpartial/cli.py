"""Command line front end: run programs, interval expectations, verification.

All output is JSON with sorted keys, so identical inputs and seeds
produce byte-identical reports. Exit codes: 0 success (``run``: loop
converged; ``verify``: all checks passed), 2 for a nonconverged run or
failed checks, 1 for any error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import linalg
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

    for p in (run_p, expect_p):
        p.add_argument("--psd-tol", type=float, default=linalg.PSD_TOL)
    for p in (run_p, expect_p, verify_p):
        p.add_argument("--out", help="also write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "verify" and not args.psd_tol > 0.0:
            raise ValueError("psd_tol must be positive")
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "expect":
            return _cmd_expect(args)
        return _cmd_verify(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run(args) -> int:
    cfg = FixpointConfig(max_iterations=args.max_iter, trace_tol=args.trace_tol)
    with open(args.program, encoding="utf-8") as fh:
        program = parse(fh.read())
    if args.input is None:
        state = PartialDensityOperator.ground_state(program.dim)
    else:
        state = _load_state(args.input, args.psd_tol)
    report = interpret(program, state, cfg)
    _emit(report.to_json(), args.out)
    return 0 if report.converged else 2


def _cmd_expect(args) -> int:
    observable = matrix_from_json(_load_json(args.observable))
    state = _load_state(args.state, args.psd_tol)
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


def _load_state(path: str, psd_tol: float) -> PartialDensityOperator:
    return PartialDensityOperator(matrix_from_json(_load_json(path)), psd_tol=psd_tol)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
